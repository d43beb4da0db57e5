#include "msg/threads_mp.hpp"

#include <atomic>
#include <barrier>
#include <deque>
#include <mutex>
#include <thread>

#include "grid/cost_array.hpp"
#include "grid/delta_array.hpp"
#include "msg/packets.hpp"
#include "msg/view.hpp"
#include "route/quality.hpp"
#include "support/assert.hpp"
#include "support/stopwatch.hpp"

namespace locus {

namespace {

struct ThreadMsg {
  std::int32_t type;  // kMsgSendLocData or kMsgSendRmtData
  ProcId region;
  Rect bbox;
  bool absolute;
  std::vector<std::int32_t> values;
};

/// Mutex-protected mailbox; the native stand-in for the simulated network.
class Mailbox {
 public:
  void push(ThreadMsg msg) {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(msg));
  }

  bool pop(ThreadMsg& out) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    out = std::move(queue_.front());
    queue_.pop_front();
    return true;
  }

 private:
  std::mutex mutex_;
  std::deque<ThreadMsg> queue_;
};

}  // namespace

ThreadsMpResult run_threads_message_passing(const Circuit& circuit,
                                            const Partition& partition,
                                            const Assignment& assignment,
                                            const ThreadsMpConfig& config) {
  const std::int32_t procs = partition.num_regions();
  LOCUS_ASSERT(assignment.num_procs() == procs);
  LOCUS_ASSERT(assignment_is_valid(assignment, circuit));
  LOCUS_ASSERT(config.iterations >= 1);

  ThreadsMpResult result;
  result.routes.resize(static_cast<std::size_t>(circuit.num_wires()));
  std::vector<Mailbox> mailboxes(static_cast<std::size_t>(procs));
  std::vector<RouteWorkStats> work(static_cast<std::size_t>(procs));
  std::atomic<std::uint64_t> messages{0};
  std::atomic<std::uint64_t> bytes{0};
  std::barrier iteration_barrier(procs);

  Stopwatch wall;
  auto worker = [&](ProcId self) {
    // Per-thread shard: single-writer counters, merged after join.
    obs::MpNodeObs node_obs;
    obs::ExplorerObs explorer_obs;
    RouterParams router_params = config.router;
    LOCUS_OBS_HOOK(if (config.obs != nullptr) {
      node_obs.bind(config.obs, static_cast<std::size_t>(self));
      explorer_obs.bind(config.obs, static_cast<std::size_t>(self));
      router_params.explorer.obs = &explorer_obs;
    });
    CostArray view(circuit.channels(), circuit.grids());
    DeltaArray delta(partition);
    WireRouter router(circuit.channels(), router_params);
    const std::vector<WireId>& my_wires =
        assignment.wires_per_proc[static_cast<std::size_t>(self)];
    std::int32_t since_loc = 0;
    std::int32_t since_rmt = 0;

    auto drain = [&] {
      ThreadMsg msg;
      while (mailboxes[static_cast<std::size_t>(self)].pop(msg)) {
        LOCUS_OBS_HOOK(if (node_obs) {
          const std::size_t k = obs::msg_kind_index(msg.type);
          auto& reg = node_obs.obs->counters();
          reg.add(node_obs.shard, node_obs.received[k]);
          reg.add(node_obs.shard, node_obs.received_bytes[k],
                  static_cast<std::uint64_t>(update_packet_bytes(
                      PacketStructure::kBoundingBox, msg.bbox, msg.absolute, 0, 0)));
        });
        if (msg.absolute) {
          view.write_rect(msg.bbox, msg.values);
        } else {
          LOCUS_ASSERT(msg.region == self);
          view.add_rect(msg.bbox, msg.values);
          delta.add_rect(msg.bbox, msg.values);
        }
      }
    };

    auto post = [&](ProcId dst, ThreadMsg msg) {
      const auto wire_bytes = static_cast<std::uint64_t>(update_packet_bytes(
          PacketStructure::kBoundingBox, msg.bbox, msg.absolute, 0, 0));
      bytes.fetch_add(wire_bytes, std::memory_order_relaxed);
      messages.fetch_add(1, std::memory_order_relaxed);
      LOCUS_OBS_HOOK(if (node_obs) {
        const std::size_t k = obs::msg_kind_index(msg.type);
        auto& reg = node_obs.obs->counters();
        reg.add(node_obs.shard, node_obs.sent[k]);
        reg.add(node_obs.shard, node_obs.sent_bytes[k], wire_bytes);
      });
      mailboxes[static_cast<std::size_t>(dst)].push(std::move(msg));
    };

    for (std::int32_t iter = 0; iter < config.iterations; ++iter) {
      for (WireId wire_id : my_wires) {
        drain();
        WireRoute& slot = result.routes[static_cast<std::size_t>(wire_id)];
        // Mirror every write into the delta array, as the simulator does.
        ViewWithDelta tracked(view, delta);
        if (slot.routed()) {
          WireRouter::rip_up(slot, tracked);
          LOCUS_OBS_HOOK(if (node_obs) {
            node_obs.obs->counters().add(node_obs.shard, node_obs.ripups);
          });
        }
        slot = router.route_wire(circuit.wire(wire_id), tracked,
                                 work[static_cast<std::size_t>(self)]);
        LOCUS_OBS_HOOK(if (node_obs) {
          auto& reg = node_obs.obs->counters();
          reg.add(node_obs.shard, node_obs.wires_routed);
          reg.add(node_obs.shard, node_obs.cells_committed, slot.cells.size());
        });

        if (config.send_rmt_period > 0 && ++since_rmt >= config.send_rmt_period) {
          since_rmt = 0;
          for (ProcId region = 0; region < procs; ++region) {
            if (region == self || !delta.region_dirty(region)) continue;
            auto extract = delta.extract_region(region);
            LOCUS_ASSERT(extract.has_value());
            post(region, ThreadMsg{kMsgSendRmtData, region, extract->bbox, false,
                                   std::move(extract->values)});
          }
        }
        if (config.send_loc_period > 0 && ++since_loc >= config.send_loc_period) {
          since_loc = 0;
          if (auto extract = delta.extract_region(self)) {
            std::vector<std::int32_t> values;
            view.read_rect(extract->bbox, values);
            for (ProcId neighbor : partition.neighbors(self)) {
              post(neighbor, ThreadMsg{kMsgSendLocData, self, extract->bbox, true,
                                       values});
            }
          }
        }
      }
      iteration_barrier.arrive_and_wait();
      drain();  // everything sent before the barrier is now visible
      iteration_barrier.arrive_and_wait();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(procs));
  for (ProcId p = 0; p < procs; ++p) {
    threads.emplace_back(worker, p);
  }
  for (std::thread& t : threads) t.join();

  result.wall_seconds = wall.seconds();
  result.messages_sent = messages.load();
  result.bytes_sent = bytes.load();
  for (const RouteWorkStats& w : work) result.work += w;
  result.circuit_height =
      circuit_height(circuit.channels(), circuit.grids(), result.routes);
  return result;
}

}  // namespace locus
