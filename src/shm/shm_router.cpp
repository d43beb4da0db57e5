#include "shm/shm_router.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <queue>

#include "grid/backing.hpp"
#include "grid/tiled_cost_array.hpp"
#include "support/assert.hpp"

namespace locus {

namespace {

/// One noted shared reference, before it is stamped.
struct Pending {
  std::uint32_t addr;
  MemOp op;
};

/// Append-only Pending storage in fixed-size blocks: growing never copies
/// or re-touches what is already stored (a 9.57 M-ref bnrE capture would
/// otherwise move its refs through every vector doubling).
class PendingArena {
 public:
  void push(Pending ref) {
    if (size_ == blocks_.size() << kShift) {
      blocks_.push_back(std::unique_ptr<Pending[]>(new Pending[kBlock]));
    }
    blocks_[size_ >> kShift][size_ & kMask] = ref;
    ++size_;
  }
  /// Drops every ref from index `n` on; the blocks stay for reuse.
  void truncate(std::size_t n) { size_ = n; }
  std::size_t size() const { return size_; }
  const Pending& operator[](std::size_t i) const { return blocks_[i >> kShift][i & kMask]; }

 private:
  static constexpr std::size_t kShift = 16;
  static constexpr std::size_t kBlock = std::size_t{1} << kShift;
  static constexpr std::size_t kMask = kBlock - 1;
  std::vector<std::unique_ptr<Pending[]>> blocks_;
  std::size_t size_ = 0;
};

/// CostView over the single shared array that records shared references.
/// Reads are deduplicated per wire (see trace.hpp); every add() logs the
/// read-modify-write pair.
///
/// Capture is two-phase. While routing, each wire's (addr, op) list is
/// appended to one arena and the wire's (proc, t0, duration, count) is
/// recorded. merge_trace() then stamps and merges the wires into the
/// time-ordered trace — element for element the stable sort by time of the
/// refs in emission order, without sorting (DESIGN.md §5.3).
class TracingView final : public CostView {
 public:
  TracingView(GridBacking& shared, bool capture, bool dedup_reads)
      : shared_(shared), capture_(capture), dedup_reads_(dedup_reads),
        read_stamp_(static_cast<std::size_t>(shared.size()), 0) {}

  void begin_wire() {
    ++epoch_;
    arena_.truncate(flushed_);  // refs noted since the last flush are dropped
  }

  /// Closes the refs noted since begin_wire() as one wire of processor
  /// `proc`, to be stamped across [t0, t0 + duration].
  void flush_wire(std::int16_t proc, SimTime t0, SimTime duration) {
    if (!capture_ || arena_.size() == flushed_) return;
    // The merge emits refs at or before a wire's t0 as soon as that wire
    // opens, which is exact only because the executor opens every wire at
    // the minimum processor clock.
    LOCUS_ASSERT(wires_.empty() || t0 >= wires_.back().t0);
    LOCUS_ASSERT(duration >= 0);
    wires_.push_back({t0, duration, flushed_, arena_.size() - flushed_, proc});
    flushed_ = arena_.size();
  }

  /// Builds the time-ordered trace: ref i of an n-ref wire is stamped
  /// t0 + duration * (i + 1) / (n + 1), and refs are ordered by (time,
  /// emission sequence). Walking the wires in emission order, every ref of
  /// the open wires with time <= t0 of the next wire is emitted before that
  /// wire opens; each step takes the smallest (time, seq) among the open
  /// wires, at most one per processor.
  RefTrace merge_trace() const {
    RefTrace trace;
    if (!capture_) return trace;
    trace.reserve(flushed_);
    // An open wire: its next ref and stamp, stepped by the quotient and
    // remainder of duration / (n + 1) so every stamp equals the closed
    // form bit for bit. The open wires sit in a ring in (time, wire)
    // order whose front is the next ref to emit; wires of similar pace
    // take turns, so a stepped wire usually rejoins at the back after one
    // comparison.
    struct Cursor {
      SimTime time;  ///< stamp of the next ref
      std::size_t wire;
      SimTime step;  ///< duration / (n + 1)
      SimTime rem;   ///< duration % (n + 1)
      SimTime den;   ///< n + 1
      SimTime acc;   ///< rem * (i + 1) % den for the next ref i
      std::size_t next;
      std::size_t end;
      std::int16_t proc;
    };
    std::int16_t max_proc = 0;
    for (const WireRefs& w : wires_) max_proc = std::max(max_proc, w.proc);
    const std::size_t mask = std::bit_ceil(static_cast<std::size_t>(max_proc) + 2) - 1;
    std::vector<Cursor> ring(mask + 1);
    std::size_t front = 0;
    std::size_t back = 0;  // one past the last open wire; both unmasked
    auto push = [&](const Cursor& c) {
      std::size_t pos = back++;
      for (; pos != front; --pos) {
        const Cursor& prev = ring[(pos - 1) & mask];
        if (prev.time < c.time || (prev.time == c.time && prev.wire < c.wire)) break;
        ring[pos & mask] = prev;
      }
      ring[pos & mask] = c;
    };
    auto drain_through = [&](SimTime limit) {
      while (front != back && ring[front & mask].time <= limit) {
        Cursor c = ring[front++ & mask];
        const Pending& ref = arena_[c.next];
        trace.append({c.time, ref.addr, c.proc, ref.op});
        if (++c.next == c.end) continue;
        c.acc += c.rem;
        const bool carry = c.acc >= c.den;
        c.acc -= carry ? c.den : 0;
        c.time += c.step + (carry ? 1 : 0);
        push(c);
      }
    };
    for (std::size_t wire = 0; wire < wires_.size(); ++wire) {
      const WireRefs& w = wires_[wire];
      drain_through(w.t0);
      for (std::size_t k = front; k != back; ++k) {
        LOCUS_ASSERT_MSG(ring[k & mask].proc != w.proc,
                         "a processor's previous wire is still open");
      }
      const auto den = static_cast<SimTime>(w.count) + 1;
      const SimTime step = w.duration / den;
      const SimTime rem = w.duration % den;
      push({w.t0 + step, wire, step, rem, den, rem, w.first, w.first + w.count, w.proc});
    }
    drain_through(std::numeric_limits<SimTime>::max());
    return trace;
  }

  std::int32_t read(GridPoint p) override {
    note_read(p);
    return shared_.read(p);
  }

  /// Bulk reads are only exact when no trace is captured: while capturing,
  /// every individual read must be noted (the trace is the product), so the
  /// router transparently stays on the per-cell pricing path. Without a
  /// trace the span forwards to the shared array's fast path.
  void read_row(std::int32_t channel, std::int32_t x_lo, std::int32_t x_hi,
                std::span<std::int32_t> span_out) override {
    if (capture_) {
      CostView::read_row(channel, x_lo, x_hi, span_out);  // notes each read
    } else {
      shared_.read_row(channel, x_lo, x_hi, span_out);
    }
  }
  void read_rows(std::int32_t c_lo, std::int32_t c_hi, std::int32_t x_lo,
                 std::int32_t x_hi, std::span<std::int32_t> span_out) override {
    if (capture_) {
      CostView::read_rows(c_lo, c_hi, x_lo, x_hi, span_out);  // notes each read
    } else {
      shared_.read_rows(c_lo, c_hi, x_lo, x_hi, span_out);
    }
  }
  bool supports_bulk_read() const override { return !capture_; }

  void add(GridPoint p, std::int32_t d) override {
    note_read(p);  // increment = load + store
    if (capture_) {
      arena_.push({cost_cell_addr(p.channel, p.x, shared_.channels()), MemOp::kWrite});
    }
    if (defer_) {
      LOCUS_ASSERT_MSG(d == 1, "only route commits are deferred");
      deferred_cells_.push_back(p);
    } else {
      shared_.add(p, d);
    }
  }

  /// While deferring, add(+1) buffers instead of applying: the wire's
  /// commitment becomes visible only when the executor applies it at the
  /// wire's finish time.
  void set_defer(bool defer) { defer_ = defer; }

  std::vector<GridPoint> take_deferred() { return std::move(deferred_cells_); }

  /// Logs a non-cost-array shared access (the distributed loop counter).
  void note_other(std::uint32_t addr, MemOp op) {
    if (capture_) arena_.push({addr, op});
  }

 private:
  void note_read(GridPoint p) {
    if (!capture_) return;
    if (dedup_reads_) {
      auto idx = static_cast<std::size_t>(shared_.index(p));
      if (read_stamp_[idx] == epoch_) return;
      read_stamp_[idx] = epoch_;
    }
    arena_.push({cost_cell_addr(p.channel, p.x, shared_.channels()), MemOp::kRead});
  }

  /// One flushed wire: its refs are arena_[first, first + count).
  struct WireRefs {
    SimTime t0;
    SimTime duration;
    std::size_t first;
    std::size_t count;
    std::int16_t proc;
  };

  GridBacking& shared_;
  bool capture_;
  bool dedup_reads_;
  bool defer_ = false;
  std::vector<std::uint32_t> read_stamp_;
  std::uint32_t epoch_ = 0;
  PendingArena arena_;
  std::size_t flushed_ = 0;  ///< arena_ prefix owned by flushed wires
  std::vector<WireRefs> wires_;
  std::vector<GridPoint> deferred_cells_;
};

struct ProcState {
  SimTime clock = 0;
  std::size_t cursor = 0;
  const std::vector<WireId>* static_wires = nullptr;
  bool done = false;
};

/// Commits/rip-ups that take effect when their wire finishes. Wires being
/// routed simultaneously by different processors do not see each other's
/// occupancy — exactly the interference that degrades quality as the
/// processor count grows (paper §5.4).
struct PendingCommit {
  SimTime time;
  std::uint64_t seq;
  std::vector<GridPoint> cells;
  std::int32_t delta;
};
struct PendingLater {
  bool operator()(const PendingCommit& a, const PendingCommit& b) const {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }
};

}  // namespace

ShmRunResult run_shared_memory(const Circuit& circuit, const ShmConfig& config) {
  LOCUS_ASSERT(config.procs >= 1);
  LOCUS_ASSERT(config.iterations >= 1);
  const bool dynamic = !config.assignment.has_value();
  if (!dynamic) {
    LOCUS_ASSERT(config.assignment->num_procs() == config.procs);
    LOCUS_ASSERT(assignment_is_valid(*config.assignment, circuit));
  }

  ShmRunResult result{.circuit_height = 0,
                      .occupancy_factor = 0,
                      .completion_ns = 0,
                      .work = {},
                      .proc_finish_ns = {},
                      .trace = {},
                      .routes = {},
                      .cost = CostArray(circuit.channels(), circuit.grids())};
  result.routes.resize(static_cast<std::size_t>(circuit.num_wires()));
  result.proc_finish_ns.assign(static_cast<std::size_t>(config.procs), 0);

  // The one shared array everyone routes against: dense (the result slot
  // itself) or a tiled backing whose content is copied out at the end.
  std::optional<TiledCostArray> tiled;
  if (config.sharded_cost) {
    tiled.emplace(circuit.channels(), circuit.grids(), config.tile_dims);
  }
  GridBacking& shared_cost =
      config.sharded_cost ? static_cast<GridBacking&>(*tiled) : result.cost;

  TracingView view(shared_cost, config.capture_trace, config.trace_dedup_reads);
  const TimeModel& tm = config.time;

  obs::ShmObs shm_obs;
  obs::ExplorerObs explorer_obs;
  RouterParams router_params = config.router;
  LOCUS_OBS_HOOK(if (config.obs != nullptr) {
    shm_obs.bind(config.obs, /*shard_index=*/0);
    explorer_obs.bind(config.obs, /*shard_index=*/0);
    router_params.explorer.obs = &explorer_obs;
    if (obs::TraceSink* t = config.obs->trace()) {
      for (std::int32_t p = 0; p < config.procs; ++p) {
        t->set_track_name(p, "proc " + std::to_string(p));
      }
    }
  });
  WireRouter router(circuit.channels(), router_params);

  std::vector<ProcState> procs(static_cast<std::size_t>(config.procs));
  if (!dynamic) {
    for (std::int32_t p = 0; p < config.procs; ++p) {
      procs[static_cast<std::size_t>(p)].static_wires =
          &config.assignment->wires_per_proc[static_cast<std::size_t>(p)];
    }
  }

  std::priority_queue<PendingCommit, std::vector<PendingCommit>, PendingLater>
      pending_commits;
  std::uint64_t commit_seq = 0;
  auto apply_pending_until = [&](SimTime t) {
    while (!pending_commits.empty() && pending_commits.top().time <= t) {
      const PendingCommit& pc = pending_commits.top();
      for (const GridPoint& p : pc.cells) shared_cost.add(p, pc.delta);
      pending_commits.pop();
    }
  };

  SimTime barrier_time = 0;
  for (std::int32_t iter = 0; iter < config.iterations; ++iter) {
    const bool last = (iter + 1 == config.iterations);
    std::int32_t loop_counter = 0;  // dynamic distributed loop index
    for (ProcState& ps : procs) {
      ps.clock = barrier_time;
      ps.cursor = 0;
      ps.done = false;
    }

    for (;;) {
      // Schedule the least-advanced processor that still has work.
      std::int32_t next = -1;
      SimTime best = std::numeric_limits<SimTime>::max();
      for (std::int32_t p = 0; p < config.procs; ++p) {
        const ProcState& ps = procs[static_cast<std::size_t>(p)];
        if (!ps.done && ps.clock < best) {
          best = ps.clock;
          next = p;
        }
      }
      if (next < 0) break;
      ProcState& ps = procs[static_cast<std::size_t>(next)];

      // Obtain a wire subscript.
      view.begin_wire();
      WireId wire_id = -1;
      SimTime fetch_cost = 0;
      if (dynamic) {
        // Distributed loop: shared counter fetch-and-increment (traced).
        view.note_other(kLoopCounterAddr, MemOp::kRead);
        view.note_other(kLoopCounterAddr, MemOp::kWrite);
        fetch_cost = tm.shm_read_ns + tm.shm_write_ns;
        if (loop_counter >= circuit.num_wires()) {
          ps.done = true;
          view.flush_wire(static_cast<std::int16_t>(next), ps.clock, fetch_cost);
          ps.clock += fetch_cost;
          result.proc_finish_ns[static_cast<std::size_t>(next)] = ps.clock;
          continue;
        }
        wire_id = loop_counter++;
      } else {
        if (ps.cursor >= ps.static_wires->size()) {
          ps.done = true;
          result.proc_finish_ns[static_cast<std::size_t>(next)] = ps.clock;
          continue;
        }
        wire_id = (*ps.static_wires)[ps.cursor++];
      }

      // Make every earlier-finished wire visible, then rip up and re-route
      // against the shared array. The rip-up applies immediately (the
      // router must not be repelled by its own previous path); the new
      // commitment becomes visible at the wire's finish time so wires in
      // flight on other processors do not see it.
      apply_pending_until(ps.clock);
      const Wire& wire = circuit.wire(wire_id);
      WireRoute& slot = result.routes[static_cast<std::size_t>(wire_id)];
      SimTime rip_cost = 0;
      const bool ripped = slot.routed();
      if (ripped) {
        WireRouter::rip_up(slot, view);
        rip_cost = static_cast<SimTime>(slot.cells.size()) * tm.commit_ns;
      }
      view.set_defer(true);
      const RouteWorkStats before = result.work;
      slot = router.route_wire(wire, view, result.work);
      view.set_defer(false);
      const SimTime duration =
          fetch_cost + rip_cost +
          tm.routing_time_ns(result.work.probes - before.probes,
                             result.work.cells_committed - before.cells_committed, 1);
      view.flush_wire(static_cast<std::int16_t>(next), ps.clock, duration);
      LOCUS_OBS_HOOK(if (shm_obs) {
        auto& reg = shm_obs.obs->counters();
        reg.add(shm_obs.shard, shm_obs.wires_routed);
        reg.add(shm_obs.shard, shm_obs.cells_committed, slot.cells.size());
        if (ripped) reg.add(shm_obs.shard, shm_obs.ripups);
        if (obs::TraceSink* t = shm_obs.obs->trace()) {
          t->complete(next, shm_obs.cat_route, shm_obs.n_route, ps.clock, duration,
                      shm_obs.a_wire, wire_id, shm_obs.a_iteration, iter);
        }
      });
      ps.clock += duration;
      pending_commits.push(
          PendingCommit{ps.clock, commit_seq++, view.take_deferred(), +1});

      if (last) {
        // On the shared array the decision-time price is the true price.
        result.occupancy_factor += slot.path_cost;
      }
    }

    // Barrier: everyone waits for the slowest (paper §3), and every
    // commitment lands before the next iteration starts.
    for (const ProcState& ps : procs) barrier_time = std::max(barrier_time, ps.clock);
    apply_pending_until(barrier_time);
    LOCUS_ASSERT(pending_commits.empty());
  }

  result.completion_ns = barrier_time;
  if (tiled.has_value()) {
    // Materialize the dense result array from the tiles (raw copy; absent
    // tiles contribute their zeros).
    std::vector<std::int32_t> values;
    tiled->read_rect(tiled->bounds(), values);
    result.cost.write_rect(result.cost.bounds(), values);
  }
  result.circuit_height = circuit_height(result.cost);
  LOCUS_ASSERT(result.cost ==
               rebuild_cost(circuit.channels(), circuit.grids(), result.routes));
  result.trace = view.merge_trace();
  LOCUS_OBS_HOOK(if (shm_obs) {
    shm_obs.obs->counters().add(shm_obs.shard, shm_obs.trace_refs,
                                result.trace.size());
  });
  return result;
}

}  // namespace locus
