// One pass of one end-to-end benchmark workload.
//
// e2ebench/run.py starts this program once per pass, so a pass can never
// reuse a capture, trace or route set of an earlier pass: everything is
// recomputed from the circuit. The program calls the public layer functions
// directly (circuit generation, assignment, shared memory capture, coherence
// replay, message passing, route legality), one call at a time, and prints
// one JSON object on stdout:
//
//   setup_s   main() entry to the start of the pass: circuit generation,
//             partitions and assignments;
//   wall_s    the pass: every simulation call of the workload;
//   ops       every layer call with its deterministic outputs (the digest
//             run.py compares) and whether its invariants held;
//   spans     with --trace=1, one span per layer call (layer, name, start,
//             end, parent, work), plus the setup/pass/check roots.
//
// Route legality and the repo-circuit check run after the pass, outside
// wall_s. With --chrome=PATH the spans are also written as Chrome
// trace_event JSON through obs::TraceSink.
//
//   e2e_pass --workload=paper-shm|paper-mp|scale-dyn --seed=N [--pass=K]
//            [--trace] [--chrome=PATH] [--circuit-seeds=A,B,..]
//   e2e_pass --workload=W --seed=N --resolve     # prints {"circuit_seeds":[..]}
//
// The workload seed picks the circuits' generator seeds (resolve_circuit_seeds);
// run.py resolves them once per run and hands them to every pass, so the
// size-matching draw stays out of setup_s.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "assign/assignment.hpp"
#include "check/legality.hpp"
#include "circuit/generator.hpp"
#include "circuit/hier_generator.hpp"
#include "coherence/simulator.hpp"
#include "geom/partition.hpp"
#include "harness/experiments.hpp"
#include "harness/paper_data.hpp"
#include "harness/sim_pool.hpp"
#include "msg/driver.hpp"
#include "obs/trace.hpp"
#include "route/sequential.hpp"
#include "shm/shm_router.hpp"
#include "support/cli.hpp"

namespace {

using namespace locus;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- spans --

struct Span {
  std::string layer;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int64_t work = 0;
};

/// In-memory span log around the benchmark's own layer calls. Disabled, it
/// records nothing and every call is a branch.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  std::int32_t open(std::string layer, std::string name) {
    if (!enabled_) return -1;
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({std::move(layer), std::move(name), now_ns(), 0,
                      stack_.empty() ? -1 : stack_.back(), 0});
    stack_.push_back(id);
    return id;
  }
  void close(std::int32_t id, std::int64_t work = 0) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    spans_[static_cast<std::size_t>(id)].work = work;
    stack_.pop_back();
  }
  const std::vector<Span>& all() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

// ------------------------------------------------------------------ ops --

/// One checked layer call: its deterministic outputs and invariant verdict.
struct Op {
  std::string name;
  std::string layer;
  std::vector<std::pair<std::string, std::uint64_t>> out;
  std::string error;  ///< empty when the call returned and its invariants held
  /// Published MBytes for this configuration (harness/paper_data.hpp), or
  /// negative. Printed next to the measured value; never gated.
  double paper_mb = -1.0;

  Op& set(std::string key, std::uint64_t value) {
    out.emplace_back(std::move(key), value);
    return *this;
  }
  Op& set(std::string key, std::int64_t value) {
    return set(std::move(key), static_cast<std::uint64_t>(value));
  }
  void require(bool ok, const char* what) {
    if (!ok && error.empty()) error = what;
  }
};

class Ledger {
 public:
  explicit Ledger(Spans& spans) : spans_(spans) {}

  /// Runs `fn` as one layer call inside a span; `fn` fills the op's outputs
  /// and returns the span's work count. A thrown exception fails the op.
  void call(std::string layer, std::string name,
            const std::function<std::int64_t(Op&)>& fn) {
    Op op{name, layer, {}, {}, -1.0};
    const std::int32_t id = spans_.open(std::move(layer), std::move(name));
    std::int64_t work = 0;
    try {
      work = fn(op);
    } catch (const std::exception& e) {
      op.error = std::string("exception: ") + e.what();
    }
    spans_.close(id, work);
    ops_.push_back(std::move(op));
  }

  const std::vector<Op>& ops() const { return ops_; }

 private:
  Spans& spans_;
  std::vector<Op> ops_;
};

std::uint64_t fnv(std::uint64_t h, std::int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

std::uint64_t hash_circuit(const Circuit& c) {
  std::uint64_t h = fnv(fnv(kFnvBasis, c.channels()), c.grids());
  for (const Wire& w : c.wires()) {
    h = fnv(h, w.id);
    for (const Pin& p : w.pins) h = fnv(fnv(h, p.x), p.row);
  }
  return h;
}

std::uint64_t hash_routes(const std::vector<WireRoute>& routes) {
  std::uint64_t h = kFnvBasis;
  for (const WireRoute& r : routes) {
    h = fnv(fnv(h, r.wire), r.path_cost);
    for (const GridPoint& p : r.cells) h = fnv(fnv(h, p.channel), p.x);
  }
  return h;
}

void set_work(Op& op, const RouteWorkStats& w) {
  op.set("route.wires_routed", w.wires_routed)
      .set("route.probes", w.probes)
      .set("route.routes_evaluated", w.routes_evaluated)
      .set("route.cells_committed", w.cells_committed);
}

// ------------------------------------------------------------- circuits --

/// The paper-circuit shapes of circuit/generator.cpp, reseedable. After the
/// pass, check_repo_circuits fails an op if the repo seeds no longer give
/// make_bnre_like() and make_mdc_like().
GeneratorParams bnre_params(std::uint64_t seed) {
  GeneratorParams p;
  p.name = "bnrE-like";
  p.channels = 10;
  p.grids = 341;
  p.num_wires = 420;
  p.seed = seed;
  p.clusters = 24;
  p.global_fraction = 0.12;
  p.local_span_mean = 18.0;
  return p;
}
GeneratorParams mdc_params(std::uint64_t seed) {
  GeneratorParams p;
  p.name = "MDC-like";
  p.channels = 12;
  p.grids = 386;
  p.num_wires = 573;
  p.seed = seed;
  p.clusters = 30;
  p.global_fraction = 0.10;
  p.local_span_mean = 14.0;
  return p;
}
constexpr std::uint64_t kBnreSeed = 0xB9E5EED5ULL;  // make_bnre_like()
constexpr std::uint64_t kMdcSeed = 0x4D4443ULL;     // make_mdc_like()
constexpr std::int32_t kScaleWires = 30'000;

enum class Shape { kBnre, kMdc, kScale };

/// One circuit of a workload.
struct Slot {
  std::string label;
  Shape shape;
};

std::vector<Slot> workload_slots(const std::string& workload) {
  if (workload == "paper-shm") return {{"bnrE", Shape::kBnre}};
  if (workload == "scale-dyn") return {{"scale30k", Shape::kScale}};
  // paper-mp: bnrE-like and MDC-like plus three reseeded variants of each.
  std::vector<Slot> slots;
  for (int v = 0; v <= 3; ++v) {
    const std::string suffix = v == 0 ? "" : "#" + std::to_string(v);
    slots.push_back({"bnrE" + suffix, Shape::kBnre});
    slots.push_back({"MDC" + suffix, Shape::kMdc});
  }
  return slots;
}

Circuit generate(Shape shape, std::uint64_t gen_seed) {
  switch (shape) {
    case Shape::kBnre: return generate_circuit(bnre_params(gen_seed));
    case Shape::kMdc: return generate_circuit(mdc_params(gen_seed));
    case Shape::kScale: return make_scale_circuit(kScaleWires, gen_seed);
  }
  throw std::logic_error("bad shape");
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The size variants are matched on. For the paper shapes, the probe count
/// of a sequential route: it predicts a shm capture's reference count to
/// 0.2% at ~3 ms a draw. For the 30k-wire scale circuit, whose sequential
/// route costs seconds, the summed pin-bbox area, which tracks its routing
/// probes at about a third of their spread.
std::int64_t size_of(Shape shape, const Circuit& c) {
  if (shape != Shape::kScale) return route_sequential(c, SequentialParams{}).work.probes;
  std::int64_t area = 0;
  for (const Wire& w : c.wires()) area += w.assignment_cost();
  return area;
}

/// Generator seeds of a workload's circuits for workload seed `seed`.
///
/// Seed 0 keeps the repo's own circuits in the first slots: bnrE-like,
/// MDC-like and the scale sweep's. Every other slot draws generator seeds
/// from its (seed, slot) stream and keeps the first circuit whose size_of is
/// within 2% (0.2% for scale) of the repo circuit of its shape. Free draws
/// spread a bnrE capture over 7-11 M references; matched ones make each seed
/// a different netlist of the same size, so run time measures the code and
/// not the draw.
std::vector<std::uint64_t> resolve_circuit_seeds(const std::string& workload,
                                                 std::uint64_t seed) {
  std::vector<std::uint64_t> out;
  const std::vector<Slot> slots = workload_slots(workload);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Shape shape = slots[i].shape;
    const std::uint64_t repo_seed = shape == Shape::kBnre  ? kBnreSeed
                                    : shape == Shape::kMdc ? kMdcSeed
                                                           : ScaleSweepOptions{}.seed;
    if (seed == 0 && i < 2) {
      out.push_back(repo_seed);
      continue;
    }
    const std::int64_t target = size_of(shape, generate(shape, repo_seed));
    const std::int64_t per_mille = shape == Shape::kScale ? 2 : 20;  // tolerance
    const std::uint64_t stream = splitmix(seed * 64 + i);
    for (std::uint64_t k = 0;; ++k) {
      if (k == 10'000) throw std::runtime_error("no size-matched circuit");
      const std::uint64_t candidate = splitmix(stream + k);
      const std::int64_t size = size_of(shape, generate(shape, candidate));
      if (std::abs(size - target) * 1000 <= target * per_mille) {
        out.push_back(candidate);
        break;
      }
    }
  }
  return out;
}

Circuit gen_circuit(Ledger& ledger, const std::string& label, Shape shape,
                    std::uint64_t gen_seed) {
  std::optional<Circuit> circuit;
  ledger.call("circuit.gen", label, [&](Op& op) {
    circuit.emplace(generate(shape, gen_seed));
    std::int64_t pins = 0;
    for (const Wire& w : circuit->wires()) pins += static_cast<std::int64_t>(w.pins.size());
    op.set("channels", std::int64_t{circuit->channels()})
        .set("grids", std::int64_t{circuit->grids()})
        .set("wires", std::int64_t{circuit->num_wires()})
        .set("pins", pins)
        .set("hash", hash_circuit(*circuit));
    return std::int64_t{circuit->num_wires()};
  });
  if (!circuit) throw std::runtime_error("circuit generation failed: " + label);
  return std::move(*circuit);
}

/// One check.circuit op per circuit drawn from a repo seed: it must equal the
/// repo's own make_bnre_like() / make_mdc_like().
void check_repo_circuits(Ledger& ledger, const std::vector<Slot>& slots,
                         const std::vector<std::uint64_t>& seeds,
                         const std::vector<const Circuit*>& circuits) {
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const Shape shape = slots[i].shape;
    if (shape == Shape::kScale || seeds[i] != (shape == Shape::kBnre ? kBnreSeed : kMdcSeed)) {
      continue;
    }
    ledger.call("check.circuit", slots[i].label, [&](Op& op) {
      const std::uint64_t repo =
          hash_circuit(shape == Shape::kBnre ? make_bnre_like() : make_mdc_like());
      op.set("hash", repo);
      op.require(repo == hash_circuit(*circuits[i]), "differs from the repo circuit");
      return std::int64_t{circuits[i]->num_wires()};
    });
  }
}

Assignment make_assign(Ledger& ledger, std::string label, const Circuit& circuit,
                       const std::function<Assignment()>& make) {
  Assignment a;
  ledger.call("assign.make", std::move(label), [&](Op& op) {
    a = make();
    std::uint64_t h = kFnvBasis;
    for (ProcId p : a.proc_of_wire) h = fnv(h, p);
    op.set("procs", std::int64_t{a.num_procs()}).set("hash", h);
    op.require(assignment_is_valid(a, circuit), "assignment invalid");
    return std::int64_t{circuit.num_wires()};
  });
  return a;
}

/// Routes kept for the legality check after the pass.
struct RouteSet {
  std::string label;
  const Circuit* circuit;
  std::vector<WireRoute> routes;
};

// --------------------------------------------------------------- paper-shm --

struct ShmSetup {
  Circuit circuit;
  Assignment tc1000;
  Assignment round_robin;
};

constexpr std::int32_t kPaperProcs = 16;
constexpr std::int32_t kIterations = 2;

ShmSetup setup_shm(Ledger& ledger, const std::vector<std::uint64_t>& seeds) {
  Circuit c = gen_circuit(ledger, "bnrE", Shape::kBnre, seeds[0]);
  const Partition partition(c.channels(), c.grids(), MeshShape::for_procs(kPaperProcs));
  Assignment tc = make_assign(ledger, "bnrE/tc1000/16", c, [&] {
    return assign_threshold_cost(c, partition, 1000);
  });
  Assignment rr = make_assign(ledger, "bnrE/round-robin/16", c, [&] {
    return assign_round_robin(c, kPaperProcs);
  });
  return {std::move(c), std::move(tc), std::move(rr)};
}

void replay(Ledger& ledger, const RefTrace& trace, std::string label,
            ProtocolKind protocol, std::int32_t line, std::int32_t capacity,
            double paper_mb = -1.0) {
  ledger.call(capacity > 0 ? "coherence.lru_replay" : "coherence.replay", label,
              [&](Op& op) {
    op.paper_mb = paper_mb;
    CoherenceParams params;
    params.line_size = line;
    params.protocol = protocol;
    params.capacity_lines = capacity;
    CoherenceSim sim(kPaperProcs, params);
    sim.replay(trace);
    const CoherenceTraffic& t = sim.traffic();
    op.set("coherence.refs_replayed", t.accesses)
        .set("coherence.misses", t.read_misses + t.write_misses)
        .set("coherence.invalidations", t.invalidation_msgs)
        .set("coherence.evictions", t.capacity_evictions)
        .set("total_bytes", t.total_bytes())
        .set("cold_fetch_bytes", t.cold_fetch_bytes)
        .set("refetch_bytes", t.refetch_bytes)
        .set("write_fetch_bytes", t.write_fetch_bytes)
        .set("word_write_bytes", t.word_write_bytes)
        .set("flush_bytes", t.read_flush_bytes + t.write_flush_bytes)
        .set("eviction_writeback_bytes", t.eviction_writeback_bytes)
        .set("lines_touched", static_cast<std::uint64_t>(sim.lines_touched()));
    op.require(t.accesses == trace.size(), "replay skipped references");
    op.require(capacity > 0 || t.capacity_evictions == 0,
               "infinite cache evicted a line");
    return static_cast<std::int64_t>(t.accesses);
  });
}

/// Captures one full reference trace; returns it for the replays.
RefTrace capture(Ledger& ledger, const ShmSetup& s, const Assignment& assignment,
                 std::string label, std::vector<RouteSet>& keep) {
  RefTrace trace;
  ledger.call("shm.capture", label, [&](Op& op) {
    ShmConfig config;
    config.procs = kPaperProcs;
    config.iterations = kIterations;
    config.assignment = assignment;
    ShmRunResult r = run_shared_memory(s.circuit, config);
    op.set("circuit_height", r.circuit_height)
        .set("occupancy", r.occupancy_factor)
        .set("completion_ns", r.completion_ns)
        .set("shm.refs", static_cast<std::uint64_t>(r.trace.size()))
        .set("reads", r.trace.count(MemOp::kRead))
        .set("routes_hash", hash_routes(r.routes));
    set_work(op, r.work);
    op.require(r.routes.size() == static_cast<std::size_t>(s.circuit.num_wires()),
               "route count differs from wire count");
    op.require(std::is_sorted(r.trace.refs().begin(), r.trace.refs().end(),
                              [](const MemRef& a, const MemRef& b) {
                                return a.time < b.time;
                              }),
               "trace not time-ordered");
    trace = std::move(r.trace);
    keep.push_back({label, &s.circuit, std::move(r.routes)});
    return static_cast<std::int64_t>(trace.size());
  });
  return trace;
}

void pass_shm(Ledger& ledger, const ShmSetup& s, std::vector<RouteSet>& keep) {
  {
    const RefTrace trace = capture(ledger, s, s.tc1000, "tc1000", keep);
    for (const paper::LineSizeRow& row : paper::kTable3) {
      replay(ledger, trace, "tc1000/wbi/" + std::to_string(row.line_size) + "B",
             ProtocolKind::kWriteBackInvalidate, row.line_size, 0, row.mbytes);
    }
    for (auto [name, protocol] : {std::pair{"wt", ProtocolKind::kWriteThrough},
                                  std::pair{"mesi", ProtocolKind::kMesi},
                                  std::pair{"dragon", ProtocolKind::kDragon}}) {
      replay(ledger, trace, std::string("tc1000/") + name + "/8B", protocol, 8, 0);
    }
    for (std::int32_t lines : {128, 2048}) {
      replay(ledger, trace, "tc1000/wbi/8B/lru" + std::to_string(lines),
             ProtocolKind::kWriteBackInvalidate, 8, lines);
    }
  }  // the tc1000 trace is released before the second capture
  const RefTrace trace = capture(ledger, s, s.round_robin, "round-robin", keep);
  replay(ledger, trace, "round-robin/wbi/8B", ProtocolKind::kWriteBackInvalidate, 8, 0,
         paper::kTable5[0].mbytes);  // bnrE, round robin
}

// ---------------------------------------------------------- message passing --

struct MpJob {
  std::string label;
  const Circuit* circuit;
  const Partition* partition;
  const Assignment* assignment;
  MpConfig config;
  double paper_mb;  ///< Tables 1/2/6 value on the bnrE-shaped slot, else < 0
};

void run_mp(Ledger& ledger, const MpJob& job, std::vector<RouteSet>& keep) {
  ledger.call("msg.run", job.label, [&](Op& op) {
    op.paper_mb = job.paper_mb;
    MpRunResult r =
        run_message_passing(*job.circuit, *job.partition, *job.assignment, job.config);
    std::uint64_t link_sum = 0;
    for (std::uint64_t b : r.link_bytes) link_sum += b;
    std::uint64_t type_sum = 0;
    for (const auto& [type, bytes] : r.network.bytes_by_type) type_sum += bytes;
    op.set("circuit_height", r.circuit_height)
        .set("occupancy", r.occupancy_factor)
        .set("msg.bytes", r.bytes_transferred)
        .set("msg.packets", r.network.packets)
        .set("msg.requests_sent", r.requests_sent)
        .set("msg.updates_suppressed", r.updates_suppressed)
        .set("msg.grants_issued", r.grants_issued)
        .set("msg.grant_wires", r.grant_wires)
        .set("sim.events", r.machine.events)
        .set("sim.byte_hops", r.network.byte_hops)
        .set("sim.link_stalls", r.link_usage.stalls)
        .set("sim.completion_ns", r.completion_ns)
        .set("grid.view_resident_bytes", r.view_resident_bytes)
        .set("routes_hash", hash_routes(r.routes));
    set_work(op, r.work);
    op.require(r.routes.size() == static_cast<std::size_t>(job.circuit->num_wires()),
               "route count differs from wire count");
    op.require(link_sum == r.network.byte_hops, "link bytes do not sum to byte-hops");
    op.require(type_sum == r.network.bytes, "per-type bytes do not sum to bytes");
    keep.push_back({job.label, job.circuit, std::move(r.routes)});
    return static_cast<std::int64_t>(r.machine.events);
  });
}

struct MpCircuit {
  std::string label;
  Circuit circuit;
  std::vector<Partition> partitions;  ///< one per Table 6 processor count
  std::vector<Assignment> assignments;
};

struct MpSetup {
  std::vector<MpCircuit> circuits;
  std::vector<MpJob> jobs;
};

/// Table 6's processor counts; the last is the paper's 16.
std::vector<std::int32_t> table6_procs() {
  std::vector<std::int32_t> procs;
  for (const paper::ScalingRow& row : paper::kTable6) procs.push_back(row.procs);
  return procs;
}

void setup_paper_mp(Ledger& ledger, const std::vector<std::uint64_t>& seeds, MpSetup& s) {
  const std::vector<std::int32_t> procs = table6_procs();
  const std::vector<Slot> slots = workload_slots("paper-mp");
  s.circuits.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Slot& slot = slots[i];
    MpCircuit mc{slot.label, gen_circuit(ledger, slot.label, slot.shape, seeds[i]), {}, {}};
    for (std::int32_t p : procs) {
      mc.partitions.emplace_back(mc.circuit.channels(), mc.circuit.grids(),
                                 MeshShape::for_procs(p));
    }
    for (std::size_t pi = 0; pi < procs.size(); ++pi) {
      mc.assignments.push_back(make_assign(
          ledger, slot.label + "/tc1000/" + std::to_string(procs[pi]), mc.circuit, [&] {
            return assign_threshold_cost(mc.circuit, mc.partitions[pi], 1000);
          }));
    }
    s.circuits.push_back(std::move(mc));
  }

  const std::size_t p16 = procs.size() - 1;
  for (const MpCircuit& mc : s.circuits) {
    // The paper's MP tables are all bnrE: compare the bnrE-shaped slot only.
    const bool paper_bnre = &mc == &s.circuits.front();
    auto add = [&](std::string label, const UpdateSchedule& schedule, std::size_t pi,
                   double paper_mb) {
      MpConfig config;
      config.schedule = schedule;
      config.iterations = kIterations;
      s.jobs.push_back({mc.label + "/" + label, &mc.circuit, &mc.partitions[pi],
                        &mc.assignments[pi], config, paper_bnre ? paper_mb : -1.0});
    };
    for (const paper::SenderRow& row : paper::kTable1) {
      add("sender(" + std::to_string(row.send_rmt) + "," + std::to_string(row.send_loc) + ")",
          UpdateSchedule::sender(row.send_rmt, row.send_loc), p16, row.mbytes);
    }
    for (bool blocking : {false, true}) {
      for (const paper::ReceiverRow& row : paper::kTable2) {
        add(std::string(blocking ? "blocking" : "receiver") + "(" +
                std::to_string(row.req_loc) + "," + std::to_string(row.req_rmt) + ")",
            UpdateSchedule::receiver(row.req_loc, row.req_rmt, blocking), p16,
            blocking ? -1.0 : row.mbytes);
      }
    }
    for (std::size_t pi = 0; pi < procs.size(); ++pi) {
      add("sender(2,10)@" + std::to_string(procs[pi]), UpdateSchedule::sender(2, 10), pi,
          paper::kTable6[pi].mbytes);
    }
  }
}

// --------------------------------------------------------------- scale-dyn --

constexpr std::int32_t kScaleProcs = 256;

/// The MpConfig run_scale_sweep builds for ScaleAssignMode::kDynamicLocality.
MpConfig scale_dyn_config(const ScaleSweepOptions& o) {
  MpConfig config;
  config.schedule = UpdateSchedule::sender(2, 10);
  config.iterations = o.iterations;
  config.shard.enabled = o.sharded;
  config.shard.batch_updates = o.batch_updates;
  config.shard.tile = o.tile;
  config.link_cost.kind = o.cost_model;
  config.assignment_mode = WireAssignmentMode::kDynamicInterrupt;
  config.dynamic.policy = GrantPolicy::kLocality;
  config.dynamic.grant_batch = o.grant_batch;
  config.dynamic.locality_radius = o.locality_radius;
  return config;
}

void setup_scale_dyn(Ledger& ledger, const std::vector<std::uint64_t>& seeds, MpSetup& s) {
  MpCircuit mc{"scale30k", gen_circuit(ledger, "scale30k", Shape::kScale, seeds[0]), {}, {}};
  mc.partitions.emplace_back(mc.circuit.channels(), mc.circuit.grids(),
                             MeshShape::for_procs(kScaleProcs));
  mc.assignments.push_back(make_assign(ledger, "scale30k/tc-inf/256", mc.circuit, [&] {
    return assign_threshold_cost(mc.circuit, mc.partitions[0], kThresholdInfinity);
  }));
  s.circuits.push_back(std::move(mc));
  const MpCircuit& c = s.circuits.back();
  s.jobs.push_back({"scale30k/dyn-local/256", &c.circuit, &c.partitions[0],
                    &c.assignments[0], scale_dyn_config(ScaleSweepOptions{}), -1.0});
}

// ----------------------------------------------------------------- output --

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(ch));
      out += buf;
    } else {
      out += ch;
    }
  }
  out += '"';
}

std::string to_json(const std::string& workload, std::uint64_t seed, int pool,
                    double setup_s, double wall_s, const std::vector<Op>& ops,
                    const std::vector<Span>& spans, std::int64_t entry_ns) {
  std::string out = "{\"workload\":";
  append_json_string(out, workload);
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"pool_threads\":" + std::to_string(pool);
  char buf[64];
  std::snprintf(buf, sizeof buf, ",\"setup_s\":%.9f,\"wall_s\":%.9f", setup_s, wall_s);
  out += buf;
  out += ",\"ops\":[";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (i > 0) out += ',';
    out += "{\"op\":";
    append_json_string(out, op.name);
    out += ",\"layer\":";
    append_json_string(out, op.layer);
    out += ",\"error\":";
    append_json_string(out, op.error);
    if (op.paper_mb >= 0.0) {
      std::snprintf(buf, sizeof buf, ",\"paper_mb\":%.6g", op.paper_mb);
      out += buf;
    }
    out += ",\"out\":{";
    for (std::size_t k = 0; k < op.out.size(); ++k) {
      if (k > 0) out += ',';
      append_json_string(out, op.out[k].first);
      out += ':' + std::to_string(op.out[k].second);
    }
    out += "}}";
  }
  out += "],\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out += ',';
    out += "{\"layer\":";
    append_json_string(out, s.layer);
    out += ",\"name\":";
    append_json_string(out, s.name);
    out += ",\"start_ns\":" + std::to_string(s.start_ns - entry_ns);
    out += ",\"end_ns\":" + std::to_string(s.end_ns - entry_ns);
    out += ",\"parent\":" + std::to_string(s.parent);
    out += ",\"work\":" + std::to_string(s.work) + "}";
  }
  out += "]}";
  return out;
}

bool write_chrome(const std::string& path, const std::vector<Span>& spans,
                  std::int64_t entry_ns, std::int32_t pass) {
  obs::TraceSink sink;
  sink.set_track_name(pass, "pass " + std::to_string(pass));
  const auto pass_arg = sink.intern("pass");
  const auto parent_arg = sink.intern("parent");
  for (const Span& s : spans) {
    sink.complete(pass, sink.intern(s.layer), sink.intern(s.name),
                  s.start_ns - entry_ns, s.end_ns - s.start_ns, pass_arg, pass,
                  parent_arg, s.parent);
  }
  return sink.write_chrome_json(path);
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t entry_ns = now_ns();
  Cli cli;
  cli.flag("workload", "paper-shm | paper-mp | scale-dyn", "")
      .flag("seed", "workload seed (0 = the repo's own circuits)", "0")
      .flag("pass", "pass id recorded in the spans", "0")
      .flag("trace", "record spans around every layer call", false)
      .flag("chrome", "write the spans as Chrome trace_event JSON here", "")
      .flag("circuit-seeds", "comma-separated generator seeds (default: resolve)", "")
      .flag("resolve", "print the workload's generator seeds and exit", false);
  if (!cli.parse(argc, argv)) return 2;
  const std::string workload = cli.get("workload");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto pass = static_cast<std::int32_t>(cli.get_int("pass"));
  if (workload != "paper-shm" && workload != "paper-mp" && workload != "scale-dyn") {
    std::fprintf(stderr, "e2e_pass: unknown --workload '%s'\n", workload.c_str());
    return 2;
  }

  std::vector<std::uint64_t> seeds;
  try {
    const std::string given = cli.get("circuit-seeds");
    if (given.empty()) {
      seeds = resolve_circuit_seeds(workload, seed);
    } else {
      for (std::size_t pos = 0; pos <= given.size();) {
        const std::size_t comma = std::min(given.find(',', pos), given.size());
        seeds.push_back(std::stoull(given.substr(pos, comma - pos)));
        pos = comma + 1;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_pass: circuit seeds: %s\n", e.what());
    return 2;
  }
  if (seeds.size() != workload_slots(workload).size()) {
    std::fprintf(stderr, "e2e_pass: %s needs %zu circuit seeds\n", workload.c_str(),
                 workload_slots(workload).size());
    return 2;
  }
  if (cli.get_bool("resolve")) {
    std::string out = "{\"circuit_seeds\":[";
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      out += (i > 0 ? "," : "") + std::to_string(seeds[i]);
    }
    std::puts((out + "]}").c_str());
    return 0;
  }

  // Recorded for the report; every layer call below is made serially from
  // this thread, so no pool runs during the pass.
  const int pool = std::min(4, std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
  set_sim_threads(pool);

  Spans spans(cli.get_bool("trace"));
  Ledger ledger(spans);
  std::vector<RouteSet> routes;
  std::int64_t pass_start = 0;
  std::int64_t pass_end = 0;
  try {
    std::optional<ShmSetup> shm;
    MpSetup mp;
    const std::int32_t setup_span = spans.open("bench", "setup");
    if (workload == "paper-shm") {
      shm.emplace(setup_shm(ledger, seeds));
    } else if (workload == "paper-mp") {
      setup_paper_mp(ledger, seeds, mp);
    } else {
      setup_scale_dyn(ledger, seeds, mp);
    }
    spans.close(setup_span);

    pass_start = now_ns();
    const std::int32_t pass_span = spans.open("bench", "pass");
    if (shm) {
      pass_shm(ledger, *shm, routes);
    } else {
      for (const MpJob& job : mp.jobs) run_mp(ledger, job, routes);
    }
    spans.close(pass_span);
    pass_end = now_ns();

    const std::int32_t check_span = spans.open("bench", "check");
    for (const RouteSet& rs : routes) {
      ledger.call("check.legality", rs.label, [&](Op& op) {
        const LegalityReport report = check_route_legality(*rs.circuit, rs.routes);
        op.set("wires_checked", report.wires_checked)
            .set("cells_checked", report.cells_checked)
            .set("issues", static_cast<std::uint64_t>(report.issues.size()));
        op.require(report.legal(), "illegal routing");
        return report.wires_checked;
      });
    }
    std::vector<const Circuit*> circuits;
    if (shm) circuits.push_back(&shm->circuit);
    for (const MpCircuit& mc : mp.circuits) circuits.push_back(&mc.circuit);
    check_repo_circuits(ledger, workload_slots(workload), seeds, circuits);
    spans.close(check_span);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_pass: %s\n", e.what());
    return 1;
  }

  const std::string chrome = cli.get("chrome");
  if (!chrome.empty() && !write_chrome(chrome, spans.all(), entry_ns, pass)) {
    std::fprintf(stderr, "e2e_pass: cannot write %s\n", chrome.c_str());
    return 1;
  }
  const std::string json =
      to_json(workload, seed, pool, static_cast<double>(pass_start - entry_ns) / 1e9,
              static_cast<double>(pass_end - pass_start) / 1e9, ledger.ops(), spans.all(),
              entry_ns);
  std::puts(json.c_str());
  return 0;
}
