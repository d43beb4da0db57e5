// Differential tests for the coherence simulator.
//
// 1. Against the reference (reference_coherence.hpp: the hash-map line table
//    and std::list LRU the dense directory replaced), every CoherenceTraffic
//    field plus lines_touched() must match for 4 protocols x line sizes
//    {4, 8, 16, 32} x capacities {0, 1, 2, 128, 2048} on real captures and
//    200 seeded random traces. The random traces hit kLoopCounterAddr,
//    addresses near 2^32 and evictions of dirty lines.
// 2. Past the reference's 32-processor ceiling (33, 64 and 256 procs), a
//    brute-force model that keeps an explicit holder set per line stands in
//    for the reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "assign/assignment.hpp"
#include "circuit/generator.hpp"
#include "coherence/simulator.hpp"
#include "reference_coherence.hpp"
#include "shm/shm_router.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace locus {
namespace {

constexpr ProtocolKind kProtocols[] = {
    ProtocolKind::kWriteBackInvalidate, ProtocolKind::kWriteThrough,
    ProtocolKind::kMesi, ProtocolKind::kDragon};
constexpr std::int32_t kLineSizes[] = {4, 8, 16, 32};
constexpr std::int32_t kCapacities[] = {0, 1, 2, 128, 2048};

std::string describe(ProtocolKind protocol, std::int32_t line, std::int32_t capacity) {
  return "protocol=" + std::to_string(static_cast<int>(protocol)) +
         " line=" + std::to_string(line) + " capacity=" + std::to_string(capacity);
}

void expect_same_traffic(const CoherenceTraffic& got, const CoherenceTraffic& want,
                         const std::string& where) {
  EXPECT_EQ(got.cold_fetch_bytes, want.cold_fetch_bytes) << where;
  EXPECT_EQ(got.refetch_bytes, want.refetch_bytes) << where;
  EXPECT_EQ(got.write_fetch_bytes, want.write_fetch_bytes) << where;
  EXPECT_EQ(got.word_write_bytes, want.word_write_bytes) << where;
  EXPECT_EQ(got.read_flush_bytes, want.read_flush_bytes) << where;
  EXPECT_EQ(got.write_flush_bytes, want.write_flush_bytes) << where;
  EXPECT_EQ(got.invalidation_msgs, want.invalidation_msgs) << where;
  EXPECT_EQ(got.eviction_writeback_bytes, want.eviction_writeback_bytes) << where;
  EXPECT_EQ(got.read_misses, want.read_misses) << where;
  EXPECT_EQ(got.write_misses, want.write_misses) << where;
  EXPECT_EQ(got.capacity_evictions, want.capacity_evictions) << where;
  EXPECT_EQ(got.accesses, want.accesses) << where;
}

/// Seeded random trace over three address regions: a low "cost array"
/// whose size varies per seed (so some traces overflow 128-line caches),
/// words around kLoopCounterAddr, and the last bytes below 2^32.
RefTrace random_trace(std::uint64_t seed, std::int32_t procs, std::size_t refs) {
  Rng rng(seed);
  constexpr std::uint64_t kRegionWords[] = {16, 256, 4096};
  const std::uint64_t words = kRegionWords[rng.bounded(3)];
  const double write_share = 0.1 + 0.5 * rng.uniform();
  RefTrace trace;
  for (std::size_t i = 0; i < refs; ++i) {
    const std::uint64_t region = rng.bounded(10);
    std::uint32_t addr;
    if (region < 7) {
      addr = static_cast<std::uint32_t>(rng.bounded(words)) * 4u;
    } else if (region < 8) {
      addr = kLoopCounterAddr + static_cast<std::uint32_t>(rng.bounded(8)) * 4u;
    } else {
      addr = 0xFFFF'FFFFu - static_cast<std::uint32_t>(rng.bounded(256));
    }
    trace.append({static_cast<SimTime>(i), addr,
                  static_cast<std::int16_t>(rng.bounded(static_cast<std::uint64_t>(procs))),
                  rng.chance(write_share) ? MemOp::kWrite : MemOp::kRead});
  }
  return trace;
}

/// Replays `trace` through both simulators under every configuration of
/// the matrix and compares everything they report.
void expect_matches_reference(const RefTrace& trace, std::int32_t procs,
                              const std::string& input) {
  for (ProtocolKind protocol : kProtocols) {
    for (std::int32_t line : kLineSizes) {
      for (std::int32_t capacity : kCapacities) {
        CoherenceParams params;
        params.protocol = protocol;
        params.line_size = line;
        params.capacity_lines = capacity;
        CoherenceSim sim(procs, params);
        test::ReferenceCoherenceSim ref(procs, params);
        sim.replay(trace);
        ref.replay(trace);
        const std::string where = input + " " + describe(protocol, line, capacity);
        expect_same_traffic(sim.traffic(), ref.traffic(), where);
        EXPECT_EQ(sim.lines_touched(), ref.lines_touched()) << where;
      }
    }
  }
}

TEST(CoherenceDiff, TinyCaptureMatchesReference) {
  ShmConfig config;
  config.procs = 16;
  const RefTrace trace = run_shared_memory(make_tiny_test_circuit(), config).trace;
  ASSERT_GT(trace.size(), 0u);
  expect_matches_reference(trace, config.procs, "tiny/dynamic/16");
}

TEST(CoherenceDiff, SeededCaptureMatchesReference) {
  const Circuit circuit = test::make_seeded_circuit(11);
  ShmConfig config;
  config.procs = 4;
  config.assignment = assign_round_robin(circuit, config.procs);
  const RefTrace trace = run_shared_memory(circuit, config).trace;
  ASSERT_GT(trace.size(), 0u);
  expect_matches_reference(trace, config.procs, "seeded(11)/round-robin/4");
}

TEST(CoherenceDiff, RandomTracesMatchReference) {
  std::uint64_t dirty_evictions = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng pick(seed ^ 0xD1FFu);
    const auto procs = static_cast<std::int32_t>(1 + pick.bounded(32));
    const RefTrace trace = random_trace(seed, procs, 400 + pick.bounded(800));
    expect_matches_reference(trace, procs, "random seed=" + std::to_string(seed));
    CoherenceParams small;
    small.capacity_lines = 2;
    CoherenceSim sim(procs, small);
    sim.replay(trace);
    dirty_evictions += sim.traffic().eviction_writeback_bytes;
    if (HasFailure()) return;  // one failing seed is enough to read
  }
  EXPECT_GT(dirty_evictions, 0u);  // the inputs do evict dirty lines
}

/// Brute-force model: an explicit holder set, ever-held set and dirty
/// owner per line, and per-processor LRU lists searched linearly. It
/// implements the same four protocols with no processor ceiling.
class BruteForceSim {
 public:
  BruteForceSim(std::int32_t procs, CoherenceParams params)
      : params_(params), lru_(static_cast<std::size_t>(procs)) {}

  void replay(const RefTrace& trace) {
    for (const MemRef& r : trace.refs()) access(r.proc, r.addr, r.op);
  }

  const CoherenceTraffic& traffic() const { return t_; }
  std::size_t lines_touched() const { return lines_.size(); }

 private:
  struct Line {
    std::set<std::int32_t> holders;
    std::set<std::int32_t> ever;
    std::int32_t owner = -1;
    bool exclusive = false;
  };

  void access(std::int32_t proc, std::uint32_t addr, MemOp op) {
    ++t_.accesses;
    const std::uint32_t key = addr / static_cast<std::uint32_t>(params_.line_size);
    Line& line = lines_[key];
    if (params_.capacity_lines > 0) touch(proc, key);
    const auto lb = static_cast<std::uint64_t>(params_.line_size);
    const auto wb = static_cast<std::uint64_t>(params_.word_size);
    const bool held = line.holders.count(proc) != 0;
    const bool others = line.holders.size() > (held ? 1u : 0u);
    const bool ever = line.ever.count(proc) != 0;
    switch (params_.protocol) {
      case ProtocolKind::kWriteBackInvalidate:
      case ProtocolKind::kMesi: {
        const bool mesi = params_.protocol == ProtocolKind::kMesi;
        if (op == MemOp::kRead) {
          if (line.owner == proc || held) return;
          ++t_.read_misses;
          if (line.owner >= 0) {
            t_.read_flush_bytes += lb;
            line.holders.insert(line.owner);
            line.owner = -1;
          } else {
            (ever ? t_.refetch_bytes : t_.cold_fetch_bytes) += lb;
          }
          if (mesi) line.exclusive = line.holders.empty();
          line.holders.insert(proc);
          line.ever.insert(proc);
          return;
        }
        if (line.owner == proc) return;
        if (line.owner >= 0) {
          t_.write_flush_bytes += lb;
          ++t_.invalidation_msgs;
          line.owner = -1;
          line.holders.clear();
          if (!mesi) {
            t_.word_write_bytes += wb;
            take(line, proc);
            return;
          }
        }
        const bool now_held = line.holders.count(proc) != 0;
        const bool now_others = line.holders.size() > (now_held ? 1u : 0u);
        if (!now_held) {
          ++t_.write_misses;
          t_.write_fetch_bytes += lb;
        }
        if (!mesi) {
          t_.word_write_bytes += wb;
          if (now_others) ++t_.invalidation_msgs;
        } else if (!(now_held && line.exclusive && !now_others)) {
          if (now_others || !now_held) ++t_.invalidation_msgs;
          t_.word_write_bytes += wb;
        }
        take(line, proc);
        line.exclusive = false;
        return;
      }
      case ProtocolKind::kWriteThrough:
        if (op == MemOp::kRead) {
          if (held) return;
          ++t_.read_misses;
          (ever ? t_.refetch_bytes : t_.cold_fetch_bytes) += lb;
          line.holders.insert(proc);
          line.ever.insert(proc);
          return;
        }
        if (!held) {
          ++t_.write_misses;
          t_.write_fetch_bytes += lb;
        }
        t_.word_write_bytes += wb;
        if (others) ++t_.invalidation_msgs;
        line.holders = {proc};
        line.ever.insert(proc);
        return;
      case ProtocolKind::kDragon:
        if (op == MemOp::kRead) {
          if (held) return;
          ++t_.read_misses;
          (line.owner >= 0 ? t_.read_flush_bytes : t_.cold_fetch_bytes) += lb;
          line.holders.insert(proc);
          line.ever.insert(proc);
          return;
        }
        if (!held) {
          ++t_.write_misses;
          t_.write_fetch_bytes += lb;
          line.holders.insert(proc);
          line.ever.insert(proc);
        }
        if (line.holders.size() > 1) t_.word_write_bytes += wb;
        line.owner = proc;
        return;
    }
  }

  static void take(Line& line, std::int32_t proc) {
    line.holders = {proc};
    line.ever.insert(proc);
    line.owner = proc;
  }

  void touch(std::int32_t proc, std::uint32_t key) {
    std::deque<std::uint32_t>& order = lru_[static_cast<std::size_t>(proc)];
    if (auto it = std::find(order.begin(), order.end(), key); it != order.end()) {
      order.erase(it);
    }
    order.push_front(key);
    if (order.size() <= static_cast<std::size_t>(params_.capacity_lines)) return;
    const std::uint32_t victim = order.back();
    order.pop_back();
    ++t_.capacity_evictions;
    Line& line = lines_[victim];
    line.holders.erase(proc);
    if (line.owner == proc) {
      line.owner = -1;
      t_.eviction_writeback_bytes += static_cast<std::uint64_t>(params_.line_size);
    }
  }

  CoherenceParams params_;
  CoherenceTraffic t_;
  std::map<std::uint32_t, Line> lines_;
  std::vector<std::deque<std::uint32_t>> lru_;
};

/// Replays through CoherenceSim and the brute-force model (plus the
/// reference where it applies) for every protocol and a spread of line
/// sizes and capacities.
void expect_matches_brute_force(const RefTrace& trace, std::int32_t procs,
                                const std::string& input) {
  for (ProtocolKind protocol : kProtocols) {
    for (std::int32_t line : {4, 32}) {
      for (std::int32_t capacity : {0, 2, 128}) {
        CoherenceParams params;
        params.protocol = protocol;
        params.line_size = line;
        params.capacity_lines = capacity;
        CoherenceSim sim(procs, params);
        BruteForceSim brute(procs, params);
        sim.replay(trace);
        brute.replay(trace);
        const std::string where = input + " " + describe(protocol, line, capacity);
        expect_same_traffic(sim.traffic(), brute.traffic(), where);
        EXPECT_EQ(sim.lines_touched(), brute.lines_touched()) << where;
        if (procs <= 32) {
          test::ReferenceCoherenceSim ref(procs, params);
          ref.replay(trace);
          expect_same_traffic(brute.traffic(), ref.traffic(), where + " (model)");
        }
      }
    }
  }
}

TEST(CoherenceWide, BruteForceModelAgreesWithReference) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    expect_matches_brute_force(random_trace(1000 + seed, 32, 1500), 32,
                               "procs=32 seed=" + std::to_string(seed));
  }
}

class CoherenceWideProcs : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(CoherenceWideProcs, MatchesBruteForce) {
  const std::int32_t procs = GetParam();
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const RefTrace trace = random_trace(7000 + seed, procs, 3000);
    expect_matches_brute_force(trace, procs,
                               "procs=" + std::to_string(procs) +
                                   " seed=" + std::to_string(seed));
    if (HasFailure()) return;
  }
}

TEST_P(CoherenceWideProcs, TopProcessorSharesWithProcessorZero) {
  // Processors on different words of the sharer set: the last one reads,
  // processor 0 writes (invalidating it), the last one re-reads (flush).
  const std::int32_t procs = GetParam();
  CoherenceParams params;
  CoherenceSim sim(procs, params);
  sim.access(procs - 1, 0, MemOp::kRead);
  sim.access(0, 0, MemOp::kWrite);
  EXPECT_EQ(sim.traffic().invalidation_msgs, 1u);
  sim.access(procs - 1, 0, MemOp::kRead);
  EXPECT_EQ(sim.traffic().read_flush_bytes, 8u);
  EXPECT_EQ(sim.traffic().refetch_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Procs, CoherenceWideProcs, ::testing::Values(33, 64, 256));

}  // namespace
}  // namespace locus
