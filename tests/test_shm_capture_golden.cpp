// Capture-order goldens: a 64-bit hash of every captured shared-reference
// trace (time, address, processor and op of every ref, in trace order),
// pinned for the static ThresholdCost and round-robin assignments, the
// dynamic distributed loop, read deduplication and the tiled shared array,
// each at 1, 4 and 16 processors. The coherence replay consumes the trace
// in exactly this order, so any change to how the executor stamps or
// orders references shows up here before it shows up in a traffic table.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "assign/assignment.hpp"
#include "circuit/generator.hpp"
#include "shm/shm_router.hpp"
#include "test_util.hpp"

namespace locus {
namespace {

/// FNV-1a over the bytes of each field of each ref.
std::uint64_t hash_trace(const RefTrace& trace) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  for (const MemRef& r : trace.refs()) {
    mix(static_cast<std::uint64_t>(r.time), 8);
    mix(r.addr, 4);
    mix(static_cast<std::uint16_t>(r.proc), 2);
    mix(static_cast<std::uint8_t>(r.op), 1);
  }
  return h;
}

enum class Mode { kTc1000, kRoundRobin, kDynamic, kDedup, kSharded };

ShmConfig make_config(const Circuit& c, Mode mode, std::int32_t procs) {
  ShmConfig config;
  config.procs = procs;
  switch (mode) {
    case Mode::kTc1000: {
      const Partition partition(c.channels(), c.grids(), MeshShape::for_procs(procs));
      config.assignment = assign_threshold_cost(c, partition, 1000);
      break;
    }
    case Mode::kRoundRobin:
      config.assignment = assign_round_robin(c, procs);
      break;
    case Mode::kDynamic:
      break;
    case Mode::kDedup:
      config.trace_dedup_reads = true;
      break;
    case Mode::kSharded:
      config.sharded_cost = true;
      config.tile_dims = TileDims{4, 16};
      break;
  }
  return config;
}

/// A mid-sized draw: enough wires per processor at 16 procs that the
/// per-processor reference streams overlap heavily in time.
Circuit make_mid_circuit() {
  GeneratorParams params;
  params.name = "golden-mid";
  params.channels = 6;
  params.grids = 120;
  params.num_wires = 80;
  params.seed = 0x5EEDC0DEULL;
  return generate_circuit(params);
}

struct CaptureGolden {
  const char* circuit;
  Mode mode;
  std::int32_t procs;
  std::uint64_t refs;
  std::uint64_t hash;
};

// Recorded from the stable-sort capture the exact merge replaced.
constexpr CaptureGolden kGoldens[] = {
    // clang-format off
    {"tiny", Mode::kTc1000,     1,    28562, 0x1B62CD0E8093E0D6ULL},
    {"tiny", Mode::kTc1000,     4,    28557, 0x6C7A5B4D09FE6407ULL},
    {"tiny", Mode::kTc1000,     16,   28635, 0xD585654B89C6DF25ULL},
    {"tiny", Mode::kRoundRobin, 1,    28562, 0x1B62CD0E8093E0D6ULL},
    {"tiny", Mode::kRoundRobin, 4,    28551, 0xF2A3D98FC35ABD4DULL},
    {"tiny", Mode::kRoundRobin, 16,   28579, 0x2BCF32D1D23CE953ULL},
    {"tiny", Mode::kDynamic,    1,    28662, 0xC574B04A74321A07ULL},
    {"tiny", Mode::kDynamic,    4,    28727, 0x8B6C9DEC17EA7D03ULL},
    {"tiny", Mode::kDynamic,    16,   28753, 0xDA41C258279DF996ULL},
    {"tiny", Mode::kDedup,      1,     2056, 0x16CD728BE6426EE1ULL},
    {"tiny", Mode::kDedup,      4,     2088, 0x96C1F75AD71C39DDULL},
    {"tiny", Mode::kDedup,      16,    2128, 0x8F929CA4996CC1E8ULL},
    {"tiny", Mode::kSharded,    1,    28662, 0xC574B04A74321A07ULL},
    {"tiny", Mode::kSharded,    4,    28727, 0x8B6C9DEC17EA7D03ULL},
    {"tiny", Mode::kSharded,    16,   28753, 0xDA41C258279DF996ULL},
    {"mid",  Mode::kTc1000,     1,   467057, 0x586F623CDB72F204ULL},
    {"mid",  Mode::kTc1000,     4,   467178, 0x628293D795C93A3FULL},
    {"mid",  Mode::kTc1000,     16,  467207, 0xD99AC74739C6879DULL},
    {"mid",  Mode::kRoundRobin, 1,   467057, 0x586F623CDB72F204ULL},
    {"mid",  Mode::kRoundRobin, 4,   467117, 0xC16D478DCD80E206ULL},
    {"mid",  Mode::kRoundRobin, 16,  467313, 0x9ACA73239908C2BAULL},
    {"mid",  Mode::kDynamic,    1,   467381, 0x0DCD9D4AB3DF1A65ULL},
    {"mid",  Mode::kDynamic,    4,   467531, 0x0612AE298066FB44ULL},
    {"mid",  Mode::kDynamic,    16,  467675, 0xF51BA293F2441AECULL},
    {"mid",  Mode::kDedup,      1,    18944, 0xD34DB6F5F2F8FCEBULL},
    {"mid",  Mode::kDedup,      4,    19008, 0xDB94FCA37CC81086ULL},
    {"mid",  Mode::kDedup,      16,   19091, 0x6B5F57B5EFB759F1ULL},
    {"mid",  Mode::kSharded,    1,   467381, 0x0DCD9D4AB3DF1A65ULL},
    {"mid",  Mode::kSharded,    4,   467531, 0x0612AE298066FB44ULL},
    {"mid",  Mode::kSharded,    16,  467675, 0xF51BA293F2441AECULL},
    // clang-format on
};

TEST(ShmCaptureGolden, TraceHashesMatchRecordedOrder) {
  const Circuit tiny = test::make_seeded_circuit();
  const Circuit mid = make_mid_circuit();
  for (const CaptureGolden& g : kGoldens) {
    const Circuit& c = std::string(g.circuit) == "tiny" ? tiny : mid;
    const ShmRunResult r = run_shared_memory(c, make_config(c, g.mode, g.procs));
    char got[160];
    std::snprintf(got, sizeof got, "{\"%s\", mode %d, %d, %zu, 0x%016llXULL}",
                  g.circuit, static_cast<int>(g.mode), g.procs, r.trace.size(),
                  static_cast<unsigned long long>(hash_trace(r.trace)));
    EXPECT_EQ(r.trace.size(), g.refs) << got;
    EXPECT_EQ(hash_trace(r.trace), g.hash) << got;
  }
}

}  // namespace
}  // namespace locus
