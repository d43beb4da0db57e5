// google-benchmark microbenchmarks for the coherence simulator: replay
// throughput per protocol and line size, and with finite LRU caches.
#include <benchmark/benchmark.h>

#include "circuit/generator.hpp"
#include "coherence/simulator.hpp"
#include "shm/shm_router.hpp"

namespace {

using namespace locus;

const RefTrace& tiny_trace() {
  static RefTrace trace = [] {
    ShmConfig config;
    config.procs = 4;
    return run_shared_memory(make_tiny_test_circuit(), config).trace;
  }();
  return trace;
}

void BM_CoherenceReplay(benchmark::State& state) {
  const RefTrace& trace = tiny_trace();
  CoherenceParams params;
  params.line_size = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    CoherenceSim sim(4, params);
    sim.replay(trace);
    benchmark::DoNotOptimize(sim.traffic().total_bytes());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_CoherenceReplay)->Arg(4)->Arg(8)->Arg(32);

void BM_CoherenceProtocols(benchmark::State& state) {
  const RefTrace& trace = tiny_trace();
  CoherenceParams params;
  params.line_size = 8;
  params.protocol = static_cast<ProtocolKind>(state.range(0));
  for (auto _ : state) {
    CoherenceSim sim(4, params);
    sim.replay(trace);
    benchmark::DoNotOptimize(sim.traffic().total_bytes());
  }
}
BENCHMARK(BM_CoherenceProtocols)
    ->Arg(static_cast<int>(ProtocolKind::kWriteBackInvalidate))
    ->Arg(static_cast<int>(ProtocolKind::kWriteThrough))
    ->Arg(static_cast<int>(ProtocolKind::kMesi))
    ->Arg(static_cast<int>(ProtocolKind::kDragon));

/// Finite per-processor LRU caches (WBI, 8-byte lines): the pooled LRU
/// lists plus capacity evictions on top of the line directory.
void BM_CoherenceLru(benchmark::State& state) {
  const RefTrace& trace = tiny_trace();
  CoherenceParams params;
  params.line_size = 8;
  params.capacity_lines = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    CoherenceSim sim(4, params);
    sim.replay(trace);
    benchmark::DoNotOptimize(sim.traffic().total_bytes());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_CoherenceLru)->Arg(128)->Arg(2048);

}  // namespace

BENCHMARK_MAIN();
