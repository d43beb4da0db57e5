// Tests for the binary .trc trace format.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "circuit/generator.hpp"
#include "shm/shm_router.hpp"
#include "shm/trace_io.hpp"

namespace locus {
namespace {

RefTrace sample_trace() {
  RefTrace t;
  t.append({-5, 0xFFFFFFFFu, 15, MemOp::kRead});  // extreme values survive
  t.append({0, 0, 0, MemOp::kRead});
  t.append({1000, 40, 3, MemOp::kWrite});
  t.append({1LL << 60, kLoopCounterAddr, 0, MemOp::kWrite});
  return t;
}

/// Serialized sample_trace() with record `index`'s proc and time replaced.
std::string patched_sample(std::size_t index, std::int16_t proc, SimTime time) {
  std::stringstream buf;
  write_trace(buf, sample_trace());
  std::string data = buf.str();
  const std::size_t at = 16 + index * 16;  // header, then 16-byte records
  for (int i = 0; i < 8; ++i) {
    data[at + static_cast<std::size_t>(i)] =
        static_cast<char>((static_cast<std::uint64_t>(time) >> (8 * i)) & 0xFF);
  }
  data[at + 12] = static_cast<char>(proc & 0xFF);
  data[at + 13] = static_cast<char>((proc >> 8) & 0xFF);
  return data;
}

TEST(TraceIo, RoundTripsAllFields) {
  RefTrace original = sample_trace();
  std::stringstream buf;
  write_trace(buf, original);
  RefTrace parsed = read_trace(buf);
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed.refs()[i].time, original.refs()[i].time);
    EXPECT_EQ(parsed.refs()[i].addr, original.refs()[i].addr);
    EXPECT_EQ(parsed.refs()[i].proc, original.refs()[i].proc);
    EXPECT_EQ(parsed.refs()[i].op, original.refs()[i].op);
  }
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  std::stringstream buf;
  write_trace(buf, RefTrace{});
  EXPECT_EQ(read_trace(buf).size(), 0u);
}

TEST(TraceIo, RejectsBadMagic) {
  std::stringstream buf("NOPE00000000");
  EXPECT_THROW(read_trace(buf), std::runtime_error);
}

TEST(TraceIo, RejectsBadVersion) {
  std::stringstream buf;
  buf.write("LTRC", 4);
  const char version[4] = {9, 0, 0, 0};
  buf.write(version, 4);
  const char count[8] = {0};
  buf.write(count, 8);
  EXPECT_THROW(read_trace(buf), std::runtime_error);
}

TEST(TraceIo, RejectsTruncatedFile) {
  RefTrace original = sample_trace();
  std::stringstream buf;
  write_trace(buf, original);
  std::string data = buf.str();
  std::stringstream cut(data.substr(0, data.size() - 7));
  EXPECT_THROW(read_trace(cut), std::runtime_error);
}

TEST(TraceIo, PatchedSampleStillParses) {
  // The patching helper itself leaves a well-formed record well formed.
  std::stringstream buf(patched_sample(2, 3, 1000));
  EXPECT_EQ(read_trace(buf).size(), sample_trace().size());
}

TEST(TraceIo, RejectsNegativeProc) {
  std::stringstream buf(patched_sample(2, -1, 1000));
  EXPECT_THROW(read_trace(buf), std::runtime_error);
  std::stringstream low(patched_sample(1, std::numeric_limits<std::int16_t>::min(), 0));
  EXPECT_THROW(read_trace(low), std::runtime_error);
}

TEST(TraceIo, RejectsTimeGoingBackwards) {
  std::stringstream buf(patched_sample(2, 3, -1));  // after a record at time 0
  EXPECT_THROW(read_trace(buf), std::runtime_error);
  // Equal times are a legal tie.
  std::stringstream tie(patched_sample(2, 3, 0));
  EXPECT_EQ(read_trace(tie).size(), sample_trace().size());
}

TEST(TraceIo, ProcCheckRejectsProcsAtOrAboveReplayCount) {
  const RefTrace trace = sample_trace();  // highest proc is 15
  EXPECT_NO_THROW(check_trace_procs(trace, 16));
  EXPECT_THROW(check_trace_procs(trace, 15), std::runtime_error);
  EXPECT_THROW(check_trace_procs(trace, 1), std::runtime_error);
}

TEST(TraceIo, FileRoundTripOfRealTrace) {
  ShmConfig config;
  config.procs = 4;
  RefTrace trace = run_shared_memory(make_tiny_test_circuit(), config).trace;
  const std::string path = ::testing::TempDir() + "/trace_roundtrip.trc";
  write_trace_file(path, trace);
  RefTrace parsed = read_trace_file(path);
  ASSERT_EQ(parsed.size(), trace.size());
  EXPECT_EQ(parsed.count(MemOp::kWrite), trace.count(MemOp::kWrite));
  // Spot-check first/last records.
  EXPECT_EQ(parsed.refs().front().addr, trace.refs().front().addr);
  EXPECT_EQ(parsed.refs().back().time, trace.refs().back().time);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/x.trc"), std::runtime_error);
}

}  // namespace
}  // namespace locus
