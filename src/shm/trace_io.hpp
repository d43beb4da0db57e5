// Binary serialization of shared-reference traces (.trc files).
//
// The Tango methodology is trace-driven: collect once, analyze many times.
// This format makes that workflow concrete — `examples/trace_tool` collects
// a trace to disk and replays it through any protocol/line-size without
// re-running the router.
//
// Format (little-endian):
//   magic   "LTRC"                  4 bytes
//   version u32 (currently 1)       4 bytes
//   count   u64                     8 bytes
//   records count x { time i64, addr u32, proc i16, op u8, pad u8 }
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "shm/trace.hpp"

namespace locus {

/// Writes `trace` in .trc format. Throws std::runtime_error on I/O failure.
void write_trace(std::ostream& out, const RefTrace& trace);
void write_trace_file(const std::string& path, const RefTrace& trace);

/// Reads a .trc stream. Throws std::runtime_error on malformed input: bad
/// magic or version, a truncated record, an unknown op, a negative proc,
/// or a record whose time is earlier than the one before it.
RefTrace read_trace(std::istream& in);
RefTrace read_trace_file(const std::string& path);

/// Throws std::runtime_error naming the first reference whose processor is
/// not below `procs`: a replay through CoherenceSim(procs, ...) accepts
/// only processors 0..procs-1, and a .trc file does not record its count.
void check_trace_procs(const RefTrace& trace, std::int32_t procs);

}  // namespace locus
