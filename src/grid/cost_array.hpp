// The cost array — LocusRoute's central data structure.
//
// One int32 cell per (channel, routing grid) position counting the wires
// currently routed through that cell (paper §3, Figure 1). Routing reads it
// to price candidate paths; committing a route increments the path's cells;
// ripping up decrements them.
//
// In the message passing implementation each processor holds a *view* of the
// whole array that may drift from the truth; drifted views can transiently
// hold negative values (an absolute region update can land after a local
// rip-up). `read()` therefore clamps at zero for routing decisions while
// `at()` exposes raw storage for bookkeeping and tests.
//
// This is the dense GridBacking: one row-major allocation covering the whole
// grid. grid/tiled_cost_array.hpp provides the sparse alternative behind the
// same interface.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "grid/backing.hpp"

namespace locus {

class CostArray final : public GridBacking {
 public:
  CostArray(std::int32_t channels, std::int32_t grids, std::int32_t initial = 0);

  std::int32_t at(GridPoint p) const override { return cells_[checked_index(p)]; }
  void set(GridPoint p, std::int32_t value) override {
    cells_[checked_index(p)] = value;
  }

  // CostView: routing-decision read (clamped at zero) and read-modify-write.
  std::int32_t read(GridPoint p) override {
    std::int32_t v = cells_[checked_index(p)];
    return v < 0 ? 0 : v;
  }
  void add(GridPoint p, std::int32_t delta) override {
    cells_[checked_index(p)] += delta;
  }
  /// One bounds check, then a plain loop over the contiguous row slice.
  void add_row(std::int32_t channel, std::int32_t x_lo, std::int32_t x_hi,
               std::int32_t delta) override;

  /// Devirtualized span read: one bounds check and a SIMD clamp loop over
  /// contiguous storage (the row-major layout makes a row a single slice).
  void read_row(std::int32_t channel, std::int32_t x_lo, std::int32_t x_hi,
                std::span<std::int32_t> span_out) override;
  /// Whole-window read: one bounds check, then the SIMD clamp row by row.
  void read_rows(std::int32_t c_lo, std::int32_t c_hi, std::int32_t x_lo,
                 std::int32_t x_hi, std::span<std::int32_t> span_out) override;
  bool supports_bulk_read() const override { return true; }

  void read_rect(const Rect& box, std::vector<std::int32_t>& out) const override;
  void write_rect(const Rect& box, std::span<const std::int32_t> values) override;
  void add_rect(const Rect& box, std::span<const std::int32_t> values) override;

  void fill(std::int32_t value) override;

  std::int32_t max_in_channel(std::int32_t channel) const override;

  /// Dense storage: every cell is resident.
  std::int64_t resident_cells() const override { return size(); }
  std::int64_t resident_bytes() const override {
    return size() * static_cast<std::int64_t>(sizeof(std::int32_t));
  }
  bool any_resident_in(const Rect& box) const override { return !box.is_empty(); }

  std::span<const std::int32_t> cells() const { return cells_; }

  friend bool operator==(const CostArray& a, const CostArray& b) {
    return a.channels_ == b.channels_ && a.grids_ == b.grids_ && a.cells_ == b.cells_;
  }

 private:
  std::size_t checked_index(GridPoint p) const;

  std::vector<std::int32_t> cells_;
};

}  // namespace locus
