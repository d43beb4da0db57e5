// Sparse cost array: the tiled GridBacking behind sharded MP views.
//
// Semantically identical to a CostArray constructed with initial == 0 —
// absent tiles read as zero, writes materialize their tiles — but only the
// tiles a processor actually touches are allocated, so per-view memory is
// bounded by the touched working set (own region + neighbor regions +
// assigned-wire bounding boxes) instead of the whole grid. The SIMD bulk
// read paths work per resident row chunk and zero-fill across absent tiles,
// keeping bulk reads observationally equivalent to per-cell probing (the
// contract supports_bulk_read() promises, and the bulk-vs-reference test
// matrix enforces).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "grid/backing.hpp"
#include "grid/tile_grid.hpp"

namespace locus {

class TiledCostArray final : public GridBacking {
 public:
  /// All cells start at zero (the sparse representation *is* the initial
  /// value); a nonzero-initial sparse array would have to materialize
  /// everything, defeating the point.
  TiledCostArray(std::int32_t channels, std::int32_t grids, TileDims dims = {});

  std::int32_t at(GridPoint p) const override { return tiles_.get(p); }
  void set(GridPoint p, std::int32_t value) override { tiles_.slot(p) = value; }

  std::int32_t read(GridPoint p) override {
    const std::int32_t v = tiles_.get(p);
    return v < 0 ? 0 : v;
  }
  void add(GridPoint p, std::int32_t delta) override { tiles_.slot(p) += delta; }
  /// Per tile row chunk: materializes the same tiles the per-cell loop would.
  void add_row(std::int32_t channel, std::int32_t x_lo, std::int32_t x_hi,
               std::int32_t delta) override;

  void read_row(std::int32_t channel, std::int32_t x_lo, std::int32_t x_hi,
                std::span<std::int32_t> span_out) override;
  void read_rows(std::int32_t c_lo, std::int32_t c_hi, std::int32_t x_lo,
                 std::int32_t x_hi, std::span<std::int32_t> span_out) override;
  bool supports_bulk_read() const override { return true; }

  void read_rect(const Rect& box, std::vector<std::int32_t>& out) const override;
  void write_rect(const Rect& box, std::span<const std::int32_t> values) override;
  void add_rect(const Rect& box, std::span<const std::int32_t> values) override;

  /// Only fill(0) is meaningful for a sparse array: it drops every tile.
  void fill(std::int32_t value) override;

  std::int32_t max_in_channel(std::int32_t channel) const override;

  std::int64_t resident_cells() const override {
    return tiles_.tiles_resident() * tiles_.tile_cells();
  }
  std::int64_t resident_bytes() const override {
    return resident_cells() * static_cast<std::int64_t>(sizeof(std::int32_t));
  }

  bool any_resident_in(const Rect& box) const override {
    return tiles_.any_resident_in(box);
  }

  /// Pins the tiles under `box` resident (a node's own region at startup).
  void ensure_rect(const Rect& box) { tiles_.ensure_rect(box); }

  const TileGrid& tiles() const { return tiles_; }

 private:
  TileGrid tiles_;
};

}  // namespace locus
