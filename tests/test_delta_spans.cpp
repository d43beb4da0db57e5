// Span paths of the message-passing grid state against their per-cell
// references: DeltaArray::add_row()/add_rect() vs add() per cell (cells,
// nonzero counts, dirty boxes, tile residency), the row-wise extraction vs
// a per-cell scan of the conservative box, the grid backings' add_row(),
// the Partition::owner band tables vs a binary search over band starts, and
// the run-based WireRoute::bbox(). These run under the `check` label, so
// the sanitizer CI leg walks the raw row-pointer arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "geom/partition.hpp"
#include "grid/cost_array.hpp"
#include "grid/delta_array.hpp"
#include "grid/tiled_cost_array.hpp"
#include "msg/view.hpp"
#include "route/router.hpp"
#include "support/rng.hpp"

namespace locus {
namespace {

/// The shape of one randomized case: grid, mesh and (for tiled storage)
/// tile dimensions. Meshes go down to 1-cell-wide bands.
struct SpanCase {
  std::int32_t channels;
  std::int32_t grids;
  MeshShape mesh;
  std::optional<TileDims> tiles;  // nullopt: dense storage
};

SpanCase random_case(Rng& rng) {
  SpanCase sc;
  sc.mesh.rows = static_cast<std::int32_t>(rng.range(1, 4));
  sc.mesh.cols = static_cast<std::int32_t>(rng.range(1, 6));
  sc.channels = static_cast<std::int32_t>(rng.range(sc.mesh.rows, 12));
  sc.grids = static_cast<std::int32_t>(rng.range(sc.mesh.cols, 70));
  if (rng.range(0, 1) == 1) {
    sc.tiles = TileDims{std::int32_t{1} << rng.range(0, 2),
                        std::int32_t{1} << rng.range(0, 4)};
  }
  return sc;
}

DeltaArray make_delta(const Partition& part, const SpanCase& sc) {
  return sc.tiles ? DeltaArray(part, *sc.tiles) : DeltaArray(part);
}

/// Per-cell reference extraction over `ref` (not modified): the tight box
/// of nonzero cells inside the region's conservative box and the number of
/// cells that scan visits, as the cell-by-cell scan computed them.
struct RefScan {
  Rect tight;
  std::int64_t visited = 0;
  std::map<std::pair<std::int32_t, std::int32_t>, Rect> by_tile;
};

RefScan reference_scan(const DeltaArray& ref, ProcId region, TileDims dims) {
  RefScan out;
  if (ref.nonzero_count(region) == 0) return out;
  const Rect scan = ref.dirty_bbox(region);
  for (std::int32_t c = scan.channel_lo; c <= scan.channel_hi; ++c) {
    for (std::int32_t x = scan.x_lo; x <= scan.x_hi; ++x) {
      ++out.visited;
      if (ref.at(GridPoint{c, x}) != 0) {
        out.tight.expand(GridPoint{c, x});
        out.by_tile[{c / dims.channels, x / dims.cols}].expand(GridPoint{c, x});
      }
    }
  }
  return out;
}

std::vector<std::int32_t> cells_of(const DeltaArray& d, const Rect& box) {
  std::vector<std::int32_t> out;
  for (std::int32_t c = box.channel_lo; c <= box.channel_hi; ++c) {
    for (std::int32_t x = box.x_lo; x <= box.x_hi; ++x) out.push_back(d.at({c, x}));
  }
  return out;
}

void expect_same_state(const DeltaArray& span, const DeltaArray& ref,
                       const Partition& part) {
  for (std::int32_t c = 0; c < part.channels(); ++c) {
    for (std::int32_t x = 0; x < part.grids(); ++x) {
      ASSERT_EQ(span.at({c, x}), ref.at({c, x})) << "cell " << c << "," << x;
    }
  }
  for (ProcId r = 0; r < part.num_regions(); ++r) {
    ASSERT_EQ(span.nonzero_count(r), ref.nonzero_count(r)) << "region " << r;
    ASSERT_EQ(span.dirty_bbox(r), ref.dirty_bbox(r)) << "region " << r;
  }
  ASSERT_EQ(span.resident_cells(), ref.resident_cells());
}

TEST(DeltaSpanProperty, SpansMatchPerCellAddAndExtract) {
  Rng rng(0x5ba45);
  std::int64_t mid_run_resets = 0;
  std::int64_t extracts = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const SpanCase sc = random_case(rng);
    const Partition part(sc.channels, sc.grids, sc.mesh);
    DeltaArray span = make_delta(part, sc);
    DeltaArray ref = make_delta(part, sc);
    for (int op = 0; op < 80; ++op) {
      const auto kind = rng.range(0, 9);
      if (kind <= 5) {
        // A ±1 run, often long enough to cross column bands.
        const auto c = static_cast<std::int32_t>(rng.range(0, sc.channels - 1));
        const auto lo = static_cast<std::int32_t>(rng.range(0, sc.grids - 1));
        const auto hi = static_cast<std::int32_t>(
            rng.range(lo, std::min<std::int64_t>(sc.grids - 1, lo + rng.range(0, 40))));
        const std::int32_t d = rng.range(0, 1) == 1 ? 1 : -1;
        std::int64_t zero_hits = 0;
        for (std::int32_t x = lo; x <= hi; ++x) {
          const ProcId r = part.owner({c, x});
          const std::int64_t before = ref.nonzero_count(r);
          ref.add({c, x}, d);
          if (before > 0 && ref.nonzero_count(r) == 0 && x < hi) ++zero_hits;
        }
        mid_run_resets += zero_hits;
        span.add_row(c, lo, hi, d);
      } else if (kind <= 7) {
        // An apply_delta_block-style value block: mixed signs and zeros.
        const auto c_lo = static_cast<std::int32_t>(rng.range(0, sc.channels - 1));
        const auto c_hi = static_cast<std::int32_t>(rng.range(c_lo, sc.channels - 1));
        const auto x_lo = static_cast<std::int32_t>(rng.range(0, sc.grids - 1));
        const auto x_hi = static_cast<std::int32_t>(rng.range(x_lo, sc.grids - 1));
        const Rect box = Rect::of(c_lo, c_hi, x_lo, x_hi);
        std::vector<std::int32_t> values(static_cast<std::size_t>(box.area()));
        const bool sparse = rng.range(0, 1) == 1;
        for (std::int32_t& v : values) {
          v = sparse && rng.range(0, 3) != 0 ? 0 : static_cast<std::int32_t>(rng.range(-2, 2));
        }
        std::size_t i = 0;
        for (std::int32_t c = c_lo; c <= c_hi; ++c) {
          for (std::int32_t x = x_lo; x <= x_hi; ++x, ++i) {
            if (values[i] != 0) ref.add({c, x}, values[i]);
          }
        }
        span.add_rect(box, values);
      } else {
        // Extract a region from both, checked against the per-cell scan.
        const auto r = static_cast<ProcId>(rng.range(0, part.num_regions() - 1));
        const bool blocks = kind == 9;
        const TileDims dims{static_cast<std::int32_t>(rng.range(1, 3)),
                            static_cast<std::int32_t>(rng.range(1, 9))};
        const RefScan want = reference_scan(ref, r, dims);
        if (blocks) {
          std::vector<DeltaArray::Extract> want_blocks;
          for (const auto& [tile, tight] : want.by_tile) {
            want_blocks.push_back({tight, cells_of(ref, tight)});
          }
          const auto got = span.extract_region_blocks(r, dims);
          const auto got_ref = ref.extract_region_blocks(r, dims);
          ASSERT_EQ(got.has_value(), want.visited > 0);
          ASSERT_EQ(got_ref.has_value(), want.visited > 0);
          if (got) {
            ASSERT_EQ(got->size(), want_blocks.size());
            ASSERT_EQ(got_ref->size(), want_blocks.size());
            for (std::size_t b = 0; b < want_blocks.size(); ++b) {
              EXPECT_EQ((*got)[b].bbox, want_blocks[b].bbox);
              EXPECT_EQ((*got)[b].values, want_blocks[b].values);
              EXPECT_EQ((*got_ref)[b].bbox, want_blocks[b].bbox);
              EXPECT_EQ((*got_ref)[b].values, want_blocks[b].values);
            }
          }
        } else {
          const std::vector<std::int32_t> want_values = cells_of(ref, want.tight);
          const auto got = span.extract_region(r);
          const auto got_ref = ref.extract_region(r);
          ASSERT_EQ(got.has_value(), want.visited > 0);
          ASSERT_EQ(got_ref.has_value(), want.visited > 0);
          if (got) {
            EXPECT_EQ(got->bbox, want.tight);
            EXPECT_EQ(got->values, want_values);
            EXPECT_EQ(got_ref->bbox, want.tight);
          }
        }
        EXPECT_EQ(span.last_scan_cells(), want.visited);
        EXPECT_EQ(ref.last_scan_cells(), want.visited);
        ++extracts;
      }
      expect_same_state(span, ref, part);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // The randomized runs must actually reach the subtle cases.
  EXPECT_GT(mid_run_resets, 50);
  EXPECT_GT(extracts, 1000);
}

TEST(DeltaSpanProperty, CountDroppingToZeroMidRunEmptiesThenRegrowsBox) {
  const Partition part(4, 20, MeshShape{1, 2});  // region 0 = columns 0-9
  for (const bool tiled : {false, true}) {
    DeltaArray d = tiled ? DeltaArray(part, TileDims{1, 4}) : DeltaArray(part);
    d.add({3, 2}, +1);
    d.add({0, 5}, +1);
    // (0,5) cancels but (3,2) keeps the count above zero, so the box stays
    // conservative while (0,6)..(0,8) turn negative and extend it.
    d.add_row(0, 5, 8, -1);
    EXPECT_EQ(d.nonzero_count(0), 4);
    EXPECT_EQ(d.dirty_bbox(0), Rect::of(0, 3, 2, 8));
    // Cancelling (3,2) first leaves a run whose only survivors follow a
    // mid-run reset, so the box is just their row span.
    d.add({3, 2}, -1);
    d.add_row(0, 6, 9, +1);  // (0,6..8) cancel to zero, (0,9) becomes +1
    EXPECT_EQ(d.nonzero_count(0), 1);
    EXPECT_EQ(d.dirty_bbox(0), Rect::of(0, 0, 9, 9));
    // A run crossing into region 1 resolves its owner once per band.
    d.add_row(1, 8, 13, +1);
    EXPECT_EQ(d.nonzero_count(0), 3);
    EXPECT_EQ(d.nonzero_count(1), 4);
    EXPECT_EQ(d.dirty_bbox(1), Rect::of(1, 1, 10, 13));
  }
}

TEST(DeltaSpanProperty, TiledValueBlocksAllocateOnlyNonzeroTiles) {
  const Partition part(4, 32, MeshShape{2, 2});
  DeltaArray d(part, TileDims{1, 8});
  std::vector<std::int32_t> values(2 * 32, 0);
  values[5] = 3;        // (0,5): tile (0,0)
  values[32 + 30] = 1;  // (1,30): tile (1,3)
  d.add_rect(Rect::of(0, 1, 0, 31), values);
  EXPECT_EQ(d.resident_cells(), 2 * 8);
  EXPECT_EQ(d.at({0, 5}), 3);
  EXPECT_EQ(d.at({1, 30}), 1);
}

TEST(DeltaSpanProperty, BackingAndViewRowsMatchPerCell) {
  Rng rng(0xadd5);
  for (int trial = 0; trial < 60; ++trial) {
    const SpanCase sc = random_case(rng);
    const Partition part(sc.channels, sc.grids, sc.mesh);
    CostArray dense_span(sc.channels, sc.grids);
    CostArray dense_ref(sc.channels, sc.grids);
    const TileDims dims = sc.tiles.value_or(TileDims{2, 8});
    TiledCostArray tiled_span(sc.channels, sc.grids, dims);
    TiledCostArray tiled_ref(sc.channels, sc.grids, dims);
    DeltaArray delta_span = make_delta(part, sc);
    DeltaArray delta_ref = make_delta(part, sc);
    ViewWithDelta view_span(dense_span, delta_span);
    ViewWithDelta view_ref(dense_ref, delta_ref);
    for (int op = 0; op < 60; ++op) {
      const auto c = static_cast<std::int32_t>(rng.range(0, sc.channels - 1));
      const auto lo = static_cast<std::int32_t>(rng.range(0, sc.grids - 1));
      const auto hi = static_cast<std::int32_t>(rng.range(lo, sc.grids - 1));
      const std::int32_t d = rng.range(0, 1) == 1 ? 1 : -1;
      view_span.add_row(c, lo, hi, d);
      tiled_span.add_row(c, lo, hi, d);
      for (std::int32_t x = lo; x <= hi; ++x) {
        view_ref.add({c, x}, d);
        tiled_ref.add({c, x}, d);
      }
    }
    ASSERT_TRUE(dense_span == dense_ref);
    ASSERT_EQ(tiled_span.resident_cells(), tiled_ref.resident_cells());
    for (std::int32_t c = 0; c < sc.channels; ++c) {
      for (std::int32_t x = 0; x < sc.grids; ++x) {
        ASSERT_EQ(tiled_span.at({c, x}), tiled_ref.at({c, x}));
      }
    }
    expect_same_state(delta_span, delta_ref, part);
  }
}

/// Band starts as documented: `bands` near-equal bands, earlier ones take
/// the remainder.
std::vector<std::int32_t> reference_starts(std::int32_t total, std::int32_t bands) {
  std::vector<std::int32_t> starts;
  std::int32_t offset = 0;
  for (std::int32_t b = 0; b < bands; ++b) {
    starts.push_back(offset);
    offset += total / bands + (b < total % bands ? 1 : 0);
  }
  starts.push_back(total);
  return starts;
}

std::int32_t reference_band(const std::vector<std::int32_t>& starts, std::int32_t v) {
  return static_cast<std::int32_t>(std::upper_bound(starts.begin(), starts.end(), v) -
                                   starts.begin()) -
         1;
}

TEST(PartitionOwnerTables, MatchBinarySearchOverBandStarts) {
  Rng rng(0x0a11e5);
  for (int trial = 0; trial < 200; ++trial) {
    MeshShape mesh{static_cast<std::int32_t>(rng.range(1, 16)),
                   static_cast<std::int32_t>(rng.range(1, 16))};
    if (trial < 4) mesh = MeshShape{16, 16};  // 256-processor meshes
    // One case in four has 1-cell-wide bands on some axis.
    const bool narrow = trial % 4 == 0;
    const auto channels = static_cast<std::int32_t>(
        narrow ? mesh.rows : rng.range(mesh.rows, mesh.rows * 5 + 3));
    const auto grids =
        static_cast<std::int32_t>(rng.range(mesh.cols, mesh.cols * (narrow ? 1 : 12) + 7));
    const Partition part(channels, grids, mesh);
    const auto row_starts = reference_starts(channels, mesh.rows);
    const auto col_starts = reference_starts(grids, mesh.cols);
    for (std::int32_t c = 0; c < channels; ++c) {
      for (std::int32_t x = 0; x < grids; ++x) {
        const ProcId want =
            reference_band(row_starts, c) * mesh.cols + reference_band(col_starts, x);
        ASSERT_EQ(part.owner({c, x}), want) << c << "," << x;
        ASSERT_TRUE(part.region(want).contains(GridPoint{c, x}));
      }
    }
    // regions_overlapping reads the same tables.
    for (int q = 0; q < 20; ++q) {
      const auto c_lo = static_cast<std::int32_t>(rng.range(0, channels - 1));
      const auto c_hi = static_cast<std::int32_t>(rng.range(c_lo, channels - 1));
      const auto x_lo = static_cast<std::int32_t>(rng.range(0, grids - 1));
      const auto x_hi = static_cast<std::int32_t>(rng.range(x_lo, grids - 1));
      const Rect box = Rect::of(c_lo, c_hi, x_lo, x_hi);
      std::vector<ProcId> want;
      for (ProcId p = 0; p < part.num_regions(); ++p) {
        if (part.region(p).intersects(box)) want.push_back(p);
      }
      ASSERT_EQ(part.regions_overlapping(box), want);
    }
  }
}

TEST(CellRuns, CoverEveryCellOnceAndGiveThePerCellBbox) {
  Rng rng(0xb0b);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<GridPoint> cells;
    const auto n = rng.range(0, 40);
    for (std::int64_t i = 0; i < n; ++i) {
      cells.push_back({static_cast<std::int32_t>(rng.range(0, 5)),
                       static_cast<std::int32_t>(rng.range(0, 30))});
    }
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
    WireRoute route;
    route.cells = cells;
    Rect want;
    for (const GridPoint& p : cells) want.expand(p);
    EXPECT_EQ(route.bbox(), want);
    std::vector<GridPoint> covered;
    std::int32_t prev_channel = -1;
    std::int32_t prev_hi = -2;
    for_each_cell_run(cells, [&](std::int32_t c, std::int32_t lo, std::int32_t hi) {
      ASSERT_LE(lo, hi);
      // Maximal: a run never continues the previous one.
      ASSERT_FALSE(c == prev_channel && lo == prev_hi + 1);
      for (std::int32_t x = lo; x <= hi; ++x) covered.push_back({c, x});
      prev_channel = c;
      prev_hi = hi;
    });
    EXPECT_EQ(covered, cells);
  }
}

}  // namespace
}  // namespace locus
