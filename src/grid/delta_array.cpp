#include "grid/delta_array.hpp"

#include <algorithm>
#include <utility>

#include "support/assert.hpp"

namespace locus {

DeltaArray::DeltaArray(const Partition& partition)
    : partition_(&partition),
      cells_(static_cast<std::size_t>(partition.channels()) *
                 static_cast<std::size_t>(partition.grids()),
             0),
      dirty_bbox_(static_cast<std::size_t>(partition.num_regions())),
      nonzero_count_(static_cast<std::size_t>(partition.num_regions()), 0) {}

DeltaArray::DeltaArray(const Partition& partition, TileDims dims)
    : partition_(&partition),
      tiles_(std::in_place, partition.channels(), partition.grids(), dims),
      dirty_bbox_(static_cast<std::size_t>(partition.num_regions())),
      nonzero_count_(static_cast<std::size_t>(partition.num_regions()), 0) {}

std::size_t DeltaArray::cell_index(GridPoint p) const {
  LOCUS_ASSERT(p.channel >= 0 && p.channel < partition_->channels());
  LOCUS_ASSERT(p.x >= 0 && p.x < partition_->grids());
  return static_cast<std::size_t>(p.channel) *
             static_cast<std::size_t>(partition_->grids()) +
         static_cast<std::size_t>(p.x);
}

std::int32_t DeltaArray::cell_get(GridPoint p) const {
  return tiles_.has_value() ? tiles_->get(p) : cells_[cell_index(p)];
}

std::int32_t& DeltaArray::cell_ref(GridPoint p) {
  return tiles_.has_value() ? tiles_->slot(p) : cells_[cell_index(p)];
}

const std::int32_t* DeltaArray::row_span(std::int32_t channel, std::int32_t x,
                                         std::int32_t x_hi, std::int32_t* run) const {
  if (tiles_.has_value()) {
    const std::int32_t* chunk = tiles_->row_chunk(channel, x, run);
    *run = std::min(*run, x_hi - x + 1);
    return chunk;
  }
  *run = x_hi - x + 1;
  return cells_.data() + cell_index(GridPoint{channel, x});
}

std::int32_t* DeltaArray::mutable_row_span(std::int32_t channel, std::int32_t x,
                                           std::int32_t x_hi, std::int32_t* run) {
  if (tiles_.has_value()) {
    std::int32_t* chunk = tiles_->mutable_row_chunk(channel, x, run);
    *run = std::min(*run, x_hi - x + 1);
    return chunk;
  }
  *run = x_hi - x + 1;
  return cells_.data() + cell_index(GridPoint{channel, x});
}

void DeltaArray::add(GridPoint p, std::int32_t delta) {
  if (delta == 0) return;
  std::int32_t& cell = cell_ref(p);
  const bool was_zero = (cell == 0);
  cell += delta;
  const ProcId region = partition_->owner(p);
  auto r = static_cast<std::size_t>(region);
  if (was_zero && cell != 0) {
    ++nonzero_count_[r];
    dirty_bbox_[r].expand(p);
  } else if (!was_zero && cell == 0) {
    --nonzero_count_[r];
    if (nonzero_count_[r] == 0) dirty_bbox_[r] = Rect::empty();
    // Bounding box is left conservative when some cells remain nonzero;
    // extract_region() tightens it.
  }
}

template <typename ValueAt>
void DeltaArray::add_span(std::int32_t channel, std::int32_t x_lo, std::int32_t x_hi,
                          ValueAt value_at) {
  LOCUS_ASSERT(channel >= 0 && channel < partition_->channels());
  LOCUS_ASSERT(x_lo >= 0 && x_lo <= x_hi && x_hi < partition_->grids());
  for (std::int32_t band_lo = x_lo; band_lo <= x_hi;) {
    // One owner lookup per column band; the band's count is carried in a
    // local and written back once. [first, last] are the columns that
    // turned nonzero, the cells the per-cell path expands the box by. Each
    // cell is touched once, so once one turns nonzero the count stays
    // above zero for the rest of the band: a drop to zero (which empties
    // the box) can only come before `first` is set.
    const auto r = static_cast<std::size_t>(partition_->owner(GridPoint{channel, band_lo}));
    const std::int32_t band_hi =
        std::min(x_hi, partition_->region(static_cast<ProcId>(r)).x_hi);
    std::int64_t count = nonzero_count_[r];
    std::int32_t first = -1;
    std::int32_t last = -1;
    for (std::int32_t x = band_lo; x <= band_hi;) {
      std::int32_t run = 0;
      if (tiles_.has_value()) {
        // Only materialize a tile that receives a nonzero delta.
        row_span(channel, x, band_hi, &run);
        bool any = false;
        for (std::int32_t i = 0; !any && i < run; ++i) any = value_at(x + i) != 0;
        if (!any) {
          x += run;
          continue;
        }
      }
      std::int32_t* cells = mutable_row_span(channel, x, band_hi, &run);
      for (std::int32_t i = 0; i < run; ++i) {
        const std::int32_t d = value_at(x + i);
        if (d == 0) continue;
        std::int32_t& cell = cells[i];
        if (cell == 0) {
          cell = d;
          ++count;
          if (first < 0) first = x + i;
          last = x + i;
        } else {
          cell += d;
          if (cell == 0 && --count == 0) dirty_bbox_[r] = Rect::empty();
        }
      }
      x += run;
    }
    nonzero_count_[r] = count;
    if (first >= 0) dirty_bbox_[r].expand(Rect::of(channel, channel, first, last));
    band_lo = band_hi + 1;
  }
}

void DeltaArray::add_row(std::int32_t channel, std::int32_t x_lo, std::int32_t x_hi,
                         std::int32_t delta) {
  if (delta == 0) return;
  add_span(channel, x_lo, x_hi, [delta](std::int32_t) { return delta; });
}

void DeltaArray::add_rect(const Rect& box, std::span<const std::int32_t> values) {
  LOCUS_ASSERT(static_cast<std::int64_t>(values.size()) == box.area());
  const std::int32_t* row = values.data();
  for (std::int32_t c = box.channel_lo; c <= box.channel_hi; ++c) {
    const std::int32_t x0 = box.x_lo;
    add_span(c, box.x_lo, box.x_hi, [row, x0](std::int32_t x) { return row[x - x0]; });
    row += box.width();
  }
}

std::int32_t DeltaArray::at(GridPoint p) const { return cell_get(p); }

bool DeltaArray::region_dirty(ProcId region) const {
  return nonzero_count_[static_cast<std::size_t>(region)] > 0;
}

const Rect& DeltaArray::dirty_bbox(ProcId region) const {
  return dirty_bbox_[static_cast<std::size_t>(region)];
}

std::int64_t DeltaArray::nonzero_count(ProcId region) const {
  return nonzero_count_[static_cast<std::size_t>(region)];
}

std::int64_t DeltaArray::resident_cells() const {
  if (tiles_.has_value()) return tiles_->tiles_resident() * tiles_->tile_cells();
  return static_cast<std::int64_t>(cells_.size());
}

void DeltaArray::clear_region_bookkeeping(ProcId region) {
  auto r = static_cast<std::size_t>(region);
  nonzero_count_[r] = 0;
  dirty_bbox_[r] = Rect::empty();
}

bool DeltaArray::nonzero_extent(std::int32_t channel, std::int32_t x_lo,
                                std::int32_t x_hi, std::int32_t* lo,
                                std::int32_t* hi) const {
  bool found = false;
  for (std::int32_t x = x_lo; x <= x_hi;) {
    std::int32_t run = 0;
    const std::int32_t* cells = row_span(channel, x, x_hi, &run);
    if (cells != nullptr) {
      std::int32_t i = 0;
      if (!found) {
        while (i < run && cells[i] == 0) ++i;
        if (i < run) {
          found = true;
          *lo = x + i;
        }
      }
      std::int32_t j = run - 1;
      while (j >= i && cells[j] == 0) --j;
      if (j >= i && found) *hi = x + j;
    }
    x += run;
  }
  return found;
}

void DeltaArray::take_rect(const Rect& box, std::vector<std::int32_t>& out) {
  out.reserve(static_cast<std::size_t>(box.area()));
  for (std::int32_t c = box.channel_lo; c <= box.channel_hi; ++c) {
    for (std::int32_t x = box.x_lo; x <= box.x_hi;) {
      std::int32_t run = 0;
      std::int32_t* cells = mutable_row_span(c, x, box.x_hi, &run);
      out.insert(out.end(), cells, cells + run);
      std::fill(cells, cells + run, 0);
      x += run;
    }
  }
}

std::optional<DeltaArray::Extract> DeltaArray::extract_region(ProcId region) {
  auto r = static_cast<std::size_t>(region);
  last_scan_cells_ = 0;
  if (nonzero_count_[r] == 0) return std::nullopt;

  // Scan the conservative box row by row to find the tight bounding box of
  // changes; the simulated scan cost is every cell of the box.
  const Rect scan = dirty_bbox_[r];
  last_scan_cells_ = scan.area();
  Rect tight;
  for (std::int32_t c = scan.channel_lo; c <= scan.channel_hi; ++c) {
    std::int32_t lo = 0;
    std::int32_t hi = 0;
    if (nonzero_extent(c, scan.x_lo, scan.x_hi, &lo, &hi)) {
      tight.expand(Rect::of(c, c, lo, hi));
    }
  }
  LOCUS_ASSERT_MSG(!tight.is_empty(), "nonzero count said dirty but scan found nothing");

  Extract out;
  out.bbox = tight;
  take_rect(tight, out.values);
  clear_region_bookkeeping(region);
  return out;
}

std::optional<std::vector<DeltaArray::Extract>> DeltaArray::extract_region_blocks(
    ProcId region, TileDims dims) {
  auto r = static_cast<std::size_t>(region);
  last_scan_cells_ = 0;
  if (nonzero_count_[r] == 0) return std::nullopt;
  LOCUS_ASSERT(dims.channels >= 1 && dims.cols >= 1);

  // One scan of the conservative box (identical cells — and therefore
  // identical simulated scan cost — to extract_region), growing each
  // `dims` tile's tight rectangle from the nonzero extent of every row
  // piece inside it. Buckets are laid out row-major over the tiles the box
  // overlaps, so block order is (tile row, tile col), deterministic.
  const Rect scan = dirty_bbox_[r];
  last_scan_cells_ = scan.area();
  const std::int32_t ty_lo = scan.channel_lo / dims.channels;
  const std::int32_t tx_lo = scan.x_lo / dims.cols;
  const std::int32_t tiles_x = scan.x_hi / dims.cols - tx_lo + 1;
  std::vector<Rect> tight_by_tile(
      static_cast<std::size_t>(scan.channel_hi / dims.channels - ty_lo + 1) *
      static_cast<std::size_t>(tiles_x));
  for (std::int32_t c = scan.channel_lo; c <= scan.channel_hi; ++c) {
    Rect* buckets = tight_by_tile.data() +
                    static_cast<std::size_t>(c / dims.channels - ty_lo) * tiles_x;
    for (std::int32_t x = scan.x_lo; x <= scan.x_hi;) {
      const std::int32_t tx = x / dims.cols;
      const std::int32_t piece_hi = std::min(scan.x_hi, (tx + 1) * dims.cols - 1);
      std::int32_t lo = 0;
      std::int32_t hi = 0;
      if (nonzero_extent(c, x, piece_hi, &lo, &hi)) {
        buckets[tx - tx_lo].expand(Rect::of(c, c, lo, hi));
      }
      x = piece_hi + 1;
    }
  }

  std::vector<Extract> blocks;
  for (const Rect& tight : tight_by_tile) {
    if (tight.is_empty()) continue;
    Extract out;
    out.bbox = tight;
    take_rect(tight, out.values);
    blocks.push_back(std::move(out));
  }
  LOCUS_ASSERT_MSG(!blocks.empty(), "nonzero count said dirty but scan found nothing");
  clear_region_bookkeeping(region);
  return blocks;
}

}  // namespace locus
