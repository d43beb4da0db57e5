#include "geom/partition.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace locus {

MeshShape MeshShape::for_procs(std::int32_t procs) {
  LOCUS_ASSERT(procs >= 1);
  std::int32_t best_rows = 1;
  for (std::int32_t r = 1; r * r <= procs; ++r) {
    if (procs % r == 0) best_rows = r;
  }
  return MeshShape{best_rows, procs / best_rows};
}

namespace {

// Splits `total` cells into `bands` contiguous bands of nearly equal size;
// returns band start offsets (size bands+1). Earlier bands take the remainder.
std::vector<std::int32_t> make_bands(std::int32_t total, std::int32_t bands) {
  LOCUS_ASSERT(bands >= 1);
  LOCUS_ASSERT_MSG(total >= bands, "more partition bands than cells");
  std::vector<std::int32_t> starts(static_cast<std::size_t>(bands) + 1);
  std::int32_t base = total / bands;
  std::int32_t extra = total % bands;
  std::int32_t offset = 0;
  for (std::int32_t b = 0; b < bands; ++b) {
    starts[static_cast<std::size_t>(b)] = offset;
    offset += base + (b < extra ? 1 : 0);
  }
  starts[static_cast<std::size_t>(bands)] = total;
  return starts;
}

// Inverts band starts into a per-cell lookup table: entry v is the band
// holding coordinate v.
std::vector<std::int32_t> band_table(const std::vector<std::int32_t>& starts) {
  std::vector<std::int32_t> table(static_cast<std::size_t>(starts.back()));
  for (std::size_t b = 0; b + 1 < starts.size(); ++b) {
    std::fill(table.begin() + starts[b], table.begin() + starts[b + 1],
              static_cast<std::int32_t>(b));
  }
  return table;
}

}  // namespace

Partition::Partition(std::int32_t channels, std::int32_t grids, MeshShape mesh)
    : channels_(channels), grids_(grids), mesh_(mesh) {
  // Band r covers [row_start[r], row_start[r+1]); likewise for columns.
  const std::vector<std::int32_t> row_start = make_bands(channels, mesh.rows);
  const std::vector<std::int32_t> col_start = make_bands(grids, mesh.cols);
  row_band_ = band_table(row_start);
  col_band_ = band_table(col_start);
  regions_.reserve(static_cast<std::size_t>(mesh.procs()));
  for (std::int32_t r = 0; r < mesh.rows; ++r) {
    for (std::int32_t c = 0; c < mesh.cols; ++c) {
      regions_.push_back(Rect::of(row_start[static_cast<std::size_t>(r)],
                                  row_start[static_cast<std::size_t>(r) + 1] - 1,
                                  col_start[static_cast<std::size_t>(c)],
                                  col_start[static_cast<std::size_t>(c) + 1] - 1));
    }
  }
}

const Rect& Partition::region(ProcId proc) const {
  LOCUS_ASSERT(proc >= 0 && proc < num_regions());
  return regions_[static_cast<std::size_t>(proc)];
}

std::int32_t Partition::hop_distance(ProcId a, ProcId b) const {
  return std::abs(mesh_row(a) - mesh_row(b)) + std::abs(mesh_col(a) - mesh_col(b));
}

std::vector<ProcId> Partition::neighbors(ProcId proc) const {
  std::vector<ProcId> out;
  std::int32_t row = mesh_row(proc);
  std::int32_t col = mesh_col(proc);
  if (row > 0) out.push_back(proc_at(row - 1, col));
  if (row + 1 < mesh_.rows) out.push_back(proc_at(row + 1, col));
  if (col > 0) out.push_back(proc_at(row, col - 1));
  if (col + 1 < mesh_.cols) out.push_back(proc_at(row, col + 1));
  return out;
}

std::vector<ProcId> Partition::regions_overlapping(const Rect& r) const {
  std::vector<ProcId> out;
  if (r.is_empty()) return out;
  Rect clipped = Rect::intersection(
      r, Rect::of(0, channels_ - 1, 0, grids_ - 1));
  if (clipped.is_empty()) return out;
  const std::int32_t row_lo = row_band_[static_cast<std::size_t>(clipped.channel_lo)];
  const std::int32_t row_hi = row_band_[static_cast<std::size_t>(clipped.channel_hi)];
  const std::int32_t col_lo = col_band_[static_cast<std::size_t>(clipped.x_lo)];
  const std::int32_t col_hi = col_band_[static_cast<std::size_t>(clipped.x_hi)];
  for (std::int32_t row = row_lo; row <= row_hi; ++row) {
    for (std::int32_t col = col_lo; col <= col_hi; ++col) {
      out.push_back(proc_at(row, col));
    }
  }
  return out;
}

}  // namespace locus
