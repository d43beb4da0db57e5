// Wire-level routing: decompose a (possibly multi-pin) wire into two-point
// connections, pick the cheapest candidate for each, and commit the union of
// covered cells to the cost view. Re-routing in a later iteration first rips
// the previous commitment up (paper §3).
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "route/cost_view.hpp"
#include "route/explorer.hpp"
#include "route/path.hpp"

namespace locus {

/// How a multi-pin wire decomposes into two-point connections.
enum class Decomposition : std::int8_t {
  /// Chain x-adjacent pins left to right (the simple classic).
  kChainX,
  /// Minimum spanning tree over pin-to-pin Manhattan distances: never
  /// longer than the chain, often shorter on pin clusters.
  kMst,
};

struct RouterParams {
  ExplorerParams explorer;
  Decomposition decomposition = Decomposition::kChainX;
};

/// The committed routing of one wire.
struct WireRoute {
  WireId wire = -1;
  /// One chosen route per x-adjacent pin pair.
  std::vector<Route> connections;
  /// Sorted, deduplicated cells actually committed (each +1 in the array).
  std::vector<GridPoint> cells;
  /// Priced cost of the final path at decision time — the wire's
  /// contribution to the occupancy factor (paper §3).
  std::int64_t path_cost = 0;

  bool routed() const { return !cells.empty(); }

  /// Bounding box over committed cells.
  Rect bbox() const;
};

/// Calls fn(channel, x_lo, x_hi) once per maximal stretch of entries of
/// `cells` that sit in one channel at consecutive x, so every cell is
/// covered exactly once. For cells sorted by channel, then x (as
/// WireRoute::cells is) these are the path's row runs, in that order.
template <typename Fn>
void for_each_cell_run(const std::vector<GridPoint>& cells, Fn&& fn) {
  std::size_t i = 0;
  while (i < cells.size()) {
    std::size_t j = i + 1;
    while (j < cells.size() && cells[j].channel == cells[i].channel &&
           cells[j].x == cells[j - 1].x + 1) {
      ++j;
    }
    fn(cells[i].channel, cells[i].x, cells[j - 1].x);
    i = j;
  }
}

/// Aggregate work counters; drive both reporting and the simulated time
/// model (probes are the unit of routing compute).
struct RouteWorkStats {
  std::int64_t probes = 0;
  std::int64_t routes_evaluated = 0;
  std::int64_t cells_committed = 0;
  std::int64_t wires_routed = 0;

  RouteWorkStats& operator+=(const RouteWorkStats& other) {
    probes += other.probes;
    routes_evaluated += other.routes_evaluated;
    cells_committed += other.cells_committed;
    wires_routed += other.wires_routed;
    return *this;
  }
};

/// Sum of view.read() over `cells`, one read_row() per run when the view
/// supports bulk reads (per-cell read() otherwise, so tracing views note
/// every probe).
std::int64_t price_cells(const std::vector<GridPoint>& cells, CostView& view);

class WireRouter {
 public:
  WireRouter(std::int32_t channels, RouterParams params)
      : channels_(channels), params_(params) {}

  /// Prices candidates against `view`, commits the chosen cells (+1 each,
  /// one add_row() per run) and returns the route. Work counters
  /// accumulate into `stats`.
  WireRoute route_wire(const Wire& wire, CostView& view, RouteWorkStats& stats) const;

  /// Reverses a previous commitment (-1 on each committed cell, one
  /// add_row() per run).
  static void rip_up(const WireRoute& route, CostView& view);

  const RouterParams& params() const { return params_; }

 private:
  std::int32_t channels_;
  RouterParams params_;
};

}  // namespace locus
