// Trace-driven coherence simulation with infinite or finite-LRU caches.
//
// Per cache line we track which processors hold a valid copy (a sharer
// set), which processors ever held it, and which single processor, if any,
// holds it dirty. Infinite caches (paper footnote 3: no capacity misses)
// change state only through the protocol events themselves; finite caches
// add per-processor LRU eviction.
//
// Storage (DESIGN.md §13): the line table is a two-level directory over the
// whole 32-bit address space — a fixed top level of page pointers and
// lazily allocated pages of dense line entries — so every address,
// including kLoopCounterAddr, is one index away and memory grows with the
// pages touched. Each entry holds its sharer and ever-held sets inline as
// ceil(procs / 64) 64-bit words, so any processor count is legal. Finite
// caches are per-processor intrusive LRU lists over a pool of
// capacity_lines slots with a small open-addressed line -> slot index.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "coherence/protocol.hpp"
#include "obs/obs.hpp"
#include "shm/trace.hpp"

namespace locus {

class CoherenceSim {
 public:
  CoherenceSim(std::int32_t procs, CoherenceParams params);

  /// Applies one shared reference.
  void access(std::int32_t proc, std::uint32_t addr, MemOp op);

  /// Replays a whole trace (must be time-ordered for meaningful results).
  void replay(const RefTrace& trace);

  const CoherenceTraffic& traffic() const { return traffic_; }
  const CoherenceParams& params() const { return params_; }

  /// Number of distinct lines ever touched (cold footprint).
  std::size_t lines_touched() const { return lines_touched_; }

  /// Mirrors the accumulated traffic breakdown into `o`'s registry under
  /// the coh.* names (obs::CoherenceObsNames), once, on `shard`. The replay
  /// loop itself carries no hooks — counters are published from the exact
  /// CoherenceTraffic totals after the fact, so replay cost is unchanged.
  void publish_obs(obs::Obs& o, std::size_t shard = 0) const;

 private:
  /// One line entry, viewed in place: a header word packing the dirty
  /// owner (plus one; 0 = none) in its low 32 bits and the MESI E and
  /// touched flags above, then the words_-word sharer set, then the
  /// words_-word ever-held set. One pointer, so it passes in a register.
  struct Line {
    std::uint64_t* entry;
    std::uint32_t words;
    std::uint64_t& header() const { return entry[0]; }
    std::uint64_t* present() const { return entry + 1; }
    std::uint64_t* ever() const { return entry + 1 + words; }
  };
  /// A processor's position in a sharer set.
  struct ProcBit {
    std::int32_t proc;
    std::uint32_t word;
    std::uint64_t mask;
  };

  /// One processor's finite cache: an open-addressed (linear probing)
  /// table keyed by line whose occupied cells are also the nodes of a
  /// doubly linked LRU list (front = MRU), so a lookup lands on the list
  /// node itself. The table holds at most capacity_lines lines at load
  /// <= 1/2 and grows by doubling as lines arrive.
  static constexpr std::uint32_t kNil = 0xFFFF'FFFFu;
  static constexpr std::uint32_t kFree = 0xFFFF'FFFEu;  ///< prev of an empty cell
  struct LruNode {
    std::uint32_t line;
    std::uint32_t prev;
    std::uint32_t next;
  };
  struct LruCache {
    std::vector<LruNode> table;
    std::uint32_t shift = 0;  ///< 64 - log2(table.size())
    std::uint32_t size = 0;   ///< resident lines
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  void step(std::int32_t proc, std::uint32_t addr, MemOp op);
  Line line_at(std::uint32_t line_addr);
  std::uint64_t* alloc_page(std::uint32_t page);

  /// True iff a processor other than `pb` is in `set`.
  bool others_in(const std::uint64_t* set, ProcBit pb) const;

  void access_wbi(Line line, ProcBit pb, MemOp op);
  void access_write_through(Line line, ProcBit pb, MemOp op);
  void access_mesi(Line line, ProcBit pb, MemOp op);
  void access_dragon(Line line, ProcBit pb, MemOp op);

  /// Makes `line_addr` proc's MRU line; on overflow evicts the LRU line
  /// (dropping proc's copy, writing it back if proc held it dirty).
  void lru_touch(ProcBit pb, std::uint32_t line_addr);
  static std::uint32_t lru_find(const LruCache& cache, std::uint32_t line_addr);
  static void lru_link_front(LruCache& cache, std::uint32_t pos);
  static void lru_unlink(LruCache& cache, std::uint32_t pos);
  static void lru_erase(LruCache& cache, std::uint32_t pos);
  static void lru_grow(LruCache& cache);

  std::int32_t procs_;
  CoherenceParams params_;
  CoherenceTraffic traffic_;
  std::size_t lines_touched_ = 0;

  std::uint32_t words_;        ///< 64-bit words per processor set
  std::uint32_t stride_;       ///< words per line entry: 1 + 2 * words_
  std::uint32_t line_shift_;   ///< log2(line_size)
  std::uint32_t page_shift_;   ///< log2(bytes of address space per page)
  std::uint32_t page_lines_;   ///< line entries per page
  /// The directory and the pages come zero-filled from std::calloc: large
  /// blocks map fresh zero pages, so only the parts a trace touches are
  /// ever faulted in.
  struct FreeDeleter {
    void operator()(void* p) const;
  };
  std::unique_ptr<std::uint64_t*[], FreeDeleter> dir_;  ///< 2^(32 - page_shift_) pages
  std::vector<std::unique_ptr<std::uint64_t[], FreeDeleter>> pages_;

  std::vector<LruCache> lru_;  ///< per processor; empty for infinite caches
};

/// Convenience: replay `trace` for each line size and return the traffic
/// totals in order (the Table 3 sweep).
std::vector<CoherenceTraffic> sweep_line_sizes(const RefTrace& trace,
                                               std::int32_t procs,
                                               const std::vector<std::int32_t>& sizes,
                                               ProtocolKind protocol =
                                                   ProtocolKind::kWriteBackInvalidate);

}  // namespace locus
