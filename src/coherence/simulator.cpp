#include "coherence/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <new>
#include <type_traits>

#include "support/assert.hpp"

namespace locus {

namespace {

constexpr std::uint64_t kOwnerMask = 0xFFFF'FFFFULL;  ///< dirty owner + 1
constexpr std::uint64_t kExclusiveClean = 1ULL << 32;  ///< MESI E state
constexpr std::uint64_t kTouched = 1ULL << 33;         ///< counted in lines_touched
/// A page spans at least 64 KB of address space: bnrE's whole cost array
/// fits one page, and the top level stays 2^16 pointers.
constexpr std::uint32_t kMinPageShift = 16;
constexpr std::uint32_t kMinLruTable = 16;

std::int32_t dirty_owner(std::uint64_t header) {
  return static_cast<std::int32_t>(header & kOwnerMask) - 1;
}

void set_dirty_owner(std::uint64_t& header, std::int32_t proc) {
  header = (header & ~kOwnerMask) | static_cast<std::uint32_t>(proc + 1);
}

void add_proc(std::uint64_t* set, std::int32_t proc) {
  set[static_cast<std::uint32_t>(proc) >> 6] |= 1ULL << (proc & 63);
}

/// n zero-filled Ts (all-zero bytes are null for pointers on every
/// platform the build supports).
template <class T>
T* calloc_array(std::size_t n) {
  static_assert(std::is_trivial_v<T>);
  void* p = std::calloc(n, sizeof(T));
  if (p == nullptr) throw std::bad_alloc();
  return static_cast<T*>(p);
}

bool all_clear(const std::uint64_t* set, std::uint32_t words) {
  std::uint64_t any = 0;
  for (std::uint32_t i = 0; i < words; ++i) any |= set[i];
  return any == 0;
}

}  // namespace

CoherenceSim::CoherenceSim(std::int32_t procs, CoherenceParams params)
    : procs_(procs), params_(params) {
  LOCUS_ASSERT(procs >= 1);
  LOCUS_ASSERT(params.line_size >= params.word_size);
  LOCUS_ASSERT(params.line_size > 0 && (params.line_size & (params.line_size - 1)) == 0);
  LOCUS_ASSERT(params.capacity_lines >= 0);
  words_ = (static_cast<std::uint32_t>(procs) + 63) / 64;
  stride_ = 1 + 2 * words_;
  line_shift_ = static_cast<std::uint32_t>(
      std::countr_zero(static_cast<std::uint32_t>(params.line_size)));
  page_shift_ = std::max(kMinPageShift, line_shift_);
  page_lines_ = 1u << (page_shift_ - line_shift_);
  dir_.reset(calloc_array<std::uint64_t*>(std::size_t{1} << (32 - page_shift_)));
  if (params.capacity_lines > 0) {
    lru_.resize(static_cast<std::size_t>(procs));
    for (LruCache& cache : lru_) {
      cache.table.assign(kMinLruTable, LruNode{0, kFree, kNil});
      cache.shift = 64 - static_cast<std::uint32_t>(std::countr_zero(kMinLruTable));
    }
  }
}

void CoherenceSim::FreeDeleter::operator()(void* p) const { std::free(p); }

std::uint64_t* CoherenceSim::alloc_page(std::uint32_t page) {
  pages_.emplace_back(
      calloc_array<std::uint64_t>(static_cast<std::size_t>(page_lines_) * stride_));
  dir_[page] = pages_.back().get();
  return dir_[page];
}

inline CoherenceSim::Line CoherenceSim::line_at(std::uint32_t line_addr) {
  const std::uint32_t page = line_addr >> (page_shift_ - line_shift_);
  std::uint64_t* base = dir_[page];
  if (base == nullptr) [[unlikely]] {
    base = alloc_page(page);
  }
  std::uint64_t* entry =
      base + static_cast<std::size_t>(line_addr & (page_lines_ - 1)) * stride_;
  return Line{entry, words_};
}

inline std::uint32_t CoherenceSim::lru_find(const LruCache& cache,
                                            std::uint32_t line_addr) {
  const auto mask = static_cast<std::uint32_t>(cache.table.size() - 1);
  auto pos = static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(line_addr) * 0x9E37'79B9'7F4A'7C15ULL) >> cache.shift);
  while (cache.table[pos].prev != kFree && cache.table[pos].line != line_addr) {
    pos = (pos + 1) & mask;
  }
  return pos;
}

inline void CoherenceSim::lru_link_front(LruCache& cache, std::uint32_t pos) {
  LruNode& node = cache.table[pos];
  node.prev = kNil;
  node.next = cache.head;
  (cache.head == kNil ? cache.tail : cache.table[cache.head].prev) = pos;
  cache.head = pos;
}

inline void CoherenceSim::lru_unlink(LruCache& cache, std::uint32_t pos) {
  const LruNode& node = cache.table[pos];
  (node.prev == kNil ? cache.head : cache.table[node.prev].next) = node.next;
  (node.next == kNil ? cache.tail : cache.table[node.next].prev) = node.prev;
}

void CoherenceSim::lru_erase(LruCache& cache, std::uint32_t hole) {
  // Backward-shift deletion on an unlinked cell: later cells of the probe
  // run move into the hole unless their home lies cyclically after it, and
  // a moved node's list neighbours are repointed at its new cell.
  const auto mask = static_cast<std::uint32_t>(cache.table.size() - 1);
  std::uint32_t j = hole;
  for (;;) {
    j = (j + 1) & mask;
    const LruNode node = cache.table[j];
    if (node.prev == kFree) break;
    const auto home = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(node.line) * 0x9E37'79B9'7F4A'7C15ULL) >> cache.shift);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      cache.table[hole] = node;
      (node.prev == kNil ? cache.head : cache.table[node.prev].next) = hole;
      (node.next == kNil ? cache.tail : cache.table[node.next].prev) = hole;
      hole = j;
    }
  }
  cache.table[hole].prev = kFree;
  --cache.size;
}

void CoherenceSim::lru_grow(LruCache& cache) {
  // Re-insert LRU to MRU, each at the front: the order is preserved.
  LruCache grown;
  grown.table.assign(cache.table.size() * 2, LruNode{0, kFree, kNil});
  grown.shift = cache.shift - 1;
  grown.size = cache.size;
  for (std::uint32_t pos = cache.tail; pos != kNil; pos = cache.table[pos].prev) {
    const std::uint32_t line = cache.table[pos].line;
    const std::uint32_t at = lru_find(grown, line);
    grown.table[at].line = line;
    lru_link_front(grown, at);
  }
  cache = std::move(grown);
}

inline void CoherenceSim::lru_touch(ProcBit pb, std::uint32_t line_addr) {
  LruCache& cache = lru_[static_cast<std::size_t>(pb.proc)];
  if (cache.head != kNil && cache.table[cache.head].line == line_addr) return;
  std::uint32_t pos = lru_find(cache, line_addr);
  if (cache.table[pos].prev != kFree) {  // resident: move to the front
    lru_unlink(cache, pos);
    lru_link_front(cache, pos);
    return;
  }
  if (cache.size == static_cast<std::uint32_t>(params_.capacity_lines)) {
    // Evict the least recently used line; a dirty victim is written back.
    const std::uint32_t victim_pos = cache.tail;
    const std::uint32_t victim = cache.table[victim_pos].line;
    lru_unlink(cache, victim_pos);
    lru_erase(cache, victim_pos);
    ++traffic_.capacity_evictions;
    Line line = line_at(victim);
    line.present()[pb.word] &= ~pb.mask;
    if (dirty_owner(line.header()) == pb.proc) {
      set_dirty_owner(line.header(), -1);
      traffic_.eviction_writeback_bytes += static_cast<std::uint64_t>(params_.line_size);
    }
    pos = lru_find(cache, line_addr);
  } else if ((cache.size + 1) * 2 > cache.table.size()) {
    lru_grow(cache);
    pos = lru_find(cache, line_addr);
  }
  cache.table[pos].line = line_addr;
  ++cache.size;
  lru_link_front(cache, pos);
}

inline bool CoherenceSim::others_in(const std::uint64_t* set, ProcBit pb) const {
  std::uint64_t rest = set[pb.word] & ~pb.mask;
  for (std::uint32_t i = 0; i < words_; ++i) {
    if (i != pb.word) rest |= set[i];
  }
  return rest != 0;
}

inline void CoherenceSim::access_wbi(Line line, ProcBit pb, MemOp op) {
  const auto line_bytes = static_cast<std::uint64_t>(params_.line_size);
  const auto word_bytes = static_cast<std::uint64_t>(params_.word_size);
  const std::int32_t owner = dirty_owner(line.header());
  const bool held = (line.present()[pb.word] & pb.mask) != 0;

  if (op == MemOp::kRead) {
    if (owner == pb.proc || held) return;  // hit
    ++traffic_.read_misses;
    if (owner >= 0) {
      // Another cache holds it dirty: it flushes, supplying the requester
      // in the same bus transaction; both now hold it clean.
      traffic_.read_flush_bytes += line_bytes;
      add_proc(line.present(), owner);
      set_dirty_owner(line.header(), -1);
    } else if ((line.ever()[pb.word] & pb.mask) != 0) {
      traffic_.refetch_bytes += line_bytes;  // lost to an invalidation
    } else {
      traffic_.cold_fetch_bytes += line_bytes;
    }
    line.present()[pb.word] |= pb.mask;
    line.ever()[pb.word] |= pb.mask;
    return;
  }

  // Write.
  if (owner == pb.proc) return;  // dirty hit, free
  if (owner >= 0) {
    // Dirty in another cache: flush it, then take ownership.
    traffic_.write_flush_bytes += line_bytes;
    ++traffic_.invalidation_msgs;
    traffic_.word_write_bytes += word_bytes;
  } else {
    if (!held) {
      // Write miss to a clean/memory line: fill it first.
      ++traffic_.write_misses;
      traffic_.write_fetch_bytes += line_bytes;
    }
    // First write to a clean line: a word goes on the bus, every other copy
    // is invalidated (paper §5.2).
    traffic_.word_write_bytes += word_bytes;
    if (others_in(line.present(), pb)) ++traffic_.invalidation_msgs;
  }
  std::fill_n(line.present(), words_, 0);
  line.present()[pb.word] = pb.mask;
  line.ever()[pb.word] |= pb.mask;
  set_dirty_owner(line.header(), pb.proc);
}

inline void CoherenceSim::access_write_through(Line line, ProcBit pb, MemOp op) {
  const auto line_bytes = static_cast<std::uint64_t>(params_.line_size);
  const auto word_bytes = static_cast<std::uint64_t>(params_.word_size);
  const bool held = (line.present()[pb.word] & pb.mask) != 0;
  // Memory is always current: no dirty state, no flushes.
  if (op == MemOp::kRead) {
    if (held) return;
    ++traffic_.read_misses;
    if ((line.ever()[pb.word] & pb.mask) != 0) {
      traffic_.refetch_bytes += line_bytes;
    } else {
      traffic_.cold_fetch_bytes += line_bytes;
    }
    line.present()[pb.word] |= pb.mask;
    line.ever()[pb.word] |= pb.mask;
    return;
  }
  if (!held) {
    ++traffic_.write_misses;
    traffic_.write_fetch_bytes += line_bytes;
  }
  traffic_.word_write_bytes += word_bytes;  // every write goes through
  if (others_in(line.present(), pb)) ++traffic_.invalidation_msgs;
  std::fill_n(line.present(), words_, 0);  // invalidate other copies
  line.present()[pb.word] = pb.mask;
  line.ever()[pb.word] |= pb.mask;
}

inline void CoherenceSim::access_mesi(Line line, ProcBit pb, MemOp op) {
  const auto line_bytes = static_cast<std::uint64_t>(params_.line_size);
  const std::int32_t owner = dirty_owner(line.header());
  if (op == MemOp::kRead) {
    if (owner == pb.proc || (line.present()[pb.word] & pb.mask) != 0) return;
    ++traffic_.read_misses;
    if (owner >= 0) {
      traffic_.read_flush_bytes += line_bytes;
      add_proc(line.present(), owner);
      set_dirty_owner(line.header(), -1);
    } else if ((line.ever()[pb.word] & pb.mask) != 0) {
      traffic_.refetch_bytes += line_bytes;
    } else {
      traffic_.cold_fetch_bytes += line_bytes;
    }
    const bool alone = all_clear(line.present(), words_);
    line.present()[pb.word] |= pb.mask;
    line.ever()[pb.word] |= pb.mask;
    line.header() = alone ? (line.header() | kExclusiveClean) : (line.header() & ~kExclusiveClean);
    return;
  }

  if (owner == pb.proc) return;
  if (owner >= 0) {
    traffic_.write_flush_bytes += line_bytes;
    ++traffic_.invalidation_msgs;
    set_dirty_owner(line.header(), -1);
    std::fill_n(line.present(), words_, 0);
  }
  const bool held = (line.present()[pb.word] & pb.mask) != 0;
  const bool others = others_in(line.present(), pb);
  const bool exclusive = held && (line.header() & kExclusiveClean) != 0 && !others;
  if (!held) {
    ++traffic_.write_misses;
    traffic_.write_fetch_bytes += line_bytes;
  }
  if (!exclusive) {
    // Invalidate other sharers with an address-only bus transaction;
    // Illinois' E state makes the silent upgrade possible when alone.
    if (others || !held) ++traffic_.invalidation_msgs;
    traffic_.word_write_bytes += static_cast<std::uint64_t>(params_.word_size);
  }
  std::fill_n(line.present(), words_, 0);
  line.present()[pb.word] = pb.mask;
  line.ever()[pb.word] |= pb.mask;
  set_dirty_owner(line.header(), pb.proc);
  line.header() &= ~kExclusiveClean;
}

inline void CoherenceSim::access_dragon(Line line, ProcBit pb, MemOp op) {
  const auto line_bytes = static_cast<std::uint64_t>(params_.line_size);
  const auto word_bytes = static_cast<std::uint64_t>(params_.word_size);
  // Write-update: copies are never invalidated, so with infinite caches a
  // processor misses each line at most once (no refetches), and every write
  // to a line with other sharers broadcasts the written word.
  if (op == MemOp::kRead) {
    if ((line.present()[pb.word] & pb.mask) != 0) return;
    ++traffic_.read_misses;
    if (dirty_owner(line.header()) >= 0) {
      // Dirty-somewhere lines are supplied cache-to-cache (Sm/M states).
      traffic_.read_flush_bytes += line_bytes;
    } else {
      traffic_.cold_fetch_bytes += line_bytes;
    }
    line.present()[pb.word] |= pb.mask;
    line.ever()[pb.word] |= pb.mask;
    return;
  }
  if ((line.present()[pb.word] & pb.mask) == 0) {
    ++traffic_.write_misses;
    traffic_.write_fetch_bytes += line_bytes;
    line.present()[pb.word] |= pb.mask;
    line.ever()[pb.word] |= pb.mask;
  }
  if (others_in(line.present(), pb)) {
    // Shared: broadcast the word so every copy stays current.
    traffic_.word_write_bytes += word_bytes;
  }
  // Mark "modified relative to memory" (held by the writing cache).
  set_dirty_owner(line.header(), pb.proc);
}

// Forced inline: replay() runs this once per reference, and as a call the
// loop reloads every member it reads on each iteration.
[[gnu::always_inline]] inline void CoherenceSim::step(std::int32_t proc,
                                                      std::uint32_t addr, MemOp op) {
  LOCUS_ASSERT(proc >= 0 && proc < procs_);
  const std::uint32_t line_addr = addr >> line_shift_;
  const Line line = line_at(line_addr);
  if ((line.header() & kTouched) == 0) {
    line.header() |= kTouched;
    ++lines_touched_;
  }
  const ProcBit pb{proc, static_cast<std::uint32_t>(proc) >> 6, 1ULL << (proc & 63)};
  // Finite caches: the accessed line becomes MRU; an overflowing victim is
  // evicted before the protocol handler can be confused by it. (Note the
  // handler below may invalidate other procs' copies; stale LRU entries of
  // invalidated lines are harmless — re-access refreshes them.)
  if (params_.capacity_lines > 0) {
    lru_touch(pb, line_addr);
  }
  switch (params_.protocol) {
    case ProtocolKind::kWriteBackInvalidate:
      access_wbi(line, pb, op);
      break;
    case ProtocolKind::kWriteThrough:
      access_write_through(line, pb, op);
      break;
    case ProtocolKind::kMesi:
      access_mesi(line, pb, op);
      break;
    case ProtocolKind::kDragon:
      access_dragon(line, pb, op);
      break;
  }
}

void CoherenceSim::access(std::int32_t proc, std::uint32_t addr, MemOp op) {
  step(proc, addr, op);
  ++traffic_.accesses;
}

void CoherenceSim::replay(const RefTrace& trace) {
  for (const MemRef& ref : trace.refs()) {
    step(ref.proc, ref.addr, ref.op);
  }
  traffic_.accesses += trace.size();
}

void CoherenceSim::publish_obs(obs::Obs& o, std::size_t shard) const {
  using Names = obs::CoherenceObsNames;
  auto& reg = o.counters();
  const CoherenceTraffic& t = traffic_;
  reg.add(shard, reg.counter(Names::kAccesses), t.accesses);
  reg.add(shard, reg.counter(Names::kReadMisses), t.read_misses);
  reg.add(shard, reg.counter(Names::kWriteMisses), t.write_misses);
  reg.add(shard, reg.counter(Names::kInvalidations), t.invalidation_msgs);
  reg.add(shard, reg.counter(Names::kColdFetchBytes), t.cold_fetch_bytes);
  reg.add(shard, reg.counter(Names::kRefetchBytes), t.refetch_bytes);
  reg.add(shard, reg.counter(Names::kWriteFetchBytes), t.write_fetch_bytes);
  reg.add(shard, reg.counter(Names::kWordWriteBytes), t.word_write_bytes);
  reg.add(shard, reg.counter(Names::kReadFlushBytes), t.read_flush_bytes);
  reg.add(shard, reg.counter(Names::kWriteFlushBytes), t.write_flush_bytes);
  reg.add(shard, reg.counter(Names::kEvictionWritebackBytes),
          t.eviction_writeback_bytes);
  reg.add(shard, reg.counter(Names::kTotalBytes), t.total_bytes());
  reg.add(shard, reg.counter(Names::kLinesTouched), lines_touched_);
}

std::vector<CoherenceTraffic> sweep_line_sizes(const RefTrace& trace,
                                               std::int32_t procs,
                                               const std::vector<std::int32_t>& sizes,
                                               ProtocolKind protocol) {
  std::vector<CoherenceTraffic> out;
  out.reserve(sizes.size());
  for (std::int32_t size : sizes) {
    CoherenceParams params;
    params.line_size = size;
    params.protocol = protocol;
    CoherenceSim sim(procs, params);
    sim.replay(trace);
    out.push_back(sim.traffic());
  }
  return out;
}

}  // namespace locus
