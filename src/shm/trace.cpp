#include "shm/trace.hpp"

#include <algorithm>

namespace locus {

void RefTrace::sort_by_time() {
  std::stable_sort(refs_.begin(), refs_.end(),
                   [](const MemRef& a, const MemRef& b) { return a.time < b.time; });
}

}  // namespace locus
