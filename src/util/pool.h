// Fixed-size block pools for the simulator's hot allocation paths.
//
// A FixedPool hands out blocks of one size from slab-carved arenas and
// recycles freed blocks through an intrusive freelist, so steady-state
// allocation is a pointer pop instead of a trip through the global
// allocator. Pools self-register in a process-wide registry under a short
// name ("mbuf", "cluster") so the metrics layer can export occupancy and
// high-water marks without owning the pools.
//
// Under AddressSanitizer the pools transparently bypass themselves and
// forward to operator new/delete: recycling memory would hide use-after-free
// bugs from the sanitizer, and catching exactly that bug class is why the
// ASan tier-1 leg exists. The stats keep counting either way, so tests that
// assert on occupancy still see real numbers. (The scheduler's event-node
// arena is intentionally NOT built on this class: event handles peek at
// recycled nodes through generation counters, which requires type-stable
// memory that is never returned to the OS — see src/sim/scheduler.h.)
#ifndef RENONFS_SRC_UTIL_POOL_H_
#define RENONFS_SRC_UTIL_POOL_H_

#include <cstddef>
#include <cstdint>

namespace renonfs {

class FixedPool {
 public:
  struct Stats {
    uint64_t total_blocks = 0;  // carved from slabs over the pool's lifetime
    uint64_t in_use = 0;        // currently allocated
    uint64_t high_water = 0;    // max in_use ever observed
    uint64_t fresh_allocs = 0;  // served by carving a new block
    uint64_t recycles = 0;      // served from the freelist
  };

  // `name` must be a static string; it keys the registry. block_size must be
  // at least pointer-sized (the freelist threads through freed blocks).
  FixedPool(const char* name, size_t block_size, size_t alignment,
            size_t blocks_per_slab = 128);
  ~FixedPool();
  FixedPool(const FixedPool&) = delete;
  FixedPool& operator=(const FixedPool&) = delete;

  void* Allocate();
  void Free(void* block);

  const char* name() const { return name_; }
  size_t block_size() const { return block_size_; }
  const Stats& stats() const { return stats_; }

  // True when pooling is compiled out (sanitized builds) and every block
  // really comes from operator new. Tests that assert recycling branch on it.
  static bool bypass();

  // Process-wide registry of live pools, in construction order.
  static FixedPool* Find(const char* name);

 private:
  struct FreeNode {
    FreeNode* next;
  };

  void GrowSlab();

  const char* name_;
  const size_t block_size_;
  const size_t alignment_;
  const size_t blocks_per_slab_;
  FreeNode* free_list_ = nullptr;
  // Current slab bump region: [bump_, bump_end_).
  unsigned char* bump_ = nullptr;
  unsigned char* bump_end_ = nullptr;
  void** slabs_ = nullptr;  // grown array of slab base pointers
  size_t slab_count_ = 0;
  size_t slab_capacity_ = 0;
  Stats stats_;
};

}  // namespace renonfs

#endif  // RENONFS_SRC_UTIL_POOL_H_
