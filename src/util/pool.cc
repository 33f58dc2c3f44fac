#include "src/util/pool.h"

#include <cstring>
#include <new>
#include <vector>

#include "src/util/logging.h"

// Sanitized builds bypass the pools entirely: recycled memory would mask
// use-after-free from ASan, and the tier-1 ASan leg exists to catch exactly
// that bug class. GCC defines __SANITIZE_ADDRESS__; clang needs the feature
// probe.
#if defined(__SANITIZE_ADDRESS__)
#define RENONFS_POOL_BYPASS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RENONFS_POOL_BYPASS 1
#endif
#endif
#ifndef RENONFS_POOL_BYPASS
#define RENONFS_POOL_BYPASS 0
#endif

namespace renonfs {

namespace {

// Leaked on purpose: global pools (mbuf, cluster) outlive every static
// destructor, so the registry must never dangle during teardown.
std::vector<FixedPool*>& Registry() {
  static std::vector<FixedPool*>* pools = new std::vector<FixedPool*>();
  return *pools;
}

}  // namespace

FixedPool::FixedPool(const char* name, size_t block_size, size_t alignment,
                     size_t blocks_per_slab)
    : name_(name),
      block_size_(block_size < sizeof(FreeNode) ? sizeof(FreeNode) : block_size),
      alignment_(alignment < alignof(FreeNode) ? alignof(FreeNode) : alignment),
      blocks_per_slab_(blocks_per_slab) {
  CHECK_GT(blocks_per_slab_, 0u);
  // Blocks must tile the slab at the required alignment.
  CHECK_EQ(block_size_ % alignment_, 0u)
      << "pool " << name_ << ": block size not a multiple of its alignment";
  Registry().push_back(this);
}

FixedPool::~FixedPool() {
  for (size_t i = 0; i < slab_count_; ++i) {
    ::operator delete(slabs_[i], std::align_val_t(alignment_));
  }
  ::operator delete(static_cast<void*>(slabs_));
  for (FixedPool*& entry : Registry()) {
    if (entry == this) {
      entry = nullptr;  // keep registry order stable; Find/ForEach skip nulls
    }
  }
}

bool FixedPool::bypass() { return RENONFS_POOL_BYPASS != 0; }

void FixedPool::GrowSlab() {
  if (slab_count_ == slab_capacity_) {
    const size_t cap = slab_capacity_ == 0 ? 8 : slab_capacity_ * 2;
    void** grown = static_cast<void**>(::operator new(cap * sizeof(void*)));
    if (slab_count_ > 0) {
      std::memcpy(grown, slabs_, slab_count_ * sizeof(void*));
    }
    ::operator delete(static_cast<void*>(slabs_));
    slabs_ = grown;
    slab_capacity_ = cap;
  }
  void* slab =
      ::operator new(block_size_ * blocks_per_slab_, std::align_val_t(alignment_));
  slabs_[slab_count_++] = slab;
  bump_ = static_cast<unsigned char*>(slab);
  bump_end_ = bump_ + block_size_ * blocks_per_slab_;
  stats_.total_blocks += blocks_per_slab_;
}

void* FixedPool::Allocate() {
  ++stats_.in_use;
  if (stats_.in_use > stats_.high_water) {
    stats_.high_water = stats_.in_use;
  }
#if RENONFS_POOL_BYPASS
  ++stats_.fresh_allocs;
  ++stats_.total_blocks;
  return ::operator new(block_size_, std::align_val_t(alignment_));
#else
  if (free_list_ != nullptr) {
    FreeNode* node = free_list_;
    free_list_ = node->next;
    ++stats_.recycles;
    return node;
  }
  if (bump_ == bump_end_) {
    GrowSlab();
  }
  void* block = bump_;
  bump_ += block_size_;
  ++stats_.fresh_allocs;
  return block;
#endif
}

void FixedPool::Free(void* block) {
  CHECK_GT(stats_.in_use, 0u) << "pool " << name_ << ": free without allocate";
  --stats_.in_use;
#if RENONFS_POOL_BYPASS
  ::operator delete(block, std::align_val_t(alignment_));
#else
  FreeNode* node = static_cast<FreeNode*>(block);
  node->next = free_list_;
  free_list_ = node;
#endif
}

FixedPool* FixedPool::Find(const char* name) {
  for (FixedPool* pool : Registry()) {
    if (pool != nullptr && std::strcmp(pool->name_, name) == 0) {
      return pool;
    }
  }
  return nullptr;
}

}  // namespace renonfs
