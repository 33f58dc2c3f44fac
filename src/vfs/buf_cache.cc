#include "src/vfs/buf_cache.h"

#include <algorithm>
#include <cstring>

#include "src/util/logging.h"

namespace renonfs {
namespace {

// A fresh, zeroed cluster for block storage. Not counted in
// MbufStats::cluster_allocs — that counter tracks chain operations, and the
// zero-copy benchmarks compare chain behaviour, not cache sizing. The
// allocation owner is the BufCache, so the cluster ledger can attribute a
// leaked page to this layer.
std::shared_ptr<Cluster> MakeBlockCluster(const void* owner) {
  auto cluster = NewCluster(owner, "bufcache");
  std::memset(cluster->data(), 0, Cluster::kSize);
  return cluster;
}

}  // namespace

Buf::Buf(uint64_t file, uint32_t block, size_t block_size, const void* owner)
    : file_(file), block_(block), block_size_(block_size), owner_(owner) {
  clusters_.resize((block_size + Cluster::kSize - 1) / Cluster::kSize);
  for (auto& cluster : clusters_) {
    cluster = MakeBlockCluster(owner_);
  }
}

bool Buf::EnsureWritable(size_t ci) {
  if (clusters_[ci].use_count() == 1) {
    return false;
  }
  // Copy-on-write: the old cluster stays alive inside the reply chains that
  // borrowed it; the buffer gets a private copy carrying the same bytes.
  auto fresh = NewCluster(owner_, "bufcache");
  std::memcpy(fresh->data(), clusters_[ci]->data(), Cluster::kSize);
  clusters_[ci] = std::move(fresh);
  return true;
}

void Buf::CollectClusterIds(std::unordered_set<const Cluster*>& out) const {
  for (const auto& cluster : clusters_) {
    out.insert(cluster.get());
  }
}

size_t Buf::CopyIn(size_t off, const void* src, size_t len) {
  CHECK_LE(off + len, block_size_);
  const uint8_t* from = static_cast<const uint8_t*>(src);
  size_t breaks = 0;
  while (len > 0) {
    const size_t ci = off / Cluster::kSize;
    const size_t coff = off % Cluster::kSize;
    const size_t take = std::min(len, Cluster::kSize - coff);
    if (EnsureWritable(ci)) {
      ++breaks;
    }
    std::memcpy(clusters_[ci]->data() + coff, from, take);
    from += take;
    off += take;
    len -= take;
  }
  return breaks;
}

size_t Buf::ZeroRange(size_t off, size_t len) {
  CHECK_LE(off + len, block_size_);
  size_t breaks = 0;
  while (len > 0) {
    const size_t ci = off / Cluster::kSize;
    const size_t coff = off % Cluster::kSize;
    const size_t take = std::min(len, Cluster::kSize - coff);
    if (EnsureWritable(ci)) {
      ++breaks;
    }
    std::memset(clusters_[ci]->data() + coff, 0, take);
    off += take;
    len -= take;
  }
  return breaks;
}

void Buf::CopyOut(size_t off, void* dst, size_t len) const {
  CHECK_LE(off + len, block_size_);
  uint8_t* to = static_cast<uint8_t*>(dst);
  while (len > 0) {
    const size_t ci = off / Cluster::kSize;
    const size_t coff = off % Cluster::kSize;
    const size_t take = std::min(len, Cluster::kSize - coff);
    std::memcpy(to, clusters_[ci]->data() + coff, take);
    to += take;
    off += take;
    len -= take;
  }
}

size_t Buf::ShareInto(MbufChain* chain, size_t off, size_t len) const {
  CHECK_LE(off + len, block_size_);
  size_t loans = 0;
  while (len > 0) {
    const size_t ci = off / Cluster::kSize;
    const size_t coff = off % Cluster::kSize;
    const size_t take = std::min(len, Cluster::kSize - coff);
    chain->AppendSharedCluster(clusters_[ci], coff, take);
    ++loans;
    off += take;
    len -= take;
  }
  return loans;
}

void Buf::AppendTo(MbufChain* chain, size_t off, size_t len) const {
  CHECK_LE(off + len, block_size_);
  while (len > 0) {
    const size_t ci = off / Cluster::kSize;
    const size_t coff = off % Cluster::kSize;
    const size_t take = std::min(len, Cluster::kSize - coff);
    chain->Append(clusters_[ci]->data() + coff, take);
    off += take;
    len -= take;
  }
}

bool Buf::loaned() const {
  for (const auto& cluster : clusters_) {
    if (cluster.use_count() > 1) {
      return true;
    }
  }
  return false;
}

void Buf::MarkDirty(size_t lo, size_t hi) {
  CHECK_LE(lo, hi);
  CHECK_LE(hi, block_size_);
  if (!dirty()) {
    dirty_lo_ = lo;
    dirty_hi_ = hi;
  } else {
    // Regions must overlap or be adjacent; unioning across a gap of
    // never-fetched bytes would later push garbage (callers split
    // discontiguous writes by pushing the old region first, as the BSD
    // nfs_write code did).
    CHECK(lo <= dirty_hi_ && hi >= dirty_lo_) << "discontiguous dirty regions";
    dirty_lo_ = std::min(dirty_lo_, lo);
    dirty_hi_ = std::max(dirty_hi_, hi);
  }
  ++mod_gen_;
  // Note: validity is tracked separately by the caller; a dirty range does
  // not imply the bytes before it are meaningful.
}

Buf* BufCache::Find(uint64_t file, uint32_t block) {
  // Model the search cost: scan the vnode's own chain (Reno) or the global
  // list (reference port) until the buffer is found or the list ends.
  size_t examined = 0;
  Buf* found = nullptr;
  if (options_.vnode_chained) {
    auto chain = vnode_chains_.find(file);
    if (chain != vnode_chains_.end()) {
      for (Buf* buf : chain->second) {
        ++examined;
        if (buf->block() == block) {
          found = buf;
          break;
        }
      }
    }
  } else {
    for (Buf& buf : lru_) {
      ++examined;
      if (buf.file() == file && buf.block() == block) {
        found = &buf;
        break;
      }
    }
  }
  last_scan_length_ = examined;
  stats_.bufs_examined += examined;

  // The authoritative lookup (the model above is cost accounting only).
  auto it = index_.find(Key{file, block});
  if (it == index_.end()) {
    CHECK(found == nullptr);
    ++stats_.misses;
    return nullptr;
  }
  CHECK(found == &*it->second);
  ++stats_.hits;
  Touch(&*it->second);
  return &*it->second;
}

StatusOr<Buf*> BufCache::Create(uint64_t file, uint32_t block) {
  const Key key{file, block};
  CHECK(!index_.contains(key)) << "Create on cached block";
  if (index_.size() >= options_.capacity_blocks) {
    // Evict the least recently used buffer that is neither dirty nor loaned.
    // A loaned buffer's clusters sit in a reply chain awaiting transmit;
    // recycling it for another block would hand the new block's bytes to the
    // old reply, so the loan pins it exactly like B_BUSY pinned a buf.
    auto victim = lru_.end();
    for (auto it = std::prev(lru_.end());; --it) {
      if (!it->dirty()) {
        if (it->loaned()) {
          ++stats_.loan_pinned_skips;
        } else {
          victim = it;
          break;
        }
      }
      if (it == lru_.begin()) {
        break;
      }
    }
    if (victim == lru_.end()) {
      return NoSpaceError("bufcache: all buffers dirty or loaned");
    }
    ++stats_.evictions;
    RemoveFromChain(&*victim);
    index_.erase(Key{victim->file(), victim->block()});
    lru_.erase(victim);
  }
  lru_.emplace_front(file, block, kBufBlockSize, this);
  Buf* buf = &lru_.front();
  buf->last_used_ = ++use_clock_;
  index_[key] = lru_.begin();
  vnode_chains_[file].push_back(buf);
  return buf;
}

void BufCache::Touch(Buf* buf) {
  auto it = index_.find(Key{buf->file(), buf->block()});
  CHECK(it != index_.end());
  lru_.splice(lru_.begin(), lru_, it->second);
  it->second = lru_.begin();
  buf->last_used_ = ++use_clock_;
}

void BufCache::Remove(uint64_t file, uint32_t block) {
  auto it = index_.find(Key{file, block});
  if (it == index_.end()) {
    return;
  }
  RemoveFromChain(&*it->second);
  lru_.erase(it->second);
  index_.erase(it);
}

size_t BufCache::InvalidateFile(uint64_t file) {
  auto chain = vnode_chains_.find(file);
  if (chain == vnode_chains_.end()) {
    return 0;
  }
  const size_t dropped = chain->second.size();
  for (Buf* buf : chain->second) {
    auto it = index_.find(Key{file, buf->block()});
    CHECK(it != index_.end());
    lru_.erase(it->second);
    index_.erase(it);
  }
  vnode_chains_.erase(chain);
  return dropped;
}

void BufCache::Clear() {
  lru_.clear();
  index_.clear();
  vnode_chains_.clear();
  last_scan_length_ = 0;
}

std::vector<Buf*> BufCache::DirtyBufs() {
  std::vector<Buf*> out;
  // Least recently used first: reverse iteration of the LRU list.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    if (it->dirty()) {
      out.push_back(&*it);
    }
  }
  return out;
}

Buf* BufCache::OldestDirty() {
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    if (it->dirty()) {
      return &*it;
    }
  }
  return nullptr;
}

std::vector<Buf*> BufCache::DirtyBufs(uint64_t file) {
  std::vector<Buf*> out;
  auto chain = vnode_chains_.find(file);
  if (chain == vnode_chains_.end()) {
    return out;
  }
  for (Buf* buf : chain->second) {
    if (buf->dirty()) {
      out.push_back(buf);
    }
  }
  // The chain is in creation order; the stamps give least recently used
  // first, the same order the LRU walk of DirtyBufs() yields.
  std::sort(out.begin(), out.end(),
            [](const Buf* a, const Buf* b) { return a->last_used_ < b->last_used_; });
  return out;
}

size_t BufCache::dirty_count() const {
  size_t n = 0;
  for (const Buf& buf : lru_) {
    if (buf.dirty()) {
      ++n;
    }
  }
  return n;
}

size_t BufCache::loaned_count() const {
  size_t n = 0;
  for (const Buf& buf : lru_) {
    if (buf.loaned()) {
      ++n;
    }
  }
  return n;
}

void BufCache::CollectClusterIds(std::unordered_set<const Cluster*>& out) const {
  for (const Buf& buf : lru_) {
    buf.CollectClusterIds(out);
  }
}

size_t BufCache::FileBufCount(uint64_t file) const {
  auto it = vnode_chains_.find(file);
  return it == vnode_chains_.end() ? 0 : it->second.size();
}

void BufCache::RemoveFromChain(Buf* buf) {
  auto chain = vnode_chains_.find(buf->file());
  if (chain == vnode_chains_.end()) {
    return;
  }
  chain->second.remove(buf);
  if (chain->second.empty()) {
    vnode_chains_.erase(chain);
  }
}

}  // namespace renonfs
