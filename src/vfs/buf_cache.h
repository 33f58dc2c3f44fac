// Block buffer cache ("buf" layer).
//
// Used on the client to cache NFS file blocks and on the server to cache
// disk blocks. Three properties from the paper are modelled faithfully:
//
//  * Dirty-region tracking: each buf records the dirty byte range within the
//    block, so a client writing part of a block never needs to pre-read the
//    rest from the server (Section 5, "additional fields in the buf
//    structure for keeping track of the dirty region").
//
//  * Search cost: Find() reports how many buffers were examined. With
//    vnode-chained buffer lists (4.3BSD Reno) the scan covers only the
//    file's own buffers; with a single global list (the reference-port
//    model) it covers everything cached. The caller converts the scan
//    length into CPU cost — this asymmetry is the paper's explanation for
//    the residual Reno-vs-Ultrix server lookup gap in Graphs #8-9.
//
//  * Page loaning: block storage is a row of refcounted mbuf clusters, so
//    the server can "borrow" cache pages straight into a read-reply chain
//    (ShareInto) instead of copying — the residual copy Section 3 names as
//    the last bottleneck and leaves as future work. While any reply chain
//    still references a cluster the buffer counts as loaned(): it is pinned
//    against eviction, and an in-place write (CopyIn/ZeroRange) breaks the
//    loan by copy-on-write so the bytes already committed to the wire are
//    never mutated under the transmitter.
#ifndef RENONFS_SRC_VFS_BUF_CACHE_H_
#define RENONFS_SRC_VFS_BUF_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/mbuf/mbuf.h"
#include "src/util/status.h"
#include "src/util/statusor.h"

namespace renonfs {

// Every cache holds 8 KB blocks: NFS_MAXDATA-sized file blocks on the
// client, file-system blocks on the server.
inline constexpr size_t kBufBlockSize = 8192;

struct BufCacheOptions {
  size_t capacity_blocks = 64;
  bool vnode_chained = true;  // false: global linear search (reference port)
};

struct BufCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  // Create() passes over clean buffers whose clusters are still loaned to a
  // reply chain in flight; they are pinned exactly like dirty buffers.
  uint64_t loan_pinned_skips = 0;
  uint64_t loan_cow_breaks = 0;  // clusters copied because a write hit a loan
};

class Buf {
 public:
  // `owner` is an opaque id stamped on every cluster this buffer allocates
  // (the owning BufCache); the cluster ledger uses it to attribute leaks.
  Buf(uint64_t file, uint32_t block, size_t block_size, const void* owner = nullptr);

  uint64_t file() const { return file_; }
  uint32_t block() const { return block_; }
  size_t block_size() const { return block_size_; }

  // --- Data access. All offsets are relative to the block start; callers
  // must stay within [0, block_size). The storage is never exposed as a raw
  // pointer: a cluster may be shared with a reply chain, and every write
  // must go through the copy-on-write check.

  // Copies bytes into the block. Any cluster still loaned to a chain is
  // replaced by a private copy first (the loan break); returns the number of
  // clusters that had to be broken.
  size_t CopyIn(size_t off, const void* src, size_t len);

  // Fills a range with zeros, with the same copy-on-write rule as CopyIn.
  size_t ZeroRange(size_t off, size_t len);

  void CopyOut(size_t off, void* dst, size_t len) const;

  // Appends [off, off+len) to `chain` by sharing the clusters — the page
  // loan. No bytes move; the chain holds references until it is destroyed.
  // Returns the number of clusters loaned.
  size_t ShareInto(MbufChain* chain, size_t off, size_t len) const;

  // Appends a physical copy of [off, off+len) to `chain` (counted in
  // MbufStats::bytes_copied, like any chain Append). The client's write
  // push uses this: the paper's client never loaned cache pages.
  void AppendTo(MbufChain* chain, size_t off, size_t len) const;

  // True while any cluster is referenced by a chain outside this buffer.
  bool loaned() const;

  // Valid bytes from the start of the block (short tail block at EOF).
  size_t valid() const { return valid_; }
  void set_valid(size_t valid) { valid_ = valid; }

  bool dirty() const { return dirty_hi_ > dirty_lo_; }
  size_t dirty_lo() const { return dirty_lo_; }
  size_t dirty_hi() const { return dirty_hi_; }

  // Extends the dirty region to cover [lo, hi); [lo, hi) must overlap or
  // abut the existing region. Does not change valid().
  void MarkDirty(size_t lo, size_t hi);
  void MarkClean() {
    dirty_lo_ = 0;
    dirty_hi_ = 0;
  }

  // Incremented by every MarkDirty. A writer pushing this buffer snapshots
  // the generation and only cleans the buffer if it is unchanged when the
  // write RPC completes — otherwise a write that landed mid-push would be
  // silently dropped.
  uint64_t mod_gen() const { return mod_gen_; }

  // Adds the identities of this buffer's clusters to `out` (quiesce audit).
  void CollectClusterIds(std::unordered_set<const Cluster*>& out) const;

 private:
  friend class BufCache;

  // Makes cluster `ci` private (copy-on-write). Returns true if a loaned
  // cluster had to be copied.
  bool EnsureWritable(size_t ci);

  uint64_t file_;
  uint32_t block_;
  size_t block_size_;
  const void* owner_;
  std::vector<std::shared_ptr<Cluster>> clusters_;
  size_t valid_ = 0;
  size_t dirty_lo_ = 0;
  size_t dirty_hi_ = 0;
  uint64_t mod_gen_ = 0;
  // Recency stamp from the owning cache's clock, set by Create and Touch:
  // a higher stamp is more recently used, so the stamps order any subset of
  // buffers exactly as the LRU list does.
  uint64_t last_used_ = 0;
};

class BufCache {
 public:
  explicit BufCache(BufCacheOptions options = {}) : options_(options) {}
  BufCache(const BufCache&) = delete;
  BufCache& operator=(const BufCache&) = delete;

  const BufCacheOptions& options() const { return options_; }

  // Looks up (file, block). Counts hit/miss and records the number of
  // buffers examined (see last_scan_length).
  Buf* Find(uint64_t file, uint32_t block);

  // Buffers examined by the most recent Find (including misses, which scan
  // the whole relevant list).
  size_t last_scan_length() const { return last_scan_length_; }

  // Allocates a buffer for (file, block), evicting the least recently used
  // clean, unloaned buffer if at capacity. Fails with kNoSpace when every
  // buffer is dirty or loaned — the caller must flush (the client pushes
  // delayed writes) or wait for replies in flight to drain.
  StatusOr<Buf*> Create(uint64_t file, uint32_t block);

  // Moves the buffer to the most-recently-used position.
  void Touch(Buf* buf);

  void Remove(uint64_t file, uint32_t block);
  // Drops all blocks of `file` (cache consistency flush). Dirty data is
  // discarded — callers push dirty blocks first unless discarding is the
  // point (e.g. file removal). Returns the number of blocks dropped.
  size_t InvalidateFile(uint64_t file);

  // Drops everything, dirty or clean — the memory of a crashing machine.
  // Stats survive (they belong to the observer, not the kernel). Loans are
  // safe to drop: chains already holding cluster references keep them alive
  // (the wire has its own copy of the page, exactly like real memory whose
  // mbufs outlive the buf header pointing at it).
  void Clear();

  // Dirty buffers, least recently used first; optionally for one file only.
  // The whole-cache form walks the LRU list; the per-file form walks only
  // the file's vnode chain and orders what it finds by recency stamp.
  std::vector<Buf*> DirtyBufs();
  std::vector<Buf*> DirtyBufs(uint64_t file);
  // The least recently used dirty buffer (DirtyBufs().front()), or nullptr
  // when nothing is dirty. Walks the LRU list from its tail and stops at the
  // first dirty buffer.
  Buf* OldestDirty();

  size_t size() const { return index_.size(); }
  size_t dirty_count() const;
  size_t loaned_count() const;
  // Identities of every cluster currently rooted in a cached buffer; the
  // quiesce audit diffs this against the ledger's per-owner live set.
  void CollectClusterIds(std::unordered_set<const Cluster*>& out) const;
  size_t FileBufCount(uint64_t file) const;
  const BufCacheStats& stats() const { return stats_; }
  void RecordLoanCowBreaks(size_t n) { stats_.loan_cow_breaks += n; }

 private:
  struct Key {
    uint64_t file;
    uint32_t block;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>()(k.file * 1000003 + k.block);
    }
  };
  using LruList = std::list<Buf>;

  BufCacheOptions options_;
  BufCacheStats stats_;
  size_t last_scan_length_ = 0;
  uint64_t use_clock_ = 0;  // source of Buf recency stamps
  LruList lru_;  // front == most recently used
  std::unordered_map<Key, LruList::iterator, KeyHash> index_;
  // Per-vnode buffer chains (Reno), in creation order. Maintained in both
  // modes: the per-file walks (DirtyBufs(file), InvalidateFile,
  // FileBufCount) always use them, the scan-cost model only when
  // vnode_chained is set. Find's scan cost is a buffer's position here, so
  // nothing may reorder a chain.
  std::unordered_map<uint64_t, std::list<Buf*>> vnode_chains_;

  void RemoveFromChain(Buf* buf);
};

}  // namespace renonfs

#endif  // RENONFS_SRC_VFS_BUF_CACHE_H_
