// Client-side file attribute cache.
//
// Attributes time out five seconds after being fetched from the server
// (Section 2), which bounds how stale a client's view of another client's
// changes can be. The NFS client compares the cached modify time against
// fresh server attributes to decide when to flush cached data.
#ifndef RENONFS_SRC_VFS_ATTR_CACHE_H_
#define RENONFS_SRC_VFS_ATTR_CACHE_H_

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "src/fs/local_fs.h"
#include "src/sim/time.h"

namespace renonfs {

struct AttrCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t expirations = 0;
};

class AttrCache {
 public:
  AttrCache() = default;
  AttrCache(const AttrCache&) = delete;
  AttrCache& operator=(const AttrCache&) = delete;

  // Returns the cached attributes if present and fresher than the TTL.
  std::optional<FileAttr> Get(uint64_t file, SimTime now);
  // Returns the cached attributes regardless of age. For callers holding a
  // lease on the file: the lease, not the TTL, bounds staleness [Gray89].
  std::optional<FileAttr> GetStale(uint64_t file) const {
    auto it = entries_.find(file);
    if (it == entries_.end()) {
      return std::nullopt;
    }
    return it->second.attr;
  }
  void Put(uint64_t file, const FileAttr& attr, SimTime now);
  void Invalidate(uint64_t file) { entries_.erase(file); }

  const AttrCacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    FileAttr attr;
    SimTime fetched_at;
  };

  AttrCacheStats stats_;
  std::unordered_map<uint64_t, Entry> entries_;
};

}  // namespace renonfs

#endif  // RENONFS_SRC_VFS_ATTR_CACHE_H_
