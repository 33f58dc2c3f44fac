// VFS name-lookup cache, as in 4.3BSD Reno.
//
// Table 3 of the paper shows this cache halving the client's lookup RPC
// count versus Ultrix (872 vs 1782 over the Modified Andrew Benchmark) —
// the single largest difference between the two implementations. The
// 31-character name limit is faithful to the BSD implementation and matters
// for the Appendix's Nhfsstone caveat: the benchmark's long file names
// defeat caches with shorter limits, biasing against servers that cache.
#ifndef RENONFS_SRC_VFS_NAME_CACHE_H_
#define RENONFS_SRC_VFS_NAME_CACHE_H_

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

namespace renonfs {

struct NameCacheOptions {
  bool enabled = true;
  size_t capacity = 256;
};

struct NameCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t too_long = 0;  // names over the limit: never cached
  uint64_t evictions = 0;
};

// Maps (directory id, component name) -> target id with LRU replacement.
// Ids are opaque 64-bit values (inode numbers or file-handle hashes).
class NameCache {
 public:
  explicit NameCache(NameCacheOptions options = {}) : options_(options) {}
  NameCache(const NameCache&) = delete;
  NameCache& operator=(const NameCache&) = delete;

  std::optional<uint64_t> Lookup(uint64_t dir, const std::string& name);
  void Enter(uint64_t dir, const std::string& name, uint64_t target);
  void Invalidate(uint64_t dir, const std::string& name);
  // Drops every entry pointing at or naming within `id` (used when a vnode
  // is recycled or a directory's mtime changes).
  void InvalidateDir(uint64_t dir);
  void Purge();

  void set_enabled(bool enabled);
  bool enabled() const { return options_.enabled; }
  size_t size() const { return entries_.size(); }
  const NameCacheStats& stats() const { return stats_; }

 private:
  struct Key {
    uint64_t dir;
    std::string name;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>()(k.dir) ^ (std::hash<std::string>()(k.name) << 1);
    }
  };
  struct Entry {
    Key key;
    uint64_t target;
  };
  using LruList = std::list<Entry>;

  NameCacheOptions options_;
  NameCacheStats stats_;
  LruList lru_;  // front == most recent
  std::unordered_map<Key, LruList::iterator, KeyHash> entries_;
};

}  // namespace renonfs

#endif  // RENONFS_SRC_VFS_NAME_CACHE_H_
