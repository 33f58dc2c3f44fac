#include "src/vfs/attr_cache.h"

namespace renonfs {
namespace {

// Cached attributes go stale five seconds after they were fetched.
constexpr SimTime kAttrTtl = Seconds(5);

}  // namespace

std::optional<FileAttr> AttrCache::Get(uint64_t file, SimTime now) {
  auto it = entries_.find(file);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  if (now - it->second.fetched_at > kAttrTtl) {
    ++stats_.expirations;
    ++stats_.misses;
    entries_.erase(it);
    return std::nullopt;
  }
  ++stats_.hits;
  return it->second.attr;
}

void AttrCache::Put(uint64_t file, const FileAttr& attr, SimTime now) {
  entries_[file] = Entry{attr, now};
}

}  // namespace renonfs
