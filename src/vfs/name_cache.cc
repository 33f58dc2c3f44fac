#include "src/vfs/name_cache.h"

namespace renonfs {
namespace {

constexpr size_t kNchNameLen = 31;  // NCHNAMLEN in 4.3BSD Reno

}  // namespace

std::optional<uint64_t> NameCache::Lookup(uint64_t dir, const std::string& name) {
  if (!options_.enabled) {
    return std::nullopt;
  }
  if (name.size() > kNchNameLen) {
    ++stats_.too_long;
    ++stats_.misses;
    return std::nullopt;
  }
  auto it = entries_.find(Key{dir, name});
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // move to front
  return it->second->target;
}

void NameCache::Enter(uint64_t dir, const std::string& name, uint64_t target) {
  if (!options_.enabled) {
    return;
  }
  if (name.size() > kNchNameLen) {
    ++stats_.too_long;
    return;
  }
  const Key key{dir, name};
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second->target = target;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (entries_.size() >= options_.capacity) {
    ++stats_.evictions;
    entries_.erase(lru_.back().key);
    lru_.pop_back();
  }
  lru_.push_front(Entry{key, target});
  entries_[key] = lru_.begin();
}

void NameCache::Invalidate(uint64_t dir, const std::string& name) {
  auto it = entries_.find(Key{dir, name});
  if (it != entries_.end()) {
    lru_.erase(it->second);
    entries_.erase(it);
  }
}

void NameCache::InvalidateDir(uint64_t dir) {
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.dir == dir || it->target == dir) {
      entries_.erase(it->key);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

void NameCache::Purge() {
  entries_.clear();
  lru_.clear();
}

void NameCache::set_enabled(bool enabled) {
  options_.enabled = enabled;
  if (!enabled) {
    Purge();
  }
}

}  // namespace renonfs
