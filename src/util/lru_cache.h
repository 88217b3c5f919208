// A small thread-safe LRU cache keyed on full key equality.
//
// Lookups hash first but always compare the complete key, so a hash
// collision can never return the wrong value — important for the relation
// and position-table caches, where a silently wrong tensor would corrupt
// training without failing any shape check.

#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

namespace stisan {

/// FNV-1a over a byte range; the helper the cache users combine key fields
/// with (hash the raw bytes of PODs/vectors).
inline uint64_t Fnv1aBytes(const void* data, size_t size,
                           uint64_t seed = 0xcbf29ce484222325ULL) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity) {}

  /// Returns a copy of the cached value and refreshes its recency.
  std::optional<Value> Get(const Key& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return std::nullopt;
    }
    entries_.splice(entries_.begin(), entries_, it->second);
    ++hits_;
    return entries_.front().second;
  }

  /// Inserts (or refreshes) key -> value, evicting the least recently used
  /// entry when over capacity.
  void Put(const Key& key, Value value) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      entries_.splice(entries_.begin(), entries_, it->second);
      return;
    }
    entries_.emplace_front(key, std::move(value));
    index_[key] = entries_.begin();
    if (entries_.size() > capacity_) {
      index_.erase(entries_.back().first);
      entries_.pop_back();
    }
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }
  uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
  }
  uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::list<std::pair<Key, Value>> entries_;  // front = most recent
  std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator,
                     Hash>
      index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace stisan
