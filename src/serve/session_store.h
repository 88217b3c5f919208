// Per-user session store for the serving runtime.
//
// A session is a user's append-only check-in history plus, optionally, the
// incremental cache state (embedding and relation rows, see
// core/incremental.h). Histories are cheap (two scalars per visit) and are
// kept for every user ever seen; the cache states are ~O(max_len * d +
// max_len^2 / 2) floats each, so only `max_resident` of them stay
// materialised, evicted LRU by user. An evicted session keeps its history
// and pays one cold cache rebuild when the user returns.
//
// Not thread-safe: the service touches the store only in its sequencing
// pass, on the worker, in op arrival order. That is what makes eviction
// order — and therefore the serve obs counters — deterministic for a given
// op order. The execution pass reads no session: each recorded score
// carries its own history copy and a reference to its cache state, which
// keeps an evicted state alive until the score has run.

#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/incremental.h"

namespace stisan::serve {

struct Session {
  int64_t user = 0;
  std::vector<int64_t> pois;
  std::vector<double> timestamps;
  // Resident cache state; null when cold, evicted, or the model has no
  // incremental engine. Shared with scores the service has recorded but not
  // yet run, so eviction only drops the session's reference.
  std::shared_ptr<core::IncrementalState> state;
  bool resident = false;
  std::list<int64_t>::iterator lru_it;  // valid only while resident
};

class SessionStore {
 public:
  explicit SessionStore(int64_t max_resident);

  /// Finds or creates the session (history only; does not make it
  /// resident).
  Session& GetOrCreate(int64_t user);

  /// Null when the user has never been seen.
  Session* Find(int64_t user);
  const Session* Find(int64_t user) const;

  /// Appends one visit to the user's history.
  void Append(int64_t user, int64_t poi, double timestamp);

  /// Marks the session resident (installing `state` as its cache slot if
  /// it has none), refreshes its LRU position, and evicts the
  /// least-recently-used other resident session when over the cap.
  void MarkResident(Session& session,
                    std::unique_ptr<core::IncrementalState> state);

  /// Drops the session's cache state (history kept). No-op for unknown
  /// users or non-resident sessions.
  void Evict(int64_t user);

  int64_t size() const { return static_cast<int64_t>(sessions_.size()); }
  int64_t resident_count() const {
    return static_cast<int64_t>(lru_.size());
  }
  int64_t max_resident() const { return max_resident_; }
  /// Total capacity evictions performed (explicit Evict calls excluded).
  int64_t evictions() const { return evictions_; }

 private:
  void DropState(Session& session);

  int64_t max_resident_;
  // Node-based map: Session references stay valid across inserts.
  std::unordered_map<int64_t, Session> sessions_;
  std::list<int64_t> lru_;  // front = most recently used resident user
  int64_t evictions_ = 0;
};

}  // namespace stisan::serve
