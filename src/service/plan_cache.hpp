// Thread-safe LRU cache of compiled plans, keyed by structural fingerprint.
//
// A Plan's solves are single-flight (per-node state is mutated while a
// solve runs), so the cache does not hand the same Plan object to two
// concurrent solvers.  Instead every fingerprint maps to an entry holding a
// small pool of interchangeable plan *instances*: acquire() finds or
// creates the entry (the one comparison of the full encoding), checks an
// idle instance out (or compiles a fresh one on a miss / when every
// instance is in flight), and the returned PlanLease holds the entry and
// moves the instance back to it, without a second lookup, when it is
// destroyed.  Under concurrency an entry therefore grows to the observed
// parallelism and then stops compiling — each returned instance is warm
// (its workspaces were allocated by earlier solves), so a steady-state
// cache hit costs no compile and no allocation.
//
// Eviction is LRU over fingerprint entries, bounded by a total idle
// instance budget: idle instances drop coldest entry first, and an entry is
// forgotten once it has neither idle instances nor leases.  Counters (hits
// / misses / evictions / uncacheable) feed the Server stats and the service
// benchmark.
#pragma once

#include <cstddef>
#include <list>
#include <mutex>
#include <optional>
#include <vector>

#include "engine/engine.hpp"
#include "service/fingerprint.hpp"

namespace phmse::service {

class PlanLease;

/// Thread-safe LRU plan cache.  All methods may be called concurrently;
/// Engine::compile runs outside the cache lock, so a slow compile never
/// stalls hits on other fingerprints.
class PlanCache {
 public:
  struct Stats {
    long hits = 0;         ///< acquire() served by an idle cached instance
    long misses = 0;       ///< acquire() had to compile (incl. contention)
    long evictions = 0;    ///< idle instances dropped by the LRU bound
    long uncacheable = 0;  ///< acquire() for problems with no recipe tag
    std::size_t entries = 0;         ///< distinct fingerprints held
    std::size_t idle_instances = 0;  ///< plan instances ready to lease
  };

  /// `capacity` bounds the total number of *idle* plan instances retained
  /// across all fingerprints (checked-out leases are not counted).
  /// Capacity 0 disables retention: every acquire compiles.
  explicit PlanCache(std::size_t capacity);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Checks out a plan for `problem` under `options`, compiling one if the
  /// cache holds no idle instance for the fingerprint.  The leased plan
  /// retains whatever observed values its last user bound — callers rebind
  /// via Plan::set_observations before solving.
  PlanLease acquire(const engine::Problem& problem,
                    const engine::CompileOptions& options);

  Stats stats() const;

  /// Drops every idle instance (counted as evictions).  Entries with
  /// instances checked out stay, so their leases return to them.
  void clear();

 private:
  friend class PlanLease;

  /// One fingerprint: its idle instances and how many are checked out.
  /// An entry lives while it holds either, so a lease's iterator to it
  /// stays valid until the lease returns.
  struct Entry {
    Fingerprint fingerprint;
    std::vector<engine::Plan> idle;
    int leases = 0;
  };
  using EntryIt = std::list<Entry>::iterator;

  /// Gives a lease back to `entry`: its instance (when its compile did not
  /// throw) joins the idle ones and the LRU bound applies.
  void release_(EntryIt entry, std::optional<engine::Plan> plan);
  void evict_to_capacity_();  // caller holds mutex_

  mutable std::mutex mutex_;
  std::size_t capacity_ = 0;
  std::list<Entry> entries_;  // most recently used first
  std::size_t idle_instances_ = 0;
  long hits_ = 0;
  long misses_ = 0;
  long evictions_ = 0;
  long uncacheable_ = 0;
};

/// Exclusive use of one compiled plan instance.  Movable; the destructor
/// returns the instance to its cache entry (or drops it for uncacheable
/// problems).  A lease must not outlive its cache.
class PlanLease {
 public:
  PlanLease(PlanLease&& other) noexcept;
  PlanLease& operator=(PlanLease&& other) noexcept;
  PlanLease(const PlanLease&) = delete;
  PlanLease& operator=(const PlanLease&) = delete;
  ~PlanLease();

  engine::Plan& plan() { return *plan_; }
  /// True when the instance came out of the cache rather than a compile.
  bool cache_hit() const { return hit_; }

 private:
  friend class PlanCache;
  PlanLease(PlanCache* cache, PlanCache::EntryIt entry,
            std::optional<engine::Plan> plan, bool hit);

  PlanCache* cache_ = nullptr;  // null after move-from or for uncacheable
  PlanCache::EntryIt entry_{};
  std::optional<engine::Plan> plan_;  // empty while compiling, after a move
  bool hit_ = false;
};

}  // namespace phmse::service
