#include "service/plan_cache.hpp"

#include <algorithm>
#include <utility>

namespace phmse::service {

PlanLease::PlanLease(PlanCache* cache, PlanCache::EntryIt entry,
                     std::optional<engine::Plan> plan, bool hit)
    : cache_(cache), entry_(entry), plan_(std::move(plan)), hit_(hit) {}

PlanLease::PlanLease(PlanLease&& other) noexcept
    : cache_(std::exchange(other.cache_, nullptr)),
      entry_(other.entry_),
      plan_(std::move(other.plan_)),
      hit_(other.hit_) {
  other.plan_.reset();
}

PlanLease& PlanLease::operator=(PlanLease&& other) noexcept {
  if (this != &other) {
    if (cache_ != nullptr) cache_->release_(entry_, std::move(plan_));
    cache_ = std::exchange(other.cache_, nullptr);
    entry_ = other.entry_;
    plan_ = std::move(other.plan_);
    other.plan_.reset();
    hit_ = other.hit_;
  }
  return *this;
}

PlanLease::~PlanLease() {
  if (cache_ != nullptr) cache_->release_(entry_, std::move(plan_));
}

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity) {}

PlanLease PlanCache::acquire(const engine::Problem& problem,
                             const engine::CompileOptions& options) {
  Fingerprint fp = fingerprint(problem, options);
  if (!fp.cacheable()) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++uncacheable_;
    }
    return PlanLease(nullptr, {}, Engine::compile(problem, options),
                     /*hit=*/false);
  }

  EntryIt entry;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    entry = std::find_if(entries_.begin(), entries_.end(),
                         [&](const Entry& e) { return e.fingerprint == fp; });
    if (entry == entries_.end()) {
      entry = entries_.insert(entries_.begin(), Entry{std::move(fp), {}, 0});
    } else {
      entries_.splice(entries_.begin(), entries_, entry);  // touch MRU
    }
    ++entry->leases;
    if (!entry->idle.empty()) {
      engine::Plan plan = std::move(entry->idle.back());
      entry->idle.pop_back();
      --idle_instances_;
      ++hits_;
      return PlanLease(this, entry, std::move(plan), /*hit=*/true);
    }
    ++misses_;  // every instance is in flight, or none exists yet
  }
  // Compile outside the lock: a miss on one fingerprint must not stall
  // concurrent hits on others.  Should the compile throw, the lease gives
  // back only its count.
  PlanLease lease(this, entry, std::nullopt, /*hit=*/false);
  lease.plan_.emplace(Engine::compile(problem, options));
  return lease;
}

void PlanCache::release_(EntryIt entry, std::optional<engine::Plan> plan) {
  const std::lock_guard<std::mutex> lock(mutex_);
  --entry->leases;
  if (plan.has_value()) {
    entries_.splice(entries_.begin(), entries_, entry);
    entry->idle.push_back(std::move(*plan));
    ++idle_instances_;
    evict_to_capacity_();
  } else if (entry->idle.empty() && entry->leases == 0) {
    entries_.erase(entry);
  }
}

void PlanCache::evict_to_capacity_() {
  for (auto it = entries_.end();
       idle_instances_ > capacity_ && it != entries_.begin();) {
    --it;
    while (!it->idle.empty() && idle_instances_ > capacity_) {
      it->idle.pop_back();
      --idle_instances_;
      ++evictions_;
    }
    if (it->idle.empty() && it->leases == 0) it = entries_.erase(it);
  }
}

PlanCache::Stats PlanCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.uncacheable = uncacheable_;
  s.entries = entries_.size();
  s.idle_instances = idle_instances_;
  return s;
}

void PlanCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    evictions_ += static_cast<long>(it->idle.size());
    it->idle.clear();
    it = it->leases == 0 ? entries_.erase(it) : std::next(it);
  }
  idle_instances_ = 0;
}

}  // namespace phmse::service
