#include "service/plan_cache.hpp"

#include <utility>

namespace phmse::service {

PlanLease::PlanLease(PlanCache* cache, Fingerprint fingerprint,
                     engine::Plan plan, bool hit)
    : cache_(cache),
      fingerprint_(std::move(fingerprint)),
      plan_(std::move(plan)),
      hit_(hit) {}

PlanLease::PlanLease(PlanLease&& other) noexcept
    : cache_(std::exchange(other.cache_, nullptr)),
      fingerprint_(std::move(other.fingerprint_)),
      plan_(std::move(other.plan_)),
      hit_(other.hit_) {
  other.plan_.reset();
}

PlanLease& PlanLease::operator=(PlanLease&& other) noexcept {
  if (this != &other) {
    if (cache_ != nullptr && plan_.has_value()) {
      cache_->release_(fingerprint_, std::move(*plan_));
    }
    cache_ = std::exchange(other.cache_, nullptr);
    fingerprint_ = std::move(other.fingerprint_);
    plan_ = std::move(other.plan_);
    other.plan_.reset();
    hit_ = other.hit_;
  }
  return *this;
}

PlanLease::~PlanLease() {
  if (cache_ != nullptr && plan_.has_value()) {
    cache_->release_(fingerprint_, std::move(*plan_));
  }
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
    return PlanLease(nullptr, std::move(fp), Engine::compile(problem, options),
                     /*hit=*/false);
  }

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->fingerprint != fp) continue;
      entries_.splice(entries_.begin(), entries_, it);  // touch MRU
      if (!it->idle.empty()) {
        engine::Plan plan = std::move(it->idle.back());
        it->idle.pop_back();
        --idle_instances_;
        ++hits_;
        return PlanLease(this, std::move(fp), std::move(plan), /*hit=*/true);
      }
      break;  // every instance is in flight: compile another arena
    }
    ++misses_;
  }
  // Compile outside the lock: a miss on one fingerprint must not stall
  // concurrent hits on others.
  return PlanLease(this, std::move(fp), Engine::compile(problem, options),
                   /*hit=*/false);
}

void PlanCache::release_(const Fingerprint& fingerprint, engine::Plan plan) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->fingerprint == fingerprint) {
      entries_.splice(entries_.begin(), entries_, it);
      it->idle.push_back(std::move(plan));
      ++idle_instances_;
      evict_to_capacity_();
      return;
    }
  }
  Entry entry;
  entry.fingerprint = fingerprint;
  entry.idle.push_back(std::move(plan));
  entries_.push_front(std::move(entry));
  ++idle_instances_;
  evict_to_capacity_();
}

void PlanCache::evict_to_capacity_() {
  while (idle_instances_ > capacity_ && !entries_.empty()) {
    Entry& lru = entries_.back();
    if (lru.idle.empty()) {
      // All instances of the coldest entry are in flight; nothing idle to
      // drop there.  Leases re-create entries on release, so simply
      // forgetting the empty shell is safe.
      entries_.pop_back();
      continue;
    }
    lru.idle.pop_back();
    --idle_instances_;
    ++evictions_;
    if (lru.idle.empty()) entries_.pop_back();
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
  for (Entry& e : entries_) {
    evictions_ += static_cast<long>(e.idle.size());
  }
  entries_.clear();
  idle_instances_ = 0;
}

}  // namespace phmse::service
