// Cooperative cancellation for the solve stack (DESIGN.md §13).
//
// A CancelToken is one atomic flag plus one deadline clock.  Whoever owns
// the solve arms it — an explicit cancel() from another thread, a deadline
// set from a per-request budget, or both — and passes it down unchanged
// (Plan::solve's SolveOptions::cancel, then the last argument of
// SolvePlan::run and of BatchUpdater::apply_all); the solve polls it at the
// natural transaction boundaries of the hierarchical update (node and
// batch boundaries; see core::SolvePlan).
// Polling is wait-free and costs one relaxed atomic load when no deadline
// is set; the deadline check adds one steady_clock read.
//
// The token itself never interrupts anything: a poll site that observes
// stop_requested() throws CancelledError, which propagates through the
// ordinary exception channels (TaskGroup joins every lane and rethrows on
// the caller), so cancellation is exactly as safe as any other solve
// failure — and the transactional batch update guarantees the state a
// cancelled run leaves behind is a mix of complete per-batch commits,
// never a torn one.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

#include "support/check.hpp"
#include "support/types.hpp"

namespace phmse::par {

/// Thrown by a cancellation poll site when its token fired.  Carries where
/// the solve stopped (the node's atom range and the batch ordinal, -1 when
/// unknown) and whether the deadline clock — rather than an explicit
/// cancel() — triggered it, so the engine can translate deadline expiry
/// into DeadlineError while passing explicit cancellation through.
class CancelledError : public Error {
 public:
  CancelledError(const std::string& what, bool deadline_expired,
                 Index atom_begin = -1, Index atom_end = -1, Index batch = -1)
      : Error(what),
        deadline_expired(deadline_expired),
        atom_begin(atom_begin),
        atom_end(atom_end),
        batch(batch) {}

  bool deadline_expired = false;
  Index atom_begin = -1;
  Index atom_end = -1;
  Index batch = -1;
};

/// One cancellation scope: an atomic flag plus a steady-clock deadline.
/// Thread-safe by construction — any thread may cancel() while executor
/// lanes poll — but arming (set_deadline*/reset) belongs to the owner
/// between solves, not to concurrent pollers.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation.  Sticky until reset(); safe from any thread.
  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }

  /// Arms the deadline clock at an absolute steady-clock instant.
  void set_deadline(std::chrono::steady_clock::time_point when) noexcept {
    deadline_ns_.store(when.time_since_epoch().count(),
                       std::memory_order_release);
  }

  /// Arms the deadline clock `seconds` from now (<= 0 fires immediately).
  /// A budget past the steady clock's range, +inf included, disarms it.
  void set_deadline_after(double seconds) noexcept;

  /// Disarms flag and deadline.  Owner-only, between solves.
  void reset() noexcept {
    cancelled_.store(false, std::memory_order_release);
    deadline_ns_.store(kNoDeadline, std::memory_order_release);
  }

  /// True when cancel() was called; never from the deadline clock alone.
  bool cancel_requested() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// True when the armed deadline has passed.
  bool expired() const noexcept {
    const std::int64_t ns = deadline_ns_.load(std::memory_order_acquire);
    return ns != kNoDeadline &&
           std::chrono::steady_clock::now().time_since_epoch().count() >= ns;
  }

  /// The poll predicate: explicit cancellation or deadline expiry.
  bool stop_requested() const noexcept {
    return cancel_requested() || expired();
  }

  /// Seconds until the armed deadline (negative once past); +infinity when
  /// no deadline is armed.
  double remaining_seconds() const noexcept;

 private:
  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::max();

  std::atomic<bool> cancelled_{false};
  std::atomic<std::int64_t> deadline_ns_{kNoDeadline};
};

/// Throws the CancelledError for a poll site that observed `token` firing,
/// naming the node (atom range) and batch it stopped at.  The message is
/// built only on the throw path, so polling itself stays allocation-free.
[[noreturn]] void throw_cancelled(const CancelToken& token, Index atom_begin,
                                  Index atom_end, Index batch);

}  // namespace phmse::par
