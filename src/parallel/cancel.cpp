#include "parallel/cancel.hpp"

#include <algorithm>
#include <ratio>
#include <string>
#include <type_traits>

namespace phmse::par {

// deadline_ns_ holds steady-clock ticks, read as nanoseconds below.
static_assert(std::is_same_v<std::chrono::steady_clock::period, std::nano>);

void CancelToken::set_deadline_after(double seconds) noexcept {
  const std::int64_t now =
      std::chrono::steady_clock::now().time_since_epoch().count();
  const double ns = std::max(seconds * 1e9, -static_cast<double>(now));
  // A budget past the clock's range (+inf included) or NaN arms nothing;
  // the strict compare keeps `now + ns` below kNoDeadline after rounding.
  deadline_ns_.store(ns < static_cast<double>(kNoDeadline - now)
                         ? now + static_cast<std::int64_t>(ns)
                         : kNoDeadline,
                     std::memory_order_release);
}

double CancelToken::remaining_seconds() const noexcept {
  const std::int64_t ns = deadline_ns_.load(std::memory_order_acquire);
  if (ns == kNoDeadline) return std::numeric_limits<double>::infinity();
  const std::int64_t now =
      std::chrono::steady_clock::now().time_since_epoch().count();
  return static_cast<double>(ns - now) * 1e-9;
}

void throw_cancelled(const CancelToken& token, Index atom_begin,
                     Index atom_end, Index batch) {
  // Deadline expiry and explicit cancellation can race; report the deadline
  // when it has passed — the engine maps that case to DeadlineError, and a
  // cancel() that lands on an over-deadline solve means the same thing.
  const bool deadline = token.expired();
  std::string what = deadline ? "solve deadline expired" : "solve cancelled";
  if (atom_begin >= 0 && atom_end >= 0) {
    what += " at node atoms [" + std::to_string(atom_begin) + ", " +
            std::to_string(atom_end) + ")";
  }
  if (batch >= 0) what += ", batch " + std::to_string(batch);
  throw CancelledError(what, deadline, atom_begin, atom_end, batch);
}

}  // namespace phmse::par
