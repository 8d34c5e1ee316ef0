// Randomized deadline / cancellation / circuit-breaker stress for the solve
// service (DESIGN.md §13).  These suites run under both sanitizer presets
// in CI (the asan preset runs everything; the tsan preset's filter includes
// Deadline* and Breaker*): queued requests whose budget expires are shed
// before occupying a worker, in-flight expiry — stopped by the request's
// own token, not the watchdog — fails the future but leaves the cached
// plan reusable (the next solve is bitwise right), transient
// failures retry with backoff inside the budget, breakers walk
// closed -> open -> half-open -> closed, and a storm of deadline-bound
// submissions racing drain/shutdown settles every future with the
// accounting invariant submitted == completed + failed + expired +
// shutdown_failed intact.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "constraints/helix_gen.hpp"
#include "engine/engine.hpp"
#include "estimation/fault_injection.hpp"
#include "molecule/rna_helix.hpp"
#include "service/server.hpp"
#include "support/rng.hpp"

namespace phmse::service {
namespace {

struct Fixture {
  Index length;
  mol::HelixModel model;
  cons::ConstraintSet set;
  linalg::Vector initial;

  explicit Fixture(Index helix_length = 2)
      : length(helix_length), model(mol::build_helix(helix_length)) {
    set = cons::generate_helix_constraints(model);
    Rng rng(42);
    initial = model.topology.true_state();
    for (auto& v : initial) v += rng.gaussian(0.0, 0.3);
  }

  engine::Problem problem() const {
    return engine::Problem::custom(
        model.topology.size(), set,
        [model = model] { return core::build_helix_hierarchy(model); },
        "helix/" + std::to_string(length));
  }

  static engine::CompileOptions options() {
    engine::CompileOptions o;
    o.solve.max_cycles = 1;
    o.solve.prior_sigma = 0.5;
    return o;
  }

  std::vector<double> observations(std::uint64_t seed) const {
    Rng rng(seed);
    std::vector<double> values;
    values.reserve(static_cast<std::size_t>(set.size()));
    for (const cons::Constraint& c : set.all()) {
      values.push_back(c.observed + rng.gaussian(0.0, 0.01));
    }
    return values;
  }

  Request request(std::uint64_t seed) const {
    Request r;
    r.problem = problem();
    r.compile = options();
    r.observations = observations(seed);
    r.initial = initial;
    return r;
  }

  /// A problem whose compile always throws: a deterministic execute-side
  /// failure needing no armed injector site.  The empty recipe keeps it
  /// out of the plan cache, so every attempt re-fails.
  Request failing_request(double compile_sleep_seconds = 0.0) const {
    Request r;
    r.problem = engine::Problem::custom(
        model.topology.size(), set,
        [compile_sleep_seconds]() -> core::Hierarchy {
          if (compile_sleep_seconds > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(compile_sleep_seconds));
          }
          throw Error("synthetic compile failure");
        },
        /*recipe=*/"");
    r.initial = initial;
    return r;
  }
};

long settled_total(const ServerStats& s) {
  return s.completed + s.failed + s.expired + s.shutdown_failed;
}

TEST(DeadlineStress, QueuedExpiryIsShedWithoutOccupyingAWorker) {
  Fixture f;
  ServerOptions opts;
  opts.workers = 1;
  opts.watchdog_interval_seconds = 0.005;
  Server server(opts);

  // Head-of-line: one unbounded request holds the only worker...
  std::future<Response> head = server.submit("head", f.request(1));
  // ...while a burst with microscopic budgets waits behind it.  Their
  // deadlines expire in-queue; the watchdog (or dispatch) sheds them.
  std::vector<std::future<Response>> doomed;
  for (int i = 0; i < 6; ++i) {
    Request r = f.request(static_cast<std::uint64_t>(100 + i));
    r.deadline_seconds = 1e-4;
    doomed.push_back(server.submit("doomed", std::move(r)));
  }
  EXPECT_NO_THROW((void)head.get());
  for (auto& fut : doomed) {
    EXPECT_THROW((void)fut.get(), engine::DeadlineError);
  }
  server.drain();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.completed, 1);
  EXPECT_EQ(s.expired, 6);
  EXPECT_EQ(s.failed, 0);  // shed in queue, not failed in flight
  EXPECT_EQ(s.submitted, settled_total(s));
}

TEST(DeadlineStress, WatchdogShedsQueuedExpiryWhileEveryWorkerIsBusy) {
  Fixture f;
  ServerOptions opts;
  opts.workers = 1;
  Server server(opts);

  // The head holds the only worker for a second: its empty recipe keeps
  // it out of the plan cache, so the decomposition's sleep runs inside
  // the request.
  Request slow = f.request(1);
  slow.problem = engine::Problem::custom(
      f.model.topology.size(), f.set,
      [model = f.model] {
        std::this_thread::sleep_for(std::chrono::seconds(1));
        return core::build_helix_hierarchy(model);
      },
      /*recipe=*/"");
  std::future<Response> head = server.submit("head", std::move(slow));
  Request late = f.request(2);
  late.deadline_seconds = 0.01;
  std::future<Response> doomed = server.submit("late", std::move(late));

  // No worker dispatches before the head finishes, so only the watchdog
  // can settle the expired request this early.
  ASSERT_EQ(doomed.wait_for(std::chrono::milliseconds(500)),
            std::future_status::ready);
  EXPECT_EQ(head.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  EXPECT_THROW((void)doomed.get(), engine::DeadlineError);
  EXPECT_NO_THROW((void)head.get());
  server.drain();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.expired, 1);
  EXPECT_EQ(s.completed, 1);
  EXPECT_EQ(s.submitted, settled_total(s));
}

TEST(DeadlineStress, InFlightExpiryLeavesTheCachedPlanBitwiseReusable) {
  Fixture f;
  // Reference: what the post-cancel submission must return, computed on a
  // server that never saw a deadline.
  linalg::Vector want;
  {
    ServerOptions opts;
    opts.workers = 1;
    Server ref(opts);
    (void)ref.submit("t", f.request(1)).get();
    want = ref.submit("t", f.request(2)).get().x;
  }

  ServerOptions opts;
  opts.workers = 1;
  opts.breaker_failure_threshold = 0;  // isolate the deadline path
  // No watchdog tick lands inside the stall below: the request's own token
  // must stop the solve at the next poll, with nothing cancelling it.
  opts.watchdog_interval_seconds = 10.0;
  Server server(opts);
  (void)server.submit("t", f.request(1)).get();  // warm the cached plan

  // Deterministic mid-flight expiry: stall 80ms against a 20ms budget.
  fault::Injector::instance().clear();
  fault::Injector::instance().arm(
      {fault::Kind::kStall, -1, -1, -1, 0.08, /*max_fires=*/1});
  Request over = f.request(3);
  over.deadline_seconds = 0.02;
  EXPECT_THROW((void)server.submit("t", std::move(over)).get(),
               engine::DeadlineError);
  fault::Injector::instance().clear();
  {
    const ServerStats s = server.stats();
    EXPECT_EQ(s.failed, 1);
    EXPECT_EQ(s.expired, 0);  // it was running, not queued
  }

  // The leased plan went back to the cache after the abort; the next
  // submission reuses it and must be bitwise identical to the reference.
  const Response after = server.submit("t", f.request(2)).get();
  EXPECT_TRUE(after.x == want);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.submitted, settled_total(s));
}

TEST(BreakerStress, OpensAfterConsecutiveFailuresThenRecoversViaProbe) {
  Fixture f;
  ServerOptions opts;
  opts.workers = 1;
  opts.breaker_failure_threshold = 2;
  opts.breaker_cooldown_seconds = 0.05;
  Server server(opts);

  // Two consecutive execute-side failures trip the breaker.
  EXPECT_THROW((void)server.submit("bad", f.failing_request()).get(), Error);
  EXPECT_EQ(server.breaker_state("bad"), BreakerState::kClosed);
  EXPECT_THROW((void)server.submit("bad", f.failing_request()).get(), Error);
  EXPECT_EQ(server.breaker_state("bad"), BreakerState::kOpen);

  // Open: rejected outright, and the rejection is breaker-attributed.
  EXPECT_THROW((void)server.submit("bad", f.request(1)), CircuitOpenError);
  {
    const ServerStats s = server.stats();
    EXPECT_EQ(s.breaker_trips, 1);
    EXPECT_EQ(s.breaker_rejected, 1);
    EXPECT_EQ(s.breaker_open, 1u);
  }
  // Another tenant is unaffected: breakers are per tenant.
  EXPECT_EQ(server.breaker_state("good"), BreakerState::kClosed);
  EXPECT_NO_THROW((void)server.submit("good", f.request(7)).get());

  // Cooldown elapses: half-open, one probe admitted at a time.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(server.breaker_state("bad"), BreakerState::kHalfOpen);
  std::future<Response> probe =
      server.submit("bad", f.failing_request(/*compile_sleep_seconds=*/0.15));
  // While the probe is in flight a second submission is still rejected.
  EXPECT_THROW((void)server.submit("bad", f.request(2)), CircuitOpenError);
  EXPECT_THROW((void)probe.get(), Error);  // failed probe -> open again
  EXPECT_EQ(server.breaker_state("bad"), BreakerState::kOpen);
  EXPECT_EQ(server.stats().breaker_trips, 2);

  // Second cooldown, successful probe: the breaker closes and the tenant
  // is back to normal admission.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(server.breaker_state("bad"), BreakerState::kHalfOpen);
  EXPECT_NO_THROW((void)server.submit("bad", f.request(3)).get());
  EXPECT_EQ(server.breaker_state("bad"), BreakerState::kClosed);
  EXPECT_NO_THROW((void)server.submit("bad", f.request(4)).get());
  const ServerStats s = server.stats();
  EXPECT_EQ(s.breaker_open, 0u);
  EXPECT_EQ(s.submitted, settled_total(s));
}

TEST(BreakerStress, TransientFailuresRetryWithBackoffInsideTheBudget) {
  Fixture f;
  ServerOptions opts;
  opts.workers = 1;
  Server server(opts);

  // Fails twice, then compiles: the canonical transient fault.
  auto remaining_failures = std::make_shared<std::atomic<int>>(2);
  Request r;
  r.problem = engine::Problem::custom(
      f.model.topology.size(), f.set,
      [remaining_failures, model = f.model] {
        if (remaining_failures->fetch_sub(1) > 0) {
          throw Error("synthetic transient failure");
        }
        return core::build_helix_hierarchy(model);
      },
      /*recipe=*/"");  // uncacheable: each attempt exercises compile
  r.initial = f.initial;
  r.retry_budget = 4;
  r.retry_backoff_seconds = 0.002;
  const Response resp = server.submit("t", std::move(r)).get();
  EXPECT_EQ(resp.attempts, 3);  // 1 + 2 retries consumed
  const ServerStats s = server.stats();
  EXPECT_EQ(s.completed, 1);
  EXPECT_EQ(s.failed, 0);
  EXPECT_EQ(s.retried, 2);

  // A budget too small for the fault count surfaces the last failure.
  auto always = std::make_shared<std::atomic<int>>(1 << 20);
  Request r2;
  r2.problem = engine::Problem::custom(
      f.model.topology.size(), f.set,
      [always, model = f.model] {
        if (always->fetch_sub(1) > 0) {
          throw Error("synthetic transient failure");
        }
        return core::build_helix_hierarchy(model);
      },
      /*recipe=*/"");
  r2.initial = f.initial;
  r2.retry_budget = 2;
  r2.retry_backoff_seconds = 0.001;
  EXPECT_THROW((void)server.submit("t", std::move(r2)).get(), Error);
  EXPECT_EQ(server.stats().failed, 1);
  EXPECT_EQ(server.stats().retried, 4);  // 2 more retries before giving up
}

TEST(DeadlineStress, RandomizedStormRacingDrainAndShutdownSettlesEverything) {
  Fixture f;
  ServerOptions opts;
  opts.workers = 3;
  opts.watchdog_interval_seconds = 0.005;
  opts.breaker_failure_threshold = 0;  // isolate deadline/shutdown races
  Server server(opts);

  constexpr int kThreads = 3;
  constexpr int kPerThread = 10;
  std::atomic<long> ok{0};
  std::atomic<long> deadline{0};
  std::atomic<long> shut{0};
  std::atomic<long> rejected{0};
  std::atomic<long> other{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        Request r = f.request(static_cast<std::uint64_t>(t * 100 + i));
        const std::int64_t mode = rng.uniform_int(0, 3);
        if (mode == 1) r.deadline_seconds = 5e-4;  // usually dies queued
        if (mode == 2) r.deadline_seconds = 0.01;  // races the solve
        if (mode == 3) r.deadline_seconds = 30.0;  // always makes it
        std::string tenant = "t";
        tenant += std::to_string(rng.uniform_int(0, 2));
        try {
          std::future<Response> fut = server.submit(tenant, std::move(r));
          try {
            (void)fut.get();
            ++ok;
          } catch (const engine::DeadlineError&) {
            ++deadline;
          } catch (const ShutdownError&) {
            ++shut;
          } catch (...) {
            ++other;
          }
        } catch (const Error&) {
          ++rejected;  // admission/shutdown refusals settle at submit()
        }
        if (i % 4 == 3) std::this_thread::sleep_for(
            std::chrono::milliseconds(1));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  server.drain();  // mid-storm checkpoint: must not deadlock or drop work
  for (std::thread& th : threads) th.join();
  server.shutdown(/*drain_queued=*/false);

  const ServerStats s = server.stats();
  EXPECT_EQ(s.pending, 0u);
  EXPECT_EQ(s.submitted, settled_total(s));
  EXPECT_EQ(s.completed, ok.load());
  EXPECT_EQ(s.failed + s.expired, deadline.load());
  EXPECT_EQ(s.shutdown_failed, shut.load());
  EXPECT_EQ(s.rejected, rejected.load());
  EXPECT_EQ(other.load(), 0);
  // Every submission that entered the queue settled exactly once.
  EXPECT_EQ(s.submitted,
            ok.load() + deadline.load() + shut.load());
}

TEST(DeadlineStress, ShutdownWhileDeadlineBoundWorkIsQueuedFailsItCleanly) {
  Fixture f;
  ServerOptions opts;
  opts.workers = 1;
  opts.watchdog_interval_seconds = 0.005;
  Server server(opts);

  std::future<Response> head = server.submit("a", f.request(1));
  std::vector<std::future<Response>> queued;
  for (int i = 0; i < 4; ++i) {
    Request r = f.request(static_cast<std::uint64_t>(10 + i));
    r.deadline_seconds = (i % 2 == 0) ? 30.0 : 2e-4;
    queued.push_back(server.submit("b", std::move(r)));
  }
  server.shutdown(/*drain_queued=*/false);
  // The head either started before the shutdown (in-flight work completes)
  // or was still queued and failed with the distinct shutdown error; it
  // must settle either way.
  try {
    (void)head.get();
  } catch (const ShutdownError&) {
  }
  int settled = 0;
  for (auto& fut : queued) {
    try {
      (void)fut.get();
      ++settled;
    } catch (const ShutdownError&) {
      ++settled;
    } catch (const engine::DeadlineError&) {
      ++settled;  // the watchdog may have shed it before the shutdown
    }
  }
  EXPECT_EQ(settled, 4);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.pending, 0u);
  EXPECT_EQ(s.submitted, settled_total(s));
  // Submissions after shutdown are rejected, not queued.
  EXPECT_THROW((void)server.submit("c", f.request(99)), ShutdownError);
}

}  // namespace
}  // namespace phmse::service
