// The multi-tenant solve service (DESIGN.md §10): structural fingerprints,
// the LRU plan cache, the Server submission queue, and the hardened Engine
// edge cases the service leans on (set_observations validation, the
// single-flight solve guard).
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "constraints/helix_gen.hpp"
#include "core/assign.hpp"
#include "engine/engine.hpp"
#include "linalg/backend.hpp"
#include "molecule/rna_helix.hpp"
#include "parallel/thread_pool.hpp"
#include "service/fingerprint.hpp"
#include "service/plan_cache.hpp"
#include "service/server.hpp"
#include "simarch/machine.hpp"
#include "support/rng.hpp"

namespace phmse::service {
namespace {

struct Fixture {
  mol::HelixModel model = mol::build_helix(2);
  cons::ConstraintSet set = cons::generate_helix_constraints(model);
  linalg::Vector initial;

  Fixture() {
    Rng rng(42);
    initial = model.topology.true_state();
    for (auto& v : initial) v += rng.gaussian(0.0, 0.3);
  }

  engine::Problem problem(std::string recipe = "helix/2") const {
    return engine::Problem::custom(
        model.topology.size(), set,
        [model = model] { return core::build_helix_hierarchy(model); },
        std::move(recipe));
  }

  static engine::CompileOptions options(int cycles = 2) {
    engine::CompileOptions o;
    o.solve.max_cycles = cycles;
    o.solve.prior_sigma = 0.5;
    return o;
  }

  /// Observed values of the problem's constraints, perturbed by `seed`.
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

  /// Reference solve: fresh compile, rebind, serial solve.
  linalg::Vector reference(const std::vector<double>& values) const {
    engine::Plan plan = Engine::compile(problem(), options());
    plan.set_observations(values);
    return plan.solve(initial).posterior().x;
  }
};

// ---------------------------------------------------------------------------
// Fingerprint: structurally identical problems (same topology, constraint
// structure, recipe — different observed values) must hash equal; any
// structural perturbation must miss.

TEST(Fingerprint, ObservedValuesDoNotChangeTheFingerprint) {
  Fixture f;
  const Fingerprint a = fingerprint(f.problem(), Fixture::options());

  engine::Problem other = f.problem();
  // Same structure, completely different measurement values.
  Rng rng(7);
  for (Index i = 0; i < other.constraints.size(); ++i) {
    other.constraints.set_observed(i, rng.gaussian(5.0, 2.0));
  }
  const Fingerprint b = fingerprint(other, Fixture::options());
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(a.cacheable());
}

TEST(Fingerprint, StructuralPerturbationsMiss) {
  Fixture f;
  const engine::CompileOptions opts = Fixture::options();
  const Fingerprint base = fingerprint(f.problem(), opts);

  {  // one extra constraint
    engine::Problem p = f.problem();
    cons::Constraint extra;
    extra.kind = cons::Kind::kDistance;
    extra.atoms = {0, 1, 0, 0};
    extra.observed = 1.5;
    extra.variance = 0.01;
    p.constraints.add(extra);
    EXPECT_FALSE(fingerprint(p, opts) == base) << "extra constraint";
  }
  {  // different recipe tag
    EXPECT_FALSE(fingerprint(f.problem("helix/other"), opts) == base);
  }
  {  // permuted constraint order
    engine::Problem p = f.problem();
    cons::ConstraintSet permuted;
    const auto& all = p.constraints.all();
    for (std::size_t i = all.size(); i-- > 0;) permuted.add(all[i]);
    p.constraints = permuted;
    EXPECT_FALSE(fingerprint(p, opts) == base) << "permuted order";
  }
  {  // different variance on one constraint
    engine::Problem p = f.problem();
    cons::ConstraintSet tweaked;
    for (std::size_t i = 0; i < p.constraints.all().size(); ++i) {
      cons::Constraint c = p.constraints.all()[i];
      if (i == 3) c.variance *= 2.0;
      tweaked.add(c);
    }
    p.constraints = tweaked;
    EXPECT_FALSE(fingerprint(p, opts) == base) << "variance";
  }
  {  // different solve options
    engine::CompileOptions o = opts;
    o.solve.batch_size = 8;
    EXPECT_FALSE(fingerprint(f.problem(), o) == base) << "batch size";
    o = opts;
    o.solve.policy = est::SolvePolicy::gate_outliers();
    EXPECT_FALSE(fingerprint(f.problem(), o) == base) << "policy";
  }
  {  // different atom count
    engine::Problem p = f.problem();
    p.num_atoms += 1;
    EXPECT_FALSE(fingerprint(p, opts) == base) << "atom count";
  }
  {  // different backend; "" and the default backend's own name agree
    engine::CompileOptions o = opts;
    for (const linalg::Backend* b : linalg::all_backends()) {
      o.solve.backend = b->name;
      EXPECT_EQ(fingerprint(f.problem(), o) == base,
                b == &linalg::default_backend())
          << "backend " << b->name;
    }
    o.solve.backend = "tpu";  // fails here as compile would
    EXPECT_THROW(fingerprint(f.problem(), o), Error);
  }
}

TEST(Fingerprint, EncodingIsReservedToItsSize) {
  // The constraints are appended into a reserve that fits the encoding
  // exactly: no regrowth while they are written, and no slack kept.
  Fixture f;
  const Fingerprint fp = fingerprint(f.problem(), Fixture::options());
  EXPECT_EQ(fp.words.capacity(), fp.words.size());
}

TEST(Fingerprint, EmptyRecipeIsUncacheable) {
  Fixture f;
  const Fingerprint fp = fingerprint(f.problem(""), Fixture::options());
  EXPECT_FALSE(fp.cacheable());
}

// ---------------------------------------------------------------------------
// PlanCache: LRU, counters, per-instance leasing.

TEST(PlanCache, MissThenHit) {
  Fixture f;
  PlanCache cache(4);
  {
    PlanLease lease = cache.acquire(f.problem(), Fixture::options());
    EXPECT_FALSE(lease.cache_hit());
    lease.plan().solve(f.initial);
  }
  {
    PlanLease lease = cache.acquire(f.problem(), Fixture::options());
    EXPECT_TRUE(lease.cache_hit());
  }
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.evictions, 0);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.idle_instances, 1u);
}

TEST(PlanCache, ConcurrentCheckoutCompilesASecondInstance) {
  Fixture f;
  PlanCache cache(4);
  {
    PlanLease first = cache.acquire(f.problem(), Fixture::options());
    // First instance is checked out: a second acquire for the same
    // fingerprint must compile its own arena, not share the leased plan.
    PlanLease second = cache.acquire(f.problem(), Fixture::options());
    EXPECT_FALSE(second.cache_hit());
  }
  EXPECT_EQ(cache.stats().idle_instances, 2u);
  // Both instances returned: two follow-up acquires both hit.
  PlanLease a = cache.acquire(f.problem(), Fixture::options());
  PlanLease b = cache.acquire(f.problem(), Fixture::options());
  EXPECT_TRUE(a.cache_hit());
  EXPECT_TRUE(b.cache_hit());
}

TEST(PlanCache, LruEvictsTheColdestFingerprint) {
  Fixture f;
  PlanCache cache(1);
  { PlanLease l = cache.acquire(f.problem("helix/a"), Fixture::options()); }
  { PlanLease l = cache.acquire(f.problem("helix/b"), Fixture::options()); }
  EXPECT_EQ(cache.stats().evictions, 1);
  // "helix/b" is the survivor; "helix/a" was evicted.
  {
    PlanLease l = cache.acquire(f.problem("helix/b"), Fixture::options());
    EXPECT_TRUE(l.cache_hit());
  }
  {
    PlanLease l = cache.acquire(f.problem("helix/a"), Fixture::options());
    EXPECT_FALSE(l.cache_hit());
  }
}

TEST(PlanCache, CapacityZeroNeverRetains) {
  Fixture f;
  PlanCache cache(0);
  { PlanLease l = cache.acquire(f.problem(), Fixture::options()); }
  { PlanLease l = cache.acquire(f.problem(), Fixture::options()); }
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.evictions, 2);
  EXPECT_EQ(s.idle_instances, 0u);
}

TEST(PlanCache, UncacheableProblemsBypassTheCache) {
  Fixture f;
  PlanCache cache(4);
  { PlanLease l = cache.acquire(f.problem(""), Fixture::options()); }
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.uncacheable, 1);
  EXPECT_EQ(s.entries, 0u);
}

TEST(PlanCache, FailedCompileLeavesNoEntry) {
  Fixture f;
  PlanCache cache(4);
  // f.problem()'s fingerprint (same recipe and structure), but a
  // decomposition that throws.
  const engine::Problem broken = engine::Problem::custom(
      f.model.topology.size(), f.set,
      []() -> core::Hierarchy { throw Error("synthetic compile failure"); },
      "helix/2");
  EXPECT_THROW((void)cache.acquire(broken, Fixture::options()), Error);
  PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.idle_instances, 0u);
  // Beside a live lease, a failed compile gives back only its own count:
  // the leased instance still returns to the entry and serves a hit.
  {
    PlanLease held = cache.acquire(f.problem(), Fixture::options());
    EXPECT_THROW((void)cache.acquire(broken, Fixture::options()), Error);
  }
  s = cache.stats();
  EXPECT_EQ(s.misses, 3);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.idle_instances, 1u);
  PlanLease again = cache.acquire(f.problem(), Fixture::options());
  EXPECT_TRUE(again.cache_hit());
}

TEST(PlanCache, LeasedEntryOutlivesEviction) {
  Fixture f;
  PlanCache cache(1);
  {
    PlanLease held = cache.acquire(f.problem("helix/a"), Fixture::options());
    // Other fingerprints churn through the one idle slot, and clear()
    // drops every idle instance, while "helix/a" is checked out.
    { PlanLease l = cache.acquire(f.problem("helix/b"), Fixture::options()); }
    { PlanLease l = cache.acquire(f.problem("helix/c"), Fixture::options()); }
    EXPECT_EQ(cache.stats().evictions, 1);
    cache.clear();
    EXPECT_EQ(cache.stats().idle_instances, 0u);
  }
  // The lease returned its instance to "helix/a", the one entry left.
  PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 2);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.idle_instances, 1u);
  PlanLease again = cache.acquire(f.problem("helix/a"), Fixture::options());
  EXPECT_TRUE(again.cache_hit());
  s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 3);
}

// ---------------------------------------------------------------------------
// Acceptance: cached-plan solves are bitwise identical to freshly-compiled
// solves on serial, threaded, and simulated executors.

TEST(PlanCache, CachedSolvesAreBitwiseFreshSolves) {
  Fixture f;
  const std::vector<double> values = f.observations(99);
  PlanCache cache(4);

  // Warm the cache with a different observation vector so the cached
  // instance carries stale observed values the hit must overwrite.
  {
    PlanLease l = cache.acquire(f.problem(), Fixture::options());
    l.plan().set_observations(f.observations(1));
    l.plan().solve(f.initial);
  }

  // Fresh references.
  engine::Plan fresh = Engine::compile(f.problem(), Fixture::options());
  fresh.set_observations(values);
  const linalg::Vector serial_ref = fresh.solve(f.initial).posterior().x;

  engine::Plan fresh_threaded = Engine::compile(f.problem(), Fixture::options());
  fresh_threaded.set_observations(values);
  par::ThreadPool pool(4);
  const linalg::Vector threaded_ref =
      fresh_threaded.solve(pool, f.initial).posterior().x;

  engine::Plan fresh_sim = Engine::compile(f.problem(), Fixture::options());
  fresh_sim.set_observations(values);
  simarch::SimMachine machine(simarch::generic(4));
  const linalg::Vector sim_ref =
      fresh_sim.solve(machine, f.initial).posterior().x;

  const auto expect_bitwise = [](const linalg::Vector& got,
                                 const linalg::Vector& want,
                                 const char* what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << what << " coord " << i;
    }
  };

  {
    PlanLease l = cache.acquire(f.problem(), Fixture::options());
    ASSERT_TRUE(l.cache_hit());
    l.plan().set_observations(values);
    expect_bitwise(l.plan().solve(f.initial).posterior().x, serial_ref,
                   "serial");
    expect_bitwise(l.plan().solve(pool, f.initial).posterior().x,
                   threaded_ref, "threaded");
    simarch::SimMachine machine2(simarch::generic(4));
    expect_bitwise(l.plan().solve(machine2, f.initial).posterior().x, sim_ref,
                   "sim");
  }
  // All three executors agree with each other, too.
  expect_bitwise(threaded_ref, serial_ref, "threaded vs serial");
  expect_bitwise(sim_ref, serial_ref, "sim vs serial");
}

// ---------------------------------------------------------------------------
// Engine hardening: set_observations must fail loudly, never misbind.

TEST(ServiceEngine, SetObservationsRejectsWrongCount) {
  Fixture f;
  engine::Plan plan = Engine::compile(f.problem(), Fixture::options());
  std::vector<double> values = f.observations(1);
  values.pop_back();  // e.g. a loader dropped a malformed constraint line
  try {
    plan.set_observations(values);
    FAIL() << "expected phmse::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("one value per"), std::string::npos)
        << e.what();
  }
  values.push_back(0.0);
  values.push_back(0.0);
  EXPECT_THROW(plan.set_observations(values), Error);
}

TEST(ServiceEngine, SetObservationsRejectsStaleSlots) {
  Fixture f;
  engine::Plan plan = Engine::compile(f.problem(), Fixture::options());
  // Mutate the hierarchy's constraint lists behind the plan's back: the
  // compiled slots now point into emptied lists.  This used to be an
  // assert that compiles out in release builds — i.e. an out-of-bounds
  // write.
  core::clear_constraints(plan.hierarchy());
  EXPECT_THROW(plan.set_observations(f.observations(1)), Error);
}

TEST(ServiceEngine, NumObservationSlotsMatchesTheProblem) {
  Fixture f;
  engine::Plan plan = Engine::compile(f.problem(), Fixture::options());
  EXPECT_EQ(plan.num_observation_slots(),
            static_cast<std::size_t>(f.set.size()));
}

// ---------------------------------------------------------------------------
// Server: functional behavior.

TEST(Server, ServesTenantsBitwiseIdenticalToDirectSolves) {
  Fixture f;
  ServerOptions opts;
  opts.workers = 2;
  opts.plan_cache_capacity = 4;
  Server server(opts);

  std::vector<std::future<Response>> futures;
  std::vector<std::vector<double>> values;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    values.push_back(f.observations(seed));
    futures.push_back(
        server.submit(seed % 2 == 0 ? "tenant-even" : "tenant-odd",
                      f.request(seed)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response r = futures[i].get();
    const linalg::Vector want = f.reference(values[i]);
    ASSERT_EQ(r.x.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      ASSERT_EQ(r.x[j], want[j]) << "request " << i << " coord " << j;
    }
    EXPECT_TRUE(r.report.clean());
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.submitted, 6);
  EXPECT_EQ(s.completed, 6);
  EXPECT_EQ(s.failed, 0);
  // Six same-fingerprint requests over a warm cache: at most the first two
  // (one per worker) can miss.
  EXPECT_GE(s.cache.hits, 4);
  EXPECT_LE(s.cache.misses, 2);
}

TEST(Server, EachBackendIsServedByItsOwnPlan) {
  // The backend is part of a plan's identity: a "ref" request on the
  // structure a "simd" request compiled must not be served the simd plan.
  Fixture f;
  Server server(ServerOptions{.workers = 1});
  auto solve_on = [&](const char* backend, std::uint64_t seed) {
    Request req = f.request(seed);
    req.compile.solve.backend = backend;
    return server.submit("t", std::move(req)).get();
  };
  const Response simd = solve_on("simd", 1);
  EXPECT_EQ(simd.report.backend, "simd");
  const Response ref = solve_on("ref", 2);
  EXPECT_EQ(ref.report.backend, "ref");
  EXPECT_FALSE(ref.cache_hit);
  const Response again = solve_on("simd", 3);
  EXPECT_EQ(again.report.backend, "simd");
  EXPECT_TRUE(again.cache_hit);
}

TEST(Server, ObservationsDefaultToTheProblemsValues) {
  Fixture f;
  Server server(ServerOptions{.workers = 1});
  Request req = f.request(5);
  const std::vector<double> values = req.observations;
  req.observations.clear();  // values travel inside problem.constraints
  engine::Problem p = f.problem();
  for (Index i = 0; i < p.constraints.size(); ++i) {
    p.constraints.set_observed(i, values[static_cast<std::size_t>(i)]);
  }
  req.problem = std::move(p);
  const Response r = server.submit("t", std::move(req)).get();
  const linalg::Vector want = f.reference(values);
  for (std::size_t j = 0; j < want.size(); ++j) {
    ASSERT_EQ(r.x[j], want[j]) << "coord " << j;
  }
}

TEST(Server, ValidatesRequestsSynchronously) {
  Fixture f;
  Server server(ServerOptions{.workers = 1});
  {
    Request req = f.request(1);
    req.observations.pop_back();
    EXPECT_THROW(server.submit("t", std::move(req)), Error);
  }
  {
    Request req = f.request(1);
    req.initial.pop_back();
    EXPECT_THROW(server.submit("t", std::move(req)), Error);
  }
  {
    Request req = f.request(1);
    req.problem.decompose = nullptr;
    EXPECT_THROW(server.submit("t", std::move(req)), Error);
  }
  EXPECT_EQ(server.stats().submitted, 0);
}

TEST(Server, AdmissionControlRejectsWhenTheQueueIsFull) {
  Fixture f;
  ServerOptions opts;
  opts.workers = 1;
  opts.max_pending = 4;
  opts.max_pending_per_tenant = 4;
  Server server(opts);

  // One worker, rapid submissions: the queue must hit the bound long
  // before the worker drains it.
  int rejected = 0;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 50; ++i) {
    try {
      futures.push_back(server.submit("t", f.request(1)));
    } catch (const AdmissionError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  for (auto& fut : futures) fut.get();  // everything admitted completes
  const ServerStats s = server.stats();
  EXPECT_EQ(s.rejected, rejected);
  EXPECT_EQ(s.completed, static_cast<long>(futures.size()));
}

TEST(Server, PerTenantBoundLeavesOtherTenantsAdmissible) {
  Fixture f;
  ServerOptions opts;
  opts.workers = 1;
  opts.max_pending = 64;
  opts.max_pending_per_tenant = 2;
  Server server(opts);

  std::vector<std::future<Response>> futures;
  bool greedy_rejected = false;
  for (int i = 0; i < 20; ++i) {
    try {
      futures.push_back(server.submit("greedy", f.request(1)));
    } catch (const AdmissionError&) {
      greedy_rejected = true;
      break;
    }
  }
  ASSERT_TRUE(greedy_rejected);
  // The per-tenant bound tripped, but another tenant still gets in.
  futures.push_back(server.submit("modest", f.request(2)));
  for (auto& fut : futures) fut.get();
}

TEST(Server, DrainCompletesEverythingAndKeepsAccepting) {
  Fixture f;
  Server server(ServerOptions{.workers = 2});
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) {
    const char* tenants[] = {"t0", "t1", "t2"};
    futures.push_back(server.submit(tenants[i % 3],
                                    f.request(static_cast<std::uint64_t>(i))));
  }
  server.drain();
  EXPECT_EQ(server.stats().pending, 0u);
  futures.push_back(server.submit("t0", f.request(9)));  // still accepting
  for (auto& fut : futures) fut.get();
}

TEST(Server, WorkersSolveConcurrently) {
  Fixture f;
  Server server(ServerOptions{.workers = 2});
  // Uncacheable (empty recipe), so each decomposition's sleep runs inside
  // its request: one worker alone would need over 800 ms for the pair.
  std::vector<Request> slow;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    Request r = f.request(seed);
    r.problem = engine::Problem::custom(
        f.model.topology.size(), f.set,
        [model = f.model] {
          std::this_thread::sleep_for(std::chrono::milliseconds(400));
          return core::build_helix_hierarchy(model);
        },
        /*recipe=*/"");
    slow.push_back(std::move(r));
  }
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<Response>> futures;
  for (Request& r : slow) futures.push_back(server.submit("t", std::move(r)));
  for (auto& fut : futures) {
    EXPECT_EQ(fut.wait_until(start + std::chrono::milliseconds(700)),
              std::future_status::ready);
  }
  for (auto& fut : futures) EXPECT_NO_THROW((void)fut.get());
  EXPECT_EQ(server.stats().completed, 2);
}

// ---------------------------------------------------------------------------
// Server: shutdown semantics — queued-but-unstarted solves are completed
// (drain) or failed with the distinct ShutdownError (abort), never
// abandoned.

TEST(Server, ShutdownDrainCompletesQueuedSolves) {
  Fixture f;
  Server server(ServerOptions{.workers = 1});
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(server.submit("t", f.request(1)));
  }
  server.shutdown(/*drain_queued=*/true);
  for (auto& fut : futures) EXPECT_NO_THROW(fut.get());
  EXPECT_EQ(server.stats().completed, 6);
  EXPECT_THROW(server.submit("t", f.request(1)), ShutdownError);
}

TEST(Server, ShutdownAbortFailsQueuedSolvesWithShutdownError) {
  Fixture f;
  Server server(ServerOptions{.workers = 1, .max_pending = 64,
                              .max_pending_per_tenant = 64});
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(server.submit("t", f.request(1)));
  }
  server.shutdown(/*drain_queued=*/false);
  int completed = 0;
  int aborted = 0;
  for (auto& fut : futures) {
    try {
      fut.get();
      ++completed;
    } catch (const ShutdownError&) {
      ++aborted;
    }
  }
  // Every future settled one way or the other — nothing abandoned.
  EXPECT_EQ(completed + aborted, 12);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.completed, completed);
  EXPECT_EQ(s.shutdown_failed, aborted);
}

}  // namespace
}  // namespace phmse::service
