// Steady-state allocation audit for the plan/execute split (separate test
// binary: it replaces the global operator new/delete, which must not leak
// into the main suite).
//
// The contract under test — stated in core/solve_plan.hpp and
// engine/engine.hpp — is that after the first solve has warmed every
// per-node workspace, a serial plan.solve() performs ZERO heap
// allocations: linearization builds into a persistent CsrBuilder, the
// update scratch vectors keep their capacity, PHMSE_CHECK messages are
// lazy, and the ExecContext seam passes par::FunctionRef (two words, never
// heap-backed) instead of std::function.
//
// Every replaceable allocation function is hooked; a counter armed only
// around the audited region keeps gtest's own allocations out of the tally.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "constraints/helix_gen.hpp"
#include "engine/engine.hpp"
#include "estimation/update.hpp"
#include "linalg/backend.hpp"
#include "molecule/rna_helix.hpp"
#include "support/rng.hpp"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<long> g_allocations{0};

void note_allocation() {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

void* checked_malloc(std::size_t size) {
  note_allocation();
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* checked_aligned(std::size_t size, std::size_t align) {
  note_allocation();
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size != 0 ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return checked_malloc(size); }
void* operator new[](std::size_t size) { return checked_malloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return checked_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return checked_aligned(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  note_allocation();
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  note_allocation();
  return std::malloc(size != 0 ? size : 1);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace phmse::engine {
namespace {

/// Runs `fn` with the allocation counter armed; returns the count.
template <typename Fn>
long count_allocations(Fn&& fn) {
  g_allocations.store(0, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_relaxed);
  fn();
  g_armed.store(false, std::memory_order_relaxed);
  return g_allocations.load(std::memory_order_relaxed);
}

par::ExecContext& ctx_for_test() {
  static par::SerialContext ctx;
  return ctx;
}

TEST(SteadyStateAllocations, TheHookSeesOrdinaryAllocations) {
  // Sanity: the replaced operator new is actually the one in effect.
  const long n = count_allocations([] {
    volatile int* p = new int(7);
    delete p;
  });
  EXPECT_GE(n, 1);
}

TEST(SteadyStateAllocations, SecondSerialSolveAllocatesNothing) {
  mol::HelixModel model = mol::build_helix(2);
  cons::ConstraintSet set = cons::generate_helix_constraints(model);
  Rng rng(3);
  linalg::Vector x0 = model.topology.true_state();
  for (auto& v : x0) v += rng.gaussian(0.0, 0.2);

  Problem problem = Problem::custom(
      model.topology.size(), std::move(set),
      [&model] { return core::build_helix_hierarchy(model); });
  CompileOptions opts;
  opts.solve.max_cycles = 2;
  opts.solve.prior_sigma = 0.5;
  Plan plan = Engine::compile(problem, opts);

  plan.solve(x0);  // warm-up: every workspace allocates here

  const long steady = count_allocations([&] { plan.solve(x0); });
  EXPECT_EQ(steady, 0)
      << "the steady-state serial solve touched the heap " << steady
      << " time(s); a workspace is being re-created per solve";
}

TEST(SteadyStateAllocations, ObservationRebindKeepsTheSteadyState) {
  // set_observations writes values in place; it must not disturb the
  // allocation-free property of the following solve.
  mol::HelixModel model = mol::build_helix(2);
  cons::ConstraintSet set = cons::generate_helix_constraints(model);
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(set.size()));
  for (Index i = 0; i < set.size(); ++i) values.push_back(set[i].observed);

  linalg::Vector x0 = model.topology.true_state();
  Problem problem = Problem::custom(
      model.topology.size(), std::move(set),
      [&model] { return core::build_helix_hierarchy(model); });
  CompileOptions opts;
  opts.solve.max_cycles = 1;
  Plan plan = Engine::compile(problem, opts);
  plan.solve(x0);

  for (double& v : values) v += 0.01;
  const long steady = count_allocations([&] {
    plan.set_observations(values);
    plan.solve(x0);
  });
  EXPECT_EQ(steady, 0);
}

TEST(SteadyStateAllocations, IncrementalResolveAllocatesNothing) {
  // The incremental path (DESIGN.md §11) adds dirty marking, schedule
  // preparation, checkpoint bookkeeping and sweep-tally replay on top of
  // the steady-state solve; all of it must run inside capacity
  // preallocated at compile time.
  mol::HelixModel model = mol::build_helix(2);
  cons::ConstraintSet set = cons::generate_helix_constraints(model);
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(set.size()));
  for (Index i = 0; i < set.size(); ++i) values.push_back(set[i].observed);

  linalg::Vector x0 = model.topology.true_state();
  Problem problem = Problem::custom(
      model.topology.size(), std::move(set),
      [&model] { return core::build_helix_hierarchy(model); });
  CompileOptions opts;
  opts.solve.max_cycles = 1;
  Plan plan = Engine::compile(problem, opts);
  plan.solve(x0);  // warm-up; also forms the checkpoint

  values[0] += 0.01;
  const long dirty_steady = count_allocations([&] {
    plan.set_observations(values);
    plan.solve_incremental(x0);
  });
  EXPECT_EQ(dirty_steady, 0)
      << "the incremental re-solve touched the heap " << dirty_steady
      << " time(s); incremental bookkeeping must be preallocated";

  // No-op rebind: the empty dirty set short-circuits every node.
  const long noop_steady = count_allocations([&] {
    plan.set_observations(values);
    plan.solve_incremental(x0);
  });
  EXPECT_EQ(noop_steady, 0);
}

TEST(SteadyStateAllocations, LowRankResolveAllocatesNothing) {
  // The low-rank fast path reads archived Jacobian rows and sweeps rows of
  // the root covariance — all storage sized at compile time or during the
  // first (warm-up) shift.  Steady-state nudge cycles must stay off the
  // heap entirely: that is the point of taking the shortcut.
  mol::HelixModel model = mol::build_helix(2);
  cons::ConstraintSet set = cons::generate_helix_constraints(model);
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(set.size()));
  for (Index i = 0; i < set.size(); ++i) values.push_back(set[i].observed);

  linalg::Vector x0 = model.topology.true_state();
  Problem problem = Problem::custom(
      model.topology.size(), std::move(set),
      [&model] { return core::build_helix_hierarchy(model); });
  CompileOptions opts;
  opts.solve.max_cycles = 1;
  Plan plan = Engine::compile(problem, opts);
  plan.solve(x0);  // forms the checkpoint and the Jacobian archive

  values[0] += 0.01;
  plan.set_observations(values);
  const Result warm = plan.solve_lowrank(x0);  // warm-up: sizes the shift
  ASSERT_TRUE(warm.report.low_rank);

  values[1] += 0.01;
  const long steady = count_allocations([&] {
    plan.set_observations(values);
    plan.solve_lowrank(x0);
  });
  EXPECT_EQ(steady, 0)
      << "the low-rank re-solve touched the heap " << steady << " time(s)";
}

TEST(SteadyStateAllocations, DelayedSweepPastTheCutAllocatesNothing) {
  // A node past the backend's delay_min_dim queues its downdates and
  // gathers the rows H reads (estimation/update.hpp); queue, gather
  // scratch and renumbered Jacobian are sized by reserve() and the first
  // sweep, so later sweeps stay off the heap.  The cut is lowered to the
  // helix-2 molecule's dimension so the case runs on every host.
  mol::HelixModel model = mol::build_helix(2);
  const cons::ConstraintSet set = cons::generate_helix_constraints(model);
  Rng rng(4);
  est::NodeState state = est::make_initial_state(
      model.topology, 0, model.num_atoms(), 0.5, 0.2, rng);
  linalg::Backend delayed = linalg::default_backend();
  delayed.delay_min_dim = state.dim();
  est::BatchUpdater updater;
  updater.set_backend(&delayed);
  updater.reserve(16, state.dim());
  const est::NodeState start = state;
  updater.apply_all(ctx_for_test(), state, set, 16);  // warm-up

  state = start;
  const long steady = count_allocations(
      [&] { updater.apply_all(ctx_for_test(), state, set, 16); });
  EXPECT_EQ(steady, 0)
      << "the delayed sweep touched the heap " << steady << " time(s)";
}

}  // namespace
}  // namespace phmse::engine
