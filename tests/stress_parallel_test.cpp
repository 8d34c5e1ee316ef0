// Concurrency stress suite for the parallel execution layer.
//
// These tests are the repo's standing proof that the ThreadPool /
// TeamContext / TaskGroup engine is sanitizer-clean and exception-safe:
// they hammer fork/join across worker counts and adversarial chunk sizes,
// throw from worker lanes, submit during shutdown, and check that the
// threaded hierarchical solver stays bitwise-equal to the serial one.  CI
// runs them under TSan and ASan+UBSan (see .github/workflows/ci.yml); run
// locally with  cmake --preset tsan && cmake --build --preset tsan -j &&
// ctest --preset tsan.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "constraints/helix_gen.hpp"
#include "core/assign.hpp"
#include "core/schedule.hpp"
#include "core/solve_plan.hpp"
#include "core/work_model.hpp"
#include "molecule/rna_helix.hpp"
#include "parallel/task_group.hpp"
#include "parallel/team.hpp"
#include "parallel/thread_pool.hpp"
#include "simarch/machine.hpp"
#include "simarch/sim_context.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace phmse {
namespace {

using core::HierSolveOptions;
using core::Hierarchy;
using core::SolvePlan;
using par::KernelStats;
using par::TaskGroup;
using par::TeamContext;
using par::ThreadPool;

KernelStats no_cost(Index, Index) { return {}; }

// ---------------------------------------------------------------------------
// Fork/join hammering.

TEST(StressTeam, ForkJoinAcrossWidthsAndAdversarialSizes) {
  ThreadPool pool(4);
  for (int width = 1; width <= 4; ++width) {
    TeamContext ctx(pool, 0, width);
    const Index w = width;
    for (Index n : {Index{0}, Index{1}, w - 1, w, w + 1, 2 * w + 1,
                    Index{97}}) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      ctx.parallel(perf::Category::kVector, n, no_cost,
                   [&](Index b, Index e, int) {
                     for (Index i = b; i < e; ++i) {
                       hits[static_cast<std::size_t>(i)]++;
                     }
                   });
      for (auto& h : hits) EXPECT_EQ(h.load(), 1) << "w=" << width;
    }
  }
}

TEST(StressTeam, RepeatedForkJoinReusesPoolCleanly) {
  ThreadPool pool(4);
  TeamContext ctx(pool, 0, 4);
  std::atomic<long> sum{0};
  for (int iter = 0; iter < 200; ++iter) {
    ctx.parallel(perf::Category::kVector, 1000, no_cost,
                 [&](Index b, Index e, int) { sum += e - b; });
  }
  EXPECT_EQ(sum.load(), 200L * 1000L);
}

TEST(StressTeam, DisjointTeamsShareOnePool) {
  // Two teams on disjoint worker ranges forked from two driver threads —
  // the tree executor's steady state.  Lane-0 of each team must be the
  // thread that constructed it, so each driver builds its own team.
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  auto drive = [&](int first, int size) {
    TeamContext ctx(pool, first, size);
    for (int iter = 0; iter < 100; ++iter) {
      ctx.parallel(perf::Category::kVector, 503, no_cost,
                   [&](Index b, Index e, int) { sum += e - b; });
    }
  };
  std::thread a(drive, 2, 2);
  drive(0, 2);
  a.join();
  EXPECT_EQ(sum.load(), 2L * 100L * 503L);
}

// ---------------------------------------------------------------------------
// Throwing bodies: no deadlock, no terminate, context reusable.

TEST(StressTeam, ThrowingBodyOnAnyLaneSurfacesAndTeamStaysUsable) {
  ThreadPool pool(4);
  TeamContext ctx(pool, 0, 4);
  for (int bad_lane = 0; bad_lane < 4; ++bad_lane) {
    for (int rep = 0; rep < 25; ++rep) {
      EXPECT_THROW(
          ctx.parallel(perf::Category::kVector, 64, no_cost,
                       [&](Index, Index, int lane) {
                         if (lane == bad_lane) {
                           throw Error("lane failure");
                         }
                       }),
          Error);
      // The team and pool must be fully reusable after the failure.
      std::atomic<int> count{0};
      ctx.parallel(perf::Category::kVector, 64, no_cost,
                   [&](Index b, Index e, int) {
                     count += static_cast<int>(e - b);
                   });
      EXPECT_EQ(count.load(), 64);
    }
  }
}

TEST(StressTeam, AllLanesThrowingYieldsOneException) {
  ThreadPool pool(4);
  TeamContext ctx(pool, 0, 4);
  for (int rep = 0; rep < 50; ++rep) {
    EXPECT_THROW(ctx.parallel(perf::Category::kVector, 4, no_cost,
                              [&](Index, Index, int) {
                                throw Error("every lane fails");
                              }),
                 Error);
  }
}

TEST(StressTeam, SubRangeTeamThrowDoesNotPoisonOtherWorkers) {
  ThreadPool pool(4);
  TeamContext bad(pool, 1, 3);
  EXPECT_THROW(bad.parallel(perf::Category::kVector, 30, no_cost,
                            [&](Index, Index, int lane) {
                              if (lane == 2) throw Error("boom");
                            }),
               Error);
  TeamContext good(pool, 0, 4);
  std::atomic<int> count{0};
  good.parallel(perf::Category::kVector, 40, no_cost,
                [&](Index b, Index e, int) {
                  count += static_cast<int>(e - b);
                });
  EXPECT_EQ(count.load(), 40);
}

TEST(StressTeam, SequentialThrowChargesTimeAndPropagates) {
  ThreadPool pool(2);
  TeamContext ctx(pool, 0, 2);
  EXPECT_THROW(ctx.sequential(perf::Category::kCholesky, no_cost,
                              [] { throw Error("panel failure"); }),
               Error);
  EXPECT_GE(ctx.profile().time(perf::Category::kCholesky), 0.0);
  int value = 0;
  ctx.sequential(perf::Category::kCholesky, no_cost, [&] { value = 7; });
  EXPECT_EQ(value, 7);
}

// ---------------------------------------------------------------------------
// Exception propagation per execution mode (serial / threaded / simulated).

TEST(StressModes, SerialContextPropagatesBodyException) {
  par::SerialContext ctx;
  EXPECT_THROW(ctx.parallel(perf::Category::kVector, 10, no_cost,
                            [](Index, Index, int) {
                              throw Error("serial body failure");
                            }),
               Error);
  // Context stays usable and keeps accumulating.
  std::atomic<int> count{0};
  ctx.parallel(perf::Category::kVector, 10, no_cost,
               [&](Index b, Index e, int) {
                 count += static_cast<int>(e - b);
               });
  EXPECT_EQ(count.load(), 10);
}

TEST(StressModes, ThreadedContextPropagatesBodyException) {
  ThreadPool pool(3);
  TeamContext ctx(pool, 0, 3);
  EXPECT_THROW(ctx.parallel(perf::Category::kVector, 30, no_cost,
                            [](Index, Index, int lane) {
                              if (lane == 1) throw Error("threaded failure");
                            }),
               Error);
}

TEST(StressModes, SimContextPropagatesAndKeepsClocksConsistent) {
  simarch::SimMachine machine(simarch::generic(4));
  simarch::SimContext ctx(machine, 0, 4);
  EXPECT_THROW(ctx.parallel(perf::Category::kVector, 40,
                            [](Index b, Index e) {
                              KernelStats st;
                              st.flops = static_cast<double>(e - b);
                              return st;
                            },
                            [](Index, Index, int lane) {
                              if (lane == 2) throw Error("sim lane failure");
                            }),
               Error);
  // All team processors were still charged identically: the virtual machine
  // did not desynchronize on the failure path.
  for (int p = 1; p < 4; ++p) {
    EXPECT_DOUBLE_EQ(machine.clock(p), machine.clock(0));
  }
  EXPECT_GT(machine.clock(0), 0.0);
}

// ---------------------------------------------------------------------------
// Pool-level stress: raw-task containment, shutdown semantics, nested
// submits.

TEST(StressPool, RawThrowingTaskIsContainedAndRetained) {
  ThreadPool pool(2);
  par::Latch done(1);
  pool.submit(0, [&] {
    done.count_down();
    throw Error("raw task failure");
  });
  done.wait();
  std::atomic<int> after{0};
  par::Latch done2(1);
  pool.submit(0, [&] {
    ++after;
    done2.count_down();
  });
  done2.wait();
  EXPECT_EQ(after.load(), 1);  // worker survived the throw
  const std::exception_ptr err = pool.take_uncaught_error();
  ASSERT_NE(err, nullptr);
  EXPECT_THROW(std::rethrow_exception(err), Error);
  EXPECT_EQ(pool.take_uncaught_error(), nullptr);  // cleared
}

TEST(StressPool, SubmitDuringShutdownIsRejectedNotDropped) {
  ThreadPool pool(2);
  std::atomic<bool> rejected{false};
  std::atomic<bool> ran_anyway{false};
  par::Latch started(1);
  pool.submit(0, [&] {
    started.count_down();
    // Hold this worker busy until the destructor flips the acceptance flag,
    // then try to enqueue more work mid-teardown.
    while (pool.accepting()) std::this_thread::yield();
    try {
      pool.submit(1, [&] { ran_anyway = true; });
    } catch (const Error&) {
      rejected = true;
    }
  });
  started.wait();
  pool.shutdown();
  EXPECT_TRUE(rejected.load());
  EXPECT_FALSE(ran_anyway.load());
  EXPECT_FALSE(pool.accepting());
  EXPECT_THROW(pool.submit(0, [] {}), Error);  // after full shutdown too
}

TEST(StressPool, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.shutdown();
  pool.shutdown();
  EXPECT_THROW(pool.submit(0, [] {}), Error);
}

TEST(StressPool, NestedSubmitsFanOutAndJoin) {
  // Tasks submitting tasks (the tree executor's shape), repeated to shake
  // out queue/latch races: a root task fans out to every worker, each leaf
  // counts down a shared group.
  ThreadPool pool(4);
  for (int rep = 0; rep < 100; ++rep) {
    std::atomic<int> hits{0};
    TaskGroup leaves(4);
    TaskGroup root(1);
    pool.submit(0, [&] {
      root.run([&] {
        for (int w = 0; w < 4; ++w) {
          pool.submit(w, [&] {
            leaves.run([&] { ++hits; });
          });
        }
      });
    });
    root.join();
    leaves.join();
    EXPECT_EQ(hits.load(), 4);
  }
}

TEST(StressPool, TaskGroupCarriesSubmissionFailure) {
  ThreadPool pool(2);
  pool.shutdown();
  TaskGroup group(1);
  try {
    pool.submit(0, [&] { group.run([] {}); });
  } catch (...) {
    group.fail(std::current_exception());
  }
  EXPECT_THROW(group.join(), Error);  // no deadlock: fail() counted the task
}

// ---------------------------------------------------------------------------
// Threaded hierarchical solver: failure injection and serial equivalence.

struct Problem {
  mol::HelixModel model;
  cons::ConstraintSet set;
  linalg::Vector initial;
};

Problem helix_problem(Index length) {
  Problem p{mol::build_helix(length), {}, {}};
  p.set = cons::generate_helix_constraints(p.model, cons::HelixNoise{});
  Rng rng(1234);
  p.initial = p.model.topology.true_state();
  for (auto& v : p.initial) v += rng.gaussian(0.0, 0.4);
  return p;
}

Hierarchy prepared_hierarchy(const Problem& p, int procs) {
  Hierarchy h = core::build_helix_hierarchy(p.model);
  core::assign_constraints(h, p.set);
  core::estimate_work(h, core::WorkModel{}, 16);
  core::assign_processors(h, procs);
  return h;
}

TEST(StressSolver, ThrowingConstraintBodySurfacesAsErrorAndPoolSurvives) {
  const Problem p = helix_problem(2);
  par::SerialContext sctx;
  Hierarchy h1 = prepared_hierarchy(p, 1);
  SolvePlan serial(h1, HierSolveOptions{});
  serial.run(sctx, p.initial);

  for (int procs : {2, 4}) {
    ThreadPool pool(procs);

    // Inject a constraint whose evaluation throws (unknown kind fails the
    // arity() precondition) into a subtree that runs on a *remote* worker,
    // so the failure crosses a fork/join boundary.
    Hierarchy bad = prepared_hierarchy(p, procs);
    core::HierNode* victim = nullptr;
    bad.for_each_post_order([&](core::HierNode& node) {
      if (victim == nullptr && node.proc_first != bad.root().proc_first) {
        victim = &node;
      }
    });
    ASSERT_NE(victim, nullptr) << "schedule left no remote subtree";
    cons::Constraint poison;
    poison.kind = static_cast<cons::Kind>(99);
    victim->constraints.add(poison);

    SolvePlan bad_plan(bad, HierSolveOptions{});
    EXPECT_THROW(bad_plan.run(pool, p.initial), Error) << "procs=" << procs;

    // The pool must be fully usable afterwards: a clean solve on the same
    // pool still matches the serial numerics bitwise.
    Hierarchy good = prepared_hierarchy(p, procs);
    SolvePlan threaded(good, HierSolveOptions{});
    threaded.run(pool, p.initial);
    EXPECT_EQ(threaded.root_state().x, serial.root_state().x)
        << "procs=" << procs;
    EXPECT_EQ(threaded.root_state().c, serial.root_state().c)
        << "procs=" << procs;
  }
}

TEST(StressSolver, RepeatedThreadedSolvesStayBitwiseEqualToSerial) {
  const Problem p = helix_problem(2);
  par::SerialContext sctx;
  Hierarchy h1 = prepared_hierarchy(p, 1);
  HierSolveOptions opts;
  opts.max_cycles = 2;
  SolvePlan serial(h1, opts);
  serial.run(sctx, p.initial);

  for (int procs : {2, 3, 4}) {
    Hierarchy h = prepared_hierarchy(p, procs);
    ThreadPool pool(procs);
    for (int rep = 0; rep < 3; ++rep) {
      // Each repetition compiles a fresh plan over the same hierarchy.
      SolvePlan threaded(h, opts);
      threaded.run(pool, p.initial);
      EXPECT_EQ(threaded.root_state().x, serial.root_state().x)
          << "procs=" << procs << " rep=" << rep;
      EXPECT_EQ(threaded.root_state().c, serial.root_state().c)
          << "procs=" << procs << " rep=" << rep;
    }
  }
}

}  // namespace
}  // namespace phmse
