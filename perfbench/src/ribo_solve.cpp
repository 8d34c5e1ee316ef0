// ribo-solve: the paper's ribo30S problem, closed loop, one client.
//
// 899 atoms, 6236 constraints, the Fig.-4 tree, batch size 16, one cycle,
// default work model.  Each operation binds a fresh seeded observation
// vector to two plans compiled for 1 and 2 processors, runs the serial
// solve (the end-to-end metrics time bind plus solve), then the 2-lane
// ThreadPool solve (the parallel-layer metrics), and checks that the two
// posteriors are bitwise equal.  The 2697-dimension root downdate puts
// almost all of the work in the estimation/linalg kernels; the service,
// cache and incremental paths are not used.
#include <cmath>
#include <optional>

#include "constraints/ribo_gen.hpp"
#include "core/hierarchy.hpp"
#include "molecule/ribo30s.hpp"
#include "parallel/thread_pool.hpp"
#include "workload_util.hpp"

namespace perfbench {
namespace {

namespace pe = phmse::engine;

constexpr double kObservationSigma = 0.01;
constexpr double kInitialSigma = 1.0;
constexpr int kSetupRepeats = 3;
/// Operations per measured second: at ~0.8 s per serial solve plus ~0.45 s
/// for its 2-lane twin, this keeps a run near --seconds.  At least 21
/// operations, so that a tail percentile with 10 samples beyond it exists
/// (with 21 it is the median).
constexpr double kOpsPerSecond = 0.8;
constexpr int kMinOps = 21;

struct RiboState {
  phmse::mol::Ribo30sModel model;
  phmse::cons::ConstraintSet constraints;
  Vector truth;
  Vector initial;
  double initial_rmsd = 0.0;  ///< of the initial estimate
  std::vector<double> base_observations;
  std::optional<pe::Plan> serial;
  std::optional<pe::Plan> lane2;
  std::unique_ptr<phmse::par::ThreadPool> pool;
};

std::unique_ptr<RiboState> setup(const RunOptions& opt, Record& record,
                                 Tracer* tracer) {
  auto s = std::make_unique<RiboState>();
  s->model = phmse::mol::build_ribo30s();
  s->constraints = phmse::cons::generate_ribo_constraints(s->model);
  s->truth = s->model.topology.true_state();
  s->initial = initial_estimate(s->truth, kInitialSigma);
  s->initial_rmsd = rmsd(s->initial, s->truth);
  s->base_observations = observed_values(s->constraints);

  const pe::Problem problem = pe::Problem::custom(
      s->model.num_atoms(), s->constraints,
      [model = s->model] { return phmse::core::build_ribo_hierarchy(model); },
      "ribo30s");
  pe::CompileOptions copts;
  copts.processors = 1;
  s->serial.emplace(traced_compile(record, tracer, problem, copts));
  copts.processors = 2;
  s->lane2.emplace(traced_compile(record, tracer, problem, copts));
  s->pool = std::make_unique<phmse::par::ThreadPool>(2);

  // Warm-up: one solve on each plan touches every workspace page.
  phmse::Rng warm_rng = seeded_rng(opt.seed, 2);
  const std::vector<double> obs =
      noisy(s->base_observations, kObservationSigma, warm_rng);
  s->serial->set_observations(obs);
  s->serial->solve(s->initial);
  s->lane2->set_observations(obs);
  s->lane2->solve(*s->pool, s->initial);
  return s;
}

}  // namespace

void run_ribo_solve(const RunOptions& opt, Record& record, Tracer* tracer) {
  std::unique_ptr<RiboState> s = repeated_setup<RiboState>(
      record, kSetupRepeats, [&] { return setup(opt, record, tracer); });
  record.shapes["ribo30s"] = plan_shape(*s->serial);

  const int ops = std::max(
      kMinOps, static_cast<int>(std::ceil(kOpsPerSecond * opt.seconds)));
  std::vector<double>& op_ms = record.samples["op_ms"];
  std::vector<double>& lane2_ms = record.samples["lane2_ms"];
  std::vector<double>& speedup = record.samples["speedup_2lane"];
  std::vector<double>& bind_us = record.samples["set_observations_us"];
  std::vector<double>& rmsd_a = record.samples["rmsd_A"];
  double serial_seconds = 0.0;

  phmse::Rng op_rng = seeded_rng(opt.seed, 3);
  for (int i = 0; i < ops; ++i) {
    const auto op = static_cast<std::uint32_t>(i + 1);
    const std::vector<double> obs =
        noisy(s->base_observations, kObservationSigma, op_rng);
    ++record.attempted;

    // Serial: bind + solve, the timed operation.
    const Clock::time_point t0 = Clock::now();
    s->serial->set_observations(obs);
    const Clock::time_point t1 = Clock::now();
    const pe::Result r1 = s->serial->solve(s->initial);
    const Clock::time_point t2 = Clock::now();

    const std::uint32_t op_span =
        trace_span(tracer, "operation", "benchmark", t0, t2, 0, op);
    trace_span(tracer, "set_observations", "engine", t0, t1, op_span, op);
    const std::uint32_t solve_span =
        trace_span(tracer, "solve", "engine", t1, t2, op_span, op);
    trace_breakdown(tracer, r1.breakdown, t1, solve_span, op);

    op_ms.push_back(ms_between(t0, t2));
    bind_us.push_back(ms_between(t0, t1) * 1e3);
    serial_seconds += ms_between(t0, t2) * 1e-3;
    record.add_solve("ribo30s", "serial", r1, ms_between(t1, t2));
    record.check("serial solve report clean", r1.report.clean(),
                 r1.report.summary());
    const double err = rmsd(r1.posterior().x, s->truth);
    rmsd_a.push_back(err);
    record.check("posterior closer to the truth than the initial estimate",
                 err < s->initial_rmsd, "operation " + std::to_string(i + 1));

    // 2-lane: same observations on the 2-processor plan.
    s->lane2->set_observations(obs);
    const Clock::time_point t3 = Clock::now();
    const pe::Result r2 = s->lane2->solve(*s->pool, s->initial);
    const Clock::time_point t4 = Clock::now();
    const std::uint32_t lane_span =
        trace_span(tracer, "solve_2lane", "parallel", t3, t4, 0, op);
    trace_breakdown(tracer, r2.breakdown, t3, lane_span, op);

    lane2_ms.push_back(ms_between(t3, t4));
    speedup.push_back(ms_between(t1, t2) / ms_between(t3, t4));
    record.check("2-lane solve report clean", r2.report.clean(),
                 r2.report.summary());
    // r1 still borrows the serial plan's posterior: each plan keeps its
    // own state until its next solve.
    record.check("serial and 2-lane posteriors bitwise equal",
                 bitwise_equal(r1.posterior(), r2.posterior()),
                 "operation " + std::to_string(i + 1));
  }
  record.values["initial_rmsd_A"] = s->initial_rmsd;
  record.values["rate_count"] = ops;
  record.values["rate_seconds"] = serial_seconds;
}

}  // namespace perfbench
