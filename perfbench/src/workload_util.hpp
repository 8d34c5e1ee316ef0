// Shared pieces of the three benchmark workloads: the raw run record the
// Python side turns into metrics, seeded input generation, host readings
// and the correctness helpers.
//
// The runner computes no statistics.  It measures, checks, and writes the
// raw samples (latencies, per-solve breakdowns, plan shapes, counters) to a
// JSON record; perfbench/metrics.py derives every reported metric from it.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "constraints/set.hpp"
#include "engine/engine.hpp"
#include "estimation/state.hpp"
#include "perf/category.hpp"
#include "support/rng.hpp"
#include "trace.hpp"

namespace perfbench {

using phmse::Index;
using phmse::linalg::Vector;

/// Command line of one workload process.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  std::string record_path;  ///< where the raw JSON record goes
  std::string trace_path;   ///< Chrome trace output; empty = untraced
};

/// Node sizes of a compiled plan, in post-order: what the flop and byte
/// model of the covariance downdate needs.
struct PlanShape {
  long batch_size = 0;
  std::vector<std::array<long, 2>> nodes;  ///< {state dim, constraints}
};
PlanShape plan_shape(const phmse::engine::Plan& plan);

/// One exact solve whose Result::breakdown the record keeps.
struct SolveSample {
  std::string shape;  ///< key into Record::shapes
  std::string kind;   ///< "serial", "commit" or "verify"
  double wall_ms = 0.0;
  std::array<double, phmse::perf::kNumCategories> cat_ms{};
  long batches = 0;
  long nodes_recomputed = 0;
  long nodes_reused = 0;
};

/// Everything one workload process measured.
class Record {
 public:
  RunOptions options;
  /// Wall seconds of each from-scratch set-up repeat.
  std::vector<double> setup_s;
  /// Operation outcomes: failed = raised an error other than deadline
  /// expiry, expired = deadline expiry, rejected = refused at submit().
  long attempted = 0;
  long failed = 0;
  long rejected = 0;
  long expired = 0;
  /// Named sample distributions (one kind of operation each).
  std::map<std::string, std::vector<double>> samples;
  /// Named scalars: counters, sums, host readings.
  std::map<std::string, double> values;
  std::map<std::string, PlanShape> shapes;
  std::vector<SolveSample> solves;
  std::vector<phmse::engine::CompileTimings> compiles;

  /// Counts one pass or failure of the named check; the first failure's
  /// detail is kept.
  void check(const std::string& name, bool ok, const std::string& detail = {});

  void add_solve(const std::string& shape, const std::string& kind,
                 const phmse::engine::Result& result, double wall_ms);

  void write_json(const std::string& path) const;

 private:
  struct CheckTally {
    long passed = 0;
    long failed = 0;
    std::string first_failure;
  };
  std::map<std::string, CheckTally> checks_;
};

/// Milliseconds between two steady-clock readings.
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Seeded stream for one purpose of one run: the same (seed, stream) pair
/// always yields the same draws, and different streams are independent.
phmse::Rng seeded_rng(std::uint64_t seed, std::uint64_t stream);

/// The observed values of `set`, in constraint order.
std::vector<double> observed_values(const phmse::cons::ConstraintSet& set);

/// `base` plus N(0, sigma^2) on every entry.
std::vector<double> noisy(const std::vector<double>& base, double sigma,
                          phmse::Rng& rng);

/// The ground truth plus N(0, sigma^2) on every coordinate, from a fixed
/// stream: the initial estimate is part of the problem, like the molecule
/// and its constraints, and does not change with the workload seed.
Vector initial_estimate(const Vector& truth, double sigma);

/// Root-mean-square per-atom distance between two coordinate vectors
/// (x1, y1, z1, x2, ...), in the vectors' unit (Angstrom).
double rmsd(const Vector& a, const Vector& b);

/// rmsd() after the rigid motion (rotation and translation) that best
/// superposes `a` onto `b` (Horn's quaternion method).  Distance data
/// alone leave a helix's global pose unobservable, so its posteriors are
/// compared with the truth up to that motion.
double superposed_rmsd(const Vector& a, const Vector& b);

/// `x` rotated about a fixed oblique axis and translated: a rigid motion
/// under which superposed_rmsd(moved, x) must read 0 up to rounding.
Vector rigidly_moved(const Vector& x);

bool bitwise_equal(const Vector& a, const Vector& b);
/// Mean and covariance both bitwise equal.
bool bitwise_equal(const phmse::est::NodeState& a,
                   const phmse::est::NodeState& b);
/// FNV-1a over the 64-bit words of a posterior's mean and covariance: a
/// cheap stand-in for keeping whole covariance matrices for a later
/// bitwise comparison.
std::uint64_t posterior_digest(const phmse::est::NodeState& state);

/// Steal time of all CPUs from /proc/stat, in seconds (0 if unreadable).
double host_steal_seconds();
/// User plus system CPU seconds of this process (getrusage).
double process_cpu_seconds();
/// Peak resident set of this process in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Runs `setup` `repeats` times, each from scratch, keeping only the last
/// result alive (earlier ones are destroyed before the next starts, so
/// peak memory reflects one set-up); records each repeat's wall seconds.
template <typename T>
std::unique_ptr<T> repeated_setup(
    Record& record, int repeats,
    const std::function<std::unique_ptr<T>()>& setup) {
  std::unique_ptr<T> state;
  for (int r = 0; r < repeats; ++r) {
    state.reset();
    const Clock::time_point t0 = Clock::now();
    state = setup();
    record.setup_s.push_back(ms_between(t0, Clock::now()) * 1e-3);
  }
  return state;
}

/// Records `result`'s per-category breakdown as estimation-layer child
/// spans of `parent`, laid end to end from `begin`.  Their durations are
/// measured by the library; their placement inside the parent is not.
void trace_breakdown(Tracer* tracer, const phmse::perf::Profile& breakdown,
                     Clock::time_point begin, std::uint32_t parent,
                     std::uint32_t op);

/// Times Engine::compile and records the span, its CompileTimings phases as
/// core-layer children, and the timings in `record`.
phmse::engine::Plan traced_compile(
    Record& record, Tracer* tracer, const phmse::engine::Problem& problem,
    const phmse::engine::CompileOptions& options);

/// The three workloads.  Each fills `record`; a failed check is recorded,
/// not thrown.
void run_ribo_solve(const RunOptions& options, Record& record, Tracer* tracer);
void run_helix_serve(const RunOptions& options, Record& record, Tracer* tracer);
void run_helix_rebind(const RunOptions& options, Record& record,
                      Tracer* tracer);

}  // namespace perfbench
