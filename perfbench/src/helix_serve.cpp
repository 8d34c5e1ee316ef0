// helix-serve: multi-tenant traffic through phmse::Server.
//
// 2 workers, a plan cache of capacity 8, 8 tenants served round robin.
// Every request carries a 1 s deadline and fresh observations on every
// slot; compiles use the default work model with no host calibration, so
// they are deterministic.  Traffic covers 20 structural fingerprints:
// hot helix-2 (prior 0.5) 40%, helix-2 (prior 1.0) 25%, helix-3 20%,
// helix-4 10%, and 5% spread over 16 cold helix-2 families that differ
// only in prior_sigma -- more families than the cache holds, so cold
// requests compile inside the request.
//
// Phase A is an open loop: one client thread sends Poisson arrivals at
// 200 req/s (about 45% of capacity) and times each request from its due
// time until its future is ready, polling outstanding futures every
// ~50 us.  (A client that spins instead of sleeping between polls made
// the latencies noisier, not steadier: the spinning core competes with
// the two workers for the host's CPUs.)  Phase B is a closed loop that
// keeps 4 requests outstanding and times each from submit() to ready; its
// latencies and completion rate are the gated figures.  Phase A's
// latencies are reported but not gated: at 45% load the queueing in the
// middle of a bimodal service-time mix turns a 20% change in host CPU
// speed into a 30-50% change in the median, more than any bound allows.
// The service-layer distributions (queue, overhead, submit, solve) come
// from Phase A.  A preparer thread builds each request a few requests
// ahead of when it is due, so request construction is not timed and the
// whole run is never held in memory at once.
//
// Each solve takes 2-10 ms, so admission, fingerprinting, cache lease or
// compile, rebinding and queueing are a large share of every request.
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <thread>

#include "constraints/helix_gen.hpp"
#include "core/hierarchy.hpp"
#include "molecule/rna_helix.hpp"
#include "service/server.hpp"
#include "workload_util.hpp"

namespace perfbench {
namespace {

namespace pe = phmse::engine;
namespace ps = phmse::service;

constexpr double kObservationSigma = 0.01;
constexpr double kInitialSigma = 0.3;
constexpr double kDeadlineSeconds = 1.0;
constexpr int kTenants = 8;
constexpr int kWorkers = 2;
constexpr std::size_t kCacheCapacity = 8;
constexpr int kSetupRepeats = 5;
/// Phase A: Poisson arrivals at kArrivalRate for kPhaseAShare of --seconds.
constexpr double kArrivalRate = 200.0;
constexpr double kPhaseAShare = 0.4;
/// Phase B: closed loop with kOutstanding requests in flight, sized at
/// kPhaseBRate completions per second for the rest of --seconds.
constexpr int kOutstanding = 4;
constexpr double kPhaseBRate = 420.0;
/// Requests prepared ahead of the client.
constexpr std::size_t kPrepareAhead = 8;
/// Poll period of the client loop: completions are detected within it.
constexpr auto kPollPeriod = std::chrono::microseconds(50);
constexpr int kMinVerified = 32;

struct Family {
  Index length;
  double prior;
  double weight;
};

/// The 20 fingerprints: 4 hot families, then 16 cold helix-2 families that
/// differ only in prior_sigma.
std::vector<Family> make_families() {
  std::vector<Family> f = {
      {2, 0.5, 0.40}, {2, 1.0, 0.25}, {3, 1.0, 0.20}, {4, 1.0, 0.10}};
  for (int j = 0; j < 16; ++j) f.push_back({2, 0.6 + 0.02 * j, 0.05 / 16});
  return f;
}

struct Molecule {
  std::shared_ptr<const phmse::mol::HelixModel> model;
  phmse::cons::ConstraintSet constraints;
  Vector truth;
  Vector initial;
  double initial_rmsd = 0.0;  ///< superposed, of the initial estimate
  std::vector<double> base_observations;
};

/// Inputs shared by every request of a run.
struct ServeInputs {
  std::vector<Family> families = make_families();
  std::map<Index, Molecule> molecules;  // by helix length
  std::vector<double> cumulative;       // family weights, cumulative

  ServeInputs() {
    double acc = 0.0;
    for (const Family& f : families) cumulative.push_back(acc += f.weight);
    for (const Index len : {Index{2}, Index{3}, Index{4}}) {
      Molecule m;
      auto model = std::make_shared<phmse::mol::HelixModel>(
          phmse::mol::build_helix(len));
      m.constraints = phmse::cons::generate_helix_constraints(*model);
      m.truth = model->topology.true_state();
      m.initial = initial_estimate(m.truth, kInitialSigma);
      m.initial_rmsd = superposed_rmsd(m.initial, m.truth);
      m.base_observations = observed_values(m.constraints);
      m.model = std::move(model);
      molecules.emplace(len, std::move(m));
    }
  }

  /// Request `index` of the run's sequence; the same (seed, index) always
  /// gives the same request.
  ps::Request request(std::uint64_t seed, std::uint64_t index,
                      int* family_out) const {
    phmse::Rng rng = seeded_rng(seed, 1000 + index);
    const double u = rng.uniform(0.0, cumulative.back());
    *family_out = static_cast<int>(
        std::upper_bound(cumulative.begin(), cumulative.end() - 1, u) -
        cumulative.begin());
    return build(*family_out, rng);
  }

  /// A request of family `fam` with observations drawn from `rng`.
  ps::Request build(int fam, phmse::Rng& rng) const {
    const Family& f = families[static_cast<std::size_t>(fam)];
    const Molecule& m = molecules.at(f.length);
    ps::Request r;
    r.problem = pe::Problem::custom(
        m.model->num_atoms(), m.constraints,
        [model = m.model] {
          return phmse::core::build_helix_hierarchy(*model);
        },
        "helix/" + std::to_string(f.length));
    r.compile.solve.prior_sigma = f.prior;
    r.observations = noisy(m.base_observations, kObservationSigma, rng);
    r.initial = m.initial;
    r.deadline_seconds = kDeadlineSeconds;
    return r;
  }
};

struct ServeState {
  std::unique_ptr<ServeInputs> inputs;
  std::unique_ptr<ps::Server> server;
};

std::string tenant_name(std::uint64_t index) {
  return "tenant-" + std::to_string(index % kTenants);
}

std::unique_ptr<ServeState> setup(const RunOptions& opt) {
  auto s = std::make_unique<ServeState>();
  s->inputs = std::make_unique<ServeInputs>();
  ps::ServerOptions so;
  so.workers = kWorkers;
  so.plan_cache_capacity = kCacheCapacity;
  s->server = std::make_unique<ps::Server>(so);
  // Warm-up: two concurrent requests per hot family leave one warm plan
  // instance per worker for each of them in the cache.
  phmse::Rng warm_rng = seeded_rng(opt.seed, 31);
  std::vector<std::future<ps::Response>> warm;
  for (int rep = 0; rep < 2; ++rep) {
    for (int fam = 0; fam < 4; ++fam) {
      warm.push_back(
          s->server->submit(tenant_name(static_cast<std::uint64_t>(fam)),
                            s->inputs->build(fam, warm_rng)));
    }
  }
  for (auto& w : warm) w.get();
  return s;
}

/// Builds requests [0, total) in order, at most kPrepareAhead ahead of the
/// consumer.
class Preparer {
 public:
  struct Item {
    std::uint64_t index = 0;
    int family = -1;
    ps::Request request;
  };

  Preparer(const ServeInputs& inputs, std::uint64_t seed, std::uint64_t total)
      : inputs_(inputs), seed_(seed), total_(total),
        thread_([this] { loop_(); }) {}
  Preparer(const Preparer&) = delete;
  Preparer& operator=(const Preparer&) = delete;
  ~Preparer() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  /// The next prepared request; rethrows a failure of the preparer.
  Item pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return !ready_.empty() || error_; });
    if (ready_.empty()) std::rethrow_exception(error_);
    Item item = std::move(ready_.front());
    ready_.pop_front();
    cv_.notify_all();
    return item;
  }

  /// Blocks until the queue is full (or everything is prepared).
  void wait_primed() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] {
      return error_ ||
             ready_.size() >= std::min<std::uint64_t>(kPrepareAhead, total_);
    });
  }

 private:
  void loop_() {
    try {
      for (std::uint64_t i = 0; i < total_; ++i) {
        Item item;
        item.index = i;
        item.request = inputs_.request(seed_, i, &item.family);
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock,
                 [this] { return stop_ || ready_.size() < kPrepareAhead; });
        if (stop_) return;
        ready_.push_back(std::move(item));
        cv_.notify_all();
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      error_ = std::current_exception();
      cv_.notify_all();
    }
  }

  const ServeInputs& inputs_;
  std::uint64_t seed_;
  std::uint64_t total_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Item> ready_;  // guarded by mutex_
  bool stop_ = false;       // guarded by mutex_
  std::exception_ptr error_;  // guarded by mutex_
  std::thread thread_;      // last: starts after the members it uses
};

struct InFlight {
  std::uint64_t index = 0;
  int family = -1;
  bool phase_a = true;
  Clock::time_point due;
  Clock::time_point submit_begin;
  std::future<ps::Response> future;
};

}  // namespace

void run_helix_serve(const RunOptions& opt, Record& record, Tracer* tracer) {
  std::unique_ptr<ServeState> s = repeated_setup<ServeState>(
      record, kSetupRepeats, [&] { return setup(opt); });
  const ServeInputs& in = *s->inputs;
  ps::Server& server = *s->server;
  const ps::ServerStats before = server.stats();
  double initial_rmsd = in.molecules.begin()->second.initial_rmsd;
  for (const auto& [length, m] : in.molecules) {
    record.check("superposition removes a rigid motion",
                 superposed_rmsd(rigidly_moved(m.truth), m.truth) < 1e-6,
                 "helix-" + std::to_string(length));
    initial_rmsd = std::min(initial_rmsd, m.initial_rmsd);
  }
  record.values["initial_rmsd_A"] = initial_rmsd;  // the closest start

  const auto n_a = static_cast<std::uint64_t>(
      std::ceil(kArrivalRate * kPhaseAShare * opt.seconds));
  const auto n_b = static_cast<std::uint64_t>(
      std::ceil(kPhaseBRate * (1.0 - kPhaseAShare) * opt.seconds));
  const std::uint64_t total = n_a + n_b;
  const std::uint64_t verify_every =
      std::max<std::uint64_t>(1, total / (kMinVerified + 8));

  // The gated latency distribution is Phase B's (see the file comment);
  // Phase A's open-loop latencies are reported beside it.
  std::vector<double>& latency_a = record.samples["phase_a_ms"];
  std::vector<double>& latency_b = record.samples["op_ms"];
  std::vector<double>& late_ms = record.samples["generator_late_ms"];
  std::vector<double>& submit_us = record.samples["submit_us"];
  std::vector<double>& queue_ms = record.samples["queue_ms"];
  std::vector<double>& solve_ms = record.samples["solve_ms"];
  std::vector<double>& overhead_ms = record.samples["overhead_ms"];
  std::vector<double>& rmsd_a = record.samples["rmsd_A"];
  std::map<std::uint64_t, Vector> served;  // sampled for verification
  double nodes_reused = 0.0;
  double nodes_total = 0.0;

  // Sleeps in the poll loop should last the requested ~50 us, not the
  // default 50 us timer slack on top.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);

  Preparer preparer(in, opt.seed, total);
  preparer.wait_primed();

  std::vector<InFlight> inflight;
  inflight.reserve(64);

  auto submit = [&](InFlight f, Preparer::Item item) {
    ++record.attempted;
    f.index = item.index;
    f.family = item.family;
    f.submit_begin = Clock::now();
    try {
      f.future =
          server.submit(tenant_name(item.index), std::move(item.request));
    } catch (const phmse::Error&) {
      ++record.rejected;
      return;
    }
    const Clock::time_point submitted = Clock::now();
    if (f.phase_a) {
      submit_us.push_back(ms_between(f.submit_begin, submitted) * 1e3);
      late_ms.push_back(ms_between(f.due, f.submit_begin));
    }
    inflight.push_back(std::move(f));
  };

  // Polls every in-flight future once; returns how many completed.
  // Completion detection delay is bounded by the gap between polls; the
  // gaps longer than 0.1 ms while requests were in flight are counted.
  Clock::time_point last_poll = Clock::now();
  double polls = 0.0;
  double slow_polls = 0.0;
  auto poll = [&] {
    const Clock::time_point now = Clock::now();
    if (!inflight.empty()) {
      polls += 1.0;
      if (now - last_poll > std::chrono::microseconds(100)) slow_polls += 1.0;
    }
    last_poll = now;
    int done = 0;
    for (std::size_t k = 0; k < inflight.size();) {
      InFlight& f = inflight[k];
      if (f.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++k;
        continue;
      }
      const Clock::time_point ready = Clock::now();
      ++done;
      const auto op = static_cast<std::uint32_t>(f.index + 1);
      try {
        const ps::Response r = f.future.get();
        const Clock::time_point start = f.phase_a ? f.due : f.submit_begin;
        (f.phase_a ? latency_a : latency_b).push_back(ms_between(start, ready));
        // The service-layer distributions describe the open-loop phase the
        // latency metrics come from; Phase B's queues are set by its fixed
        // number of outstanding requests.
        if (f.phase_a) {
          queue_ms.push_back(r.queue_seconds * 1e3);
          solve_ms.push_back(r.seconds * 1e3);
          overhead_ms.push_back(ms_between(f.submit_begin, ready) -
                                (r.queue_seconds + r.seconds) * 1e3);
        }
        nodes_reused += static_cast<double>(r.report.nodes_reused);
        nodes_total += static_cast<double>(r.report.nodes_reused +
                                           r.report.nodes_recomputed);
        const Family& fam = in.families[static_cast<std::size_t>(f.family)];
        const Molecule& m = in.molecules.at(fam.length);
        // Distance data leave the pose free: compare after superposition.
        // Single responses may land beyond the start (one sweep of helix-3
        // under the default 1.0 A prior often does), so the improvement is
        // checked on the run's median, against RMSD_BOUND_A in metrics.py.
        rmsd_a.push_back(superposed_rmsd(r.x, m.truth));
        record.check("response report clean", r.report.clean(),
                     r.report.summary());
        if (f.index % verify_every == 0) served.emplace(f.index, r.x);

        if (tracer != nullptr) {
          const std::uint32_t req =
              tracer->record("request", "service", start, ready, 0, op);
          if (f.phase_a) {
            tracer->record("generator_late", "benchmark", f.due,
                           f.submit_begin, req, op);
          }
          const Clock::time_point queued_until =
              f.submit_begin + seconds_to_duration(r.queue_seconds);
          tracer->record("queue", "service", f.submit_begin, queued_until, req,
                         op);
          tracer->record("solve", "engine", queued_until,
                         queued_until + seconds_to_duration(r.seconds), req,
                         op);
        }
      } catch (const pe::DeadlineError&) {
        ++record.expired;
      } catch (const std::exception&) {
        ++record.failed;
      }
      if (k + 1 != inflight.size()) inflight[k] = std::move(inflight.back());
      inflight.pop_back();
    }
    return done;
  };

  // Phase A: open loop, Poisson arrivals.
  phmse::Rng arrivals = seeded_rng(opt.seed, 30);
  std::vector<Clock::time_point> due(n_a);
  {
    Clock::time_point t = Clock::now() + std::chrono::milliseconds(5);
    for (std::uint64_t i = 0; i < n_a; ++i) {
      t += seconds_to_duration(-std::log(1.0 - arrivals.uniform()) /
                               kArrivalRate);
      due[i] = t;
    }
  }
  std::uint64_t next = 0;
  last_poll = Clock::now();
  while (next < n_a || !inflight.empty()) {
    bool progressed = false;
    if (next < n_a && Clock::now() >= due[next]) {
      InFlight f;
      f.phase_a = true;
      f.due = due[next];
      submit(std::move(f), preparer.pop());
      ++next;
      progressed = true;
    }
    progressed = poll() > 0 || progressed;
    if (!progressed) {
      // Poll again after kPollPeriod while requests are in flight;
      // otherwise sleep until the next one is due.
      Clock::time_point wake = inflight.empty() && next < n_a
                                   ? due[next]
                                   : Clock::now() + kPollPeriod;
      if (next < n_a) wake = std::min(wake, due[next]);
      std::this_thread::sleep_until(wake);
    }
  }

  // Phase B: closed loop with kOutstanding requests in flight.
  const Clock::time_point b_start = Clock::now();
  std::uint64_t submitted_b = 0;
  while (submitted_b < n_b || !inflight.empty()) {
    while (submitted_b < n_b && inflight.size() < kOutstanding) {
      InFlight f;
      f.phase_a = false;
      submit(std::move(f), preparer.pop());
      ++submitted_b;
    }
    if (poll() == 0) std::this_thread::sleep_for(kPollPeriod);
  }
  const Clock::time_point b_end = Clock::now();
  record.values["polls"] = polls;
  record.values["polls_over_100us"] = slow_polls;
  record.values["rate_count"] = static_cast<double>(latency_b.size());
  record.values["rate_seconds"] = ms_between(b_start, b_end) * 1e-3;

  server.drain();
  const ps::ServerStats after = server.stats();
  record.values["service.cache.hits"] =
      static_cast<double>(after.cache.hits - before.cache.hits);
  record.values["service.cache.misses"] =
      static_cast<double>(after.cache.misses - before.cache.misses);
  record.values["service.cache.evictions"] =
      static_cast<double>(after.cache.evictions - before.cache.evictions);
  record.values["service.failed"] =
      static_cast<double>(after.failed - before.failed);
  record.values["service.rejected"] =
      static_cast<double>(after.rejected - before.rejected);
  record.values["service.expired"] =
      static_cast<double>(after.expired - before.expired);
  record.values["service.nodes_reused_frac"] =
      nodes_total > 0.0 ? nodes_reused / nodes_total : 0.0;

  // Sampled requests re-solved on freshly compiled plans must match the
  // served posterior bitwise.  The first solve on a fresh plan is the
  // check; a second, warm solve (also checked) gives the breakdown.
  for (const auto& [index, x] : served) {
    int fam = -1;
    const ps::Request req = in.request(opt.seed, index, &fam);
    const std::string shape = req.problem.recipe;
    pe::Plan plan = traced_compile(record, tracer, req.problem, req.compile);
    if (record.shapes.count(shape) == 0) {
      record.shapes[shape] = plan_shape(plan);
    }
    const Clock::time_point t0 = Clock::now();
    plan.set_observations(req.observations);
    const Clock::time_point t1 = Clock::now();
    trace_span(tracer, "set_observations", "engine", t0, t1);
    record.samples["set_observations_us"].push_back(ms_between(t0, t1) * 1e3);
    const bool cold_equal =
        bitwise_equal(plan.solve(req.initial).posterior().x, x);
    const Clock::time_point t2 = Clock::now();
    const pe::Result r = plan.solve(req.initial);
    const Clock::time_point t3 = Clock::now();
    const std::uint32_t span = trace_span(tracer, "solve", "engine", t2, t3);
    trace_breakdown(tracer, r.breakdown, t2, span, 0);
    record.add_solve(shape, "verify", r, ms_between(t2, t3));
    record.check("served posterior equals a fresh compile and solve bitwise",
                 cold_equal && bitwise_equal(r.posterior().x, x),
                 "request " + std::to_string(index));
  }
  record.values["verified_requests"] = static_cast<double>(served.size());
  record.check("at least 32 served requests verified",
               served.size() >= static_cast<std::size_t>(kMinVerified),
               std::to_string(served.size()) + " verified");
}

}  // namespace perfbench
