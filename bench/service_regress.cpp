// Throughput regression for the multi-tenant solve service (DESIGN.md §10).
//
// The workload is the paper's helix problem served through phmse::Server:
// T tenants each submit N requests that share one structural fingerprint
// but carry fresh observation vectors, closed-loop (a tenant submits its
// next request only after consuming the previous future).  Two modes run
// back to back:
//
//   cold     — plan_cache_capacity = 0: every request recompiles its plan,
//              the per-request cost a service pays without the cache;
//   warm     — a sized cache: after the first misses every request leases a
//              pre-compiled instance and pays only the solve;
//   deadline — the warm workload with every request deadline-bound (a
//              generous 30s budget that never fires): the steady-state cost
//              of arming the cancel token and polling it at every batch and
//              node boundary (DESIGN.md §13).  warm/deadline throughput is
//              the polling overhead.
//
// The compile options mirror a production deployment (calibrate_work_model
// on: a service compiling per request would calibrate Eq. 1 per request),
// so warm/cold contrasts the full compile pipeline against a cache hit.
//
// Output: a human table plus a machine-readable phmse-service-bench-v1
// JSON document (solves/sec, p50/p95/p99 end-to-end latency, and
// p50/p95/p99 queue time per mode), compared against the committed
// BENCH_service.json by scripts/bench_check.py, whose warm and deadline
// gates (--gate warm --gate deadline) check the two ratios:
//
//   ./build/bench/service_regress            # writes BENCH_service.json
//   ./build/bench/service_regress out.json   # explicit output path
//
// Honours PHMSE_BENCH_SCALE (scales the requests per tenant).
#include <algorithm>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "service/server.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace phmse::bench {
namespace {

struct ServiceBenchRecord {
  std::string workload;  // "helix/4", ...
  std::string mode;      // "cold", "warm" or "deadline"
  int tenants = 0;
  int requests = 0;  // total across tenants
  int workers = 0;
  double solves_per_sec = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  // Queue-time percentiles (Response::queue_seconds: submit to solve
  // start) — the share of the end-to-end latency spent waiting for a
  // worker rather than solving.
  double queue_p50_ms = 0.0;
  double queue_p95_ms = 0.0;
  double queue_p99_ms = 0.0;
  unsigned long long cache_hits = 0;
  unsigned long long cache_misses = 0;
};

void write_service_bench_json(const std::string& path,
                              const std::vector<ServiceBenchRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  PHMSE_CHECK(f != nullptr, "write_service_bench_json: cannot open " + path);
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"phmse-service-bench-v1\",\n");
  std::fprintf(f, "  \"bench_scale\": %.4g,\n", bench_scale());
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ServiceBenchRecord& r = records[i];
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"mode\": \"%s\", \"tenants\": %d, "
        "\"requests\": %d, \"workers\": %d, \"solves_per_sec\": %.4f, "
        "\"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f, "
        "\"queue_p50_ms\": %.4f, \"queue_p95_ms\": %.4f, "
        "\"queue_p99_ms\": %.4f, "
        "\"cache_hits\": %llu, \"cache_misses\": %llu}%s\n",
        r.workload.c_str(), r.mode.c_str(), r.tenants, r.requests, r.workers,
        r.solves_per_sec, r.p50_ms, r.p95_ms, r.p99_ms, r.queue_p50_ms,
        r.queue_p95_ms, r.queue_p99_ms, r.cache_hits, r.cache_misses,
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  const bool ok = std::fclose(f) == 0;
  PHMSE_CHECK(ok, "write_service_bench_json: write failed for " + path);
}

double percentile_ms(std::vector<double> sorted_seconds, double q) {
  PHMSE_CHECK(!sorted_seconds.empty(), "percentile of an empty sample");
  const double rank = q * static_cast<double>(sorted_seconds.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_seconds.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return 1e3 * (sorted_seconds[lo] * (1.0 - frac) + sorted_seconds[hi] * frac);
}

engine::CompileOptions service_compile_options() {
  engine::CompileOptions o;
  o.solve.max_cycles = 1;
  o.solve.prior_sigma = 0.5;
  // A per-request deployment calibrates the Eq.-1 work model per compile;
  // a cached plan carries its calibration with it.
  o.calibrate_work_model = true;
  return o;
}

service::Request make_request(const HelixProblem& p, Index length,
                              std::uint64_t seed) {
  service::Request r;
  r.problem = engine::Problem::custom(
      p.model.topology.size(), p.constraints,
      [model = p.model] { return core::build_helix_hierarchy(model); },
      "helix/" + std::to_string(length));
  r.compile = service_compile_options();
  Rng rng(seed);
  r.observations.reserve(static_cast<std::size_t>(p.constraints.size()));
  for (const cons::Constraint& c : p.constraints.all()) {
    r.observations.push_back(c.observed + rng.gaussian(0.0, 0.01));
  }
  r.initial = p.initial;
  return r;
}

ServiceBenchRecord run_mode(const HelixProblem& p, Index length,
                            const std::string& mode, int tenants,
                            int per_tenant, int workers) {
  // "deadline" is the warm workload with a generous never-firing budget on
  // every request: it isolates the cost of the armed cancel token.
  const bool cached = mode == "warm" || mode == "deadline";
  const double deadline_seconds = mode == "deadline" ? 30.0 : 0.0;

  service::ServerOptions opts;
  opts.workers = workers;
  opts.plan_cache_capacity =
      cached ? static_cast<std::size_t>(workers + tenants) : 0;
  opts.max_pending = 4096;
  opts.max_pending_per_tenant = 4096;
  service::Server server(opts);

  if (cached) {
    // Populate the cache before timing: one request per worker so the
    // timed phase leases pre-compiled instances from the first submit.
    std::vector<std::future<service::Response>> warmup;
    for (int w = 0; w < workers; ++w) {
      warmup.push_back(server.submit("warmup-" + std::to_string(w),
                                     make_request(p, length, 1)));
    }
    for (auto& fut : warmup) fut.get();
  }

  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(tenants));
  std::vector<std::vector<double>> queue_times(
      static_cast<std::size_t>(tenants));
  Stopwatch wall;
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(tenants));
    for (int t = 0; t < tenants; ++t) {
      threads.emplace_back([&, t] {
        const std::string tenant = "tenant-" + std::to_string(t);
        auto& lane = latencies[static_cast<std::size_t>(t)];
        auto& queue_lane = queue_times[static_cast<std::size_t>(t)];
        lane.reserve(static_cast<std::size_t>(per_tenant));
        queue_lane.reserve(static_cast<std::size_t>(per_tenant));
        for (int i = 0; i < per_tenant; ++i) {
          const std::uint64_t seed =
              static_cast<std::uint64_t>(t * per_tenant + i + 1);
          service::Request req = make_request(p, length, seed);
          req.deadline_seconds = deadline_seconds;
          Stopwatch sw;
          const service::Response resp =
              server.submit(tenant, std::move(req)).get();
          lane.push_back(sw.seconds());
          queue_lane.push_back(resp.queue_seconds);
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  const double elapsed = wall.seconds();
  server.drain();
  const service::ServerStats stats = server.stats();
  PHMSE_CHECK(stats.failed == 0, "service bench: a solve failed");

  std::vector<double> all;
  std::vector<double> all_queue;
  for (const auto& lane : latencies) {
    all.insert(all.end(), lane.begin(), lane.end());
  }
  for (const auto& lane : queue_times) {
    all_queue.insert(all_queue.end(), lane.begin(), lane.end());
  }
  std::sort(all.begin(), all.end());
  std::sort(all_queue.begin(), all_queue.end());

  ServiceBenchRecord r;
  r.workload = "helix/" + std::to_string(length);
  r.mode = mode;
  r.tenants = tenants;
  r.requests = tenants * per_tenant;
  r.workers = workers;
  r.solves_per_sec =
      elapsed > 0.0 ? static_cast<double>(r.requests) / elapsed : 0.0;
  r.p50_ms = percentile_ms(all, 0.50);
  r.p95_ms = percentile_ms(all, 0.95);
  r.p99_ms = percentile_ms(all, 0.99);
  r.queue_p50_ms = percentile_ms(all_queue, 0.50);
  r.queue_p95_ms = percentile_ms(all_queue, 0.95);
  r.queue_p99_ms = percentile_ms(all_queue, 0.99);
  r.cache_hits = stats.cache.hits;
  r.cache_misses = stats.cache.misses;
  return r;
}

}  // namespace

int run(const std::string& out_path) {
  print_header("service", "multi-tenant solve service throughput");

  const Index length = 2;
  const int tenants = 4;
  const int workers = 4;
  const int per_tenant =
      std::max(4, static_cast<int>(32 * bench_scale() + 0.5));
  const HelixProblem p = make_helix_problem(length);

  std::printf("workload: Helix %lld bp (%lld constraints), %d tenants x %d "
              "requests, %d workers, closed loop\n",
              static_cast<long long>(length),
              static_cast<long long>(p.constraints.size()), tenants,
              per_tenant, workers);
  std::printf("compile: calibrated work model, 1 cycle, batch 16\n\n");

  std::vector<ServiceBenchRecord> records;
  for (const std::string mode : {"cold", "warm", "deadline"}) {
    records.push_back(run_mode(p, length, mode, tenants, per_tenant, workers));
  }

  std::printf("%-10s %-8s %12s %10s %10s %10s %10s %7s %7s\n", "workload",
              "mode", "solves/sec", "p50 ms", "p95 ms", "p99 ms", "q p95 ms",
              "hits", "misses");
  for (const ServiceBenchRecord& r : records) {
    std::printf("%-10s %-8s %12.2f %10.3f %10.3f %10.3f %10.3f %7llu %7llu\n",
                r.workload.c_str(), r.mode.c_str(), r.solves_per_sec,
                r.p50_ms, r.p95_ms, r.p99_ms, r.queue_p95_ms, r.cache_hits,
                r.cache_misses);
  }
  const double speedup = records[0].solves_per_sec > 0.0
                             ? records[1].solves_per_sec /
                                   records[0].solves_per_sec
                             : 0.0;
  std::printf("\nwarm/cold throughput: %.2fx\n", speedup);
  const double overhead = records[2].solves_per_sec > 0.0
                              ? records[1].solves_per_sec /
                                        records[2].solves_per_sec -
                                    1.0
                              : 0.0;
  std::printf("deadline-arming overhead vs warm: %.2f%%\n",
              100.0 * overhead);

  write_service_bench_json(out_path, records);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace phmse::bench

int main(int argc, char** argv) {
  return phmse::bench::run(argc > 1 ? argv[1] : "BENCH_service.json");
}
