// Benchmark runner: one workload per process.
//
//   perfbench_runner --workload <ribo-solve|helix-serve|helix-rebind>
//                    --seed <n> --seconds <s> --record <path>
//                    [--trace <chrome-trace-path>]
//
// Runs the workload's fixed number of operations (derived from --seconds,
// never from the clock), records raw samples and check outcomes, and
// writes them as JSON to --record.  perfbench/run.py builds this program,
// runs it and turns the record into metrics.  Exit code 0 = the record was
// written (check failures are inside it); 2 = bad arguments; 1 = the
// workload threw.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workload_util.hpp"

namespace {

using perfbench::Clock;

// Span buffer size.  A run at --seconds 60 records fewer than 100k spans
// (helix-serve: 4-5 per request; helix-rebind: 3 per edit, 10 per commit;
// ribo-solve: 19 per operation), plus a bounded number for set-up and
// verification; spans past the capacity are counted as dropped.
constexpr std::size_t kSpanCapacity = 1'000'000;

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload W "
               "--seed N --seconds S --record PATH [--trace PATH]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  perfbench::RunOptions opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atoi(val.c_str());
    } else if (key == "--record") {
      opt.record_path = val;
    } else if (key == "--trace") {
      opt.trace_path = val;
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options come in --key value pairs");
  if (opt.record_path.empty()) return usage("--record is required");
  if (opt.seconds < 1 || opt.seconds > 600) {
    return usage("--seconds out of range");
  }

  void (*run)(const perfbench::RunOptions&, perfbench::Record&,
              perfbench::Tracer*) = nullptr;
  if (opt.workload == "ribo-solve") {
    run = perfbench::run_ribo_solve;
  } else if (opt.workload == "helix-serve") {
    run = perfbench::run_helix_serve;
  } else if (opt.workload == "helix-rebind") {
    run = perfbench::run_helix_rebind;
  } else {
    return usage(("unknown workload '" + opt.workload + "'").c_str());
  }

  perfbench::Record record;
  record.options = opt;
  std::unique_ptr<perfbench::Tracer> tracer;
  if (!opt.trace_path.empty()) {
    tracer = std::make_unique<perfbench::Tracer>(kSpanCapacity, process_start);
  }
  try {
    const double steal0 = perfbench::host_steal_seconds();
    run(opt, record, tracer.get());
    record.values["host.steal_s"] = perfbench::host_steal_seconds() - steal0;
    record.values["host.cpu_s"] = perfbench::process_cpu_seconds();
    record.values["peak_rss_mb"] = perfbench::peak_rss_mb();
    if (tracer) {
      tracer->write_chrome_json(opt.trace_path);
      record.values["trace.spans"] = static_cast<double>(tracer->size());
      record.values["trace.dropped"] = static_cast<double>(tracer->dropped());
    }
    record.write_json(opt.record_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }
  return 0;
}
