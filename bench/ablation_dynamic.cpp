// Ablation A3 (paper Section 5): static processor assignment vs dynamic
// re-assignment by periodic global synchronization.
//
// The paper observes dips in the Helix speedup whenever the processor
// count is not a power of two — the binary tree forces an uneven static
// split and "the computation effectively proceeds at the speed of the
// smaller group".  It proposes dynamic regrouping as future work; PHMSE
// implements a wave-synchronized version as a second processor schedule
// (core::assign_wave_processors, executed by core::SolvePlan).  This
// harness compares the two on the simulated DASH.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "support/table.hpp"

namespace phmse::bench {
namespace {

int run() {
  print_header("Ablation A3 (Section 5)",
               "Static schedule vs dynamic processor re-assignment");

  const HelixProblem p = make_helix_problem(bench_scale() < 0.5 ? 8 : 16);
  core::HierSolveOptions opts;

  Table t({"NP", "static(s)", "static spdup", "dynamic(s)", "dynamic spdup",
           "dynamic/static"});
  double static1 = 0.0;
  double dynamic1 = 0.0;
  for (int procs : {1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32}) {
    // A DASH-like machine with exactly `procs` processors, so the wave
    // schedule (whose global synchronization spans the whole machine) is
    // compared against the static schedule at equal resources.
    simarch::MachineConfig cfg = simarch::dash32();
    cfg.processors = procs;

    core::Hierarchy hs = prepare_helix_hierarchy(p, procs);
    simarch::SimMachine ms(cfg);
    const double ts = core::SolvePlan(hs, opts).run(ms, p.initial).vtime;

    core::Hierarchy hd = prepare_helix_hierarchy(p, procs);
    core::assign_wave_processors(hd, procs);
    simarch::SimMachine md(cfg);
    const double td = core::SolvePlan(hd, opts).run(md, p.initial).vtime;

    if (procs == 1) {
      static1 = ts;
      dynamic1 = td;
    }
    t.add_row({std::to_string(procs), format_fixed(ts, 2),
               format_fixed(static1 / ts, 2), format_fixed(td, 2),
               format_fixed(dynamic1 / td, 2), format_fixed(td / ts, 2)});
  }
  std::printf("%s", t.str().c_str());
  std::printf("(simulated dash32 seconds, Helix problem, one cycle)\n");
  std::printf("Expected shape: static dips at NP=3,5,6,12,24 (uneven binary "
              "splits); the dynamic wave\nschedule smooths them at the cost "
              "of global synchronization per tree level.\n");
  return 0;
}

}  // namespace
}  // namespace phmse::bench

int main() { return phmse::bench::run(); }
