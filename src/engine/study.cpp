#include "engine/study.hpp"

#include "support/check.hpp"
#include "support/table.hpp"

namespace phmse::engine {

SpeedupStudy run_speedup_study(Plan& plan, const linalg::Vector& initial,
                               const simarch::MachineConfig& machine,
                               const std::vector<int>& counts) {
  PHMSE_CHECK(!counts.empty(), "study needs at least one processor count");
  SpeedupStudy study;
  study.machine = machine.name;
  // Restores the caller's schedule on every exit, a throwing solve included.
  struct RestoreSchedule {
    Plan& plan;
    const int processors;
    ~RestoreSchedule() { plan.reschedule(processors); }
  } restore{plan, plan.processors()};
  double t_first = 0.0;
  for (int procs : counts) {
    if (procs < 1 || procs > machine.processors) continue;
    plan.reschedule(procs);
    simarch::SimMachine sim(machine);
    const Result res = plan.solve(sim, initial);
    StudyRow row;
    row.processors = procs;
    row.time = res.vtime;
    if (study.rows.empty()) t_first = res.vtime;
    row.speedup = t_first > 0.0 ? t_first / res.vtime : 1.0;
    row.breakdown = res.breakdown;
    study.rows.push_back(std::move(row));
  }
  PHMSE_CHECK(!study.rows.empty(),
              "no processor count fits the machine configuration");
  return study;
}

std::string format_speedup_table(const SpeedupStudy& study) {
  using perf::Category;
  Table t({"NP", "time", "spdup", "d-s", "chol", "sys", "m-m", "m-v",
           "vec"});
  for (const StudyRow& row : study.rows) {
    t.add_row({std::to_string(row.processors), format_fixed(row.time, 2),
               format_fixed(row.speedup, 2),
               format_fixed(row.breakdown.time(Category::kDenseSparse), 2),
               format_fixed(row.breakdown.time(Category::kCholesky), 2),
               format_fixed(row.breakdown.time(Category::kSystemSolve), 2),
               format_fixed(row.breakdown.time(Category::kMatMat), 2),
               format_fixed(row.breakdown.time(Category::kMatVec), 2),
               format_fixed(row.breakdown.time(Category::kVector), 2)});
  }
  return t.str();
}

}  // namespace phmse::engine
