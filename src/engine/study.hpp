// Parallel speedup studies as a library facility.
//
// The paper's evaluation protocol — run one full constraint cycle at each
// processor count, report work time, speedup, and the per-category time
// distribution (Tables 3-6) — packaged over a compiled Plan: the plan is
// compiled once, rescheduled per processor count, and executed on a fresh
// simulated machine for every row.  Numerics are identical across rows
// (the schedule changes placement, not arithmetic), so only timing differs.
#pragma once

#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "simarch/machine.hpp"

namespace phmse::engine {

/// One row of a speedup table.
struct StudyRow {
  int processors = 1;
  double time = 0.0;      // simulated work time, seconds
  double speedup = 1.0;   // vs the 1-processor row (or the smallest run)
  perf::Profile breakdown;
};

/// A completed study.
struct SpeedupStudy {
  std::string machine;
  std::vector<StudyRow> rows;

  /// Parallel efficiency of row i: speedup / processors.
  double efficiency(std::size_t i) const {
    return rows[i].speedup / rows[i].processors;
  }
};

/// Runs the plan's configured cycles at every processor count in `counts`
/// (entries exceeding the machine size are skipped) and collects the
/// paper-style rows.  The plan's original schedule is restored afterwards,
/// also when a solve throws.
SpeedupStudy run_speedup_study(Plan& plan, const linalg::Vector& initial,
                               const simarch::MachineConfig& machine,
                               const std::vector<int>& counts);

/// Renders the study in the layout of the paper's Tables 3-6
/// (NP / time / spdup / d-s / chol / sys / m-m / m-v / vec).
std::string format_speedup_table(const SpeedupStudy& study);

}  // namespace phmse::engine
