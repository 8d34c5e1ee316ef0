// Processor schedules: the static assignment of paper Section 4.3, and the
// depth-wave reassignment Section 5 proposes as further work.  Both are
// data on the hierarchy (proc_first / proc_count / wave) that SolvePlan
// executes; neither changes a node's numerics.
//
// Static (assign_processors):
// Given per-subtree work estimates, processors are distributed over the
// hierarchy: the root gets all P processors; at every node the child
// subtrees (ordered by increasing work) and the node's processors are
// recursively bipartitioned, choosing at each step the processor split and
// child partition point whose work ratio matches best.  Every node ends up
// with a contiguous processor range [proc_first, proc_first + proc_count),
// with children's ranges partitioning the parent's (or sharing a single
// processor when P is exhausted).
//
// Wave (assign_wave_processors): the paper observes that the static
// schedule loses efficiency when a node's processors cannot be divided
// evenly among equal-work subtrees (the Helix dips at non-power-of-2
// counts) and proposes "dynamic reassignment of processors to nodes by
// periodic global synchronization".  Here the tree is processed in depth
// waves (deepest first); inside a wave every node gets a contiguous
// processor group sized in proportion to its own work — unconstrained by
// subtree nesting — and all processors resynchronize between waves.  That
// trades global barriers (and, on a real DASH, data migration) for freedom
// of placement; bench/ablation_dynamic compares the two.  Wave groups
// generally do not nest, so only serial and simulated runs can execute
// them.
#pragma once

#include "core/hierarchy.hpp"

namespace phmse::core {

/// Assigns processors 0..processors-1 over the hierarchy.  estimate_work()
/// must have been called first (zero estimates degrade to even splits).
/// Clears any wave schedule.
void assign_processors(Hierarchy& hierarchy, int processors);

/// Assigns every node its depth as its wave and a processor group within
/// its wave: with fewer nodes than processors, contiguous groups of at
/// least one processor sized by own_work (estimate_work() must have been
/// called); otherwise one processor each, round-robin.
void assign_wave_processors(Hierarchy& hierarchy, int processors);

/// Validation: every node's processor range lies inside its parent's, and
/// the ranges of children that got disjoint groups do not overlap unless
/// they share a single processor.  Throws phmse::Error on violation.
void validate_schedule(const Hierarchy& hierarchy);

/// Human-readable schedule dump for debugging and the bench `--show-tree`
/// flags.
std::string describe_schedule(const Hierarchy& hierarchy);

}  // namespace phmse::core
