#include "core/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "support/check.hpp"

namespace phmse::core {
namespace {

void assign_node(HierNode& node, int first, int count);

// Recursive bipartition of `kids` (sorted by increasing subtree work) and
// the processor range [first, first+count): paper Section 4.3, steps 4-5.
void partition(std::vector<HierNode*>& kids, std::size_t lo, std::size_t hi,
               int first, int count) {
  const std::size_t n = hi - lo;
  if (n == 0) return;
  if (n == 1) {
    assign_node(*kids[lo], first, count);
    return;
  }
  if (count == 1) {
    // Out of processors: the remaining subtrees share this one and run
    // sequentially.
    for (std::size_t i = lo; i < hi; ++i) assign_node(*kids[i], first, 1);
    return;
  }

  double total = 0.0;
  for (std::size_t i = lo; i < hi; ++i) total += kids[i]->subtree_work;

  // Try every processor bipartition p | count-p; for each, find the child
  // partition point whose work ratio matches it best; keep the overall best.
  double best_score = std::numeric_limits<double>::infinity();
  int best_p = 1;
  std::size_t best_k = lo + 1;
  for (int p = 1; p < count; ++p) {
    const double target = total * static_cast<double>(p) / count;
    double acc = 0.0;
    for (std::size_t k = lo + 1; k < hi; ++k) {
      acc += kids[k - 1]->subtree_work;
      const double score =
          std::abs(acc - target) +
          // tie-break toward balanced processor counts
          1e-12 * std::abs(p - count / 2.0);
      if (score < best_score) {
        best_score = score;
        best_p = p;
        best_k = k;
      }
    }
  }

  partition(kids, lo, best_k, first, best_p);
  partition(kids, best_k, hi, first + best_p, count - best_p);
}

void assign_node(HierNode& node, int first, int count) {
  node.proc_first = first;
  node.proc_count = count;
  node.wave = -1;
  if (node.is_leaf()) return;

  std::vector<HierNode*> kids;
  kids.reserve(node.children.size());
  for (auto& child : node.children) kids.push_back(child.get());
  std::sort(kids.begin(), kids.end(), [](const HierNode* a, const HierNode* b) {
    return a->subtree_work < b->subtree_work;
  });
  partition(kids, 0, kids.size(), first, count);
}

// Collects the nodes at every depth (root = depth 0), left to right.
void collect_levels(HierNode& node, int depth,
                    std::vector<std::vector<HierNode*>>& levels) {
  if (static_cast<int>(levels.size()) <= depth) {
    levels.resize(static_cast<std::size_t>(depth) + 1);
  }
  levels[static_cast<std::size_t>(depth)].push_back(&node);
  for (auto& child : node.children) collect_levels(*child, depth + 1, levels);
}

// Splits `processors` among the wave's nodes proportionally to own_work
// (including assembly), each node getting at least one; returns per-node
// (first, count).  Nodes keep wave order, so groups are contiguous.
std::vector<std::pair<int, int>> wave_groups(
    const std::vector<HierNode*>& wave, int processors) {
  const int n = static_cast<int>(wave.size());
  std::vector<std::pair<int, int>> out(static_cast<std::size_t>(n));
  if (n >= processors) {
    // More nodes than processors: round-robin sharing, one each.
    for (int i = 0; i < n; ++i) {
      out[static_cast<std::size_t>(i)] = {i % processors, 1};
    }
    return out;
  }
  double total = 0.0;
  for (const HierNode* node : wave) total += std::max(node->own_work, 1e-30);

  // Proportional apportionment with a floor of 1: every extra processor
  // goes to the group whose deficit (claimed share minus current size) is
  // largest.
  std::vector<int> count(static_cast<std::size_t>(n), 1);
  std::vector<double> share(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    share[static_cast<std::size_t>(i)] =
        std::max(wave[static_cast<std::size_t>(i)]->own_work, 1e-30) / total *
        processors;
  }
  for (int extra = 0; extra < processors - n; ++extra) {
    int best = 0;
    double best_deficit = -std::numeric_limits<double>::infinity();
    for (int i = 0; i < n; ++i) {
      const double deficit = share[static_cast<std::size_t>(i)] -
                             count[static_cast<std::size_t>(i)];
      if (deficit > best_deficit) {
        best_deficit = deficit;
        best = i;
      }
    }
    count[static_cast<std::size_t>(best)] += 1;
  }
  int cursor = 0;
  for (int i = 0; i < n; ++i) {
    out[static_cast<std::size_t>(i)] = {cursor,
                                        count[static_cast<std::size_t>(i)]};
    cursor += count[static_cast<std::size_t>(i)];
  }
  return out;
}

void validate_node(const HierNode& node) {
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    const HierNode& a = *node.children[i];
    PHMSE_CHECK(a.proc_first >= node.proc_first &&
                    a.proc_first + a.proc_count <=
                        node.proc_first + node.proc_count,
                "child processor range escapes its parent's");
    for (std::size_t j = i + 1; j < node.children.size(); ++j) {
      const HierNode& b = *node.children[j];
      const bool disjoint = a.proc_first + a.proc_count <= b.proc_first ||
                            b.proc_first + b.proc_count <= a.proc_first;
      const bool shared_single = a.proc_first == b.proc_first &&
                                 a.proc_count == 1 && b.proc_count == 1;
      PHMSE_CHECK(disjoint || shared_single,
                  "sibling processor ranges overlap");
    }
    validate_node(a);
  }
}

void describe_node(const HierNode& node, int indent, std::ostringstream& os) {
  os << std::string(static_cast<std::size_t>(indent) * 2, ' ') << node.name
     << " procs=[" << node.proc_first << ","
     << node.proc_first + node.proc_count << ")";
  if (node.wave >= 0) os << " wave=" << node.wave;
  os << " work=" << node.subtree_work << '\n';
  for (const auto& child : node.children) {
    describe_node(*child, indent + 1, os);
  }
}

}  // namespace

void assign_processors(Hierarchy& hierarchy, int processors) {
  PHMSE_CHECK(processors >= 1, "need at least one processor");
  assign_node(hierarchy.root(), 0, processors);
}

void assign_wave_processors(Hierarchy& hierarchy, int processors) {
  PHMSE_CHECK(processors >= 1, "need at least one processor");
  std::vector<std::vector<HierNode*>> levels;
  collect_levels(hierarchy.root(), 0, levels);
  for (std::size_t depth = 0; depth < levels.size(); ++depth) {
    const auto groups = wave_groups(levels[depth], processors);
    for (std::size_t i = 0; i < groups.size(); ++i) {
      HierNode& node = *levels[depth][i];
      node.proc_first = groups[i].first;
      node.proc_count = groups[i].second;
      node.wave = static_cast<int>(depth);
    }
  }
}

void validate_schedule(const Hierarchy& hierarchy) {
  validate_node(hierarchy.root());
}

std::string describe_schedule(const Hierarchy& hierarchy) {
  std::ostringstream os;
  describe_node(hierarchy.root(), 0, os);
  return os.str();
}

}  // namespace phmse::core
