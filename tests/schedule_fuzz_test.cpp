// Property fuzzing of the static processor-assignment heuristic: random
// trees with random work distributions must always yield valid schedules.
#include <gtest/gtest.h>

#include <memory>

#include "core/schedule.hpp"
#include "support/rng.hpp"

namespace phmse::core {
namespace {

// Builds a random tree over [begin, end) atoms with random fan-out and
// random per-node work.
std::unique_ptr<HierNode> random_tree(Index begin, Index end, int depth,
                                      Rng& rng) {
  auto node = std::make_unique<HierNode>();
  std::string name = "n";
  name += std::to_string(begin);
  name += '_';
  name += std::to_string(end);
  node->name = std::move(name);
  node->atom_begin = begin;
  node->atom_end = end;
  node->own_work = rng.uniform(0.0, 10.0);

  const Index span = end - begin;
  if (depth > 0 && span >= 2 && rng.uniform() < 0.85) {
    const int kids =
        static_cast<int>(rng.uniform_int(2, std::min<Index>(4, span)));
    Index cursor = begin;
    for (int k = 0; k < kids; ++k) {
      const Index remaining_kids = kids - k - 1;
      const Index max_take = end - cursor - remaining_kids;
      const Index take =
          k == kids - 1
              ? end - cursor
              : static_cast<Index>(rng.uniform_int(1, std::max<Index>(
                                                          1, max_take)));
      node->children.push_back(
          random_tree(cursor, cursor + take, depth - 1, rng));
      cursor += take;
    }
  }
  node->subtree_work = node->own_work;
  for (const auto& c : node->children) {
    node->subtree_work += c->subtree_work;
  }
  return node;
}

class ScheduleFuzz : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleFuzz, ::testing::Range(0, 25));

TEST_P(ScheduleFuzz, RandomTreesYieldValidSchedules) {
  Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  const Index atoms = 20 + static_cast<Index>(rng.uniform_int(0, 60));
  Hierarchy h(random_tree(0, atoms, 4, rng));
  h.validate();

  for (int procs : {1, 2, 3, 5, 8, 13, 32}) {
    assign_processors(h, procs);
    ASSERT_NO_THROW(validate_schedule(h))
        << "seed=" << GetParam() << " procs=" << procs;
    EXPECT_EQ(h.root().proc_first, 0);
    EXPECT_EQ(h.root().proc_count, procs);
    h.for_each_post_order([&](const HierNode& node) {
      EXPECT_GE(node.proc_count, 1);
      EXPECT_LE(node.proc_first + node.proc_count, procs);
    });
  }
}

TEST_P(ScheduleFuzz, ZeroWorkTreesStillSchedule) {
  Rng rng(2000 + static_cast<std::uint64_t>(GetParam()));
  Hierarchy h(random_tree(0, 16, 3, rng));
  h.for_each_post_order([](HierNode& n) {
    n.own_work = 0.0;
    n.subtree_work = 0.0;
  });
  assign_processors(h, 7);
  EXPECT_NO_THROW(validate_schedule(h));
}

}  // namespace
}  // namespace phmse::core
