// Data decomposition scheme and work-queue tests — the paper's §2
// properties, asserted over a parameter sweep.
#include <gtest/gtest.h>

#include "common/align.hpp"
#include "common/error.hpp"
#include "decomp/chunk.hpp"
#include "decomp/work_queue.hpp"

namespace cj2k::decomp {
namespace {

struct PlanCase {
  std::size_t row_elems;
  std::size_t num_spes;
};

class PlanSweep : public ::testing::TestWithParam<PlanCase> {};

TEST_P(PlanSweep, PaperSection2Invariants) {
  const auto [row_elems, num_spes] = GetParam();
  const auto plan = plan_chunks(row_elems, sizeof(std::int32_t), num_spes);
  const std::size_t line_elems = kCacheLineBytes / sizeof(std::int32_t);

  // 1. SPE chunks are constant-width multiples of the cache line.
  for (const auto& ch : plan.spe_chunks) {
    EXPECT_EQ(ch.width, plan.chunk_width);
    EXPECT_TRUE(is_multiple_of(ch.width, line_elems));
    EXPECT_TRUE(is_multiple_of(ch.x0, line_elems));
    EXPECT_FALSE(ch.ppe_remainder);
    EXPECT_GT(ch.width, 0u);
  }
  EXPECT_LE(plan.spe_chunks.size(), std::max<std::size_t>(num_spes, 1));

  // 2. Chunks + remainder tile the row exactly, in order, no overlap.
  std::size_t x = 0;
  for (const auto& ch : plan.spe_chunks) {
    EXPECT_EQ(ch.x0, x);
    x += ch.width;
  }
  EXPECT_EQ(plan.remainder.x0, x);
  EXPECT_EQ(x + plan.remainder.width, row_elems);
  EXPECT_TRUE(plan.remainder.ppe_remainder);

  // 3. No cache line is shared between two processing elements: every SPE
  // chunk boundary is line-aligned, so only the remainder can be partial.
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlanSweep,
    ::testing::Values(PlanCase{3172, 8}, PlanCase{3172, 16},
                      PlanCase{3172, 1}, PlanCase{3172, 0},
                      PlanCase{1280, 8}, PlanCase{31, 8}, PlanCase{32, 8},
                      PlanCase{33, 8}, PlanCase{256, 8}, PlanCase{257, 3},
                      PlanCase{100000, 16}, PlanCase{64, 2},
                      PlanCase{1, 8}));

TEST(PlanChunks, NarrowRowFallsBackToPpe) {
  const auto plan = plan_chunks(10, 4, 8);
  EXPECT_TRUE(plan.spe_chunks.empty());
  EXPECT_EQ(plan.remainder.width, 10u);
}

TEST(PlanChunks, FixedWidthVariant) {
  const auto plan = plan_chunks_fixed_width(1000, 4, 128);
  for (const auto& ch : plan.spe_chunks) EXPECT_EQ(ch.width, 128u);
  EXPECT_EQ(plan.spe_chunks.size(), 7u);
  EXPECT_EQ(plan.remainder.width, 1000u - 7u * 128u);
}

TEST(SplitRows, CoversExactlyOnce) {
  for (std::size_t rows : {0u, 1u, 7u, 8u, 100u, 3116u}) {
    for (std::size_t workers : {1u, 2u, 8u, 16u}) {
      const auto parts = split_rows(rows, workers);
      std::size_t covered = 0;
      std::size_t expect_start = 0;
      for (const auto& [start, count] : parts) {
        EXPECT_EQ(start, expect_start);
        EXPECT_GT(count, 0u);
        expect_start = start + count;
        covered += count;
      }
      EXPECT_EQ(covered, rows);
      // Near-equal: max-min <= 1.
      if (!parts.empty()) {
        std::size_t mn = rows, mx = 0;
        for (const auto& [s, c] : parts) {
          mn = std::min(mn, c);
          mx = std::max(mx, c);
        }
        EXPECT_LE(mx - mn, 1u);
      }
    }
  }
}

TEST(Schedule, QueueBeatsStaticOnSkewedCosts) {
  // Front-loaded heavy items (the skewed image scenario): round-robin
  // piles them on the same workers; the queue balances.
  std::vector<double> cost;
  for (int i = 0; i < 64; ++i) cost.push_back(i % 8 == 0 ? 100.0 : 1.0);
  const std::vector<double> speed(8, 1.0);
  const auto q = schedule_virtual(cost, speed);
  const auto s = schedule_static(cost, speed);
  EXPECT_LT(q.makespan, s.makespan * 0.75);
  // Both complete all items.
  double qsum = 0, ssum = 0;
  for (double t : q.worker_time) qsum += t;
  for (double t : s.worker_time) ssum += t;
  EXPECT_DOUBLE_EQ(qsum, ssum);
}

TEST(Schedule, HeterogeneousWorkersGetProportionalShares) {
  // One fast worker (PPE at T1) + slow workers: the queue naturally feeds
  // the fast one more items.
  std::vector<double> cost(1000, 1.0);
  std::vector<double> speed{1.0, 2.0, 2.0};  // worker 0 twice as fast
  const auto sched = schedule_virtual(cost, speed);
  int counts[3] = {0, 0, 0};
  for (int w : sched.assignment) ++counts[w];
  EXPECT_GT(counts[0], counts[1] * 3 / 2);
  // Makespan close to the ideal 1000 / (1 + 0.5 + 0.5) = 500.
  EXPECT_NEAR(sched.makespan, 500.0, 25.0);
}

TEST(Schedule, SingleWorkerMakespanIsTotalWork) {
  std::vector<double> cost{3, 4, 5};
  const auto sched = schedule_virtual(cost, {2.0});
  EXPECT_DOUBLE_EQ(sched.makespan, 24.0);
  EXPECT_EQ(sched.assignment, (std::vector<int>{0, 0, 0}));
}

// --- Edge cases of the virtual schedulers ---------------------------------

TEST(Schedule, ZeroCostItemsFinishInstantly) {
  std::vector<double> cost(5, 0.0);
  const auto sched = schedule_virtual(cost, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(sched.makespan, 0.0);
  ASSERT_EQ(sched.item_finish.size(), cost.size());
  for (double f : sched.item_finish) EXPECT_DOUBLE_EQ(f, 0.0);
  for (int w : sched.assignment) {
    EXPECT_GE(w, 0);
    EXPECT_LT(w, 2);
  }
}

TEST(Schedule, MoreWorkersThanItemsLeavesWorkersIdle) {
  std::vector<double> cost{3.0, 2.0};
  const auto sched = schedule_virtual(cost, std::vector<double>(5, 1.0));
  EXPECT_DOUBLE_EQ(sched.makespan, 3.0);
  // Each item lands on its own worker; three workers never run.
  EXPECT_NE(sched.assignment[0], sched.assignment[1]);
  int idle = 0;
  for (double t : sched.worker_time) {
    if (t == 0.0) ++idle;
  }
  EXPECT_EQ(idle, 3);
}

TEST(Schedule, ItemFinishMatchesWorkerTimeline) {
  std::vector<double> cost{2, 2, 2, 2};
  const auto sched = schedule_virtual(cost, {1.0, 1.0});
  // Round-robin by construction here: finishes 2, 2, 4, 4.
  EXPECT_EQ(sched.item_finish, (std::vector<double>{2, 2, 4, 4}));
}

TEST(Schedule, ReleasedWithZeroReleasesEqualsPlainVirtual) {
  std::vector<double> cost{5, 1, 4, 2, 3, 6, 1};
  std::vector<double> speed{1.0, 1.5, 0.7};
  const auto plain = schedule_virtual(cost, speed);
  const auto released = schedule_virtual_released(
      cost, speed, std::vector<double>(cost.size(), 0.0));
  EXPECT_DOUBLE_EQ(released.makespan, plain.makespan);
  EXPECT_EQ(released.assignment, plain.assignment);
  EXPECT_EQ(released.item_finish, plain.item_finish);
}

TEST(Schedule, EmptyTailEqualsNoTail) {
  const std::vector<double> cost{5, 1, 4, 2, 3, 6, 1};
  const std::vector<double> speed{1.0, 1.5, 0.7};
  const ItemTail empty;
  const auto expect_same = [](const Schedule& a, const Schedule& b) {
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.worker_time, b.worker_time);
    EXPECT_EQ(a.item_finish, b.item_finish);
    EXPECT_EQ(a.makespan, b.makespan);
  };
  expect_same(schedule_virtual(cost, speed, empty),
              schedule_virtual(cost, speed));
  expect_same(schedule_static(cost, speed, empty),
              schedule_static(cost, speed));
}

TEST(Schedule, TailRunsOnTheItemsWorkerAtItsOwnSpeed) {
  // Worker 1 runs tails at half speed.  Queue: item 0 -> w0 (2 + 1 = 3),
  // item 1 -> w1 (2 + 0), item 2 -> w1, the earlier free (2 + 2 + 3*2).
  // Round-robin puts item 2 on w0 instead (3 + 2 + 3).
  const std::vector<double> cost{2, 2, 2};
  const std::vector<double> speed{1.0, 1.0};
  const ItemTail tail{{1, 0, 3}, {1.0, 2.0}};
  const auto q = schedule_virtual(cost, speed, tail);
  EXPECT_EQ(q.assignment, (std::vector<int>{0, 1, 1}));
  EXPECT_EQ(q.item_finish, (std::vector<double>{3, 2, 10}));
  EXPECT_DOUBLE_EQ(q.makespan, 10.0);
  const auto s = schedule_static(cost, speed, tail);
  EXPECT_EQ(s.assignment, (std::vector<int>{0, 1, 0}));
  EXPECT_EQ(s.item_finish, (std::vector<double>{3, 2, 8}));
  EXPECT_DOUBLE_EQ(s.makespan, 8.0);
  EXPECT_THROW(schedule_virtual(cost, speed, {{1, 0}, {1.0, 2.0}}), Error);
  EXPECT_THROW(schedule_static(cost, speed, {{1, 0, 3}, {1.0}}), Error);
}

TEST(Schedule, ReleasedHandCase) {
  // Admission order by release: item 0 (r=0), item 2 (r=1), item 1 (r=5).
  // Item 0 -> worker 0, finishes at 4.  Item 2 starts at its release (1) on
  // worker 1, finishes at 4.  Item 1 waits for its release: both workers
  // free at 4 but the item is only ready at 5; finishes at 7.
  const auto s = schedule_virtual_released({4, 2, 3}, {1.0, 1.0}, {0, 5, 1});
  EXPECT_EQ(s.item_finish, (std::vector<double>{4, 7, 4}));
  EXPECT_DOUBLE_EQ(s.makespan, 7.0);
  EXPECT_NE(s.assignment[0], s.assignment[2]);
}

TEST(Schedule, ReleasedLateItemsStallEvenIdleWorkers) {
  // Every worker idles until the single release point.
  const auto s = schedule_virtual_released({1, 1}, {1.0, 1.0, 1.0}, {10, 10});
  EXPECT_DOUBLE_EQ(s.makespan, 11.0);
  EXPECT_EQ(s.item_finish, (std::vector<double>{11, 11}));
}

// --- Ordered-completion hand-off ------------------------------------------

TEST(OrderedHandoff, HandCase) {
  // ready {0,3,1}, cost {2,1,5}: event 0 runs 0->2; event 1 is not ready
  // until 3 (stall 1), runs 3->4; event 2 was ready long ago, runs 4->9.
  const auto h = schedule_ordered_handoff({0, 3, 1}, {2, 1, 5});
  EXPECT_EQ(h.finish, (std::vector<double>{2, 4, 9}));
  EXPECT_DOUBLE_EQ(h.makespan, 9.0);
  EXPECT_DOUBLE_EQ(h.busy, 8.0);
  EXPECT_DOUBLE_EQ(h.stall, 1.0);
}

TEST(OrderedHandoff, NoStallWhenEventsAreReadyInOrder) {
  const auto h = schedule_ordered_handoff({0, 0, 0}, {1, 2, 3});
  EXPECT_DOUBLE_EQ(h.makespan, 6.0);
  EXPECT_DOUBLE_EQ(h.stall, 0.0);
  EXPECT_EQ(h.finish, (std::vector<double>{1, 3, 6}));
}

TEST(OrderedHandoff, EmptyIsZero) {
  const auto h = schedule_ordered_handoff({}, {});
  EXPECT_DOUBLE_EQ(h.makespan, 0.0);
  EXPECT_DOUBLE_EQ(h.busy, 0.0);
  EXPECT_DOUBLE_EQ(h.stall, 0.0);
  EXPECT_TRUE(h.finish.empty());
}

TEST(OrderedHandoff, ConsumerNeverReordersPastAnUnreadyEvent) {
  // Event 1 is ready last; the already-ready event 2 must still wait.
  const auto h = schedule_ordered_handoff({0, 100, 0}, {1, 1, 1});
  EXPECT_EQ(h.finish, (std::vector<double>{1, 101, 102}));
  EXPECT_DOUBLE_EQ(h.stall, 99.0);
}

// --- Serial-resource-only pipeline schedules ------------------------------

TEST(Pipeline, SerialOnlyItemsSerializeAcrossGroups) {
  // Items with no pool work: the shared serial resource is the only one,
  // so even with 3 groups everything queues FIFO.
  std::vector<std::vector<PipelinePhase>> items(3);
  items[0].push_back({0.0, 2.0});
  items[1].push_back({0.0, 3.0});
  items[2].push_back({0.0, 4.0});
  const auto s = schedule_pipeline(items, 3);
  EXPECT_DOUBLE_EQ(s.makespan, 9.0);
  EXPECT_EQ(s.item_finish, (std::vector<double>{2, 5, 9}));
}

}  // namespace
}  // namespace cj2k::decomp
