#include "decomp/work_queue.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cj2k::decomp {

namespace {

double finish(const Schedule& s) {
  double m = 0;
  for (double t : s.worker_time) m = std::max(m, t);
  return m;
}

/// Replays the items in order, each on the worker `pick` names (given the
/// worker times so far and the item index), for its cost plus its tail's.
template <class Pick>
Schedule replay(const std::vector<double>& item_cost,
                const std::vector<double>& worker_speed_factor,
                const ItemTail& tail, const Pick& pick) {
  CJ2K_CHECK_MSG(!worker_speed_factor.empty(), "need at least one worker");
  const bool tails = !tail.cost.empty();
  if (tails) {
    CJ2K_CHECK_MSG(tail.cost.size() == item_cost.size(),
                   "one tail cost per item");
    CJ2K_CHECK_MSG(tail.speed_factor.size() == worker_speed_factor.size(),
                   "one tail speed per worker");
  }
  Schedule s;
  s.assignment.resize(item_cost.size());
  s.item_finish.resize(item_cost.size());
  s.worker_time.assign(worker_speed_factor.size(), 0.0);
  for (std::size_t i = 0; i < item_cost.size(); ++i) {
    const std::size_t w = pick(s.worker_time, i);
    // Without a tail the update adds the item cost alone, so the replay is
    // bit-identical to one that never heard of tails.
    s.worker_time[w] += tails ? item_cost[i] * worker_speed_factor[w] +
                                    tail.cost[i] * tail.speed_factor[w]
                              : item_cost[i] * worker_speed_factor[w];
    s.assignment[i] = static_cast<int>(w);
    s.item_finish[i] = s.worker_time[w];
  }
  s.makespan = finish(s);
  return s;
}

}  // namespace

Schedule schedule_virtual(const std::vector<double>& item_cost,
                          const std::vector<double>& worker_speed_factor,
                          const ItemTail& tail) {
  // Earliest-free worker takes the next queue item.
  return replay(item_cost, worker_speed_factor, tail,
                [](const std::vector<double>& time, std::size_t) {
                  std::size_t best = 0;
                  for (std::size_t w = 1; w < time.size(); ++w) {
                    if (time[w] < time[best]) best = w;
                  }
                  return best;
                });
}

Schedule schedule_static(const std::vector<double>& item_cost,
                         const std::vector<double>& worker_speed_factor,
                         const ItemTail& tail) {
  return replay(item_cost, worker_speed_factor, tail,
                [](const std::vector<double>& time, std::size_t i) {
                  return i % time.size();
                });
}

Schedule schedule_virtual_released(
    const std::vector<double>& item_cost,
    const std::vector<double>& worker_speed_factor,
    const std::vector<double>& release_time) {
  CJ2K_CHECK_MSG(!worker_speed_factor.empty(), "need at least one worker");
  CJ2K_CHECK_MSG(release_time.size() == item_cost.size(),
                 "one release time per item");
  Schedule s;
  s.assignment.resize(item_cost.size());
  s.item_finish.resize(item_cost.size());
  s.worker_time.assign(worker_speed_factor.size(), 0.0);

  // Admission order: release time, index as the tiebreak (a FIFO fed as
  // items become ready).
  std::vector<std::size_t> order(item_cost.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return release_time[a] < release_time[b];
                   });

  for (const std::size_t i : order) {
    // The worker that can *start* the item earliest (a free worker still
    // waits for the release).
    std::size_t best = 0;
    double best_start = std::max(s.worker_time[0], release_time[i]);
    for (std::size_t w = 1; w < s.worker_time.size(); ++w) {
      const double start = std::max(s.worker_time[w], release_time[i]);
      if (start < best_start ||
          (start == best_start && s.worker_time[w] < s.worker_time[best])) {
        best = w;
        best_start = start;
      }
    }
    s.worker_time[best] =
        best_start + item_cost[i] * worker_speed_factor[best];
    s.assignment[i] = static_cast<int>(best);
    s.item_finish[i] = s.worker_time[best];
  }
  s.makespan = finish(s);
  return s;
}

HandoffSchedule schedule_ordered_handoff(const std::vector<double>& ready,
                                         const std::vector<double>& cost) {
  CJ2K_CHECK_MSG(ready.size() == cost.size(), "one cost per event");
  HandoffSchedule h;
  h.finish.resize(ready.size());
  double t = 0;
  for (std::size_t i = 0; i < ready.size(); ++i) {
    if (ready[i] > t) {
      h.stall += ready[i] - t;
      t = ready[i];
    }
    t += cost[i];
    h.busy += cost[i];
    h.finish[i] = t;
  }
  h.makespan = t;
  return h;
}

PipelineSchedule schedule_pipeline(
    const std::vector<std::vector<PipelinePhase>>& items,
    std::size_t num_groups) {
  CJ2K_CHECK_MSG(num_groups > 0, "need at least one group");
  PipelineSchedule s;
  s.item_group.resize(items.size());
  s.item_finish.resize(items.size());
  std::vector<double> group_free(num_groups, 0.0);
  double serial_free = 0.0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    std::size_t g = 0;
    for (std::size_t k = 1; k < num_groups; ++k) {
      if (group_free[k] < group_free[g]) g = k;
    }
    double t = group_free[g];
    double release = t;
    for (const auto& phase : items[i]) {
      if (phase.pool > 0) {
        t += phase.pool;
        release = t;
      }
      if (phase.serial > 0) {
        // Serial slots are granted in admission order (FIFO on the PPE).
        const double start = std::max(t, serial_free);
        t = start + phase.serial;
        serial_free = t;
      }
    }
    group_free[g] = release;
    s.item_group[i] = g;
    s.item_finish[i] = t;
    s.makespan = std::max(s.makespan, t);
  }
  return s;
}

}  // namespace cj2k::decomp
