// Work distribution for Tier-1 encoding (paper §3.2): code blocks have
// content-dependent cost, so static distribution load-imbalances; a shared
// work queue keeps every processing element busy.
//
// The host side of that queue is the process-wide pool
// (decomp/host_pool.hpp).  This header is the simulated side:
// schedule_virtual and its variants are deterministic virtual-time replays
// that assign each item (with a known simulated cost) to the worker that
// frees up first, which is exactly what a work queue achieves on hardware.
// The results feed the performance model and the load-balancing ablation.
#pragma once

#include <cstddef>
#include <vector>

namespace cj2k::decomp {

/// Result of a virtual-time schedule.
struct Schedule {
  std::vector<int> assignment;        ///< Worker index per item.
  std::vector<double> worker_time;    ///< Final virtual time per worker.
  std::vector<double> item_finish;    ///< Virtual finish time per item.
  double makespan = 0;                ///< max(worker_time).
};

/// An optional job fused onto every item, run on the same worker right
/// after the main one (e.g. the R-D hull build that follows a block's
/// Tier-1 coding).  It may run at a different per-worker speed (branchy
/// scalar code vs the main kernel), so it has its own speed vector.  An
/// empty `cost` means no tail.
struct ItemTail {
  std::vector<double> cost;          ///< Per item.
  std::vector<double> speed_factor;  ///< Per worker.
};

/// Greedy earliest-free-worker assignment: item i (cost item_cost[i] on
/// worker w = item_cost[i] * worker_speed_factor[w], plus
/// tail.cost[i] * tail.speed_factor[w] with a tail) goes to the worker
/// with the smallest current virtual time.  Items are taken in order, which
/// mirrors a FIFO work queue.  Comparing the makespans with and without a
/// tail shows how much of the tail work the queue absorbs into the main
/// span.
Schedule schedule_virtual(const std::vector<double>& item_cost,
                          const std::vector<double>& worker_speed_factor,
                          const ItemTail& tail = {});

/// Static round-robin assignment (the ablation baseline: "merely
/// distributing an identical number of code blocks").
Schedule schedule_static(const std::vector<double>& item_cost,
                         const std::vector<double>& worker_speed_factor,
                         const ItemTail& tail = {});

/// Earliest-free-worker assignment where item i only becomes runnable at
/// `release_time[i]` — the shape of the overlapped λ scan, which releases
/// each precinct's sizing job the moment the greedy prefix covering its
/// blocks is decided.  Items are admitted in release order (index breaks
/// ties, mirroring a FIFO fed as items become ready); each goes to the
/// worker that can start it earliest (smallest max(free, release), lowest
/// index breaks ties).  With all releases zero this equals
/// schedule_virtual.
Schedule schedule_virtual_released(
    const std::vector<double>& item_cost,
    const std::vector<double>& worker_speed_factor,
    const std::vector<double>& release_time);

/// Result of an ordered-completion hand-off replay.
struct HandoffSchedule {
  std::vector<double> finish;  ///< Consumer finish time per event, in order.
  double makespan = 0;         ///< finish.back() (0 when empty).
  double busy = 0;             ///< Serial work performed (sum of costs).
  double stall = 0;            ///< Time the consumer idled waiting on events.
};

/// Replays a serial consumer that processes events in the given order
/// (the streaming Tier-2 stitch appending packets in progression order):
/// event i becomes available at `ready[i]` virtual seconds and costs
/// `cost[i]` on the consumer.  The consumer never reorders: an unready
/// event stalls it even when later events are already available.
HandoffSchedule schedule_ordered_handoff(const std::vector<double>& ready,
                                         const std::vector<double>& cost);

/// One stage of an item in the tile pipeline: `pool` seconds on the item's
/// SPE group, then `serial` seconds on the shared serial resource (the PPE
/// doing Tier-2 stitching).  Either part may be zero.
struct PipelinePhase {
  double pool = 0;
  double serial = 0;
};

/// Result of a deterministic pipeline replay.
struct PipelineSchedule {
  std::vector<std::size_t> item_group;  ///< Group index per item.
  std::vector<double> item_finish;      ///< Virtual finish time per item.
  double makespan = 0;
};

/// Replays a tile pipeline in virtual time: items (tiles) are admitted in
/// order to the earliest-free group (lowest index breaks ties); each phase
/// occupies the group for its `pool` part, then queues FIFO for the single
/// shared serial resource for its `serial` part.  A group is released after
/// the item's *last pool phase* — a trailing serial-only phase does not
/// hold the group, which is exactly how a later tile's SPE work hides an
/// earlier tile's PPE Tier-2 slot.
PipelineSchedule schedule_pipeline(
    const std::vector<std::vector<PipelinePhase>>& items,
    std::size_t num_groups);

}  // namespace cj2k::decomp
