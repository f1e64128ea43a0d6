// Shared SPE pool carving for the encode service (DESIGN.md §12).
//
// One cell::MachineConfig describes the whole blade; the pool carves its
// SPEs into equal-width lease groups (the same >=8-SPE group unit
// decomp::plan_tile_groups uses inside one tiled encode).  It only does the
// carving arithmetic: which job holds which group is decided on the virtual
// clock by service::schedule_service, so the pool keeps no lease state and
// takes no lock.  A lease of N groups maps to a MachineConfig with
// N*group_spes SPEs and a proportional share of the pool's PPE threads and
// memory bandwidth — exactly how cellenc/stage_tile builds its per-group
// machines, so a job encoded on a lease reproduces the group-machine
// counters of a tiled run at the same width.  The codestream is machine-
// width-independent, so any lease width yields bytes identical to a
// standalone full-pool encode; only the simulated timing changes.
#pragma once

#include <cstddef>

#include "cell/machine.hpp"

namespace cj2k::service {

class SpePool {
 public:
  /// Carves `pool` into max(1, num_spes / group_spes) groups of
  /// min(group_spes, num_spes) SPEs.  SPEs past the last full group stay
  /// unused (reported by unused_spes()).
  SpePool(const cell::MachineConfig& pool, int group_spes);

  std::size_t num_groups() const { return num_groups_; }
  int group_spes() const { return group_spes_; }
  int unused_spes() const;
  const cell::MachineConfig& pool_config() const { return pool_; }

  /// Machine configuration for a lease of `groups` groups: groups *
  /// group_spes SPEs, a proportional PPE-thread and memory-bandwidth share
  /// (mirrors the group machines of cellenc/stage_tile).
  cell::MachineConfig lease_config(std::size_t groups) const;

 private:
  cell::MachineConfig pool_;
  int group_spes_;
  std::size_t num_groups_;
};

}  // namespace cj2k::service
