#include "service/spe_pool.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cj2k::service {

SpePool::SpePool(const cell::MachineConfig& pool, int group_spes)
    : pool_(pool) {
  CJ2K_CHECK_MSG(pool.num_spes >= 1, "SpePool needs at least one SPE");
  CJ2K_CHECK_MSG(group_spes >= 1, "group_spes must be positive");
  group_spes_ = std::min(group_spes, pool.num_spes);
  num_groups_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(pool.num_spes / group_spes_));
}

int SpePool::unused_spes() const {
  return pool_.num_spes - static_cast<int>(num_groups()) * group_spes_;
}

cell::MachineConfig SpePool::lease_config(std::size_t groups) const {
  CJ2K_CHECK_MSG(groups >= 1 && groups <= num_groups(),
                 "lease width out of range");
  const std::size_t total = num_groups();
  cell::MachineConfig mc = pool_;
  mc.num_spes = static_cast<int>(groups) * group_spes_;
  mc.num_ppe_threads = static_cast<int>(
      static_cast<std::size_t>(pool_.num_ppe_threads) * groups / total);
  mc.chips = 1;
  mc.cost.chip_mem_bw = pool_.cost.chip_mem_bw *
                        static_cast<double>(pool_.chips) *
                        static_cast<double>(groups) /
                        static_cast<double>(total);
  return mc;
}

}  // namespace cj2k::service
