#include "cell/cost_model.hpp"

#include <algorithm>

namespace cj2k::cell {

// Rationale for the defaults in CostParams (see also DESIGN.md):
//
//  * spe_mul_i_emul = 4: Table 1 gives mpyh 7 / mpyu 7 / a 2 cycle latency;
//    a 32-bit multiply needs mpyh(a,b) + mpyh(b,a) + mpyu(a,b) + two adds.
//    In a pipelined loop the *issue* cost is ~4-5 slots vs 1 for fm — this
//    is exactly the fixed-vs-float argument of §4.
//  * spe_branch = 10: no dynamic prediction; a mispredicted branch costs
//    ~18 cycles and compiler hints halve the miss rate in practice.
//  * t1 cycles/symbol: EBCOT context modeling is ~15 instructions and 2-4
//    data-dependent branches per decision plus the MQ coder update.  On the
//    P4 (OoO, branch predictor) that lands near 55-60 cycles; the in-order
//    PPE pays ~1.25x; the SPE, with no branch prediction and scalar-on-
//    vector execution, ~2x the PPE.  These put "1 PPE beats 1 SPE on
//    Tier-1" (Fig. 4/5 text) in the model by construction of the hardware,
//    not by fitting the result.
//  * p4_mem_bw = 6.4 GB/s: 800 MHz FSB. chip_mem_bw = 25.6 GB/s XDR.

double CostModel::spe_seconds(const OpCounters& c) const {
  // Dual issue: even (arithmetic) and odd (ls/shuffle) pipes overlap.
  const double even =
      static_cast<double>(c.v_add + c.v_mul_f + c.v_shift + c.v_cmp_sel +
                          c.v_cvt) *
          p_.spe_even_op +
      static_cast<double>(c.v_mul_i_emul) * p_.spe_mul_i_emul;
  const double odd =
      static_cast<double>(c.v_load + c.v_store + c.v_shuffle) * p_.spe_odd_op;
  const double scalar = static_cast<double>(c.s_int + c.s_float) *
                            p_.spe_scalar_op +
                        static_cast<double>(c.s_branch) * p_.spe_branch;
  const double t1 = static_cast<double>(c.t1_symbols) *
                    p_.spe_t1_cycles_per_symbol;
  const double cycles = std::max(even, odd) + scalar + t1;
  return cycles / p_.clock_hz;
}

double CostModel::ppe_seconds(const OpCounters& c) const {
  // The PPE runs the same stage as scalar code: 4 lane-ops per vector op.
  const double lane_ops = 4.0 * static_cast<double>(
      c.v_add + c.v_mul_f + c.v_shift + c.v_cmp_sel + c.v_cvt +
      c.v_mul_i_emul + c.v_load + c.v_store);
  const double cycles =
      lane_ops * p_.ppe_lane_op +
      static_cast<double>(c.s_int) * p_.ppe_scalar_op +
      static_cast<double>(c.s_float) * p_.ppe_float_op +
      static_cast<double>(c.s_branch) * p_.ppe_branch +
      static_cast<double>(c.t1_symbols) * p_.ppe_t1_cycles_per_symbol;
  return cycles / p_.clock_hz;
}

std::uint64_t CostModel::effective_dma_bytes(const OpCounters& c) const {
  // Penalize the share of transfers that missed the cache-line path.
  const std::uint64_t bytes = c.dma_bytes();
  if (c.dma_transfers == 0 || c.dma_unaligned == 0) return bytes;
  const double frac = static_cast<double>(c.dma_unaligned) /
                      static_cast<double>(c.dma_transfers);
  return static_cast<std::uint64_t>(
      static_cast<double>(bytes) *
      (1.0 + frac * (p_.unaligned_dma_penalty - 1.0)));
}

double CostModel::spe_dma_seconds(const OpCounters& c) const {
  return static_cast<double>(effective_dma_bytes(c)) / p_.spe_max_bw;
}

double CostModel::spe_dma_async_seconds(const OpCounters& c) const {
  const std::uint64_t bytes = c.dma_bytes();
  if (bytes == 0 || c.dma_bytes_tagged == 0) return 0.0;
  const double frac = std::min(
      1.0, static_cast<double>(c.dma_bytes_tagged) /
               static_cast<double>(bytes));
  return spe_dma_seconds(c) * frac;
}

double CostModel::spe_busy_seconds(const OpCounters& c,
                                   bool overlap_dma) const {
  const double compute = spe_seconds(c);
  const double dma = spe_dma_seconds(c);
  if (!overlap_dma) return compute + dma;
  const double dma_async = spe_dma_async_seconds(c);
  return std::max(compute, dma_async) + (dma - dma_async);
}

}  // namespace cj2k::cell
