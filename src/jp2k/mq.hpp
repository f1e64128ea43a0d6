// MQ arithmetic coder probability model shared by encoder and decoder
// (ISO/IEC 15444-1 Annex C).  The coder is a multiplier-free binary
// arithmetic coder driven by a 47-state probability estimation table, which
// the coders index folded with each context's MPS sense (94 states).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace cj2k::jp2k {

/// One row of the Qe probability-estimation table (standard Table C.2).
struct MqStateRow {
  std::uint16_t qe;     ///< LPS probability estimate (scaled).
  std::uint8_t nmps;    ///< Next state after an MPS.
  std::uint8_t nlps;    ///< Next state after an LPS.
  std::uint8_t sw;      ///< 1 if the MPS sense flips on LPS.
};

/// The 47-entry probability state table: the single statement of Table C.2,
/// from which kMqStates is derived.
inline constexpr std::array<MqStateRow, 47> kMqTable = {{
    {0x5601, 1, 1, 1},   {0x3401, 2, 6, 0},   {0x1801, 3, 9, 0},
    {0x0AC1, 4, 12, 0},  {0x0521, 5, 29, 0},  {0x0221, 38, 33, 0},
    {0x5601, 7, 6, 1},   {0x5401, 8, 14, 0},  {0x4801, 9, 14, 0},
    {0x3801, 10, 14, 0}, {0x3001, 11, 17, 0}, {0x2401, 12, 18, 0},
    {0x1C01, 13, 20, 0}, {0x1601, 29, 21, 0}, {0x5601, 15, 14, 1},
    {0x5401, 16, 14, 0}, {0x5101, 17, 15, 0}, {0x4801, 18, 16, 0},
    {0x3801, 19, 17, 0}, {0x3401, 20, 18, 0}, {0x3001, 21, 19, 0},
    {0x2801, 22, 19, 0}, {0x2401, 23, 20, 0}, {0x2201, 24, 21, 0},
    {0x1C01, 25, 22, 0}, {0x1801, 26, 23, 0}, {0x1601, 27, 24, 0},
    {0x1401, 28, 25, 0}, {0x1201, 29, 26, 0}, {0x1101, 30, 27, 0},
    {0x0AC1, 31, 28, 0}, {0x09C1, 32, 29, 0}, {0x08A1, 33, 30, 0},
    {0x0521, 34, 31, 0}, {0x0441, 35, 32, 0}, {0x02A1, 36, 33, 0},
    {0x0221, 37, 34, 0}, {0x0141, 38, 35, 0}, {0x0111, 39, 36, 0},
    {0x0085, 40, 37, 0}, {0x0049, 41, 38, 0}, {0x0025, 42, 39, 0},
    {0x0015, 43, 40, 0}, {0x0009, 44, 41, 0}, {0x0005, 45, 42, 0},
    {0x0001, 45, 43, 0}, {0x5601, 46, 46, 0},
}};

/// One row of the folded transition table: state s = 2·index + mps, so
/// the context's MPS sense rides in the state's low bit and an LPS on a
/// SWITCH row lands on the opposite sense.  The same relabelling of Annex C
/// as OpenJPEG's mqc_states[47 * 2].
struct MqState {
  std::uint32_t qe;     ///< LPS probability estimate of row s / 2.
  std::uint8_t nmps;    ///< Next state after an MPS.
  std::uint8_t nlps;    ///< Next state after an LPS.
};

/// Table C.2 folded with the MPS sense: row 2·i + mps of kMqTable row i.
inline constexpr std::array<MqState, 2 * kMqTable.size()> kMqStates = [] {
  std::array<MqState, 2 * kMqTable.size()> states{};
  for (std::size_t i = 0; i < kMqTable.size(); ++i) {
    const MqStateRow& row = kMqTable[i];
    for (unsigned mps = 0; mps < 2; ++mps) {
      states[2 * i + mps] = {
          row.qe, static_cast<std::uint8_t>(2 * row.nmps + mps),
          static_cast<std::uint8_t>(2 * row.nlps + (mps ^ row.sw))};
    }
  }
  return states;
}();

/// Adaptive context: one kMqStates index, 2·(table index) + MPS sense.
struct MqContext {
  std::uint8_t state = 0;

  /// Resets to the given initial table index with MPS = 0.
  void reset(std::uint8_t initial_index = 0) {
    state = static_cast<std::uint8_t>(2 * initial_index);
  }
};

}  // namespace cj2k::jp2k
