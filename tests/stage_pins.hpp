// Helpers shared by the Cell stage pin suites (dwt_stage_pins_test.cpp and
// front_stage_pins_test.cpp): the exact text of a StageTiming, the SHA-256
// of a plane's visible samples, and the check of one case against a table
// of pins.
//
// Every StageTiming field except the host wall seconds goes into the text,
// doubles as hex floats, so a refactor that reorders one DMA transfer or
// moves one op counter changes a pinned string.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cell/machine.hpp"
#include "common/sha256.hpp"
#include "common/span2d.hpp"

namespace cj2k::cellenc::pins {

struct Pin {
  const char* key;
  const char* timing;
  const char* digest;
};

inline std::string timing_text(const cell::StageTiming& t) {
  char buf[640];
  std::snprintf(buf, sizeof(buf),
                "%s seconds=%a spe_compute=%a spe_dma=%a dma_aggregate=%a "
                "ppe=%a overlap_saved=%a dma_overlap_saved=%a dma_bytes=%llu "
                "busy=%a dma_wait=%a queue_empty=%a ppe_serial=%a "
                "channel_stall=%a",
                t.name.c_str(), t.seconds, t.spe_compute, t.spe_dma,
                t.dma_aggregate, t.ppe, t.overlap_saved, t.dma_overlap_saved,
                static_cast<unsigned long long>(t.dma_bytes), t.stall.busy,
                t.stall.dma_wait, t.stall.queue_empty, t.stall.ppe_serial,
                t.stall.channel_stall);
  return buf;
}

/// SHA-256 over the planes' visible samples (never the stride padding),
/// plane after plane.
template <class T>
std::string planes_digest(const std::vector<Span2d<T>>& planes) {
  std::vector<std::uint8_t> bytes;
  for (const Span2d<T>& p : planes) {
    for (std::size_t y = 0; y < p.height(); ++y) {
      const auto* row = reinterpret_cast<const std::uint8_t*>(p.row(y));
      bytes.insert(bytes.end(), row, row + p.width() * sizeof(T));
    }
  }
  return common::sha256_hex(bytes);
}

template <class T>
std::string plane_digest(Span2d<T> p) {
  return planes_digest(std::vector<Span2d<T>>{p});
}

/// Checks one case against the pin with the same key, printing a
/// paste-ready row on any mismatch.  `native_digest` is the output under
/// the HostVec policy, which must match the same pinned digest.  Returns
/// whether a pin was found.
inline bool check_pin(const std::vector<Pin>& table, const std::string& key,
                      const cell::StageTiming& timing,
                      const std::string& digest,
                      const std::string& native_digest) {
  const std::string text = timing_text(timing);
  const Pin* pin = nullptr;
  for (const Pin& p : table) {
    if (key == p.key) pin = &p;
  }
  const std::string row = "    {\"" + key + "\",\n     \"" + text +
                          "\",\n     \"" + digest + "\"},";
  if (pin == nullptr) {
    ADD_FAILURE() << "no pin; actual:\n" << row;
    return false;
  }
  EXPECT_EQ(text, pin->timing) << "actual:\n" << row;
  EXPECT_EQ(digest, pin->digest) << "cell::Simd output";
  EXPECT_EQ(native_digest, pin->digest) << "HostVec output";
  return true;
}

}  // namespace cj2k::cellenc::pins
