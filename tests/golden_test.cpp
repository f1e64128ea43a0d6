// Golden-vector regression tests: SHA-256 digests of reference codestreams,
// pinned so any byte drift in the encoder — serial or pipelined, any SPE
// count — fails loudly.  The digests were produced by the serial
// jp2k::encode reference; the Cell pipeline must match them bit for bit at
// every machine size (the paper's central byte-identity claim).
//
// If an *intentional* format change lands, regenerate by running this test
// and copying the "actual" digests from the failure output.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cellenc/pipeline.hpp"
#include "common/sha256.hpp"
#include "image/synth.hpp"
#include "jp2k/encoder.hpp"

namespace cj2k {
namespace {

cell::MachineConfig config(int spes, int ppes) {
  cell::MachineConfig cfg;
  cfg.num_spes = spes;
  cfg.num_ppe_threads = ppes;
  return cfg;
}

struct GoldenCase {
  const char* name;
  bool lossy;
  std::size_t tiles;      ///< Grid is tiles × tiles.
  const char* digest;     ///< SHA-256 of the reference codestream.
  jp2k::BlockCoder coder = jp2k::BlockCoder::kEbcot;
};

// The fixed golden workload: one 96×80 RGB synthetic photograph.
Image golden_image() { return synth::photographic(96, 80, 3, 2024); }

jp2k::CodingParams golden_params(const GoldenCase& gc) {
  jp2k::CodingParams p;
  p.levels = 3;
  p.tiles_x = gc.tiles;
  p.tiles_y = gc.tiles;
  p.block_coder = gc.coder;
  if (gc.lossy) {
    p.wavelet = jp2k::WaveletKind::kIrreversible97;
    p.rate = 0.25;
    if (gc.coder == jp2k::BlockCoder::kEbcot) {
      p.layers = 2;  // HT is single-layer: no truncation points
      p.progression = jp2k::Progression::kRLCP;
    }
  }
  return p;
}

const GoldenCase kCases[] = {
    {"lossless_1x1", false, 1,
     "60ff0fbc83da84f3e4ece4bb1b6630c44757c212a62c6c8eefe2e34af7d105c2"},
    {"lossless_2x2", false, 2,
     "d6480a90ff4a73a062bd95ee07e6c4c22fc637a125f7c0742ad467bb3a9c385c"},
    {"lossy_1x1", true, 1,
     "c0fccdefd2b5ad4313fb9d90a8c436c5006be7487a68c89e604f84aaccb96d0f"},
    {"lossy_2x2", true, 2,
     "3afa0ac18278f515685a6ec88c0862c2d2f21acb2d14d5df590982cd81ebca3b"},
    {"ht_lossless_1x1", false, 1,
     "37c43ee361de81e5ed7488d7e0d1312d9c129dc76408ccd2cbb4574271a19c9a",
     jp2k::BlockCoder::kHt},
    {"ht_lossless_2x2", false, 2,
     "a4859183fd0c269004fd9f6413bcc22a47c704861b4056e3d8fd631f0793bd5a",
     jp2k::BlockCoder::kHt},
    {"ht_lossy_1x1", true, 1,
     "d296b35c301ff4eac14ad307bdb810175550c00b49ffa4388ff7eb492ebd0553",
     jp2k::BlockCoder::kHt},
    {"ht_lossy_2x2", true, 2,
     "6d061b693e3b325452adf7885846804e27715fd31ba4c97faacef3d109971f8b",
     jp2k::BlockCoder::kHt},
};

// Simulated seconds of every pipeline stage at 8 SPEs + 2 PPE threads,
// pinned bit for bit (hex-float literals).  They are a pure function of the
// op counters the counting kernels charge, so a kernel refactor that moves
// a single counter fails here before any benchmark figure drifts.
struct StagePin {
  const char* stage;
  double seconds;
};
struct StageSecondsPin {
  const char* name;
  std::vector<StagePin> stages;
};

const StageSecondsPin kStageSecondsAt8Spes[] = {
    {"lossless_1x1",
     {{"read", 0x1.e32f0ee144531p-18},
      {"levelshift+mct", 0x1.e32f0ee144531p-18},
      {"dwt", 0x1.110c97bdf746ep-15},
      {"tier1", 0x1.12c8c5004fb12p-11},
      {"t2", 0x1.e7e70486777dep-14}}},
    {"lossless_2x2",
     {{"read", 0x1.6255b5942109cp-17},
      {"levelshift+mct", 0x1.21e908ed8f65p-17},
      {"dwt", 0x1.405c66884a3bdp-15},
      {"tier1", 0x1.35e74299d883cp-11},
      {"t2", 0x1.1d2905b2c768p-13}}},
    {"lossy_1x1",
     {{"read", 0x1.e32f0ee144531p-18},
      {"levelshift+ict", 0x1.e32f0ee144531p-18},
      {"dwt", 0x1.41bbb725c68e3p-15},
      {"quant", 0x1.e32f0ee144531p-18},
      {"tier1", 0x1.efc0823baf02cp-11},
      {"rate", 0x1.8889d1d06cbf7p-14},
      {"t2", 0x1.779994911c1c8p-17}}},
    {"lossy_2x2",
     {{"read", 0x1.6255b5942109cp-17},
      {"levelshift+ict", 0x1.21e908ed8f65p-17},
      {"dwt", 0x1.abc99cec8a575p-15},
      {"quant", 0x1.e32f0ee144532p-18},
      {"tier1", 0x1.4c890fde9a54cp-10},
      {"rate", 0x1.0469463faa64fp-14},
      {"t2", 0x1.80788b570baa5p-17}}},
    {"ht_lossless_1x1",
     {{"read", 0x1.e32f0ee144531p-18},
      {"levelshift+mct", 0x1.e32f0ee144531p-18},
      {"dwt", 0x1.110c97bdf746ep-15},
      {"tier1", 0x1.c4fc1df3300dep-16},
      {"t2", 0x1.4cf9add667804p-13}}},
    {"ht_lossless_2x2",
     {{"read", 0x1.6255b5942109cp-17},
      {"levelshift+mct", 0x1.21e908ed8f65p-17},
      {"dwt", 0x1.405c66884a3bdp-15},
      {"tier1", 0x1.f24887584e75ap-16},
      {"t2", 0x1.7c3d68405b39ep-13}}},
    {"ht_lossy_1x1",
     {{"read", 0x1.e32f0ee144531p-18},
      {"levelshift+ict", 0x1.e32f0ee144531p-18},
      {"dwt", 0x1.41bbb725c68e3p-15},
      {"quant", 0x1.e32f0ee144531p-18},
      {"tier1", 0x1.c4fc1df3300dep-16},
      {"t2", 0x1.cd1c7de5082cfp-14}}},
    {"ht_lossy_2x2",
     {{"read", 0x1.6255b5942109cp-17},
      {"levelshift+ict", 0x1.21e908ed8f65p-17},
      {"dwt", 0x1.abc99cec8a575p-15},
      {"quant", 0x1.e32f0ee144532p-18},
      {"tier1", 0x1.f24887584e75ap-16},
      {"t2", 0x1.156d4f8eb38c9p-13}}},
};

class Golden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(Golden, SerialReferenceMatchesPinnedDigest) {
  const GoldenCase& gc = GetParam();
  const auto bytes = jp2k::encode(golden_image(), golden_params(gc));
  EXPECT_EQ(common::sha256_hex(bytes), gc.digest) << gc.name;
}

TEST_P(Golden, PipelineMatchesPinnedDigestAtEverySpeCount) {
  const GoldenCase& gc = GetParam();
  const Image img = golden_image();
  const jp2k::CodingParams p = golden_params(gc);
  for (int spes : {1, 8, 16}) {
    cellenc::CellEncoder enc(config(spes, 2));
    const auto res = enc.encode(img, p);
    EXPECT_EQ(common::sha256_hex(res.codestream), gc.digest)
        << gc.name << " at " << spes << " SPEs";
  }
}

// A warm encoder's second encode runs every tile front as host code on main
// memory and charges the memoized timings; it must hit the same pinned
// digests and stage seconds (DESIGN.md §13).
TEST_P(Golden, MemoHitMatchesPinnedDigest) {
  const GoldenCase& gc = GetParam();
  const Image img = golden_image();
  const jp2k::CodingParams p = golden_params(gc);
  for (int spes : {1, 16}) {
    cellenc::CellEncoder enc(config(spes, 2));
    const auto counted = enc.encode(img, p);
    const auto hit = enc.encode(img, p);
    EXPECT_EQ(hit.front_memo_hits, hit.tiles) << gc.name;
    EXPECT_EQ(common::sha256_hex(hit.codestream), gc.digest)
        << gc.name << " at " << spes << " SPEs (memo hit)";
    ASSERT_EQ(hit.stages.size(), counted.stages.size()) << gc.name;
    for (std::size_t i = 0; i < hit.stages.size(); ++i) {
      EXPECT_EQ(hit.stages[i].seconds, counted.stages[i].seconds)
          << gc.name << " stage " << hit.stages[i].name;
    }
  }
}

TEST_P(Golden, PipelineStageSecondsMatchPinnedAt8Spes) {
  const GoldenCase& gc = GetParam();
  const StageSecondsPin* pin = nullptr;
  for (const auto& p : kStageSecondsAt8Spes) {
    if (std::string(p.name) == gc.name) pin = &p;
  }
  ASSERT_NE(pin, nullptr) << gc.name;
  cellenc::CellEncoder enc(config(8, 2));
  const auto res = enc.encode(golden_image(), golden_params(gc));
  ASSERT_EQ(res.stages.size(), pin->stages.size()) << gc.name;
  for (std::size_t i = 0; i < res.stages.size(); ++i) {
    EXPECT_EQ(res.stages[i].name, pin->stages[i].stage) << gc.name;
    EXPECT_EQ(res.stages[i].seconds, pin->stages[i].seconds)
        << gc.name << " stage " << res.stages[i].name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGoldenVectors, Golden, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace cj2k
