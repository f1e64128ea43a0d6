// Memo differential harness (DESIGN.md §13): a CellEncoder's second encode
// of a draw charges its front from the FrontMemo and runs that front as
// host code on main memory; it must give byte-identical codestreams to the
// first, counted encode on every draw of a randomized sweep over dirty
// geometries × wavelets × block coders × layer/progression/rate
// combinations × tile grids × SPE counts × column-group overrides.
//
// The sweep is sharded into independent gtest cases (each with its own
// deterministically derived seed) so ctest runs the shards in parallel and
// a failure pinpoints its shard.  8 shards × 25 draws = 200 draws per run.
// Every fifth draw also pins both against the serial jp2k::encode
// reference, so the two paths drifting together still fails.
#include <gtest/gtest.h>

#include "cellenc/pipeline.hpp"
#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "encode_draw.hpp"
#include "image/synth.hpp"
#include "jp2k/encoder.hpp"

namespace cj2k {
namespace {

using test::config;
using test::Draw;
using test::make_draw;

constexpr int kShards = 8;
constexpr int kDrawsPerShard = 25;

class BackendDiff : public ::testing::TestWithParam<int> {};

TEST_P(BackendDiff, MemoHitMatchesCountedByteForByte) {
  const int shard = GetParam();
  Rng rng(0xBADC0DE5EEDull + static_cast<std::uint64_t>(shard) * 7919);
  for (int draw = 0; draw < kDrawsPerShard; ++draw) {
    const Draw d = make_draw(
        rng, 5000 + static_cast<std::uint64_t>(shard * kDrawsPerShard +
                                               draw));
    const Image img = synth::photographic(d.width, d.height, 3, d.image_seed);

    // The first encode counts (tile 0 at least: later tiles of the same
    // shape already hit); the second charges every front from the memo.
    cellenc::CellEncoder enc(config(d.spes, d.ppes));
    const auto counted = enc.encode(img, d.params, d.opt);
    const auto hit = enc.encode(img, d.params, d.opt);
    ASSERT_LT(counted.front_memo_hits, counted.tiles) << d.describe();
    ASSERT_EQ(hit.front_memo_hits, hit.tiles) << d.describe();

    ASSERT_EQ(common::sha256_hex(hit.codestream),
              common::sha256_hex(counted.codestream))
        << "shard=" << shard << " draw=" << draw << " " << d.describe();

    if (draw % 5 == 0) {
      const auto serial = jp2k::encode(img, d.params);
      ASSERT_EQ(counted.codestream, serial)
          << "counted-vs-serial shard=" << shard << " draw=" << draw << " "
          << d.describe();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, BackendDiff,
                         ::testing::Range(0, kShards));

}  // namespace
}  // namespace cj2k
