// Pins of the Cell DWT stage (cellenc/stage_dwt, DESIGN.md §4), called
// directly rather than through the pipeline: stage_dwt53, stage_dwt97 and
// stage_dwt97_fixed over the merged and the multipass vertical schedules
// (merged only for Q13, which always runs merged), automatic and fixed
// 24-element column groups, and 0, 1 and 8 SPEs — so ablations A and C, the
// Q13 path, the PPE remainder columns and the PPE-only horizontal pass all
// have a gate, not only the pipeline's default merged/auto case at 8 SPEs.
//
// Every StageTiming field except the host wall seconds is pinned exactly
// (doubles as hex-float text): the simulated seconds are a pure function of
// the op counters and the DMA issue sequence, so a kernel refactor that
// reorders one transfer or moves one counter fails here.  The output plane
// is pinned by its SHA-256 under both the counting cell::Simd policy and
// the native HostVec policy, and every run must keep the DMA tag discipline
// clean under the runtime audit.
//
// Every output digest must also equal the digest of the serial
// jp2k::forward53/forward97/forward97_fixed on the same plane, so a pinned
// digest is always a wavelet transform: at 0 SPEs the PPE runs the fixed
// 24-element column groups as well as the remainder columns.
//
// If an *intentional* change lands, regenerate by running this suite and
// copying the "actual" rows from the failure output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "cell/audit.hpp"
#include "cell/machine.hpp"
#include "cellenc/stage_dwt.hpp"
#include "common/aligned_buffer.hpp"
#include "common/align.hpp"
#include "common/rng.hpp"
#include "image/image.hpp"
#include "jp2k/dwt2d.hpp"
#include "stage_pins.hpp"

namespace cj2k::cellenc {
namespace {

enum class Filter { k53, k97, kQ13 };

struct Shape {
  const char* name;
  std::size_t width;
  std::size_t height;
};

// An odd-sized plane at 3 levels, plus the two degenerate extents.
const Shape kShapes[] = {
    {"203x77", 203, 77}, {"203x1", 203, 1}, {"1x77", 1, 77}};
constexpr int kLevels = 3;

using pins::Pin;
using pins::plane_digest;

struct Result {
  cell::StageTiming timing;
  std::string digest;
  std::string serial_digest;  ///< The serial transform of the same plane.
  cell::AuditReport audit;
};

// One stage call on a fresh machine over a seeded plane.  Integer samples
// are level-shifted 8-bit values; Q13 shifts them into fixed point and the
// float transform takes them as floats.
Result run(Filter f, const Shape& sh, const DwtOptions& opt, int spes,
           backend::BackendKind bk) {
  cell::MachineConfig cfg;
  cfg.num_spes = spes;
  cell::Machine m(cfg);
  cell::AuditConfig acfg;
  acfg.enabled = true;
  cell::InvariantAudit audit(acfg);
  m.attach_audit(&audit);

  const std::size_t stride = round_up(sh.width, kCacheLineBytes / 4);
  Rng rng(0xd1f7 + sh.width * 131 + sh.height);
  Result r;
  if (f == Filter::k97) {
    AlignedBuffer<float> buf(stride * sh.height);
    Span2d<float> p(buf.data(), sh.width, sh.height, stride);
    for (std::size_t y = 0; y < sh.height; ++y) {
      for (std::size_t x = 0; x < sh.width; ++x) {
        p(y, x) = static_cast<float>(rng.next_in(-128, 127));
      }
    }
    std::vector<float> serial(p.data(), p.data() + stride * sh.height);
    Span2d<float> sp(serial.data(), sh.width, sh.height, stride);
    jp2k::forward97({sp}, kLevels);
    r.serial_digest = plane_digest(sp);
    r.timing = stage_dwt97(m, p, kLevels, opt, bk);
    r.digest = plane_digest(p);
  } else {
    Plane plane(sh.width, sh.height);
    Span2d<Sample> p = plane.view();
    const int shift = f == Filter::kQ13 ? 13 : 0;
    for (std::size_t y = 0; y < sh.height; ++y) {
      for (std::size_t x = 0; x < sh.width; ++x) {
        p(y, x) = static_cast<Sample>(rng.next_in(-128, 127) * (1 << shift));
      }
    }
    Plane serial(sh.width, sh.height);
    for (std::size_t y = 0; y < sh.height; ++y) {
      std::copy_n(p.row(y), sh.width, serial.row(y));
    }
    if (f == Filter::kQ13) {
      jp2k::forward97_fixed({serial.view()}, kLevels);
    } else {
      jp2k::forward53({serial.view()}, kLevels);
    }
    r.serial_digest = plane_digest(serial.view());
    r.timing = f == Filter::kQ13 ? stage_dwt97_fixed(m, p, kLevels, opt, bk)
                                 : stage_dwt53(m, p, kLevels, opt, bk);
    r.digest = plane_digest(p);
  }
  m.attach_audit(nullptr);
  r.audit = audit.report();
  return r;
}

// Walks the case grid in a fixed order and checks each case against `pins`
// (looked up by key), printing a paste-ready row for any mismatch.
void check_filter(Filter f, const std::vector<Pin>& pins) {
  const bool multipass = f != Filter::kQ13;
  std::size_t checked = 0;
  for (const Shape& sh : kShapes) {
    for (const bool merged : {true, false}) {
      if (!merged && !multipass) continue;
      for (const std::size_t cg : {std::size_t{0}, std::size_t{24}}) {
        for (const int spes : {0, 1, 8}) {
          char key[96];
          std::snprintf(key, sizeof(key), "%s %s cg%zu spe%d", sh.name,
                        merged ? "merged" : "multipass", cg, spes);
          SCOPED_TRACE(key);
          DwtOptions opt;
          opt.merged_vertical = merged;
          opt.colgroup_elems = cg;
          const Result cellr =
              run(f, sh, opt, spes, backend::BackendKind::kCellModel);
          const Result native =
              run(f, sh, opt, spes, backend::BackendKind::kNative);
          EXPECT_EQ(cellr.audit.tag_hazards(), 0u) << cellr.audit.summary();
          EXPECT_EQ(native.audit.tag_hazards(), 0u) << native.audit.summary();
          EXPECT_EQ(cellr.audit.ls_over_budget, 0u);
          EXPECT_EQ(cellr.digest, cellr.serial_digest)
              << "not the serial transform of the same plane";

          if (pins::check_pin(pins, key, cellr.timing, cellr.digest,
                              native.digest)) {
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, pins.size());
}

TEST(DwtStagePins, Reversible53) {
  check_filter(Filter::k53, {
    {"203x77 merged cg0 spe0",
     "dwt53 seconds=0x1.296d61ad441b6p-13 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.296d61ad441b6p-13 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.296d61ad441b6p-13 channel_stall=0x0p+0",
     "18e0c90edebeba89a2cf626a44b659919ed1c67cc0dda3d04c71f3b3d806db8a"},
    {"203x77 merged cg0 spe1",
     "dwt53 seconds=0x1.517fd80517ca8p-15 spe_compute=0x1.17d9658c76c66p-15 spe_dma=0x1.b5480710fc8dcp-16 dma_aggregate=0x1.114d046a9dd89p-16 ppe=0x1.51088636656ccp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x1.4b2d4fef568f9p-16 dma_bytes=417024 busy=0x1.17d9658c76c66p-15 dma_wait=0x1.95c0b5d700c7p-18 queue_empty=0x0p+0 ppe_serial=0x1.bb96ef703ad09p-21 channel_stall=0x0p+0",
     "18e0c90edebeba89a2cf626a44b659919ed1c67cc0dda3d04c71f3b3d806db8a"},
    {"203x77 merged cg0 spe8",
     "dwt53 seconds=0x1.222ed3fdee82dp-16 spe_compute=0x1.5b0c15371ed03p-18 spe_dma=0x1.410c7e8255c9fp-18 dma_aggregate=0x1.114d046a9dd89p-16 ppe=0x1.51088636656ccp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=417024 busy=0x1.18771a3dc3daep-18 dma_wait=0x1.8e50e621878f3p-17 queue_empty=0x0p+0 ppe_serial=0x1.4e89a5db9c487p-20 channel_stall=0x0p+0",
     "18e0c90edebeba89a2cf626a44b659919ed1c67cc0dda3d04c71f3b3d806db8a"},
    {"203x77 merged cg24 spe0",
     "dwt53 seconds=0x1.296d61ad441b6p-13 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.296d61ad441b6p-13 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.296d61ad441b6p-13 channel_stall=0x0p+0",
     "18e0c90edebeba89a2cf626a44b659919ed1c67cc0dda3d04c71f3b3d806db8a"},
    {"203x77 merged cg24 spe1",
     "dwt53 seconds=0x1.c695e23b2f3c3p-15 spe_compute=0x1.19e6dbeca55a4p-15 spe_dma=0x1.56a8697c56a3dp-15 dma_aggregate=0x1.ac5283db6c4cep-16 ppe=0x1.0736ab0cde8acp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x1.53f2c65b9983ep-16 dma_bytes=420864 busy=0x1.19e6dbeca55a4p-15 dma_wait=0x1.595e0c9d13c3fp-16 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "18e0c90edebeba89a2cf626a44b659919ed1c67cc0dda3d04c71f3b3d806db8a"},
    {"203x77 merged cg24 spe8",
     "dwt53 seconds=0x1.ac5283db6c4cep-16 spe_compute=0x1.3bac7e78abe35p-18 spe_dma=0x1.ae089a0b0c2b3p-18 dma_aggregate=0x1.ac5283db6c4cep-16 ppe=0x1.0736ab0cde8acp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x1.f8a89dc374ep-26 dma_bytes=420864 busy=0x1.19e6dbeca55a4p-18 dma_wait=0x1.65d8cce042f65p-16 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "18e0c90edebeba89a2cf626a44b659919ed1c67cc0dda3d04c71f3b3d806db8a"},
    {"203x77 multipass cg0 spe0",
     "dwt53 seconds=0x1.296d61ad441b6p-13 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.296d61ad441b6p-13 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.296d61ad441b6p-13 channel_stall=0x0p+0",
     "18e0c90edebeba89a2cf626a44b659919ed1c67cc0dda3d04c71f3b3d806db8a"},
    {"203x77 multipass cg0 spe1",
     "dwt53 seconds=0x1.c61146cf47508p-15 spe_compute=0x1.17d9658c76c66p-15 spe_dma=0x1.533c3d1d16e72p-15 dma_aggregate=0x1.a80b4c645ca0ep-16 ppe=0x1.51088636656ccp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x1.4b2d4fef568f9p-16 dma_bytes=647040 busy=0x1.17d9658c76c66p-15 dma_wait=0x1.56a0a09ef1724p-16 queue_empty=0x0p+0 ppe_serial=0x1.73c879abe87bcp-22 channel_stall=0x0p+0",
     "18e0c90edebeba89a2cf626a44b659919ed1c67cc0dda3d04c71f3b3d806db8a"},
    {"203x77 multipass cg0 spe8",
     "dwt53 seconds=0x1.b3e49e7aa9ea4p-16 spe_compute=0x1.5b0c15371ed03p-18 spe_dma=0x1.0e0bcb29227dp-17 dma_aggregate=0x1.a80b4c645ca0ep-16 ppe=0x1.51088636656ccp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=647040 busy=0x1.18771a3dc3daep-18 dma_wait=0x1.59dff0401975ap-16 queue_empty=0x0p+0 ppe_serial=0x1.3e6e7ab1f7df5p-20 channel_stall=0x0p+0",
     "18e0c90edebeba89a2cf626a44b659919ed1c67cc0dda3d04c71f3b3d806db8a"},
    {"203x77 multipass cg24 spe0",
     "dwt53 seconds=0x1.296d61ad441b6p-13 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.296d61ad441b6p-13 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.296d61ad441b6p-13 channel_stall=0x0p+0",
     "18e0c90edebeba89a2cf626a44b659919ed1c67cc0dda3d04c71f3b3d806db8a"},
    {"203x77 multipass cg24 spe1",
     "dwt53 seconds=0x1.5de6901764cb7p-14 spe_compute=0x1.19e6dbeca55a4p-15 spe_dma=0x1.25efd3b7f87f4p-14 dma_aggregate=0x1.6f6bc8a5f69f3p-15 ppe=0x1.0736ab0cde8acp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x1.53f2c65b9983dp-16 dma_bytes=654720 busy=0x1.19e6dbeca55a4p-15 dma_wait=0x1.a1e64442243ccp-15 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "18e0c90edebeba89a2cf626a44b659919ed1c67cc0dda3d04c71f3b3d806db8a"},
    {"203x77 multipass cg24 spe8",
     "dwt53 seconds=0x1.6f6bc8a5f69f3p-15 spe_compute=0x1.3bac7e78abe35p-18 spe_dma=0x1.7b4c9ee179799p-17 dma_aggregate=0x1.6f6bc8a5f69f3p-15 ppe=0x1.0736ab0cde8acp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=654720 busy=0x1.19e6dbeca55a4p-18 dma_wait=0x1.4c2eed2861f3fp-15 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "18e0c90edebeba89a2cf626a44b659919ed1c67cc0dda3d04c71f3b3d806db8a"},
    {"203x1 merged cg0 spe0",
     "dwt53 seconds=0x1.487f75abfea1p-19 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.487f75abfea1p-19 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.487f75abfea1p-19 channel_stall=0x0p+0",
     "6343e82972cf0409032ed530516fafcdd18c29927532164b4f7d9af85864f39c"},
    {"203x1 merged cg0 spe1",
     "dwt53 seconds=0x1.310281649987bp-21 spe_compute=0x1.dd24deb1a6abbp-22 spe_dma=0x1.bead3593f1cb1p-23 dma_aggregate=0x1.172c417c771efp-23 ppe=0x1.09c0482f18c75p-23 overlap_saved=0x0p+0 dma_overlap_saved=0x1.bead3593f1cb2p-23 dma_bytes=3328 busy=0x1.dd24deb1a6abbp-22 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.09c0482f18c75p-23 channel_stall=0x0p+0",
     "6343e82972cf0409032ed530516fafcdd18c29927532164b4f7d9af85864f39c"},
    {"203x1 merged cg0 spe8",
     "dwt53 seconds=0x1.310281649987bp-21 spe_compute=0x1.dd24deb1a6abbp-22 spe_dma=0x1.bead3593f1cb1p-23 dma_aggregate=0x1.172c417c771efp-23 ppe=0x1.09c0482f18c75p-23 overlap_saved=0x0p+0 dma_overlap_saved=0x1.bead3593f1cb2p-23 dma_bytes=3328 busy=0x1.dd24deb1a6abbp-25 dma_wait=0x0p+0 queue_empty=0x1.a18042db71d64p-22 ppe_serial=0x1.09c0482f18c75p-23 channel_stall=0x0p+0",
     "6343e82972cf0409032ed530516fafcdd18c29927532164b4f7d9af85864f39c"},
    {"203x1 merged cg24 spe0",
     "dwt53 seconds=0x1.487f75abfea1p-19 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.487f75abfea1p-19 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.487f75abfea1p-19 channel_stall=0x0p+0",
     "6343e82972cf0409032ed530516fafcdd18c29927532164b4f7d9af85864f39c"},
    {"203x1 merged cg24 spe1",
     "dwt53 seconds=0x1.137b5ced96c6ep-21 spe_compute=0x1.dd24deb1a6abbp-22 spe_dma=0x1.bead3593f1cb1p-23 dma_aggregate=0x1.172c417c771efp-23 ppe=0x1.27476ca61b882p-24 overlap_saved=0x0p+0 dma_overlap_saved=0x1.bead3593f1cb2p-23 dma_bytes=3328 busy=0x1.dd24deb1a6abbp-22 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.27476ca61b882p-24 channel_stall=0x0p+0",
     "6343e82972cf0409032ed530516fafcdd18c29927532164b4f7d9af85864f39c"},
    {"203x1 merged cg24 spe8",
     "dwt53 seconds=0x1.137b5ced96c6ep-21 spe_compute=0x1.dd24deb1a6abbp-22 spe_dma=0x1.bead3593f1cb1p-23 dma_aggregate=0x1.172c417c771efp-23 ppe=0x1.27476ca61b882p-24 overlap_saved=0x0p+0 dma_overlap_saved=0x1.bead3593f1cb2p-23 dma_bytes=3328 busy=0x1.dd24deb1a6abbp-25 dma_wait=0x0p+0 queue_empty=0x1.a18042db71d64p-22 ppe_serial=0x1.27476ca61b882p-24 channel_stall=0x0p+0",
     "6343e82972cf0409032ed530516fafcdd18c29927532164b4f7d9af85864f39c"},
    {"203x1 multipass cg0 spe0",
     "dwt53 seconds=0x1.487f75abfea1p-19 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.487f75abfea1p-19 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.487f75abfea1p-19 channel_stall=0x0p+0",
     "6343e82972cf0409032ed530516fafcdd18c29927532164b4f7d9af85864f39c"},
    {"203x1 multipass cg0 spe1",
     "dwt53 seconds=0x1.310281649987bp-21 spe_compute=0x1.dd24deb1a6abbp-22 spe_dma=0x1.bead3593f1cb1p-23 dma_aggregate=0x1.172c417c771efp-23 ppe=0x1.09c0482f18c75p-23 overlap_saved=0x0p+0 dma_overlap_saved=0x1.bead3593f1cb2p-23 dma_bytes=3328 busy=0x1.dd24deb1a6abbp-22 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.09c0482f18c75p-23 channel_stall=0x0p+0",
     "6343e82972cf0409032ed530516fafcdd18c29927532164b4f7d9af85864f39c"},
    {"203x1 multipass cg0 spe8",
     "dwt53 seconds=0x1.310281649987bp-21 spe_compute=0x1.dd24deb1a6abbp-22 spe_dma=0x1.bead3593f1cb1p-23 dma_aggregate=0x1.172c417c771efp-23 ppe=0x1.09c0482f18c75p-23 overlap_saved=0x0p+0 dma_overlap_saved=0x1.bead3593f1cb2p-23 dma_bytes=3328 busy=0x1.dd24deb1a6abbp-25 dma_wait=0x0p+0 queue_empty=0x1.a18042db71d64p-22 ppe_serial=0x1.09c0482f18c75p-23 channel_stall=0x0p+0",
     "6343e82972cf0409032ed530516fafcdd18c29927532164b4f7d9af85864f39c"},
    {"203x1 multipass cg24 spe0",
     "dwt53 seconds=0x1.487f75abfea1p-19 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.487f75abfea1p-19 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.487f75abfea1p-19 channel_stall=0x0p+0",
     "6343e82972cf0409032ed530516fafcdd18c29927532164b4f7d9af85864f39c"},
    {"203x1 multipass cg24 spe1",
     "dwt53 seconds=0x1.137b5ced96c6ep-21 spe_compute=0x1.dd24deb1a6abbp-22 spe_dma=0x1.bead3593f1cb1p-23 dma_aggregate=0x1.172c417c771efp-23 ppe=0x1.27476ca61b882p-24 overlap_saved=0x0p+0 dma_overlap_saved=0x1.bead3593f1cb2p-23 dma_bytes=3328 busy=0x1.dd24deb1a6abbp-22 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.27476ca61b882p-24 channel_stall=0x0p+0",
     "6343e82972cf0409032ed530516fafcdd18c29927532164b4f7d9af85864f39c"},
    {"203x1 multipass cg24 spe8",
     "dwt53 seconds=0x1.137b5ced96c6ep-21 spe_compute=0x1.dd24deb1a6abbp-22 spe_dma=0x1.bead3593f1cb1p-23 dma_aggregate=0x1.172c417c771efp-23 ppe=0x1.27476ca61b882p-24 overlap_saved=0x0p+0 dma_overlap_saved=0x1.bead3593f1cb2p-23 dma_bytes=3328 busy=0x1.dd24deb1a6abbp-25 dma_wait=0x0p+0 queue_empty=0x1.a18042db71d64p-22 ppe_serial=0x1.27476ca61b882p-24 channel_stall=0x0p+0",
     "6343e82972cf0409032ed530516fafcdd18c29927532164b4f7d9af85864f39c"},
    {"1x77 merged cg0 spe0",
     "dwt53 seconds=0x1.f5f96be72ecdep-21 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.f5f96be72ecdep-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.f5f96be72ecdep-21 channel_stall=0x0p+0",
     "2a42354190a49ebcc1b46e840d4863054a6c1b8a7cade495f44434b6edb6a66d"},
    {"1x77 merged cg0 spe1",
     "dwt53 seconds=0x1.62cdf7e77a199p-19 spe_compute=0x1.56415534e5baep-22 spe_dma=0x1.240eca6a943fep-19 dma_aggregate=0x1.6d127d05394fep-20 ppe=0x1.f5f96be72ecdep-22 overlap_saved=0x0p+0 dma_overlap_saved=0x1.56415534e5bacp-22 dma_bytes=34816 busy=0x1.56415534e5baep-22 dma_wait=0x1.f28d3f87ef111p-20 queue_empty=0x0p+0 ppe_serial=0x1.f5f96be72ecdep-22 channel_stall=0x0p+0",
     "2a42354190a49ebcc1b46e840d4863054a6c1b8a7cade495f44434b6edb6a66d"},
    {"1x77 merged cg0 spe8",
     "dwt53 seconds=0x1.ea90d7ff05035p-20 spe_compute=0x1.6a634b28f33e5p-25 spe_dma=0x1.353cd652bb168p-22 dma_aggregate=0x1.6d127d05394fep-20 ppe=0x1.f5f96be72ecdep-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=34816 busy=0x1.56415534e5baep-25 dma_wait=0x1.6260725b92221p-20 queue_empty=0x0p+0 ppe_serial=0x1.f5f96be72ecdep-22 channel_stall=0x0p+0",
     "2a42354190a49ebcc1b46e840d4863054a6c1b8a7cade495f44434b6edb6a66d"},
    {"1x77 merged cg24 spe0",
     "dwt53 seconds=0x1.f5f96be72ecdep-21 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.f5f96be72ecdep-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.f5f96be72ecdep-21 channel_stall=0x0p+0",
     "2a42354190a49ebcc1b46e840d4863054a6c1b8a7cade495f44434b6edb6a66d"},
    {"1x77 merged cg24 spe1",
     "dwt53 seconds=0x1.62cdf7e77a199p-19 spe_compute=0x1.56415534e5baep-22 spe_dma=0x1.240eca6a943fep-19 dma_aggregate=0x1.6d127d05394fep-20 ppe=0x1.f5f96be72ecdep-22 overlap_saved=0x0p+0 dma_overlap_saved=0x1.56415534e5bacp-22 dma_bytes=34816 busy=0x1.56415534e5baep-22 dma_wait=0x1.f28d3f87ef111p-20 queue_empty=0x0p+0 ppe_serial=0x1.f5f96be72ecdep-22 channel_stall=0x0p+0",
     "2a42354190a49ebcc1b46e840d4863054a6c1b8a7cade495f44434b6edb6a66d"},
    {"1x77 merged cg24 spe8",
     "dwt53 seconds=0x1.ea90d7ff05035p-20 spe_compute=0x1.6a634b28f33e5p-25 spe_dma=0x1.353cd652bb168p-22 dma_aggregate=0x1.6d127d05394fep-20 ppe=0x1.f5f96be72ecdep-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=34816 busy=0x1.56415534e5baep-25 dma_wait=0x1.6260725b92221p-20 queue_empty=0x0p+0 ppe_serial=0x1.f5f96be72ecdep-22 channel_stall=0x0p+0",
     "2a42354190a49ebcc1b46e840d4863054a6c1b8a7cade495f44434b6edb6a66d"},
    {"1x77 multipass cg0 spe0",
     "dwt53 seconds=0x1.f5f96be72ecdep-21 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.f5f96be72ecdep-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.f5f96be72ecdep-21 channel_stall=0x0p+0",
     "2a42354190a49ebcc1b46e840d4863054a6c1b8a7cade495f44434b6edb6a66d"},
    {"1x77 multipass cg0 spe1",
     "dwt53 seconds=0x1.62cdf7e77a199p-19 spe_compute=0x1.56415534e5baep-22 spe_dma=0x1.240eca6a943fep-19 dma_aggregate=0x1.6d127d05394fep-20 ppe=0x1.f5f96be72ecdep-22 overlap_saved=0x0p+0 dma_overlap_saved=0x1.56415534e5bacp-22 dma_bytes=34816 busy=0x1.56415534e5baep-22 dma_wait=0x1.f28d3f87ef111p-20 queue_empty=0x0p+0 ppe_serial=0x1.f5f96be72ecdep-22 channel_stall=0x0p+0",
     "2a42354190a49ebcc1b46e840d4863054a6c1b8a7cade495f44434b6edb6a66d"},
    {"1x77 multipass cg0 spe8",
     "dwt53 seconds=0x1.ea90d7ff05035p-20 spe_compute=0x1.6a634b28f33e5p-25 spe_dma=0x1.353cd652bb168p-22 dma_aggregate=0x1.6d127d05394fep-20 ppe=0x1.f5f96be72ecdep-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=34816 busy=0x1.56415534e5baep-25 dma_wait=0x1.6260725b92221p-20 queue_empty=0x0p+0 ppe_serial=0x1.f5f96be72ecdep-22 channel_stall=0x0p+0",
     "2a42354190a49ebcc1b46e840d4863054a6c1b8a7cade495f44434b6edb6a66d"},
    {"1x77 multipass cg24 spe0",
     "dwt53 seconds=0x1.f5f96be72ecdep-21 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.f5f96be72ecdep-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.f5f96be72ecdep-21 channel_stall=0x0p+0",
     "2a42354190a49ebcc1b46e840d4863054a6c1b8a7cade495f44434b6edb6a66d"},
    {"1x77 multipass cg24 spe1",
     "dwt53 seconds=0x1.62cdf7e77a199p-19 spe_compute=0x1.56415534e5baep-22 spe_dma=0x1.240eca6a943fep-19 dma_aggregate=0x1.6d127d05394fep-20 ppe=0x1.f5f96be72ecdep-22 overlap_saved=0x0p+0 dma_overlap_saved=0x1.56415534e5bacp-22 dma_bytes=34816 busy=0x1.56415534e5baep-22 dma_wait=0x1.f28d3f87ef111p-20 queue_empty=0x0p+0 ppe_serial=0x1.f5f96be72ecdep-22 channel_stall=0x0p+0",
     "2a42354190a49ebcc1b46e840d4863054a6c1b8a7cade495f44434b6edb6a66d"},
    {"1x77 multipass cg24 spe8",
     "dwt53 seconds=0x1.ea90d7ff05035p-20 spe_compute=0x1.6a634b28f33e5p-25 spe_dma=0x1.353cd652bb168p-22 dma_aggregate=0x1.6d127d05394fep-20 ppe=0x1.f5f96be72ecdep-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=34816 busy=0x1.56415534e5baep-25 dma_wait=0x1.6260725b92221p-20 queue_empty=0x0p+0 ppe_serial=0x1.f5f96be72ecdep-22 channel_stall=0x0p+0",
     "2a42354190a49ebcc1b46e840d4863054a6c1b8a7cade495f44434b6edb6a66d"},
  });
}

TEST(DwtStagePins, Irreversible97) {
  check_filter(Filter::k97, {
    {"203x77 merged cg0 spe0",
     "dwt97 seconds=0x1.be241283e6291p-13 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.be241283e6291p-13 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.be241283e6291p-13 channel_stall=0x0p+0",
     "dab1b3794ae307d16ce183cf5fdc548b00c1aeeff881073a44145780601aed81"},
    {"203x77 merged cg0 spe1",
     "dwt97 seconds=0x1.1e8d08e78534ep-14 spe_compute=0x1.1973c472e11e1p-14 spe_dma=0x1.b5480710fc8dcp-16 dma_aggregate=0x1.114d046a9dd89p-16 ppe=0x1.f98cc95198233p-18 overlap_saved=0x0p+0 dma_overlap_saved=0x1.ad3a717c2a592p-16 dma_bytes=417024 busy=0x1.1973c472e11e1p-14 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.46511d2905b2ep-20 channel_stall=0x0p+0",
     "dab1b3794ae307d16ce183cf5fdc548b00c1aeeff881073a44145780601aed81"},
    {"203x77 merged cg0 spe8",
     "dwt97 seconds=0x1.2d23fa8618885p-16 spe_compute=0x1.702907e11febp-17 spe_dma=0x1.410c7e8255c9fp-18 dma_aggregate=0x1.114d046a9dd89p-16 ppe=0x1.f98cc95198233p-18 overlap_saved=0x0p+0 dma_overlap_saved=0x1.9309ffd58524bp-21 dma_bytes=417024 busy=0x1.1b45d6a3e623bp-17 dma_wait=0x1.0061cfa8ca391p-17 queue_empty=0x0p+0 ppe_serial=0x1.f50275fc059f9p-20 channel_stall=0x0p+0",
     "dab1b3794ae307d16ce183cf5fdc548b00c1aeeff881073a44145780601aed81"},
    {"203x77 merged cg24 spe0",
     "dwt97 seconds=0x1.be241283e6291p-13 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.be241283e6291p-13 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.be241283e6291p-13 channel_stall=0x0p+0",
     "dab1b3794ae307d16ce183cf5fdc548b00c1aeeff881073a44145780601aed81"},
    {"203x77 merged cg24 spe1",
     "dwt97 seconds=0x1.37d8e7ebbfb4cp-14 spe_compute=0x1.1da17b9044306p-14 spe_dma=0x1.56a8697c56a3dp-15 dma_aggregate=0x1.ac5283db6c4cep-16 ppe=0x1.8ad200934dd02p-18 overlap_saved=0x0p+0 dma_overlap_saved=0x1.223990c55f9b1p-15 dma_bytes=420864 busy=0x1.1da17b9044306p-14 dma_wait=0x1.a376c5b7b846p-18 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "dab1b3794ae307d16ce183cf5fdc548b00c1aeeff881073a44145780601aed81"},
    {"203x77 merged cg24 spe8",
     "dwt97 seconds=0x1.ac5283db6c4cep-16 spe_compute=0x1.46cdefb7886dp-17 spe_dma=0x1.ae089a0b0c2b3p-18 dma_aggregate=0x1.ac5283db6c4cep-16 ppe=0x1.8ad200934dd02p-18 overlap_saved=0x0p+0 dma_overlap_saved=0x1.09b365a62aaa8p-21 dma_bytes=420864 busy=0x1.1da17b9044306p-17 dma_wait=0x1.1d81c6134a34bp-16 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "dab1b3794ae307d16ce183cf5fdc548b00c1aeeff881073a44145780601aed81"},
    {"203x77 multipass cg0 spe0",
     "dwt97 seconds=0x1.be241283e6291p-13 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.be241283e6291p-13 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.be241283e6291p-13 channel_stall=0x0p+0",
     "dab1b3794ae307d16ce183cf5fdc548b00c1aeeff881073a44145780601aed81"},
    {"203x77 multipass cg0 spe1",
     "dwt97 seconds=0x1.9b77c02afdda9p-14 spe_compute=0x1.1973c472e11e1p-14 spe_dma=0x1.0e1cf9350aa3cp-14 dma_aggregate=0x1.51a437824d4ccp-15 ppe=0x1.f98cc95198233p-18 overlap_saved=0x0p+0 dma_overlap_saved=0x1.1831faf9dbce9p-15 dma_bytes=1030400 busy=0x1.1973c472e11e1p-14 dma_wait=0x1.025bcfdf7bd11p-15 queue_empty=0x0p+0 ppe_serial=0x1.ac2790bda7ecp-23 channel_stall=0x0p+0",
     "dab1b3794ae307d16ce183cf5fdc548b00c1aeeff881073a44145780601aed81"},
    {"203x77 multipass cg0 spe8",
     "dwt97 seconds=0x1.58d9b5e95b78dp-15 spe_compute=0x1.702907e11febp-17 spe_dma=0x1.c49509abbf24ep-17 dma_aggregate=0x1.51a437824d4ccp-15 ppe=0x1.f98cc95198233p-18 overlap_saved=0x0p+0 dma_overlap_saved=0x1.609b53e18721dp-21 dma_bytes=1030400 busy=0x1.1b45d6a3e623bp-17 dma_wait=0x1.0370f8bb9313ap-15 queue_empty=0x0p+0 ppe_serial=0x1.d2e8f099db88ep-20 channel_stall=0x0p+0",
     "dab1b3794ae307d16ce183cf5fdc548b00c1aeeff881073a44145780601aed81"},
    {"203x77 multipass cg24 spe0",
     "dwt97 seconds=0x1.be241283e6291p-13 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.be241283e6291p-13 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.be241283e6291p-13 channel_stall=0x0p+0",
     "dab1b3794ae307d16ce183cf5fdc548b00c1aeeff881073a44145780601aed81"},
    {"203x77 multipass cg24 spe1",
     "dwt97 seconds=0x1.3f669d42f16c4p-13 spe_compute=0x1.1da17b9044306p-14 spe_dma=0x1.f24887584e75bp-14 dma_aggregate=0x1.376d549731099p-14 ppe=0x1.8ad200934dd02p-18 overlap_saved=0x0p+0 dma_overlap_saved=0x1.223990c55f9b1p-15 dma_bytes=1044480 busy=0x1.1da17b9044306p-14 dma_wait=0x1.612bbef59ea83p-14 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "dab1b3794ae307d16ce183cf5fdc548b00c1aeeff881073a44145780601aed81"},
    {"203x77 multipass cg24 spe8",
     "dwt97 seconds=0x1.376d549731099p-14 spe_compute=0x1.46cdefb7886dp-17 spe_dma=0x1.468d3e52b23acp-16 dma_aggregate=0x1.376d549731099p-14 ppe=0x1.8ad200934dd02p-18 overlap_saved=0x0p+0 dma_overlap_saved=0x1.e2c7fa99d36c8p-24 dma_bytes=1044480 busy=0x1.1da17b9044306p-17 dma_wait=0x1.13b9252528838p-14 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "dab1b3794ae307d16ce183cf5fdc548b00c1aeeff881073a44145780601aed81"},
    {"203x1 merged cg0 spe0",
     "dwt97 seconds=0x1.ecbf3081fdf1ap-19 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.ecbf3081fdf1ap-19 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.ecbf3081fdf1ap-19 channel_stall=0x0p+0",
     "e74e0b09e0dbd56973a01362f9632a4270b5cc22df9664c0c54bb4a557d2fde2"},
    {"203x1 merged cg0 spe1",
     "dwt97 seconds=0x1.09f5f8144e40ap-20 spe_compute=0x1.b043d516f3369p-21 spe_dma=0x1.bead3593f1cb1p-23 dma_aggregate=0x1.172c417c771efp-23 ppe=0x1.8ea06c46a52bp-23 overlap_saved=0x0p+0 dma_overlap_saved=0x1.bead3593f1cb1p-23 dma_bytes=3328 busy=0x1.b043d516f3369p-21 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.8ea06c46a52bp-23 channel_stall=0x0p+0",
     "e74e0b09e0dbd56973a01362f9632a4270b5cc22df9664c0c54bb4a557d2fde2"},
    {"203x1 merged cg0 spe8",
     "dwt97 seconds=0x1.09f5f8144e40ap-20 spe_compute=0x1.b043d516f3369p-21 spe_dma=0x1.bead3593f1cb1p-23 dma_aggregate=0x1.172c417c771efp-23 ppe=0x1.8ea06c46a52bp-23 overlap_saved=0x0p+0 dma_overlap_saved=0x1.bead3593f1cb1p-23 dma_bytes=3328 busy=0x1.b043d516f3369p-24 dma_wait=0x0p+0 queue_empty=0x1.7a3b5a7414cfdp-21 ppe_serial=0x1.8ea06c46a52bp-23 channel_stall=0x0p+0",
     "e74e0b09e0dbd56973a01362f9632a4270b5cc22df9664c0c54bb4a557d2fde2"},
    {"203x1 merged cg24 spe0",
     "dwt97 seconds=0x1.ecbf3081fdf1ap-19 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.ecbf3081fdf1ap-19 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.ecbf3081fdf1ap-19 channel_stall=0x0p+0",
     "e74e0b09e0dbd56973a01362f9632a4270b5cc22df9664c0c54bb4a557d2fde2"},
    {"203x1 merged cg24 spe1",
     "dwt97 seconds=0x1.e7a1397618602p-21 spe_compute=0x1.b043d516f3369p-21 spe_dma=0x1.bead3593f1cb1p-23 dma_aggregate=0x1.172c417c771efp-23 ppe=0x1.baeb22f9294c3p-24 overlap_saved=0x0p+0 dma_overlap_saved=0x1.bead3593f1cb1p-23 dma_bytes=3328 busy=0x1.b043d516f3369p-21 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.baeb22f9294c3p-24 channel_stall=0x0p+0",
     "e74e0b09e0dbd56973a01362f9632a4270b5cc22df9664c0c54bb4a557d2fde2"},
    {"203x1 merged cg24 spe8",
     "dwt97 seconds=0x1.e7a1397618602p-21 spe_compute=0x1.b043d516f3369p-21 spe_dma=0x1.bead3593f1cb1p-23 dma_aggregate=0x1.172c417c771efp-23 ppe=0x1.baeb22f9294c3p-24 overlap_saved=0x0p+0 dma_overlap_saved=0x1.bead3593f1cb1p-23 dma_bytes=3328 busy=0x1.b043d516f3369p-24 dma_wait=0x0p+0 queue_empty=0x1.7a3b5a7414cfdp-21 ppe_serial=0x1.baeb22f9294c3p-24 channel_stall=0x0p+0",
     "e74e0b09e0dbd56973a01362f9632a4270b5cc22df9664c0c54bb4a557d2fde2"},
    {"203x1 multipass cg0 spe0",
     "dwt97 seconds=0x1.ecbf3081fdf1ap-19 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.ecbf3081fdf1ap-19 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.ecbf3081fdf1ap-19 channel_stall=0x0p+0",
     "e74e0b09e0dbd56973a01362f9632a4270b5cc22df9664c0c54bb4a557d2fde2"},
    {"203x1 multipass cg0 spe1",
     "dwt97 seconds=0x1.09f5f8144e40ap-20 spe_compute=0x1.b043d516f3369p-21 spe_dma=0x1.bead3593f1cb1p-23 dma_aggregate=0x1.172c417c771efp-23 ppe=0x1.8ea06c46a52bp-23 overlap_saved=0x0p+0 dma_overlap_saved=0x1.bead3593f1cb1p-23 dma_bytes=3328 busy=0x1.b043d516f3369p-21 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.8ea06c46a52bp-23 channel_stall=0x0p+0",
     "e74e0b09e0dbd56973a01362f9632a4270b5cc22df9664c0c54bb4a557d2fde2"},
    {"203x1 multipass cg0 spe8",
     "dwt97 seconds=0x1.09f5f8144e40ap-20 spe_compute=0x1.b043d516f3369p-21 spe_dma=0x1.bead3593f1cb1p-23 dma_aggregate=0x1.172c417c771efp-23 ppe=0x1.8ea06c46a52bp-23 overlap_saved=0x0p+0 dma_overlap_saved=0x1.bead3593f1cb1p-23 dma_bytes=3328 busy=0x1.b043d516f3369p-24 dma_wait=0x0p+0 queue_empty=0x1.7a3b5a7414cfdp-21 ppe_serial=0x1.8ea06c46a52bp-23 channel_stall=0x0p+0",
     "e74e0b09e0dbd56973a01362f9632a4270b5cc22df9664c0c54bb4a557d2fde2"},
    {"203x1 multipass cg24 spe0",
     "dwt97 seconds=0x1.ecbf3081fdf1ap-19 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.ecbf3081fdf1ap-19 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.ecbf3081fdf1ap-19 channel_stall=0x0p+0",
     "e74e0b09e0dbd56973a01362f9632a4270b5cc22df9664c0c54bb4a557d2fde2"},
    {"203x1 multipass cg24 spe1",
     "dwt97 seconds=0x1.e7a1397618602p-21 spe_compute=0x1.b043d516f3369p-21 spe_dma=0x1.bead3593f1cb1p-23 dma_aggregate=0x1.172c417c771efp-23 ppe=0x1.baeb22f9294c3p-24 overlap_saved=0x0p+0 dma_overlap_saved=0x1.bead3593f1cb1p-23 dma_bytes=3328 busy=0x1.b043d516f3369p-21 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.baeb22f9294c3p-24 channel_stall=0x0p+0",
     "e74e0b09e0dbd56973a01362f9632a4270b5cc22df9664c0c54bb4a557d2fde2"},
    {"203x1 multipass cg24 spe8",
     "dwt97 seconds=0x1.e7a1397618602p-21 spe_compute=0x1.b043d516f3369p-21 spe_dma=0x1.bead3593f1cb1p-23 dma_aggregate=0x1.172c417c771efp-23 ppe=0x1.baeb22f9294c3p-24 overlap_saved=0x0p+0 dma_overlap_saved=0x1.bead3593f1cb1p-23 dma_bytes=3328 busy=0x1.b043d516f3369p-24 dma_wait=0x0p+0 queue_empty=0x1.7a3b5a7414cfdp-21 ppe_serial=0x1.baeb22f9294c3p-24 channel_stall=0x0p+0",
     "e74e0b09e0dbd56973a01362f9632a4270b5cc22df9664c0c54bb4a557d2fde2"},
    {"1x77 merged cg0 spe0",
     "dwt97 seconds=0x1.787b10ed631a5p-20 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.787b10ed631a5p-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.787b10ed631a5p-20 channel_stall=0x0p+0",
     "416f87faae8d6771c1952ea8ccdf051966d0f7a1d68f35b316d1b6e7f9e95b61"},
    {"1x77 merged cg0 spe1",
     "dwt97 seconds=0x1.822d8ea5ed067p-19 spe_compute=0x1.56415534e5baep-22 spe_dma=0x1.240eca6a943fep-19 dma_aggregate=0x1.6d127d05394fep-20 ppe=0x1.787b10ed631a5p-21 overlap_saved=0x0p+0 dma_overlap_saved=0x1.56415534e5bacp-22 dma_bytes=34816 busy=0x1.56415534e5baep-22 dma_wait=0x1.f28d3f87ef111p-20 queue_empty=0x0p+0 ppe_serial=0x1.787b10ed631a5p-21 channel_stall=0x0p+0",
     "416f87faae8d6771c1952ea8ccdf051966d0f7a1d68f35b316d1b6e7f9e95b61"},
    {"1x77 merged cg0 spe8",
     "dwt97 seconds=0x1.14a802bdf56e8p-19 spe_compute=0x1.6a634b28f33e5p-25 spe_dma=0x1.353cd652bb168p-22 dma_aggregate=0x1.6d127d05394fep-20 ppe=0x1.787b10ed631a5p-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=34816 busy=0x1.56415534e5baep-25 dma_wait=0x1.6260725b92221p-20 queue_empty=0x0p+0 ppe_serial=0x1.787b10ed631a5p-21 channel_stall=0x0p+0",
     "416f87faae8d6771c1952ea8ccdf051966d0f7a1d68f35b316d1b6e7f9e95b61"},
    {"1x77 merged cg24 spe0",
     "dwt97 seconds=0x1.787b10ed631a5p-20 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.787b10ed631a5p-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.787b10ed631a5p-20 channel_stall=0x0p+0",
     "416f87faae8d6771c1952ea8ccdf051966d0f7a1d68f35b316d1b6e7f9e95b61"},
    {"1x77 merged cg24 spe1",
     "dwt97 seconds=0x1.822d8ea5ed067p-19 spe_compute=0x1.56415534e5baep-22 spe_dma=0x1.240eca6a943fep-19 dma_aggregate=0x1.6d127d05394fep-20 ppe=0x1.787b10ed631a5p-21 overlap_saved=0x0p+0 dma_overlap_saved=0x1.56415534e5bacp-22 dma_bytes=34816 busy=0x1.56415534e5baep-22 dma_wait=0x1.f28d3f87ef111p-20 queue_empty=0x0p+0 ppe_serial=0x1.787b10ed631a5p-21 channel_stall=0x0p+0",
     "416f87faae8d6771c1952ea8ccdf051966d0f7a1d68f35b316d1b6e7f9e95b61"},
    {"1x77 merged cg24 spe8",
     "dwt97 seconds=0x1.14a802bdf56e8p-19 spe_compute=0x1.6a634b28f33e5p-25 spe_dma=0x1.353cd652bb168p-22 dma_aggregate=0x1.6d127d05394fep-20 ppe=0x1.787b10ed631a5p-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=34816 busy=0x1.56415534e5baep-25 dma_wait=0x1.6260725b92221p-20 queue_empty=0x0p+0 ppe_serial=0x1.787b10ed631a5p-21 channel_stall=0x0p+0",
     "416f87faae8d6771c1952ea8ccdf051966d0f7a1d68f35b316d1b6e7f9e95b61"},
    {"1x77 multipass cg0 spe0",
     "dwt97 seconds=0x1.787b10ed631a5p-20 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.787b10ed631a5p-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.787b10ed631a5p-20 channel_stall=0x0p+0",
     "416f87faae8d6771c1952ea8ccdf051966d0f7a1d68f35b316d1b6e7f9e95b61"},
    {"1x77 multipass cg0 spe1",
     "dwt97 seconds=0x1.822d8ea5ed067p-19 spe_compute=0x1.56415534e5baep-22 spe_dma=0x1.240eca6a943fep-19 dma_aggregate=0x1.6d127d05394fep-20 ppe=0x1.787b10ed631a5p-21 overlap_saved=0x0p+0 dma_overlap_saved=0x1.56415534e5bacp-22 dma_bytes=34816 busy=0x1.56415534e5baep-22 dma_wait=0x1.f28d3f87ef111p-20 queue_empty=0x0p+0 ppe_serial=0x1.787b10ed631a5p-21 channel_stall=0x0p+0",
     "416f87faae8d6771c1952ea8ccdf051966d0f7a1d68f35b316d1b6e7f9e95b61"},
    {"1x77 multipass cg0 spe8",
     "dwt97 seconds=0x1.14a802bdf56e8p-19 spe_compute=0x1.6a634b28f33e5p-25 spe_dma=0x1.353cd652bb168p-22 dma_aggregate=0x1.6d127d05394fep-20 ppe=0x1.787b10ed631a5p-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=34816 busy=0x1.56415534e5baep-25 dma_wait=0x1.6260725b92221p-20 queue_empty=0x0p+0 ppe_serial=0x1.787b10ed631a5p-21 channel_stall=0x0p+0",
     "416f87faae8d6771c1952ea8ccdf051966d0f7a1d68f35b316d1b6e7f9e95b61"},
    {"1x77 multipass cg24 spe0",
     "dwt97 seconds=0x1.787b10ed631a5p-20 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.787b10ed631a5p-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.787b10ed631a5p-20 channel_stall=0x0p+0",
     "416f87faae8d6771c1952ea8ccdf051966d0f7a1d68f35b316d1b6e7f9e95b61"},
    {"1x77 multipass cg24 spe1",
     "dwt97 seconds=0x1.822d8ea5ed067p-19 spe_compute=0x1.56415534e5baep-22 spe_dma=0x1.240eca6a943fep-19 dma_aggregate=0x1.6d127d05394fep-20 ppe=0x1.787b10ed631a5p-21 overlap_saved=0x0p+0 dma_overlap_saved=0x1.56415534e5bacp-22 dma_bytes=34816 busy=0x1.56415534e5baep-22 dma_wait=0x1.f28d3f87ef111p-20 queue_empty=0x0p+0 ppe_serial=0x1.787b10ed631a5p-21 channel_stall=0x0p+0",
     "416f87faae8d6771c1952ea8ccdf051966d0f7a1d68f35b316d1b6e7f9e95b61"},
    {"1x77 multipass cg24 spe8",
     "dwt97 seconds=0x1.14a802bdf56e8p-19 spe_compute=0x1.6a634b28f33e5p-25 spe_dma=0x1.353cd652bb168p-22 dma_aggregate=0x1.6d127d05394fep-20 ppe=0x1.787b10ed631a5p-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=34816 busy=0x1.56415534e5baep-25 dma_wait=0x1.6260725b92221p-20 queue_empty=0x0p+0 ppe_serial=0x1.787b10ed631a5p-21 channel_stall=0x0p+0",
     "416f87faae8d6771c1952ea8ccdf051966d0f7a1d68f35b316d1b6e7f9e95b61"},
  });
}

TEST(DwtStagePins, Irreversible97FixedQ13) {
  check_filter(Filter::kQ13, {
    {"203x77 merged cg0 spe0",
     "dwt97fx seconds=0x1.296d61ad441b6p-12 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.296d61ad441b6p-12 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.296d61ad441b6p-12 channel_stall=0x0p+0",
     "2310c4c9ab5076633f0aad74d77d75f989b8e702933270a58c59d5573543df18"},
    {"203x77 merged cg0 spe1",
     "dwt97fx seconds=0x1.5fe1e7e704868p-14 spe_compute=0x1.59da66e943252p-14 spe_dma=0x1.b5480710fc8dcp-16 dma_aggregate=0x1.114d046a9dd89p-16 ppe=0x1.51088636656ccp-17 overlap_saved=0x0p+0 dma_overlap_saved=0x1.ad3a717c2a592p-16 dma_bytes=417024 busy=0x1.59da66e943252p-14 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.81e03f705857bp-20 channel_stall=0x0p+0",
     "2310c4c9ab5076633f0aad74d77d75f989b8e702933270a58c59d5573543df18"},
    {"203x77 merged cg0 spe8",
     "dwt97fx seconds=0x1.41d4e199379efp-16 spe_compute=0x1.db6dfa5977eb7p-17 spe_dma=0x1.410c7e8255c9fp-18 dma_aggregate=0x1.114d046a9dd89p-16 ppe=0x1.51088636656ccp-17 overlap_saved=0x0p+0 dma_overlap_saved=0x1.534d6b28ff0dfp-20 dma_bytes=417024 busy=0x1.59da66e943251p-17 dma_wait=0x1.4941677e69678p-18 queue_empty=0x1.9398ce987ee76p-20 ppe_serial=0x1.4aee3adb9e20ep-19 channel_stall=0x0p+0",
     "2310c4c9ab5076633f0aad74d77d75f989b8e702933270a58c59d5573543df18"},
    {"203x77 merged cg24 spe0",
     "dwt97fx seconds=0x1.296d61ad441b6p-12 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.296d61ad441b6p-12 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.296d61ad441b6p-12 channel_stall=0x0p+0",
     "2310c4c9ab5076633f0aad74d77d75f989b8e702933270a58c59d5573543df18"},
    {"203x77 merged cg24 spe1",
     "dwt97fx seconds=0x1.5c5139ae77773p-14 spe_compute=0x1.5c5139ae77773p-14 spe_dma=0x1.56a8697c56a3dp-15 dma_aggregate=0x1.ac5283db6c4cep-16 ppe=0x1.0736ab0cde8acp-17 overlap_saved=0x0p+0 dma_overlap_saved=0x1.56a8697c56a3dp-15 dma_bytes=420864 busy=0x1.5c5139ae77773p-14 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "2310c4c9ab5076633f0aad74d77d75f989b8e702933270a58c59d5573543df18"},
    {"203x77 merged cg24 spe8",
     "dwt97fx seconds=0x1.acceaa9d77f59p-16 spe_compute=0x1.986795658265dp-17 spe_dma=0x1.ae089a0b0c2b3p-18 dma_aggregate=0x1.ac5283db6c4cep-16 ppe=0x1.0736ab0cde8acp-17 overlap_saved=0x0p+0 dma_overlap_saved=0x1.166f46f97d73cp-20 dma_bytes=420864 busy=0x1.5c5139ae77773p-17 dma_wait=0x1.fae60fbee4d7cp-17 queue_empty=0x1.3305e6c9ce148p-24 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "2310c4c9ab5076633f0aad74d77d75f989b8e702933270a58c59d5573543df18"},
    {"203x1 merged cg0 spe0",
     "dwt97fx seconds=0x1.487f75abfea1p-18 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.487f75abfea1p-18 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.487f75abfea1p-18 channel_stall=0x0p+0",
     "cdab52c1faa3c96ced20afe11de41c3ab7e35ef77694fc948cef5b6c527bcc84"},
    {"203x1 merged cg0 spe1",
     "dwt97fx seconds=0x1.26a65cf67b1cp-20 spe_compute=0x1.c86c95d569d45p-21 spe_dma=0x1.bead3593f1cb1p-23 dma_aggregate=0x1.172c417c771efp-23 ppe=0x1.09c0482f18c75p-22 overlap_saved=0x0p+0 dma_overlap_saved=0x1.bead3593f1cb1p-23 dma_bytes=3328 busy=0x1.c86c95d569d45p-21 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.09c0482f18c75p-22 channel_stall=0x0p+0",
     "cdab52c1faa3c96ced20afe11de41c3ab7e35ef77694fc948cef5b6c527bcc84"},
    {"203x1 merged cg0 spe8",
     "dwt97fx seconds=0x1.26a65cf67b1cp-20 spe_compute=0x1.c86c95d569d45p-21 spe_dma=0x1.bead3593f1cb1p-23 dma_aggregate=0x1.172c417c771efp-23 ppe=0x1.09c0482f18c75p-22 overlap_saved=0x0p+0 dma_overlap_saved=0x1.bead3593f1cb1p-23 dma_bytes=3328 busy=0x1.c86c95d569d45p-24 dma_wait=0x0p+0 queue_empty=0x1.8f5f031abc99dp-21 ppe_serial=0x1.09c0482f18c75p-22 channel_stall=0x0p+0",
     "cdab52c1faa3c96ced20afe11de41c3ab7e35ef77694fc948cef5b6c527bcc84"},
    {"203x1 merged cg24 spe0",
     "dwt97fx seconds=0x1.487f75abfea1p-18 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.487f75abfea1p-18 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.487f75abfea1p-18 channel_stall=0x0p+0",
     "cdab52c1faa3c96ced20afe11de41c3ab7e35ef77694fc948cef5b6c527bcc84"},
    {"203x1 merged cg24 spe1",
     "dwt97fx seconds=0x1.091f387f785b3p-20 spe_compute=0x1.c86c95d569d45p-21 spe_dma=0x1.bead3593f1cb1p-23 dma_aggregate=0x1.172c417c771efp-23 ppe=0x1.27476ca61b882p-23 overlap_saved=0x0p+0 dma_overlap_saved=0x1.bead3593f1cb1p-23 dma_bytes=3328 busy=0x1.c86c95d569d45p-21 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.27476ca61b882p-23 channel_stall=0x0p+0",
     "cdab52c1faa3c96ced20afe11de41c3ab7e35ef77694fc948cef5b6c527bcc84"},
    {"203x1 merged cg24 spe8",
     "dwt97fx seconds=0x1.091f387f785b3p-20 spe_compute=0x1.c86c95d569d45p-21 spe_dma=0x1.bead3593f1cb1p-23 dma_aggregate=0x1.172c417c771efp-23 ppe=0x1.27476ca61b882p-23 overlap_saved=0x0p+0 dma_overlap_saved=0x1.bead3593f1cb1p-23 dma_bytes=3328 busy=0x1.c86c95d569d45p-24 dma_wait=0x0p+0 queue_empty=0x1.8f5f031abc99dp-21 ppe_serial=0x1.27476ca61b882p-23 channel_stall=0x0p+0",
     "cdab52c1faa3c96ced20afe11de41c3ab7e35ef77694fc948cef5b6c527bcc84"},
    {"1x77 merged cg0 spe0",
     "dwt97fx seconds=0x1.f5f96be72ecdep-20 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.f5f96be72ecdep-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.f5f96be72ecdep-20 channel_stall=0x0p+0",
     "0acd29ad77e1b15b3b30a361d8da61df9d26361e7de8fa242b1a5daa5aefcf06"},
    {"1x77 merged cg0 spe1",
     "dwt97fx seconds=0x1.a18d25645ff35p-19 spe_compute=0x1.56415534e5baep-22 spe_dma=0x1.240eca6a943fep-19 dma_aggregate=0x1.6d127d05394fep-20 ppe=0x1.f5f96be72ecdep-21 overlap_saved=0x0p+0 dma_overlap_saved=0x1.56415534e5bacp-22 dma_bytes=34816 busy=0x1.56415534e5baep-22 dma_wait=0x1.f28d3f87ef111p-20 queue_empty=0x0p+0 ppe_serial=0x1.f5f96be72ecdep-21 channel_stall=0x0p+0",
     "0acd29ad77e1b15b3b30a361d8da61df9d26361e7de8fa242b1a5daa5aefcf06"},
    {"1x77 merged cg0 spe8",
     "dwt97fx seconds=0x1.3407997c685b6p-19 spe_compute=0x1.6a634b28f33e5p-25 spe_dma=0x1.353cd652bb168p-22 dma_aggregate=0x1.6d127d05394fep-20 ppe=0x1.f5f96be72ecdep-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=34816 busy=0x1.56415534e5baep-25 dma_wait=0x1.6260725b92221p-20 queue_empty=0x0p+0 ppe_serial=0x1.f5f96be72ecdep-21 channel_stall=0x0p+0",
     "0acd29ad77e1b15b3b30a361d8da61df9d26361e7de8fa242b1a5daa5aefcf06"},
    {"1x77 merged cg24 spe0",
     "dwt97fx seconds=0x1.f5f96be72ecdep-20 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.f5f96be72ecdep-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.f5f96be72ecdep-20 channel_stall=0x0p+0",
     "0acd29ad77e1b15b3b30a361d8da61df9d26361e7de8fa242b1a5daa5aefcf06"},
    {"1x77 merged cg24 spe1",
     "dwt97fx seconds=0x1.a18d25645ff35p-19 spe_compute=0x1.56415534e5baep-22 spe_dma=0x1.240eca6a943fep-19 dma_aggregate=0x1.6d127d05394fep-20 ppe=0x1.f5f96be72ecdep-21 overlap_saved=0x0p+0 dma_overlap_saved=0x1.56415534e5bacp-22 dma_bytes=34816 busy=0x1.56415534e5baep-22 dma_wait=0x1.f28d3f87ef111p-20 queue_empty=0x0p+0 ppe_serial=0x1.f5f96be72ecdep-21 channel_stall=0x0p+0",
     "0acd29ad77e1b15b3b30a361d8da61df9d26361e7de8fa242b1a5daa5aefcf06"},
    {"1x77 merged cg24 spe8",
     "dwt97fx seconds=0x1.3407997c685b6p-19 spe_compute=0x1.6a634b28f33e5p-25 spe_dma=0x1.353cd652bb168p-22 dma_aggregate=0x1.6d127d05394fep-20 ppe=0x1.f5f96be72ecdep-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=34816 busy=0x1.56415534e5baep-25 dma_wait=0x1.6260725b92221p-20 queue_empty=0x0p+0 ppe_serial=0x1.f5f96be72ecdep-21 channel_stall=0x0p+0",
     "0acd29ad77e1b15b3b30a361d8da61df9d26361e7de8fa242b1a5daa5aefcf06"},
  });
}

}  // namespace
}  // namespace cj2k::cellenc
