// Pins of the element-wise front stages (DESIGN.md §3), called directly
// rather than through the pipeline: stage_mct_lossless, stage_mct_lossy,
// stage_mct_lossy_fixed, stage_quant and stage_quant_fixed, plus the read
// stage through encode_tile_front's first StageTiming.  The sweep covers 1,
// 3 and 4 components, the colour transform on and off, and 0, 1 and 8 SPEs
// over an odd-sized plane, the two degenerate extents and a width whose 8
// SPE chunks are several lines wide with a PPE remainder, so the colour
// triple stream, the flattened grey stream, the extra-component pipeline,
// the PPE remainder and the PPE-only runs all have a gate.
//
// Every StageTiming field except the host wall seconds is pinned exactly
// (tests/stage_pins.hpp).  Every output is pinned by its SHA-256 under both
// the counting cell::Simd policy and the native HostVec policy, every run
// must leave a clean strict audit, and every digest must equal the serial
// jp2k row functions on the same planes — so a pinned digest is always the
// level shift, colour transform or quantization it names.
//
// If an *intentional* change lands, regenerate by running this suite and
// copying the "actual" rows from the failure output.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cell/audit.hpp"
#include "cell/machine.hpp"
#include "cellenc/pipeline.hpp"
#include "cellenc/stage_mct.hpp"
#include "cellenc/stage_quant.hpp"
#include "common/aligned_buffer.hpp"
#include "common/rng.hpp"
#include "image/image.hpp"
#include "jp2k/encoder.hpp"
#include "jp2k/mct.hpp"
#include "jp2k/quant.hpp"
#include "stage_pins.hpp"

namespace cj2k::cellenc {
namespace {

using pins::Pin;
using pins::planes_digest;

struct Shape {
  const char* name;
  std::size_t width;
  std::size_t height;
};

const Shape kShapes[] = {{"203x77", 203, 77},
                         {"203x1", 203, 1},
                         {"1x77", 1, 77},
                         {"531x9", 531, 9}};
const int kSpes[] = {0, 1, 8};
constexpr unsigned kDepth = 8;

struct Mix {
  std::size_t comps;
  bool color;
};
const Mix kMixes[] = {{1, false}, {3, false}, {3, true}, {4, false},
                      {4, true}};

std::string case_key(const Shape& sh, std::size_t comps, bool color,
                     int spes) {
  char key[64];
  std::snprintf(key, sizeof(key), "%s c%zu %s spe%d", sh.name, comps,
                color ? "colour" : "grey", spes);
  return key;
}

/// A fresh machine with a strict audit attached for the rig's lifetime.
class Rig {
 public:
  Rig(int spes) : m_(config(spes)), audit_(audit_config()) {
    m_.attach_audit(&audit_);
  }
  ~Rig() { m_.attach_audit(nullptr); }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  cell::Machine& machine() { return m_; }
  void expect_clean() const {
    const cell::AuditReport r = audit_.report();
    EXPECT_TRUE(r.clean()) << r.summary();
  }

 private:
  static cell::MachineConfig config(int spes) {
    cell::MachineConfig cfg;
    cfg.num_spes = spes;
    return cfg;
  }
  static cell::AuditConfig audit_config() {
    cell::AuditConfig cfg;
    cfg.enabled = true;
    cfg.strict = true;
    return cfg;
  }

  cell::Machine m_;
  cell::InvariantAudit audit_;
};

/// Seeded unshifted samples of kDepth bits, one plane per component.
std::vector<Plane> source_planes(const Shape& sh, std::size_t comps) {
  Rng rng(0xf70e + sh.width * 131 + sh.height * 7 + comps);
  std::vector<Plane> planes;
  for (std::size_t c = 0; c < comps; ++c) {
    planes.emplace_back(sh.width, sh.height);
    for (std::size_t y = 0; y < sh.height; ++y) {
      for (std::size_t x = 0; x < sh.width; ++x) {
        planes[c].row(y)[x] =
            static_cast<Sample>(rng.next_below(1u << kDepth));
      }
    }
  }
  return planes;
}

template <class T>
std::vector<Span2d<T>> views(std::vector<Plane>& planes) {
  std::vector<Span2d<T>> v;
  for (Plane& p : planes) v.push_back(p.view());
  return v;
}

enum class MctPath { kLossless, kLossy, kQ13 };

/// The serial jp2k row functions over the same planes: the digest every
/// stage output must reproduce.
std::string serial_mct_digest(MctPath path, const std::vector<Plane>& src,
                              bool color) {
  const std::size_t w = src[0].width();
  const std::size_t h = src[0].height();
  const std::size_t first = color ? 3 : 0;
  if (path == MctPath::kLossy) {
    std::vector<std::vector<float>> out(src.size(),
                                        std::vector<float>(w * h));
    for (std::size_t y = 0; y < h; ++y) {
      if (color) {
        jp2k::shift_ict_forward_row(src[0].row(y), src[1].row(y),
                                    src[2].row(y), &out[0][y * w],
                                    &out[1][y * w], &out[2][y * w], w,
                                    kDepth);
      }
      for (std::size_t c = first; c < src.size(); ++c) {
        jp2k::shift_to_float_row(src[c].row(y), &out[c][y * w], w, kDepth);
      }
    }
    std::vector<Span2d<float>> v;
    for (auto& o : out) v.emplace_back(o.data(), w, h);
    return planes_digest(v);
  }
  std::vector<Plane> out;
  for (const Plane& p : src) {
    out.emplace_back(w, h);
    for (std::size_t y = 0; y < h; ++y) {
      std::copy_n(p.row(y), w, out.back().row(y));
    }
  }
  for (std::size_t y = 0; y < h; ++y) {
    if (path == MctPath::kLossless) {
      if (color) {
        jp2k::shift_rct_forward_row(out[0].row(y), out[1].row(y),
                                    out[2].row(y), w, kDepth);
      }
      for (std::size_t c = first; c < out.size(); ++c) {
        jp2k::level_shift_row(out[c].row(y), w, kDepth);
      }
    } else {
      if (color) {
        jp2k::shift_ict_forward_row_fixed(src[0].row(y), src[1].row(y),
                                          src[2].row(y), out[0].row(y),
                                          out[1].row(y), out[2].row(y), w,
                                          kDepth);
      }
      for (std::size_t c = first; c < out.size(); ++c) {
        jp2k::shift_to_fixed_row(src[c].row(y), out[c].row(y), w, kDepth);
      }
    }
  }
  return planes_digest(views<Sample>(out));
}

struct Run {
  cell::StageTiming timing;
  std::string digest;
};

Run run_mct(MctPath path, const Shape& sh, std::size_t comps, bool color,
            int spes, backend::BackendKind bk) {
  Rig rig(spes);
  std::vector<Plane> planes = source_planes(sh, comps);
  Run r;
  if (path == MctPath::kLossless) {
    r.timing = stage_mct_lossless(rig.machine(), planes, color, kDepth, bk);
    r.digest = planes_digest(views<Sample>(planes));
  } else if (path == MctPath::kLossy) {
    const std::size_t stride = planes[0].stride();
    std::vector<AlignedBuffer<float>> fplanes;
    for (std::size_t c = 0; c < comps; ++c) {
      fplanes.emplace_back(stride * sh.height);
    }
    r.timing = stage_mct_lossy(rig.machine(), planes, fplanes, stride, color,
                               kDepth, bk);
    std::vector<Span2d<float>> v;
    for (auto& f : fplanes) {
      v.emplace_back(f.data(), sh.width, sh.height, stride);
    }
    r.digest = planes_digest(v);
  } else {
    std::vector<Plane> fxplanes;
    for (std::size_t c = 0; c < comps; ++c) {
      fxplanes.emplace_back(sh.width, sh.height);
    }
    r.timing = stage_mct_lossy_fixed(rig.machine(), planes, fxplanes, color,
                                     kDepth, bk);
    r.digest = planes_digest(views<Sample>(fxplanes));
  }
  rig.expect_clean();
  return r;
}

void check_mct(MctPath path, const std::vector<Pin>& table) {
  std::size_t checked = 0;
  for (const Shape& sh : kShapes) {
    for (const Mix& mix : kMixes) {
      const std::string serial = serial_mct_digest(
          path, source_planes(sh, mix.comps), mix.color);
      for (const int spes : kSpes) {
        const std::string key = case_key(sh, mix.comps, mix.color, spes);
        SCOPED_TRACE(key);
        const Run cellr = run_mct(path, sh, mix.comps, mix.color, spes,
                                  backend::BackendKind::kCellModel);
        const Run native = run_mct(path, sh, mix.comps, mix.color, spes,
                                   backend::BackendKind::kNative);
        EXPECT_EQ(cellr.digest, serial) << "not the serial row functions";
        if (pins::check_pin(table, key, cellr.timing, cellr.digest,
                            native.digest)) {
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, table.size());
}

// --- Quantization -----------------------------------------------------------

/// A 3-level 9/7 tile component of the shape: its subbands carry the
/// steps the stage quantizes each row segment with.
jp2k::TileComponent skeleton(const Shape& sh, bool q13) {
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.fixed_point_97 = q13;
  p.levels = 3;
  return jp2k::make_component_skeleton(sh.width, sh.height, p);
}

/// Seeded coefficients: floats in ±300, or the same range in Q13.
template <class T>
void fill_coefficients(Span2d<T> p, const Shape& sh) {
  Rng rng(0x9a17 + sh.width * 131 + sh.height);
  for (std::size_t y = 0; y < sh.height; ++y) {
    for (std::size_t x = 0; x < sh.width; ++x) {
      const std::int64_t v = rng.next_in(-300 << 13, 300 << 13);
      if constexpr (std::is_same_v<T, float>) {
        p(y, x) = static_cast<float>(v) / 8192.0f;
      } else {
        p(y, x) = static_cast<Sample>(v);
      }
    }
  }
}

/// quantize_row / quantize_fixed_row over every subband of the component.
template <class T>
std::string serial_quant_digest(Span2d<const T> in,
                                const jp2k::TileComponent& tc) {
  Plane out(in.width(), in.height());
  for (const auto& sb : tc.subbands) {
    for (std::size_t y = sb.info.y0; y < sb.info.y0 + sb.info.h; ++y) {
      if constexpr (std::is_same_v<T, float>) {
        jp2k::quantize_row(in.row(y) + sb.info.x0,
                           out.row(y) + sb.info.x0, sb.info.w,
                           sb.quant_step);
      } else {
        jp2k::quantize_fixed_row(in.row(y) + sb.info.x0,
                                 out.row(y) + sb.info.x0, sb.info.w,
                                 sb.quant_step);
      }
    }
  }
  return pins::plane_digest(out.view());
}

template <class T>
void check_quant(const std::vector<Pin>& table) {
  constexpr bool q13 = !std::is_same_v<T, float>;
  std::size_t checked = 0;
  for (const Shape& sh : kShapes) {
    const jp2k::TileComponent tc = skeleton(sh, q13);
    const std::size_t stride = Plane(sh.width, 1).stride();
    AlignedBuffer<T> buf(stride * sh.height);
    Span2d<T> in(buf.data(), sh.width, sh.height, stride);
    fill_coefficients(in, sh);
    const std::string serial = serial_quant_digest<T>(in, tc);
    for (const int spes : kSpes) {
      const std::string key = case_key(sh, 1, false, spes);
      SCOPED_TRACE(key);
      Run runs[2];
      for (const auto bk : {backend::BackendKind::kCellModel,
                            backend::BackendKind::kNative}) {
        Rig rig(spes);
        Plane out(sh.width, sh.height);
        Run& r = runs[bk == backend::BackendKind::kNative];
        if constexpr (q13) {
          r.timing = stage_quant_fixed(rig.machine(), in, out.view(), tc, bk);
        } else {
          r.timing = stage_quant(rig.machine(), in, out.view(), tc, bk);
        }
        r.digest = pins::plane_digest(out.view());
        rig.expect_clean();
      }
      EXPECT_EQ(runs[0].digest, serial) << "not the serial row functions";
      if (pins::check_pin(table, key, runs[0].timing, runs[0].digest,
                          runs[1].digest)) {
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, table.size());
}

TEST(FrontStagePins, Read) {
  std::vector<Pin> table = {
    {"203x77 c1 spe0",
     "read seconds=0x1.a16d787e6bebbp-17 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.a16d787e6bebbp-17 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.a16d787e6bebbp-17 channel_stall=0x0p+0",
     ""},
    {"203x77 c1 spe1",
     "read seconds=0x1.f01197cf6174p-18 spe_compute=0x0p+0 spe_dma=0x1.f01197cf6174p-18 dma_aggregate=0x1.360afee19ce88p-18 ppe=0x1.3185807f63afdp-19 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=118272 busy=0x0p+0 dma_wait=0x1.f01197cf6174p-18 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     ""},
    {"203x77 c1 spe8",
     "read seconds=0x1.360afee19ce88p-18 spe_compute=0x0p+0 spe_dma=0x1.4ab66534eba2bp-20 dma_aggregate=0x1.360afee19ce88p-18 ppe=0x1.3185807f63afdp-19 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=118272 busy=0x0p+0 dma_wait=0x1.360afee19ce88p-18 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     ""},
    {"203x77 c3 spe0",
     "read seconds=0x1.39121a5ed0f0dp-15 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.39121a5ed0f0dp-15 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.39121a5ed0f0dp-15 channel_stall=0x0p+0",
     ""},
    {"203x77 c3 spe1",
     "read seconds=0x1.740d31db8917p-16 spe_compute=0x0p+0 spe_dma=0x1.740d31db8917p-16 dma_aggregate=0x1.d1107e526b5ccp-17 ppe=0x1.ca4840bf1587cp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=354816 busy=0x0p+0 dma_wait=0x1.740d31db8917p-16 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     ""},
    {"203x77 c3 spe8",
     "read seconds=0x1.d1107e526b5ccp-17 spe_compute=0x0p+0 spe_dma=0x1.f01197cf6174p-19 dma_aggregate=0x1.d1107e526b5ccp-17 ppe=0x1.ca4840bf1587cp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=354816 busy=0x0p+0 dma_wait=0x1.d1107e526b5ccp-17 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     ""},
    {"203x77 c4 spe0",
     "read seconds=0x1.a16d787e6bebbp-15 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.a16d787e6bebbp-15 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.a16d787e6bebbp-15 channel_stall=0x0p+0",
     ""},
    {"203x77 c4 spe1",
     "read seconds=0x1.f01197cf6174p-16 spe_compute=0x0p+0 spe_dma=0x1.f01197cf6174p-16 dma_aggregate=0x1.360afee19ce88p-16 ppe=0x1.3185807f63afdp-17 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=473088 busy=0x0p+0 dma_wait=0x1.f01197cf6174p-16 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     ""},
    {"203x77 c4 spe8",
     "read seconds=0x1.360afee19ce88p-16 spe_compute=0x0p+0 spe_dma=0x1.4ab66534eba2bp-18 dma_aggregate=0x1.360afee19ce88p-16 ppe=0x1.3185807f63afdp-17 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=473088 busy=0x0p+0 dma_wait=0x1.360afee19ce88p-16 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     ""},
    {"203x1 c1 spe0",
     "read seconds=0x1.5af3ec7660598p-23 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.5af3ec7660598p-23 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.5af3ec7660598p-23 channel_stall=0x0p+0",
     ""},
    {"203x1 c1 spe1",
     "read seconds=0x1.9c511dc3a41dfp-24 spe_compute=0x0p+0 spe_dma=0x1.9c511dc3a41dfp-24 dma_aggregate=0x1.01b2b29a4692bp-24 ppe=0x1.fbe13ffefc27ap-26 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=1536 busy=0x0p+0 dma_wait=0x1.9c511dc3a41dfp-24 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     ""},
    {"203x1 c1 spe8",
     "read seconds=0x1.01b2b29a4692bp-24 spe_compute=0x0p+0 spe_dma=0x1.12e0be826d695p-26 dma_aggregate=0x1.01b2b29a4692bp-24 ppe=0x1.fbe13ffefc27ap-26 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=1536 busy=0x0p+0 dma_wait=0x1.01b2b29a4692bp-24 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     ""},
    {"203x1 c3 spe0",
     "read seconds=0x1.0436f158c8433p-21 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.0436f158c8433p-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.0436f158c8433p-21 channel_stall=0x0p+0",
     ""},
    {"203x1 c3 spe1",
     "read seconds=0x1.353cd652bb167p-22 spe_compute=0x0p+0 spe_dma=0x1.353cd652bb167p-22 dma_aggregate=0x1.828c0be769dc1p-23 ppe=0x1.7ce8efff3d1dbp-24 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=4608 busy=0x0p+0 dma_wait=0x1.353cd652bb167p-22 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     ""},
    {"203x1 c3 spe8",
     "read seconds=0x1.828c0be769dc1p-23 spe_compute=0x0p+0 spe_dma=0x1.9c511dc3a41dfp-25 dma_aggregate=0x1.828c0be769dc1p-23 ppe=0x1.7ce8efff3d1dbp-24 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=4608 busy=0x0p+0 dma_wait=0x1.828c0be769dc1p-23 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     ""},
    {"203x1 c4 spe0",
     "read seconds=0x1.5af3ec7660598p-21 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.5af3ec7660598p-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.5af3ec7660598p-21 channel_stall=0x0p+0",
     ""},
    {"203x1 c4 spe1",
     "read seconds=0x1.9c511dc3a41dfp-22 spe_compute=0x0p+0 spe_dma=0x1.9c511dc3a41dfp-22 dma_aggregate=0x1.01b2b29a4692bp-22 ppe=0x1.fbe13ffefc27ap-24 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=6144 busy=0x0p+0 dma_wait=0x1.9c511dc3a41dfp-22 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     ""},
    {"203x1 c4 spe8",
     "read seconds=0x1.01b2b29a4692bp-22 spe_compute=0x0p+0 spe_dma=0x1.12e0be826d695p-24 dma_aggregate=0x1.01b2b29a4692bp-22 ppe=0x1.fbe13ffefc27ap-24 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=6144 busy=0x0p+0 dma_wait=0x1.01b2b29a4692bp-22 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     ""},
    {"1x77 c1 spe0",
     "read seconds=0x1.d4f0a1820a1fcp-20 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.d4f0a1820a1fcp-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.d4f0a1820a1fcp-20 channel_stall=0x0p+0",
     ""},
    {"1x77 c1 spe1",
     "read seconds=0x1.d4f0a1820a1fcp-20 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.d4f0a1820a1fcp-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.d4f0a1820a1fcp-20 channel_stall=0x0p+0",
     ""},
    {"1x77 c1 spe8",
     "read seconds=0x1.d4f0a1820a1fcp-20 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.d4f0a1820a1fcp-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.d4f0a1820a1fcp-20 channel_stall=0x0p+0",
     ""},
    {"1x77 c3 spe0",
     "read seconds=0x1.5fb479218797dp-18 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.5fb479218797dp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.5fb479218797dp-18 channel_stall=0x0p+0",
     ""},
    {"1x77 c3 spe1",
     "read seconds=0x1.5fb479218797dp-18 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.5fb479218797dp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.5fb479218797dp-18 channel_stall=0x0p+0",
     ""},
    {"1x77 c3 spe8",
     "read seconds=0x1.5fb479218797dp-18 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.5fb479218797dp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.5fb479218797dp-18 channel_stall=0x0p+0",
     ""},
    {"1x77 c4 spe0",
     "read seconds=0x1.d4f0a1820a1fcp-18 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.d4f0a1820a1fcp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.d4f0a1820a1fcp-18 channel_stall=0x0p+0",
     ""},
    {"1x77 c4 spe1",
     "read seconds=0x1.d4f0a1820a1fcp-18 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.d4f0a1820a1fcp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.d4f0a1820a1fcp-18 channel_stall=0x0p+0",
     ""},
    {"1x77 c4 spe8",
     "read seconds=0x1.d4f0a1820a1fcp-18 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.d4f0a1820a1fcp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.d4f0a1820a1fcp-18 channel_stall=0x0p+0",
     ""},
    {"531x9 c1 spe0",
     "read seconds=0x1.d38e4bcc75febp-19 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.d38e4bcc75febp-19 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.d38e4bcc75febp-19 channel_stall=0x0p+0",
     ""},
    {"531x9 c1 spe1",
     "read seconds=0x1.353cd652bb167p-19 spe_compute=0x0p+0 spe_dma=0x1.353cd652bb167p-19 dma_aggregate=0x1.828c0be769dc1p-20 ppe=0x1.52d528d5a5fe2p-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=36864 busy=0x0p+0 dma_wait=0x1.353cd652bb167p-19 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     ""},
    {"531x9 c1 spe8",
     "read seconds=0x1.828c0be769dc1p-20 spe_compute=0x0p+0 spe_dma=0x1.353cd652bb167p-22 dma_aggregate=0x1.828c0be769dc1p-20 ppe=0x1.52d528d5a5fe2p-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=36864 busy=0x0p+0 dma_wait=0x1.828c0be769dc1p-20 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     ""},
    {"531x9 c3 spe0",
     "read seconds=0x1.5eaab8d9587fp-17 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.5eaab8d9587fp-17 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.5eaab8d9587fp-17 channel_stall=0x0p+0",
     ""},
    {"531x9 c3 spe1",
     "read seconds=0x1.cfdb417c18a1bp-18 spe_compute=0x0p+0 spe_dma=0x1.cfdb417c18a1bp-18 dma_aggregate=0x1.21e908ed8f651p-18 ppe=0x1.fc3fbd4078fd3p-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=110592 busy=0x0p+0 dma_wait=0x1.cfdb417c18a1bp-18 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     ""},
    {"531x9 c3 spe8",
     "read seconds=0x1.21e908ed8f651p-18 spe_compute=0x0p+0 spe_dma=0x1.cfdb417c18a1bp-21 dma_aggregate=0x1.21e908ed8f651p-18 ppe=0x1.fc3fbd4078fd3p-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=110592 busy=0x0p+0 dma_wait=0x1.21e908ed8f651p-18 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     ""},
    {"531x9 c4 spe0",
     "read seconds=0x1.d38e4bcc75febp-17 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.d38e4bcc75febp-17 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.d38e4bcc75febp-17 channel_stall=0x0p+0",
     ""},
    {"531x9 c4 spe1",
     "read seconds=0x1.353cd652bb167p-17 spe_compute=0x0p+0 spe_dma=0x1.353cd652bb167p-17 dma_aggregate=0x1.828c0be769dc1p-18 ppe=0x1.52d528d5a5fe2p-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=147456 busy=0x0p+0 dma_wait=0x1.353cd652bb167p-17 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     ""},
    {"531x9 c4 spe8",
     "read seconds=0x1.828c0be769dc1p-18 spe_compute=0x0p+0 spe_dma=0x1.353cd652bb167p-20 dma_aggregate=0x1.828c0be769dc1p-18 ppe=0x1.52d528d5a5fe2p-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=147456 busy=0x0p+0 dma_wait=0x1.828c0be769dc1p-18 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     ""},
  };
  std::size_t checked = 0;
  for (const Shape& sh : kShapes) {
    for (const std::size_t comps : {1, 3, 4}) {
      const std::vector<Plane> src = source_planes(sh, comps);
      Image img(sh.width, sh.height, comps, kDepth);
      for (std::size_t c = 0; c < comps; ++c) {
        for (std::size_t y = 0; y < sh.height; ++y) {
          std::copy_n(src[c].row(y), sh.width, img.plane(c).row(y));
        }
      }
      for (const int spes : kSpes) {
        const std::string key = std::string(sh.name) + " c" +
                                std::to_string(comps) + " spe" +
                                std::to_string(spes);
        SCOPED_TRACE(key);
        Rig rig(spes);
        jp2k::CodingParams params;
        params.levels = 2;
        const TileFrontResult front =
            encode_tile_front(rig.machine(), img, params, PipelineOptions{},
                              nullptr);
        rig.expect_clean();
        ASSERT_FALSE(front.stages.empty());
        EXPECT_EQ(front.stages[0].name, "read");
        // The read copies planes: its output is the lossless MCT's input,
        // which the MCT pins cover.
        if (pins::check_pin(table, key, front.stages[0], "", "")) ++checked;
      }
    }
  }
  EXPECT_EQ(checked, table.size());
}

TEST(FrontStagePins, MctLossless) {
  check_mct(MctPath::kLossless, {
    {"203x77 c1 grey spe0",
     "levelshift+mct seconds=0x1.68961f19536bdp-16 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.68961f19536bdp-16 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.68961f19536bdp-16 channel_stall=0x0p+0",
     "a875eade61d3bed131040351fb1cd7f26e66f030227b13f620642831930a9ad8"},
    {"203x77 c1 grey spe1",
     "levelshift+mct seconds=0x1.f01197cf6174p-18 spe_compute=0x1.10e70303eb72p-18 spe_dma=0x1.f01197cf6174p-18 dma_aggregate=0x1.360afee19ce88p-18 ppe=0x1.38a06bac06bfdp-20 overlap_saved=0x0p+0 dma_overlap_saved=0x1.10e70303eb72p-18 dma_bytes=118272 busy=0x1.10e70303eb72p-18 dma_wait=0x1.be552996ec04p-19 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "a875eade61d3bed131040351fb1cd7f26e66f030227b13f620642831930a9ad8"},
    {"203x77 c1 grey spe8",
     "levelshift+mct seconds=0x1.360afee19ce88p-18 spe_compute=0x1.76a29ea5f2ee5p-21 spe_dma=0x1.4ab66534eba2bp-20 dma_aggregate=0x1.360afee19ce88p-18 ppe=0x1.38a06bac06bfdp-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=118272 busy=0x1.18f9f6fc7632cp-21 dma_wait=0x1.12ebc0020e222p-18 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "a875eade61d3bed131040351fb1cd7f26e66f030227b13f620642831930a9ad8"},
    {"203x77 c3 grey spe0",
     "levelshift+mct seconds=0x1.0e709752fe90dp-14 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.0e709752fe90dp-14 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.0e709752fe90dp-14 channel_stall=0x0p+0",
     "b7044265116ee106c2089bff7d18dc347daa047753f80a0942793451e84b6c01"},
    {"203x77 c3 grey spe1",
     "levelshift+mct seconds=0x1.740d31db8917p-16 spe_compute=0x1.995a8485e12bp-17 spe_dma=0x1.740d31db8917p-16 dma_aggregate=0x1.d1107e526b5ccp-17 ppe=0x1.d4f0a1820a1fcp-19 overlap_saved=0x0p+0 dma_overlap_saved=0x1.995a8485e12bp-17 dma_bytes=354816 busy=0x1.995a8485e12bp-17 dma_wait=0x1.4ebfdf313103p-17 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "b7044265116ee106c2089bff7d18dc347daa047753f80a0942793451e84b6c01"},
    {"203x77 c3 grey spe8",
     "levelshift+mct seconds=0x1.d1107e526b5ccp-17 spe_compute=0x1.18f9f6fc7632bp-19 spe_dma=0x1.f01197cf6174p-19 dma_aggregate=0x1.d1107e526b5ccp-17 ppe=0x1.d4f0a1820a1fcp-19 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=354816 busy=0x1.a576f27ab14c1p-20 dma_wait=0x1.9c61a00315334p-17 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "b7044265116ee106c2089bff7d18dc347daa047753f80a0942793451e84b6c01"},
    {"203x77 c3 colour spe0",
     "levelshift+mct seconds=0x1.0e709752fe90dp-14 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.0e709752fe90dp-14 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.0e709752fe90dp-14 channel_stall=0x0p+0",
     "311ac32bba0b1e92c38bab04836c5c54b2aedaa098705173297f4421018fb9b5"},
    {"203x77 c3 colour spe1",
     "levelshift+mct seconds=0x1.740d31db8917p-16 spe_compute=0x1.96ee6e881df13p-17 spe_dma=0x1.740d31db8917p-16 dma_aggregate=0x1.d1107e526b5ccp-17 ppe=0x1.d4f0a1820a1fcp-19 overlap_saved=0x0p+0 dma_overlap_saved=0x1.96ee6e881df14p-17 dma_bytes=354816 busy=0x1.96ee6e881df13p-17 dma_wait=0x1.512bf52ef43cdp-17 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "311ac32bba0b1e92c38bab04836c5c54b2aedaa098705173297f4421018fb9b5"},
    {"203x77 c3 colour spe8",
     "levelshift+mct seconds=0x1.d1107e526b5ccp-17 spe_compute=0x1.0f499f05694b7p-19 spe_dma=0x1.f01197cf6174p-19 dma_aggregate=0x1.d1107e526b5ccp-17 ppe=0x1.d4f0a1820a1fcp-19 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=354816 busy=0x1.96ee6e881df13p-20 dma_wait=0x1.9e32b081679eap-17 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "311ac32bba0b1e92c38bab04836c5c54b2aedaa098705173297f4421018fb9b5"},
    {"203x77 c4 grey spe0",
     "levelshift+mct seconds=0x1.68961f19536bdp-14 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.68961f19536bdp-14 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.68961f19536bdp-14 channel_stall=0x0p+0",
     "5950ff477de526cfa36ff34d1a16bbe64ac1f5b55fd9ebddc74b4af3b36d4ef5"},
    {"203x77 c4 grey spe1",
     "levelshift+mct seconds=0x1.f01197cf6174p-16 spe_compute=0x1.10e70303eb72p-16 spe_dma=0x1.f01197cf6174p-16 dma_aggregate=0x1.360afee19ce88p-16 ppe=0x1.38a06bac06bfdp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x1.10e70303eb72p-16 dma_bytes=473088 busy=0x1.10e70303eb72p-16 dma_wait=0x1.be552996ec04p-17 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "5950ff477de526cfa36ff34d1a16bbe64ac1f5b55fd9ebddc74b4af3b36d4ef5"},
    {"203x77 c4 grey spe8",
     "levelshift+mct seconds=0x1.360afee19ce88p-16 spe_compute=0x1.76a29ea5f2ee5p-19 spe_dma=0x1.4ab66534eba2bp-18 dma_aggregate=0x1.360afee19ce88p-16 ppe=0x1.38a06bac06bfdp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=473088 busy=0x1.18f9f6fc7632cp-19 dma_wait=0x1.12ebc0020e222p-16 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "5950ff477de526cfa36ff34d1a16bbe64ac1f5b55fd9ebddc74b4af3b36d4ef5"},
    {"203x77 c4 colour spe0",
     "levelshift+mct seconds=0x1.68961f19536bdp-14 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.68961f19536bdp-14 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.68961f19536bdp-14 channel_stall=0x0p+0",
     "1a6d4b57a71ea3255427b21d2fed6603b5caed6a2c66e1269cd01c451f346b02"},
    {"203x77 c4 colour spe1",
     "levelshift+mct seconds=0x1.f01197cf6174p-16 spe_compute=0x1.f7d1de2e9ef9dp-17 spe_dma=0x1.f01197cf6174p-16 dma_aggregate=0x1.360afee19ce88p-16 ppe=0x1.38a06bac06bfdp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x1.f7d1de2e9ef9cp-17 dma_bytes=473088 busy=0x1.f7d1de2e9ef9dp-17 dma_wait=0x1.e851517023ee3p-17 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "1a6d4b57a71ea3255427b21d2fed6603b5caed6a2c66e1269cd01c451f346b02"},
    {"203x77 c4 colour spe8",
     "levelshift+mct seconds=0x1.360afee19ce88p-16 spe_compute=0x1.4fe13ec9bf514p-19 spe_dma=0x1.4ab66534eba2bp-18 dma_aggregate=0x1.360afee19ce88p-16 ppe=0x1.38a06bac06bfdp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=473088 busy=0x1.f7d1de2e9ef9ep-20 dma_wait=0x1.168de0feb2f8ep-16 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "1a6d4b57a71ea3255427b21d2fed6603b5caed6a2c66e1269cd01c451f346b02"},
    {"203x1 c1 grey spe0",
     "levelshift+mct seconds=0x1.2bb54bb7f58b7p-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.2bb54bb7f58b7p-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.2bb54bb7f58b7p-22 channel_stall=0x0p+0",
     "62fed6971184be24f139fc09a5a4eb3e089761e12d88a6be93a704bead9f6359"},
    {"203x1 c1 grey spe1",
     "levelshift+mct seconds=0x1.9c511dc3a41dfp-24 spe_compute=0x1.c5a7ea6a41924p-25 spe_dma=0x1.9c511dc3a41dfp-24 dma_aggregate=0x1.01b2b29a4692bp-24 ppe=0x1.03d874174b6d9p-26 overlap_saved=0x0p+0 dma_overlap_saved=0x1.c5a7ea6a41922p-25 dma_bytes=1536 busy=0x1.c5a7ea6a41924p-25 dma_wait=0x1.72fa511d06a9ap-25 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "62fed6971184be24f139fc09a5a4eb3e089761e12d88a6be93a704bead9f6359"},
    {"203x1 c1 grey spe8",
     "levelshift+mct seconds=0x1.01b2b29a4692bp-24 spe_compute=0x1.376297cfbff14p-27 spe_dma=0x1.12e0be826d695p-26 dma_aggregate=0x1.01b2b29a4692bp-24 ppe=0x1.03d874174b6d9p-26 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=1536 busy=0x1.d313e3b79fe9ep-28 dma_wait=0x1.c902e8bd99282p-25 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "62fed6971184be24f139fc09a5a4eb3e089761e12d88a6be93a704bead9f6359"},
    {"203x1 c3 grey spe0",
     "levelshift+mct seconds=0x1.c18ff193f0513p-21 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c18ff193f0513p-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c18ff193f0513p-21 channel_stall=0x0p+0",
     "227862f1d1c26dec0383b853d7359be8a46a2278149a8aa06f195ddd9adddb42"},
    {"203x1 c3 grey spe1",
     "levelshift+mct seconds=0x1.353cd652bb167p-22 spe_compute=0x1.543defcfb12dbp-23 spe_dma=0x1.353cd652bb167p-22 dma_aggregate=0x1.828c0be769dc1p-23 ppe=0x1.85c4ae22f1246p-25 overlap_saved=0x0p+0 dma_overlap_saved=0x1.543defcfb12dap-23 dma_bytes=4608 busy=0x1.543defcfb12dbp-23 dma_wait=0x1.163bbcd5c4ff3p-23 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "227862f1d1c26dec0383b853d7359be8a46a2278149a8aa06f195ddd9adddb42"},
    {"203x1 c3 grey spe8",
     "levelshift+mct seconds=0x1.828c0be769dc1p-23 spe_compute=0x1.d313e3b79fe9fp-26 spe_dma=0x1.9c511dc3a41dfp-25 dma_aggregate=0x1.828c0be769dc1p-23 ppe=0x1.85c4ae22f1246p-25 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=4608 busy=0x1.5e4eeac9b7ef7p-26 dma_wait=0x1.56c22e8e32de2p-23 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "227862f1d1c26dec0383b853d7359be8a46a2278149a8aa06f195ddd9adddb42"},
    {"203x1 c3 colour spe0",
     "levelshift+mct seconds=0x1.c18ff193f0513p-21 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c18ff193f0513p-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c18ff193f0513p-21 channel_stall=0x0p+0",
     "96e7c6a496eaf3bf967a88ebd3e7252eaecc0f26c467a94d4e952036d7444f79"},
    {"203x1 c3 colour spe1",
     "levelshift+mct seconds=0x1.353cd652bb167p-22 spe_compute=0x1.523a8a6a7ca09p-23 spe_dma=0x1.353cd652bb167p-22 dma_aggregate=0x1.828c0be769dc1p-23 ppe=0x1.85c4ae22f1246p-25 overlap_saved=0x0p+0 dma_overlap_saved=0x1.523a8a6a7ca0ap-23 dma_bytes=4608 busy=0x1.523a8a6a7ca09p-23 dma_wait=0x1.183f223af98c5p-23 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "96e7c6a496eaf3bf967a88ebd3e7252eaecc0f26c467a94d4e952036d7444f79"},
    {"203x1 c3 colour spe8",
     "levelshift+mct seconds=0x1.828c0be769dc1p-23 spe_compute=0x1.c2f8b88dfb80cp-26 spe_dma=0x1.9c511dc3a41dfp-25 dma_aggregate=0x1.828c0be769dc1p-23 ppe=0x1.85c4ae22f1246p-25 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=4608 busy=0x1.523a8a6a7ca0ap-26 dma_wait=0x1.5844ba9a1a48p-23 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "96e7c6a496eaf3bf967a88ebd3e7252eaecc0f26c467a94d4e952036d7444f79"},
    {"203x1 c4 grey spe0",
     "levelshift+mct seconds=0x1.2bb54bb7f58b7p-20 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.2bb54bb7f58b7p-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.2bb54bb7f58b7p-20 channel_stall=0x0p+0",
     "fb811d328bbe732e88eda35e34e51fdc6b3dd76e923ad528b80096f15a8dffa5"},
    {"203x1 c4 grey spe1",
     "levelshift+mct seconds=0x1.9c511dc3a41dfp-22 spe_compute=0x1.c5a7ea6a41924p-23 spe_dma=0x1.9c511dc3a41dfp-22 dma_aggregate=0x1.01b2b29a4692bp-22 ppe=0x1.03d874174b6d9p-24 overlap_saved=0x0p+0 dma_overlap_saved=0x1.c5a7ea6a41922p-23 dma_bytes=6144 busy=0x1.c5a7ea6a41924p-23 dma_wait=0x1.72fa511d06a9ap-23 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "fb811d328bbe732e88eda35e34e51fdc6b3dd76e923ad528b80096f15a8dffa5"},
    {"203x1 c4 grey spe8",
     "levelshift+mct seconds=0x1.01b2b29a4692bp-22 spe_compute=0x1.376297cfbff14p-25 spe_dma=0x1.12e0be826d695p-24 dma_aggregate=0x1.01b2b29a4692bp-22 ppe=0x1.03d874174b6d9p-24 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=6144 busy=0x1.d313e3b79fe9ep-26 dma_wait=0x1.c902e8bd99282p-23 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "fb811d328bbe732e88eda35e34e51fdc6b3dd76e923ad528b80096f15a8dffa5"},
    {"203x1 c4 colour spe0",
     "levelshift+mct seconds=0x1.2bb54bb7f58b7p-20 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.2bb54bb7f58b7p-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.2bb54bb7f58b7p-20 channel_stall=0x0p+0",
     "9c88804dbdbf046fe7150e84641cee335d5a6d11302aa4c95b0db9be2ef593d5"},
    {"203x1 c4 colour spe1",
     "levelshift+mct seconds=0x1.9c511dc3a41dfp-22 spe_compute=0x1.a2c2623ab2ae7p-23 spe_dma=0x1.9c511dc3a41dfp-22 dma_aggregate=0x1.01b2b29a4692bp-22 ppe=0x1.03d874174b6d9p-24 overlap_saved=0x0p+0 dma_overlap_saved=0x1.a2c2623ab2ae6p-23 dma_bytes=6144 busy=0x1.a2c2623ab2ae7p-23 dma_wait=0x1.95dfd94c958d7p-23 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "9c88804dbdbf046fe7150e84641cee335d5a6d11302aa4c95b0db9be2ef593d5"},
    {"203x1 c4 colour spe8",
     "levelshift+mct seconds=0x1.01b2b29a4692bp-22 spe_compute=0x1.172c417c771efp-25 spe_dma=0x1.12e0be826d695p-24 dma_aggregate=0x1.01b2b29a4692bp-22 ppe=0x1.03d874174b6d9p-24 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=6144 busy=0x1.a2c2623ab2ae7p-26 dma_wait=0x1.cf0d18ed36cf9p-23 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "9c88804dbdbf046fe7150e84641cee335d5a6d11302aa4c95b0db9be2ef593d5"},
    {"1x77 c1 grey spe0",
     "levelshift+mct seconds=0x1.c6bacb28c3ffbp-24 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c6bacb28c3ffbp-24 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c6bacb28c3ffbp-24 channel_stall=0x0p+0",
     "04bc0061b47a039459048d3413af8940157be1ef1a6ddc15a7197b0f93d82303"},
    {"1x77 c1 grey spe1",
     "levelshift+mct seconds=0x1.c6bacb28c3ffbp-24 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c6bacb28c3ffbp-24 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c6bacb28c3ffbp-24 channel_stall=0x0p+0",
     "04bc0061b47a039459048d3413af8940157be1ef1a6ddc15a7197b0f93d82303"},
    {"1x77 c1 grey spe8",
     "levelshift+mct seconds=0x1.c6bacb28c3ffbp-24 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c6bacb28c3ffbp-24 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c6bacb28c3ffbp-24 channel_stall=0x0p+0",
     "04bc0061b47a039459048d3413af8940157be1ef1a6ddc15a7197b0f93d82303"},
    {"1x77 c3 grey spe0",
     "levelshift+mct seconds=0x1.550c185e92ffdp-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.550c185e92ffdp-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.550c185e92ffdp-22 channel_stall=0x0p+0",
     "5cdbce7d229d9eb27e662243be01d157de2f518cc9a4b44674f566f613521666"},
    {"1x77 c3 grey spe1",
     "levelshift+mct seconds=0x1.550c185e92ffdp-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.550c185e92ffdp-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.550c185e92ffdp-22 channel_stall=0x0p+0",
     "5cdbce7d229d9eb27e662243be01d157de2f518cc9a4b44674f566f613521666"},
    {"1x77 c3 grey spe8",
     "levelshift+mct seconds=0x1.550c185e92ffdp-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.550c185e92ffdp-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.550c185e92ffdp-22 channel_stall=0x0p+0",
     "5cdbce7d229d9eb27e662243be01d157de2f518cc9a4b44674f566f613521666"},
    {"1x77 c3 colour spe0",
     "levelshift+mct seconds=0x1.550c185e92ffdp-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.550c185e92ffdp-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.550c185e92ffdp-22 channel_stall=0x0p+0",
     "5b68151a738c6e4981d55159ae63bfedbccf442b30b241f61770f81b0f797fb8"},
    {"1x77 c3 colour spe1",
     "levelshift+mct seconds=0x1.550c185e92ffdp-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.550c185e92ffdp-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.550c185e92ffdp-22 channel_stall=0x0p+0",
     "5b68151a738c6e4981d55159ae63bfedbccf442b30b241f61770f81b0f797fb8"},
    {"1x77 c3 colour spe8",
     "levelshift+mct seconds=0x1.550c185e92ffdp-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.550c185e92ffdp-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.550c185e92ffdp-22 channel_stall=0x0p+0",
     "5b68151a738c6e4981d55159ae63bfedbccf442b30b241f61770f81b0f797fb8"},
    {"1x77 c4 grey spe0",
     "levelshift+mct seconds=0x1.c6bacb28c3ffbp-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c6bacb28c3ffbp-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c6bacb28c3ffbp-22 channel_stall=0x0p+0",
     "6121159e01980fe544cadd032ba2b3be39e803fb04833f9d7de6ab1385ae67e8"},
    {"1x77 c4 grey spe1",
     "levelshift+mct seconds=0x1.c6bacb28c3ffbp-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c6bacb28c3ffbp-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c6bacb28c3ffbp-22 channel_stall=0x0p+0",
     "6121159e01980fe544cadd032ba2b3be39e803fb04833f9d7de6ab1385ae67e8"},
    {"1x77 c4 grey spe8",
     "levelshift+mct seconds=0x1.c6bacb28c3ffbp-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c6bacb28c3ffbp-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c6bacb28c3ffbp-22 channel_stall=0x0p+0",
     "6121159e01980fe544cadd032ba2b3be39e803fb04833f9d7de6ab1385ae67e8"},
    {"1x77 c4 colour spe0",
     "levelshift+mct seconds=0x1.c6bacb28c3ffbp-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c6bacb28c3ffbp-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c6bacb28c3ffbp-22 channel_stall=0x0p+0",
     "2c6c8296e63fac42f27922a567bf39472a55cf17d509a59018f3711cb8d9aae1"},
    {"1x77 c4 colour spe1",
     "levelshift+mct seconds=0x1.c6bacb28c3ffbp-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c6bacb28c3ffbp-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c6bacb28c3ffbp-22 channel_stall=0x0p+0",
     "2c6c8296e63fac42f27922a567bf39472a55cf17d509a59018f3711cb8d9aae1"},
    {"1x77 c4 colour spe8",
     "levelshift+mct seconds=0x1.c6bacb28c3ffbp-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c6bacb28c3ffbp-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c6bacb28c3ffbp-22 channel_stall=0x0p+0",
     "2c6c8296e63fac42f27922a567bf39472a55cf17d509a59018f3711cb8d9aae1"},
    {"531x9 c1 grey spe0",
     "levelshift+mct seconds=0x1.b8fb116159eacp-18 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.b8fb116159eacp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.b8fb116159eacp-18 channel_stall=0x0p+0",
     "bfc188b91b9ea94ecd79ac3bba2d45008143bfb404a02dc94fb60ce94099fb2f"},
    {"531x9 c1 grey spe1",
     "levelshift+mct seconds=0x1.353cd652bb167p-19 spe_compute=0x1.52fbd07070558p-20 spe_dma=0x1.353cd652bb167p-19 dma_aggregate=0x1.828c0be769dc1p-20 ppe=0x1.f8ed55f3157acp-23 overlap_saved=0x0p+0 dma_overlap_saved=0x1.52fbd07070558p-20 dma_bytes=36864 busy=0x1.52fbd07070558p-20 dma_wait=0x1.177ddc3505d76p-20 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "bfc188b91b9ea94ecd79ac3bba2d45008143bfb404a02dc94fb60ce94099fb2f"},
    {"531x9 c1 grey spe8",
     "levelshift+mct seconds=0x1.828c0be769dc1p-20 spe_compute=0x1.5844ba9a1a48p-23 spe_dma=0x1.353cd652bb167p-22 dma_aggregate=0x1.828c0be769dc1p-20 ppe=0x1.f8ed55f3157acp-23 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=36864 busy=0x1.5844ba9a1a48p-23 dma_wait=0x1.5783749426931p-20 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "bfc188b91b9ea94ecd79ac3bba2d45008143bfb404a02dc94fb60ce94099fb2f"},
    {"531x9 c3 grey spe0",
     "levelshift+mct seconds=0x1.4abc4d0903701p-16 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.4abc4d0903701p-16 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.4abc4d0903701p-16 channel_stall=0x0p+0",
     "b9c9332201c5d6c6c73ac31fdcfd61ce1a1ce9bc32fa377acdb24eea6c2225c1"},
    {"531x9 c3 grey spe1",
     "levelshift+mct seconds=0x1.cfdb417c18a1bp-18 spe_compute=0x1.fc79b8a8a8804p-19 spe_dma=0x1.cfdb417c18a1bp-18 dma_aggregate=0x1.21e908ed8f651p-18 ppe=0x1.7ab20076501c1p-21 overlap_saved=0x0p+0 dma_overlap_saved=0x1.fc79b8a8a8802p-19 dma_bytes=110592 busy=0x1.fc79b8a8a8804p-19 dma_wait=0x1.a33cca4f88c32p-19 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "b9c9332201c5d6c6c73ac31fdcfd61ce1a1ce9bc32fa377acdb24eea6c2225c1"},
    {"531x9 c3 grey spe8",
     "levelshift+mct seconds=0x1.21e908ed8f651p-18 spe_compute=0x1.02338bf393b6p-21 spe_dma=0x1.cfdb417c18a1bp-21 dma_aggregate=0x1.21e908ed8f651p-18 ppe=0x1.7ab20076501c1p-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=110592 busy=0x1.02338bf393b6p-21 dma_wait=0x1.01a2976f1cee5p-18 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "b9c9332201c5d6c6c73ac31fdcfd61ce1a1ce9bc32fa377acdb24eea6c2225c1"},
    {"531x9 c3 colour spe0",
     "levelshift+mct seconds=0x1.4abc4d0903701p-16 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.4abc4d0903701p-16 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.4abc4d0903701p-16 channel_stall=0x0p+0",
     "6b25942499eae2e2e7971ae17ab2e914517332ff1f4dd62e84d13613ae2ac223"},
    {"531x9 c3 colour spe1",
     "levelshift+mct seconds=0x1.cfdb417c18a1bp-18 spe_compute=0x1.fb57cf9fbaf0dp-19 spe_dma=0x1.cfdb417c18a1bp-18 dma_aggregate=0x1.21e908ed8f651p-18 ppe=0x1.7ab20076501c1p-21 overlap_saved=0x0p+0 dma_overlap_saved=0x1.fb57cf9fbaf0ep-19 dma_bytes=110592 busy=0x1.fb57cf9fbaf0dp-19 dma_wait=0x1.a45eb35876529p-19 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "6b25942499eae2e2e7971ae17ab2e914517332ff1f4dd62e84d13613ae2ac223"},
    {"531x9 c3 colour spe8",
     "levelshift+mct seconds=0x1.21e908ed8f651p-18 spe_compute=0x1.fb57cf9fbaf0dp-22 spe_dma=0x1.cfdb417c18a1bp-21 dma_aggregate=0x1.21e908ed8f651p-18 ppe=0x1.7ab20076501c1p-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=110592 busy=0x1.fb57cf9fbaf0ep-22 dma_wait=0x1.02338bf393b6p-18 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "6b25942499eae2e2e7971ae17ab2e914517332ff1f4dd62e84d13613ae2ac223"},
    {"531x9 c4 grey spe0",
     "levelshift+mct seconds=0x1.b8fb116159eacp-16 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.b8fb116159eacp-16 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.b8fb116159eacp-16 channel_stall=0x0p+0",
     "e2e2c1ed94833ca8a10b194f483d326bec1016c13ff43d16a95333fc7efbf054"},
    {"531x9 c4 grey spe1",
     "levelshift+mct seconds=0x1.353cd652bb167p-17 spe_compute=0x1.52fbd07070558p-18 spe_dma=0x1.353cd652bb167p-17 dma_aggregate=0x1.828c0be769dc1p-18 ppe=0x1.f8ed55f3157acp-21 overlap_saved=0x0p+0 dma_overlap_saved=0x1.52fbd07070558p-18 dma_bytes=147456 busy=0x1.52fbd07070558p-18 dma_wait=0x1.177ddc3505d76p-18 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "e2e2c1ed94833ca8a10b194f483d326bec1016c13ff43d16a95333fc7efbf054"},
    {"531x9 c4 grey spe8",
     "levelshift+mct seconds=0x1.828c0be769dc1p-18 spe_compute=0x1.5844ba9a1a48p-21 spe_dma=0x1.353cd652bb167p-20 dma_aggregate=0x1.828c0be769dc1p-18 ppe=0x1.f8ed55f3157acp-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=147456 busy=0x1.5844ba9a1a48p-21 dma_wait=0x1.5783749426931p-18 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "e2e2c1ed94833ca8a10b194f483d326bec1016c13ff43d16a95333fc7efbf054"},
    {"531x9 c4 colour spe0",
     "levelshift+mct seconds=0x1.b8fb116159eacp-16 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.b8fb116159eacp-16 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.b8fb116159eacp-16 channel_stall=0x0p+0",
     "45faebf5cad5e3ac1f9af0ed10e15752fee4f1d4529e6a58ee1819f79f246a74"},
    {"531x9 c4 colour spe1",
     "levelshift+mct seconds=0x1.353cd652bb167p-17 spe_compute=0x1.3a11c9ac0602dp-18 spe_dma=0x1.353cd652bb167p-17 dma_aggregate=0x1.828c0be769dc1p-18 ppe=0x1.f8ed55f3157acp-21 overlap_saved=0x0p+0 dma_overlap_saved=0x1.3a11c9ac0602ep-18 dma_bytes=147456 busy=0x1.3a11c9ac0602dp-18 dma_wait=0x1.3067e2f9702a1p-18 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "45faebf5cad5e3ac1f9af0ed10e15752fee4f1d4529e6a58ee1819f79f246a74"},
    {"531x9 c4 colour spe8",
     "levelshift+mct seconds=0x1.828c0be769dc1p-18 spe_compute=0x1.3a11c9ac0602dp-21 spe_dma=0x1.353cd652bb167p-20 dma_aggregate=0x1.828c0be769dc1p-18 ppe=0x1.f8ed55f3157acp-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=147456 busy=0x1.3a11c9ac0602dp-21 dma_wait=0x1.5b49d2b1e91bbp-18 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "45faebf5cad5e3ac1f9af0ed10e15752fee4f1d4529e6a58ee1819f79f246a74"},
  });
}

TEST(FrontStagePins, MctLossy) {
  check_mct(MctPath::kLossy, {
    {"203x77 c1 grey spe0",
     "levelshift+ict seconds=0x1.68961f19536bdp-16 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.68961f19536bdp-16 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.68961f19536bdp-16 channel_stall=0x0p+0",
     "69ac6f65f1e78ad7234274addeb264b6c39022750e877e326bafa66485350c1b"},
    {"203x77 c1 grey spe1",
     "levelshift+ict seconds=0x1.f01197cf6174p-18 spe_compute=0x1.10e70303eb72p-18 spe_dma=0x1.f01197cf6174p-18 dma_aggregate=0x1.360afee19ce88p-18 ppe=0x1.38a06bac06bfdp-20 overlap_saved=0x0p+0 dma_overlap_saved=0x1.10e70303eb72p-18 dma_bytes=118272 busy=0x1.10e70303eb72p-18 dma_wait=0x1.be552996ec04p-19 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "69ac6f65f1e78ad7234274addeb264b6c39022750e877e326bafa66485350c1b"},
    {"203x77 c1 grey spe8",
     "levelshift+ict seconds=0x1.360afee19ce88p-18 spe_compute=0x1.76a29ea5f2ee5p-21 spe_dma=0x1.4ab66534eba2bp-20 dma_aggregate=0x1.360afee19ce88p-18 ppe=0x1.38a06bac06bfdp-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=118272 busy=0x1.18f9f6fc7632cp-21 dma_wait=0x1.12ebc0020e222p-18 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "69ac6f65f1e78ad7234274addeb264b6c39022750e877e326bafa66485350c1b"},
    {"203x77 c3 grey spe0",
     "levelshift+ict seconds=0x1.0e709752fe90dp-14 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.0e709752fe90dp-14 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.0e709752fe90dp-14 channel_stall=0x0p+0",
     "d39156b215ee4d3abd1470031337e4d0737106827a2c9349a9f9ea36f852c926"},
    {"203x77 c3 grey spe1",
     "levelshift+ict seconds=0x1.740d31db8917p-16 spe_compute=0x1.995a8485e12bp-17 spe_dma=0x1.740d31db8917p-16 dma_aggregate=0x1.d1107e526b5ccp-17 ppe=0x1.d4f0a1820a1fcp-19 overlap_saved=0x0p+0 dma_overlap_saved=0x1.995a8485e12bp-17 dma_bytes=354816 busy=0x1.995a8485e12bp-17 dma_wait=0x1.4ebfdf313103p-17 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "d39156b215ee4d3abd1470031337e4d0737106827a2c9349a9f9ea36f852c926"},
    {"203x77 c3 grey spe8",
     "levelshift+ict seconds=0x1.d1107e526b5ccp-17 spe_compute=0x1.18f9f6fc7632bp-19 spe_dma=0x1.f01197cf6174p-19 dma_aggregate=0x1.d1107e526b5ccp-17 ppe=0x1.d4f0a1820a1fcp-19 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=354816 busy=0x1.a576f27ab14c1p-20 dma_wait=0x1.9c61a00315334p-17 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "d39156b215ee4d3abd1470031337e4d0737106827a2c9349a9f9ea36f852c926"},
    {"203x77 c3 colour spe0",
     "levelshift+ict seconds=0x1.efce6ac2d2b43p-14 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.efce6ac2d2b43p-14 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.efce6ac2d2b43p-14 channel_stall=0x0p+0",
     "41b78164eda0160ceadf3f17fc25f9e0009f6e976520aee5b9ef6f3401166b60"},
    {"203x77 c3 colour spe1",
     "levelshift+ict seconds=0x1.740d31db8917p-16 spe_compute=0x1.3fbb56d8a9cfcp-16 spe_dma=0x1.740d31db8917p-16 dma_aggregate=0x1.d1107e526b5ccp-17 ppe=0x1.addc940c8947cp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x1.3fbb56d8a9cfcp-16 dma_bytes=354816 busy=0x1.3fbb56d8a9cfcp-16 dma_wait=0x1.a28ed816fa3ap-19 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "41b78164eda0160ceadf3f17fc25f9e0009f6e976520aee5b9ef6f3401166b60"},
    {"203x77 c3 colour spe8",
     "levelshift+ict seconds=0x1.d1107e526b5ccp-17 spe_compute=0x1.aa4f1e7637bfbp-19 spe_dma=0x1.f01197cf6174p-19 dma_aggregate=0x1.d1107e526b5ccp-17 ppe=0x1.addc940c8947cp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=354816 busy=0x1.3fbb56d8a9cfcp-19 dma_wait=0x1.8121a89c40e8dp-17 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "41b78164eda0160ceadf3f17fc25f9e0009f6e976520aee5b9ef6f3401166b60"},
    {"203x77 c4 grey spe0",
     "levelshift+ict seconds=0x1.68961f19536bdp-14 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.68961f19536bdp-14 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.68961f19536bdp-14 channel_stall=0x0p+0",
     "fb8b02ff830e1aae2f3dd07c25259b9fe889efab116b793fc445996c7e199e90"},
    {"203x77 c4 grey spe1",
     "levelshift+ict seconds=0x1.f01197cf6174p-16 spe_compute=0x1.10e70303eb72p-16 spe_dma=0x1.f01197cf6174p-16 dma_aggregate=0x1.360afee19ce88p-16 ppe=0x1.38a06bac06bfdp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x1.10e70303eb72p-16 dma_bytes=473088 busy=0x1.10e70303eb72p-16 dma_wait=0x1.be552996ec04p-17 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "fb8b02ff830e1aae2f3dd07c25259b9fe889efab116b793fc445996c7e199e90"},
    {"203x77 c4 grey spe8",
     "levelshift+ict seconds=0x1.360afee19ce88p-16 spe_compute=0x1.76a29ea5f2ee5p-19 spe_dma=0x1.4ab66534eba2bp-18 dma_aggregate=0x1.360afee19ce88p-16 ppe=0x1.38a06bac06bfdp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=473088 busy=0x1.18f9f6fc7632cp-19 dma_wait=0x1.12ebc0020e222p-16 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "fb8b02ff830e1aae2f3dd07c25259b9fe889efab116b793fc445996c7e199e90"},
    {"203x77 c4 colour spe0",
     "levelshift+ict seconds=0x1.24f9f94493c79p-13 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.24f9f94493c79p-13 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.24f9f94493c79p-13 channel_stall=0x0p+0",
     "d0de51118047c3deadac3ff84ee69f893aa54e899a4fc6cecda2daa229a138c9"},
    {"203x77 c4 colour spe1",
     "levelshift+ict seconds=0x1.f01197cf6174p-16 spe_compute=0x1.838dbe9a0422ap-16 spe_dma=0x1.f01197cf6174p-16 dma_aggregate=0x1.360afee19ce88p-16 ppe=0x1.fc04aef78af7bp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x1.838dbe9a0422ap-16 dma_bytes=473088 busy=0x1.838dbe9a0422ap-16 dma_wait=0x1.b20f64d575458p-18 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "d0de51118047c3deadac3ff84ee69f893aa54e899a4fc6cecda2daa229a138c9"},
    {"203x77 c4 colour spe8",
     "levelshift+ict seconds=0x1.360afee19ce88p-16 spe_compute=0x1.025e7f1158172p-18 spe_dma=0x1.4ab66534eba2bp-18 dma_aggregate=0x1.360afee19ce88p-16 ppe=0x1.fc04aef78af7bp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=473088 busy=0x1.838dbe9a0422ap-19 dma_wait=0x1.0599470e5c643p-16 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "d0de51118047c3deadac3ff84ee69f893aa54e899a4fc6cecda2daa229a138c9"},
    {"203x1 c1 grey spe0",
     "levelshift+ict seconds=0x1.2bb54bb7f58b7p-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.2bb54bb7f58b7p-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.2bb54bb7f58b7p-22 channel_stall=0x0p+0",
     "2f7b341f5533a04eac825d230bbda6d82274bbd779943c4a1682f209f9b79c60"},
    {"203x1 c1 grey spe1",
     "levelshift+ict seconds=0x1.9c511dc3a41dfp-24 spe_compute=0x1.c5a7ea6a41924p-25 spe_dma=0x1.9c511dc3a41dfp-24 dma_aggregate=0x1.01b2b29a4692bp-24 ppe=0x1.03d874174b6d9p-26 overlap_saved=0x0p+0 dma_overlap_saved=0x1.c5a7ea6a41922p-25 dma_bytes=1536 busy=0x1.c5a7ea6a41924p-25 dma_wait=0x1.72fa511d06a9ap-25 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "2f7b341f5533a04eac825d230bbda6d82274bbd779943c4a1682f209f9b79c60"},
    {"203x1 c1 grey spe8",
     "levelshift+ict seconds=0x1.01b2b29a4692bp-24 spe_compute=0x1.376297cfbff14p-27 spe_dma=0x1.12e0be826d695p-26 dma_aggregate=0x1.01b2b29a4692bp-24 ppe=0x1.03d874174b6d9p-26 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=1536 busy=0x1.d313e3b79fe9ep-28 dma_wait=0x1.c902e8bd99282p-25 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "2f7b341f5533a04eac825d230bbda6d82274bbd779943c4a1682f209f9b79c60"},
    {"203x1 c3 grey spe0",
     "levelshift+ict seconds=0x1.c18ff193f0513p-21 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c18ff193f0513p-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c18ff193f0513p-21 channel_stall=0x0p+0",
     "6f6202f6d6a2bc6fa6c4015fa48eb5a723c04363158278a1479438a28af29763"},
    {"203x1 c3 grey spe1",
     "levelshift+ict seconds=0x1.353cd652bb167p-22 spe_compute=0x1.543defcfb12dbp-23 spe_dma=0x1.353cd652bb167p-22 dma_aggregate=0x1.828c0be769dc1p-23 ppe=0x1.85c4ae22f1246p-25 overlap_saved=0x0p+0 dma_overlap_saved=0x1.543defcfb12dap-23 dma_bytes=4608 busy=0x1.543defcfb12dbp-23 dma_wait=0x1.163bbcd5c4ff3p-23 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "6f6202f6d6a2bc6fa6c4015fa48eb5a723c04363158278a1479438a28af29763"},
    {"203x1 c3 grey spe8",
     "levelshift+ict seconds=0x1.828c0be769dc1p-23 spe_compute=0x1.d313e3b79fe9fp-26 spe_dma=0x1.9c511dc3a41dfp-25 dma_aggregate=0x1.828c0be769dc1p-23 ppe=0x1.85c4ae22f1246p-25 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=4608 busy=0x1.5e4eeac9b7ef7p-26 dma_wait=0x1.56c22e8e32de2p-23 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "6f6202f6d6a2bc6fa6c4015fa48eb5a723c04363158278a1479438a28af29763"},
    {"203x1 c3 colour spe0",
     "levelshift+ict seconds=0x1.9c19481cf19fcp-20 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.9c19481cf19fcp-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.9c19481cf19fcp-20 channel_stall=0x0p+0",
     "aa8232862d66509a5cdffcf4904371cfc0105d636f7c2e0c74bb1a85f69245eb"},
    {"203x1 c3 colour spe1",
     "levelshift+ict seconds=0x1.353cd652bb167p-22 spe_compute=0x1.09c0482f18c75p-22 spe_dma=0x1.353cd652bb167p-22 dma_aggregate=0x1.828c0be769dc1p-23 ppe=0x1.65499fa007b6bp-24 overlap_saved=0x0p+0 dma_overlap_saved=0x1.09c0482f18c75p-22 dma_bytes=4608 busy=0x1.09c0482f18c75p-22 dma_wait=0x1.5be4711d1279p-25 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "aa8232862d66509a5cdffcf4904371cfc0105d636f7c2e0c74bb1a85f69245eb"},
    {"203x1 c3 colour spe8",
     "levelshift+ict seconds=0x1.828c0be769dc1p-23 spe_compute=0x1.6255b5942109cp-25 spe_dma=0x1.9c511dc3a41dfp-25 dma_aggregate=0x1.828c0be769dc1p-23 ppe=0x1.65499fa007b6bp-24 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=4608 busy=0x1.09c0482f18c75p-25 dma_wait=0x1.401bf9dba3aa4p-23 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "aa8232862d66509a5cdffcf4904371cfc0105d636f7c2e0c74bb1a85f69245eb"},
    {"203x1 c4 grey spe0",
     "levelshift+ict seconds=0x1.2bb54bb7f58b7p-20 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.2bb54bb7f58b7p-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.2bb54bb7f58b7p-20 channel_stall=0x0p+0",
     "75522efc1346c38dba0212c3a88891be4b8b71670f702108e01531c2f1588c48"},
    {"203x1 c4 grey spe1",
     "levelshift+ict seconds=0x1.9c511dc3a41dfp-22 spe_compute=0x1.c5a7ea6a41924p-23 spe_dma=0x1.9c511dc3a41dfp-22 dma_aggregate=0x1.01b2b29a4692bp-22 ppe=0x1.03d874174b6d9p-24 overlap_saved=0x0p+0 dma_overlap_saved=0x1.c5a7ea6a41922p-23 dma_bytes=6144 busy=0x1.c5a7ea6a41924p-23 dma_wait=0x1.72fa511d06a9ap-23 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "75522efc1346c38dba0212c3a88891be4b8b71670f702108e01531c2f1588c48"},
    {"203x1 c4 grey spe8",
     "levelshift+ict seconds=0x1.01b2b29a4692bp-22 spe_compute=0x1.376297cfbff14p-25 spe_dma=0x1.12e0be826d695p-24 dma_aggregate=0x1.01b2b29a4692bp-22 ppe=0x1.03d874174b6d9p-24 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=6144 busy=0x1.d313e3b79fe9ep-26 dma_wait=0x1.c902e8bd99282p-23 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "75522efc1346c38dba0212c3a88891be4b8b71670f702108e01531c2f1588c48"},
    {"203x1 c4 colour spe0",
     "levelshift+ict seconds=0x1.e7069b0aef029p-20 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.e7069b0aef029p-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.e7069b0aef029p-20 channel_stall=0x0p+0",
     "e5ab900754b7f296fa917625d7cf1a59ebd08eb69e8fd5e12784757be1224a87"},
    {"203x1 c4 colour spe1",
     "levelshift+ict seconds=0x1.9c511dc3a41dfp-22 spe_compute=0x1.421f5f40d8376p-22 spe_dma=0x1.9c511dc3a41dfp-22 dma_aggregate=0x1.01b2b29a4692bp-22 ppe=0x1.a63fbca5da92p-24 overlap_saved=0x0p+0 dma_overlap_saved=0x1.421f5f40d8375p-22 dma_bytes=6144 busy=0x1.421f5f40d8376p-22 dma_wait=0x1.68c6fa0b2f9a4p-24 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "e5ab900754b7f296fa917625d7cf1a59ebd08eb69e8fd5e12784757be1224a87"},
    {"203x1 c4 colour spe8",
     "levelshift+ict seconds=0x1.01b2b29a4692bp-22 spe_compute=0x1.ad7f29abcaf48p-25 spe_dma=0x1.12e0be826d695p-24 dma_aggregate=0x1.01b2b29a4692bp-22 ppe=0x1.a63fbca5da92p-24 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=6144 busy=0x1.421f5f40d8376p-25 dma_wait=0x1.b2dd8d6457178p-23 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "e5ab900754b7f296fa917625d7cf1a59ebd08eb69e8fd5e12784757be1224a87"},
    {"1x77 c1 grey spe0",
     "levelshift+ict seconds=0x1.c6bacb28c3ffbp-24 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c6bacb28c3ffbp-24 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c6bacb28c3ffbp-24 channel_stall=0x0p+0",
     "bad976261d8f9d5db127d97f37858d6692b8c57745731731dc7205f2921c0a0a"},
    {"1x77 c1 grey spe1",
     "levelshift+ict seconds=0x1.c6bacb28c3ffbp-24 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c6bacb28c3ffbp-24 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c6bacb28c3ffbp-24 channel_stall=0x0p+0",
     "bad976261d8f9d5db127d97f37858d6692b8c57745731731dc7205f2921c0a0a"},
    {"1x77 c1 grey spe8",
     "levelshift+ict seconds=0x1.c6bacb28c3ffbp-24 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c6bacb28c3ffbp-24 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c6bacb28c3ffbp-24 channel_stall=0x0p+0",
     "bad976261d8f9d5db127d97f37858d6692b8c57745731731dc7205f2921c0a0a"},
    {"1x77 c3 grey spe0",
     "levelshift+ict seconds=0x1.550c185e92ffdp-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.550c185e92ffdp-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.550c185e92ffdp-22 channel_stall=0x0p+0",
     "3cbe3cdbe0a1b1f333bcc5e877736ccfd99dc25b9adbf195974ab997f79b6266"},
    {"1x77 c3 grey spe1",
     "levelshift+ict seconds=0x1.550c185e92ffdp-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.550c185e92ffdp-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.550c185e92ffdp-22 channel_stall=0x0p+0",
     "3cbe3cdbe0a1b1f333bcc5e877736ccfd99dc25b9adbf195974ab997f79b6266"},
    {"1x77 c3 grey spe8",
     "levelshift+ict seconds=0x1.550c185e92ffdp-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.550c185e92ffdp-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.550c185e92ffdp-22 channel_stall=0x0p+0",
     "3cbe3cdbe0a1b1f333bcc5e877736ccfd99dc25b9adbf195974ab997f79b6266"},
    {"1x77 c3 colour spe0",
     "levelshift+ict seconds=0x1.38a06bac06bfdp-21 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.38a06bac06bfdp-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.38a06bac06bfdp-21 channel_stall=0x0p+0",
     "4289f6939f93a8bb0c38eba37198c2d288ebe1d6adad6635227d26570ccafe08"},
    {"1x77 c3 colour spe1",
     "levelshift+ict seconds=0x1.38a06bac06bfdp-21 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.38a06bac06bfdp-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.38a06bac06bfdp-21 channel_stall=0x0p+0",
     "4289f6939f93a8bb0c38eba37198c2d288ebe1d6adad6635227d26570ccafe08"},
    {"1x77 c3 colour spe8",
     "levelshift+ict seconds=0x1.38a06bac06bfdp-21 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.38a06bac06bfdp-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.38a06bac06bfdp-21 channel_stall=0x0p+0",
     "4289f6939f93a8bb0c38eba37198c2d288ebe1d6adad6635227d26570ccafe08"},
    {"1x77 c4 grey spe0",
     "levelshift+ict seconds=0x1.c6bacb28c3ffbp-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c6bacb28c3ffbp-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c6bacb28c3ffbp-22 channel_stall=0x0p+0",
     "cd782a506895dd727ac301b39c488989c5ce95e5de348f6a016627c6aa71cfd3"},
    {"1x77 c4 grey spe1",
     "levelshift+ict seconds=0x1.c6bacb28c3ffbp-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c6bacb28c3ffbp-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c6bacb28c3ffbp-22 channel_stall=0x0p+0",
     "cd782a506895dd727ac301b39c488989c5ce95e5de348f6a016627c6aa71cfd3"},
    {"1x77 c4 grey spe8",
     "levelshift+ict seconds=0x1.c6bacb28c3ffbp-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c6bacb28c3ffbp-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c6bacb28c3ffbp-22 channel_stall=0x0p+0",
     "cd782a506895dd727ac301b39c488989c5ce95e5de348f6a016627c6aa71cfd3"},
    {"1x77 c4 colour spe0",
     "levelshift+ict seconds=0x1.7177c5111f3fdp-21 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.7177c5111f3fdp-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.7177c5111f3fdp-21 channel_stall=0x0p+0",
     "8acefa764e8a60dc8653ad7e207f0bc6853214c1675cb02d9d66be9f7e9aabd1"},
    {"1x77 c4 colour spe1",
     "levelshift+ict seconds=0x1.7177c5111f3fdp-21 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.7177c5111f3fdp-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.7177c5111f3fdp-21 channel_stall=0x0p+0",
     "8acefa764e8a60dc8653ad7e207f0bc6853214c1675cb02d9d66be9f7e9aabd1"},
    {"1x77 c4 colour spe8",
     "levelshift+ict seconds=0x1.7177c5111f3fdp-21 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.7177c5111f3fdp-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.7177c5111f3fdp-21 channel_stall=0x0p+0",
     "8acefa764e8a60dc8653ad7e207f0bc6853214c1675cb02d9d66be9f7e9aabd1"},
    {"531x9 c1 grey spe0",
     "levelshift+ict seconds=0x1.b8fb116159eacp-18 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.b8fb116159eacp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.b8fb116159eacp-18 channel_stall=0x0p+0",
     "0b31f1df1d81cecac6de14a14100fe8a5769caa9f5b36863ad8599c76800271b"},
    {"531x9 c1 grey spe1",
     "levelshift+ict seconds=0x1.353cd652bb167p-19 spe_compute=0x1.52fbd07070558p-20 spe_dma=0x1.353cd652bb167p-19 dma_aggregate=0x1.828c0be769dc1p-20 ppe=0x1.f8ed55f3157acp-23 overlap_saved=0x0p+0 dma_overlap_saved=0x1.52fbd07070558p-20 dma_bytes=36864 busy=0x1.52fbd07070558p-20 dma_wait=0x1.177ddc3505d76p-20 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "0b31f1df1d81cecac6de14a14100fe8a5769caa9f5b36863ad8599c76800271b"},
    {"531x9 c1 grey spe8",
     "levelshift+ict seconds=0x1.828c0be769dc1p-20 spe_compute=0x1.5844ba9a1a48p-23 spe_dma=0x1.353cd652bb167p-22 dma_aggregate=0x1.828c0be769dc1p-20 ppe=0x1.f8ed55f3157acp-23 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=36864 busy=0x1.5844ba9a1a48p-23 dma_wait=0x1.5783749426931p-20 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "0b31f1df1d81cecac6de14a14100fe8a5769caa9f5b36863ad8599c76800271b"},
    {"531x9 c3 grey spe0",
     "levelshift+ict seconds=0x1.4abc4d0903701p-16 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.4abc4d0903701p-16 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.4abc4d0903701p-16 channel_stall=0x0p+0",
     "b00ee140c0d950c9ff22e4b09ec12a38d7e73d89100ce80ea9107b75efca4abf"},
    {"531x9 c3 grey spe1",
     "levelshift+ict seconds=0x1.cfdb417c18a1bp-18 spe_compute=0x1.fc79b8a8a8804p-19 spe_dma=0x1.cfdb417c18a1bp-18 dma_aggregate=0x1.21e908ed8f651p-18 ppe=0x1.7ab20076501c1p-21 overlap_saved=0x0p+0 dma_overlap_saved=0x1.fc79b8a8a8802p-19 dma_bytes=110592 busy=0x1.fc79b8a8a8804p-19 dma_wait=0x1.a33cca4f88c32p-19 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "b00ee140c0d950c9ff22e4b09ec12a38d7e73d89100ce80ea9107b75efca4abf"},
    {"531x9 c3 grey spe8",
     "levelshift+ict seconds=0x1.21e908ed8f651p-18 spe_compute=0x1.02338bf393b6p-21 spe_dma=0x1.cfdb417c18a1bp-21 dma_aggregate=0x1.21e908ed8f651p-18 ppe=0x1.7ab20076501c1p-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=110592 busy=0x1.02338bf393b6p-21 dma_wait=0x1.01a2976f1cee5p-18 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "b00ee140c0d950c9ff22e4b09ec12a38d7e73d89100ce80ea9107b75efca4abf"},
    {"531x9 c3 colour spe0",
     "levelshift+ict seconds=0x1.2f2c9bf2edd16p-15 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.2f2c9bf2edd16p-15 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.2f2c9bf2edd16p-15 channel_stall=0x0p+0",
     "db08122abc1286eb479bedb862d5c939c9fd2a5cf40a6df929b70908224d7773"},
    {"531x9 c3 colour spe1",
     "levelshift+ict seconds=0x1.cfdb417c18a1bp-18 spe_compute=0x1.8ea06c46a52afp-18 spe_dma=0x1.cfdb417c18a1bp-18 dma_aggregate=0x1.21e908ed8f651p-18 ppe=0x1.5b232b171ec46p-20 overlap_saved=0x0p+0 dma_overlap_saved=0x1.8ea06c46a52afp-18 dma_bytes=110592 busy=0x1.8ea06c46a52afp-18 dma_wait=0x1.04eb54d5cddbp-20 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "db08122abc1286eb479bedb862d5c939c9fd2a5cf40a6df929b70908224d7773"},
    {"531x9 c3 colour spe8",
     "levelshift+ict seconds=0x1.21e908ed8f651p-18 spe_compute=0x1.8ea06c46a52afp-21 spe_dma=0x1.cfdb417c18a1bp-21 dma_aggregate=0x1.21e908ed8f651p-18 ppe=0x1.5b232b171ec46p-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=110592 busy=0x1.8ea06c46a52afp-21 dma_wait=0x1.e029f6c9757f6p-19 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "db08122abc1286eb479bedb862d5c939c9fd2a5cf40a6df929b70908224d7773"},
    {"531x9 c4 grey spe0",
     "levelshift+ict seconds=0x1.b8fb116159eacp-16 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.b8fb116159eacp-16 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.b8fb116159eacp-16 channel_stall=0x0p+0",
     "854a8146b7bd424ccf931c53c66ec1aa0ef0587bf1ab70b7cd34cb76b2821c90"},
    {"531x9 c4 grey spe1",
     "levelshift+ict seconds=0x1.353cd652bb167p-17 spe_compute=0x1.52fbd07070558p-18 spe_dma=0x1.353cd652bb167p-17 dma_aggregate=0x1.828c0be769dc1p-18 ppe=0x1.f8ed55f3157acp-21 overlap_saved=0x0p+0 dma_overlap_saved=0x1.52fbd07070558p-18 dma_bytes=147456 busy=0x1.52fbd07070558p-18 dma_wait=0x1.177ddc3505d76p-18 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "854a8146b7bd424ccf931c53c66ec1aa0ef0587bf1ab70b7cd34cb76b2821c90"},
    {"531x9 c4 grey spe8",
     "levelshift+ict seconds=0x1.828c0be769dc1p-18 spe_compute=0x1.5844ba9a1a48p-21 spe_dma=0x1.353cd652bb167p-20 dma_aggregate=0x1.828c0be769dc1p-18 ppe=0x1.f8ed55f3157acp-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=147456 busy=0x1.5844ba9a1a48p-21 dma_wait=0x1.5783749426931p-18 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "854a8146b7bd424ccf931c53c66ec1aa0ef0587bf1ab70b7cd34cb76b2821c90"},
    {"531x9 c4 colour spe0",
     "levelshift+ict seconds=0x1.664bfe1f190ecp-15 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.664bfe1f190ecp-15 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.664bfe1f190ecp-15 channel_stall=0x0p+0",
     "d85e28ce36f93843247a5289b5fe6777da1ec454230cee5c3ac566e169b89551"},
    {"531x9 c4 colour spe1",
     "levelshift+ict seconds=0x1.353cd652bb167p-17 spe_compute=0x1.e32f0ee144531p-18 spe_dma=0x1.353cd652bb167p-17 dma_aggregate=0x1.828c0be769dc1p-18 ppe=0x1.9a40d5d58173bp-20 overlap_saved=0x0p+0 dma_overlap_saved=0x1.e32f0ee144532p-18 dma_bytes=147456 busy=0x1.e32f0ee144531p-18 dma_wait=0x1.0e953b8863b3ap-19 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "d85e28ce36f93843247a5289b5fe6777da1ec454230cee5c3ac566e169b89551"},
    {"531x9 c4 colour spe8",
     "levelshift+ict seconds=0x1.828c0be769dc1p-18 spe_compute=0x1.e32f0ee144531p-21 spe_dma=0x1.353cd652bb167p-20 dma_aggregate=0x1.828c0be769dc1p-18 ppe=0x1.9a40d5d58173bp-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=147456 busy=0x1.e32f0ee144531p-21 dma_wait=0x1.46262a0b4151bp-18 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "d85e28ce36f93843247a5289b5fe6777da1ec454230cee5c3ac566e169b89551"},
  });
}

TEST(FrontStagePins, MctLossyQ13) {
  check_mct(MctPath::kQ13, {
    {"203x77 c1 grey spe0",
     "levelshift+ict(fx) seconds=0x1.68961f19536bdp-16 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.68961f19536bdp-16 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.68961f19536bdp-16 channel_stall=0x0p+0",
     "be5e133a6bc9c55479ce7f4c516d8eb2ed32479477453a4161e570aebc5d9dd8"},
    {"203x77 c1 grey spe1",
     "levelshift+ict(fx) seconds=0x1.f01197cf6174p-18 spe_compute=0x1.10e70303eb72p-18 spe_dma=0x1.f01197cf6174p-18 dma_aggregate=0x1.360afee19ce88p-18 ppe=0x1.38a06bac06bfdp-20 overlap_saved=0x0p+0 dma_overlap_saved=0x1.10e70303eb72p-18 dma_bytes=118272 busy=0x1.10e70303eb72p-18 dma_wait=0x1.be552996ec04p-19 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "be5e133a6bc9c55479ce7f4c516d8eb2ed32479477453a4161e570aebc5d9dd8"},
    {"203x77 c1 grey spe8",
     "levelshift+ict(fx) seconds=0x1.360afee19ce88p-18 spe_compute=0x1.76a29ea5f2ee5p-21 spe_dma=0x1.4ab66534eba2bp-20 dma_aggregate=0x1.360afee19ce88p-18 ppe=0x1.38a06bac06bfdp-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=118272 busy=0x1.18f9f6fc7632cp-21 dma_wait=0x1.12ebc0020e222p-18 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "be5e133a6bc9c55479ce7f4c516d8eb2ed32479477453a4161e570aebc5d9dd8"},
    {"203x77 c3 grey spe0",
     "levelshift+ict(fx) seconds=0x1.0e709752fe90dp-14 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.0e709752fe90dp-14 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.0e709752fe90dp-14 channel_stall=0x0p+0",
     "367a69218b97698480773d00ab7e26001a668772dc284d2b48d30fdc762ca565"},
    {"203x77 c3 grey spe1",
     "levelshift+ict(fx) seconds=0x1.740d31db8917p-16 spe_compute=0x1.995a8485e12bp-17 spe_dma=0x1.740d31db8917p-16 dma_aggregate=0x1.d1107e526b5ccp-17 ppe=0x1.d4f0a1820a1fcp-19 overlap_saved=0x0p+0 dma_overlap_saved=0x1.995a8485e12bp-17 dma_bytes=354816 busy=0x1.995a8485e12bp-17 dma_wait=0x1.4ebfdf313103p-17 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "367a69218b97698480773d00ab7e26001a668772dc284d2b48d30fdc762ca565"},
    {"203x77 c3 grey spe8",
     "levelshift+ict(fx) seconds=0x1.d1107e526b5ccp-17 spe_compute=0x1.18f9f6fc7632bp-19 spe_dma=0x1.f01197cf6174p-19 dma_aggregate=0x1.d1107e526b5ccp-17 ppe=0x1.d4f0a1820a1fcp-19 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=354816 busy=0x1.a576f27ab14c1p-20 dma_wait=0x1.9c61a00315334p-17 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "367a69218b97698480773d00ab7e26001a668772dc284d2b48d30fdc762ca565"},
    {"203x77 c3 colour spe0",
     "levelshift+ict(fx) seconds=0x1.efce6ac2d2b43p-14 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.efce6ac2d2b43p-14 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.efce6ac2d2b43p-14 channel_stall=0x0p+0",
     "ba9468d59875552f574817f72635920614b769f4e79f605d29a06d6deea9bdd8"},
    {"203x77 c3 colour spe1",
     "levelshift+ict(fx) seconds=0x1.c287fa5fd801ep-15 spe_compute=0x1.c287fa5fd801ep-15 spe_dma=0x1.740d31db8917p-16 dma_aggregate=0x1.d1107e526b5ccp-17 ppe=0x1.addc940c8947cp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x1.740d31db8917p-16 dma_bytes=354816 busy=0x1.c287fa5fd801ep-15 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "ba9468d59875552f574817f72635920614b769f4e79f605d29a06d6deea9bdd8"},
    {"203x77 c3 colour spe8",
     "levelshift+ict(fx) seconds=0x1.d1107e526b5ccp-17 spe_compute=0x1.2c5aa6ea90014p-17 spe_dma=0x1.f01197cf6174p-19 dma_aggregate=0x1.d1107e526b5ccp-17 ppe=0x1.addc940c8947cp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=354816 busy=0x1.c287fa5fd801ep-18 dma_wait=0x1.df990244feb7ap-18 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "ba9468d59875552f574817f72635920614b769f4e79f605d29a06d6deea9bdd8"},
    {"203x77 c4 grey spe0",
     "levelshift+ict(fx) seconds=0x1.68961f19536bdp-14 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.68961f19536bdp-14 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.68961f19536bdp-14 channel_stall=0x0p+0",
     "456b25b9f954b8575d9eac2fa7be152db192791ea92a6720d862507205f4bb23"},
    {"203x77 c4 grey spe1",
     "levelshift+ict(fx) seconds=0x1.f01197cf6174p-16 spe_compute=0x1.10e70303eb72p-16 spe_dma=0x1.f01197cf6174p-16 dma_aggregate=0x1.360afee19ce88p-16 ppe=0x1.38a06bac06bfdp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x1.10e70303eb72p-16 dma_bytes=473088 busy=0x1.10e70303eb72p-16 dma_wait=0x1.be552996ec04p-17 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "456b25b9f954b8575d9eac2fa7be152db192791ea92a6720d862507205f4bb23"},
    {"203x77 c4 grey spe8",
     "levelshift+ict(fx) seconds=0x1.360afee19ce88p-16 spe_compute=0x1.76a29ea5f2ee5p-19 spe_dma=0x1.4ab66534eba2bp-18 dma_aggregate=0x1.360afee19ce88p-16 ppe=0x1.38a06bac06bfdp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=473088 busy=0x1.18f9f6fc7632cp-19 dma_wait=0x1.12ebc0020e222p-16 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "456b25b9f954b8575d9eac2fa7be152db192791ea92a6720d862507205f4bb23"},
    {"203x77 c4 colour spe0",
     "levelshift+ict(fx) seconds=0x1.24f9f94493c79p-13 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.24f9f94493c79p-13 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.24f9f94493c79p-13 channel_stall=0x0p+0",
     "3b1b03c242038797cefa87ba7ed1459ccf02775aabd63a7a011dfa90cf82af87"},
    {"203x77 c4 colour spe1",
     "levelshift+ict(fx) seconds=0x1.e4712e40852b5p-15 spe_compute=0x1.e4712e40852b5p-15 spe_dma=0x1.f01197cf6174p-16 dma_aggregate=0x1.360afee19ce88p-16 ppe=0x1.fc04aef78af7bp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x1.f01197cf6173ep-16 dma_bytes=473088 busy=0x1.e4712e40852b5p-15 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "3b1b03c242038797cefa87ba7ed1459ccf02775aabd63a7a011dfa90cf82af87"},
    {"203x77 c4 colour spe8",
     "levelshift+ict(fx) seconds=0x1.360afee19ce88p-16 spe_compute=0x1.42f61ed5ae1cep-17 spe_dma=0x1.4ab66534eba2bp-18 dma_aggregate=0x1.360afee19ce88p-16 ppe=0x1.fc04aef78af7bp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=473088 busy=0x1.e4712e40852b6p-18 dma_wait=0x1.79dd66a2f73b5p-17 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "3b1b03c242038797cefa87ba7ed1459ccf02775aabd63a7a011dfa90cf82af87"},
    {"203x1 c1 grey spe0",
     "levelshift+ict(fx) seconds=0x1.2bb54bb7f58b7p-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.2bb54bb7f58b7p-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.2bb54bb7f58b7p-22 channel_stall=0x0p+0",
     "ccec84410d519a473277149e7cd09259c201c76de0dc57345094986b0e8fe515"},
    {"203x1 c1 grey spe1",
     "levelshift+ict(fx) seconds=0x1.9c511dc3a41dfp-24 spe_compute=0x1.c5a7ea6a41924p-25 spe_dma=0x1.9c511dc3a41dfp-24 dma_aggregate=0x1.01b2b29a4692bp-24 ppe=0x1.03d874174b6d9p-26 overlap_saved=0x0p+0 dma_overlap_saved=0x1.c5a7ea6a41922p-25 dma_bytes=1536 busy=0x1.c5a7ea6a41924p-25 dma_wait=0x1.72fa511d06a9ap-25 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "ccec84410d519a473277149e7cd09259c201c76de0dc57345094986b0e8fe515"},
    {"203x1 c1 grey spe8",
     "levelshift+ict(fx) seconds=0x1.01b2b29a4692bp-24 spe_compute=0x1.376297cfbff14p-27 spe_dma=0x1.12e0be826d695p-26 dma_aggregate=0x1.01b2b29a4692bp-24 ppe=0x1.03d874174b6d9p-26 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=1536 busy=0x1.d313e3b79fe9ep-28 dma_wait=0x1.c902e8bd99282p-25 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "ccec84410d519a473277149e7cd09259c201c76de0dc57345094986b0e8fe515"},
    {"203x1 c3 grey spe0",
     "levelshift+ict(fx) seconds=0x1.c18ff193f0513p-21 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c18ff193f0513p-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c18ff193f0513p-21 channel_stall=0x0p+0",
     "b01510c0d422b22b0209c6115cc86482419da1fddbf430c0a515c755990fee6b"},
    {"203x1 c3 grey spe1",
     "levelshift+ict(fx) seconds=0x1.353cd652bb167p-22 spe_compute=0x1.543defcfb12dbp-23 spe_dma=0x1.353cd652bb167p-22 dma_aggregate=0x1.828c0be769dc1p-23 ppe=0x1.85c4ae22f1246p-25 overlap_saved=0x0p+0 dma_overlap_saved=0x1.543defcfb12dap-23 dma_bytes=4608 busy=0x1.543defcfb12dbp-23 dma_wait=0x1.163bbcd5c4ff3p-23 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "b01510c0d422b22b0209c6115cc86482419da1fddbf430c0a515c755990fee6b"},
    {"203x1 c3 grey spe8",
     "levelshift+ict(fx) seconds=0x1.828c0be769dc1p-23 spe_compute=0x1.d313e3b79fe9fp-26 spe_dma=0x1.9c511dc3a41dfp-25 dma_aggregate=0x1.828c0be769dc1p-23 ppe=0x1.85c4ae22f1246p-25 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=4608 busy=0x1.5e4eeac9b7ef7p-26 dma_wait=0x1.56c22e8e32de2p-23 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "b01510c0d422b22b0209c6115cc86482419da1fddbf430c0a515c755990fee6b"},
    {"203x1 c3 colour spe0",
     "levelshift+ict(fx) seconds=0x1.9c19481cf19fcp-20 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.9c19481cf19fcp-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.9c19481cf19fcp-20 channel_stall=0x0p+0",
     "48036b904c6f8b47aa404526bd315d80c6b447f02fe6560edfc16c5141259b5b"},
    {"203x1 c3 colour spe1",
     "levelshift+ict(fx) seconds=0x1.7677ab882e8d3p-21 spe_compute=0x1.7677ab882e8d3p-21 spe_dma=0x1.353cd652bb167p-22 dma_aggregate=0x1.828c0be769dc1p-23 ppe=0x1.65499fa007b6bp-24 overlap_saved=0x0p+0 dma_overlap_saved=0x1.353cd652bb166p-22 dma_bytes=4608 busy=0x1.7677ab882e8d3p-21 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "48036b904c6f8b47aa404526bd315d80c6b447f02fe6560edfc16c5141259b5b"},
    {"203x1 c3 colour spe8",
     "levelshift+ict(fx) seconds=0x1.828c0be769dc1p-23 spe_compute=0x1.f34a3a0ae8bc4p-24 spe_dma=0x1.9c511dc3a41dfp-25 dma_aggregate=0x1.828c0be769dc1p-23 ppe=0x1.65499fa007b6bp-24 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=4608 busy=0x1.7677ab882e8d2p-24 dma_wait=0x1.8ea06c46a52bp-24 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "48036b904c6f8b47aa404526bd315d80c6b447f02fe6560edfc16c5141259b5b"},
    {"203x1 c4 grey spe0",
     "levelshift+ict(fx) seconds=0x1.2bb54bb7f58b7p-20 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.2bb54bb7f58b7p-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.2bb54bb7f58b7p-20 channel_stall=0x0p+0",
     "73a1dea1838794094c60cc4bb587819cbbb2ccc486959443f3bfc3541ba0c1d3"},
    {"203x1 c4 grey spe1",
     "levelshift+ict(fx) seconds=0x1.9c511dc3a41dfp-22 spe_compute=0x1.c5a7ea6a41924p-23 spe_dma=0x1.9c511dc3a41dfp-22 dma_aggregate=0x1.01b2b29a4692bp-22 ppe=0x1.03d874174b6d9p-24 overlap_saved=0x0p+0 dma_overlap_saved=0x1.c5a7ea6a41922p-23 dma_bytes=6144 busy=0x1.c5a7ea6a41924p-23 dma_wait=0x1.72fa511d06a9ap-23 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "73a1dea1838794094c60cc4bb587819cbbb2ccc486959443f3bfc3541ba0c1d3"},
    {"203x1 c4 grey spe8",
     "levelshift+ict(fx) seconds=0x1.01b2b29a4692bp-22 spe_compute=0x1.376297cfbff14p-25 spe_dma=0x1.12e0be826d695p-24 dma_aggregate=0x1.01b2b29a4692bp-22 ppe=0x1.03d874174b6d9p-24 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=6144 busy=0x1.d313e3b79fe9ep-26 dma_wait=0x1.c902e8bd99282p-23 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "73a1dea1838794094c60cc4bb587819cbbb2ccc486959443f3bfc3541ba0c1d3"},
    {"203x1 c4 colour spe0",
     "levelshift+ict(fx) seconds=0x1.e7069b0aef029p-20 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.e7069b0aef029p-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.e7069b0aef029p-20 channel_stall=0x0p+0",
     "533be77d058a03afd1cbe24eedf9990ebca86609f7e36f91767b0f0e9cc61612"},
    {"203x1 c4 colour spe1",
     "levelshift+ict(fx) seconds=0x1.92a737110e454p-21 spe_compute=0x1.92a737110e454p-21 spe_dma=0x1.9c511dc3a41dfp-22 dma_aggregate=0x1.01b2b29a4692bp-22 ppe=0x1.a63fbca5da92p-24 overlap_saved=0x0p+0 dma_overlap_saved=0x1.9c511dc3a41ep-22 dma_bytes=6144 busy=0x1.92a737110e454p-21 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "533be77d058a03afd1cbe24eedf9990ebca86609f7e36f91767b0f0e9cc61612"},
    {"203x1 c4 colour spe8",
     "levelshift+ict(fx) seconds=0x1.01b2b29a4692bp-22 spe_compute=0x1.0c6f7a0b5ed8dp-23 spe_dma=0x1.12e0be826d695p-24 dma_aggregate=0x1.01b2b29a4692bp-22 ppe=0x1.a63fbca5da92p-24 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=6144 busy=0x1.92a737110e453p-24 dma_wait=0x1.3a11c9ac0602cp-23 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "533be77d058a03afd1cbe24eedf9990ebca86609f7e36f91767b0f0e9cc61612"},
    {"1x77 c1 grey spe0",
     "levelshift+ict(fx) seconds=0x1.c6bacb28c3ffbp-24 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c6bacb28c3ffbp-24 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c6bacb28c3ffbp-24 channel_stall=0x0p+0",
     "b380c3a17903ea5ca5287b7e17ef711d3b6a482ae7dfdb3a96849dc53f74de36"},
    {"1x77 c1 grey spe1",
     "levelshift+ict(fx) seconds=0x1.c6bacb28c3ffbp-24 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c6bacb28c3ffbp-24 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c6bacb28c3ffbp-24 channel_stall=0x0p+0",
     "b380c3a17903ea5ca5287b7e17ef711d3b6a482ae7dfdb3a96849dc53f74de36"},
    {"1x77 c1 grey spe8",
     "levelshift+ict(fx) seconds=0x1.c6bacb28c3ffbp-24 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c6bacb28c3ffbp-24 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c6bacb28c3ffbp-24 channel_stall=0x0p+0",
     "b380c3a17903ea5ca5287b7e17ef711d3b6a482ae7dfdb3a96849dc53f74de36"},
    {"1x77 c3 grey spe0",
     "levelshift+ict(fx) seconds=0x1.550c185e92ffdp-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.550c185e92ffdp-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.550c185e92ffdp-22 channel_stall=0x0p+0",
     "cbdff21442bcdde976c6b0c7ffe86ff3950264802ff8ea7d21571f9dbb3a802f"},
    {"1x77 c3 grey spe1",
     "levelshift+ict(fx) seconds=0x1.550c185e92ffdp-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.550c185e92ffdp-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.550c185e92ffdp-22 channel_stall=0x0p+0",
     "cbdff21442bcdde976c6b0c7ffe86ff3950264802ff8ea7d21571f9dbb3a802f"},
    {"1x77 c3 grey spe8",
     "levelshift+ict(fx) seconds=0x1.550c185e92ffdp-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.550c185e92ffdp-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.550c185e92ffdp-22 channel_stall=0x0p+0",
     "cbdff21442bcdde976c6b0c7ffe86ff3950264802ff8ea7d21571f9dbb3a802f"},
    {"1x77 c3 colour spe0",
     "levelshift+ict(fx) seconds=0x1.38a06bac06bfdp-21 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.38a06bac06bfdp-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.38a06bac06bfdp-21 channel_stall=0x0p+0",
     "0d3fe32519a9eb32bca894f39cdba3baf86bc8eb9e524f70bb27c1152eeeb036"},
    {"1x77 c3 colour spe1",
     "levelshift+ict(fx) seconds=0x1.38a06bac06bfdp-21 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.38a06bac06bfdp-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.38a06bac06bfdp-21 channel_stall=0x0p+0",
     "0d3fe32519a9eb32bca894f39cdba3baf86bc8eb9e524f70bb27c1152eeeb036"},
    {"1x77 c3 colour spe8",
     "levelshift+ict(fx) seconds=0x1.38a06bac06bfdp-21 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.38a06bac06bfdp-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.38a06bac06bfdp-21 channel_stall=0x0p+0",
     "0d3fe32519a9eb32bca894f39cdba3baf86bc8eb9e524f70bb27c1152eeeb036"},
    {"1x77 c4 grey spe0",
     "levelshift+ict(fx) seconds=0x1.c6bacb28c3ffbp-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c6bacb28c3ffbp-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c6bacb28c3ffbp-22 channel_stall=0x0p+0",
     "dc85c3d510ae3d18de715d11cad4781775fd35b5fcc704a0be373136a44aa8d8"},
    {"1x77 c4 grey spe1",
     "levelshift+ict(fx) seconds=0x1.c6bacb28c3ffbp-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c6bacb28c3ffbp-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c6bacb28c3ffbp-22 channel_stall=0x0p+0",
     "dc85c3d510ae3d18de715d11cad4781775fd35b5fcc704a0be373136a44aa8d8"},
    {"1x77 c4 grey spe8",
     "levelshift+ict(fx) seconds=0x1.c6bacb28c3ffbp-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c6bacb28c3ffbp-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c6bacb28c3ffbp-22 channel_stall=0x0p+0",
     "dc85c3d510ae3d18de715d11cad4781775fd35b5fcc704a0be373136a44aa8d8"},
    {"1x77 c4 colour spe0",
     "levelshift+ict(fx) seconds=0x1.7177c5111f3fdp-21 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.7177c5111f3fdp-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.7177c5111f3fdp-21 channel_stall=0x0p+0",
     "88ad38306cdd0d7645541a910a59d9008aa9ea98400abccd93eaf2f276dd9623"},
    {"1x77 c4 colour spe1",
     "levelshift+ict(fx) seconds=0x1.7177c5111f3fdp-21 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.7177c5111f3fdp-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.7177c5111f3fdp-21 channel_stall=0x0p+0",
     "88ad38306cdd0d7645541a910a59d9008aa9ea98400abccd93eaf2f276dd9623"},
    {"1x77 c4 colour spe8",
     "levelshift+ict(fx) seconds=0x1.7177c5111f3fdp-21 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.7177c5111f3fdp-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.7177c5111f3fdp-21 channel_stall=0x0p+0",
     "88ad38306cdd0d7645541a910a59d9008aa9ea98400abccd93eaf2f276dd9623"},
    {"531x9 c1 grey spe0",
     "levelshift+ict(fx) seconds=0x1.b8fb116159eacp-18 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.b8fb116159eacp-18 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.b8fb116159eacp-18 channel_stall=0x0p+0",
     "bbf2f3ec43ef6e9df82121939d7837c3d53dcdd8eb592fba502f20d0a6b824d8"},
    {"531x9 c1 grey spe1",
     "levelshift+ict(fx) seconds=0x1.353cd652bb167p-19 spe_compute=0x1.52fbd07070558p-20 spe_dma=0x1.353cd652bb167p-19 dma_aggregate=0x1.828c0be769dc1p-20 ppe=0x1.f8ed55f3157acp-23 overlap_saved=0x0p+0 dma_overlap_saved=0x1.52fbd07070558p-20 dma_bytes=36864 busy=0x1.52fbd07070558p-20 dma_wait=0x1.177ddc3505d76p-20 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "bbf2f3ec43ef6e9df82121939d7837c3d53dcdd8eb592fba502f20d0a6b824d8"},
    {"531x9 c1 grey spe8",
     "levelshift+ict(fx) seconds=0x1.828c0be769dc1p-20 spe_compute=0x1.5844ba9a1a48p-23 spe_dma=0x1.353cd652bb167p-22 dma_aggregate=0x1.828c0be769dc1p-20 ppe=0x1.f8ed55f3157acp-23 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=36864 busy=0x1.5844ba9a1a48p-23 dma_wait=0x1.5783749426931p-20 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "bbf2f3ec43ef6e9df82121939d7837c3d53dcdd8eb592fba502f20d0a6b824d8"},
    {"531x9 c3 grey spe0",
     "levelshift+ict(fx) seconds=0x1.4abc4d0903701p-16 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.4abc4d0903701p-16 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.4abc4d0903701p-16 channel_stall=0x0p+0",
     "6ca89d499897e7d0bc293b95089162d9151cb9a7aff8601c8306fa96ba34822b"},
    {"531x9 c3 grey spe1",
     "levelshift+ict(fx) seconds=0x1.cfdb417c18a1bp-18 spe_compute=0x1.fc79b8a8a8804p-19 spe_dma=0x1.cfdb417c18a1bp-18 dma_aggregate=0x1.21e908ed8f651p-18 ppe=0x1.7ab20076501c1p-21 overlap_saved=0x0p+0 dma_overlap_saved=0x1.fc79b8a8a8802p-19 dma_bytes=110592 busy=0x1.fc79b8a8a8804p-19 dma_wait=0x1.a33cca4f88c32p-19 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "6ca89d499897e7d0bc293b95089162d9151cb9a7aff8601c8306fa96ba34822b"},
    {"531x9 c3 grey spe8",
     "levelshift+ict(fx) seconds=0x1.21e908ed8f651p-18 spe_compute=0x1.02338bf393b6p-21 spe_dma=0x1.cfdb417c18a1bp-21 dma_aggregate=0x1.21e908ed8f651p-18 ppe=0x1.7ab20076501c1p-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=110592 busy=0x1.02338bf393b6p-21 dma_wait=0x1.01a2976f1cee5p-18 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "6ca89d499897e7d0bc293b95089162d9151cb9a7aff8601c8306fa96ba34822b"},
    {"531x9 c3 colour spe0",
     "levelshift+ict(fx) seconds=0x1.2f2c9bf2edd16p-15 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.2f2c9bf2edd16p-15 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.2f2c9bf2edd16p-15 channel_stall=0x0p+0",
     "276f20c6dc66b82256e3c58b8c395b181c62e5b9c7690b0428ad87e66e0f9ca5"},
    {"531x9 c3 colour spe1",
     "levelshift+ict(fx) seconds=0x1.18d9c0a622e9ep-16 spe_compute=0x1.18d9c0a622e9ep-16 spe_dma=0x1.cfdb417c18a1bp-18 dma_aggregate=0x1.21e908ed8f651p-18 ppe=0x1.5b232b171ec46p-20 overlap_saved=0x0p+0 dma_overlap_saved=0x1.cfdb417c18a1cp-18 dma_bytes=110592 busy=0x1.18d9c0a622e9ep-16 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "276f20c6dc66b82256e3c58b8c395b181c62e5b9c7690b0428ad87e66e0f9ca5"},
    {"531x9 c3 colour spe8",
     "levelshift+ict(fx) seconds=0x1.21e908ed8f651p-18 spe_compute=0x1.18d9c0a622e9ep-19 spe_dma=0x1.cfdb417c18a1bp-21 dma_aggregate=0x1.21e908ed8f651p-18 ppe=0x1.5b232b171ec46p-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=110592 busy=0x1.18d9c0a622e9fp-19 dma_wait=0x1.2af85134fbe03p-19 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "276f20c6dc66b82256e3c58b8c395b181c62e5b9c7690b0428ad87e66e0f9ca5"},
    {"531x9 c4 grey spe0",
     "levelshift+ict(fx) seconds=0x1.b8fb116159eacp-16 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.b8fb116159eacp-16 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.b8fb116159eacp-16 channel_stall=0x0p+0",
     "1fb2705e4368a2b5a4a71152d65286f52eb2ce1a24f7f37d26ba78fe5fb709a6"},
    {"531x9 c4 grey spe1",
     "levelshift+ict(fx) seconds=0x1.353cd652bb167p-17 spe_compute=0x1.52fbd07070558p-18 spe_dma=0x1.353cd652bb167p-17 dma_aggregate=0x1.828c0be769dc1p-18 ppe=0x1.f8ed55f3157acp-21 overlap_saved=0x0p+0 dma_overlap_saved=0x1.52fbd07070558p-18 dma_bytes=147456 busy=0x1.52fbd07070558p-18 dma_wait=0x1.177ddc3505d76p-18 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "1fb2705e4368a2b5a4a71152d65286f52eb2ce1a24f7f37d26ba78fe5fb709a6"},
    {"531x9 c4 grey spe8",
     "levelshift+ict(fx) seconds=0x1.828c0be769dc1p-18 spe_compute=0x1.5844ba9a1a48p-21 spe_dma=0x1.353cd652bb167p-20 dma_aggregate=0x1.828c0be769dc1p-18 ppe=0x1.f8ed55f3157acp-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=147456 busy=0x1.5844ba9a1a48p-21 dma_wait=0x1.5783749426931p-18 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "1fb2705e4368a2b5a4a71152d65286f52eb2ce1a24f7f37d26ba78fe5fb709a6"},
    {"531x9 c4 colour spe0",
     "levelshift+ict(fx) seconds=0x1.664bfe1f190ecp-15 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.664bfe1f190ecp-15 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.664bfe1f190ecp-15 channel_stall=0x0p+0",
     "d19884857add0a2218ed09a7a22e1fa1c2b73412d7a6b2f00b1bb70355388a8f"},
    {"531x9 c4 colour spe1",
     "levelshift+ict(fx) seconds=0x1.2dfd694ccab3fp-16 spe_compute=0x1.2dfd694ccab3fp-16 spe_dma=0x1.353cd652bb167p-17 dma_aggregate=0x1.828c0be769dc1p-18 ppe=0x1.9a40d5d58173bp-20 overlap_saved=0x0p+0 dma_overlap_saved=0x1.353cd652bb166p-17 dma_bytes=147456 busy=0x1.2dfd694ccab3fp-16 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "d19884857add0a2218ed09a7a22e1fa1c2b73412d7a6b2f00b1bb70355388a8f"},
    {"531x9 c4 colour spe8",
     "levelshift+ict(fx) seconds=0x1.828c0be769dc1p-18 spe_compute=0x1.2dfd694ccab3fp-19 spe_dma=0x1.353cd652bb167p-20 dma_aggregate=0x1.828c0be769dc1p-18 ppe=0x1.9a40d5d58173bp-20 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=147456 busy=0x1.2dfd694ccab3fp-19 dma_wait=0x1.d71aae8209043p-19 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "d19884857add0a2218ed09a7a22e1fa1c2b73412d7a6b2f00b1bb70355388a8f"},
  });
}

TEST(FrontStagePins, Quant) {
  check_quant<float>({
    {"203x77 c1 grey spe0",
     "quantize seconds=0x1.3b835b3628fe5p-15 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.3b835b3628fe5p-15 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.3b835b3628fe5p-15 channel_stall=0x0p+0",
     "1ae74ba4f6c779618c53c499acc4ab22cbc8bf643c33222ec6da5367dc7dae5d"},
    {"203x77 c1 grey spe1",
     "quantize seconds=0x1.54d6f1e9bcc7ap-17 spe_compute=0x1.54d6f1e9bcc7ap-17 spe_dma=0x1.215f988e4e2e6p-17 dma_aggregate=0x1.69b77eb1e1b9fp-18 ppe=0x0p+0 overlap_saved=0x0p+0 dma_overlap_saved=0x1.215f988e4e2e6p-17 dma_bytes=137984 busy=0x1.54d6f1e9bcc7ap-17 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "1ae74ba4f6c779618c53c499acc4ab22cbc8bf643c33222ec6da5367dc7dae5d"},
    {"203x77 c1 grey spe8",
     "quantize seconds=0x1.69b77eb1e1b9fp-18 spe_compute=0x1.733226c3b927dp-20 spe_dma=0x1.2ca5d05ea7ab3p-20 dma_aggregate=0x1.69b77eb1e1b9fp-18 ppe=0x0p+0 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=137984 busy=0x1.54d6f1e9bcc7ap-20 dma_wait=0x1.1481c2377288p-18 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "1ae74ba4f6c779618c53c499acc4ab22cbc8bf643c33222ec6da5367dc7dae5d"},
    {"203x1 c1 grey spe0",
     "quantize seconds=0x1.063ea240f6dap-21 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.063ea240f6dap-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.063ea240f6dap-21 channel_stall=0x0p+0",
     "c0e9aac1c7ec7a8725d79b156d408d322f0ced6eea4d60440b3fe6cb6ddfc29c"},
    {"203x1 c1 grey spe1",
     "quantize seconds=0x1.28f4ebcfc7531p-23 spe_compute=0x1.28f4ebcfc7531p-23 spe_dma=0x1.e1094d643f784p-24 dma_aggregate=0x1.2ca5d05ea7ab3p-24 ppe=0x0p+0 overlap_saved=0x0p+0 dma_overlap_saved=0x1.e1094d643f786p-24 dma_bytes=1792 busy=0x1.28f4ebcfc7531p-23 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "c0e9aac1c7ec7a8725d79b156d408d322f0ced6eea4d60440b3fe6cb6ddfc29c"},
    {"203x1 c1 grey spe8",
     "quantize seconds=0x1.28f4ebcfc7531p-23 spe_compute=0x1.28f4ebcfc7531p-23 spe_dma=0x1.e1094d643f784p-24 dma_aggregate=0x1.2ca5d05ea7ab3p-24 ppe=0x0p+0 overlap_saved=0x0p+0 dma_overlap_saved=0x1.e1094d643f786p-24 dma_bytes=1792 busy=0x1.28f4ebcfc7531p-26 dma_wait=0x0p+0 queue_empty=0x1.03d64e55ce68bp-23 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "c0e9aac1c7ec7a8725d79b156d408d322f0ced6eea4d60440b3fe6cb6ddfc29c"},
    {"1x77 c1 grey spe0",
     "quantize seconds=0x1.8de371c3ab7fdp-23 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.8de371c3ab7fdp-23 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.8de371c3ab7fdp-23 channel_stall=0x0p+0",
     "b0787dce926ea8780e1b13cf27953d7c05be686c5e2c0d617b84a8ddf96cc2ba"},
    {"1x77 c1 grey spe1",
     "quantize seconds=0x1.4ab66534eba2bp-20 spe_compute=0x1.9d63fe82268b6p-23 spe_dma=0x1.4ab66534eba2bp-20 dma_aggregate=0x1.9d63fe82268b6p-21 ppe=0x0p+0 overlap_saved=0x0p+0 dma_overlap_saved=0x1.9d63fe82268b8p-23 dma_bytes=19712 busy=0x1.9d63fe82268b6p-23 dma_wait=0x1.1709e564a6d14p-20 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "b0787dce926ea8780e1b13cf27953d7c05be686c5e2c0d617b84a8ddf96cc2ba"},
    {"1x77 c1 grey spe8",
     "quantize seconds=0x1.9d63fe82268b6p-21 spe_compute=0x1.ad7f29abcaf48p-26 spe_dma=0x1.5798ee2308c3ap-23 dma_aggregate=0x1.9d63fe82268b6p-21 ppe=0x0p+0 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=19712 busy=0x1.9d63fe82268b5p-26 dma_wait=0x1.9078de8e1557p-21 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "b0787dce926ea8780e1b13cf27953d7c05be686c5e2c0d617b84a8ddf96cc2ba"},
    {"531x9 c1 grey spe0",
     "quantize seconds=0x1.81dbaf352ead6p-17 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.81dbaf352ead6p-17 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.81dbaf352ead6p-17 channel_stall=0x0p+0",
     "403ca53b72d0091a6e336d530392161fcdfcf35ff1340c10315d18e06ea3f8a3"},
    {"531x9 c1 grey spe1",
     "quantize seconds=0x1.8845b43f374d7p-19 spe_compute=0x1.8845b43f374d7p-19 spe_dma=0x1.4890a3b7e6c7ep-19 dma_aggregate=0x1.9ab4cca5e079dp-20 ppe=0x0p+0 overlap_saved=0x0p+0 dma_overlap_saved=0x1.4890a3b7e6c7dp-19 dma_bytes=39168 busy=0x1.8845b43f374d7p-19 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "403ca53b72d0091a6e336d530392161fcdfcf35ff1340c10315d18e06ea3f8a3"},
    {"531x9 c1 grey spe8",
     "quantize seconds=0x1.9ab4cca5e079dp-20 spe_compute=0x1.62d68eed6e2dp-21 spe_dma=0x1.240eca6a943fep-21 dma_aggregate=0x1.9ab4cca5e079dp-20 ppe=0x0p+0 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=39168 busy=0x1.8845b43f374d6p-22 dma_wait=0x1.38a35f9612a68p-20 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "403ca53b72d0091a6e336d530392161fcdfcf35ff1340c10315d18e06ea3f8a3"},
  });
}

TEST(FrontStagePins, QuantQ13) {
  check_quant<Sample>({
    {"203x77 c1 grey spe0",
     "quantize(fx) seconds=0x1.c2bba6dfa846bp-15 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.c2bba6dfa846bp-15 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.c2bba6dfa846bp-15 channel_stall=0x0p+0",
     "741240650114e0f62f23a55c6fdf96524565849c1b05b8a9b720140481f3cd3e"},
    {"203x77 c1 grey spe1",
     "quantize(fx) seconds=0x1.17f84449dbec2p-16 spe_compute=0x1.17f84449dbec2p-16 spe_dma=0x1.215f988e4e2e6p-17 dma_aggregate=0x1.69b77eb1e1b9fp-18 ppe=0x0p+0 overlap_saved=0x0p+0 dma_overlap_saved=0x1.215f988e4e2e6p-17 dma_bytes=137984 busy=0x1.17f84449dbec2p-16 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "741240650114e0f62f23a55c6fdf96524565849c1b05b8a9b720140481f3cd3e"},
    {"203x77 c1 grey spe8",
     "quantize(fx) seconds=0x1.69b77eb1e1b9fp-18 spe_compute=0x1.2f09d8c6d612cp-19 spe_dma=0x1.2ca5d05ea7ab3p-20 dma_aggregate=0x1.69b77eb1e1b9fp-18 ppe=0x0p+0 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=137984 busy=0x1.17f84449dbec2p-19 dma_wait=0x1.bb76b919e787cp-19 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "741240650114e0f62f23a55c6fdf96524565849c1b05b8a9b720140481f3cd3e"},
    {"203x1 c1 grey spe0",
     "quantize(fx) seconds=0x1.76a29ea5f2ee5p-21 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.76a29ea5f2ee5p-21 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.76a29ea5f2ee5p-21 channel_stall=0x0p+0",
     "c0e9aac1c7ec7a8725d79b156d408d322f0ced6eea4d60440b3fe6cb6ddfc29c"},
    {"203x1 c1 grey spe1",
     "quantize(fx) seconds=0x1.e4dc8e0af01e1p-23 spe_compute=0x1.e4dc8e0af01e1p-23 spe_dma=0x1.e1094d643f784p-24 dma_aggregate=0x1.2ca5d05ea7ab3p-24 ppe=0x0p+0 overlap_saved=0x0p+0 dma_overlap_saved=0x1.e1094d643f786p-24 dma_bytes=1792 busy=0x1.e4dc8e0af01e1p-23 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "c0e9aac1c7ec7a8725d79b156d408d322f0ced6eea4d60440b3fe6cb6ddfc29c"},
    {"203x1 c1 grey spe8",
     "quantize(fx) seconds=0x1.e4dc8e0af01e1p-23 spe_compute=0x1.e4dc8e0af01e1p-23 spe_dma=0x1.e1094d643f784p-24 dma_aggregate=0x1.2ca5d05ea7ab3p-24 ppe=0x0p+0 overlap_saved=0x0p+0 dma_overlap_saved=0x1.e1094d643f786p-24 dma_bytes=1792 busy=0x1.e4dc8e0af01e1p-26 dma_wait=0x0p+0 queue_empty=0x1.a840fc49921a5p-23 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "c0e9aac1c7ec7a8725d79b156d408d322f0ced6eea4d60440b3fe6cb6ddfc29c"},
    {"1x77 c1 grey spe0",
     "quantize(fx) seconds=0x1.1c34bef97a7fep-22 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.1c34bef97a7fep-22 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.1c34bef97a7fep-22 channel_stall=0x0p+0",
     "b0787dce926ea8780e1b13cf27953d7c05be686c5e2c0d617b84a8ddf96cc2ba"},
    {"1x77 c1 grey spe1",
     "quantize(fx) seconds=0x1.4ab66534eba2bp-20 spe_compute=0x1.d1107e526b5ccp-23 spe_dma=0x1.4ab66534eba2bp-20 dma_aggregate=0x1.9d63fe82268b6p-21 ppe=0x0p+0 overlap_saved=0x0p+0 dma_overlap_saved=0x1.d1107e526b5c8p-23 dma_bytes=19712 busy=0x1.d1107e526b5ccp-23 dma_wait=0x1.1094556a9e372p-20 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "b0787dce926ea8780e1b13cf27953d7c05be686c5e2c0d617b84a8ddf96cc2ba"},
    {"1x77 c1 grey spe8",
     "quantize(fx) seconds=0x1.9d63fe82268b6p-21 spe_compute=0x1.e32f0ee144531p-26 spe_dma=0x1.5798ee2308c3ap-23 dma_aggregate=0x1.9d63fe82268b6p-21 ppe=0x0p+0 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=19712 busy=0x1.d1107e526b5ccp-26 dma_wait=0x1.8edb7a8f93308p-21 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "b0787dce926ea8780e1b13cf27953d7c05be686c5e2c0d617b84a8ddf96cc2ba"},
    {"531x9 c1 grey spe0",
     "quantize(fx) seconds=0x1.139ceadcd832cp-16 spe_compute=0x0p+0 spe_dma=0x0p+0 dma_aggregate=0x0p+0 ppe=0x1.139ceadcd832cp-16 overlap_saved=0x0p+0 dma_overlap_saved=0x0p+0 dma_bytes=0 busy=0x0p+0 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x1.139ceadcd832cp-16 channel_stall=0x0p+0",
     "095ed77f786d49b0f3ec75d57ae4280e0b933cfd1f2aade51b8c97a5bc0db1ec"},
    {"531x9 c1 grey spe1",
     "quantize(fx) seconds=0x1.44e6b9dddcbf9p-18 spe_compute=0x1.44e6b9dddcbf9p-18 spe_dma=0x1.4890a3b7e6c7ep-19 dma_aggregate=0x1.9ab4cca5e079dp-20 ppe=0x0p+0 overlap_saved=0x0p+0 dma_overlap_saved=0x1.4890a3b7e6c7ep-19 dma_bytes=39168 busy=0x1.44e6b9dddcbf9p-18 dma_wait=0x0p+0 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "095ed77f786d49b0f3ec75d57ae4280e0b933cfd1f2aade51b8c97a5bc0db1ec"},
    {"531x9 c1 grey spe8",
     "quantize(fx) seconds=0x1.9ab4cca5e079dp-20 spe_compute=0x1.252e8db204ca7p-20 spe_dma=0x1.240eca6a943fep-21 dma_aggregate=0x1.9ab4cca5e079dp-20 ppe=0x0p+0 overlap_saved=0x0p+0 dma_overlap_saved=0x1.c8126416e709p-24 dma_bytes=39168 busy=0x1.44e6b9dddcbf9p-21 dma_wait=0x1.f082df6de4341p-21 queue_empty=0x0p+0 ppe_serial=0x0p+0 channel_stall=0x0p+0",
     "095ed77f786d49b0f3ec75d57ae4280e0b933cfd1f2aade51b8c97a5bc0db1ec"},
  });
}

}  // namespace
}  // namespace cj2k::cellenc
