#include "jp2k/t1_common.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>

#include "common/error.hpp"

namespace cj2k::jp2k {

namespace {

/// Table D.1 column for LL/LH subbands (ΣH is the primary discriminator).
int zc_hprimary(int h, int v, int d) {
  if (h == 2) return 8;
  if (h == 1) {
    if (v >= 1) return 7;
    return d >= 1 ? 6 : 5;
  }
  // h == 0
  if (v == 2) return 4;
  if (v == 1) return 3;
  if (d >= 2) return 2;
  return d == 1 ? 1 : 0;
}

/// Table D.1 column for HH subbands (ΣD is the primary discriminator).
int zc_dprimary(int h, int v, int d) {
  const int hv = h + v;
  if (d >= 3) return 8;
  if (d == 2) return hv >= 1 ? 7 : 6;
  if (d == 1) {
    if (hv >= 2) return 5;
    return hv == 1 ? 4 : 3;
  }
  // d == 0
  if (hv >= 2) return 2;
  return hv == 1 ? 1 : 0;
}

}  // namespace

int zc_context(SubbandOrient orient, int h, int v, int d) {
  CJ2K_DCHECK(h >= 0 && h <= 2 && v >= 0 && v <= 2 && d >= 0 && d <= 4);
  switch (orient) {
    case SubbandOrient::LL:
    case SubbandOrient::LH:
      return kCtxZcBase + zc_hprimary(h, v, d);
    case SubbandOrient::HL:
      // Horizontally high-pass: the roles of H and V swap.
      return kCtxZcBase + zc_hprimary(v, h, d);
    case SubbandOrient::HH:
      return kCtxZcBase + zc_dprimary(h, v, d);
  }
  return kCtxZcBase;
}

ScLookup sc_lookup(int hc, int vc) {
  CJ2K_DCHECK(hc >= -1 && hc <= 1 && vc >= -1 && vc <= 1);
  // Annex D Table D.2.  Negating both contributions flips the XOR bit and
  // keeps the context, which the table below encodes explicitly.
  if (hc == 1) {
    if (vc == 1) return {kCtxScBase + 4, 0};
    if (vc == 0) return {kCtxScBase + 3, 0};
    return {kCtxScBase + 2, 0};
  }
  if (hc == 0) {
    if (vc == 1) return {kCtxScBase + 1, 0};
    if (vc == 0) return {kCtxScBase + 0, 0};
    return {kCtxScBase + 1, 1};
  }
  // hc == -1
  if (vc == 1) return {kCtxScBase + 2, 1};
  if (vc == 0) return {kCtxScBase + 3, 1};
  return {kCtxScBase + 4, 1};
}

const T1Tables& t1_tables() {
  static const T1Tables tables = [] {
    T1Tables t{};
    const auto bit = [](unsigned i, std::uint16_t b) {
      return (i & b) != 0 ? 1 : 0;
    };
    for (unsigned i = 0; i < 256; ++i) {
      const int h = bit(i, kNbW) + bit(i, kNbE);
      const int v = bit(i, kNbN) + bit(i, kNbS);
      const int d = bit(i, kNbNW) + bit(i, kNbNE) + bit(i, kNbSW) +
                    bit(i, kNbSE);
      for (int o = 0; o < 4; ++o) {
        t.zc[o][i] = static_cast<std::uint8_t>(
            zc_context(static_cast<SubbandOrient>(o), h, v, d));
      }
      // Index i holds lane bits 4..11: N, S, W, E significance, then the
      // same four neighbours' signs.
      const auto contrib = [&](std::uint16_t nb, std::uint16_t sgn) {
        if (!bit(i, static_cast<std::uint16_t>(nb >> 4))) return 0;
        return bit(i, static_cast<std::uint16_t>(sgn >> 4)) ? -1 : 1;
      };
      const int hc = std::clamp(contrib(kNbW, kSgnW) + contrib(kNbE, kSgnE),
                                -1, 1);
      const int vc = std::clamp(contrib(kNbN, kSgnN) + contrib(kNbS, kSgnS),
                                -1, 1);
      const ScLookup sc = sc_lookup(hc, vc);
      t.sc[i] = static_cast<std::uint8_t>(sc.context | (sc.xor_bit << 7));
    }
    return t;
  }();
  return tables;
}

std::uint32_t block_prescan(Span2d<const Sample> coeffs, std::uint32_t* mag,
                            T1Flags* flags) {
  const std::size_t w = coeffs.width();
  std::uint32_t maxmag = 0;
  for (std::size_t y = 0; y < coeffs.height(); ++y) {
    const Sample* row = coeffs.row(y);
    const std::size_t lane = y % kStripeHeight;
    std::uint64_t* col = mag ? flags->column(y / kStripeHeight, 0) : nullptr;
    std::uint32_t* out = mag ? mag + (y - lane) * w + lane : nullptr;
    // The sign bit moved to kFlagSign of the sample's lane, without a
    // branch: random signs mispredict one (~5% of a lossless block encode).
    const unsigned sign_shift =
        16 * static_cast<unsigned>(lane) + std::countr_zero(kFlagSign);
    for (std::size_t x = 0; x < w; ++x) {
      const auto m = static_cast<std::uint32_t>(std::abs(row[x]));
      if (mag) {
        out[x * kStripeHeight] = m;
        col[x] |= std::uint64_t{static_cast<std::uint32_t>(row[x]) >> 31}
                  << sign_shift;
      }
      maxmag = std::max(maxmag, m);
    }
  }
  return maxmag;
}

}  // namespace cj2k::jp2k
