// Tier-1 throughput on the host, single-threaded, over every code block of
// the 1586x1558 synthetic photo: MQ symbols per second through
// t1_encode_block and t1_decode_block for the EBCOT coder (9/7 lossy at
// rate 0.25, and 5/3 lossless), plus the symbol split per pass type and
// the MQ coder alone (each block's decision stream, recorded once by
// t1_decision_stream, replayed through MqEncoder and MqDecoder); and
// samples per second through ht_encode_block and ht_decode_block for the
// HT coder (the same two wavelet setups).
//
// The blocks are the serial encoder's own: jp2k::build_tile codes them, a
// full decode recovers each block's quantized coefficients, and the timed
// loops re-code those.  Before reporting, the bench asserts that the
// re-encoded blocks are byte- and pass-identical to build_tile's, that
// finishing the tile with them reproduces the serial jp2k::encode
// codestream, and that the MQ replays give each block's codeword and
// decisions back.  The figures are host wall time, not simulated Cell
// seconds; they ride the BENCH_JSON "derived"
// registry (t1.* and ht.* keys) and sim_seconds is 0.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "cell/metrics.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "jp2k/encoder.hpp"
#include "jp2k/ht_block.hpp"
#include "jp2k/mq_decoder.hpp"
#include "jp2k/mq_encoder.hpp"
#include "jp2k/t1_decoder.hpp"
#include "jp2k/t1_encoder.hpp"

namespace {

using namespace cj2k;

struct Variant {
  const char* label;
  jp2k::BlockCoder coder;
  jp2k::WaveletKind wavelet;
  double rate;
  int layers;
};

constexpr Variant kVariants[] = {
    {"lossy 9/7 rate 0.25", jp2k::BlockCoder::kEbcot,
     jp2k::WaveletKind::kIrreversible97, 0.25, 3},
    {"lossless 5/3", jp2k::BlockCoder::kEbcot,
     jp2k::WaveletKind::kReversible53, 0.0, 1},
    {"HT lossy 9/7 0.25", jp2k::BlockCoder::kHt,
     jp2k::WaveletKind::kIrreversible97, 0.25, 1},
    {"HT lossless 5/3", jp2k::BlockCoder::kHt,
     jp2k::WaveletKind::kReversible53, 0.0, 1},
};

/// One code block as the timed loops see it.
struct Block {
  jp2k::CodeBlock* cb;
  jp2k::SubbandOrient orient;
  std::vector<Sample> coeffs;
};

bool same_passes(const jp2k::T1EncodedBlock& a, const jp2k::T1EncodedBlock& b) {
  if (a.data != b.data || a.passes.size() != b.passes.size() ||
      a.num_bitplanes != b.num_bitplanes ||
      a.total_symbols != b.total_symbols) {
    return false;
  }
  for (std::size_t i = 0; i < a.passes.size(); ++i) {
    const jp2k::PassInfo& p = a.passes[i];
    const jp2k::PassInfo& q = b.passes[i];
    if (p.type != q.type || p.bitplane != q.bitplane ||
        p.trunc_len != q.trunc_len || p.symbols != q.symbols ||
        std::memcmp(&p.dist_reduction, &q.dist_reduction,
                    sizeof p.dist_reduction) != 0) {
      return false;
    }
  }
  return true;
}

/// One block through the variant's coder.
jp2k::T1EncodedBlock encode_block(const Variant& v,
                                  const jp2k::CodingParams& p,
                                  const Block& b) {
  const Span2d<const Sample> in(b.coeffs.data(), b.cb->w, b.cb->h);
  return v.coder == jp2k::BlockCoder::kHt
             ? jp2k::ht_encode_block(in)
             : jp2k::t1_encode_block(in, b.orient, p.t1);
}

/// Full decode of `e` (every pass) into `out`.
void decode_block(const Variant& v, const jp2k::CodingParams& p,
                  const jp2k::T1EncodedBlock& e, jp2k::SubbandOrient orient,
                  Span2d<Sample> out) {
  if (v.coder == jp2k::BlockCoder::kHt) {
    jp2k::ht_decode_block(e.data.data(), e.data.size(), e.num_bitplanes, out);
  } else {
    jp2k::t1_decode_block(e.data.data(), e.data.size(), e.num_bitplanes,
                          static_cast<int>(e.passes.size()), orient, out,
                          p.t1);
  }
}

/// Every block's decision stream, concatenated; block i's stream is
/// [begin[i], begin[i + 1]).
struct Decisions {
  std::vector<jp2k::T1Decision> all;
  std::vector<std::size_t> begin;
};

/// Times the MQ coder alone over `d` (best of `reps`) and returns {encode,
/// decode} seconds: encode into fresh codewords, which must equal the
/// blocks', and decode the blocks' codewords, whose decisions must equal
/// the streams'.  The variants code without RESET, so one context bank
/// serves a block's whole stream.
std::pair<double, double> time_mq_replay(const std::vector<Block>& blocks,
                                         const Decisions& d, int reps) {
  std::vector<std::vector<std::uint8_t>> bytes(blocks.size());
  double enc_s = 0.0;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      if (d.begin[i] == d.begin[i + 1]) continue;  // all-zero block
      jp2k::MqEncoder enc(bytes[i]);
      jp2k::T1ContextBank ctx;
      for (std::size_t k = d.begin[i]; k < d.begin[i + 1]; ++k) {
        enc.encode(ctx[d.all[k].context], d.all[k].bit);
      }
      enc.flush();
    }
    const double s = t.seconds();
    enc_s = r == 0 ? s : std::min(enc_s, s);
  }
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    CJ2K_CHECK_MSG(bytes[i] == blocks[i].cb->enc.data,
                   "MQ replay differs from the block's codeword");
  }

  int mismatch = 0;
  double dec_s = 0.0;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const std::vector<std::uint8_t>& data = blocks[i].cb->enc.data;
      jp2k::MqDecoder dec(data.data(), data.size());
      jp2k::T1ContextBank ctx;
      for (std::size_t k = d.begin[i]; k < d.begin[i + 1]; ++k) {
        mismatch |= dec.decode(ctx[d.all[k].context]) ^ d.all[k].bit;
      }
    }
    const double s = t.seconds();
    dec_s = r == 0 ? s : std::min(dec_s, s);
  }
  CJ2K_CHECK_MSG(mismatch == 0, "MQ replay decoded a different decision");
  return {enc_s, dec_s};
}

void run_variant(const Variant& v, const Image& img, int reps) {
  jp2k::CodingParams p;
  p.block_coder = v.coder;
  p.wavelet = v.wavelet;
  p.rate = v.rate;
  p.layers = v.layers;
  const std::vector<std::uint8_t> serial = jp2k::encode(img, p);

  jp2k::Tile tile = jp2k::build_tile(img, p);
  std::vector<Block> blocks;
  for (auto& tc : tile.components) {
    for (auto& sb : tc.subbands) {
      for (auto& cb : sb.blocks) {
        Block b{&cb, sb.info.orient, std::vector<Sample>(cb.w * cb.h)};
        decode_block(v, p, cb.enc, b.orient,
                     Span2d<Sample>(b.coeffs.data(), cb.w, cb.h));
        blocks.push_back(std::move(b));
      }
    }
  }

  std::vector<jp2k::T1EncodedBlock> coded(blocks.size());
  double enc_s = 0.0;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      coded[i] = encode_block(v, p, blocks[i]);
    }
    const double s = t.seconds();
    enc_s = r == 0 ? s : std::min(enc_s, s);
  }

  std::vector<Sample> scratch;
  double dec_s = 0.0;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    for (const Block& b : blocks) {
      scratch.resize(b.coeffs.size());
      decode_block(v, p, b.cb->enc, b.orient,
                   Span2d<Sample>(scratch.data(), b.cb->w, b.cb->h));
    }
    const double s = t.seconds();
    dec_s = r == 0 ? s : std::min(dec_s, s);
  }

  // Byte identity: every re-encoded block, then the whole codestream.
  std::uint64_t symbols = 0;
  std::uint64_t by_type[3] = {0, 0, 0};
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    CJ2K_CHECK_MSG(same_passes(coded[i], blocks[i].cb->enc),
                   "re-encoded block differs from the serial encoder's");
    symbols += coded[i].total_symbols;
    for (const jp2k::PassInfo& pi : coded[i].passes) {
      by_type[static_cast<int>(pi.type)] += pi.symbols;
    }
    blocks[i].cb->enc = std::move(coded[i]);
  }
  CJ2K_CHECK_MSG(jp2k::finish_tile(tile, img, p) == serial,
                 "codestream from re-encoded blocks differs from the serial "
                 "encode");

  cell::MetricsRegistry m;
  const double msym = static_cast<double>(symbols) / 1e6;
  if (v.coder == jp2k::BlockCoder::kHt) {
    // HT codes every sample once in its single cleanup pass, so its
    // symbol count is the sample count.
    std::printf("  %-20s %7zu blocks %9.2f Msmp  encode %8.2f ms %7.2f "
                "Msmp/s  decode %8.2f ms %7.2f Msmp/s\n",
                v.label, blocks.size(), msym, enc_s * 1e3, msym / enc_s,
                dec_s * 1e3, msym / dec_s);
    m.set("ht.samples", static_cast<double>(symbols));
    m.set("ht.encode_seconds", enc_s);
    m.set("ht.decode_seconds", dec_s);
    m.set("ht.encode_msamples_per_s", msym / enc_s);
    m.set("ht.decode_msamples_per_s", msym / dec_s);
  } else {
    Decisions d;
    d.begin.push_back(0);
    for (const Block& b : blocks) {
      const std::vector<jp2k::T1Decision> s = jp2k::t1_decision_stream(
          Span2d<const Sample>(b.coeffs.data(), b.cb->w, b.cb->h), b.orient,
          p.t1);
      d.all.insert(d.all.end(), s.begin(), s.end());
      d.begin.push_back(d.all.size());
    }
    CJ2K_CHECK_MSG(d.all.size() == symbols,
                   "decision streams differ from the symbol count");
    const auto [mq_enc_s, mq_dec_s] = time_mq_replay(blocks, d, reps);

    const double share = symbols ? 100.0 / static_cast<double>(symbols) : 0.0;
    std::printf("  %-20s %7zu blocks %9.2f Msym  encode %8.2f ms %7.2f "
                "Msym/s  decode %8.2f ms %7.2f Msym/s\n",
                v.label, blocks.size(), msym, enc_s * 1e3, msym / enc_s,
                dec_s * 1e3, msym / dec_s);
    std::printf("  %-20s symbols by pass: significance %.1f%%  refinement "
                "%.1f%%  cleanup %.1f%%\n",
                "", static_cast<double>(by_type[0]) * share,
                static_cast<double>(by_type[1]) * share,
                static_cast<double>(by_type[2]) * share);
    std::printf("  %-20s MQ coder alone:              encode %8.2f ms %7.2f "
                "Msym/s  decode %8.2f ms %7.2f Msym/s\n",
                "", mq_enc_s * 1e3, msym / mq_enc_s, mq_dec_s * 1e3,
                msym / mq_dec_s);
    m.set("t1.symbols", static_cast<double>(symbols));
    m.set("t1.symbols.significance", static_cast<double>(by_type[0]));
    m.set("t1.symbols.refinement", static_cast<double>(by_type[1]));
    m.set("t1.symbols.cleanup", static_cast<double>(by_type[2]));
    m.set("t1.encode_seconds", enc_s);
    m.set("t1.decode_seconds", dec_s);
    m.set("t1.encode_msym_per_s", msym / enc_s);
    m.set("t1.decode_msym_per_s", msym / dec_s);
    m.set("t1.mq_encode_seconds", mq_enc_s);
    m.set("t1.mq_decode_seconds", mq_dec_s);
    m.set("t1.mq_encode_msym_per_s", msym / mq_enc_s);
    m.set("t1.mq_decode_msym_per_s", msym / mq_dec_s);
  }
  bench::emit_json_metrics("t1_throughput", v.label, 0.0, m);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Workload wl = bench::parse_workload(argc, argv);
  const int reps = 3;
  bench::print_header(
      "Tier-1 throughput: host EBCOT symbols and HT samples per second, "
      "one thread",
      "beyond the paper; the Tier-1 work queue's per-block kernel");
  const Image img = bench::paper_image(wl);
  std::printf("  Workload: synthetic photo %zux%zu RGB, 5 levels, 64x64 "
              "blocks; best of %d runs\n",
              img.width(), img.height(), reps);
  for (const Variant& v : kVariants) run_variant(v, img, reps);
  return 0;
}
