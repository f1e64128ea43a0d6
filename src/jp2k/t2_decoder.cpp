#include "jp2k/t2_decoder.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>

#include "common/error.hpp"
#include "jp2k/tagtree.hpp"

namespace cj2k::jp2k {

namespace {

int floor_log2(std::uint32_t v) { return 31 - std::countl_zero(v); }

int get_npasses(BitReader& br) {
  if (br.get_bit() == 0) return 1;
  if (br.get_bit() == 0) return 2;
  const std::uint32_t two = br.get_bits(2);
  if (two < 3) return 3 + static_cast<int>(two);
  const std::uint32_t five = br.get_bits(5);
  if (five < 31) return 6 + static_cast<int>(five);
  return 37 + static_cast<int>(br.get_bits(7));
}

std::vector<Subband*> bands_of_resolution(TileComponent& tc, int levels,
                                          int r) {
  std::vector<Subband*> out;
  for (auto& sb : tc.subbands) {
    if (r == 0) {
      if (sb.info.orient == SubbandOrient::LL) out.push_back(&sb);
    } else {
      if (sb.info.orient != SubbandOrient::LL &&
          sb.info.level == levels - r + 1) {
        out.push_back(&sb);
      }
    }
  }
  return out;
}

struct BlockState {
  bool included_before = false;
  int lblock = 3;
  int passes_so_far = 0;
};

struct BandState {
  explicit BandState(const Subband& sb)
      : incl(sb.grid_w, sb.grid_h),
        imsb(sb.grid_w, sb.grid_h),
        blocks(sb.blocks.size()) {
    incl.reset_for_decode();
    imsb.reset_for_decode();
  }
  TagTree incl;
  TagTree imsb;
  std::vector<BlockState> blocks;
};

struct PendingBlock {
  CodeBlock* cb;
  std::size_t len;
};

}  // namespace

std::size_t t2_decode(const std::uint8_t* data, std::size_t size,
                      Tile& tile, int max_layers) {
  std::size_t pos = 0;
  std::map<const Subband*, std::unique_ptr<BandState>> states;
  const auto state_of = [&](Subband& sb) -> BandState& {
    auto it = states.find(&sb);
    if (it != states.end()) return *it->second;
    auto st = std::make_unique<BandState>(sb);
    auto& ref = *st;
    states.emplace(&sb, std::move(st));
    return ref;
  };

  for (auto& tc : tile.components) {
    for (auto& sb : tc.subbands) {
      for (auto& cb : sb.blocks) {
        cb.included_passes = 0;
        cb.included_len = 0;
        cb.enc.data.clear();
      }
    }
  }

  const int layer_stop = max_layers > 0 ? std::min(max_layers, tile.layers)
                                        : tile.layers;
  const auto parse_packet = [&](int layer, int r) {
    for (auto& tc : tile.components) {
      auto bands = bands_of_resolution(tc, tile.levels, r);

      BitReader br(data + pos, size - pos);
      std::vector<PendingBlock> pending;

      if (br.get_bit() == 0) {
        br.align();
        pos += br.position();
        continue;
      }

      for (auto* sb : bands) {
        if (sb->blocks.empty()) continue;
        BandState& bst = state_of(*sb);

        for (std::size_t i = 0; i < sb->blocks.size(); ++i) {
          auto& cb = sb->blocks[i];
          BlockState& st = bst.blocks[i];

          bool contributes;
          if (!st.included_before) {
            contributes = bst.incl.decode(br, cb.gx, cb.gy, layer + 1);
            if (!contributes) continue;
            int zb = 0;
            while (!bst.imsb.decode(br, cb.gx, cb.gy, zb + 1)) {
              if (++zb > sb->band_numbps) {
                throw CodestreamError(
                    "negative bit-plane count in packet header");
              }
            }
            cb.enc.num_bitplanes = sb->band_numbps - zb;
            // Magnitudes are 32-bit sign-magnitude: at most 31 planes,
            // although QCD can announce up to 38.
            if (cb.enc.num_bitplanes > 31) {
              throw CodestreamError("bit-plane count over 31 in packet header");
            }
            st.included_before = true;
          } else {
            contributes = br.get_bit() != 0;
            if (!contributes) continue;
          }

          const int npasses = get_npasses(br);
          st.passes_so_far += npasses;
          if (st.passes_so_far > 1 + 3 * (cb.enc.num_bitplanes - 1)) {
            throw CodestreamError("pass count exceeds the block's bit planes");
          }
          cb.included_passes = st.passes_so_far;

          int extra = 0;
          while (br.get_bit()) ++extra;
          st.lblock += extra;
          const int bits =
              st.lblock + floor_log2(static_cast<std::uint32_t>(npasses));
          if (bits > 32) {
            throw CodestreamError("implausible segment length width");
          }
          const std::size_t len = br.get_bits(bits);
          pending.push_back({&cb, len});
        }
      }
      br.align();
      pos += br.position();

      for (const auto& pb : pending) {
        if (pb.len > size - pos) {
          throw CodestreamError("packet body truncated");
        }
        pb.cb->enc.data.insert(pb.cb->enc.data.end(), data + pos,
                               data + pos + pb.len);
        pb.cb->included_len = pb.cb->enc.data.size();
        pos += pb.len;
      }
    }
  };

  if (tile.progression == 1) {  // RLCP
    for (int r = 0; r <= tile.levels; ++r) {
      for (int layer = 0; layer < layer_stop; ++layer) parse_packet(layer, r);
      // In RLCP, layers beyond layer_stop still occupy packets within each
      // resolution; a progressive cut is only meaningful at full layer
      // count, so decode all layers when truncating is not requested.
    }
  } else {  // LRCP
    for (int layer = 0; layer < layer_stop; ++layer) {
      for (int r = 0; r <= tile.levels; ++r) parse_packet(layer, r);
    }
  }
  return pos;
}

}  // namespace cj2k::jp2k
