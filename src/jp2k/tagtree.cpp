#include "jp2k/tagtree.hpp"

#include "common/error.hpp"

namespace cj2k::jp2k {

// ---------------------------------------------------------------------------
// BitWriter / BitReader
// ---------------------------------------------------------------------------

void BitWriter::put_bit(int bit) {
  acc_ = (acc_ << 1) | static_cast<std::uint32_t>(bit & 1);
  if (++nbits_ == limit_) {
    // A 7-bit group after an 0xFF keeps its MSB stuffed to 0.
    const std::uint8_t byte = static_cast<std::uint8_t>(acc_ & 0xFF);
    out_.push_back(byte);
    acc_ = 0;
    nbits_ = 0;
    limit_ = (byte == 0xFF) ? 7 : 8;
  }
}

void BitWriter::put_bits(std::uint32_t value, int count) {
  CJ2K_DCHECK(count >= 0 && count <= 32);
  for (int i = count - 1; i >= 0; --i) put_bit((value >> i) & 1);
}

void BitWriter::align() {
  while (nbits_ != 0) put_bit(0);
  if (!out_.empty() && out_.back() == 0xFF) out_.push_back(0x00);
  limit_ = 8;
}

int BitReader::get_bit() {
  if (nbits_ == 0) {
    if (pos_ >= size_) {
      throw CodestreamError("bit reader ran past end of header");
    }
    const std::uint8_t byte = data_[pos_++];
    if (prev_ff_) {
      if (byte & 0x80) {
        throw CodestreamError("missing stuffed zero after 0xFF");
      }
      acc_ = byte;
      nbits_ = 7;
    } else {
      acc_ = byte;
      nbits_ = 8;
    }
    prev_ff_ = (byte == 0xFF);
  }
  --nbits_;
  return static_cast<int>((acc_ >> nbits_) & 1);
}

std::uint32_t BitReader::get_bits(int count) {
  CJ2K_DCHECK(count >= 0 && count <= 32);
  std::uint32_t v = 0;
  for (int i = 0; i < count; ++i) v = (v << 1) | static_cast<std::uint32_t>(get_bit());
  return v;
}

void BitReader::align() {
  nbits_ = 0;
  if (prev_ff_) {
    // The writer appended a stuffed 0x00 after a trailing 0xFF.
    if (pos_ >= size_) {
      throw CodestreamError("missing pad byte after trailing 0xFF");
    }
    ++pos_;
  }
  prev_ff_ = false;
}

// ---------------------------------------------------------------------------
// TagTree
// ---------------------------------------------------------------------------

TagTree::TagTree(std::size_t leaves_w, std::size_t leaves_h)
    : lw_(leaves_w), lh_(leaves_h) {
  CJ2K_CHECK_MSG(leaves_w >= 1 && leaves_h >= 1, "tag tree needs leaves");
  // Build levels bottom-up; level 0 = leaves.
  std::vector<std::pair<std::size_t, std::size_t>> dims;
  std::size_t w = leaves_w, h = leaves_h;
  dims.emplace_back(w, h);
  while (w > 1 || h > 1) {
    w = (w + 1) / 2;
    h = (h + 1) / 2;
    dims.emplace_back(w, h);
  }
  std::size_t total = 0;
  for (auto [dw, dh] : dims) total += dw * dh;
  nodes_.resize(total);

  // Link parents: node (x, y) at level l has parent (x/2, y/2) at level l+1.
  std::size_t level_base = 0;
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    const auto [dw, dh] = dims[l];
    const auto [pw, ph] = dims[l + 1];
    (void)ph;
    const std::size_t parent_base = level_base + dw * dh;
    for (std::size_t y = 0; y < dh; ++y) {
      for (std::size_t x = 0; x < dw; ++x) {
        nodes_[level_base + y * dw + x].parent =
            static_cast<int>(parent_base + (y / 2) * pw + (x / 2));
      }
    }
    level_base = parent_base;
  }
}

std::size_t TagTree::leaf_index(std::size_t x, std::size_t y) const {
  CJ2K_DCHECK(x < lw_ && y < lh_);
  return y * lw_ + x;
}

void TagTree::set_value(std::size_t x, std::size_t y, int value) {
  nodes_[leaf_index(x, y)].value = value;
}

void TagTree::finalize() {
  // Parents follow their children in nodes_, so one forward sweep carries
  // each subtree's minimum up to the root.
  for (const Node& n : nodes_) {
    if (n.parent >= 0) {
      int& up = nodes_[static_cast<std::size_t>(n.parent)].value;
      up = std::min(up, n.value);
    }
  }
}

int TagTree::value(std::size_t x, std::size_t y) const {
  return nodes_[leaf_index(x, y)].value;
}

}  // namespace cj2k::jp2k
