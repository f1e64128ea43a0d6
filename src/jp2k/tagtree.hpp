// Tag trees (ISO/IEC 15444-1 B.10.2) and the bit-stuffed packet-header
// bit I/O they ride on.  Tag trees communicate monotone 2-D integer fields
// (code-block inclusion layers, missing-bit-plane counts) incrementally.
//
// Both bit I/O classes offer `bit = io.code(d)` and
// `v = io.code_bits(v, n)`: the writer codes its decision and returns it,
// the reader ignores the decision and returns what it read.  Tier-2's
// packet walk (t2_walk.hpp) and TagTree::code are written once over that
// pair, so the direction is the type of `io`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

namespace cj2k::jp2k {

/// MSB-first bit writer with JPEG2000 packet-header stuffing: a byte equal
/// to 0xFF is followed by a byte whose MSB is a stuffed 0 (only 7 payload
/// bits).
class BitWriter {
 public:
  void put_bit(int bit);
  void put_bits(std::uint32_t value, int count);  ///< MSB first.

  bool code(bool d) {
    put_bit(d);
    return d;
  }
  std::uint32_t code_bits(std::uint32_t value, int count) {
    put_bits(value, count);
    return value;
  }

  /// Byte-aligns with zero padding; appends a 0x00 if the last byte would
  /// otherwise be 0xFF (a header cannot end on 0xFF).
  void align();

  const std::vector<std::uint8_t>& bytes() const { return out_; }
  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
  std::uint32_t acc_ = 0;
  int nbits_ = 0;      ///< Bits currently in acc_.
  int limit_ = 8;      ///< Bits in the next byte (7 after an 0xFF).
};

/// Mirror of BitWriter.
class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  int get_bit();
  std::uint32_t get_bits(int count);

  bool code(bool /*d*/) { return get_bit() != 0; }
  std::uint32_t code_bits(std::uint32_t /*value*/, int count) {
    return get_bits(count);
  }

  /// Skips to the next byte boundary (consuming the stuffed byte that
  /// follows a trailing 0xFF), mirroring BitWriter::align().
  void align();

  /// Bytes consumed so far (only meaningful right after align()).
  std::size_t position() const { return pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::uint32_t acc_ = 0;
  int nbits_ = 0;
  bool prev_ff_ = false;
};

/// Quad tag tree over a leaves_w × leaves_h grid.  A fresh tree decodes;
/// the encoder sets every leaf and calls finalize() first.
class TagTree {
 public:
  TagTree(std::size_t leaves_w, std::size_t leaves_h);

  /// Sets a leaf value (encoder side).  Call finalize() after all values.
  void set_value(std::size_t x, std::size_t y, int value);

  /// Propagates the leaf minima up a fresh tree, once, before coding.
  void finalize();

  /// Codes whether value(x,y) < threshold and returns it.  Each node on
  /// the root-to-leaf path that is not yet known codes one decision per
  /// step of its lower bound: "has the bound reached the value?".  The
  /// writer answers from the node's value; the reader's 1 records the
  /// value (for the writer that store rewrites the same value, since a
  /// bound never passes a node's value).
  template <class Io>
  bool code(Io& io, std::size_t x, std::size_t y, int threshold);

  /// The leaf value, once code() has resolved it.
  int value(std::size_t x, std::size_t y) const;

 private:
  struct Node {
    int value = std::numeric_limits<int>::max();
    int low = 0;
    bool known = false;
    int parent = -1;  ///< Index into nodes_, -1 at the root.
  };

  std::size_t leaf_index(std::size_t x, std::size_t y) const;

  std::size_t lw_, lh_;
  std::vector<Node> nodes_;
};

template <class Io>
bool TagTree::code(Io& io, std::size_t x, std::size_t y, int threshold) {
  int path[48];  // root-to-leaf, stored leaf first
  int depth = 0;
  for (int i = static_cast<int>(leaf_index(x, y)); i >= 0;
       i = nodes_[static_cast<std::size_t>(i)].parent) {
    path[depth++] = i;
  }
  int low = 0;
  while (depth > 0) {
    Node& node = nodes_[static_cast<std::size_t>(path[--depth])];
    low = std::max(low, node.low);
    while (low < threshold && !node.known) {
      if (io.code(low >= node.value)) {
        node.value = low;
        node.known = true;
      } else {
        ++low;
      }
    }
    node.low = low;
  }
  // A known leaf's bound sits at its value; an unknown one's at threshold.
  return low < threshold;
}

}  // namespace cj2k::jp2k
