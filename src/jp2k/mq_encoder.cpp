#include "jp2k/mq_encoder.hpp"

#include "common/error.hpp"

namespace cj2k::jp2k {

namespace {
/// Initial output storage, placeholder byte included; doubled when full.
constexpr std::size_t kInitialBytes = 256;
}  // namespace

MqEncoder::MqEncoder(std::vector<std::uint8_t>& out) : out_(&out) {
  out.assign(kInitialBytes, 0);
  bp_ = out.data();
  end_ = out.data() + out.size();
}

std::pair<std::uint8_t*, std::uint8_t*> MqEncoder::grow(
    std::vector<std::uint8_t>& out, std::uint8_t* bp) {
  const auto used = static_cast<std::size_t>(bp - out.data());
  out.resize(2 * out.size());
  return {out.data() + used, out.data() + out.size()};
}

void MqEncoder::flush() {
  CJ2K_CHECK_MSG(bp_ != nullptr, "MQ encoder flushed twice");
  // SETBITS (Figure C.9): fill C with as many 1 bits as possible without
  // leaving the final interval.
  const std::uint32_t tempc = c_ + a_;
  c_ |= 0xFFFF;
  if (c_ >= tempc) c_ -= 0x8000;

  c_ <<= ct_;
  byteout();
  c_ <<= ct_;
  byteout();

  // A terminated segment must not end in 0xFF (it would look like a marker).
  std::uint8_t* const first = out_->data() + 1;
  while (bp_ >= first && *bp_ == 0xFF) --bp_;
  // An exact-size copy without the placeholder B; the working storage
  // (up to twice the codeword) goes.
  *out_ = std::vector<std::uint8_t>(first, bp_ + 1);
  bp_ = nullptr;
  end_ = nullptr;
}

}  // namespace cj2k::jp2k
