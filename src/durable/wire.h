// Little-endian binary primitives for the durable control plane
// (docs/recovery.md). Every multi-byte integer is written LSB-first so
// journals and checkpoints are byte-identical across hosts; doubles go
// through their IEEE-754 bit pattern.
//
// BinReader is bounds-checked: reading past the end of the buffer throws
// util Error (recovery maps it onto the structured kRecovery error), so a
// payload that passed the journal CRC but does not parse can never be
// silently misinterpreted.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/error.h"

namespace clickinc::durable {

class BinWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) { putLe(v, 2); }
  void u32(std::uint32_t v) { putLe(v, 4); }
  void u64(std::uint64_t v) { putLe(v, 8); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }

 private:
  void putLe(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  std::vector<std::uint8_t> bytes_;
};

class BinReader {
 public:
  explicit BinReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    need(1);
    return bytes_[pos_++];
  }
  std::uint16_t u16() { return static_cast<std::uint16_t>(getLe(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(getLe(4)); }
  std::uint64_t u64() { return getLe(8); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  // Count prefix of a repeated field. Each element consumes at least
  // min_elem_bytes when encoded, so any count that cannot fit in the
  // remaining bytes is corruption — reject it BEFORE the caller sizes a
  // container, or a flipped count byte that survives the journal CRC
  // turns into an unbounded allocation instead of a parse error.
  std::uint32_t count(std::size_t min_elem_bytes) {
    const std::uint32_t n = u32();
    if (min_elem_bytes > 0 &&
        n > remaining() / min_elem_bytes) {
      throw Error("durable: implausible count " + std::to_string(n) +
                  " (needs >= " + std::to_string(n * min_elem_bytes) +
                  " bytes, has " + std::to_string(remaining()) + ")");
    }
    return n;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  void need(std::size_t n) {
    if (bytes_.size() - pos_ < n) {
      throw Error("durable: truncated payload (wants " + std::to_string(n) +
                  " bytes, has " + std::to_string(bytes_.size() - pos_) +
                  ")");
    }
  }
  std::uint64_t getLe(int n) {
    need(static_cast<std::size_t>(n));
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace clickinc::durable
