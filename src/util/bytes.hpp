// Big-endian (network byte order) byte buffer reader/writer used by the BGP
// wire codec and the checkpoint serializer. Readers are bounds-checked and
// fail soft (Result) so malformed fuzzer inputs cannot crash the decoder.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/result.hpp"

namespace dice::util {

using Bytes = std::vector<std::uint8_t>;

/// Appends big-endian integers and raw bytes to a growable buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 24));
    buf_.push_back(static_cast<std::uint8_t>(v >> 16));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  /// LEB128 varint: 7 value bits per byte, high bit = continuation.
  /// Encodes 0..127 in one byte; a u32 takes at most 5 bytes, a u64 at
  /// most 10. The checkpoint codec leans on these for counts, ids, and
  /// pool indices, which are overwhelmingly small.
  void vu32(std::uint32_t v) { vu64(v); }
  void vu64(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  /// Zigzag-coded signed varints: small magnitudes (either sign) stay small
  /// on the wire. -1 -> 1, 1 -> 2, -2 -> 3, ...
  void vi32(std::int32_t v) {
    vu32((static_cast<std::uint32_t>(v) << 1) ^
         static_cast<std::uint32_t>(v >> 31));
  }
  void vi64(std::int64_t v) {
    vu64((static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63));
  }
  void raw(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  /// Reserves `n` bytes at the current position and returns their offset;
  /// use patch_u16 to fill a length field once the payload size is known.
  [[nodiscard]] std::size_t placeholder(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(buf_.size() + n, 0);
    return at;
  }
  void patch_u8(std::size_t at, std::uint8_t v) { buf_.at(at) = v; }
  void patch_u16(std::size_t at, std::uint16_t v) {
    buf_.at(at) = static_cast<std::uint8_t>(v >> 8);
    buf_.at(at + 1) = static_cast<std::uint8_t>(v);
  }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] const Bytes& bytes() const& noexcept { return buf_; }
  [[nodiscard]] Bytes take() && noexcept { return std::move(buf_); }
  [[nodiscard]] std::span<const std::uint8_t> span() const noexcept { return buf_; }

 private:
  Bytes buf_;
};

/// Bounds-checked big-endian reader over a borrowed byte span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept : data_(data) {}

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ >= data_.size(); }

  [[nodiscard]] Result<std::uint8_t> u8() noexcept {
    if (remaining() < 1) return truncated("u8");
    return data_[pos_++];
  }
  [[nodiscard]] Result<std::uint16_t> u16() noexcept {
    if (remaining() < 2) return truncated("u16");
    const std::uint16_t v = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  [[nodiscard]] Result<std::uint32_t> u32() noexcept {
    if (remaining() < 4) return truncated("u32");
    const std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 24) |
                            (static_cast<std::uint32_t>(data_[pos_ + 1]) << 16) |
                            (static_cast<std::uint32_t>(data_[pos_ + 2]) << 8) |
                            static_cast<std::uint32_t>(data_[pos_ + 3]);
    pos_ += 4;
    return v;
  }
  [[nodiscard]] Result<std::uint64_t> u64() noexcept {
    auto hi = u32();
    if (!hi) return hi.error();
    auto lo = u32();
    if (!lo) return lo.error();
    return (static_cast<std::uint64_t>(hi.value()) << 32) | lo.value();
  }
  /// LEB128 varint reads. Fail soft (never read past the buffer): a varint
  /// hitting the end of data returns bytes.truncated, one running past the
  /// maximum encoded length for its width — or carrying payload bits beyond
  /// that width — returns bytes.varint.malformed. Canonical-length overlong
  /// encodings that still fit the width (e.g. 0x80 0x00 for zero) decode
  /// normally; only streams that could overflow are rejected.
  [[nodiscard]] Result<std::uint32_t> vu32() noexcept {
    auto v = varint(5, 32, "vu32");
    if (!v) return v.error();
    return static_cast<std::uint32_t>(v.value());
  }
  [[nodiscard]] Result<std::uint64_t> vu64() noexcept { return varint(10, 64, "vu64"); }
  [[nodiscard]] Result<std::int32_t> vi32() noexcept {
    auto v = vu32();
    if (!v) return v.error();
    return static_cast<std::int32_t>((v.value() >> 1) ^ (~(v.value() & 1) + 1));
  }
  [[nodiscard]] Result<std::int64_t> vi64() noexcept {
    auto v = vu64();
    if (!v) return v.error();
    return static_cast<std::int64_t>((v.value() >> 1) ^ (~(v.value() & 1) + 1));
  }
  [[nodiscard]] Result<std::span<const std::uint8_t>> raw(std::size_t n) noexcept {
    if (remaining() < n) return truncated("raw");
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  [[nodiscard]] Result<std::string> str() {
    auto len = u32();
    if (!len) return len.error();
    auto body = raw(len.value());
    if (!body) return body.error();
    return std::string(body.value().begin(), body.value().end());
  }
  Status skip(std::size_t n) noexcept {
    if (remaining() < n) return truncated("skip");
    pos_ += n;
    return Status::success();
  }

 private:
  [[nodiscard]] static Error truncated(const char* what) {
    return make_error("bytes.truncated", what);
  }
  [[nodiscard]] Result<std::uint64_t> varint(std::size_t max_bytes,
                                             unsigned bits,
                                             const char* what) noexcept {
    std::uint64_t out = 0;
    for (std::size_t i = 0; i < max_bytes; ++i) {
      if (pos_ + i >= data_.size()) return truncated(what);
      const std::uint8_t byte = data_[pos_ + i];
      const unsigned shift = static_cast<unsigned>(i) * 7;
      const std::uint64_t group = byte & 0x7f;
      // Reject payload bits that fall outside the target width: on the
      // final permitted byte only (bits - shift) low bits may be set.
      if (shift + 7 > bits && (group >> (bits - shift)) != 0) {
        return make_error("bytes.varint.malformed", what);
      }
      out |= group << shift;
      if ((byte & 0x80) == 0) {
        pos_ += i + 1;
        return out;
      }
    }
    return make_error("bytes.varint.malformed", what);
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Hex dump (lowercase, no separators) — used in fault report evidence.
[[nodiscard]] std::string to_hex(std::span<const std::uint8_t> data);

/// Parses a hex string produced by to_hex. Fails on odd length or bad digit.
[[nodiscard]] Result<Bytes> from_hex(std::string_view hex);

}  // namespace dice::util
