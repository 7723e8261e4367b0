// Field codecs: one function per wire record serves both directions.
//
// A record's layout is written once, as a `fields` function over either
// half of an encoder/decoder pair:
//
//   template <class Io>
//   void fields(Io& io, util::IoRef<Io, Record> record) {
//     io.u64(record.id);
//     io.str(record.name);
//     io.seq(record.items, [&](auto& item) { fields(io, item); });
//   }
//
// FieldEncoder appends each field to a ByteWriter through the ByteWriter
// call of the same name, so the bytes are exactly what a hand-written
// encoder would write. FieldDecoder reads the record back; it keeps the
// first error and turns every later call into a no-op, so a field list
// needs no error plumbing. finish() reports that error, or bytes left over.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/result.hpp"

namespace dice::util {

/// The record reference a field list takes: const when encoding, mutable
/// when decoding.
template <class Io, class T>
using IoRef = std::conditional_t<Io::kDecoding, T&, const T&>;

class FieldEncoder {
 public:
  static constexpr bool kDecoding = false;

  explicit FieldEncoder(ByteWriter& out) noexcept : out_(out) {}

  void u32(std::uint32_t v) { out_.u32(v); }
  void u64(std::uint64_t v) { out_.u64(v); }
  void vu32(std::uint32_t v) { out_.vu32(v); }
  void vu64(std::uint64_t v) { out_.vu64(v); }
  void f64(double v) { out_.u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { out_.u8(v ? 1 : 0); }
  void str(const std::string& v) { out_.str(v); }
  /// vu64 length, then the raw bytes.
  void bytes(const Bytes& v) {
    out_.vu64(v.size());
    out_.raw(v);
  }
  /// One byte; the decoder refuses values above `max`.
  template <class E>
  void enumeration(E v, E /*max*/) {
    out_.u8(static_cast<std::uint8_t>(v));
  }
  /// Up to eight bools packed into one byte, the first in bit 0.
  template <class... B>
  void flags(const B&... bits) {
    static_assert(sizeof...(B) <= 8);
    std::uint8_t packed = 0;
    unsigned bit = 0;
    ((packed |= static_cast<std::uint8_t>(bits ? 1u << bit : 0u), ++bit), ...);
    out_.u8(packed);
  }
  /// A presence bool, then the value when present.
  template <class T, class F>
  void optional(const std::optional<T>& v, F&& field) {
    boolean(v.has_value());
    if (v.has_value()) field(*v);
  }
  /// vu64 count, then each element. Takes any sized range, so an encoder
  /// may hand in a canonical view (sorted references) of a vector.
  template <class Range, class F>
  void seq(const Range& elements, F&& element) {
    out_.vu64(std::size(elements));
    for (const auto& e : elements) element(e);
  }
  /// vu64 count, then each (key, value) entry in map order.
  template <class Map, class F>
  void map(const Map& entries, F&& entry) {
    out_.vu64(entries.size());
    for (const auto& [key, value] : entries) entry(key, value);
  }

 private:
  ByteWriter& out_;
};

class FieldDecoder {
 public:
  static constexpr bool kDecoding = true;

  /// `value_code` is the format's error code for a field that reads fine
  /// but holds an impossible value (a bool above 1, an enum past its max,
  /// an undefined flag bit).
  FieldDecoder(ByteReader& in, const char* value_code) noexcept
      : in_(in), value_code_(value_code) {}

  [[nodiscard]] bool ok() const noexcept { return !error_.has_value(); }

  void u32(std::uint32_t& v) { read(&ByteReader::u32, v); }
  void u64(std::uint64_t& v) { read(&ByteReader::u64, v); }
  void vu32(std::uint32_t& v) { read(&ByteReader::vu32, v); }
  void vu64(std::uint64_t& v) { read(&ByteReader::vu64, v); }
  void str(std::string& v) { read(&ByteReader::str, v); }
  void f64(double& v) {
    std::uint64_t bits = 0;
    u64(bits);
    v = std::bit_cast<double>(bits);
  }
  void boolean(bool& v) {
    std::uint8_t byte = 0;
    read(&ByteReader::u8, byte);
    if (byte > 1) fail(value_code_, "bool out of range: " + std::to_string(byte));
    v = byte == 1;
  }
  void bytes(Bytes& v) {
    std::uint64_t size = 0;
    vu64(size);
    if (!ok()) return;
    auto body = in_.raw(size);
    if (!body) return fail(body.error());
    v.assign(body.value().begin(), body.value().end());
  }
  template <class E>
  void enumeration(E& v, E max) {
    std::uint8_t byte = 0;
    read(&ByteReader::u8, byte);
    if (byte > static_cast<std::uint8_t>(max)) {
      fail(value_code_, "enum value out of range: " + std::to_string(byte));
    }
    v = static_cast<E>(byte);
  }
  template <class... B>
  void flags(B&... bits) {
    std::uint8_t packed = 0;
    read(&ByteReader::u8, packed);
    if ((packed >> sizeof...(B)) != 0) fail(value_code_, "undefined flag bits");
    unsigned bit = 0;
    ((bits = ((packed >> bit++) & 1u) != 0), ...);
  }
  template <class T, class F>
  void optional(std::optional<T>& v, F&& field) {
    bool present = false;
    boolean(present);
    v.reset();
    if (present && ok()) field(v.emplace());
  }
  /// Every element encodes to at least one byte, so a count above the
  /// bytes left is refused, and the reservation never takes more memory
  /// than the bytes left: a forged count fails typed instead of
  /// allocating.
  template <class T, class F>
  void seq(std::vector<T>& elements, F&& element) {
    const std::uint64_t n = count();
    elements.clear();
    elements.reserve(std::min<std::uint64_t>(n, in_.remaining() / sizeof(T) + 1));
    for (std::uint64_t i = 0; i < n && ok(); ++i) element(elements.emplace_back());
  }
  template <class Map, class F>
  void map(Map& entries, F&& entry) {
    const std::uint64_t n = count();
    entries.clear();
    for (std::uint64_t i = 0; i < n && ok(); ++i) {
      typename Map::key_type key{};
      typename Map::mapped_type value{};
      entry(key, value);
      if (ok()) entries.emplace(std::move(key), std::move(value));
    }
  }

  /// The first error, else `trailing_code` when bytes are left over.
  [[nodiscard]] Status finish(const char* trailing_code) const {
    if (error_.has_value()) return *error_;
    if (!in_.exhausted()) {
      return make_error(trailing_code,
                        std::to_string(in_.remaining()) + " byte(s) after the payload");
    }
    return Status::success();
  }

 private:
  template <class Read, class T>
  void read(Read method, T& out) {
    if (!ok()) return;
    auto value = (in_.*method)();
    if (!value) return fail(value.error());
    out = std::move(value).take();
  }
  [[nodiscard]] std::uint64_t count() {
    std::uint64_t n = 0;
    vu64(n);
    if (ok() && n > in_.remaining()) {
      fail("bytes.truncated", "count " + std::to_string(n) + " exceeds the " +
                                  std::to_string(in_.remaining()) + " byte(s) left");
    }
    return ok() ? n : 0;
  }
  void fail(Error error) {
    if (ok()) error_ = std::move(error);
  }
  void fail(const char* code, std::string detail) { fail(make_error(code, std::move(detail))); }

  ByteReader& in_;
  const char* value_code_;
  std::optional<Error> error_;
};

}  // namespace dice::util
