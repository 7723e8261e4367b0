// Body mutants for the reseal sweeps. Each mutant is a well-formed frame
// body with one local change; the tests reseal it, so it passes the
// envelope's magic, version and checksum and reaches the field decoder,
// which must return a value or a typed error.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "util/bytes.hpp"

namespace dice::testutil {

/// XOR masks applied to one body byte at a time.
inline constexpr std::uint8_t kByteFlips[] = {0x01, 0x40, 0x7f, 0x80, 0xff};

/// Values written over every LEB128 varint that parses in a body: the
/// one-byte edges, the first two-byte value, and the widths a count or
/// length must never trust.
inline constexpr std::uint64_t kVarintExtremes[] = {
    0, 1, 0x7f, 0x80, std::uint64_t{1} << 32, std::uint64_t{1} << 63, ~std::uint64_t{0}};

struct MutantCounts {
  std::size_t flips = 0;    ///< body.size() * size(kByteFlips)
  std::size_t varints = 0;  ///< offsets where a varint parses * size(kVarintExtremes)
};

/// Calls fn(mutated_body, what) for every body with one byte XOR'd by a
/// kByteFlips mask, then for every body in which the varint that parses
/// at some offset is re-encoded as a kVarintExtremes value (the bytes
/// after it shift). `what` names the mutation for failure messages.
template <typename Fn>
MutantCounts for_each_body_mutant(const util::Bytes& body, Fn&& fn) {
  MutantCounts counts;
  for (std::size_t i = 0; i < body.size(); ++i) {
    for (const std::uint8_t flip : kByteFlips) {
      util::Bytes mutated = body;
      mutated[i] ^= flip;
      fn(mutated, "body byte " + std::to_string(i) + " ^ " + std::to_string(flip));
      ++counts.flips;
    }
  }
  const std::span<const std::uint8_t> bytes(body);
  for (std::size_t i = 0; i < body.size(); ++i) {
    util::ByteReader reader(bytes.subspan(i));
    if (!reader.vu64().ok()) continue;
    const std::size_t length = reader.position();
    for (const std::uint64_t value : kVarintExtremes) {
      util::ByteWriter writer(body.size() + 10);
      writer.raw(bytes.first(i));
      writer.vu64(value);
      writer.raw(bytes.subspan(i + length));
      fn(std::move(writer).take(),
         "varint at body byte " + std::to_string(i) + " = " + std::to_string(value));
      ++counts.varints;
    }
  }
  return counts;
}

}  // namespace dice::testutil
