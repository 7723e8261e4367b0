// Sealed envelope: the framing DSHD wire messages and DSVC store files
// share.
//
//   magic (4 bytes) | version (u8) | FNV-1a over the body (u64) | body
//
// open() checks the magic, then the version, then the checksum, BEFORE any
// body parse: every corrupted or truncated body byte fails at the checksum,
// so a format's field parser only ever sees what an encoder wrote. FNV-1a
// is not a MAC; a forged body with a valid checksum still reaches the
// parser, which must stay strict. Each format names its own error codes.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "util/bytes.hpp"
#include "util/result.hpp"

namespace dice::util {

struct Envelope {
  std::string_view magic;  ///< the format's magic, e.g. "DSHD"
  std::uint8_t version;
  const char* magic_code;     ///< the data does not start with `magic`
  const char* version_code;   ///< the version byte is not `version`
  const char* checksum_code;  ///< the body does not match the checksum

  [[nodiscard]] Bytes seal(std::span<const std::uint8_t> body) const;
  /// The verified body, or a typed error: one of the three codes above, or
  /// bytes.truncated for data shorter than the header.
  [[nodiscard]] Result<std::span<const std::uint8_t>> open(
      std::span<const std::uint8_t> data) const;
};

}  // namespace dice::util
