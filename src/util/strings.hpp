// Small string helpers for parsing and report formatting.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"

namespace dice::util {

/// Splits on a delimiter; empty fields are preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char delim);

/// Trims ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) noexcept;

/// Parses an unsigned decimal integer; rejects empty/overflow/junk.
[[nodiscard]] Result<std::uint64_t> parse_u64(std::string_view s) noexcept;

/// Joins items with a separator (reporting convenience).
[[nodiscard]] std::string join(const std::vector<std::string>& items, std::string_view sep);

/// printf-style formatting into std::string.
[[nodiscard]] std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace dice::util
