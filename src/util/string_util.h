// String and CSV helpers shared across data loading and bench output.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace stisan {

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Parses a double; returns InvalidArgument on malformed input.
Result<double> ParseDouble(std::string_view s);

/// Parses a signed 64-bit integer; returns InvalidArgument on malformed input.
Result<int64_t> ParseInt64(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace stisan
