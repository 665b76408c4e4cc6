// Small string utilities used by the SQL parser, report writers and tests.
#ifndef UUQ_COMMON_STRINGS_H_
#define UUQ_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace uuq {

/// Lower-cases ASCII characters only (sufficient for SQL keywords).
std::string AsciiToLower(std::string_view s);

/// Strips leading and trailing whitespace.
std::string_view StripWhitespace(std::string_view s);

/// Splits on a delimiter character; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins pieces with a separator.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view separator);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Formats a double compactly: integers without trailing ".0", otherwise up
/// to `precision` significant decimal digits.
std::string FormatDouble(double v, int precision = 6);

/// Left-pads to at least `width` characters.
std::string PadLeft(std::string s, size_t width);

}  // namespace uuq

#endif  // UUQ_COMMON_STRINGS_H_
