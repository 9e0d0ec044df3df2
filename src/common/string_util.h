// Small string helpers shared across modules.

#ifndef PAXML_COMMON_STRING_UTIL_H_
#define PAXML_COMMON_STRING_UTIL_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace paxml {

/// Splits `input` on `sep`; empty pieces are kept ("a//b" -> {"a","","b"}).
std::vector<std::string_view> Split(std::string_view input, char sep);

/// Joins pieces with `sep`.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

/// Removes ASCII whitespace from both ends.
std::string_view StripWhitespace(std::string_view s);

/// True iff `s` consists only of ASCII whitespace (or is empty).
bool IsAllWhitespace(std::string_view s);

/// Parses a decimal number (integer or fraction, optional sign).
std::optional<double> ParseNumber(std::string_view s);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Escapes &, <, >, ", ' for embedding in XML text/attributes.
std::string XmlEscape(std::string_view s);

/// XmlEscape(s).size(), counted without building the escaped copy.
size_t XmlEscapedSize(std::string_view s);

/// printf-style formatting into a std::string.
std::string StringFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Renders byte counts as "12.3 KB" / "4.0 MB" for reports.
std::string HumanBytes(uint64_t bytes);

}  // namespace paxml

#endif  // PAXML_COMMON_STRING_UTIL_H_
