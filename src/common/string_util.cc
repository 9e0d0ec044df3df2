#include "common/string_util.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace paxml {

std::vector<std::string_view> Split(std::string_view input, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == sep) {
      out.push_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool IsAllWhitespace(std::string_view s) {
  for (char c : s) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

std::optional<double> ParseNumber(std::string_view s) {
  s = StripWhitespace(s);
  if (s.empty()) return std::nullopt;
  // Most text is not a number: reject what strtod cannot start a number
  // with (in the C locale) before copying the text.
  const char c = s[0];
  if (!std::isdigit(static_cast<unsigned char>(c)) && c != '+' && c != '-' &&
      c != '.' && c != 'i' && c != 'I' && c != 'n' && c != 'N') {
    return std::nullopt;
  }
  // strtod needs a NUL-terminated buffer; numbers are short, copy is cheap.
  std::string buf(s);
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  return value;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

size_t XmlEscapedSize(std::string_view s) {
  size_t size = s.size();
  for (char c : s) {
    switch (c) {
      case '&':
        size += 4;  // &amp;
        break;
      case '<':
      case '>':
        size += 3;  // &lt; &gt;
        break;
      case '"':
      case '\'':
        size += 5;  // &quot; &apos;
        break;
      default:
        break;
    }
  }
  return size;
}

std::string XmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string StringFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string HumanBytes(uint64_t bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  if (unit == 0) return StringFormat("%llu B", static_cast<unsigned long long>(bytes));
  return StringFormat("%.1f %s", value, units[unit]);
}

}  // namespace paxml
