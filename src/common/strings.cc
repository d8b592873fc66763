#include "common/strings.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace taskbench {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  // One formatting pass for the common short result; a longer one is
  // formatted again into a string of the size the first pass reported.
  char buffer[256];
  const int needed = std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    return {};
  }
  if (static_cast<size_t>(needed) < sizeof(buffer)) {
    va_end(args_copy);
    return std::string(buffer, static_cast<size_t>(needed));
  }
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::string HumanBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KB", "MB", "GB", "TB", "PB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 5) {
    value /= 1024.0;
    ++unit;
  }
  // The %.1f below rounds; a value in [1023.95, 1024) would render as
  // "1024.0 KB"-style nonsense. Roll such values into the next unit
  // before formatting.
  if (unit < 5 && std::round(value * 10.0) / 10.0 >= 1024.0) {
    value /= 1024.0;
    ++unit;
  }
  if (unit == 0) return StrFormat("%llu B", static_cast<unsigned long long>(bytes));
  return StrFormat("%.1f %s", value, kUnits[unit]);
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string HumanSeconds(double seconds) {
  if (seconds < 0) return "-" + HumanSeconds(-seconds);
  if (seconds >= 1.0) return StrFormat("%.3f s", seconds);
  if (seconds >= 1e-3) return StrFormat("%.3f ms", seconds * 1e3);
  if (seconds >= 1e-6) return StrFormat("%.3f us", seconds * 1e6);
  return StrFormat("%.1f ns", seconds * 1e9);
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> Split(std::string_view text, char delim) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delim) {
      parts.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

Result<int64_t> ParseInt64(std::string_view text) {
  const std::string buf(text);  // strtoll needs NUL termination
  if (buf.empty()) {
    return Status::InvalidArgument("expected an integer, got ''");
  }
  // strtoll silently skips leading whitespace; a flag like
  // --retries=" 3" is malformed input, not a 3.
  if (std::isspace(static_cast<unsigned char>(buf[0]))) {
    return Status::InvalidArgument(
        StrFormat("expected an integer, got '%s'", buf.c_str()));
  }
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) {
    return Status::InvalidArgument(
        StrFormat("expected an integer, got '%s'", buf.c_str()));
  }
  return static_cast<int64_t>(value);
}

Result<double> ParseDouble(std::string_view text) {
  const std::string buf(text);
  if (buf.empty()) {
    return Status::InvalidArgument("expected a number, got ''");
  }
  // strtod skips leading whitespace and happily parses "nan"/"inf";
  // neither is a meaningful value for any flag or spec here.
  if (std::isspace(static_cast<unsigned char>(buf[0]))) {
    return Status::InvalidArgument(
        StrFormat("expected a number, got '%s'", buf.c_str()));
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || errno == ERANGE ||
      !std::isfinite(value)) {
    return Status::InvalidArgument(
        StrFormat("expected a finite number, got '%s'", buf.c_str()));
  }
  return value;
}

std::string PadLeft(std::string_view s, size_t width) {
  if (s.size() >= width) return std::string(s);
  return std::string(width - s.size(), ' ') + std::string(s);
}

std::string PadRight(std::string_view s, size_t width) {
  if (s.size() >= width) return std::string(s);
  return std::string(s) + std::string(width - s.size(), ' ');
}

}  // namespace taskbench
