#include "common/json.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/strings.h"

namespace taskbench {

namespace {

/// Most arrays and objects open at once; a deeper document is
/// rejected before the recursion can exhaust the stack.
constexpr int kMaxDepth = 256;

/// Recursive-descent parser over a string_view with a cursor. Every
/// error carries the byte offset it was detected at.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWhitespace();
    JsonValue value;
    TB_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument(
        StrFormat("%s at byte %zu", what.c_str(), pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  /// `depth` counts the arrays and objects enclosing the value.
  Status ParseValue(JsonValue* out, int depth) {
    if (AtEnd()) return Error("unexpected end of input");
    switch (Peek()) {
      case '{': return ParseObject(out, depth + 1);
      case '[': return ParseArray(out, depth + 1);
      case '"': {
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string_value);
      }
      case 't': return ParseLiteral("true", out);
      case 'f': return ParseLiteral("false", out);
      case 'n': return ParseLiteral("null", out);
      default: return ParseNumber(out);
    }
  }

  Status ParseLiteral(const char* literal, JsonValue* out) {
    const size_t len = std::strlen(literal);
    if (text_.size() - pos_ < len ||
        text_.compare(pos_, len, literal) != 0) {
      return Error("invalid literal");
    }
    pos_ += len;
    if (literal[0] == 't') {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = true;
    } else if (literal[0] == 'f') {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = false;
    } else {
      out->kind = JsonValue::Kind::kNull;
    }
    return Status::OK();
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (!AtEnd() && Peek() == '-') ++pos_;
    if (AtEnd() || Peek() < '0' || Peek() > '9') {
      pos_ = start;
      return Error("invalid number");
    }
    if (Peek() == '0') {
      ++pos_;
    } else {
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (!AtEnd() && Peek() == '.') {
      ++pos_;
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        return Error("digit required after decimal point");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        return Error("digit required in exponent");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    out->kind = JsonValue::Kind::kNumber;
    out->number_value = std::strtod(token.c_str(), nullptr);
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    if (AtEnd() || Peek() != '"') return Error("expected string");
    ++pos_;
    out->clear();
    while (true) {
      if (AtEnd()) return Error("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c < 0x20) return Error("raw control character in string");
      if (c == '\\') {
        ++pos_;
        if (AtEnd()) return Error("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            TB_RETURN_IF_ERROR(AppendUnicodeEscape(out));
            break;
          }
          default: return Error("invalid escape");
        }
        continue;
      }
      out->push_back(static_cast<char>(c));
      ++pos_;
    }
  }

  Status AppendUnicodeEscape(std::string* out) {
    unsigned code = 0;
    TB_RETURN_IF_ERROR(ParseHex4(&code));
    if (code >= 0xD800 && code <= 0xDBFF) {
      // High surrogate: a low surrogate must follow.
      if (text_.size() - pos_ < 2 || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u') {
        return Error("unpaired surrogate");
      }
      pos_ += 2;
      unsigned low = 0;
      TB_RETURN_IF_ERROR(ParseHex4(&low));
      if (low < 0xDC00 || low > 0xDFFF) return Error("unpaired surrogate");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      return Error("unpaired surrogate");
    }
    // UTF-8 encode.
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
    return Status::OK();
  }

  Status ParseHex4(unsigned* out) {
    if (text_.size() - pos_ < 4) return Error("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Error("invalid \\u escape");
      }
    }
    pos_ += 4;
    *out = value;
    return Status::OK();
  }

  Status ParseArray(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    ++pos_;  // '['
    out->kind = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (!AtEnd() && Peek() == ']') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      JsonValue item;
      SkipWhitespace();
      TB_RETURN_IF_ERROR(ParseValue(&item, depth));
      out->items.push_back(std::move(item));
      SkipWhitespace();
      if (AtEnd()) return Error("unexpected end of input in array");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return Status::OK();
      }
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    ++pos_;  // '{'
    out->kind = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (!AtEnd() && Peek() == '}') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      TB_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (AtEnd() || Peek() != ':') return Error("expected ':' in object");
      ++pos_;
      SkipWhitespace();
      JsonValue value;
      TB_RETURN_IF_ERROR(ParseValue(&value, depth));
      out->members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (AtEnd()) return Error("unexpected end of input in object");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return Status::OK();
      }
      return Error("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

Status ValidateJson(std::string_view text) { return ParseJson(text).status(); }

}  // namespace taskbench
