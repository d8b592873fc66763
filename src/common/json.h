#ifndef TASKBENCH_COMMON_JSON_H_
#define TASKBENCH_COMMON_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace taskbench {

/// A parsed JSON document node, the project's one JSON grammar. The
/// WfFormat importer reads task names, parent lists and byte sizes
/// out of this tree; the trace and metrics exports, the bench result
/// files and `json_lint` only ask whether a document parses
/// (ValidateJson). Object members keep document order so error
/// messages and round-trip tests are stable.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0;
  std::string string_value;
  std::vector<JsonValue> items;  ///< kArray
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject

  bool IsNull() const { return kind == Kind::kNull; }
  bool IsBool() const { return kind == Kind::kBool; }
  bool IsNumber() const { return kind == Kind::kNumber; }
  bool IsString() const { return kind == Kind::kString; }
  bool IsArray() const { return kind == Kind::kArray; }
  bool IsObject() const { return kind == Kind::kObject; }

  /// First member named `key`, or nullptr (objects only).
  const JsonValue* Find(std::string_view key) const;
};

/// Strict RFC 8259 parser: one value surrounded only by whitespace,
/// no trailing garbage, no NaN/Infinity literals, no lone UTF-16
/// surrogate escape, and at most 256 nested arrays and objects.
/// Errors are InvalidArgument ending in "at byte N", the offset the
/// error was detected at, so a truncated document fails with
/// "unterminated string at byte N" instead of yielding a partial
/// value.
Result<JsonValue> ParseJson(std::string_view text);

/// OK when `text` is one well-formed JSON document, else ParseJson's
/// error.
Status ValidateJson(std::string_view text);

}  // namespace taskbench

#endif  // TASKBENCH_COMMON_JSON_H_
