#ifndef TASKBENCH_COMMON_ARGS_H_
#define TASKBENCH_COMMON_ARGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace taskbench {

/// Minimal command-line parser for the tools: positional arguments
/// plus `--key=value` / `--flag` options. No external dependencies.
class Args {
 public:
  /// Parses argv[1..). `--key=value` and `--key value` both work;
  /// a bare `--key` has no value: GetBool reads it as true, GetString
  /// as "", and CheckFlags rejects it for a flag that needs a value.
  static Args Parse(int argc, const char* const* argv);

  const std::vector<std::string>& positional() const { return positional_; }

  bool Has(const std::string& key) const { return options_.count(key) > 0; }

  /// The option's value, or `fallback` when absent.
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const;

  /// Integer option; fails on non-numeric values.
  Result<int64_t> GetInt(const std::string& key, int64_t fallback) const;

  /// Double option; fails on non-numeric values.
  Result<double> GetDouble(const std::string& key, double fallback) const;

  /// Boolean flag: absent -> fallback; "", "true", "1" -> true;
  /// "false", "0" -> false; anything else fails.
  Result<bool> GetBool(const std::string& key, bool fallback) const;

  /// Keys that were provided but are not in `known` (typo detection).
  std::vector<std::string> UnknownKeys(
      const std::vector<std::string>& known) const;

  /// InvalidArgument naming the first flag that is in neither list (a
  /// typo), or that is in `value_flags` but has no value (`--out` with
  /// nothing after it, or `--out=`). A boolean flag may be bare.
  Status CheckFlags(const std::vector<std::string>& value_flags,
                    const std::vector<std::string>& bool_flags = {}) const;

 private:
  std::vector<std::string> positional_;
  std::map<std::string, std::string> options_;
};

}  // namespace taskbench

#endif  // TASKBENCH_COMMON_ARGS_H_
