#include "common/args.h"

#include <algorithm>
#include <cstdlib>

#include "common/strings.h"

namespace taskbench {

Args Args::Parse(int argc, const char* const* argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      args.positional_.push_back(token);
      continue;
    }
    const std::string body = token.substr(2);
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      args.options_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.options_[body] = argv[++i];
    } else {
      args.options_[body] = "";
    }
  }
  return args;
}

std::string Args::GetString(const std::string& key,
                            const std::string& fallback) const {
  const auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

Result<int64_t> Args::GetInt(const std::string& key, int64_t fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  auto value = ParseInt64(it->second);
  if (!value.ok()) {
    return value.status().WithContext(StrFormat("--%s", key.c_str()));
  }
  return *value;
}

Result<double> Args::GetDouble(const std::string& key, double fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  auto value = ParseDouble(it->second);
  if (!value.ok()) {
    return value.status().WithContext(StrFormat("--%s", key.c_str()));
  }
  return *value;
}

Result<bool> Args::GetBool(const std::string& key, bool fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  const std::string& v = it->second;
  if (v.empty() || v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  return Status::InvalidArgument(StrFormat(
      "--%s expects true/false, got '%s'", key.c_str(), v.c_str()));
}

std::vector<std::string> Args::UnknownKeys(
    const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [key, _] : options_) {
    bool found = false;
    for (const std::string& k : known) {
      if (k == key) {
        found = true;
        break;
      }
    }
    if (!found) unknown.push_back(key);
  }
  return unknown;
}

Status Args::CheckFlags(const std::vector<std::string>& value_flags,
                        const std::vector<std::string>& bool_flags) const {
  for (const auto& [key, value] : options_) {
    const bool takes_value =
        std::find(value_flags.begin(), value_flags.end(), key) !=
        value_flags.end();
    if (!takes_value && std::find(bool_flags.begin(), bool_flags.end(),
                                  key) == bool_flags.end()) {
      return Status::InvalidArgument(
          StrFormat("unknown flag --%s", key.c_str()));
    }
    if (takes_value && value.empty()) {
      return Status::InvalidArgument(
          StrFormat("--%s needs a value", key.c_str()));
    }
  }
  return Status::OK();
}

}  // namespace taskbench
