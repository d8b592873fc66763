// json_lint — validates that each file argument is one well-formed
// JSON document under the project's one grammar (common/json.h). Exit
// 0 when every file parses, 1 otherwise, with one diagnostic line per
// bad file. CI runs the trace and metrics exports, the bench outputs
// and every committed JSON document through this linter.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: json_lint FILE...\n");
    return 2;
  }
  int bad = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream file(argv[i]);
    if (!file) {
      std::fprintf(stderr, "%s: cannot open\n", argv[i]);
      ++bad;
      continue;
    }
    std::ostringstream contents;
    contents << file.rdbuf();
    const std::string text = contents.str();
    const taskbench::Status status = taskbench::ValidateJson(text);
    if (!status.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv[i],
                   status.ToString().c_str());
      ++bad;
      continue;
    }
    std::printf("%s: ok (%zu bytes)\n", argv[i], text.size());
  }
  return bad == 0 ? 0 : 1;
}
