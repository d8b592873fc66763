#ifndef TASKBENCH_OBS_JSON_H_
#define TASKBENCH_OBS_JSON_H_

// The JSON grammar lives in common/json.h; this name stays for the
// end-to-end benchmark, which still includes it.
#include "common/json.h"

namespace taskbench::obs {
using ::taskbench::ValidateJson;
}  // namespace taskbench::obs

#endif  // TASKBENCH_OBS_JSON_H_
