#ifndef TASKBENCH_WF_JSON_H_
#define TASKBENCH_WF_JSON_H_

// The JSON grammar lives in common/json.h; these names stay for the
// end-to-end benchmark, which still includes them.
#include "common/json.h"

namespace taskbench::wf {
using ::taskbench::JsonValue;
using ::taskbench::ParseJson;
}  // namespace taskbench::wf

#endif  // TASKBENCH_WF_JSON_H_
