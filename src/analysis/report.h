#ifndef TASKBENCH_ANALYSIS_REPORT_H_
#define TASKBENCH_ANALYSIS_REPORT_H_

#include <string>
#include <vector>

#include "runtime/metrics.h"

namespace taskbench::analysis {

/// Fixed-width text table used by the bench binaries to print the
/// same rows/series the paper's figures plot.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Adds one row; missing cells render empty, extra cells are kept.
  void AddRow(std::vector<std::string> cells);

  /// Aligned rendering with a header separator.
  std::string ToString() const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a signed speedup the way the paper annotates its charts,
/// e.g. "5.69x" or "-1.20x".
std::string FormatSpeedup(double signed_speedup);

/// ASCII Gantt chart of a run: one row per busy (node, lane), the
/// makespan binned into `width` columns. Cells show the task type's
/// first letter ('#' when several tasks share a bin), '.' when idle.
/// A quick occupancy view of the paper's resource-wastage story
/// without leaving the terminal (the full trace goes to
/// runtime::WriteChromeTrace).
std::string AsciiGantt(const runtime::RunReport& report, int width = 72,
                       int max_rows = 40);

}  // namespace taskbench::analysis

#endif  // TASKBENCH_ANALYSIS_REPORT_H_
