#include "analysis/report.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "common/strings.h"
#include "runtime/trace.h"

namespace taskbench::analysis {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TextTable::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string TextTable::ToString() const {
  size_t columns = headers_.size();
  for (const auto& row : rows_) columns = std::max(columns, row.size());

  std::vector<size_t> widths(columns, 0);
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < columns; ++c) {
      const std::string& cell = c < row.size() ? row[c] : "";
      out << (c == 0 ? "" : "  ") << PadRight(cell, widths[c]);
    }
    out << "\n";
  };
  emit_row(headers_);
  size_t sep_width = 0;
  for (size_t c = 0; c < columns; ++c) sep_width += widths[c] + (c ? 2 : 0);
  out << std::string(sep_width, '-') << "\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string FormatSpeedup(double signed_speedup) {
  return StrFormat("%.2fx", signed_speedup);
}

std::string AsciiGantt(const runtime::RunReport& report, int width,
                       int max_rows) {
  if (report.records.empty() || report.makespan <= 0 || width < 1) {
    return "(empty run)\n";
  }
  const std::vector<int> lanes = runtime::AssignLanes(report.records);

  // Row key: (node, lane), ordered.
  std::map<std::pair<int, int>, std::string> rows;
  for (size_t i = 0; i < report.records.size(); ++i) {
    const runtime::TaskRecord& rec = report.records[i];
    const std::pair<int, int> key{rec.node < 0 ? 0 : rec.node, lanes[i]};
    auto [it, inserted] =
        rows.try_emplace(key, std::string(static_cast<size_t>(width), '.'));
    std::string& cells = it->second;
    int from = static_cast<int>(rec.start / report.makespan * width);
    int to = static_cast<int>(rec.end / report.makespan * width);
    from = std::max(0, std::min(from, width - 1));
    to = std::max(from, std::min(to, width - 1));
    const char glyph = rec.type.empty() ? '#' : rec.type[0];
    for (int c = from; c <= to; ++c) {
      char& cell = cells[static_cast<size_t>(c)];
      cell = (cell == '.' || cell == glyph) ? glyph : '#';
    }
  }

  std::ostringstream out;
  out << StrFormat("time 0 .. %s across %d columns; rows are "
                   "node:lane, '.' idle\n",
                   HumanSeconds(report.makespan).c_str(), width);
  int emitted = 0;
  for (const auto& [key, cells] : rows) {
    if (emitted++ >= max_rows) {
      out << StrFormat("... (%zu more lanes)\n", rows.size() -
                                                     static_cast<size_t>(
                                                         max_rows));
      break;
    }
    out << PadLeft(StrFormat("%d:%d", key.first, key.second), 6) << " |"
        << cells << "|\n";
  }
  return out.str();
}

}  // namespace taskbench::analysis
