#include "check.h"

#include <algorithm>
#include <sstream>

#include "common/csv.h"
#include "common/json.h"
#include "sweep/runner.h"
#include "sweep/sweep.h"
#include "workloads.h"

namespace perfbench {

using namespace bbrmodel;

namespace {

/// Byte offset of line `line` (0 = header) of `text`, or npos.
std::size_t line_start(const std::string& text, std::size_t line) {
  std::size_t at = 0;
  for (std::size_t i = 0; i < line; ++i) {
    at = text.find('\n', at);
    if (at == std::string::npos) return at;
    ++at;
  }
  return at < text.size() ? at : std::string::npos;
}

std::string csv_row_text(const sweep::TaskResult& row) {
  std::ostringstream out;
  {
    CsvWriter csv(out, sweep::SweepResult::csv_header());
    sweep::write_result_csv_row(csv, row);
  }
  const std::string doc = out.str();
  return doc.substr(doc.find('\n') + 1);
}

/// The row object exactly as it appears inside a full document: the same
/// nesting gives the same indentation.
std::string json_row_text(const sweep::TaskResult& row) {
  std::ostringstream out;
  sweep::write_sweep_json(out, 1, row.ok ? 0 : 1, [&](JsonWriter& j) {
    sweep::write_result_json_row(j, row);
  });
  const std::string doc = out.str();
  const std::size_t begin = doc.find('{', doc.find("\"rows\""));
  const std::size_t end = doc.rfind('}', doc.rfind(']'));
  return doc.substr(begin, end - begin + 1);
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

}  // namespace

std::vector<std::size_t> check_positions(std::size_t cells, std::size_t count,
                                         std::uint64_t seed) {
  std::vector<std::size_t> positions;
  if (cells == 0) return positions;
  count = std::min(count, cells);
  const std::size_t stride = cells / count;
  for (std::size_t j = 0; j < count; ++j) {
    positions.push_back(j * cells / count + seed % stride);
  }
  return positions;
}

std::string check_output(const orchestrator::ExecutionPlan& plan,
                         const std::string& csv, const std::string& json,
                         std::size_t failed,
                         const std::vector<std::size_t>& positions) {
  const std::size_t cells = plan.size();
  std::ostringstream header;
  { CsvWriter writer(header, sweep::SweepResult::csv_header()); }
  if (csv.compare(0, header.str().size(), header.str()) != 0) {
    return "csv header differs";
  }
  std::vector<std::size_t> row_starts;  // offset of each line after the header
  for (std::size_t at = csv.find('\n'); at + 1 < csv.size();
       at = csv.find('\n', at + 1)) {
    row_starts.push_back(at + 1);
  }
  if (row_starts.size() != cells || csv.back() != '\n') {
    return "csv has " + std::to_string(row_starts.size()) +
           " rows, the plan " + std::to_string(cells);
  }
  std::ostringstream envelope;
  sweep::write_sweep_json(envelope, cells, failed, nullptr);
  const std::string prefix =
      envelope.str().substr(0, envelope.str().find("\"rows\""));
  if (json.compare(0, prefix.size(), prefix) != 0) {
    return "json envelope differs";
  }
  if (count_of(json, "\"task\": ") != cells) {
    return "json row count differs from the plan";
  }

  // Re-run the sampled cells one by one through the library's scalar path.
  std::vector<sweep::SweepTask> tasks;
  for (const std::size_t p : positions) tasks.push_back(plan.cell(p));
  sweep::SweepOptions scalar;
  scalar.threads = kThreads;
  scalar.batch_cells = 1;
  scalar.runner = sweep::backend_runner();
  const sweep::SweepResult expected = sweep::run_tasks(tasks, scalar);
  std::size_t json_at = 0;  // rows are in plan order: search onwards
  for (std::size_t k = 0; k < positions.size(); ++k) {
    const sweep::TaskResult& row = expected.row(k);
    const std::string want = csv_row_text(row);
    if (csv.compare(row_starts[positions[k]], want.size(), want) != 0) {
      return "csv row of cell " + std::to_string(row.task.index) +
             " differs from its scalar re-run";
    }
    json_at = json.find(json_row_text(row), json_at);
    if (json_at == std::string::npos) {
      return "json row of cell " + std::to_string(row.task.index) +
             " differs from its scalar re-run";
    }
  }
  return "";
}

void corrupt_row(std::string& csv, std::size_t position) {
  const std::size_t at = line_start(csv, position + 1);
  if (at == std::string::npos) {
    csv += '!';
    return;
  }
  // The last digit before ",ok," is the jitter column's.
  const std::size_t status = csv.find(",ok,", at);
  const std::size_t digit = status == std::string::npos ? at : status - 1;
  csv[digit] = csv[digit] == '0' ? '1' : '0';
}

}  // namespace perfbench
