#include "common/csv.h"

#include <cmath>
#include <sstream>

#include "common/json.h"
#include "common/require.h"

namespace bbrmodel {

CsvWriter::CsvWriter(std::ostream& out, const std::vector<std::string>& header)
    : out_(out), width_(header.size()) {
  BBRM_REQUIRE_MSG(!header.empty(), "CSV needs at least one column");
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i != 0) out_ << ',';
    out_ << csv_escape(header[i]);
  }
  out_ << '\n';
}

void CsvWriter::write_row(const std::vector<double>& values) {
  BBRM_REQUIRE(values.size() == width_);
  std::ostringstream os;
  os.precision(10);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) os << ',';
    os << values[i];
  }
  out_ << os.str() << '\n';
  ++rows_;
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  BBRM_REQUIRE(cells.size() == width_);
  // Build the line, then one stream write: emitters write thousands of
  // rows.
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) line += ',';
    line += csv_escape(cells[i]);
  }
  line += '\n';
  out_ << line;
  ++rows_;
}

std::string csv_number(double v) {
  // Same formatting as JSON numbers, so CSV and JSON serializations of one
  // result can never drift apart; CSV leaves non-finite cells empty.
  return std::isfinite(v) ? json_number(v) : "";
}

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace bbrmodel
