// Minimal CSV emission for exporting traces and sweep results.
//
// Examples and benches can dump machine-readable series next to the printed
// tables so that downstream users can re-plot the paper's figures.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace bbrmodel {

/// Streams rows of doubles (plus a header) in RFC-4180-enough CSV.
class CsvWriter {
 public:
  /// Writes the header immediately. The stream must outlive the writer.
  CsvWriter(std::ostream& out, const std::vector<std::string>& header);

  /// Write one row; must match the header width.
  void write_row(const std::vector<double>& values);

  /// Write one row of preformatted cells; must match the header width.
  void write_row(const std::vector<std::string>& cells);

  std::size_t rows_written() const { return rows_; }

 private:
  std::ostream& out_;
  std::size_t width_;
  std::size_t rows_ = 0;
};

/// Quote a CSV field if needed (commas, quotes, newlines).
std::string csv_escape(const std::string& field);

/// Deterministic, locale-independent numeric cell: json_number's bytes
/// (printf's "%.10g", produced by std::to_chars), with non-finite values
/// as empty cells. Mixed string/number rows format their numbers through
/// this so identical results serialize to identical bytes regardless of
/// thread count or platform locale.
std::string csv_number(double v);

}  // namespace bbrmodel
