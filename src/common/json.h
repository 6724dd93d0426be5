// Minimal streaming JSON emission, the machine-readable sibling of
// common/csv.
//
// Sweep results and perf benches dump JSON summaries next to their CSV
// tables; this writer covers exactly what they need (objects, arrays,
// string/number/bool fields) with deterministic, locale-independent number
// formatting so identical results serialize to identical bytes.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace bbrmodel {

/// Escape a string for inclusion in a JSON document (adds the quotes).
std::string json_quote(const std::string& s);

/// Streams nested JSON with two-space indentation. Usage:
///
///   JsonWriter j(out);
///   j.begin_object();
///   j.key("tasks").value(42.0);
///   j.key("rows").begin_array(); ... j.end_array();
///   j.end_object();
///
/// The writer validates pairing (every begin has a matching end, keys only
/// inside objects) via BBRM_REQUIRE.
class JsonWriter {
 public:
  /// The stream must outlive the writer.
  explicit JsonWriter(std::ostream& out);

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emit an object key; the next call must produce its value.
  JsonWriter& key(const std::string& name);

  JsonWriter& value(double v);  ///< non-finite values serialize as null
  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(bool v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);

  /// True once the root value is complete (all scopes closed).
  bool complete() const;

 private:
  enum class Scope { kObject, kArray };
  void pre_value();  ///< comma/indent bookkeeping before any value token
  void newline_indent();

  std::ostream& out_;
  std::vector<Scope> scopes_;
  std::vector<bool> first_in_scope_;
  bool root_written_ = false;
  bool key_pending_ = false;
};

/// Deterministic short representation of a double: the bytes of printf's
/// "%.10g" in the C locale, produced by std::to_chars, with non-finite
/// values mapped to null. Shared by the CSV and JSON emitters.
std::string json_number(double v);

}  // namespace bbrmodel
