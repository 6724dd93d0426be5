#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/require.h"

namespace bbrmodel {

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof buf, v,
                                    std::chars_format::general, 10);
  return std::string(buf, result.ptr);
}

JsonWriter::JsonWriter(std::ostream& out) : out_(out) {}

void JsonWriter::newline_indent() {
  // One stream write per line break: emitters write thousands of rows.
  std::string line = "\n";
  line.append(2 * scopes_.size(), ' ');
  out_ << line;
}

void JsonWriter::pre_value() {
  if (scopes_.empty()) {
    BBRM_REQUIRE_MSG(!root_written_, "JSON documents hold one root value");
    root_written_ = true;
    return;
  }
  if (scopes_.back() == Scope::kObject) {
    BBRM_REQUIRE_MSG(key_pending_, "object values need a key() first");
    key_pending_ = false;
    return;  // key() already emitted the separator and indentation
  }
  if (!first_in_scope_.back()) out_ << ',';
  first_in_scope_.back() = false;
  newline_indent();
}

JsonWriter& JsonWriter::key(const std::string& name) {
  BBRM_REQUIRE_MSG(!scopes_.empty() && scopes_.back() == Scope::kObject,
                   "key() is only valid inside an object");
  BBRM_REQUIRE_MSG(!key_pending_, "key() already pending a value");
  if (!first_in_scope_.back()) out_ << ',';
  first_in_scope_.back() = false;
  newline_indent();
  out_ << json_quote(name) << ": ";
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_object() {
  pre_value();
  out_ << '{';
  scopes_.push_back(Scope::kObject);
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  BBRM_REQUIRE_MSG(!scopes_.empty() && scopes_.back() == Scope::kObject,
                   "unbalanced end_object()");
  BBRM_REQUIRE_MSG(!key_pending_, "dangling key at end_object()");
  const bool empty = first_in_scope_.back();
  scopes_.pop_back();
  first_in_scope_.pop_back();
  if (!empty) newline_indent();
  out_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  pre_value();
  out_ << '[';
  scopes_.push_back(Scope::kArray);
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  BBRM_REQUIRE_MSG(!scopes_.empty() && scopes_.back() == Scope::kArray,
                   "unbalanced end_array()");
  const bool empty = first_in_scope_.back();
  scopes_.pop_back();
  first_in_scope_.pop_back();
  if (!empty) newline_indent();
  out_ << ']';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  pre_value();
  out_ << json_number(v);
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  pre_value();
  out_ << json_quote(v);
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) { return value(std::string(v)); }

JsonWriter& JsonWriter::value(bool v) {
  pre_value();
  out_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  pre_value();
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  pre_value();
  out_ << v;
  return *this;
}

bool JsonWriter::complete() const { return root_written_ && scopes_.empty(); }

}  // namespace bbrmodel
