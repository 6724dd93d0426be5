#include "common/parse.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <system_error>

#include "common/require.h"

namespace bbrmodel {

template <typename T>
std::optional<T> parse_number(std::string_view text) {
  // from_chars already refuses '+', whitespace and (in its decimal and
  // general grammars) hex, and reports overflow instead of wrapping;
  // only "did it consume everything" is left to check.
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

template std::optional<std::uint64_t> parse_number<std::uint64_t>(
    std::string_view);
template std::optional<int> parse_number<int>(std::string_view);
template std::optional<double> parse_number<double>(std::string_view);

std::optional<std::vector<double>> parse_number_list(std::string_view text) {
  std::vector<double> values;
  if (text.empty()) return values;
  while (true) {
    const auto space = text.find(' ');
    const auto v = parse_number<double>(text.substr(0, space));
    if (!v) return std::nullopt;
    values.push_back(*v);
    if (space == std::string_view::npos) return values;
    text.remove_prefix(space + 1);
  }
}

std::optional<std::uint64_t> try_parse_u64(std::string_view text) {
  return parse_number<std::uint64_t>(text);
}

std::uint64_t parse_u64(std::string_view text, const std::string& what) {
  const auto v = try_parse_u64(text);
  BBRM_REQUIRE_MSG(v.has_value(),
                   "bad " + what + ": '" + std::string(text) + "'");
  return *v;
}

std::optional<double> try_parse_double(const std::string& text) {
  // strtod skips leading whitespace; full-string semantics must not.
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return std::nullopt;
  }
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return std::nullopt;
  return v;
}

}  // namespace bbrmodel
