#include "common/hash.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace bbrmodel {

std::uint64_t fnv1a64_bytes(const void* data, std::size_t size,
                            std::uint64_t seed) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kPrime;
  }
  return h;
}

std::uint64_t fnv1a64(const std::string& bytes, std::uint64_t seed) {
  return fnv1a64_bytes(bytes.data(), bytes.size(), seed);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void append_exact_number(std::string& out, double v) {
  // 17 significant digits are the fewest that round-trip every finite
  // double; non-finite values get stable spellings (to_chars would write
  // "-nan" for a negative NaN).
  if (std::isnan(v)) {
    out += "nan";
    return;
  }
  if (std::isinf(v)) {
    out += v > 0 ? "inf" : "-inf";
    return;
  }
  char buf[32];  // "-2.2250738585072014e-308" is the longest: 24 bytes
  const auto result = std::to_chars(buf, buf + sizeof buf, v,
                                    std::chars_format::general, 17);
  out.append(buf, result.ptr);
}

void append_exact_numbers(std::string& out,
                          const std::vector<double>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ' ';
    append_exact_number(out, values[i]);
  }
}

std::string exact_number(double v) {
  std::string out;
  append_exact_number(out, v);
  return out;
}

}  // namespace bbrmodel
