// Stable byte hashing and exact number rendering for content-addressed
// stores.
//
// The sweep engine's CellCache addresses finished experiment cells by a
// hash of their canonical spec bytes (scenario/spec_codec). Cache files
// must mean the same thing across processes, machines, and rebuilds, so
// the hash is a fixed published function (FNV-1a 64) rather than
// std::hash, whose value is implementation-defined and may change between
// libstdc++ versions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bbrmodel {

/// FNV-1a 64-bit offset basis (the hash of the empty string).
constexpr std::uint64_t kFnv1a64Offset = 14695981039346656037ULL;

/// Hash `size` raw bytes with FNV-1a 64. Pass a previous result as `seed`
/// to chain incremental updates. (Distinctly named — an fnv1a64 overload
/// would let a string literal silently bind (const void*, seed-as-size).)
std::uint64_t fnv1a64_bytes(const void* data, std::size_t size,
                            std::uint64_t seed = kFnv1a64Offset);

/// FNV-1a 64 of a string's bytes.
std::uint64_t fnv1a64(const std::string& bytes,
                      std::uint64_t seed = kFnv1a64Offset);

/// Fixed-width lowercase hex of a 64-bit value ("00ff00ff00ff00ff").
std::string hex64(std::uint64_t v);

/// Lossless text rendering of a double: the bytes of printf's "%.17g" in
/// the C locale, produced by std::to_chars (which the standard defines as
/// that format), so parse_number<double> or strtod of the result recovers
/// the exact bit pattern. Non-finite values are spelled "nan", "inf" and
/// "-inf". Used wherever serialized bytes feed a hash or must round-trip
/// exactly (spec codec, cache cells) — unlike csv_number/json_number,
/// which trade precision for short output.
std::string exact_number(double v);

/// exact_number(v) appended to `out`: encoders build whole documents
/// without a temporary string per number.
void append_exact_number(std::string& out, double v);

/// The exact numbers of `values` appended to `out`, separated by one ' '
/// (nothing for an empty vector); parse_number_list (common/parse.h)
/// reads them back.
void append_exact_numbers(std::string& out, const std::vector<double>& values);

}  // namespace bbrmodel
