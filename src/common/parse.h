// One number reader for every stored format and every integer field.
//
// Task indices, plan fields, manifest sizes, merge row keys, spec codec
// fields and cache cells all parse numbers out of text. The edge handling
// (empty input, trailing bytes, overflow, signs, whitespace) is easy to
// get subtly inconsistent when reimplemented per call site — these
// helpers are the single spelling, built on std::from_chars.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bbrmodel {

/// The exact reader of the stored codecs (spec bytes, plan files, cache
/// cells, result logs): the whole of `text` must be one std::from_chars
/// number of type T — the grammar the encoders (std::to_string,
/// exact_number) write and nothing else. A '-' is accepted on signed and
/// floating types only; a '+', whitespace, a hex prefix, trailing bytes
/// or an out-of-range value read as nullopt. Doubles also read "nan",
/// "inf" and "-inf". Instantiated for std::uint64_t, int and double.
template <typename T>
std::optional<T> parse_number(std::string_view text);

/// A space-separated list of parse_number<double> values, as
/// append_exact_numbers (common/hash.h) writes it: one ' ' between
/// numbers, "" for an empty list. nullopt on any bad token, an empty one
/// (a doubled, leading or trailing space) included.
std::optional<std::vector<double>> parse_number_list(std::string_view text);

/// Parse a full string as a base-10 unsigned 64-bit integer
/// (parse_number<std::uint64_t>): nullopt on empty input, any non-digit
/// byte (a leading '-' or '+' included), trailing characters, or overflow.
std::optional<std::uint64_t> try_parse_u64(std::string_view text);

/// Throwing variant: PreconditionError naming `what` on any failure.
std::uint64_t parse_u64(std::string_view text, const std::string& what);

/// Parse a full string as a floating-point number typed by a person (CLI
/// values, the queue's lease file): strtod grammar — signs, exponents,
/// inf/nan — but the whole string must convert. nullopt on empty input,
/// leading whitespace, or trailing characters.
std::optional<double> try_parse_double(const std::string& text);

}  // namespace bbrmodel
