// Canonical byte serialization of experiment specs.
//
// The sweep engine's content-addressed cell cache memoizes finished
// (ExperimentSpec, seed) cells across figure benches and re-runs; its keys
// hash the bytes produced here. The encoding is therefore canonical: a
// fixed key=value line format covering every field that influences a
// simulation, with doubles rendered losslessly (common/hash exact_number),
// so that equal specs always serialize to equal bytes and any semantic
// difference — down to the last solver constant — changes them.
//
// The format also parses back (parse_canonical_spec), which keeps it
// honest: a field added to ExperimentSpec or FluidConfig without a codec
// update fails the round-trip test rather than silently aliasing distinct
// cells.
#pragma once

#include <string>
#include <string_view>

#include "scenario/scenario.h"

namespace bbrmodel::scenario {

/// Serialize every simulation-relevant field of `spec` (including the seed
/// and the full FluidConfig) into the canonical key=value byte form.
///
/// Precondition: spec_cacheable(spec) — custom bbr_init callbacks have no
/// byte representation.
std::string canonical_spec_string(const ExperimentSpec& spec);

/// Inverse of canonical_spec_string. Throws PreconditionError on unknown
/// keys, malformed lines, or missing fields.
ExperimentSpec parse_canonical_spec(std::string_view bytes);

/// The fixed-width hex "spec key" of a spec: FNV-1a 64 over its canonical
/// bytes. This is the content-address fragment shared by cache cell file
/// names, execution-plan listings, and merge diagnostics, so a cell can be
/// correlated across all three by eye.
std::string canonical_spec_hash(const ExperimentSpec& spec);

/// True if the spec can be addressed by content: false when a custom
/// bbr_init callback is set (a std::function cannot be serialized, so such
/// specs must never be cached).
bool spec_cacheable(const ExperimentSpec& spec);

}  // namespace bbrmodel::scenario
