// The output check: a pass's CSV and JSON bytes against the library's
// scalar path.
//
// run.py compares the default seed's output digests with expected.json.
// For every seed, this check re-runs a sample of cells in process through
// the scalar run_one path of backend_runner(), outside the timed region,
// and requires their rows to match byte for byte; it also checks the CSV
// header, the row count and the JSON envelope.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "orchestrator/execution_plan.h"

namespace perfbench {

/// Plan positions the check re-runs: `count` evenly spaced cells with a
/// seed-dependent offset, ascending.
std::vector<std::size_t> check_positions(std::size_t cells, std::size_t count,
                                         std::uint64_t seed);

/// Empty when the outputs pass, else the first problem found. `failed` is
/// the failed-cell count the pass reported (it appears in the JSON).
std::string check_output(const bbrmodel::orchestrator::ExecutionPlan& plan,
                         const std::string& csv, const std::string& json,
                         std::size_t failed,
                         const std::vector<std::size_t>& positions);

/// Change one metric digit of the CSV row at plan position `position`
/// (the self-test's corrupted output).
void corrupt_row(std::string& csv, std::size_t position);

}  // namespace perfbench
