// A scoped, per-thread wall-clock deadline that long simulation loops poll.
//
// A sweep attempt's budget cannot travel as an argument: a runner sees only
// its task. So the sweep arms a deadline on the attempt's own thread
// (ScopedDeadline), calls the runner inline, and the loops that do the work
// poll it: FluidSimulation::run every few steps, the packet EventQueue
// every few events. A poll past the deadline throws DeadlineExceeded. It
// reads the clock and never touches simulation state, so a run that ends
// within its budget is byte-identical to an unbounded one. With no
// deadline armed a poll is one thread-local load and a branch.
#pragma once

#include <chrono>
#include <stdexcept>

namespace bbrmodel {

/// Thrown by poll_deadline once the calling thread's deadline has passed.
class DeadlineExceeded : public std::runtime_error {
 public:
  DeadlineExceeded() : std::runtime_error("deadline exceeded") {}
};

namespace detail {

using DeadlineClock = std::chrono::steady_clock;

/// The calling thread's deadline; max() when none is armed.
inline thread_local DeadlineClock::time_point thread_deadline =
    DeadlineClock::time_point::max();

}  // namespace detail

/// Throw DeadlineExceeded if the calling thread's deadline has passed.
inline void poll_deadline() {
  const detail::DeadlineClock::time_point at = detail::thread_deadline;
  if (at != detail::DeadlineClock::time_point::max() &&
      detail::DeadlineClock::now() >= at) {
    throw DeadlineExceeded();
  }
}

/// Arms a deadline `budget_s` seconds from now on the constructing thread
/// and restores the previous one on destruction.
class ScopedDeadline {
 public:
  explicit ScopedDeadline(double budget_s)
      : previous_(detail::thread_deadline) {
    using Clock = detail::DeadlineClock;
    // Budgets beyond a century never expire; converting them would
    // overflow the clock's representation.
    constexpr double kForeverS = 100.0 * 365.25 * 86400.0;
    deadline_ = budget_s < kForeverS
                    ? Clock::now() +
                          std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(budget_s))
                    : Clock::time_point::max();
    detail::thread_deadline = deadline_;
  }
  ~ScopedDeadline() { detail::thread_deadline = previous_; }

  ScopedDeadline(const ScopedDeadline&) = delete;
  ScopedDeadline& operator=(const ScopedDeadline&) = delete;

  /// True once this scope's deadline has passed.
  bool expired() const {
    return detail::DeadlineClock::now() >= deadline_;
  }

 private:
  detail::DeadlineClock::time_point previous_;
  detail::DeadlineClock::time_point deadline_;
};

}  // namespace bbrmodel
