#include "calibrate.h"

#include <sys/mman.h>
#include <time.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

/// Entries of each thread's table: 2 MiB, about one core's L2, so the
/// loads below hit L2 and L3 and feel what other tenants do to them.
constexpr std::uint32_t kTableEntries = std::uint32_t{1} << 19;
constexpr long kFloatRounds = 32'000'000;
constexpr long kLoads = 6'000'000;

/// Anonymous memory mapped directly, so that the probe neither moves
/// malloc's thresholds nor leaves pages behind for the workload to reuse.
class Mapping {
 public:
  explicit Mapping(std::size_t bytes)
      : bytes_(bytes),
        data_(mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)) {
    if (data_ == MAP_FAILED) {
      throw std::runtime_error("host probe: mmap failed");
    }
  }
  ~Mapping() { munmap(data_, bytes_); }
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;

  void* data() const { return data_; }

 private:
  std::size_t bytes_;
  void* data_;
};

double thread_cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) +
         1e-9 * static_cast<double>(t.tv_nsec);
}

struct ThreadResult {
  double cpu_s = 0.0;
  double checksum = 0.0;  ///< keeps the kernel's work observable
};

/// The kernel once; returns the thread's CPU seconds for it.
double run_kernel(const std::uint32_t* next, double& checksum) {
  const double start = thread_cpu_s();
  // Eight independent multiply-add chains keep the floating-point units
  // busy, which a busy sibling hyperthread slows ...
  double acc[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (long i = 0; i < kFloatRounds; ++i) {
    for (double& a : acc) a = a * 1.0000001 + 1e-9;
  }
  // ... and one chain of dependent loads through a pseudo-random table
  // waits on the caches, which other tenants' working sets slow.
  std::uint32_t at = 0;
  for (long i = 0; i < kLoads; ++i) {
    at = next[at] ^ (static_cast<std::uint32_t>(i) & (kTableEntries - 1));
  }
  const double seconds = thread_cpu_s() - start;
  for (const double a : acc) checksum += a;
  checksum += at;
  return seconds;
}

/// One probe thread: the kernel once untimed, then once timed. A vCPU
/// that sat idle runs up to twice as slow for a few hundred milliseconds
/// after it wakes; the untimed run absorbs that.
void probe_thread(const std::uint32_t* next, ThreadResult& out) {
  run_kernel(next, out.checksum);
  out.cpu_s = run_kernel(next, out.checksum);
}

}  // namespace

std::vector<double> host_probe(std::size_t threads) {
  Mapping memory(threads * kTableEntries * sizeof(std::uint32_t));
  auto* tables = static_cast<std::uint32_t*>(memory.data());
  for (std::size_t i = 0; i < threads * kTableEntries; ++i) {
    tables[i] =
        static_cast<std::uint32_t>(i * 2654435761u) & (kTableEntries - 1);
  }
  std::vector<ThreadResult> results(threads);
  std::vector<std::thread> workers;
  try {
    for (std::size_t k = 0; k < threads; ++k) {
      workers.emplace_back(probe_thread, tables + k * kTableEntries,
                           std::ref(results[k]));
    }
  } catch (...) {
    for (std::thread& t : workers) t.join();
    throw;
  }
  for (std::thread& t : workers) t.join();

  std::vector<double> cpu_s;
  volatile double checksum = 0.0;  // the kernel's results stay observable
  for (const ThreadResult& r : results) {
    cpu_s.push_back(r.cpu_s);
    checksum = checksum + r.checksum;
  }
  return cpu_s;
}

}  // namespace perfbench
