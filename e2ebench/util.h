// Small helpers shared by the benchmark's translation units: wall and CPU
// clocks, order statistics, and the counting allocator's read-out.
#ifndef DATATRIAGE_E2EBENCH_UTIL_H_
#define DATATRIAGE_E2EBENCH_UTIL_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double ToSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

/// getrusage snapshot: user/sys CPU seconds and minor faults, for the
/// whole process (RUSAGE_SELF) or the calling thread (RUSAGE_THREAD).
struct CpuSample {
  double user_s = 0.0;
  double sys_s = 0.0;
  int64_t minor_faults = 0;

  static CpuSample Take(int who) {
    rusage usage{};
    getrusage(who, &usage);
    return {ToSeconds(usage.ru_utime), ToSeconds(usage.ru_stime),
            static_cast<int64_t>(usage.ru_minflt)};
  }
  double total_s() const { return user_s + sys_s; }
};

/// Quantile `q` in [0, 1] by linear interpolation between order
/// statistics; 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Heap allocations made so far by the calling thread (counted by the
/// benchmark binary's replacement operator new, alloc_count.cc).
uint64_t ThreadAllocationCount();

}  // namespace e2ebench

#endif  // DATATRIAGE_E2EBENCH_UTIL_H_
