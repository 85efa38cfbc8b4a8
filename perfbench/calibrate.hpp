// The host gauge: a fixed reference kernel, sharing no code with the
// library, timed between jobs to measure how fast the host runs right now.
//
// The benchmark runs on shared virtual machines whose speed drifts by a
// third or more within minutes while CPU time still equals wall time (the
// VM is not descheduled; its code just runs slower).  A pass's CPU seconds
// times kReferenceSeconds over the gauge's median time in that pass are
// "reference seconds": the pass's time on a host where the kernel takes
// kReferenceSeconds.  That cancels most of the drift, and a change to the
// library moves reference seconds by the same factor as raw seconds.
//
// The kernel has two halves of about equal time, because the workloads
// slow down in two ways.  The first sorts 16k random keys and inserts them
// into and probes a std::unordered_map: node allocation, hashing and
// sorting in cache, like the synthesis layers.  The second takes the same
// 12,000 steps along a random cycle through a 64 MiB array each time:
// scattered cache lines on as many pages, so cache and TLB misses, like
// the BDD engine's tables.  Their sum tracked the job times better than either
// half alone on three workloads of four (README.md, "Noise").
#pragma once

#include <algorithm>
#include <cstdint>
#include <ctime>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "util/common.hpp"

namespace perfbench {

/// CPU seconds of the whole process (every thread) so far.
inline double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

class HostGauge {
 public:
  /// The kernel's time on the reference host (the 4-vCPU VM of README.md
  /// when it is quiet).
  static constexpr double kReferenceSeconds = 0.006;
  /// Resident size of the gauge's cycle array, which peak RSS includes.
  static constexpr double kResidentMb = 64.0;

  /// Builds the cycle with Sattolo's algorithm: one random cycle through
  /// every slot, made in place so that the gauge never holds more than
  /// kResidentMb.
  HostGauge() : cycle_(kCycle) {
    std::iota(cycle_.begin(), cycle_.end(), 0u);
    mps::util::Rng rng(20261017);
    for (std::size_t i = kCycle - 1; i > 0; --i) std::swap(cycle_[i], cycle_[rng.below(i)]);
  }

  /// Sample the kernel after a job until the samples take kShare of the
  /// job's CPU time, and at least once.
  void follow(double job_seconds) {
    double spent = 0.0;
    do {
      spent += sample();
    } while (spent < kShare * job_seconds);
  }

  /// Ends a pass: the factor from its CPU seconds to reference seconds, and
  /// the median kernel time it is based on.  Starts the next pass.
  double end_pass() {
    last_median_ = median(samples_);
    samples_.clear();
    return kReferenceSeconds / last_median_;
  }
  double last_median() const { return last_median_; }

 private:
  static constexpr double kShare = 0.04;
  static constexpr std::size_t kCycle = std::size_t{1} << 24;  // 4-byte slots: 64 MiB
  static constexpr std::size_t kSteps = 12000;

  double sample() {
    const double t0 = process_cpu_seconds();
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    std::vector<std::uint64_t> keys(std::size_t{1} << 14);
    for (std::uint64_t& k : keys) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = x;
    }
    std::sort(keys.begin(), keys.end());
    std::unordered_map<std::uint64_t, std::uint32_t> index;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      index[keys[i] >> 20] = static_cast<std::uint32_t>(i);
    }
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto it = index.find(keys[(i * 7919) % keys.size()] >> 20);
      if (it != index.end()) acc += it->second;
    }
    std::uint32_t at = static_cast<std::uint32_t>(acc % kCycle);
    for (std::size_t i = 0; i < kSteps; ++i) at = cycle_[at];
    sink_ = sink_ + acc + at;
    const double seconds = process_cpu_seconds() - t0;
    samples_.push_back(seconds);
    return seconds;
  }

  std::vector<std::uint32_t> cycle_;
  std::vector<double> samples_;
  double last_median_ = 0.0;
  volatile std::uint64_t sink_ = 0;
};

}  // namespace perfbench
