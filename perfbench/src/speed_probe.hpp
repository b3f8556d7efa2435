// A fixed CPU kernel that a repetition times between its phases, to
// measure how fast the host is running at that moment. The benchmark's
// host is a shared virtual machine whose speed drifts by tens of percent
// over minutes; the kernel's time drifts with it. In tuning runs of seed
// 1, scaling by the kernel's time cut the interquartile spread of the
// simulation rate over repetitions from 16% to 4% of the median on
// dv_chaos (10 repetitions), and from 16% to 14% on tree2k_static (8),
// whose larger working set the kernel tracks less well. The gated host
// metrics are scaled to the kernel's nominal time; the raw host times are
// reported beside them.
//
// The kernel is the benchmark's own code (a pointer chase over 8 MiB,
// hash-map finds over 4096 keys, small allocations), so a change to the
// simulator cannot change its speed. Its memory is resident for the
// whole process; the caller subtracts it from the peak RSS it reports.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

class SpeedProbe {
 public:
  /// The median time of one pass on the machine the benchmark was tuned
  /// on (4-vCPU Xeon KVM guest, gcc 12.2, RelWithDebInfo).
  static constexpr double kNominalMs = 17.0;

  SpeedProbe() {
    mhrp::util::Rng rng(42);
    next_.resize(kChase);
    for (std::uint32_t i = 0; i < kChase; ++i) next_[i] = i;
    for (std::uint32_t i = kChase - 1; i > 0; --i) {
      std::swap(next_[i], next_[rng.index(i + 1)]);
    }
    while (map_.size() < kKeys) {
      const auto key = static_cast<std::uint32_t>(rng.uniform(0, 0xFFFFFFFFu));
      if (map_.emplace(key, static_cast<std::uint32_t>(map_.size())).second) {
        keys_.push_back(key);
      }
    }
  }

  /// One timed pass, in milliseconds.
  double run_ms() {
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t sum = 0;
    std::uint32_t p = 0;
    for (int i = 0; i < 100000; ++i) {
      p = next_[p];
      sum += p;
    }
    for (std::uint32_t i = 0; i < 100000; ++i) {
      sum += map_.find(keys_[(i * 2654435761u) % kKeys])->second;
    }
    for (std::uint32_t i = 0; i < 10000; ++i) {
      auto block = std::make_unique<std::uint64_t[]>(8 + i % 64);
      block[0] = i;
      sum += block[0];
    }
    sink_ = sink_ + sum;
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  }

 private:
  static constexpr std::uint32_t kChase = 1u << 21;
  static constexpr std::uint32_t kKeys = 1u << 12;

  std::vector<std::uint32_t> next_;
  std::unordered_map<std::uint32_t, std::uint32_t> map_;
  std::vector<std::uint32_t> keys_;
  volatile std::uint64_t sink_ = 0;
};

}  // namespace perfbench
