#include "bench_metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "profile/wall_profiler.h"

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("percentile: no samples");
  if (!(q > 0.0 && q <= 1.0)) {
    throw std::invalid_argument("percentile: q must be in (0, 1]");
  }
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

bool percentile_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinSamplesBeyond;
}

double blocked_percentile(const std::vector<std::vector<double>>& runs, double q,
                          std::size_t min_block) {
  std::vector<std::vector<double>> blocks;
  std::vector<double> block;
  for (const auto& run : runs) {
    block.insert(block.end(), run.begin(), run.end());
    if (block.size() >= min_block) {
      blocks.push_back(std::move(block));
      block.clear();
    }
  }
  if (!block.empty()) {
    if (blocks.empty()) {
      blocks.push_back(std::move(block));
    } else {
      blocks.back().insert(blocks.back().end(), block.begin(), block.end());
    }
  }
  if (blocks.empty()) throw std::invalid_argument("blocked_percentile: no samples");
  std::vector<double> per_block;
  for (auto& b : blocks) per_block.push_back(percentile(std::move(b), q));
  return median(per_block);
}

std::vector<double> fastest_repeat(const std::vector<std::vector<double>>& repeats) {
  if (repeats.empty()) throw std::invalid_argument("fastest_repeat: no repeats");
  std::vector<double> fastest = repeats.front();
  for (const auto& repeat : repeats) {
    if (repeat.size() != fastest.size()) {
      throw std::invalid_argument("fastest_repeat: repeats differ in length");
    }
    for (std::size_t i = 0; i < fastest.size(); ++i) {
      fastest[i] = std::min(fastest[i], repeat[i]);
    }
  }
  return fastest;
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median: no samples");
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double per_second(double count, double seconds) {
  if (!(seconds > 0.0)) throw std::invalid_argument("per_second: seconds <= 0");
  return count / seconds;
}

double share(double part, double whole) {
  if (!(whole > 0.0)) throw std::invalid_argument("share: whole <= 0");
  if (part < 0.0) throw std::invalid_argument("share: negative part");
  return part / whole;
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

namespace {

class Hasher {
 public:
  template <typename T>
  Hasher& operator<<(const T& value) {
    static_assert(std::is_arithmetic_v<T>);
    // Doubles hash by bit pattern: a speed-only change must leave every
    // simulated statistic bit-identical, not merely close.
    hash_ = fnv1a(&value, sizeof value, hash_);
    return *this;
  }
  Hasher& operator<<(const std::string& value) {
    hash_ = fnv1a(value.data(), value.size(), hash_);
    return *this << value.size();
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = kFnvOffset;
};

}  // namespace

std::uint64_t digest(const cloudprov::RunMetrics& m) {
  Hasher h;
  h << m.policy << m.seed;
  h << m.generated << m.accepted << m.rejected << m.completed
    << m.qos_violations;
  h << m.avg_response_time << m.std_response_time << m.p95_response_time
    << m.p99_response_time;
  h << m.min_instances << m.max_instances << m.avg_instances;
  h << m.vm_hours << m.busy_vm_hours << m.utilization << m.rejection_rate;
  h << m.instance_failures << m.vm_crashes << m.host_crashes
    << m.boot_failures << m.boot_timeouts << m.lost_requests
    << m.lost_to_vm_crashes << m.lost_to_host_crashes << m.availability
    << m.recoveries << m.mttr_mean << m.mttr_max << m.reconciler_heals
    << m.reconciler_retries << m.reconciler_aborts << m.final_instances;
  h << m.billed_cost << m.on_demand_cost << m.spot_cost << m.reserved_cost
    << m.on_demand_purchases << m.spot_purchases << m.reserved_purchases
    << m.spot_revocations << m.revocation_kills << m.lost_to_revocations
    << m.spot_price_mean << m.spot_price_max;
  h << m.client_requests << m.client_succeeded << m.client_failed
    << m.client_attempts << m.client_retries << m.retry_budget_denied
    << m.client_timeouts << m.wasted_completions << m.breaker_opens
    << m.breaker_half_opens << m.breaker_closes << m.breaker_fast_fails
    << m.shed_deadline << m.shed_brownout;
  h << m.capacity_clips << m.capacity_denied;
  h << m.cache_hits << m.cache_misses << m.cache_hit_ratio << m.cache_fills
    << m.cache_evictions << m.cache_expirations << m.cache_invalidations
    << m.cache_flushes << m.cache_vm_hours << m.cache_utilization
    << m.cache_avg_instances << m.cache_final_instances << m.lambda_miss_mean
    << m.cache_avg_response_time << m.backend_avg_response_time;
  h << m.simulated_events;
  return h.value();
}

std::string hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::vector<std::string> self_test() {
  std::vector<std::string> failures;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  const auto throws = [](auto&& f) {
    try {
      f();
    } catch (const std::invalid_argument&) {
      return true;
    }
    return false;
  };

  // Percentiles: nearest rank on 1..100 and the ten-beyond sample rule.
  std::vector<double> ramp;
  for (int i = 100; i >= 1; --i) ramp.push_back(i);
  expect(percentile(ramp, 0.5) == 50.0, "p50 of 1..100 is 50");
  expect(percentile(ramp, 0.99) == 99.0, "p99 of 1..100 is 99");
  expect(percentile(ramp, 1.0) == 100.0, "p100 of 1..100 is 100");
  expect(percentile({7.0}, 0.99) == 7.0, "percentile of one sample");
  expect(throws([] { percentile({}, 0.5); }), "percentile rejects no samples");
  expect(throws([&] { percentile(ramp, 0.0); }), "percentile rejects q = 0");
  expect(samples_beyond(100, 0.99) == 1, "1 sample beyond p99 of 100");
  expect(samples_beyond(1000, 0.99) == 10, "10 samples beyond p99 of 1000");
  expect(percentile_supported(1000, 0.99), "p99 supported at n = 1000");
  expect(!percentile_supported(999, 0.99), "p99 unsupported at n = 999");
  expect(percentile_supported(21, 0.5), "p50 supported at n = 21");
  expect(!percentile_supported(19, 0.5), "p50 unsupported at n = 19");
  {
    // Three runs of 600 samples in blocks of >= 1000: runs 1+2 form one
    // block, run 3 is a short tail that joins it; a noisy run moves one
    // block of several.
    std::vector<std::vector<double>> runs(3);
    for (int i = 1; i <= 600; ++i) {
      for (auto& run : runs) run.push_back(i);
    }
    expect(blocked_percentile(runs, 0.5, 1000) == 300.0, "blocked p50, one block");
    std::vector<std::vector<double>> quiet(3, std::vector<double>(1000, 1.0));
    quiet[1].assign(1000, 50.0);
    expect(blocked_percentile(quiet, 0.99, 1000) == 1.0,
           "blocked p99 ignores one noisy block of three");
  }
  // Fastest repeat: per-step minimum, so one slow repeat of a step (a burst
  // of host noise) does not move it, while a step slower in every repeat
  // does.
  expect(fastest_repeat({{3.0, 1.0, 5.0}, {2.0, 9.0, 5.0}, {4.0, 1.5, 6.0}}) ==
             std::vector<double>({2.0, 1.0, 5.0}),
         "fastest repeat is the per-step minimum");
  expect(sum(fastest_repeat({{1.0, 2.0}, {1.0, 40.0}, {1.0, 2.0}})) == 3.0,
         "fastest repeat ignores one slow step");
  expect(throws([] { fastest_repeat({}); }), "fastest repeat rejects no repeats");
  expect(throws([] { fastest_repeat({{1.0}, {1.0, 2.0}}); }),
         "fastest repeat rejects repeats of unequal length");
  expect(sum({}) == 0.0 && sum({0.5, 0.25}) == 0.75, "sum arithmetic");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of odd count");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of even count");

  // Rates and shares.
  expect(per_second(10.0, 4.0) == 2.5, "rate arithmetic");
  expect(throws([] { per_second(1.0, 0.0); }), "rate rejects zero seconds");
  expect(share(1.0, 4.0) == 0.25, "share arithmetic");
  expect(throws([] { share(1.0, 0.0); }), "share rejects zero whole");
  expect(throws([] { share(-1.0, 1.0); }), "share rejects negative part");

  // Profiler self times are exclusive, so their shares of the enclosing
  // wall interval sum to at most 1 even with nested scopes.
  {
    using Clock = std::chrono::steady_clock;
    const auto spin = [](double seconds) {
      const auto until = Clock::now() + std::chrono::duration<double>(seconds);
      while (Clock::now() < until) {
      }
    };
    cloudprov::WallProfiler profiler;
    const auto start = Clock::now();
    {
      cloudprov::ProfileScope outer(&profiler,
                                    cloudprov::ProfileCategory::kEngineRun);
      spin(0.002);
      {
        cloudprov::ProfileScope inner(
            &profiler, cloudprov::ProfileCategory::kPolicyDecision);
        spin(0.002);
      }
    }
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    double sum = 0.0;
    for (const auto& stat : profiler.totals()) sum += share(stat.self_seconds, wall);
    expect(sum <= 1.0, "profiler shares sum to <= 1");
    expect(sum > 0.5, "profiler shares cover the timed scopes");
  }

  // Digest: pinned value, sensitive to simulated fields, blind to host-side
  // and monitor fields.
  cloudprov::RunMetrics m;
  m.policy = "Adaptive";
  m.seed = 7;
  m.generated = 1000;
  m.accepted = 990;
  m.rejected = 10;
  m.avg_response_time = 0.125;
  const std::uint64_t base = digest(m);
  expect(base == digest(m), "digest is stable");
  // Pinned: a change to the digest makes earlier records incomparable.
  expect(hex(base) == "e0283141ffffb594", "digest of the fixed record is pinned");
  cloudprov::RunMetrics changed = m;
  changed.avg_response_time = std::nextafter(0.125, 1.0);
  expect(digest(changed) != base, "digest sees a one-ulp change");
  changed = m;
  changed.simulated_events = 1;
  expect(digest(changed) != base, "digest sees the event count");
  changed = m;
  changed.wall_seconds = 3.0;
  changed.drift_response_mape = 12.0;
  changed.drift_windows = 5;
  changed.slo_response_alerts = 1;
  changed.spans_traced = 9;
  expect(digest(changed) == base, "digest ignores host time and monitors");
  expect(fnv1a("a", 1) == 0xaf63dc4c8601ec8cULL, "FNV-1a test vector");
  return failures;
}

}  // namespace perfbench
