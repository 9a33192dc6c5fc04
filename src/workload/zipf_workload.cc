#include "workload/zipf_workload.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace cloudprov {

ZipfWorkload::ZipfWorkload(ZipfWorkloadConfig config)
    : config_(config),
      service_demand_(config.service_base, config.service_spread) {
  ensure_arg(config_.num_keys >= 1, "ZipfWorkload: need at least one key");
  ensure_arg(config_.num_keys <= std::numeric_limits<std::uint32_t>::max(),
             "ZipfWorkload: num_keys must fit in 32 bits");
  ensure_arg(config_.alpha >= 0.0, "ZipfWorkload: alpha must be >= 0");
  ensure_arg(config_.base_rate >= 0.0, "ZipfWorkload: base_rate must be >= 0");
  ensure_arg(config_.rate_interval > 0.0,
             "ZipfWorkload: rate_interval must be > 0");
  ensure_arg(config_.rate_noise_fraction >= 0.0,
             "ZipfWorkload: noise fraction must be >= 0");
  ensure_arg(config_.horizon > 0.0, "ZipfWorkload: horizon must be > 0");
  ensure_arg(config_.scale > 0.0, "ZipfWorkload: scale must be > 0");
  for (const auto& flash : config_.flash) {
    ensure_arg(flash.end >= flash.begin && flash.multiplier >= 0.0,
               "ZipfWorkload: malformed flash-crowd window");
  }
  shift_stride_ = config_.hot_shift_stride != 0 ? config_.hot_shift_stride
                                                : config_.num_keys / 3;

  // Precompute the popularity CDF once: P[rank <= r] ~ H(r) / H(num_keys).
  cdf_.resize(config_.num_keys);
  double harmonic = 0.0;
  for (std::uint64_t r = 1; r <= config_.num_keys; ++r) {
    harmonic += std::pow(static_cast<double>(r), -config_.alpha);
    cdf_[r - 1] = harmonic;
  }
  // Normalise, with the last entry pinned to 1.0 against rounding.
  const std::size_t last = cdf_.size() - 1;
  for (std::size_t i = 0; i < last; ++i) cdf_[i] /= harmonic;
  cdf_[last] = 1.0;
  // Cut the guide: every cut point j / kGuide at or below cdf_[i] that no
  // earlier entry reached points at i. cdf_[last] == 1.0 reaches them all.
  constexpr double kBucket = 1.0 / static_cast<double>(kGuide);  // exact
  guide_.resize(kGuide + 1);
  std::size_t cut = 0;
  for (std::size_t i = 0; i <= last && cut <= kGuide; ++i) {
    while (cut <= kGuide && static_cast<double>(cut) * kBucket <= cdf_[i]) {
      guide_[cut++] = static_cast<std::uint32_t>(i);
    }
  }
}

double ZipfWorkload::expected_rate(SimTime t) const {
  if (t < 0.0 || t >= config_.horizon) return 0.0;
  double rate = config_.base_rate * config_.scale;
  for (const auto& flash : config_.flash) {
    if (t >= flash.begin && t < flash.end) rate *= flash.multiplier;
  }
  return rate;
}

std::uint64_t ZipfWorkload::key_for_rank(std::uint64_t rank, SimTime t) const {
  std::uint64_t shifts = 0;
  for (SimTime at : config_.hot_shift_at) {
    if (t >= at) ++shifts;
  }
  // Divide only when a shift or an out-of-range rank needs it: a 64-bit
  // modulo costs more than the rest of the mapping, and ranks drawn from
  // the CDF are already in [1, num_keys].
  const std::uint64_t offset =
      shifts > 0 ? (shifts * shift_stride_) % config_.num_keys : 0;
  const std::uint64_t index = rank - 1 + offset;
  return (index < config_.num_keys ? index : index % config_.num_keys) + 1;
}

std::uint64_t ZipfWorkload::rank_for(double u) const {
  // u * kGuide is exact (kGuide is a power of two); the range is still
  // widened by one bucket on each side so it holds the lower_bound of the
  // full search whatever the rounding.
  const std::size_t bucket = std::min(
      static_cast<std::size_t>(u * static_cast<double>(kGuide)), kGuide - 1);
  const auto first = cdf_.begin() + guide_[bucket > 0 ? bucket - 1 : 0];
  const auto last = cdf_.begin() + guide_[std::min(bucket + 2, kGuide)];
  const auto it = std::lower_bound(first, last, u);
  return static_cast<std::uint64_t>(it - cdf_.begin()) + 1;
}

void ZipfWorkload::begin_interval(SimTime t, Rng& rng) {
  const double base = expected_rate(t);
  const double noisy =
      base * (1.0 + config_.rate_noise_fraction * rng.normal(0.0, 1.0));
  interval_rate_ = std::max(0.0, noisy);
  const double intervals_done = std::floor(t / config_.rate_interval);
  interval_end_ = (intervals_done + 1.0) * config_.rate_interval;
}

void ZipfWorkload::save_state(std::vector<double>& out) const {
  out.push_back(cursor_);
  out.push_back(interval_end_);
  out.push_back(interval_rate_);
}

void ZipfWorkload::load_state(const std::vector<double>& in) {
  ensure_arg(in.size() == 3, "ZipfWorkload::load_state: bad encoding");
  cursor_ = in[0];
  interval_end_ = in[1];
  interval_rate_ = in[2];
}

std::optional<Arrival> ZipfWorkload::next(Rng& rng) {
  if (interval_rate_ < 0.0) begin_interval(cursor_, rng);
  for (;;) {
    if (cursor_ >= config_.horizon) return std::nullopt;
    if (interval_rate_ <= 0.0) {
      cursor_ = interval_end_;
      begin_interval(cursor_, rng);
      continue;
    }
    const SimTime candidate = cursor_ + rng.exponential(interval_rate_);
    if (candidate >= interval_end_) {
      // Memoryless restart at the rate boundary, exactly like WebWorkload.
      cursor_ = interval_end_;
      begin_interval(cursor_, rng);
      continue;
    }
    cursor_ = candidate;
    if (cursor_ >= config_.horizon) return std::nullopt;
    // Fixed draw order after the arrival time: service demand, then key.
    Arrival arrival{cursor_, service_demand_.sample(rng)};
    arrival.key = key_for_rank(rank_for(rng.uniform()), cursor_);
    return arrival;
  }
}

}  // namespace cloudprov
