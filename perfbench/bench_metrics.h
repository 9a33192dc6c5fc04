// Metric arithmetic of the end-to-end benchmark: percentiles under the
// sample-count rule, medians, rates, profiler shares and the digest of the
// simulated outputs. Kept apart from the driver so `--self-test` can check
// it on fixed inputs before any workload runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/metrics.h"

namespace perfbench {

/// Nearest-rank percentile (q in (0, 1]) of `values`; throws on empty input.
double percentile(std::vector<double> values, double q);

/// Samples strictly above the nearest-rank q-percentile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// Sample-count rule: a percentile is reported only when at least ten
/// samples lie beyond it (p99 therefore needs n >= 1000).
constexpr std::size_t kMinSamplesBeyond = 10;
bool percentile_supported(std::size_t n, double q);

/// Percentile of window times measured over several whole runs: runs are
/// grouped in order into blocks of at least `min_block` samples (a short
/// tail joins the last block), the percentile is taken within each block,
/// and the median over blocks is returned. A burst of host noise during one
/// run then moves one block, not the result.
double blocked_percentile(const std::vector<std::vector<double>>& runs, double q,
                          std::size_t min_block);

/// Element-wise minimum of equally long repeats of one step sequence: the
/// fastest repeat of each step. Throws on no repeats or unequal lengths.
std::vector<double> fastest_repeat(const std::vector<std::vector<double>>& repeats);

/// Sum of `values` (0 for none).
double sum(const std::vector<double>& values);

/// Median (mean of the two middle values for even counts); throws on empty.
double median(std::vector<double> values);

/// count / seconds; throws unless seconds > 0.
double per_second(double count, double seconds);

/// part / whole; throws unless whole > 0 and 0 <= part.
double share(double part, double whole);

/// FNV-1a (64-bit) over raw bytes, continuing from `hash`.
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t hash = kFnvOffset);

/// Digest of every simulated RunMetrics field. Host-side fields
/// (wall_seconds) and the output-only monitor block (SLO alerts, drift
/// windows/MAPE/bias, spans traced) are excluded: the traced run turns those
/// monitors on, and its simulated outputs must still digest identically.
std::uint64_t digest(const cloudprov::RunMetrics& m);
std::string hex(std::uint64_t value);

/// Runs the checks of this file's arithmetic on fixed inputs. Returns the
/// failures (empty when all pass).
std::vector<std::string> self_test();

}  // namespace perfbench
