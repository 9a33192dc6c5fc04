// Ablation AB14: multi-tier applications — cache + backend tiers under
// Zipf traffic with per-tier autoscaling (src/apptier).
//
// The same Zipf(alpha) key-value workload is served two ways:
//
//   single-tier  the paper's Algorithm 1 sizes ONE backend pool for the
//                total arrival rate lambda (every request pays a full
//                backend service demand);
//   tiered       a look-aside cache tier absorbs the hot head of the key
//                popularity, the TieredProvisioner runs Algorithm 1 per
//                tier, and the backend is sized for the miss flow
//                lambda_miss = lambda * (1 - h) from the cache tier's live
//                hit ratio.
//
// Four sections:
//
//   sizing      single-tier vs tiered on identically-seeded workloads:
//               equal-or-better SLO with fewer backend VM-hours is the
//               headline claim. A third row, static tiers, fixes both pools
//               at their peak (backend at the single-tier peak, the load it
//               carries whenever the cache is cold; cache at the adaptive
//               cache pool), the comparison of per-tier Algorithm 1 against
//               peak-sized static per-tier pools.
//   curve       per-tier latency vs throughput: each tier's measured mean
//               response against its own offered load as lambda grows.
//   warmup      a seeded cache-VM crash mid-run: the modulo slot remap
//               invalidates resident entries and the per-window hit-ratio
//               series shows the dip-and-recover transient.
//   TTL storm   a full directory flush mid-run: the backend eats the whole
//               lambda until refills rebuild the working set.
//
// --smoke (CI): short horizon; asserts (1) a run with apptier fields
// touched but enabled=false is bit-identical to the untouched baseline,
// (2) the tiered backend spends fewer VM-hours than the single-tier pool at
// equal QoS, (3) adaptive tiers spend fewer total (backend + cache)
// VM-hours than static tiers with no more QoS violations, (4) the crash
// transient invalidates and recovers, (5) the TTL storm flushes and
// recovers. Exits non-zero on violation.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "experiment/report.h"
#include "experiment/runner.h"
#include "util/cli.h"

using namespace cloudprov;

namespace {

/// Bit-level equality on every RunMetrics field, and no cache activity: any
/// drift means the disabled apptier config leaked into the simulation.
bool runs_identical(const RunMetrics& a, const RunMetrics& b,
                    std::string& why) {
  if (const auto difference = first_metric_difference(a, b)) {
    why = *difference;
    return false;
  }
  if (a.cache_hits != 0) {
    why = "cache_hits != 0";
    return false;
  }
  return true;
}

ScenarioConfig tiered_config(double scale, double ttl = 300.0) {
  ScenarioConfig config = zipf_scenario(scale);
  config.apptier.enabled = true;
  config.apptier.ttl = ttl;
  return config;
}

using WindowSample = ApptierState::WindowSample;

/// Mean of one window-sample field (the hit ratio unless named) over
/// samples with begin <= t < end.
double window_mean(const std::vector<WindowSample>& series, SimTime begin,
                   SimTime end,
                   double WindowSample::*field = &WindowSample::hit_ratio) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& sample : series) {
    if (sample.t < begin || sample.t >= end) continue;
    sum += sample.*field;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "Ablation: cache + backend tiers under Zipf traffic with per-tier "
      "autoscaling, vs a single-tier pool sized for the total rate.");
  args.add_flag("scale", "0.02", "workload scale of the sizing section",
                "<double>");
  args.add_flag("hours", "24", "simulated hours", "<int>");
  args.add_flag("seed", "42", "base random seed", "<int>");
  args.add_flag("smoke", "false",
                "CI smoke mode: short horizon, assert tiers-off bit-identity, "
                "backend VM-hour savings at equal QoS, total VM-hour savings "
                "against static tiers, and both transients; exit non-zero on "
                "violation");
  if (!args.parse(argc, argv)) return 0;
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const bool smoke = args.get_bool("smoke");
  const double scale = args.get_double("scale");
  const SimTime horizon =
      smoke ? 4.0 * 3600.0 : static_cast<double>(args.get_int("hours")) * 3600.0;
  const PolicySpec adaptive = PolicySpec::adaptive(PredictorKind::kProfile);
  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "SMOKE FAIL: " << what << '\n';
      ++failures;
    }
  };

  std::cout << "=== Ablation: multi-tier cache + backend vs single tier "
               "(Zipf key-value traffic) ===\n\n";

  // --- Section 0 (smoke only): disabled apptier config must be inert ------
  if (smoke) {
    ScenarioConfig plain = zipf_scenario(scale);
    plain.horizon = plain.zipf.horizon = horizon;
    ScenarioConfig touched = plain;
    touched.apptier.ttl = 5.0;               // enabled stays false:
    touched.apptier.cache_vms = 64;          // none of this may matter
    touched.apptier.cache_capacity_per_vm = 1;
    const RunMetrics a = run_scenario(plain, adaptive, seed).metrics;
    const RunMetrics b = run_scenario(touched, adaptive, seed).metrics;
    std::string why;
    const bool identical = runs_identical(a, b, why);
    check(identical, "tiers-off runs must be bit-identical (" + why + ")");
    std::cout << "tiers-off bit-identity: "
              << (identical ? "ok" : "FAILED (" + why + ")") << "\n\n";
  }

  // --- Section 1: equal-QoS sizing, single-tier vs tiered -----------------
  std::cout << "--- sizing: single-tier (total lambda) vs tiered "
               "(lambda_miss) vs static tiers ---\n";
  TextTable sizing({"config", "hit_ratio", "backend_vmh", "cache_vmh",
                    "avg_resp", "p99_resp", "rejection", "violations",
                    "lambda_miss"});
  const auto sizing_run = [&](const std::string& label, ScenarioConfig config,
                             const PolicySpec& policy) {
    config.horizon = config.zipf.horizon = horizon;
    const RunMetrics m = run_scenario(config, policy, seed).metrics;
    sizing.add_row({label, fmt(m.cache_hit_ratio, 3), fmt(m.vm_hours, 1),
                    fmt(m.cache_vm_hours, 1), fmt(m.avg_response_time, 4),
                    fmt(m.p99_response_time, 4), fmt(m.rejection_rate, 4),
                    std::to_string(m.qos_violations),
                    fmt(m.lambda_miss_mean, 2)});
    return m;
  };
  const RunMetrics single =
      sizing_run("single-tier", zipf_scenario(scale), adaptive);
  const RunMetrics tiered =
      sizing_run("tiered", tiered_config(scale), adaptive);
  // Static tiers: pool sizes fixed for the whole run. The backend holds the
  // single-tier peak (a cold cache at start, after a crash or a TTL storm
  // sends it the full lambda); the cache holds the adaptive cache pool.
  ScenarioConfig static_config = tiered_config(scale);
  const auto backend_vms =
      static_cast<std::size_t>(std::ceil(single.max_instances));
  static_config.apptier.cache_vms =
      static_cast<std::size_t>(std::ceil(tiered.cache_avg_instances));
  const RunMetrics fixed = sizing_run(
      "static-tiers " + std::to_string(backend_vms) + "+" +
          std::to_string(static_config.apptier.cache_vms),
      static_config,
      PolicySpec::fixed(static_cast<std::size_t>(
          std::round(static_cast<double>(backend_vms) / scale))));
  sizing.print(std::cout);
  const ScenarioConfig reference = zipf_scenario(scale);
  const double tiered_total = tiered.vm_hours + tiered.cache_vm_hours;
  const double fixed_total = fixed.vm_hours + fixed.cache_vm_hours;
  std::cout << "\nReading: the cache absorbs the Zipf hot head, so the tiered\n"
               "backend plans for lambda_miss = lambda * (1 - h) and spends\n"
            << fmt(single.vm_hours - tiered.vm_hours, 1)
            << " fewer backend VM-hours while the end-to-end response mixes\n"
               "fast hits with full-demand misses.\n"
               "Against static tiers, adaptive tiers spend "
            << fmt(tiered_total, 1) << " vs " << fmt(fixed_total, 1)
            << " backend + cache\nVM-hours with " << tiered.qos_violations
            << " vs " << fixed.qos_violations << " QoS violations, but reject "
            << fmt(tiered.rejection_rate, 4) << " vs "
            << fmt(fixed.rejection_rate, 4)
            << " of requests:\nthe static backend's peak headroom buys the "
               "lower rejection rate.\n\n";
  if (smoke) {
    check(tiered.vm_hours < single.vm_hours,
          "tiered backend must spend fewer VM-hours than single-tier");
    check(tiered.avg_response_time <= reference.qos.max_response_time,
          "tiered run must meet the response-time QoS target");
    check(single.avg_response_time <= reference.qos.max_response_time,
          "single-tier run must meet the response-time QoS target");
    check(tiered.rejection_rate <=
              single.rejection_rate + reference.qos.max_rejection_rate + 0.02,
          "tiered rejection must stay comparable to single-tier");
    check(tiered.cache_hit_ratio > 0.3,
          "Zipf hot head should produce a substantial hit ratio");
    check(tiered_total < fixed_total,
          "adaptive tiers must spend fewer total VM-hours than static tiers");
    check(tiered.qos_violations <= fixed.qos_violations,
          "adaptive tiers must have no more QoS violations than static tiers");
  }

  // --- Section 2: per-tier latency vs throughput --------------------------
  std::cout << "--- per-tier latency vs throughput (tiered, scale sweep) "
               "---\n";
  TextTable curve({"scale", "lambda", "hit_ratio", "lambda_cache",
                   "lambda_miss", "cache_resp", "backend_resp", "e2e_resp",
                   "tandem_e2e", "cache_vms", "backend_vms"});
  const std::vector<double> sweep_scales =
      smoke ? std::vector<double>{0.01, 0.02}
            : std::vector<double>{0.005, 0.01, 0.02, 0.04, 0.08};
  for (const double s : sweep_scales) {
    ScenarioConfig config = tiered_config(s);
    config.horizon = config.zipf.horizon = horizon;
    const RunOutput output = run_scenario(config, adaptive, seed);
    const RunMetrics& m = output.metrics;
    const double lambda = s * config.zipf.base_rate;
    const double tandem_e2e =
        window_mean(output.apptier_series, 0.0, horizon,
                    &WindowSample::predicted_response);
    curve.add_row({fmt(s, 3), fmt(lambda, 1), fmt(m.cache_hit_ratio, 3),
                   fmt(lambda * m.cache_hit_ratio, 1),
                   fmt(m.lambda_miss_mean, 1),
                   fmt(m.cache_avg_response_time, 4),
                   fmt(m.backend_avg_response_time, 4),
                   fmt(m.avg_response_time, 4), fmt(tandem_e2e, 4),
                   fmt(m.cache_avg_instances, 1), fmt(m.avg_instances, 1)});
  }
  curve.print(std::cout);
  std::cout << "\nReading: each tier rides its own latency-throughput curve —\n"
               "cache hits stay an order of magnitude faster than backend\n"
               "misses at every load, and both pools grow with their OWN\n"
               "offered flow (lambda*h vs lambda*(1-h)), not the total.\n"
               "tandem_e2e is the tiered provisioner's queueing::solve_tandem\n"
               "prediction of the end-to-end response (mean over planning\n"
               "windows), next to the simulated e2e_resp.\n\n";

  // --- Section 3: cache-warmup transient after a seeded cache-VM crash ----
  std::cout << "--- warmup transient: cache-VM crash at t=" << horizon / 2.0
            << " s ---\n";
  ScenarioConfig crash_config = tiered_config(scale);
  crash_config.horizon = crash_config.zipf.horizon = horizon;
  const SimTime crash_at = horizon / 2.0;
  crash_config.apptier.cache_crash_at = {crash_at};
  RunOutput crash_run = run_scenario(crash_config, adaptive, seed);
  const RunMetrics& cm = crash_run.metrics;
  const double before_crash =
      window_mean(crash_run.apptier_series, 0.25 * horizon, crash_at);
  const double after_crash = window_mean(
      crash_run.apptier_series, crash_at, crash_at + 0.1 * horizon);
  const double recovered =
      window_mean(crash_run.apptier_series, 0.9 * horizon, horizon);
  std::cout << "invalidations " << cm.cache_invalidations
            << "; window hit ratio " << fmt(before_crash, 3)
            << " before -> " << fmt(after_crash, 3) << " after crash -> "
            << fmt(recovered, 3) << " by the horizon\n\n";
  if (smoke) {
    check(cm.cache_invalidations > 0,
          "cache-VM crash must invalidate resident entries via slot remap");
    check(recovered > after_crash,
          "hit ratio must recover after the crash transient");
  }

  // --- Section 4: TTL storm (full directory flush) ------------------------
  std::cout << "--- TTL storm: directory flush at t=" << horizon / 2.0
            << " s ---\n";
  ScenarioConfig storm_config = tiered_config(scale);
  storm_config.horizon = storm_config.zipf.horizon = horizon;
  const SimTime flush_at = horizon / 2.0;
  storm_config.apptier.flush_at = {flush_at};
  RunOutput storm_run = run_scenario(storm_config, adaptive, seed);
  const RunMetrics& sm = storm_run.metrics;
  const double before_storm =
      window_mean(storm_run.apptier_series, 0.25 * horizon, flush_at);
  const double after_storm = window_mean(
      storm_run.apptier_series, flush_at, flush_at + 0.05 * horizon);
  const double storm_recovered =
      window_mean(storm_run.apptier_series, 0.9 * horizon, horizon);
  std::cout << "flushes " << sm.cache_flushes << "; window hit ratio "
            << fmt(before_storm, 3) << " before -> " << fmt(after_storm, 3)
            << " right after the flush -> " << fmt(storm_recovered, 3)
            << " by the horizon\n";
  std::cout << "\nReading: the storm sends the full lambda to the backend\n"
               "until refills rebuild the working set; the next planning\n"
               "windows see the hit-ratio collapse through lambda_miss and\n"
               "re-grow the backend, then shrink it again as the cache\n"
               "re-warms.\n";
  if (smoke) {
    check(sm.cache_flushes == 1, "exactly one flush event must fire");
    check(after_storm < before_storm,
          "hit ratio must collapse right after the flush");
    check(storm_recovered > after_storm,
          "hit ratio must recover after the TTL storm");
  }

  if (!smoke) return 0;
  if (failures != 0) return 1;
  std::cout << "\nsmoke checks passed\n";
  return 0;
}
