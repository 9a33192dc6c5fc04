#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>

#include "experiment/metrics.h"
#include "experiment/report.h"
#include "experiment/runner.h"
#include "experiment/scenario.h"
#include "util/csv.h"

namespace cloudprov {
namespace {

TEST(Scenario, WebFactoryMatchesPaperSetup) {
  const ScenarioConfig config = web_scenario(1.0);
  EXPECT_EQ(config.workload, WorkloadKind::kWeb);
  EXPECT_EQ(config.horizon, 7.0 * 86400.0);
  EXPECT_EQ(config.qos.max_response_time, 0.250);
  EXPECT_EQ(config.qos.min_utilization, 0.80);
  EXPECT_NEAR(config.initial_service_time_estimate, 0.105, 1e-12);
  EXPECT_EQ(config.datacenter.host_count, 1000u);
  EXPECT_EQ(config.web.week[0].max, 1000.0);  // Monday (Table II)
  EXPECT_EQ(config.web.week[6].min, 400.0);   // Sunday
}

TEST(Scenario, ScientificFactoryMatchesPaperSetup) {
  const ScenarioConfig config = scientific_scenario(1.0);
  EXPECT_EQ(config.workload, WorkloadKind::kScientific);
  EXPECT_EQ(config.horizon, 86400.0);
  EXPECT_EQ(config.qos.max_response_time, 700.0);
  EXPECT_NEAR(config.initial_service_time_estimate, 315.0, 1e-9);
  EXPECT_EQ(config.bot.peak_interarrival_shape, 4.25);
  EXPECT_EQ(config.bot.peak_interarrival_scale, 7.86);
}

TEST(Scenario, ScaledInstancesRoundToAtLeastOne) {
  const ScenarioConfig config = web_scenario(0.1);
  EXPECT_EQ(config.scaled_instances(150), 15u);
  EXPECT_EQ(config.scaled_instances(125), 13u);  // round half away from zero
  EXPECT_EQ(config.scaled_instances(1), 1u);
  const ScenarioConfig tiny = web_scenario(0.001);
  EXPECT_EQ(tiny.scaled_instances(150), 1u);
}

TEST(Scenario, PaperStaticSizes) {
  EXPECT_EQ(paper_static_sizes(WorkloadKind::kWeb),
            (std::vector<std::size_t>{50, 75, 100, 125, 150}));
  EXPECT_EQ(paper_static_sizes(WorkloadKind::kScientific),
            (std::vector<std::size_t>{15, 30, 45, 60, 75}));
}

TEST(PolicySpec, Labels) {
  EXPECT_EQ(PolicySpec::adaptive().label(1.0), "Adaptive");
  EXPECT_EQ(PolicySpec::adaptive(PredictorKind::kEwma).label(1.0),
            "Adaptive(ewma)");
  EXPECT_EQ(PolicySpec::fixed(150).label(0.1), "Static-15");
  EXPECT_THROW(PolicySpec::fixed(0), std::invalid_argument);
}

TEST(Runner, StaticScientificRunProducesPaperRejection) {
  // The cheapest strong end-to-end anchor: Static-45 on the scientific
  // workload rejects ~31.7% (paper, Section V-C2).
  const ScenarioConfig config = scientific_scenario(1.0);
  const auto runs = run_replications(config, PolicySpec::fixed(45), 3, 7);
  const AggregateMetrics agg = aggregate(runs);
  EXPECT_NEAR(agg.rejection_rate.mean, 0.317, 0.04);
  EXPECT_EQ(agg.qos_violations.mean, 0.0);
}

TEST(Runner, SameSeedSameResult) {
  const ScenarioConfig config = scientific_scenario(1.0);
  const RunOutput a = run_scenario(config, PolicySpec::adaptive(), 99);
  const RunOutput b = run_scenario(config, PolicySpec::adaptive(), 99);
  EXPECT_EQ(a.metrics.generated, b.metrics.generated);
  EXPECT_EQ(a.metrics.accepted, b.metrics.accepted);
  EXPECT_EQ(a.metrics.rejected, b.metrics.rejected);
  EXPECT_EQ(a.metrics.avg_response_time, b.metrics.avg_response_time);
  EXPECT_EQ(a.metrics.vm_hours, b.metrics.vm_hours);
  EXPECT_EQ(a.metrics.simulated_events, b.metrics.simulated_events);
  EXPECT_EQ(a.decisions.size(), b.decisions.size());
}

TEST(Runner, DifferentSeedsDiffer) {
  const ScenarioConfig config = scientific_scenario(1.0);
  const RunOutput a = run_scenario(config, PolicySpec::adaptive(), 1);
  const RunOutput b = run_scenario(config, PolicySpec::adaptive(), 2);
  EXPECT_NE(a.metrics.generated, b.metrics.generated);
}

TEST(Runner, ReplicationsUseDistinctSeeds) {
  const ScenarioConfig config = scientific_scenario(1.0);
  const auto runs = run_replications(config, PolicySpec::fixed(30), 3, 5);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_NE(runs[0].seed, runs[1].seed);
  EXPECT_NE(runs[1].seed, runs[2].seed);
  EXPECT_NE(runs[0].generated, runs[1].generated);
}

TEST(Runner, ParallelReplicationsMatchSequential) {
  // Threaded execution must be bit-identical to sequential: seeds are fixed
  // up front and replications share no state.
  const ScenarioConfig config = scientific_scenario(1.0);
  const auto sequential = run_replications(config, PolicySpec::fixed(30), 4, 9,
                                           {}, /*parallelism=*/1);
  const auto parallel = run_replications(config, PolicySpec::fixed(30), 4, 9,
                                         {}, /*parallelism=*/4);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].seed, parallel[i].seed);
    EXPECT_EQ(sequential[i].generated, parallel[i].generated);
    EXPECT_EQ(sequential[i].rejected, parallel[i].rejected);
    EXPECT_EQ(sequential[i].avg_response_time, parallel[i].avg_response_time);
    EXPECT_EQ(sequential[i].simulated_events, parallel[i].simulated_events);
  }
}

// RunMetrics holds 8-byte counters and doubles plus the policy string, with
// no padding, so the visited sizes add up to the struct exactly when
// for_each_field lists every field.
TEST(RunMetricsFields, ForEachFieldCoversTheWholeStruct) {
  RunMetrics metrics;
  std::size_t bytes = 0;
  for_each_field([&bytes](const char*, const auto& field) { bytes += sizeof(field); },
                 metrics);
  EXPECT_EQ(bytes, sizeof(RunMetrics))
      << "a RunMetrics field is missing from for_each_field";
}

TEST(RunMetricsFields, FirstDifferenceComparesBitPatterns) {
  RunMetrics a;
  RunMetrics b = a;
  b.policy = "other label";
  b.wall_seconds = 9.0;
  EXPECT_EQ(first_metric_difference(a, b), std::nullopt);

  b.simulated_events = 7;
  EXPECT_EQ(first_metric_difference(a, b), "simulated_events: 0 vs 7");
  EXPECT_EQ(first_metric_difference(a, b, {"simulated_events"}), std::nullopt);

  b.avg_response_time = -0.0;  // == 0.0, but a different bit pattern
  EXPECT_EQ(first_metric_difference(a, b), "avg_response_time: 0 vs -0");
}

TEST(Runner, ParallelReplicationsAreElementWiseIdenticalAcrossAllFields) {
  // Stronger form of the spot checks above: every deterministic RunMetrics
  // field must be element-wise identical between parallelism=1 and
  // parallelism=4 for the same base seed, including the market ledger
  // (spot enabled so its fields are live, not trivially zero).
  ScenarioConfig config = scientific_scenario(1.0);
  config.market.enabled = true;
  config.market.acquisition.spot_fraction = 0.5;
  config.market.acquisition.bid = 0.7;
  const auto sequential = run_replications(config, PolicySpec::adaptive(), 4,
                                           13, {}, /*parallelism=*/1);
  const auto parallel = run_replications(config, PolicySpec::adaptive(), 4,
                                         13, {}, /*parallelism=*/4);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].policy, parallel[i].policy) << "rep " << i;
    const std::optional<std::string> difference =
        first_metric_difference(sequential[i], parallel[i]);
    EXPECT_FALSE(difference) << *difference << " rep " << i;
  }
  // Spot must actually have been exercised for the market block to bite.
  EXPECT_GT(sequential[0].spot_purchases, 0u);
}

TEST(Runner, AdaptiveParallelReplicationsMatchSequential) {
  // Same guarantee for the adaptive policy, whose monitor/analyzer/modeler
  // loop exercises far more per-replication state than a static pool.
  const ScenarioConfig config = scientific_scenario(1.0);
  const auto sequential = run_replications(config, PolicySpec::adaptive(), 3,
                                           11, {}, /*parallelism=*/1);
  const auto parallel = run_replications(config, PolicySpec::adaptive(), 3,
                                         11, {}, /*parallelism=*/3);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].seed, parallel[i].seed);
    EXPECT_EQ(sequential[i].generated, parallel[i].generated);
    EXPECT_EQ(sequential[i].accepted, parallel[i].accepted);
    EXPECT_EQ(sequential[i].rejected, parallel[i].rejected);
    EXPECT_EQ(sequential[i].qos_violations, parallel[i].qos_violations);
    EXPECT_EQ(sequential[i].avg_response_time, parallel[i].avg_response_time);
    EXPECT_EQ(sequential[i].vm_hours, parallel[i].vm_hours);
    EXPECT_EQ(sequential[i].max_instances, parallel[i].max_instances);
    EXPECT_EQ(sequential[i].simulated_events, parallel[i].simulated_events);
  }
}

TEST(Runner, ReplicationSeedsMatchBatchExecution) {
  // replication_seeds() exposes the exact seed sequence run_replications
  // uses, so a single replication can be reproduced outside a batch.
  const ScenarioConfig config = scientific_scenario(1.0);
  const auto seeds = replication_seeds(3, 5);
  ASSERT_EQ(seeds.size(), 3u);
  const auto runs = run_replications(config, PolicySpec::fixed(30), 3, 5);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].seed, seeds[i]);
  }
  const RunOutput solo = run_scenario(config, PolicySpec::fixed(30), seeds[0]);
  EXPECT_EQ(solo.metrics.generated, runs[0].generated);
  EXPECT_EQ(solo.metrics.simulated_events, runs[0].simulated_events);
}

TEST(Runner, ProgressCallbackFires) {
  const ScenarioConfig config = scientific_scenario(1.0);
  int calls = 0;
  run_replications(config, PolicySpec::fixed(15), 2, 5,
                   [&](const RunMetrics&) { ++calls; });
  EXPECT_EQ(calls, 2);
}

TEST(Runner, WorkloadRateCurveCoversHorizon) {
  const ScenarioConfig config = scientific_scenario(1.0);
  const auto curve = workload_rate_curve(config, 3600.0, 2, 3);
  ASSERT_EQ(curve.size(), 24u);
  // Rates must be higher inside the peak window.
  EXPECT_GT(curve[12].value, 4.0 * curve[3].value);
}

TEST(Aggregate, ComputesCrossRunStatistics) {
  RunMetrics a;
  a.policy = "X";
  a.vm_hours = 100.0;
  a.rejection_rate = 0.1;
  RunMetrics b = a;
  b.vm_hours = 120.0;
  b.rejection_rate = 0.2;
  const AggregateMetrics agg = aggregate({a, b});
  EXPECT_EQ(agg.policy, "X");
  EXPECT_EQ(agg.replications, 2u);
  EXPECT_NEAR(agg.vm_hours.mean, 110.0, 1e-12);
  EXPECT_GT(agg.vm_hours.half_width, 0.0);
  EXPECT_NEAR(agg.rejection_rate.mean, 0.15, 1e-12);
  EXPECT_THROW(aggregate({}), std::invalid_argument);
}

TEST(Report, TextTableAlignsColumns) {
  TextTable table({"a", "long_header"});
  table.add_row({"value_longer_than_header", "x"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("a"), std::string::npos);
  EXPECT_NE(text.find("value_longer_than_header"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Report, FormatHelpers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  ConfidenceInterval ci;
  ci.mean = 1.5;
  ci.half_width = 0.25;
  EXPECT_EQ(fmt_ci(ci, 2), "1.50 +- 0.25");
}

TEST(Report, PolicyCsvRoundTripsThroughReader) {
  RunMetrics run;
  run.policy = "Adaptive";
  run.vm_hours = 10.0;
  const AggregateMetrics agg = aggregate({run});
  std::ostringstream out;
  write_policy_csv(out, {agg});
  std::istringstream in(out.str());
  CsvReader reader(in);
  const auto header = reader.next_row();
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ((*header)[0], "policy");
  const auto row = reader.next_row();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[0], "Adaptive");
  EXPECT_EQ(std::stod((*row)[8]), 10.0);
}

TEST(Report, PrintClaim) {
  std::ostringstream out;
  print_claim(out, "test claim", 0.26, 0.24);
  EXPECT_EQ(out.str(), "  [claim] test claim: paper=0.26 measured=0.24\n");
}

}  // namespace
}  // namespace cloudprov
