// Coverage for auxiliary behaviors not exercised elsewhere: time helpers,
// event-queue bookkeeping, bursty-workload provisioning, and trace-driven
// determinism.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "cloud/broker.h"
#include "core/adaptive_policy.h"
#include "core/vertical_policy.h"
#include "predict/ewma.h"
#include "predict/hybrid.h"
#include "predict/moving_average.h"
#include "predict/periodic_profile.h"
#include "util/units.h"
#include "workload/bot_workload.h"
#include "workload/mmpp_source.h"
#include "workload/poisson_source.h"
#include "workload/spike_overlay.h"
#include "workload/trace.h"

namespace cloudprov {
namespace {

TEST(Units, SecondsIntoDayAndDayIndex) {
  EXPECT_EQ(seconds_into_day(0.0), 0.0);
  EXPECT_EQ(seconds_into_day(3600.0), 3600.0);
  EXPECT_EQ(seconds_into_day(86400.0), 0.0);
  EXPECT_EQ(seconds_into_day(2.0 * 86400.0 + 100.0), 100.0);
  EXPECT_EQ(day_index(0.0), 0);
  EXPECT_EQ(day_index(86399.0), 0);
  EXPECT_EQ(day_index(86400.0), 1);
  EXPECT_EQ(day_index(6.5 * 86400.0), 6);
}

TEST(Units, DurationConstantsAreConsistent) {
  EXPECT_EQ(duration::kMinute, 60.0 * duration::kSecond);
  EXPECT_EQ(duration::kHour, 60.0 * duration::kMinute);
  EXPECT_EQ(duration::kDay, 24.0 * duration::kHour);
  EXPECT_EQ(duration::kWeek, 7.0 * duration::kDay);
}

TEST(EventQueueAux, SizeAndPushedCountAndClear) {
  EventQueue queue;
  EXPECT_EQ(queue.size(), 0u);
  const EventId a = queue.push(1.0, [] {});
  queue.push(2.0, [] {});
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.pushed_count(), 2u);
  queue.cancel(a);
  EXPECT_EQ(queue.size(), 1u);  // live events only
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.pushed_count(), 2u);  // history preserved
}

TEST(BurstyProvisioning, HybridAbsorbsMmppBursts) {
  // MMPP ON/OFF load with 20x rate swings, provisioned adaptively with the
  // hybrid predictor (there is no valid profile for an MMPP): rejection must
  // stay moderate and the pool must swing with the bursts.
  Simulation sim;
  DatacenterConfig dc;
  dc.host_count = 16;
  Datacenter datacenter(sim, dc, std::make_unique<LeastLoadedPlacement>());
  QosTargets qos;
  qos.max_response_time = 0.25;
  ProvisionerConfig prov_config;
  prov_config.initial_service_time_estimate = 0.105;
  ApplicationProvisioner provisioner(sim, datacenter, qos, prov_config);

  MmppConfig mmpp;
  mmpp.states = {MmppState{100.0, 600.0}, MmppState{5.0, 600.0}};
  mmpp.service_demand = std::make_shared<ScaledUniformDistribution>(0.1, 0.1);
  mmpp.horizon = 20000.0;
  MmppSource source(mmpp);
  Broker broker(sim, source, provisioner, Rng(5));

  AnalyzerConfig analyzer;
  analyzer.analysis_interval = 30.0;
  analyzer.lead_time = 0.0;  // nothing to look ahead to
  ModelerConfig modeler;
  modeler.max_vms = 100;
  auto hybrid = std::make_shared<HybridPredictor>(
      std::make_shared<EwmaPredictor>(0.5, 0.3),
      std::make_shared<MovingAveragePredictor>(
          5, MovingAveragePredictor::Mode::kMax, 0.1));
  AdaptivePolicy policy(sim, hybrid, modeler, analyzer);
  policy.attach(provisioner);
  broker.start();
  sim.run(mmpp.horizon);

  TimeWeightedValue history = provisioner.instance_history();
  history.advance(sim.now());
  EXPECT_GE(history.max(), 10.0);   // sized up for ON bursts
  EXPECT_LE(history.min(), 4.0);    // shrank in OFF periods
  EXPECT_LT(provisioner.rejection_rate(), 0.08);  // burst onsets only
  EXPECT_EQ(provisioner.qos_violations(), 0u);
}

TEST(TraceDriven, PoliciesComparableOnIdenticalArrivals) {
  // Record one BoT day, then replay the identical trace under two static
  // sizes: every run sees the same arrivals, so the comparison is paired.
  BotWorkload workload{};
  Rng gen(9);
  const WorkloadTrace trace = WorkloadTrace::record(workload, gen);
  ASSERT_GT(trace.arrivals.size(), 5000u);

  auto run = [&](std::size_t instances) {
    Simulation sim;
    DatacenterConfig dc;
    dc.host_count = 32;
    Datacenter datacenter(sim, dc, std::make_unique<LeastLoadedPlacement>());
    QosTargets qos;
    qos.max_response_time = 700.0;
    ProvisionerConfig config;
    config.initial_service_time_estimate = 315.0;
    ApplicationProvisioner provisioner(sim, datacenter, qos, config);
    provisioner.scale_to(instances);
    TraceSource source(trace);
    Broker broker(sim, source, provisioner, Rng(1));
    broker.start();
    sim.run();
    return std::pair{provisioner.total_arrivals(), provisioner.rejected()};
  };

  const auto [offered_small, rejected_small] = run(30);
  const auto [offered_large, rejected_large] = run(90);
  EXPECT_EQ(offered_small, offered_large);  // identical arrival sequence
  EXPECT_EQ(offered_small, trace.arrivals.size());
  EXPECT_GT(rejected_small, 10u * std::max<std::uint64_t>(rejected_large, 1));
}

TEST(SpikeOverlay, BaseExhaustionStillDrainsSpike) {
  // Base ends before the spike window: spike arrivals must still be emitted.
  auto base = std::make_unique<PoissonSource>(
      5.0, std::make_shared<DeterministicDistribution>(0.1), 0.0, 10.0);
  SpikeConfig spike;
  spike.start = 50.0;
  spike.end = 60.0;
  spike.extra_rate = 10.0;
  spike.service_demand = std::make_shared<DeterministicDistribution>(0.1);
  SpikeOverlaySource source(std::move(base), spike);
  Rng rng(11);
  std::size_t in_spike = 0;
  while (auto a = source.next(rng)) {
    if (a->time >= 50.0 && a->time < 60.0) ++in_spike;
  }
  EXPECT_NEAR(static_cast<double>(in_spike), 100.0, 40.0);
}

TEST(VerticalConfig, QosFloorAboveMaxSpeedThrows) {
  Simulation sim;
  DatacenterConfig dc;
  dc.host_count = 2;
  Datacenter datacenter(sim, dc, std::make_unique<LeastLoadedPlacement>());
  QosTargets qos;
  qos.max_response_time = 0.1;  // needs speed >= 1.0 * (1+margin) for 0.1 s work
  ProvisionerConfig prov_config;
  prov_config.initial_service_time_estimate = 0.1;
  ApplicationProvisioner provisioner(sim, datacenter, qos, prov_config);
  VerticalScalingConfig config;
  config.instances = 1;
  config.base_service_time = 0.1;
  config.max_speed = 1.0;  // below the QoS floor 1.15
  VerticalScalingPolicy policy(
      sim, std::make_shared<EwmaPredictor>(0.5, 0.0), config, AnalyzerConfig{});
  EXPECT_THROW(policy.attach(provisioner), std::invalid_argument);
}

}  // namespace
}  // namespace cloudprov
