// Final coverage batch: branch-level edges not reached elsewhere.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>

#include "core/performance_modeler.h"
#include "core/sla.h"
#include "sim/event_queue.h"
#include "stats/quantile.h"
#include "stats/timeseries.h"
#include "util/csv.h"
#include "util/rng.h"
#include "workload/bot_workload.h"
#include "workload/web_workload.h"

namespace cloudprov {
namespace {

TEST(P2QuantileEdge, ConstantStreamIsExact) {
  P2Quantile q(0.9);
  for (int i = 0; i < 1000; ++i) q.add(4.2);
  EXPECT_DOUBLE_EQ(q.value(), 4.2);
}

TEST(TimeWeightedEdge, SameTimeUpdatesKeepLastValue) {
  TimeWeightedValue v(0.0, 1.0);
  v.update(5.0, 2.0);
  v.update(5.0, 3.0);  // zero-width interval: legal, no integral change
  v.advance(10.0);
  EXPECT_DOUBLE_EQ(v.integral(), 1.0 * 5.0 + 3.0 * 5.0);
  EXPECT_EQ(v.max(), 3.0);
}

TEST(EventQueueEdge, CancelledIdsAreNeverRevalidatedByReuse) {
  EventQueue queue;
  const EventId a = queue.push(1.0, [] {});
  queue.cancel(a);
  // The replacement may reuse a's slab slot, but its bumped generation makes
  // the handle distinct — the stale handle can never alias the new event.
  const EventId b = queue.push(1.0, [] {});
  EXPECT_NE(b, a);
  queue.cancel(a);  // stale: must be a no-op on b
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.pop().id, b);
}

TEST(CsvEdge, IntegerFormatAndQuotedOnlyField) {
  EXPECT_EQ(CsvWriter::format(std::int64_t{-42}), "-42");
  std::istringstream in("\"a,b\"\n");
  CsvReader reader(in);
  const auto row = reader.next_row();
  ASSERT_TRUE(row.has_value());
  ASSERT_EQ(row->size(), 1u);
  EXPECT_EQ((*row)[0], "a,b");
}

TEST(RngEdge, GammaShapeOneIsExponential) {
  Rng rng(71);
  double sum = 0.0;
  int over = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gamma(1.0, 0.5);  // == Exp(rate 2)
    sum += x;
    over += x > 1.0 ? 1 : 0;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
  EXPECT_NEAR(static_cast<double>(over) / n, std::exp(-2.0), 0.005);
}

TEST(WebWorkloadEdge, FlatWeekProducesUniformRate) {
  WebWorkloadConfig config;
  for (auto& day : config.week) day = DayRates{100.0, 100.0};  // Rmin == Rmax
  const WebWorkload w(config);
  for (double t : {0.0, 6.0 * 3600.0, 12.0 * 3600.0, 3.5 * 86400.0}) {
    EXPECT_NEAR(w.expected_rate(t), 100.0, 1e-9) << t;
  }
}

TEST(BotWorkloadEdge, TwoDayHorizonRepeatsTheDailyCycle) {
  BotWorkloadConfig config;
  config.horizon = 2.0 * 86400.0;
  BotWorkload w(config);
  // Expected rate is periodic with the day.
  EXPECT_EQ(w.expected_rate(12.0 * 3600.0), w.expected_rate(36.0 * 3600.0));
  Rng rng(73);
  std::size_t day1_peak = 0;
  std::size_t day2_peak = 0;
  while (auto a = w.next(rng)) {
    const double tod = seconds_into_day(a->time);
    if (tod >= 8 * 3600.0 && tod < 17 * 3600.0) {
      (a->time < 86400.0 ? day1_peak : day2_peak) += 1;
    }
  }
  EXPECT_GT(day1_peak, 5000u);
  EXPECT_GT(day2_peak, 5000u);
}

TEST(ModelerEdge, ResponseTimeCheckCanBeTheBindingConstraint) {
  // Deep queue (k = 10) with Ts = 0.55 s and Tm = 0.1 s: blocking at rho
  // near 1 stays small, but Tq approaches k * Tm = 1.0 s > Ts, so the
  // response check must drive the scale-up.
  QosTargets qos;
  qos.max_response_time = 0.55;
  qos.min_utilization = 0.5;
  ModelerConfig config;
  config.max_vms = 1000;
  config.rejection_tolerance = 0.9;  // effectively disable the blocking check
  config.max_offered_load = 10.0;    // and the saturation guard
  PerformanceModeler modeler(qos, config);
  const ModelerDecision d = modeler.required_instances(1, 100.0, 0.1, 10);
  // The decision's predicted response must honour Ts.
  EXPECT_LE(d.predicted_response_time, 0.55);
  // And the pool must be large enough that rho < 1 comfortably.
  EXPECT_GT(d.instances, 10u);
}

TEST(SlaEdge, ReportAllPreservesClassOrder) {
  SlaClass a;
  a.name = "bronze";
  a.priority_threshold = 0;
  a.max_response_time = 1.0;
  SlaClass b;
  b.name = "gold";
  b.priority_threshold = 10;
  b.max_response_time = 0.5;
  SlaManager manager({a, b});
  const auto reports = manager.report_all();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].name, "bronze");
  EXPECT_EQ(reports[1].name, "gold");
}

}  // namespace
}  // namespace cloudprov
