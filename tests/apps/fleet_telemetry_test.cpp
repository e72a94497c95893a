// IoT fleet telemetry rollup (apps/fleet_telemetry.h, docs/WORKLOADS.md):
// exact windowed aggregation through the fused planner, the overheat alert
// route, push-mode sync rounds, and sync lineage replay.
#include "apps/fleet_telemetry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "core/runtime.h"
#include "core/sync.h"
#include "de/plan.h"
#include "de/query.h"

namespace knactor {
namespace {

using common::Value;

// Expected per-(device, window) aggregates, replayed from the app's own
// deterministic reading generator.
struct Expected {
  std::int64_t n = 0;
  double speed_sum = 0;
  double max_temp = 0;
};

TEST(FleetTelemetry, RollupAggregatesExactlyPerDevicePerWindow) {
  core::Runtime rt;
  apps::FleetTelemetryOptions options;
  options.device_space = 4;  // force real grouping: 4 devices x 3 windows
  auto app = apps::build_fleet_telemetry_app(rt, options);
  ASSERT_NE(app.sync, nullptr);

  const std::uint64_t kReadings = 180;  // ts 0..179 -> windows 0, 60, 120
  std::map<std::pair<std::string, std::int64_t>, Expected> expected;
  for (std::uint64_t i = 0; i < kReadings; ++i) {
    app.emit_reading(i);
    Value r = app.reading_for(i);
    const std::int64_t ts =
        static_cast<std::int64_t>(r.get("ts")->as_number());
    auto& cell = expected[{r.get("device")->as_string(), (ts / 60) * 60}];
    ++cell.n;
    cell.speed_sum += r.get("speed")->as_number();
    cell.max_temp = std::max(cell.max_temp, r.get("temp")->as_number());
  }
  app.settle();
  auto moved = app.run_rollup_round();
  ASSERT_TRUE(moved.ok()) << moved.error().to_string();
  app.settle();

  ASSERT_EQ(app.rollup_count(), expected.size());
  for (const auto& rec : app.rollup->records_after(0)) {
    ASSERT_TRUE(rec.data);
    const Value& row = *rec.data;
    const std::string device = row.get("device")->as_string();
    const auto wstart =
        static_cast<std::int64_t>(row.get("wstart")->as_number());
    auto it = expected.find({device, wstart});
    ASSERT_NE(it, expected.end()) << device << " @ " << wstart;
    const Expected& want = it->second;
    EXPECT_EQ(static_cast<std::int64_t>(row.get("n")->as_number()), want.n)
        << device << " @ " << wstart;
    EXPECT_DOUBLE_EQ(row.get("avg_speed")->as_number(),
                     want.speed_sum / static_cast<double>(want.n))
        << device << " @ " << wstart;
    EXPECT_DOUBLE_EQ(row.get("max_temp")->as_number(), want.max_temp)
        << device << " @ " << wstart;
  }
}

TEST(FleetTelemetry, OverheatAlertsCarrySeverity) {
  core::Runtime rt;
  auto app = apps::build_fleet_telemetry_app(rt);
  const std::uint64_t kReadings = 120;
  std::size_t want_alerts = 0;
  std::size_t want_critical = 0;
  for (std::uint64_t i = 0; i < kReadings; ++i) {
    app.emit_reading(i);
    const double temp = app.reading_for(i).get("temp")->as_number();
    if (temp > 90) ++want_alerts;
    if (temp > 110) ++want_critical;
  }
  app.settle();
  ASSERT_TRUE(app.run_rollup_round().ok());
  app.settle();

  ASSERT_GT(want_critical, 0u);
  EXPECT_EQ(app.alert_count(), want_alerts);
  std::size_t critical = 0;
  for (const auto& rec : app.alerts->records_after(0)) {
    ASSERT_TRUE(rec.data);
    const Value& row = *rec.data;
    // `cut device, ts, temp, severity` — exactly the projected shape.
    ASSERT_NE(row.get("severity"), nullptr);
    ASSERT_NE(row.get("device"), nullptr);
    EXPECT_EQ(row.get("speed"), nullptr);
    const double temp = row.get("temp")->as_number();
    EXPECT_GT(temp, 90.0);
    const std::string severity = row.get("severity")->as_string();
    if (temp > 110) {
      EXPECT_EQ(severity, "critical");
      ++critical;
    } else {
      EXPECT_EQ(severity, "warning");
    }
  }
  EXPECT_EQ(critical, want_critical);
}

TEST(FleetTelemetry, WindowStageFusesIntoTheScan) {
  // The rollup pipeline is [window | summarize]: consolidated, the
  // record-local window op fuses into the scan, so only the summarize
  // barrier costs its own pass.
  auto pipeline = de::parse_query(apps::fleet_rollup_pipeline(60));
  ASSERT_TRUE(pipeline.ok()) << pipeline.error().to_string();
  EXPECT_EQ(core::SyncIntegrator::count_passes(pipeline.value(),
                                               /*consolidated=*/false),
            2u);
  EXPECT_EQ(core::SyncIntegrator::count_passes(pipeline.value(),
                                               /*consolidated=*/true),
            2u);  // fused scan+window = 1, summarize barrier = 1
}

TEST(FleetTelemetry, PushModeRunsRoundsBehindAppends) {
  core::Runtime rt;
  apps::FleetTelemetryOptions options;
  options.push = true;
  auto app = apps::build_fleet_telemetry_app(rt, options);
  for (std::uint64_t i = 0; i < 95; ++i) app.emit_reading(i);
  app.settle();
  // No manual round: the subscription-driven rounds already moved data.
  EXPECT_GT(app.rollup_count(), 0u);
  EXPECT_GT(app.alert_count(), 0u);
}

// Push rounds under sustained load. A push round's blocking query steps the
// clock, so appends landing meanwhile request another round. That round
// must wait for the running one rather than run nested inside it: a nested
// round advanced the route cursor, the outer round then rewound it to its
// own older snapshot, and every later round re-read the history (n(n+1)/2
// rollup rows for n readings).
TEST(FleetTelemetry, PushRoundsUnderLoadNeverReReadHistory) {
  core::Runtime rt;
  apps::FleetTelemetryOptions options;
  options.push = true;
  options.device_space = 4;  // rows of one (device, window) merge across rounds
  auto app = apps::build_fleet_telemetry_app(rt, options);
  ASSERT_NE(app.sync, nullptr);

  const std::uint64_t kReadings = 200;
  const sim::SimTime kGap = sim::kSecond / 400;  // 400 readings/s, virtual
  std::map<std::pair<std::string, std::int64_t>, Expected> expected;
  std::map<std::string, std::uint64_t> cursors;
  bool rewound = false;
  auto watch_cursors = [&app, &cursors, &rewound] {
    for (const auto& route : app.sync->routes()) {
      std::uint64_t& seen = cursors[route.name];
      if (route.cursor < seen) rewound = true;
      seen = route.cursor;
    }
  };
  const sim::SimTime start = rt.clock().now();
  for (std::uint64_t i = 0; i < kReadings; ++i) {
    Value r = app.reading_for(i);
    const std::int64_t ts =
        static_cast<std::int64_t>(r.get("ts")->as_number());
    auto& cell = expected[{r.get("device")->as_string(), (ts / 60) * 60}];
    ++cell.n;
    cell.speed_sum += r.get("speed")->as_number();
    cell.max_temp = std::max(cell.max_temp, r.get("temp")->as_number());
    rt.clock().schedule_at(start + static_cast<sim::SimTime>(i) * kGap,
                           [&app, i] { app.emit_reading(i); });
  }
  // Sample the cursors far more often than readings arrive: rounds step
  // the clock, so samples also land inside a running round.
  const sim::SimTime end = start + static_cast<sim::SimTime>(kReadings) * kGap +
                           100 * sim::kMillisecond;
  for (sim::SimTime t = start; t < end; t += 20) {
    rt.clock().schedule_at(t, watch_cursors);
  }
  app.settle();
  watch_cursors();
  EXPECT_FALSE(rewound) << "a route cursor moved backwards";
  EXPECT_EQ(cursors["readings-to-rollup"], app.readings->latest_seq());

  // Each round aggregates its own mini-batch, so one (device, window) may
  // span several rows; merged, they must equal the reference exactly.
  std::map<std::pair<std::string, std::int64_t>, Expected> merged;
  for (const auto& rec : app.rollup->records_after(0)) {
    ASSERT_TRUE(rec.data);
    const Value& row = *rec.data;
    const auto wstart =
        static_cast<std::int64_t>(row.get("wstart")->as_number());
    auto& cell = merged[{row.get("device")->as_string(), wstart}];
    const auto n = static_cast<std::int64_t>(row.get("n")->as_number());
    cell.n += n;
    cell.speed_sum += row.get("avg_speed")->as_number() * static_cast<double>(n);
    cell.max_temp = std::max(cell.max_temp, row.get("max_temp")->as_number());
  }
  ASSERT_EQ(merged.size(), expected.size());
  std::int64_t total = 0;
  for (const auto& [cell_key, want] : expected) {
    const auto& [device, wstart] = cell_key;
    auto it = merged.find(cell_key);
    ASSERT_NE(it, merged.end()) << device << " @ " << wstart;
    EXPECT_EQ(it->second.n, want.n) << device << " @ " << wstart;
    EXPECT_NEAR(it->second.speed_sum, want.speed_sum, 1e-6)
        << device << " @ " << wstart;
    EXPECT_DOUBLE_EQ(it->second.max_temp, want.max_temp)
        << device << " @ " << wstart;
    total += it->second.n;
  }
  EXPECT_EQ(total, static_cast<std::int64_t>(kReadings));
}

// Sync lineage: every alert record replays byte-for-byte from its single
// attributed source reading through the route's own pipeline — the
// record-local window/filter/put/cut chain keeps 1:1 attribution.
TEST(FleetTelemetry, AlertRecordsReplayFromAttributedReading) {
  core::Runtime rt;
  rt.enable_lineage();
  auto app = apps::build_fleet_telemetry_app(rt);
  for (std::uint64_t i = 0; i < 60; ++i) app.emit_reading(i);
  app.settle();
  ASSERT_TRUE(app.run_rollup_round().ok());
  app.settle();

  const auto& ring = app.log_de->kernel().provenance();
  const core::SyncRoute* alert_route = nullptr;
  for (const auto& r : app.sync->routes()) {
    if (r.name == "overheat-alerts") alert_route = &r;
  }
  ASSERT_NE(alert_route, nullptr);
  std::size_t replayed = 0;
  for (const auto& rec : ring.records()) {
    if (rec.op != "sync:fleet-rollup/overheat-alerts") continue;
    ASSERT_NE(rec.output.data, nullptr);
    std::vector<Value> inputs;
    for (const auto& ref : rec.inputs) {
      ASSERT_NE(ref.data, nullptr);
      EXPECT_EQ(ref.store, "fleet-readings");
      inputs.push_back(Value(*ref.data));
    }
    auto out = de::run_pipeline(alert_route->pipeline, std::move(inputs));
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out.value().size(), 1u);  // record-local: 1:1 attribution
    EXPECT_EQ(common::to_json(out.value()[0]),
              common::to_json(*rec.output.data));
    ++replayed;
  }
  EXPECT_GT(replayed, 0u);
}

}  // namespace
}  // namespace knactor
