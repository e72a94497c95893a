// Tests for the benchmark's output checkers: a clean output passes, and
// each kind of corruption the checks exist for is flagged against the
// request it belongs to. Exit code 0 = all pass.
//
//   perfbench_checks_test
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"

namespace {

using knactor::common::SharedValue;
using knactor::common::Value;
using perfbench::CheckResult;
using perfbench::StoreView;

int failures = 0;

void expect(bool cond, const char* test, const char* what) {
  if (!cond) {
    ++failures;
    std::printf("FAIL %s: %s\n", test, what);
  }
}

Value obj(std::initializer_list<std::pair<std::string, Value>> fields) {
  Value v = Value::object();
  for (const auto& [k, f] : fields) v.set(k, f);
  return v;
}

SharedValue shared(Value v) { return std::make_shared<const Value>(std::move(v)); }

// --- rides -------------------------------------------------------------------

struct RideFixture {
  std::vector<std::uint64_t> ids = {17, 4242};
  std::vector<bool> completed = {true, true};
  StoreView rides, zones, dispatch;
  static constexpr int kFleet = 512;

  RideFixture() {
    zones["zone/z1"] = obj({{"demand", Value(41)}, {"surge", Value(1.25)}});
    for (std::uint64_t id : ids) {
      const std::string key = "ride/" + std::to_string(id);
      const std::string driver = perfbench::reference_driver(id, kFleet);
      const std::string rider = "rider-" + std::to_string(id);
      rides[key] = obj({{"rider", Value(rider)},
                        {"zone", Value("z1")},
                        {"zoneKey", Value("zone/z1")},
                        {"fare", Value(8.0)},
                        {"status", Value("assigned")},
                        {"driver", Value(driver)}});
      dispatch[key] = obj({{"zone", Value("z1")},
                           {"rider", Value(rider)},
                           {"surge", Value(1.25)},
                           {"quoted", Value(10.0)},
                           {"driver", Value(driver)},
                           {"status", Value("assigned")}});
    }
  }
  CheckResult check() const {
    return perfbench::check_rides(ids, completed, kFleet, rides, zones,
                                  dispatch);
  }
};

void test_rides() {
  RideFixture clean;
  expect(clean.check().ok(), "rides_clean", "clean rides flagged");

  RideFixture unconverged;
  unconverged.rides["ride/17"].set("status", Value("requested"));
  unconverged.rides["ride/17"].set("driver", Value(nullptr));
  CheckResult r = unconverged.check();
  expect(r.failed == 1, "rides_unconverged", "unconverged ride not flagged");

  RideFixture stale_surge;
  stale_surge.zones["zone/z1"].set("surge", Value(1.5));
  expect(stale_surge.check().failed == 2, "rides_stale_surge",
         "surge change not propagated is not flagged");

  RideFixture unobserved;
  unobserved.completed[1] = false;
  expect(unobserved.check().failed == 1, "rides_unobserved",
         "unobserved completion not flagged");
}

// --- fleet -------------------------------------------------------------------

struct FleetFixture {
  std::vector<perfbench::Reading> readings = {
      {"dev-1", 0, 10, 95}, {"dev-1", 30, 20, 70}, {"dev-2", 61, 30, 115}};
  std::vector<bool> acked = {true, true, true};
  std::vector<SharedValue> rollup = {
      // dev-1 window 0 split across two mini-batches: legal.
      shared(obj({{"device", Value("dev-1")}, {"wstart", Value(0.0)},
                  {"n", Value(1)}, {"avg_speed", Value(10.0)},
                  {"max_temp", Value(95.0)}})),
      shared(obj({{"device", Value("dev-1")}, {"wstart", Value(0.0)},
                  {"n", Value(1)}, {"avg_speed", Value(20.0)},
                  {"max_temp", Value(70.0)}})),
      shared(obj({{"device", Value("dev-2")}, {"wstart", Value(60.0)},
                  {"n", Value(1)}, {"avg_speed", Value(30.0)},
                  {"max_temp", Value(115.0)}}))};
  std::vector<SharedValue> alerts = {
      shared(obj({{"device", Value("dev-1")}, {"ts", Value(0)},
                  {"temp", Value(95.0)}, {"severity", Value("warning")}})),
      shared(obj({{"device", Value("dev-2")}, {"ts", Value(61)},
                  {"temp", Value(115.0)}, {"severity", Value("critical")}}))};

  CheckResult check() const {
    return perfbench::check_fleet(readings, acked, 60, rollup, alerts);
  }
};

void test_fleet() {
  FleetFixture clean;
  CheckResult r = clean.check();
  expect(r.ok(), "fleet_clean", "clean rollup flagged");

  FleetFixture dup;
  dup.rollup.push_back(dup.rollup[2]);
  r = dup.check();
  expect(r.failed == 1, "fleet_duplicate_row",
         "duplicated rollup row not flagged");

  FleetFixture missing;
  missing.alerts.pop_back();
  r = missing.check();
  expect(r.failed == 1, "fleet_missing_alert", "missing alert not flagged");

  FleetFixture dup_alert;
  dup_alert.alerts.push_back(dup_alert.alerts[0]);
  expect(dup_alert.check().failed == 1, "fleet_duplicate_alert",
         "duplicated alert not flagged");

  FleetFixture severity;
  severity.alerts[1] = shared(obj({{"device", Value("dev-2")},
                                   {"ts", Value(61)},
                                   {"temp", Value(115.0)},
                                   {"severity", Value("warning")}}));
  expect(severity.check().failed == 1, "fleet_wrong_severity",
         "wrong severity not flagged");
}

// --- durable -----------------------------------------------------------------

struct DurableFixture {
  std::vector<std::string> keys = {"a", "b"};
  std::vector<perfbench::DurableWrite> writes = {{0, 0, 11}, {1, 1, 22},
                                                 {0, 5, 33}};
  std::vector<bool> acked = {true, true, true};
  StoreView live, recovered;
  std::vector<std::vector<std::int64_t>> deliveries{2};

  DurableFixture() {
    live["a"] = payload(2);
    live["b"] = payload(1);
    recovered = live;
    deliveries[0] = {0};
    deliveries[1] = {1};
  }
  Value payload(std::int64_t seq) const {
    return perfbench::durable_payload(seq, writes[seq]);
  }
  CheckResult check() const {
    return perfbench::check_durable(keys, writes, acked, live, recovered,
                                    deliveries);
  }
};

void test_durable() {
  DurableFixture clean;
  expect(clean.check().ok(), "durable_clean", "clean ingest flagged");

  DurableFixture stale;
  stale.recovered["a"] = stale.payload(0);
  expect(stale.check().failed == 1, "durable_stale_recovered_key",
         "stale recovered key not flagged");

  DurableFixture nack;
  nack.acked[1] = false;
  expect(nack.check().failed == 1, "durable_unacked", "nack not flagged");

  DurableFixture twice;
  twice.deliveries[0].push_back(0);
  expect(twice.check().failed == 1, "durable_double_delivery",
         "double delivery not flagged");

  DurableFixture wrong;
  wrong.deliveries[1].push_back(2);
  expect(wrong.check().failed == 1, "durable_wrong_subscriber",
         "delivery to the wrong bucket not flagged");
}

}  // namespace

int main() {
  test_rides();
  test_fleet();
  test_durable();
  if (failures == 0) std::printf("perfbench checks: all tests passed\n");
  return failures == 0 ? 0 : 1;
}
