// Failure-injection integration tests: what breaks (and what doesn't) when
// the network partitions, the DE restarts, sensors flake, and writers race.
#include <gtest/gtest.h>

#include "apps/device_sim.h"
#include "apps/retail_knactor.h"
#include "apps/retail_rpc.h"
#include "apps/smart_home.h"
#include "core/slo.h"

namespace knactor {
namespace {

using common::Value;

TEST(Resilience, RpcCompositionStallsUnderPartition) {
  // API-centric: a partition between checkout and shipping fails the whole
  // order (the synchronous call chain has no state to fall back on).
  sim::VirtualClock clock;
  apps::RetailRpcOptions options;
  options.shipment_processing = sim::LatencyModel::constant_ms(10.0);
  options.payment_processing = sim::LatencyModel::constant_ms(1.0);
  apps::RetailRpcApp app(clock, options);
  app.network().set_partitioned("pod-checkout", "pod-shipping", true);
  // Without timeouts the call would hang; drain whatever completes.
  clock.run_until(clock.now() + 5 * sim::kSecond);
  // A fresh order now: issue and drive, expecting no completion.
  bool completed = false;
  // place_order_sync drives the clock; under partition the quote call is
  // dropped and the order never completes — so bound the run by checking
  // the clock drains without a tracking id.
  // (call_sync returns an error when the queue empties unresolved.)
  auto tracking = app.place_order_sync(120.0, {"keyboard"});
  completed = tracking.ok();
  EXPECT_FALSE(completed);
}

TEST(Resilience, KnactorCompositionResumesAfterHeal) {
  // Data-centric: state written during a "shipping reconciler outage"
  // survives in the store; when the reconciler comes back (resync), the
  // order completes. No retry logic in any service.
  core::Runtime runtime;
  apps::RetailKnactorOptions options;
  options.shipment_processing = sim::LatencyModel::constant_ms(10.0);
  options.payment_processing = sim::LatencyModel::constant_ms(1.0);
  auto app = apps::build_retail_knactor_app(runtime, options);

  // Take the shipping knactor down before the order arrives.
  core::Knactor* shipping = runtime.knactor("shipping");
  ASSERT_NE(shipping, nullptr);
  shipping->stop();

  auto put = app.checkout_store->put_sync("knactor:checkout", "order",
                                          apps::sample_order());
  ASSERT_TRUE(put.ok());
  runtime.run_until_idle();
  // The integrator filled the shipment request; nobody processed it.
  const de::StateObject* shipment = app.shipping_store->peek("state");
  ASSERT_NE(shipment, nullptr);
  EXPECT_NE(shipment->data->get("items"), nullptr);
  EXPECT_EQ(shipment->data->get("id"), nullptr);

  // Heal: restart + resync picks the pending request out of the store.
  shipping->start();
  ASSERT_TRUE(shipping->resync().ok());
  runtime.run_until_idle();
  const de::StateObject* order = app.checkout_store->peek("order");
  ASSERT_NE(order->data->get("trackingID"), nullptr);
  EXPECT_EQ(order->data->get("status")->as_string(), "shipped");
}

TEST(Resilience, DurableDeRestartMidExchange) {
  // Crash the (durable) DE after checkout wrote the order but before
  // shipping processed it; recovery + resync completes the pipeline.
  core::Runtime runtime;
  apps::RetailKnactorOptions options;
  options.de_profile = de::ObjectDeProfile::apiserver();
  options.shipment_processing = sim::LatencyModel::constant_ms(500.0);
  options.payment_processing = sim::LatencyModel::constant_ms(1.0);
  auto app = apps::build_retail_knactor_app(runtime, options);

  auto put = app.checkout_store->put_sync("knactor:checkout", "order",
                                          apps::sample_order());
  ASSERT_TRUE(put.ok());
  // Run just far enough that the exchange happened but the 500 ms shipment
  // call has not finished.
  runtime.clock().run_until(runtime.clock().now() + sim::from_ms(100));
  ASSERT_EQ(app.shipping_store->peek("state")->data->get("id"), nullptr);

  app.de->restart();  // durable restart keeps state; in-flight work is lost
  // Reconcilers resync against recovered state.
  for (const char* name : {"checkout", "payment", "shipping", "email"}) {
    core::Knactor* kn = runtime.knactor(name);
    if (kn != nullptr) {
      ASSERT_TRUE(kn->resync().ok());
    }
  }
  runtime.run_until_idle();
  const de::StateObject* order = app.checkout_store->peek("order");
  ASSERT_NE(order, nullptr);
  EXPECT_NE(order->data->get("trackingID"), nullptr);
}

TEST(Resilience, FlakySensorNeverCorruptsLampState) {
  // A flaky motion sensor flips readings; the lamp's intensity must always
  // be one of the two valid policy outputs.
  core::Runtime runtime;
  auto app = apps::build_smart_home_knactor_app(runtime);
  apps::MotionSensorSim::Options options;
  options.period = 60 * sim::kSecond;
  options.flake_rate = 0.2;
  apps::MotionSensorSim sensor(runtime.clock(), *app.motion_store,
                               app.motion_log,
                               apps::OccupancyPattern::weekday(), options);
  sensor.start();
  for (int hour = 1; hour <= 12; ++hour) {
    runtime.clock().run_until(hour * 3600 * sim::kSecond);
    int intensity = app.lamp_intensity();
    EXPECT_TRUE(intensity == 10 || intensity == 90 || intensity == 0)
        << "hour " << hour << ": " << intensity;
  }
  sensor.stop();
}

TEST(Resilience, ConcurrentCountersViaOptimisticUpdates) {
  // Two "writers" interleave read-modify-write cycles; update_sync's
  // version guard means no increment is ever lost.
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  de::ObjectStore& store = de.create_store("s");
  auto bump = [&](const char* who) {
    auto r = store.update_sync(who, "counter", [](const Value& current) {
      Value next = current.is_object() ? current : Value::object();
      std::int64_t n =
          next.get("n") != nullptr && next.get("n")->is_int()
              ? next.get("n")->as_int()
              : 0;
      next.set("n", Value(n + 1));
      return next;
    });
    ASSERT_TRUE(r.ok());
  };
  for (int i = 0; i < 25; ++i) {
    bump("writer-a");
    bump("writer-b");
  }
  EXPECT_EQ(store.peek("counter")->data->get("n")->as_int(), 50);
}

TEST(Resilience, SloMonitorFlagsDegradedExchanges) {
  // Run the retail app on the slow DE and verify the SLO machinery reports
  // the degradation an operator would page on.
  core::Runtime runtime;
  apps::RetailKnactorOptions options;
  options.shipment_processing = sim::LatencyModel::constant_ms(50.0);
  options.payment_processing = sim::LatencyModel::constant_ms(1.0);
  options.de_profile = de::ObjectDeProfile::apiserver();
  auto app = apps::build_retail_knactor_app(runtime, options);
  ASSERT_TRUE(app.place_order_sync(apps::sample_order()).ok());

  core::SloMonitor monitor(runtime.tracer());
  // A 5 ms pass target is unattainable on the apiserver profile.
  auto tight = monitor.evaluate(
      {"cast.pass.retail", sim::from_ms(5.0), 99.0});
  EXPECT_GT(tight.samples, 0u);
  EXPECT_FALSE(tight.met);
  // A 100 ms target is comfortable.
  auto loose = monitor.evaluate(
      {"cast.pass.retail", sim::from_ms(100.0), 99.0});
  EXPECT_TRUE(loose.met);
}

}  // namespace
}  // namespace knactor
