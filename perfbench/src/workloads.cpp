#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <thread>

#include "apps/fleet_telemetry.h"
#include "apps/ride_hailing.h"
#include "checks.h"
#include "core/runtime.h"
#include "de/persist/engine.h"
#include "de/plan.h"
#include "de/query.h"
#include "de/subscription.h"
#include "expr/eval.h"

namespace perfbench {

namespace {

using namespace knactor;
using common::Result;
using common::SharedValue;
using common::Value;
using WallClock = std::chrono::steady_clock;

// --- workload sizes (docs: perfbench/README.md) ------------------------------

constexpr std::size_t kRides = 100;
constexpr sim::SimTime kRideInterval = 10 * sim::kMillisecond;  // 100 req/s
constexpr sim::SimTime kRideJitter = 4 * sim::kMillisecond;
constexpr std::uint64_t kRideIdSpace = 1000000;

constexpr std::size_t kReadings = 1500;
constexpr sim::SimTime kReadingInterval = 500;  // 2,000 readings/s
constexpr std::uint64_t kDeviceSpace = 1000000;
constexpr double kWindow = 60;
constexpr std::size_t kExtraReadings = 100;  // the round_ms probe batch
constexpr std::size_t kPullRoundEvery = 20;  // fleet_pull: a round per 10 ms

constexpr std::size_t kKeys = 16384;
constexpr std::size_t kEpochs = 1600;
constexpr std::size_t kEpochWrites = 250;
constexpr sim::SimTime kEpochInterval = 2 * sim::kMillisecond;
constexpr std::size_t kBuckets = 100;
constexpr std::size_t kSubscribers = 50;
constexpr std::uint64_t kSnapshotEvery = 4096;

// Set-ups timed by one set-up-only run (RunConfig::setup_only).
constexpr int kSetupRepeats = 201;

// --- helpers -----------------------------------------------------------------

/// splitmix64: the harness's own input generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Distinct draws from [0, space), in draw order.
std::vector<std::uint64_t> distinct_draws(Rng& rng, std::size_t n,
                                          std::uint64_t space) {
  std::vector<std::uint64_t> out;
  std::set<std::uint64_t> seen;
  while (out.size() < n) {
    const std::uint64_t v = rng.below(space);
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

double seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak resident set of this process image, from VmHWM. ru_maxrss is not
/// used: Linux carries the pre-exec RSS of the forked parent into it.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Median wall seconds of `reps` calls of `fn`.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = WallClock::now();
    fn();
    samples.push_back(seconds_since(t0));
  }
  return median(samples);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

StoreView view_of(const de::ObjectStore& store) {
  StoreView out;
  for (const auto& key : store.keys()) {
    const de::StateObject* obj = store.peek(key);
    if (obj != nullptr && obj->data) out.emplace(key, *obj->data);
  }
  return out;
}

std::vector<SharedValue> rows_of(const de::LogPool& pool) {
  std::vector<SharedValue> out;
  for (const auto& rec : pool.records_after(0)) out.push_back(rec.data);
  return out;
}

void copy_check(const CheckResult& check, RunOutput& out) {
  out.failed = check.failed;
  out.stray = check.stray;
  out.notes = check.notes;
}

/// The open-loop generator: one arrival per due virtual time, scheduled up
/// front on the clock with no admission limit, then the clock is drained
/// arrival by arrival and finally to quiescence. Each drain is one span;
/// each arrival's call into the program is a span nested in it. If given,
/// `after_drain(i)` runs outside the clock after the drain up to arrival i,
/// and with i == due.size() after the final drain. An arrival may fire late
/// only while such a call holds the clock: a blocking program call charges
/// its modeled compute with VirtualClock::advance, which moves time without
/// running the events it passes. Those arrivals are counted in `held` (their
/// latency is still timed from the due time); any other late arrival is a
/// harness error. Fills the timed-phase fields of `out` and returns
/// (events executed, arrivals held, drain wall s).
struct Drive {
  std::uint64_t events = 0;
  std::size_t held = 0;
  double wall_s = 0;
};

Drive drive_open_loop(sim::VirtualClock& clock,
                      const std::vector<sim::SimTime>& due,
                      const char* arrival_span, SpanRecorder& spans,
                      RunOutput& out,
                      const std::function<void(std::size_t)>& arrive,
                      const std::function<void(std::size_t)>& after_drain =
                          nullptr) {
  std::size_t late = 0, held = 0;
  bool in_hook = false;
  for (std::size_t i = 0; i < due.size(); ++i) {
    clock.schedule_at(due[i], [&, i] {
      if (clock.now() != due[i]) ++(in_hook ? held : late);
      Scoped span(spans, arrival_span, static_cast<std::int64_t>(i));
      arrive(i);
    });
  }
  Drive drive;
  const double cpu0 = cpu_seconds();
  const auto t0 = WallClock::now();
  for (std::size_t i = 0; i < due.size(); ++i) {
    {
      Scoped span(spans, "sim.drain");
      drive.events += clock.run_until(due[i]);
    }
    if (after_drain) {
      in_hook = true;
      after_drain(i);
      in_hook = false;
    }
  }
  {
    Scoped span(spans, "sim.drain");
    drive.events += clock.run_all();
  }
  if (after_drain) {
    in_hook = true;
    after_drain(due.size());
    in_hook = false;
  }
  drive.wall_s = seconds_since(t0);
  drive.held = held;
  out.timed_wall_s = drive.wall_s;
  out.cpu_s = cpu_seconds() - cpu0;
  out.peak_rss_mb = peak_rss_mb();
  if (late != 0) {
    out.harness_errors.push_back(std::to_string(late) +
                                 " arrivals fired off their due time");
  }
  return drive;
}

std::vector<sim::SimTime> due_times(sim::SimTime start, sim::SimTime interval,
                                    std::size_t n) {
  std::vector<sim::SimTime> due(n);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = start + static_cast<sim::SimTime>(i) * interval;
  }
  return due;
}

/// Constant-rate arrivals with a seeded phase jitter in [0, jitter): each
/// arrival keeps its own slot, so the work per run does not depend on the
/// seed, while the arrival phase (and so the modeled latency) does.
std::vector<sim::SimTime> jittered_due_times(Rng& rng, sim::SimTime start,
                                             sim::SimTime interval,
                                             sim::SimTime jitter,
                                             std::size_t n) {
  std::vector<sim::SimTime> due = due_times(start, interval, n);
  for (auto& t : due) {
    t += static_cast<sim::SimTime>(rng.below(static_cast<std::uint64_t>(jitter)));
  }
  return due;
}

/// Builds one rig, timing it.
template <typename Rig, typename Build>
std::unique_ptr<Rig> timed_setup(SpanRecorder& spans, RunOutput& out,
                                 Build& build) {
  Scoped span(spans, "setup");
  const auto t0 = WallClock::now();
  auto rig = std::make_unique<Rig>();
  build(*rig);
  out.setup_s.push_back(seconds_since(t0));
  return rig;
}

/// A set-up-only run: kSetupRepeats timed set-ups, each rig dropped at once
/// and `reset()` run, untimed, before each.
template <typename Rig, typename Build, typename Reset>
void setups_only(SpanRecorder& spans, RunOutput& out, Build& build,
                 Reset&& reset) {
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    reset();
    (void)timed_setup<Rig>(spans, out, build);
  }
}

/// Registry totals over a kernel's subscriptions.
struct SubTotals {
  double matched = 0;
  double filtered = 0;
  double delivered = 0;
};

SubTotals subscription_totals(const de::Kernel& kernel) {
  SubTotals t;
  for (const auto& [id, info] : kernel.subscriptions()) {
    t.matched += static_cast<double>(info.matched);
    t.filtered += static_cast<double>(info.filtered);
    t.delivered += static_cast<double>(info.delivered);
  }
  return t;
}

void sim_layer(const Drive& drive, double requests, RunOutput& out) {
  out.layers["sim.events_per_req"] =
      ratio(static_cast<double>(drive.events), requests);
  out.layers["sim.ns_per_event"] =
      ratio(drive.wall_s * 1e9, static_cast<double>(drive.events));
  out.layers["sim.held_arrival_share"] =
      ratio(static_cast<double>(drive.held), requests);
}

void subscription_layer(const de::Kernel& kernel, double commits,
                        double requests, RunOutput& out) {
  const SubTotals t = subscription_totals(kernel);
  out.layers["de.subscription.evaluations_per_commit"] =
      ratio(t.matched, commits);
  out.layers["de.subscription.selectivity"] = ratio(t.delivered, t.matched);
  out.layers["de.subscription.delivered_per_req"] =
      ratio(t.delivered, requests);
}

void scheduler_layer(core::Runtime& runtime, const RunOutput& timed,
                     RunOutput& out) {
  // A dispatch is a shard-task batch (run inline or at a barrier) or an
  // epoch; the pool does not say which epochs ran inline.
  const core::SchedulerStats s = runtime.scheduler().stats();
  const double batches =
      static_cast<double>(s.barriers) + static_cast<double>(s.inline_runs);
  out.layers["core.scheduler.epochs"] = static_cast<double>(s.epochs);
  out.layers["core.scheduler.tasks_per_barrier"] =
      ratio(static_cast<double>(s.tasks + s.epoch_tasks),
            batches + static_cast<double>(s.epochs));
  out.layers["core.scheduler.inline_share"] =
      ratio(static_cast<double>(s.inline_runs), batches);
  out.layers["core.scheduler.parallel_efficiency"] =
      ratio(timed.cpu_s, timed.timed_wall_s * s.workers);
}

void trace_layer(core::Runtime& runtime, double requests, RunOutput& out) {
  out.layers["core.trace.spans_per_req"] =
      ratio(static_cast<double>(runtime.tracer().spans().size()), requests);
}

/// Nanoseconds per evaluation of one subscription predicate on one payload.
double filter_ns(const std::string& filter, const SharedValue& payload) {
  de::SubscriptionSpec spec;
  spec.filter = filter;
  auto compiled = de::CompiledSubscription::compile(std::move(spec));
  if (!compiled.ok()) return 0;
  const auto& sub = *compiled.value();
  constexpr int kCalls = 20000;
  std::size_t kept = 0;
  const double s = median_seconds(5, [&] {
    for (int i = 0; i < kCalls; ++i) kept += sub.apply(payload).has_value();
  });
  volatile std::size_t sink = kept;
  (void)sink;
  return s * 1e9 / kCalls;
}

/// Median ms of a synchronous store list (probe; drives the clock).
double list_ms(de::ObjectStore& store, const std::string& prefix) {
  return 1e3 * median_seconds(5, [&] {
    (void)store.list_sync("bench", prefix);
  });
}

// --- ride_dispatch -------------------------------------------------------------

struct RideRig {
  std::unique_ptr<core::Runtime> runtime;
  apps::RideHailingApp app;
  std::map<std::string, sim::SimTime> assigned_at;
};

/// A Cast alias value as the integrator builds it from a store list:
/// objects keyed by object key.
Value alias_value(de::ObjectStore& store) {
  Value out = Value::object();
  auto listed = store.list_sync("bench", "");
  if (listed.ok()) {
    for (const auto& obj : listed.value()) out.set(obj.key, obj.data_copy());
  }
  return out;
}

void ride_probes(RideRig& rig, const std::vector<std::uint64_t>& ride_ids,
                 SpanRecorder& spans, RunOutput& out) {
  apps::RideHailingApp& app = rig.app;
  const double n = static_cast<double>(kRides);
  const core::CastStats cast = app.cast->stats();
  const de::ObjectDeStats& de_stats = app.de->stats();
  out.layers["core.cast.passes_per_req"] =
      ratio(static_cast<double>(cast.passes), n);
  out.layers["core.cast.fields_written_per_pass"] =
      ratio(static_cast<double>(cast.fields_written),
            static_cast<double>(cast.passes));
  out.layers["core.cast.events_per_batch"] =
      ratio(static_cast<double>(cast.batched_events),
            static_cast<double>(cast.batches_consumed));
  out.layers["de.object.lists_per_req"] =
      ratio(static_cast<double>(de_stats.lists), n);
  out.layers["de.object.writes_per_req"] =
      ratio(static_cast<double>(de_stats.writes), n);
  subscription_layer(app.de->kernel(), static_cast<double>(de_stats.writes),
                     n, out);
  scheduler_layer(*rig.runtime, out, out);
  trace_layer(*rig.runtime, n, out);

  {
    Scoped span(spans, "probe.cast.run_pass_sync");
    out.layers["core.cast.pass_ms"] =
        1e3 * median_seconds(3, [&] { (void)app.cast->run_pass_sync(); });
  }
  {
    Scoped span(spans, "probe.object.list_sync");
    out.layers["de.object.list_ms"] = list_ms(*app.rides, "ride/");
  }
  {
    // Cast binds every alias's whole store snapshot into a fresh MapEnv
    // per fan-out instance; time one such binding, then each mapping's
    // evaluation on it.
    Scoped span(spans, "probe.expr");
    const Value r = alias_value(*app.rides);
    const Value z = alias_value(*app.zones);
    const Value x = alias_value(*app.dispatch);
    constexpr int kBinds = 50;
    out.layers["expr.env_bind_us"] =
        1e6 / kBinds * median_seconds(5, [&] {
          for (int i = 0; i < kBinds; ++i) {
            expr::MapEnv env;
            env.bind("R", r);
            env.bind("Z", z);
            env.bind("X", x);
          }
        });
    const std::string key = "ride/" + std::to_string(ride_ids.front());
    expr::MapEnv env;
    env.bind("R", r);
    env.bind("Z", z);
    env.bind("X", x);
    env.bind("it", Value(key));
    const Value* target = x.get(key);
    env.bind("this", target != nullptr ? *target : Value::object());
    const auto& mappings = app.cast->dxg().mappings();
    const auto& functions = expr::FunctionRegistry::builtins();
    constexpr int kEvals = 200;
    std::size_t ok = 0;
    const double s = median_seconds(5, [&] {
      for (int i = 0; i < kEvals; ++i) {
        for (const auto& m : mappings) {
          ok += expr::evaluate(*m.compiled, env, functions).ok();
        }
      }
    });
    out.layers["expr.eval_us"] =
        ratio(s * 1e6, static_cast<double>(kEvals * mappings.size()));
    const de::StateObject* ride = app.rides->peek(key);
    if (ride != nullptr && ride->data) {
      out.layers["expr.filter_ns"] =
          filter_ns("status == \"assigned\"", ride->data);
    }
    volatile std::size_t sink = ok;
    (void)sink;
  }
}

void run_ride(const RunConfig& config, SpanRecorder& spans, RunOutput& out) {
  apps::RideHailingOptions opts;
  opts.batch_window = 5 * sim::kMillisecond;
  opts.shards = 1;
  opts.workers = 1;

  auto build = [&](RideRig& r) {
    r.runtime = std::make_unique<core::Runtime>();
    r.app = apps::build_ride_hailing_app(*r.runtime, opts);
    if (r.app.cast == nullptr || r.app.rides == nullptr) return;
    de::SubscriptionSpec spec;
    spec.prefix = "ride/";
    spec.filter = "status == \"assigned\"";
    sim::VirtualClock& clock = r.runtime->clock();
    auto* assigned_at = &r.assigned_at;
    (void)r.app.rides->subscribe(
        "bench", std::move(spec),
        [&clock, assigned_at](const de::WatchEvent& event) {
          assigned_at->emplace(event.object.key, clock.now());
        });
  };
  if (config.setup_only) {
    setups_only<RideRig>(spans, out, build, [] {});
    return;
  }
  Rng rng(config.seed);
  const std::vector<std::uint64_t> ride_ids =
      distinct_draws(rng, kRides, kRideIdSpace);
  auto rig = timed_setup<RideRig>(spans, out, build);
  if (rig->app.cast == nullptr) {
    out.harness_errors.push_back("ride-hailing composition failed to build");
    return;
  }
  apps::RideHailingApp& app = rig->app;
  sim::VirtualClock& clock = rig->runtime->clock();
  const auto due = jittered_due_times(rng, clock.now() + sim::kMillisecond,
                                      kRideInterval, kRideJitter, kRides);
  out.attempted = kRides;
  const Drive drive = drive_open_loop(
      clock, due, "ride.submit", spans, out,
      [&](std::size_t i) { app.submit_ride(ride_ids[i]); });

  std::vector<bool> completed(kRides, false);
  for (std::size_t i = 0; i < kRides; ++i) {
    auto it = rig->assigned_at.find("ride/" + std::to_string(ride_ids[i]));
    if (it == rig->assigned_at.end()) continue;
    completed[i] = true;
    ++out.completed;
    out.latency_ms.push_back(sim::to_ms(it->second - due[i]));
  }
  {
    Scoped span(spans, "check");
    copy_check(check_rides(ride_ids, completed, opts.drivers,
                           view_of(*app.rides), view_of(*app.zones),
                           view_of(*app.dispatch)),
               out);
  }
  if (config.trace) {
    sim_layer(drive, static_cast<double>(kRides), out);
    ride_probes(*rig, ride_ids, spans, out);
  }
}

// --- fleet_rollup --------------------------------------------------------------

struct FleetRig {
  std::unique_ptr<core::Runtime> runtime;
  apps::FleetTelemetryApp app;
};

Reading draw_reading(Rng& rng, std::int64_t ts) {
  Reading r;
  r.device = "dev-" + std::to_string(rng.below(kDeviceSpace));
  r.ts = ts;
  r.speed = static_cast<double>(rng.below(140));
  r.temp = static_cast<double>(60 + rng.below(60));
  return r;
}

Value reading_value(const Reading& r) {
  Value v = Value::object();
  v.set("device", Value(r.device));
  v.set("ts", Value(r.ts));
  v.set("speed", Value(r.speed));
  v.set("temp", Value(r.temp));
  return v;
}

void fleet_probes(FleetRig& rig, const std::vector<Reading>& readings,
                  Rng& rng, SpanRecorder& spans, RunOutput& out) {
  apps::FleetTelemetryApp& app = rig.app;
  const double n = static_cast<double>(kReadings);
  const de::LogDeStats& log = app.log_de->stats();
  const core::SyncStats sync = app.sync->stats();
  out.layers["de.log.appends_per_req"] =
      ratio(static_cast<double>(log.appends), n);
  out.layers["de.log.scanned_per_query"] =
      ratio(static_cast<double>(log.records_scanned),
            static_cast<double>(log.queries));
  out.layers["core.sync.rounds_per_req"] =
      ratio(static_cast<double>(sync.rounds), n);
  out.layers["core.sync.records_processed_per_req"] =
      ratio(static_cast<double>(sync.records_processed), n);
  out.layers["core.sync.rows_out_per_req"] = ratio(
      static_cast<double>(app.rollup_count() + app.alert_count()), n);
  subscription_layer(app.log_de->kernel(), static_cast<double>(log.appends),
                     n, out);
  scheduler_layer(*rig.runtime, out, out);
  trace_layer(*rig.runtime, n, out);

  {
    Scoped span(spans, "probe.log.query_shared_sync");
    const std::uint64_t tail = app.readings->latest_seq();
    const std::uint64_t cursor = tail > 100 ? tail - 100 : 0;
    out.layers["de.log.query_ms"] = 1e3 * median_seconds(5, [&] {
      (void)app.readings->query_shared_sync("bench", {}, cursor);
    });
  }
  {
    Scoped span(spans, "probe.plan.run_plan");
    std::vector<Value> batch;
    batch.reserve(readings.size());
    for (const Reading& r : readings) batch.push_back(reading_value(r));
    double total_s = 0;
    for (const std::string& text :
         {apps::fleet_rollup_pipeline(kWindow),
          std::string(apps::fleet_alert_pipeline())}) {
      auto q = de::parse_query(text);
      if (!q.ok()) continue;
      const de::QueryPlan plan = de::plan_query(q.value());
      std::vector<double> samples;
      for (int rep = 0; rep < 5; ++rep) {
        std::vector<Value> copy = batch;
        const auto t0 = WallClock::now();
        (void)de::run_plan(plan, std::move(copy));
        samples.push_back(seconds_since(t0));
      }
      total_s += median(samples);
    }
    out.layers["de.plan.ns_per_record"] = total_s * 1e9 / n;
  }
  out.layers["expr.filter_ns"] =
      filter_ns("temp > 90", std::make_shared<const Value>(
                                 reading_value(readings.front())));
  {
    Scoped span(spans, "probe.sync.run_round_sync");
    std::vector<Value> more;
    for (std::size_t i = 0; i < kExtraReadings; ++i) {
      more.push_back(reading_value(
          draw_reading(rng, static_cast<std::int64_t>(kReadings + i))));
    }
    app.readings->append_batch("vehicle", std::move(more),
                               [](Result<std::uint64_t>) {});
    const auto t0 = WallClock::now();
    (void)app.sync->run_round_sync();
    out.layers["core.sync.round_ms"] = seconds_since(t0) * 1e3;
    rig.runtime->clock().run_all();
  }
}

/// fleet_rollup (push = true): every append wakes a push round. fleet_pull
/// (push = false): the harness runs a round itself, outside the clock,
/// after every kPullRoundEvery arrivals and once more at quiescence.
void run_fleet(const RunConfig& config, bool push, SpanRecorder& spans,
               RunOutput& out) {
  apps::FleetTelemetryOptions opts;
  opts.push = push;
  opts.window_seconds = kWindow;
  opts.device_space = kDeviceSpace;

  auto build = [&](FleetRig& r) {
    r.runtime = std::make_unique<core::Runtime>();
    r.app = apps::build_fleet_telemetry_app(*r.runtime, opts);
  };
  if (config.setup_only) {
    setups_only<FleetRig>(spans, out, build, [] {});
    return;
  }
  Rng rng(config.seed);
  std::vector<Reading> readings;
  std::vector<Value> payloads;
  for (std::size_t i = 0; i < kReadings; ++i) {
    readings.push_back(draw_reading(rng, static_cast<std::int64_t>(i)));
    payloads.push_back(reading_value(readings.back()));
  }
  auto rig = timed_setup<FleetRig>(spans, out, build);
  if (rig->app.readings == nullptr || rig->app.sync == nullptr) {
    out.harness_errors.push_back("fleet composition failed to build");
    return;
  }
  apps::FleetTelemetryApp& app = rig->app;
  sim::VirtualClock& clock = rig->runtime->clock();
  // Every append's modeled latency is drawn from the Log DE's generator in
  // a fixed order, so without this the latency would not depend on the seed.
  app.log_de->kernel().rng().reseed(config.seed);
  const auto due =
      due_times(clock.now() + sim::kMillisecond, kReadingInterval, kReadings);
  out.attempted = kReadings;
  std::vector<bool> acked(kReadings, false);
  std::vector<sim::SimTime> acked_at(kReadings, -1);
  std::function<void(std::size_t)> pull_round = [&](std::size_t i) {
    if (i % kPullRoundEvery != kPullRoundEvery - 1 && i != kReadings) return;
    Scoped span(spans, "sync.run_round_sync");
    auto round = app.sync->run_round_sync();
    if (!round.ok()) {
      out.harness_errors.push_back("sync round failed: " +
                                   round.error().to_string());
    }
    if (i == kReadings) clock.run_all();
  };
  const Drive drive = drive_open_loop(
      clock, due, "log.append", spans, out,
      [&](std::size_t i) {
        app.readings->append(
            "vehicle", std::move(payloads[i]),
            [&, i](Result<std::uint64_t> r) {
              acked[i] = r.ok();
              acked_at[i] = clock.now();
            });
      },
      push ? nullptr : pull_round);
  for (std::size_t i = 0; i < kReadings; ++i) {
    if (!acked[i]) continue;
    ++out.completed;
    out.latency_ms.push_back(sim::to_ms(acked_at[i] - due[i]));
  }
  {
    Scoped span(spans, "check");
    copy_check(check_fleet(readings, acked, kWindow, rows_of(*app.rollup),
                           rows_of(*app.alerts)),
               out);
  }
  if (config.trace) {
    sim_layer(drive, static_cast<double>(kReadings), out);
    fleet_probes(*rig, readings, rng, spans, out);
  }
}

// --- durable_ingest ------------------------------------------------------------

struct DurableRig {
  // Declared first so it outlives the runtime that journals into it.
  std::unique_ptr<de::persist::Engine> engine;
  std::unique_ptr<core::Runtime> runtime;
  de::ObjectDe* de = nullptr;
  de::ObjectStore* store = nullptr;
  std::string dir;
  std::vector<std::vector<std::int64_t>> deliveries;
};

double dir_mb(const std::string& dir) {
  std::error_code ec;
  std::uintmax_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

Result<StoreView> recovered_view(const std::string& dir,
                                 const std::string& store) {
  de::persist::Engine engine(de::persist::EngineOptions{dir, 0});
  auto image = engine.recover();
  if (!image.ok()) return image.error();
  StoreView out;
  for (const auto& s : image.value().stores) {
    if (s.name != store) continue;
    for (const auto& obj : s.objects) {
      if (obj.data) out.emplace(obj.key, *obj.data);
    }
  }
  return out;
}

void durable_probes(DurableRig& rig, const std::vector<DurableWrite>& writes,
                    double epoch_submit_s, SpanRecorder& spans,
                    RunOutput& out) {
  const double n = static_cast<double>(writes.size());
  const de::ObjectDeStats& de_stats = rig.de->stats();
  const de::persist::EngineStats& p = rig.engine->stats();
  out.layers["de.object.writes_per_req"] =
      ratio(static_cast<double>(de_stats.writes), n);
  out.layers["de.object.lists_per_req"] =
      ratio(static_cast<double>(de_stats.lists), n);
  out.layers["de.object.epoch_submit_us"] =
      epoch_submit_s * 1e6 / static_cast<double>(kEpochs);
  out.layers["de.persist.frames_per_epoch"] =
      ratio(static_cast<double>(p.appends), static_cast<double>(kEpochs));
  out.layers["de.persist.snapshots"] = static_cast<double>(p.snapshots);
  out.layers["de.persist.dir_mb"] = dir_mb(rig.dir);
  subscription_layer(rig.de->kernel(), static_cast<double>(de_stats.writes),
                     n, out);
  scheduler_layer(*rig.runtime, out, out);
  trace_layer(*rig.runtime, n, out);

  {
    Scoped span(spans, "probe.object.list_sync");
    out.layers["de.object.list_ms"] = list_ms(*rig.store, "");
  }
  out.layers["expr.filter_ns"] = filter_ns(
      "bucket == 7",
      std::make_shared<const Value>(durable_payload(0, writes.front())));
  {
    Scoped span(spans, "probe.persist.recover");
    out.layers["de.persist.recover_ms"] = 1e3 * median_seconds(3, [&] {
      de::persist::Engine fresh(de::persist::EngineOptions{rig.dir, 0});
      (void)fresh.recover();
    });
  }
  {
    Scoped span(spans, "probe.persist.snapshot_now");
    out.layers["de.persist.snapshot_ms"] =
        1e3 * median_seconds(3, [&] { (void)rig.de->snapshot_now(); });
  }
}

void run_durable(const RunConfig& config, SpanRecorder& spans,
                 RunOutput& out) {
  const int workers = static_cast<int>(
      std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
  const std::string dir =
      config.scratch + "/durable-" + std::to_string(::getpid());

  // A fresh, empty persistence directory is the harness's input, made
  // before each timed set-up. Set-ups reuse one directory: creating a new
  // one per set-up makes the file system slower the more it has made.
  auto empty_dir = [&] {
    std::filesystem::create_directories(dir);
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      std::filesystem::remove_all(entry.path());
    }
  };
  auto build = [&](DurableRig& r) {
    r.dir = dir;
    r.engine = std::make_unique<de::persist::Engine>(
        de::persist::EngineOptions{r.dir, kSnapshotEvery});
    r.runtime = std::make_unique<core::Runtime>();
    r.runtime->set_shards(4);
    r.runtime->set_workers(workers);
    de::ObjectDeProfile profile = de::ObjectDeProfile::redis();
    profile.durable = true;
    r.de = &r.runtime->add_object_de("ingest", profile);
    if (!r.de->enable_persistence(r.engine.get()).ok()) return;
    r.store = &r.de->create_store("ingest");
    r.deliveries.resize(kSubscribers);
    for (std::size_t k = 0; k < kSubscribers; ++k) {
      de::SubscriptionSpec spec;
      spec.filter = "bucket == " + std::to_string(k);
      auto* sink = &r.deliveries[k];
      (void)r.store->subscribe(
          "sub-" + std::to_string(k), std::move(spec),
          [sink](const de::WatchEvent& event) {
            const Value* seq =
                event.object.data ? event.object.data->get("seq")
                                  : nullptr;
            sink->push_back(seq != nullptr && seq->is_int()
                                ? seq->as_int()
                                : -1);
          });
    }
  };
  if (config.setup_only) {
    setups_only<DurableRig>(spans, out, build, empty_dir);
    std::filesystem::remove_all(dir);
    return;
  }
  Rng rng(config.seed);
  std::vector<std::string> keys;
  for (std::uint64_t k : distinct_draws(rng, kKeys, ~0ULL)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "key-%016llx",
                  static_cast<unsigned long long>(k));
    keys.emplace_back(buf);
  }
  const std::size_t total = kEpochs * kEpochWrites;
  std::vector<DurableWrite> writes(total);
  for (DurableWrite& w : writes) {
    w.key = static_cast<std::uint32_t>(rng.below(kKeys));
    w.bucket = static_cast<std::int64_t>(rng.below(kBuckets));
    w.reading = static_cast<std::int64_t>(rng.below(1000000));
  }
  empty_dir();
  auto rig = timed_setup<DurableRig>(spans, out, build);
  if (rig->store == nullptr) {
    out.harness_errors.push_back("durable DE failed to open persistence");
    rig.reset();
    std::filesystem::remove_all(dir);
    return;
  }
  sim::VirtualClock& clock = rig->runtime->clock();
  const auto due =
      due_times(clock.now() + sim::kMillisecond, kEpochInterval, kEpochs);
  out.attempted = total;
  std::vector<bool> acked(total, false);
  std::vector<sim::SimTime> acked_at(kEpochs, -1);
  double epoch_submit_s = 0;
  const Drive drive = drive_open_loop(
      clock, due, "object.put_epoch", spans, out, [&](std::size_t e) {
        // Each epoch's writes are built when it arrives, so the harness
        // never holds more than one epoch of payloads.
        std::vector<de::EpochWrite> epoch(kEpochWrites);
        for (std::size_t j = 0; j < kEpochWrites; ++j) {
          const std::size_t i = e * kEpochWrites + j;
          epoch[j].key = keys[writes[i].key];
          epoch[j].data =
              durable_payload(static_cast<std::int64_t>(i), writes[i]);
        }
        const auto t0 = WallClock::now();
        rig->store->put_epoch(
            "ingest", std::move(epoch),
            [&, e](std::vector<Result<std::uint64_t>> results) {
              for (std::size_t j = 0;
                   j < results.size() && j < kEpochWrites; ++j) {
                acked[e * kEpochWrites + j] = results[j].ok();
              }
              acked_at[e] = clock.now();
            });
        epoch_submit_s += seconds_since(t0);
      });
  for (std::size_t i = 0; i < total; ++i) out.completed += acked[i];
  for (std::size_t e = 0; e < kEpochs; ++e) {
    if (acked_at[e] >= 0) out.latency_ms.push_back(sim::to_ms(acked_at[e] - due[e]));
  }
  {
    Scoped span(spans, "check");
    auto recovered = recovered_view(rig->dir, "ingest");
    if (!recovered.ok()) {
      out.harness_errors.push_back("recovery failed: " +
                                   recovered.error().to_string());
    } else {
      copy_check(check_durable(keys, writes, acked, view_of(*rig->store),
                               recovered.value(), rig->deliveries),
                 out);
    }
  }
  if (config.trace) {
    sim_layer(drive, static_cast<double>(total), out);
    durable_probes(*rig, writes, epoch_submit_s, spans, out);
  }
  rig.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace

RunOutput run_workload(const RunConfig& config) {
  RunOutput out;
  SpanRecorder spans(config.trace);
  if (config.workload == "ride_dispatch") {
    run_ride(config, spans, out);
  } else if (config.workload == "fleet_rollup") {
    run_fleet(config, /*push=*/true, spans, out);
  } else if (config.workload == "fleet_pull") {
    run_fleet(config, /*push=*/false, spans, out);
  } else if (config.workload == "durable_ingest") {
    run_durable(config, spans, out);
  } else {
    out.harness_errors.push_back("unknown workload " + config.workload);
    return out;
  }
  if (config.trace) {
    out.span_totals = spans.totals();
    out.span_file = config.scratch + "/spans-" + config.workload + "-seed" +
                    std::to_string(config.seed) + ".json";
    if (!spans.write_json(out.span_file)) {
      out.harness_errors.push_back("cannot write " + out.span_file);
    }
  }
  return out;
}

}  // namespace perfbench
