#include "checks.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace perfbench {

using knactor::common::SharedValue;
using knactor::common::Value;

namespace {

constexpr std::size_t kMaxNotes = 8;

const Value* field(const Value* obj, const char* name) {
  if (obj == nullptr || !obj->is_object()) return nullptr;
  return obj->get(name);
}

bool number_of(const Value* v, double* out) {
  if (v == nullptr || !v->is_number()) return false;
  *out = v->as_number();
  return true;
}

std::string string_of(const Value* v) {
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

bool close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

const Value* find(const StoreView& view, const std::string& key) {
  auto it = view.find(key);
  return it == view.end() ? nullptr : &it->second;
}

}  // namespace

void CheckResult::note(const std::string& what) {
  if (notes.size() < kMaxNotes) notes.push_back(what);
}

// --- ride_dispatch ----------------------------------------------------------

namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::string reference_driver(std::uint64_t ride_id, int fleet) {
  const std::string key = "ride/" + std::to_string(ride_id);
  return "driver-" +
         std::to_string(fnv1a(key) % static_cast<std::uint64_t>(fleet));
}

CheckResult check_rides(const std::vector<std::uint64_t>& ride_ids,
                        const std::vector<bool>& completed, int fleet,
                        const StoreView& rides, const StoreView& zones,
                        const StoreView& dispatch) {
  CheckResult out;
  for (std::size_t i = 0; i < ride_ids.size(); ++i) {
    const std::uint64_t id = ride_ids[i];
    const std::string key = "ride/" + std::to_string(id);
    auto fail = [&](const std::string& why) {
      ++out.failed;
      out.note(key + ": " + why);
    };
    if (i >= completed.size() || !completed[i]) {
      fail("assignment never observed");
      continue;
    }
    const Value* r = find(rides, key);
    const Value* x = find(dispatch, key);
    if (r == nullptr) {
      fail("ride object missing");
      continue;
    }
    if (x == nullptr) {
      fail("dispatch object missing");
      continue;
    }
    const std::string rider = string_of(field(r, "rider"));
    if (rider != "rider-" + std::to_string(id)) {
      fail("ride rider is '" + rider + "'");
      continue;
    }
    if (string_of(field(x, "rider")) != rider) {
      fail("X.rider != R.rider");
      continue;
    }
    const std::string zone = string_of(field(r, "zone"));
    if (zone.empty() || string_of(field(x, "zone")) != zone) {
      fail("X.zone != R.zone");
      continue;
    }
    const std::string zone_key = string_of(field(r, "zoneKey"));
    const Value* z = find(zones, zone_key);
    double surge = 0, x_surge = 0, fare = 0, quoted = 0;
    if (zone_key != "zone/" + zone || !number_of(field(z, "surge"), &surge)) {
      fail("zone " + zone_key + " missing or without surge");
      continue;
    }
    if (!number_of(field(x, "surge"), &x_surge) || !close(x_surge, surge)) {
      fail("X.surge != Z.surge");
      continue;
    }
    if (!number_of(field(r, "fare"), &fare) ||
        !number_of(field(x, "quoted"), &quoted) ||
        !close(quoted, fare * surge)) {
      fail("X.quoted != fare * surge");
      continue;
    }
    const std::string driver = reference_driver(id, fleet);
    if (string_of(field(x, "driver")) != driver ||
        string_of(field(x, "status")) != "assigned") {
      fail("dispatch decision is not " + driver + "/assigned");
      continue;
    }
    if (string_of(field(r, "driver")) != driver ||
        string_of(field(r, "status")) != "assigned") {
      fail("ride did not converge to " + driver + "/assigned");
      continue;
    }
  }
  return out;
}

// --- fleet_rollup -----------------------------------------------------------

namespace {

struct WindowAgg {
  double n = 0;
  double speed_sum = 0;
  double max_temp = -1e300;
};

std::string window_key(const std::string& device, double wstart) {
  return device + "|" + std::to_string(std::llround(wstart));
}

}  // namespace

CheckResult check_fleet(const std::vector<Reading>& readings,
                        const std::vector<bool>& acked, double window,
                        const std::vector<SharedValue>& rollup,
                        const std::vector<SharedValue>& alerts) {
  CheckResult out;
  std::map<std::string, WindowAgg> want;
  for (const Reading& r : readings) {
    const double wstart =
        std::floor(static_cast<double>(r.ts) / window) * window;
    WindowAgg& agg = want[window_key(r.device, wstart)];
    agg.n += 1;
    agg.speed_sum += r.speed;
    agg.max_temp = std::max(agg.max_temp, r.temp);
  }

  std::map<std::string, WindowAgg> got;
  for (const SharedValue& handle : rollup) {
    const Value& row = *handle;
    double wstart = 0, n = 0, avg = 0, max_temp = 0;
    const std::string device = string_of(field(&row, "device"));
    if (device.empty() || !number_of(field(&row, "wstart"), &wstart) ||
        !number_of(field(&row, "n"), &n) ||
        !number_of(field(&row, "avg_speed"), &avg) ||
        !number_of(field(&row, "max_temp"), &max_temp)) {
      ++out.stray;
      out.note("malformed rollup row");
      continue;
    }
    const std::string key = window_key(device, wstart);
    if (want.find(key) == want.end()) {
      ++out.stray;
      out.note("rollup row for unknown window " + key);
      continue;
    }
    WindowAgg& agg = got[key];
    agg.n += n;
    agg.speed_sum += avg * n;
    agg.max_temp = std::max(agg.max_temp, max_temp);
  }

  // Alerts keyed by (device, ts); ts is unique per reading.
  std::map<std::string, std::vector<const Value*>> alert_rows;
  std::set<std::string> reading_keys;
  for (const Reading& r : readings) {
    reading_keys.insert(r.device + "|" + std::to_string(r.ts));
  }
  for (const SharedValue& handle : alerts) {
    const Value& row = *handle;
    double ts = 0;
    const std::string key = string_of(field(&row, "device")) + "|" +
                            (number_of(field(&row, "ts"), &ts)
                                 ? std::to_string(std::llround(ts))
                                 : std::string("?"));
    if (reading_keys.count(key) == 0) {
      ++out.stray;
      out.note("alert for unknown reading " + key);
      continue;
    }
    alert_rows[key].push_back(&row);
  }

  for (std::size_t i = 0; i < readings.size(); ++i) {
    const Reading& r = readings[i];
    const std::string rkey = r.device + "|" + std::to_string(r.ts);
    auto fail = [&](const std::string& why) {
      ++out.failed;
      out.note("reading " + std::to_string(i) + " (" + rkey + "): " + why);
    };
    if (i >= acked.size() || !acked[i]) {
      fail("append not acknowledged");
      continue;
    }
    const double wstart =
        std::floor(static_cast<double>(r.ts) / window) * window;
    const std::string wkey = window_key(r.device, wstart);
    const WindowAgg& w = want[wkey];
    auto git = got.find(wkey);
    if (git == got.end()) {
      fail("no rollup row for window " + wkey);
      continue;
    }
    const WindowAgg& g = git->second;
    if (g.n != w.n) {
      fail("window n=" + std::to_string(g.n) + ", want " +
           std::to_string(w.n));
      continue;
    }
    if (!close(g.speed_sum, w.speed_sum) || g.max_temp != w.max_temp) {
      fail("window avg_speed/max_temp mismatch");
      continue;
    }
    auto ait = alert_rows.find(rkey);
    const std::size_t n_alerts = ait == alert_rows.end() ? 0 : ait->second.size();
    if (r.temp <= kAlertTemp) {
      if (n_alerts != 0) fail("alert for a reading below the threshold");
      continue;
    }
    if (n_alerts != 1) {
      fail(std::to_string(n_alerts) + " alerts, want 1");
      continue;
    }
    const Value* alert = ait->second.front();
    const std::string want_sev =
        r.temp > kCriticalTemp ? "critical" : "warning";
    double temp = 0;
    if (string_of(field(alert, "severity")) != want_sev ||
        !number_of(field(alert, "temp"), &temp) || temp != r.temp) {
      fail("alert severity/temp mismatch");
    }
  }
  return out;
}

// --- durable_ingest ---------------------------------------------------------

Value durable_payload(std::int64_t seq, const DurableWrite& write) {
  Value v = Value::object();
  v.set("seq", Value(seq));
  v.set("bucket", Value(write.bucket));
  v.set("reading", Value(write.reading));
  return v;
}

CheckResult check_durable(
    const std::vector<std::string>& keys,
    const std::vector<DurableWrite>& writes, const std::vector<bool>& acked,
    const StoreView& live, const StoreView& recovered,
    const std::vector<std::vector<std::int64_t>>& deliveries) {
  CheckResult out;
  std::vector<std::uint8_t> bad(writes.size(), 0);
  std::vector<std::uint32_t> hits(writes.size(), 0);
  auto mark = [&](std::size_t i, const std::string& why) {
    if (!bad[i]) out.note("write " + std::to_string(i) + " (" +
                          keys[writes[i].key] + "): " + why);
    bad[i] = 1;
  };

  for (std::size_t i = 0; i < writes.size(); ++i) {
    if (i >= acked.size() || !acked[i]) mark(i, "not acknowledged OK");
  }

  std::map<std::string, std::size_t> last;
  for (std::size_t i = 0; i < writes.size(); ++i) {
    last[keys[writes[i].key]] = i;
  }
  for (const auto& [key, i] : last) {
    const Value want =
        durable_payload(static_cast<std::int64_t>(i), writes[i]);
    const Value* got = find(live, key);
    if (got == nullptr || !(*got == want)) {
      mark(i, "live store does not hold the last write");
    }
    got = find(recovered, key);
    if (got == nullptr || !(*got == want)) {
      mark(i, "recovered image does not hold the last write");
    }
  }
  for (const auto* view : {&live, &recovered}) {
    for (const auto& [key, value] : *view) {
      if (last.find(key) == last.end()) {
        ++out.stray;
        out.note("unexpected key " + key);
      }
    }
  }

  for (std::size_t k = 0; k < deliveries.size(); ++k) {
    for (std::int64_t seq : deliveries[k]) {
      if (seq < 0 || static_cast<std::size_t>(seq) >= writes.size()) {
        ++out.stray;
        out.note("delivery of unknown write " + std::to_string(seq));
        continue;
      }
      const auto i = static_cast<std::size_t>(seq);
      if (writes[i].bucket != static_cast<std::int64_t>(k)) {
        mark(i, "delivered to subscriber " + std::to_string(k));
      } else {
        ++hits[i];
      }
    }
  }
  for (std::size_t i = 0; i < writes.size(); ++i) {
    const auto bucket = writes[i].bucket;
    const bool subscribed =
        bucket >= 0 && static_cast<std::size_t>(bucket) < deliveries.size();
    if (subscribed && hits[i] != 1) {
      mark(i, "delivered " + std::to_string(hits[i]) + " times to its bucket");
    }
  }
  for (std::uint8_t b : bad) out.failed += b;
  return out;
}

}  // namespace perfbench
