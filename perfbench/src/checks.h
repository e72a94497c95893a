// Output checks for the benchmark workloads. Each checker compares what the
// composition produced against a reference the harness computes from the
// generated inputs alone, and attributes every mismatch to the request
// (ride, reading, write) it belongs to. The checkers are pure functions over
// plain data so perfbench_checks_test can feed them hand-made outputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/value.h"

namespace perfbench {

/// Store contents keyed by object key.
using StoreView = std::map<std::string, knactor::common::Value>;

struct CheckResult {
  /// Requests whose output disagrees with the reference.
  std::size_t failed = 0;
  /// Output rows that belong to no request (duplicates of unknown keys,
  /// deliveries of writes that were never made). Any stray makes the run
  /// incorrect even though no request is charged with it.
  std::size_t stray = 0;
  /// The first few mismatches, for the human-readable report.
  std::vector<std::string> notes;

  [[nodiscard]] bool ok() const { return failed == 0 && stray == 0; }
  void note(const std::string& what);
};

// --- ride_dispatch ----------------------------------------------------------

/// The driver the dispatch policy must assign to `ride/<id>`: FNV-1a of
/// the key modulo the fleet size.
std::string reference_driver(std::uint64_t ride_id, int fleet);

/// At quiescence every DXG mapping holds for every submitted ride: the
/// dispatch object copies the ride's zone and rider, carries its zone's
/// current surge and quotes fare x surge, the assigned driver is the
/// policy's choice, and the ride carries that driver with status
/// "assigned". A ride whose assignment was never observed (`completed`)
/// fails too.
CheckResult check_rides(const std::vector<std::uint64_t>& ride_ids,
                        const std::vector<bool>& completed, int fleet,
                        const StoreView& rides,
                        const StoreView& zones, const StoreView& dispatch);

// --- fleet_rollup -----------------------------------------------------------

struct Reading {
  std::string device;
  std::int64_t ts = 0;
  double speed = 0;
  double temp = 0;
};

/// Alert threshold and severity rule of the alert route.
constexpr double kAlertTemp = 90;
constexpr double kCriticalTemp = 110;

/// Rollup rows merged per (device, window start) must match the reference
/// count, mean speed and max temperature exactly; a window may be split
/// across rows (mini-batches) but never counted twice. Alerts are exactly
/// the readings hotter than kAlertTemp, each once, with the right severity.
/// A reading fails if its append was not acknowledged OK, if its window
/// mismatches, or if its alert is missing, duplicated or wrong.
CheckResult check_fleet(const std::vector<Reading>& readings,
                        const std::vector<bool>& acked, double window,
                        const std::vector<knactor::common::SharedValue>& rollup,
                        const std::vector<knactor::common::SharedValue>& alerts);

// --- durable_ingest ---------------------------------------------------------

/// One generated write, kept compact: the payload is rebuilt from it only
/// where it is needed (at submit time and at check time), so the harness's
/// own copy of the input stays small next to the program's memory.
struct DurableWrite {
  std::uint32_t key = 0;  // index into the run's key list
  std::int64_t bucket = 0;
  std::int64_t reading = 0;
};

/// The payload of write number `seq`: {seq, bucket, reading}.
knactor::common::Value durable_payload(std::int64_t seq,
                                       const DurableWrite& write);

/// Every write is acknowledged OK; the live store and the image recovered
/// from disk both hold the last write per key; subscriber k (filter
/// `bucket == k`) received every write of bucket k exactly once and no
/// other write. `deliveries[k]` lists the `seq` of each delivered payload.
CheckResult check_durable(const std::vector<std::string>& keys,
                          const std::vector<DurableWrite>& writes,
                          const std::vector<bool>& acked,
                          const StoreView& live, const StoreView& recovered,
                          const std::vector<std::vector<std::int64_t>>&
                              deliveries);

}  // namespace perfbench
