// Epoch-merge differential suite (`ctest -L shard`): the parallel commit
// pipeline (ObjectStore::put_epoch) must be *observably identical* to the
// 1-shard serial oracle for every shard/worker configuration — byte-equal
// store state, per-op results, watch-event order, batched-watch
// composition, audit trail, lineage records, DE stats, and (for the full
// retail composition) metrics and trace shape.
//
// Three layers of evidence:
//   * Epoch differential — randomized epoch workloads (100 seeds, with
//     conflicts, denials-by-version, deletes-of-missing, and within-epoch
//     overwrite chains) across shards {1,2,8} x workers {1,4,8}.
//   * Legacy equivalence — on failure-free epochs the pipeline commits
//     exactly what the per-op put/patch/remove path would have: same
//     versions, same commit seqs, same audit, same lineage.
//   * Runtime differential — the retail composition with epoch_commit on,
//     comparing state, metrics, traces, and stats across configs.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "apps/retail_knactor.h"
#include "common/worker_pool.h"
#include "core/runtime.h"
#include "de/object.h"

#include "../integration/chaos_harness.h"

namespace knactor {
namespace {

using common::Value;

struct EpochConfig {
  std::size_t shards = 1;
  int workers = 1;
};

// The matrix under test; index 0 is the serial oracle.
const EpochConfig kConfigs[] = {
    {1, 1}, {2, 1}, {2, 4}, {2, 8}, {8, 1}, {8, 4}, {8, 8},
};

std::string config_name(const EpochConfig& c) {
  return std::to_string(c.shards) + "s/" + std::to_string(c.workers) + "w";
}

char event_char(de::WatchEventType t) {
  switch (t) {
    case de::WatchEventType::kAdded: return 'A';
    case de::WatchEventType::kModified: return 'M';
    case de::WatchEventType::kDeleted: return 'D';
  }
  return '?';
}

std::string stats_digest(const de::ObjectDeStats& s) {
  std::ostringstream out;
  out << "r=" << s.reads << " w=" << s.writes << " d=" << s.deletes
      << " we=" << s.watch_events << " wb=" << s.watch_batches
      << " wc=" << s.watch_events_coalesced << " pd=" << s.permission_denials
      << " vc=" << s.version_conflicts << " ur=" << s.unavailable_rejections;
  return out.str();
}

std::string audit_digest(const de::ObjectDe& de) {
  std::string out;
  for (const auto& e : de.audit_log()) {
    out += std::to_string(e.time) + ":" + e.principal + ":" +
           std::to_string(static_cast<int>(e.verb)) + ":" + e.store + "/" +
           e.key + (e.allowed ? "+" : "-") + " ";
  }
  return out;
}

std::string lineage_digest(de::ObjectDe& de) {
  std::string out;
  for (const auto& rec : de.kernel().provenance().records()) {
    out += rec.op + "@" + rec.stage + ":" + rec.output.store + "/" +
           rec.output.key + ":" + std::to_string(rec.output.version) + "<";
    for (const auto& in : rec.inputs) {
      out += in.store + "/" + in.key + ":" + std::to_string(in.version) + ",";
    }
    out += ">t" + std::to_string(rec.trace_id) + " ";
  }
  return out;
}

// Everything an epoch run exposes to an observer.
struct Observation {
  std::string state;     // canonical store fingerprint
  std::string results;   // per-op Result values/errors, submission order
  std::string watch_log; // per-event deliveries with version + commit seq
  std::string batch_log; // batched deliveries (boundaries + order)
  std::string audit;     // full audit trail
  std::string lineage;   // provenance ring contents
  std::string stats;     // ObjectDeStats digest
};

// One randomized epoch workload. All randomness comes from `seed`; the
// shard/worker configuration must not change anything observable.
Observation run_epoch_workload(std::uint32_t seed, const EpochConfig& config) {
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::apiserver());  // durable
  common::WorkerPool pool(config.workers);
  de.set_shards(config.shards);
  de.set_worker_pool(&pool);
  de.enable_audit(4096);
  de.kernel().enable_provenance(4096);

  de::ObjectStore& orders = de.create_store("orders");
  de::ObjectStore& inventory = de.create_store("inventory");

  Observation obs;
  (void)orders.watch("observer", "", [&](const de::WatchEvent& e) {
    obs.watch_log += event_char(e.type);
    obs.watch_log += e.object.key + ":" + std::to_string(e.object.version) +
                     "#" + std::to_string(e.ctx.commit_seq) + " ";
  });
  (void)orders.watch_batch(
      "observer", "", 5 * sim::kMillisecond, [&](const de::WatchBatch& b) {
        obs.batch_log += "[c" + std::to_string(b.commits) + "|";
        for (const auto& e : b.events) {
          obs.batch_log += event_char(e.type);
          obs.batch_log += e.object.key + ":" +
                           std::to_string(e.object.version) + " ";
        }
        obs.batch_log += "] ";
      });

  std::mt19937 rng(seed);
  auto key = [&](const char* prefix) {
    return std::string(prefix) + "-" + std::to_string(rng() % 8);
  };

  const int epochs = 6;
  for (int e = 0; e < epochs; ++e) {
    std::vector<de::EpochWrite> writes;
    const int ops = 1 + static_cast<int>(rng() % 12);
    for (int i = 0; i < ops; ++i) {
      de::EpochWrite w;
      w.key = key(rng() % 3 == 0 ? "inv" : "ord");
      switch (rng() % 5) {
        case 0:  // upsert
          w.data = Value::object({{"e", e}, {"op", i},
                                  {"qty", static_cast<int>(rng() % 50)}});
          break;
        case 1:  // patch
          w.data = Value::object({{"patched", i}});
          w.merge = true;
          break;
        case 2:  // delete (missing keys fail NotFound — a stamp hole)
          w.remove = true;
          break;
        case 3:  // guarded write; mismatches conflict (another stamp hole)
          w.data = Value::object({{"guarded", i}});
          w.expected_version = rng() % 4 == 0 ? 1 : 0;
          break;
        default:  // within-epoch overwrite chain on a pinned key
          w.key = "ord-0";
          w.data = Value::object({{"chain", i}});
          w.merge = rng() % 2 == 0;
          break;
      }
      writes.push_back(std::move(w));
    }
    de::ObjectStore& store = rng() % 4 == 0 ? inventory : orders;
    store.put_epoch("writer", std::move(writes),
                    [&obs](std::vector<common::Result<std::uint64_t>> rs) {
                      for (const auto& r : rs) {
                        obs.results += r.ok()
                                           ? std::to_string(r.value())
                                           : std::string(r.error().code_name());
                        obs.results += " ";
                      }
                      obs.results += "| ";
                    });
    // Interleave execution with submission so flushes overlap epochs.
    if (rng() % 2 == 0) {
      for (int s = 0; s < 4 && clock.step(); ++s) {
      }
    }
  }
  while (clock.step()) {
  }

  obs.state = chaos::fingerprint_stores({&orders, &inventory});
  obs.audit = audit_digest(de);
  obs.lineage = lineage_digest(de);
  obs.stats = stats_digest(de.stats());
  return obs;
}

TEST(EpochMerge, MatchesSerialOracleAcross100Seeds) {
  for (std::uint32_t seed = 1; seed <= 100; ++seed) {
    Observation oracle = run_epoch_workload(seed, kConfigs[0]);
    // The workload must actually exercise the surfaces under test.
    ASSERT_FALSE(oracle.state.empty());
    ASSERT_FALSE(oracle.results.empty()) << "seed " << seed;
    ASSERT_FALSE(oracle.batch_log.empty()) << "seed " << seed;
    for (std::size_t c = 1; c < std::size(kConfigs); ++c) {
      Observation got = run_epoch_workload(seed, kConfigs[c]);
      const std::string where =
          "seed " + std::to_string(seed) + " config " + config_name(kConfigs[c]);
      EXPECT_EQ(got.state, oracle.state) << where;
      EXPECT_EQ(got.results, oracle.results) << where;
      EXPECT_EQ(got.watch_log, oracle.watch_log) << where;
      EXPECT_EQ(got.batch_log, oracle.batch_log) << where;
      EXPECT_EQ(got.audit, oracle.audit) << where;
      EXPECT_EQ(got.lineage, oracle.lineage) << where;
      EXPECT_EQ(got.stats, oracle.stats) << where;
      if (got.state != oracle.state) return;  // one dump is enough
    }
  }
}

// Re-running the same config twice must be bit-stable.
TEST(EpochMerge, RepeatedRunsAreBitStable) {
  for (const auto& config : kConfigs) {
    Observation a = run_epoch_workload(42, config);
    Observation b = run_epoch_workload(42, config);
    EXPECT_EQ(a.state, b.state) << config_name(config);
    EXPECT_EQ(a.watch_log, b.watch_log) << config_name(config);
    EXPECT_EQ(a.batch_log, b.batch_log) << config_name(config);
    EXPECT_EQ(a.audit, b.audit) << config_name(config);
    EXPECT_EQ(a.stats, b.stats) << config_name(config);
  }
}

// ---------------------------------------------------------------------------
// Legacy equivalence: on failure-free epochs, put_epoch commits exactly
// what the per-op path would have — versions, commit seqs, watch order,
// audit, and lineage all byte-equal. (Failures are where the paths are
// allowed to diverge: the epoch pre-assigns stamps, so a failed op leaves
// holes the per-op path would not.)
// ---------------------------------------------------------------------------

struct LegacyObservation {
  std::string state;
  std::string watch_log;
  std::string batch_log;
  std::string audit;
  std::string lineage;
};

LegacyObservation run_mixed(std::uint32_t seed, bool use_epoch) {
  sim::VirtualClock clock;
  // Instant profile: zero latency makes per-op submission order == per-op
  // execution order, so the two paths are comparable event-for-event.
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  de.enable_audit(4096);
  de.kernel().enable_provenance(4096);
  de::ObjectStore& store = de.create_store("items");

  LegacyObservation obs;
  (void)store.watch("observer", "", [&](const de::WatchEvent& e) {
    obs.watch_log += event_char(e.type);
    obs.watch_log += e.object.key + ":" + std::to_string(e.object.version) +
                     "#" + std::to_string(e.ctx.commit_seq) + " ";
  });
  (void)store.watch_batch(
      "observer", "", 5 * sim::kMillisecond, [&](const de::WatchBatch& b) {
        obs.batch_log += "[c" + std::to_string(b.commits) + "|";
        for (const auto& e : b.events) {
          obs.batch_log += event_char(e.type);
          obs.batch_log += e.object.key + ":" +
                           std::to_string(e.object.version) + " ";
        }
        obs.batch_log += "] ";
      });

  std::mt19937 rng(seed);
  const int rounds = 5;
  for (int round = 0; round < rounds; ++round) {
    // Build a failure-free batch: puts and patches on a small key space,
    // plus deletes of keys known to exist.
    std::vector<de::EpochWrite> writes;
    const int ops = 1 + static_cast<int>(rng() % 8);
    for (int i = 0; i < ops; ++i) {
      de::EpochWrite w;
      w.key = "k-" + std::to_string(rng() % 6);
      if (rng() % 3 == 0 && store.peek(w.key) != nullptr) {
        // Delete an existing key — but only if no earlier op in this batch
        // already deleted it (the second delete would fail NotFound).
        bool deleted_earlier = false;
        for (const auto& prior : writes) {
          if (prior.key == w.key && prior.remove) deleted_earlier = true;
        }
        if (!deleted_earlier) {
          w.remove = true;
          writes.push_back(std::move(w));
          continue;
        }
      }
      bool recreated = false;
      for (const auto& prior : writes) {
        if (prior.key == w.key) recreated = true;
      }
      w.merge = !recreated && rng() % 2 == 0;
      w.data = Value::object({{"round", round}, {"op", i}});
      writes.push_back(std::move(w));
    }
    if (use_epoch) {
      auto results = store.put_epoch_sync("writer", std::move(writes));
      for (const auto& r : results) {
        EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().to_string());
      }
    } else {
      for (auto& w : writes) {
        if (w.remove) {
          EXPECT_TRUE(store.remove_sync("writer", w.key).ok());
        } else if (w.merge) {
          EXPECT_TRUE(store.patch_sync("writer", w.key, std::move(w.data)).ok());
        } else {
          EXPECT_TRUE(store.put_sync("writer", w.key, std::move(w.data)).ok());
        }
      }
    }
    while (clock.step()) {
    }
  }

  obs.state = chaos::fingerprint_stores({&store});
  obs.audit = audit_digest(de);
  obs.lineage = lineage_digest(de);
  return obs;
}

TEST(EpochMerge, FailureFreeEpochsMatchPerOpPath) {
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    LegacyObservation legacy = run_mixed(seed, /*use_epoch=*/false);
    LegacyObservation epoch = run_mixed(seed, /*use_epoch=*/true);
    const std::string where = "seed " + std::to_string(seed);
    EXPECT_EQ(epoch.state, legacy.state) << where;
    EXPECT_EQ(epoch.watch_log, legacy.watch_log) << where;
    EXPECT_EQ(epoch.batch_log, legacy.batch_log) << where;
    EXPECT_EQ(epoch.audit, legacy.audit) << where;
    EXPECT_EQ(epoch.lineage, legacy.lineage) << where;
  }
}

// ---------------------------------------------------------------------------
// Runtime differential: the retail composition with epoch_commit on.
// ---------------------------------------------------------------------------

struct RuntimeObservation {
  std::string order;
  std::string state;
  std::string metrics;
  std::string traces;
};

RuntimeObservation run_retail_epoch(const EpochConfig& config, double cost) {
  core::Runtime rt;
  apps::RetailKnactorOptions options;
  options.batch_window = 2 * sim::kMillisecond;
  options.epoch_commit = true;
  options.metrics = &rt.metrics();
  options.shards = config.shards;
  options.workers = config.workers;
  apps::RetailKnactorApp app = apps::build_retail_knactor_app(rt, options);

  RuntimeObservation obs;
  auto order = app.place_order_sync(apps::sample_order(cost));
  obs.order = order.ok() ? chaos::canonical_fingerprint(order.value())
                         : order.error().to_string();
  obs.state = chaos::fingerprint_stores(
      {app.checkout_store, app.shipping_store, app.payment_store});
  std::ostringstream metrics;
  for (const auto& [name, value] : rt.metrics().all()) {
    metrics << name << "=" << value << ";";
  }
  obs.metrics = metrics.str();
  std::ostringstream traces;
  for (const auto& span : rt.tracer().spans()) {
    traces << span.name << "@" << span.start << "-" << span.end << ";";
  }
  obs.traces = traces.str();
  return obs;
}

TEST(EpochMerge, RetailEpochCommitMatchesSerialOracle) {
  for (double cost : {40.0, 900.0}) {
    RuntimeObservation oracle = run_retail_epoch(kConfigs[0], cost);
    ASSERT_FALSE(oracle.state.empty());
    for (std::size_t c = 1; c < std::size(kConfigs); ++c) {
      RuntimeObservation got = run_retail_epoch(kConfigs[c], cost);
      const std::string where =
          "cost " + std::to_string(cost) + " config " + config_name(kConfigs[c]);
      EXPECT_EQ(got.order, oracle.order) << where;
      EXPECT_EQ(got.state, oracle.state) << where;
      EXPECT_EQ(got.metrics, oracle.metrics) << where;
      EXPECT_EQ(got.traces, oracle.traces) << where;
    }
  }
}

// The retail composition must converge to the same final state whether the
// integrator writes per-patch or per-epoch (the two write paths are
// equivalent on success).
TEST(EpochMerge, RetailEpochCommitMatchesPerPatchState) {
  auto run = [](bool epoch) {
    core::Runtime rt;
    apps::RetailKnactorOptions options;
    options.epoch_commit = epoch;
    apps::RetailKnactorApp app = apps::build_retail_knactor_app(rt, options);
    auto order = app.place_order_sync(apps::sample_order());
    std::string out = order.ok()
                          ? chaos::canonical_fingerprint(order.value())
                          : order.error().to_string();
    return out + "|" + chaos::fingerprint_stores({app.checkout_store,
                                                  app.shipping_store,
                                                  app.payment_store});
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace knactor
