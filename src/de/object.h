// Object Data Exchange: hosts named data stores of versioned state objects
// (attribute-value documents) and exposes CRUD + list + watch, optional
// server-side functions (UDFs) with write triggers, RBAC enforcement, and
// durability for the apiserver profile (an optional on-disk journal with
// snapshot recovery, see enable_persistence).
//
// One ObjectDe instance models one deployed exchange (the paper's
// K-apiserver or K-redis). Stores are namespaces within it; a UDF executes
// inside the DE and touches stores at engine latency — that collapse of
// client round-trips into engine-local operations *is* the paper's
// integrator push-down optimization (§3.3, Table 2 K-redis-udf row).
//
// ObjectDe is a typed facade over de::Kernel (commit sequencing, RBAC
// enforcement + audit, availability, GC hooks, shard execution). The key
// space of every store is hash-partitioned into N shards (set_shards);
// shard-local work — batched-watch flush preparation, list scans — runs on
// the runtime's worker pool between deterministic commit-seq merge
// barriers, so an N-shard/N-worker run is observably identical to the
// 1-shard serial run (see docs/ARCHITECTURE.md).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/result.h"
#include "common/value.h"
#include "core/trace.h"
#include "de/kernel.h"
#include "de/profile.h"
#include "de/rbac.h"
#include "de/subscription.h"
#include "sim/clock.h"
#include "sim/random.h"

namespace knactor::de::persist {
class Engine;
}  // namespace knactor::de::persist

namespace knactor::de {

/// A versioned state object. `version` is the store's resource version at
/// last write (optimistic-concurrency token, like Kubernetes
/// resourceVersion).
struct StateObject {
  std::string key;
  common::SharedValue data;  // immutable snapshot, shareable zero-copy
  std::uint64_t version = 0;
  sim::SimTime created_at = 0;
  sim::SimTime updated_at = 0;

  /// Deep copy of the payload (the non-zero-copy path).
  [[nodiscard]] common::Value data_copy() const {
    return data ? *data : common::Value(nullptr);
  }
};

enum class WatchEventType { kAdded, kModified, kDeleted };

struct WatchEvent {
  WatchEventType type = WatchEventType::kAdded;
  std::string store;
  StateObject object;
  /// Causal context of the commit that fired this event: trace id (the
  /// commit's own seq if the write was a trace root), the span that
  /// caused the write, and the DE-wide commit seq. Integrators propagate
  /// it into the spans and derived writes of the passes they trigger.
  core::TraceContext ctx;
};

/// A coalesced window of watch events (see ObjectStore::watch_batch).
/// Events are in commit order; successive updates to the same key within
/// the window are coalesced into the key's latest event. Payloads are
/// shared snapshots (StateObject::data), so a batch moves zero-copy.
struct WatchBatch {
  std::string store;
  std::vector<WatchEvent> events;
  /// Commits folded into this batch (>= events.size(); the difference is
  /// how many per-key updates the window coalesced away).
  std::uint64_t commits = 0;
};

struct ObjectDeStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t deletes = 0;
  std::uint64_t lists = 0;
  std::uint64_t watch_events = 0;
  std::uint64_t udf_calls = 0;
  std::uint64_t engine_ops = 0;       // ops executed inside UDFs
  std::uint64_t permission_denials = 0;
  std::uint64_t version_conflicts = 0;
  std::uint64_t unavailable_rejections = 0;  // ops failed while crashed
  std::uint64_t watch_batches = 0;           // coalesced deliveries
  std::uint64_t watch_events_coalesced = 0;  // commits folded into a slot
  /// Commits a subscription's content filter rejected pre-enqueue (the
  /// record never cost a queue slot or a delivery).
  std::uint64_t watch_events_filtered = 0;
  /// Buffered events discarded deterministically: QoS history-depth
  /// evictions at flush plus pending slots dropped by unsubscribe.
  std::uint64_t watch_events_dropped = 0;
  /// Events per delivered WatchBatch (batching effectiveness on the hot
  /// path; export via SizeHistogram::export_counters).
  common::SizeHistogram watch_batch_sizes;
};

class ObjectDe;

/// One write: an upsert (merge=false), a patch (merge=true), or a delete
/// (remove=true; `data` ignored). `expected_version` adds the optimistic-
/// concurrency check of put_versioned. A put_epoch batch is a vector of
/// these; the per-op entry points (put, put_versioned, patch, remove, and
/// the UDF engine writes) each describe their op as one, too.
struct EpochWrite {
  std::string key;
  common::Value data{};
  bool merge = false;
  bool remove = false;
  std::optional<std::uint64_t> expected_version{};
};

/// A named data store (namespace) on an Object DE. All operations are
/// asynchronous — completion callbacks fire after the profile's latency on
/// the DE's clock — with `_sync` convenience wrappers that drive the clock.
class ObjectStore {
 public:
  using GetCallback = std::function<void(common::Result<StateObject>)>;
  using PutCallback = std::function<void(common::Result<std::uint64_t>)>;
  using DelCallback = std::function<void(common::Status)>;
  using ListCallback =
      std::function<void(common::Result<std::vector<StateObject>>)>;
  using WatchCallback = std::function<void(const WatchEvent&)>;
  using WatchBatchCallback = std::function<void(const WatchBatch&)>;
  /// One Result per EpochWrite, in submission order. A delete completes
  /// with value 0; everything else with the committed version.
  using EpochCallback =
      std::function<void(std::vector<common::Result<std::uint64_t>>)>;

  [[nodiscard]] const std::string& name() const { return name_; }

  void get(const std::string& principal, const std::string& key,
           GetCallback done);
  /// Zero-copy read: the callback receives a shared handle to the stored
  /// value instead of a deep copy (§3.3 zero-copy data exchange).
  void get_shared(const std::string& principal, const std::string& key,
                  std::function<void(common::Result<common::SharedValue>)> done);
  /// Upsert. Returns the new version.
  void put(const std::string& principal, const std::string& key,
           common::Value data, PutCallback done);
  /// Compare-and-swap on version; fails with FailedPrecondition on skew.
  void put_versioned(const std::string& principal, const std::string& key,
                     common::Value data, std::uint64_t expected_version,
                     PutCallback done);
  /// Merges top-level fields into the existing object (creates it if
  /// absent). Integrators use this to fill `external` fields without
  /// clobbering service-owned state.
  void patch(const std::string& principal, const std::string& key,
             common::Value fields, PutCallback done);
  void remove(const std::string& principal, const std::string& key,
              DelCallback done);
  void list(const std::string& principal, const std::string& prefix,
            ListCallback done);

  /// Epoch commit: applies a whole batch of independent writes in one
  /// client round trip through the parallel commit pipeline. The batch is
  /// partitioned by key shard, stamps (version + commit seq) are
  /// pre-assigned serially so every op's identity is a pure function of
  /// its position in the epoch, shards commit concurrently on the bound
  /// worker pool, and a serial epoch merge replays audit entries, lineage,
  /// journal appends, and watch/trigger notifications in exact submission
  /// order. Observable behavior is byte-identical for every shard/worker
  /// configuration, and — on failure-free epochs — identical to issuing
  /// the same ops through put/patch/remove one by one (failed ops leave
  /// holes in the version/commit-seq domains that the per-op path would
  /// not). See docs/ARCHITECTURE.md "Epoch commit pipeline".
  void put_epoch(const std::string& principal, std::vector<EpochWrite> writes,
                 EpochCallback done);
  std::vector<common::Result<std::uint64_t>> put_epoch_sync(
      const std::string& principal, std::vector<EpochWrite> writes);

  /// Registers a subscription: prefix + optional content filter +
  /// projection (compiled once through the fused query planner) + QoS,
  /// delivering one event per matching commit. This is the unified watch
  /// surface — `watch` and `watch_batch` are thin wrappers over it — and
  /// every subscription is registered with the kernel's subscription
  /// registry (id, contract, match/filter/delivery accounting). Fails on
  /// permission denial or an unparsable filter. The filter runs *before*
  /// enqueue — per shard inside the epoch pipeline's parallel phase — so a
  /// rejected commit never costs a queue slot; the projection rewrites the
  /// delivered payload (RBAC field filtering still applies afterwards).
  common::Result<std::uint64_t> subscribe(const std::string& principal,
                                          SubscriptionSpec spec,
                                          WatchCallback callback);
  /// Batched subscription: events coalesce for qos.window (virtual time)
  /// after the first matching commit and arrive as one WatchBatch. QoS
  /// history_depth caps each delivered batch to the newest N slots
  /// (deterministic drops, counted in watch_events_dropped).
  common::Result<std::uint64_t> subscribe_batch(const std::string& principal,
                                                SubscriptionSpec spec,
                                                WatchBatchCallback callback);
  /// Removes a subscription. A pending coalescing buffer is resolved
  /// deterministically: drain=true delivers it to the callback immediately
  /// (one final batch, same order a flush would have produced), drain=false
  /// drops it and counts the slots in watch_events_dropped. Either way no
  /// dangling coalesce slot survives the unsubscribe.
  void unsubscribe(std::uint64_t watch_id, bool drain);

  /// Registers a watch on a key prefix (an unfiltered subscription).
  /// Events are delivered after the profile's watch-notify latency.
  /// Returns a watch id (0 on permission denial). RBAC field filtering
  /// applies to delivered objects.
  std::uint64_t watch(const std::string& principal, const std::string& prefix,
                      WatchCallback callback);
  /// Coalesced watch: instead of one delivery per commit, events buffer
  /// for `window` (virtual time) after the first commit and arrive as a
  /// single WatchBatch. Within a window, successive updates to the same
  /// key coalesce into that key's slot (modify-after-add stays added;
  /// delete always survives), and the flush emits slots ordered by each
  /// key's *latest* commit — a delete that followed a modify is never
  /// reordered before it or dropped. window == 0 degenerates to one
  /// single-event batch per commit.
  std::uint64_t watch_batch(const std::string& principal,
                            const std::string& prefix, sim::SimTime window,
                            WatchBatchCallback callback);
  /// Equivalent to unsubscribe(watch_id, /*drain=*/false).
  void unwatch(std::uint64_t watch_id);

  // Synchronous wrappers (drive the clock until the callback fires).
  common::Result<StateObject> get_sync(const std::string& principal,
                                       const std::string& key);
  common::Result<std::uint64_t> put_sync(const std::string& principal,
                                         const std::string& key,
                                         common::Value data);
  common::Result<std::uint64_t> patch_sync(const std::string& principal,
                                           const std::string& key,
                                           common::Value fields);
  common::Status remove_sync(const std::string& principal,
                             const std::string& key);
  common::Result<std::vector<StateObject>> list_sync(
      const std::string& principal, const std::string& prefix);

  /// Optimistic read-modify-write: reads the object (a missing object
  /// presents as null), applies `mutate`, and writes back guarded by the
  /// read version; retries on conflict up to `max_attempts`. This is the
  /// safe pattern for concurrent writers sharing a store.
  common::Result<std::uint64_t> update_sync(
      const std::string& principal, const std::string& key,
      const std::function<common::Value(const common::Value&)>& mutate,
      int max_attempts = 8);

  [[nodiscard]] std::size_t size() const { return objects_.size(); }

  /// Latency-free, ACL-free inspection for tooling, tests, and benches —
  /// not part of the data path.
  [[nodiscard]] const StateObject* peek(const std::string& key) const {
    return objects_.find(key);
  }
  /// The exchange this store lives on (e.g. to reach its kernel's trace
  /// context and provenance ring).
  [[nodiscard]] ObjectDe& exchange() { return de_; }
  /// All keys, sorted (identical across shard configurations).
  [[nodiscard]] std::vector<std::string> keys() const {
    return objects_.sorted_keys();
  }

 private:
  friend class ObjectDe;
  friend class UdfContext;

  /// The per-op client write path behind put, put_versioned, patch and
  /// remove: charges one write round trip, captures the writer's trace
  /// context, then admits and commits through ObjectDe::submit_write.
  void submit(const std::string& principal, EpochWrite write, PutCallback done);
  /// The one prefix scan behind client and UDF lists: each shard collects
  /// and RBAC-filters its own matches on the worker pool, then the merge
  /// sorts by key (byte-identical to the 1-shard in-order scan).
  [[nodiscard]] std::vector<StateObject> scan(const std::string& prefix,
                                              const FieldRule& fields) const;

  ObjectStore(ObjectDe& de, std::string name, std::size_t shards)
      : de_(de), name_(std::move(name)), objects_(shards) {}

  ObjectDe& de_;
  std::string name_;
  ShardedMap<StateObject> objects_;
};

/// Engine-level view handed to UDFs: operations run inside the DE at
/// engine latency (no client round trips) and bypass the network but NOT
/// access control — the UDF runs as the principal that registered it.
class UdfContext {
 public:
  common::Result<StateObject> get(const std::string& store,
                                  const std::string& key);
  common::Result<std::uint64_t> put(const std::string& store,
                                    const std::string& key,
                                    common::Value data);
  common::Result<std::uint64_t> patch(const std::string& store,
                                      const std::string& key,
                                      common::Value fields);
  common::Result<std::vector<StateObject>> list(const std::string& store,
                                                const std::string& prefix);
  [[nodiscard]] sim::SimTime now() const;
  /// Charges additional engine compute time (e.g. the UDF body's own
  /// processing cost).
  void charge(sim::SimTime duration);

 private:
  friend class ObjectDe;
  /// The engine-level write path behind put and patch: charges engine
  /// latency, resolves the store, then admits and commits through
  /// ObjectDe::submit_write.
  common::Result<std::uint64_t> write(const std::string& store,
                                      EpochWrite write);
  UdfContext(ObjectDe& de, std::string principal)
      : de_(de), principal_(std::move(principal)) {}
  ObjectDe& de_;
  std::string principal_;
};

/// One deployed Object data exchange.
class ObjectDe {
 public:
  using Udf =
      std::function<common::Result<common::Value>(UdfContext&, const common::Value&)>;
  using UdfCallback = std::function<void(common::Result<common::Value>)>;
  using AuditEntry = de::AuditEntry;

  ObjectDe(sim::VirtualClock& clock, ObjectDeProfile profile,
           std::uint64_t seed = 7);

  ObjectDe(const ObjectDe&) = delete;
  ObjectDe& operator=(const ObjectDe&) = delete;

  /// Creates (or returns the existing) named store.
  ObjectStore& create_store(const std::string& name);
  [[nodiscard]] ObjectStore* store(const std::string& name);

  /// Hash-partitions every store's key space into `n` shards. Shard-local
  /// work (batched-watch flush preparation, list scans) then runs on the
  /// bound worker pool between commit-seq merge barriers. Pending watch
  /// buffers move to the new layout along with the objects. Observable
  /// behavior is identical for every n (the determinism contract).
  void set_shards(std::size_t n);
  [[nodiscard]] std::size_t shards() const { return shards_; }
  /// Binds the runtime's worker pool (nullptr = inline serial execution).
  void set_worker_pool(common::WorkerPool* pool) {
    kernel_.set_worker_pool(pool);
  }

  /// The shared DE substrate this facade runs on.
  [[nodiscard]] Kernel& kernel() { return kernel_; }

  /// Registers a server-side function owned by `principal`. Rejected when
  /// the profile does not support UDFs (e.g. apiserver).
  common::Status register_udf(const std::string& principal,
                              const std::string& name, Udf udf);
  /// Invokes a UDF from a client (one udf_invoke round trip; internal ops
  /// at engine latency).
  void call_udf(const std::string& principal, const std::string& name,
                common::Value args, UdfCallback done);
  common::Result<common::Value> call_udf_sync(const std::string& principal,
                                              const std::string& name,
                                              common::Value args);

  /// Installs a write trigger: after a commit to store/prefix, the UDF is
  /// invoked server-side with {store, key, event} args (Redis keyspace-
  /// notification + function analog; Cast push-down compiles to this).
  common::Status add_trigger(const std::string& store,
                             const std::string& key_prefix,
                             const std::string& udf_name);
  void remove_trigger(const std::string& store, const std::string& udf_name);

  /// One write in a transaction.
  struct TxnOp {
    std::string store;
    std::string key;
    common::Value data;
    bool merge = true;  // patch semantics; false = replace
    /// Optional optimistic-concurrency check.
    std::optional<std::uint64_t> expected_version;
  };

  /// Atomically applies writes across stores of this DE (§5 "run-time
  /// primitives such as transactions"): one client round trip,
  /// all-or-nothing with respect to access control, field rules, and
  /// version checks. Watch events and triggers fire only after the whole
  /// transaction commits (so observers never see partial exchanges).
  /// The callback receives the version of the last write.
  void transact(const std::string& principal, std::vector<TxnOp> ops,
                UdfCallback done);
  common::Result<common::Value> transact_sync(const std::string& principal,
                                              std::vector<TxnOp> ops);

  /// Durability simulation. With a persistence engine attached
  /// (enable_persistence), restart() recovers from the newest valid
  /// snapshot plus the journal suffix. A durable DE (apiserver profile)
  /// with no engine keeps its in-memory state — every acked commit is
  /// already there — so objects keep their versions and timestamps, as
  /// disk recovery restores them. A non-durable one (redis) loses all
  /// state. Watches and UDFs survive (they are client/config state).
  void restart();

  /// Attaches a file-backed persistence engine (owned by the caller, must
  /// outlive the DE): every commit batch is journaled before its
  /// notifications fire, restart() recovers from disk, and the engine's
  /// generation GC joins the kernel's GC hooks (so RetentionManager-driven
  /// `run_gc()` reclaims old snapshot/journal generations too). Any state
  /// already on disk is recovered immediately — attach before serving
  /// traffic. See docs/PERSISTENCE.md.
  common::Status enable_persistence(persist::Engine* engine);
  /// Snapshots the full store state at the current commit-seq boundary and
  /// rotates the journal. Automatic snapshots honor the engine's
  /// `snapshot_every` cadence; this forces one now. A failed snapshot
  /// crashes the DE (already-acked commits stay acked — they are in the
  /// journal) but never corrupts the previous generation.
  common::Status snapshot_now();
  [[nodiscard]] persist::Engine* persistence() { return persist_; }

  /// Availability simulation for chaos testing. While unavailable, every
  /// client operation fails with Unavailable at its scheduled execution
  /// time (in-flight operations fail too, like a real process dying).
  /// `crash()` marks the DE down; `recover()` restarts it (see restart():
  /// disk recovery, kept state, or a wipe) and marks it up again.
  void set_available(bool available) { kernel_.set_available(available); }
  [[nodiscard]] bool available() const { return kernel_.available(); }
  void crash() { kernel_.crash(); }
  void recover() { kernel_.recover(); }

  /// Chaos hook for the epoch pipeline: invoked after every epoch's
  /// parallel phase, before the serial merge. Returning true simulates the
  /// process dying mid-epoch — the whole epoch rolls back (state restored,
  /// no journal frame, no notifications, every op fails Unavailable) and
  /// the DE is marked crashed, so recovery never sees a half-merged epoch.
  void set_epoch_fault_hook(std::function<bool()> hook) {
    epoch_fault_hook_ = std::move(hook);
  }

  /// Optional epoch-pipeline observability. When set, each Phase-B shard
  /// worker emits one "de.epoch.op" span per op (stage "S") into a
  /// worker-local Tracer::SpanBuffer and bumps worker-local Metrics::Delta
  /// counters ("de.epoch.committed" / "de.epoch.failed") — zero shared
  /// state on the parallel path. The serial merge folds the buffers in
  /// shard-index order at the epoch boundary, so span *counts* and stage
  /// attribution are identical for every shard/worker configuration (span
  /// order groups by shard; see docs/OBSERVABILITY.md). A mid-epoch crash
  /// drops the buffers: no span or counter from a rolled-back epoch leaks.
  void set_observability(core::Tracer* tracer, core::Metrics* metrics) {
    tracer_ = tracer;
    epoch_metrics_ = metrics;
  }

  /// RBAC policy engine for this DE (disabled by default).
  [[nodiscard]] Rbac& rbac() { return kernel_.rbac(); }

  /// Access auditing: when enabled, every access decision (allowed or
  /// denied) is recorded in a bounded ring — the security-observability
  /// counterpart of §3.3's access control. Off by default.
  void enable_audit(std::size_t capacity = 1024) {
    kernel_.enable_audit(capacity);
  }
  void disable_audit() { kernel_.disable_audit(); }
  [[nodiscard]] const std::deque<AuditEntry>& audit_log() const {
    return kernel_.audit_log();
  }

  [[nodiscard]] const ObjectDeProfile& profile() const { return profile_; }
  [[nodiscard]] const ObjectDeStats& stats() const { return stats_; }
  [[nodiscard]] sim::VirtualClock& clock() { return kernel_.clock(); }

 private:
  friend class ObjectStore;
  friend class UdfContext;

  struct Watch {
    std::uint64_t id = 0;
    std::string store;
    std::string prefix;
    std::string principal;
    ObjectStore::WatchCallback callback;  // per-event mode
    // Batched mode (watch_batch): callback is empty, batch_callback set;
    // the coalescing window is sub->qos().window.
    ObjectStore::WatchBatchCallback batch_callback;
    /// The subscription contract (always set; pass-through when the spec
    /// had no filter/projection). Immutable and thread-safe: Phase-B shard
    /// tasks evaluate it concurrently through match_watch.
    std::shared_ptr<const CompiledSubscription> sub;
  };

  /// Per-watch coalescing buffer for batched watches, partitioned into
  /// per-shard commit queues. `seq` on each slot is the DE-wide commit
  /// sequence of the *latest* commit folded in. At flush (the revision-
  /// window barrier) each shard sorts and RBAC-filters its queue on the
  /// worker pool, then a cross-shard stable merge by `seq` reproduces the
  /// exact single-shard event order.
  struct BufferedEvent {
    WatchEvent event;
    std::uint64_t seq = 0;
    FieldRule fields;  // RBAC filter to apply at flush (shard-local)
  };
  struct ShardQueue {
    std::map<std::string, std::size_t> slots;  // key -> index in events
    std::vector<BufferedEvent> events;
  };
  /// Rollback bookkeeping for epoch shard tasks that stage batched watch
  /// events straight into a buffer's shard queue: everything past
  /// `base_events` is this epoch's, and `saved` holds the pre-epoch value
  /// of every slot the epoch coalesced into, so a mid-epoch crash can
  /// restore the queue exactly.
  struct BatchStageUndo {
    std::size_t base_events = 0;
    std::vector<std::pair<std::size_t, BufferedEvent>> saved;
  };
  struct WatchBuffer {
    std::vector<ShardQueue> shards;
    std::uint64_t commits = 0;
    bool flush_scheduled = false;
    /// Open `sub.deliver` span for the pending window (active
    /// subscriptions only): begun when the flush is scheduled, ended at
    /// flush — its duration is the coalescing window + notify latency the
    /// QoS deadline budgets for. 0 = none.
    std::uint64_t span_id = 0;
  };

  struct Trigger {
    std::string store;
    std::string prefix;
    std::string udf_name;
  };

  /// Who issued a per-op write. Client ops are gated on availability and
  /// counted as writes/deletes; UDF ops run inside an already-admitted UDF
  /// call, and a field-rule rejection there is not counted as a denial.
  /// The origin also prefixes denial messages ("object: " / "udf: ").
  enum class WriteOrigin { kClient, kUdf };
  /// The single admit step of every per-op write, then its commit: the
  /// availability guard (client ops), RBAC, the field rules (not for
  /// deletes), and commit_write under the writer's trace context `ctx`.
  common::Result<std::uint64_t> submit_write(WriteOrigin origin,
                                             ObjectStore& store,
                                             const std::string& principal,
                                             EpochWrite write,
                                             const core::TraceContext& ctx);
  /// Commits one write at engine level (no latency charging, no access
  /// check), journals it and fires watches/triggers. The client path, UDFs
  /// and transact all commit through here. Returns the new
  /// version (0 for a delete). When the provenance ring is enabled, every
  /// put/patch also records a version-chain lineage entry (op
  /// "write:<principal>", input = the key's previous version) so lineage
  /// walks continue through service writes; integrator records for the
  /// same version are recorded later and win reverse lookups.
  common::Result<std::uint64_t> commit_write(
      ObjectStore& store, EpochWrite write,
      const std::string& principal = "service");

  /// Per-op scratch the epoch pipeline's parallel phase fills and the
  /// serial merge phase drains. Everything here is owned by exactly one
  /// shard task during the parallel phase (ops are partitioned by key
  /// shard), so no synchronization is needed.
  struct EpochOp {
    bool committed = false;
    StateObject obj;           // committed object (pre-delete copy on remove)
    WatchEventType type = WatchEventType::kAdded;
    core::TraceContext ctx;    // stamped with the pre-assigned commit seq
    std::vector<AuditEntry> audit;  // buffered access decisions, op order
    bool has_lineage = false;
    core::LineageRecord lineage;
    /// Serialized journal record, encoded in Phase B straight from the
    /// committed object's shared payload handle (zero-copy read); Phase C
    /// concatenates them in global op order into one atomic frame.
    std::string persist_rec;
    bool undo_existed = false; // rollback state for mid-epoch crashes
    StateObject undo_obj;
    /// A per-event watcher's delivery, scheduled in the serial merge
    /// (batched watchers stage into their buffers in Phase B instead).
    struct WatchHit {
      std::size_t watch_index = 0;
      WatchEvent event;        // RBAC-filtered, ready to ship
    };
    std::vector<WatchHit> hits;
    /// Subscription-filter accounting, staged shard-locally and folded in
    /// the serial merge (watch indices whose predicate evaluated /
    /// rejected this commit) — counters stay byte-identical across
    /// shard/worker configurations.
    std::vector<std::uint32_t> sub_matched;
    std::vector<std::uint32_t> sub_filtered;
    enum class Fail { kNone, kDenied, kInvalid, kConflict, kNotFound };
    Fail fail = Fail::kNone;
    common::Error error;
  };

  /// The three-phase epoch pipeline behind ObjectStore::put_epoch.
  std::vector<common::Result<std::uint64_t>> commit_epoch(
      ObjectStore& store, const std::string& principal,
      const core::TraceContext& client_ctx, std::vector<EpochWrite> writes);

  /// Installs one subscription (the single watch-registration path behind
  /// subscribe/subscribe_batch and the legacy wrappers): RBAC watch
  /// admission, compiles the spec, registers the contract with the
  /// kernel's subscription registry, and appends the Watch. Exactly one of
  /// the callbacks is set.
  common::Result<std::uint64_t> add_subscription(
      ObjectStore& store, const std::string& principal, SubscriptionSpec spec,
      ObjectStore::WatchCallback callback,
      ObjectStore::WatchBatchCallback batch_callback);
  /// Emits one `sub.filter` span for a commit a subscription's predicate
  /// rejected. Serial-phase only (per-op path, epoch Phase-C fold).
  void note_filtered(const Watch& w, const std::string& key);
  /// Opens a `sub.deliver` span for an active subscription (0 when there
  /// is no tracer or the subscription is pass-through). Per-event
  /// deliveries open one per event, batched ones one per window.
  std::uint64_t begin_deliver_span(const Watch& w);
  /// Delivery-side subscription bookkeeping shared by the per-event and
  /// batched paths: registry delivered count, span close with id +
  /// selectivity, and a lineage record naming the subscription.
  void finish_subscription_delivery(const Watch& w, std::uint64_t span_id,
                                    std::uint64_t events,
                                    const WatchEvent* sample);

  void fire_watches(const std::string& store_name, WatchEventType type,
                    const StateObject& obj);
  /// What the matching rule decided for one subscriber and one commit.
  struct WatchMatch {
    enum class Outcome { kSkip, kFiltered, kDeliver };
    Outcome outcome = Outcome::kSkip;
    /// kDeliver: the (projected) payload. Per-event subscribers get it
    /// RBAC-filtered already; batched ones carry `fields` to the flush.
    common::SharedValue payload;
    FieldRule fields;
  };
  /// The one matching rule, shared by the per-op path (fire_watches) and
  /// the epoch pipeline's shard tasks so the two cannot drift: key prefix,
  /// RBAC kWatch (audited into `audit` at `now`), then the subscription's
  /// content filter and projection, then the field rule. kSkip = prefix or
  /// RBAC excluded the subscriber; kFiltered = its predicate rejected the
  /// commit. Const and pure apart from the caller-owned audit sink, so
  /// shard tasks call it concurrently; callers keep their own accounting.
  WatchMatch match_watch(const Watch& w, const StateObject& obj,
                         sim::SimTime now,
                         std::vector<AuditEntry>* audit) const;
  /// The one coalescing rule set for batched watches, shared by the per-op
  /// path (fire_watches) and the epoch pipeline's shard tasks so the
  /// two cannot drift. Inserts or coalesces one event into a shard queue;
  /// returns true when it coalesced into an existing slot. With `undo`,
  /// the first overwrite of any pre-epoch slot saves the previous entry
  /// for mid-epoch rollback.
  static bool coalesce_into(ShardQueue& queue, WatchEvent&& event,
                            std::uint64_t seq, const FieldRule& fields,
                            BatchStageUndo* undo);
  /// Samples the notify latency and schedules one per-event delivery (with
  /// the cancellation liveness check). Shared by the per-op and epoch
  /// paths so delivery semantics cannot drift.
  void schedule_event_delivery(const Watch& w, WatchEvent event);
  /// Schedules a batched watcher's flush (window + sampled notify latency,
  /// one RNG draw) and opens its window span, unless one is pending.
  void schedule_flush(const Watch& w, WatchBuffer& buf);
  void flush_watch_batch(std::uint64_t watch_id);
  void fire_triggers(const std::string& store_name, WatchEventType type,
                     const StateObject& obj);
  /// Trigger fan-out with an explicit causal context (the epoch merge
  /// stamps pre-assigned seqs; the per-op path derives the context from
  /// the kernel's current seq in fire_triggers).
  void fire_triggers_with(const std::string& store_name, WatchEventType type,
                          const StateObject& obj,
                          const core::TraceContext& ctx);

  /// Engine-level reads used by UDFContext (charges engine latency
  /// synchronously on the clock).
  common::Result<StateObject> engine_get(const std::string& store,
                                         const std::string& key,
                                         const std::string& principal);

  /// RBAC check + audit-trail recording. All access paths route through
  /// the kernel's enforcement point.
  Decision check_access(const std::string& principal, const std::string& store,
                        const std::string& key, Verb verb) {
    return kernel_.check_access(principal, store, key, verb);
  }

  void run_sync(const std::function<bool()>& done) { kernel_.run_sync(done); }

  /// Wipes in-memory store state and reloads it from the persistence
  /// engine (newest valid snapshot + journal suffix), restoring the
  /// kernel's sequence domains to the recovered durable point.
  common::Status recover_from_disk();
  /// Snapshots when the journal delta reached the engine's cadence. Runs
  /// after a commit is fully acked: a snapshot failure crashes the DE but
  /// never fails the commit that triggered it.
  void maybe_auto_snapshot();

  Kernel kernel_;
  ObjectDeProfile profile_;
  std::size_t shards_ = 1;
  std::map<std::string, std::unique_ptr<ObjectStore>> stores_;
  std::map<std::string, std::pair<std::string, Udf>> udfs_;  // name -> (owner, fn)
  std::vector<Watch> watches_;
  std::map<std::uint64_t, WatchBuffer> watch_buffers_;  // batched watches
  std::vector<Trigger> triggers_;
  persist::Engine* persist_ = nullptr;  // not owned; see enable_persistence
  /// Journal records staged by commits inside a transaction; flushed as
  /// one atomic frame before the transaction's notifications drain.
  std::vector<std::string> txn_records_;
  core::Tracer* tracer_ = nullptr;          // epoch-pipeline span sink
  core::Metrics* epoch_metrics_ = nullptr;  // epoch-pipeline counter sink
  /// When set, watch/trigger notifications queue instead of firing
  /// (transactions drain the queue after the full commit).
  bool defer_notifications_ = false;
  struct PendingNotification {
    std::string store;
    WatchEventType type;
    StateObject object;
    core::TraceContext ctx;  // ambient context captured at commit time
  };
  std::vector<PendingNotification> pending_notifications_;
  /// Causal context of the commit currently executing (captured from the
  /// kernel's ambient context at the client call, installed around
  /// commit_write so fire_watches can stamp it onto events).
  core::TraceContext commit_ctx_;
  std::function<bool()> epoch_fault_hook_;
  ObjectDeStats stats_;
};

}  // namespace knactor::de
