// The shared data-exchange kernel: the substrate that every DE flavor
// (Object, Log, and future backends — journaled vs in-memory) builds on.
// ObjectDe and LogDe used to each hand-roll commit sequencing, RBAC
// enforcement + audit, availability simulation, retention/GC hooks, and
// synchronous clock driving; the Kernel owns all of that once, so the DEs
// are thin typed facades over one engine substrate (§3.3: the exchange
// layer, not the operators, is where composition scales).
//
// The kernel also owns the shard machinery: a deterministic key hash
// (`shard_of`), a string-keyed `ShardedMap`, and the barrier entry point
// (`run_shard_tasks`) that executes shard-local work on the runtime's
// worker pool. Determinism contract: shard tasks are pure per-shard
// functions (no RNG draws, no shared counters); callers merge their
// outputs by DE-wide commit sequence, which reproduces the single-shard
// serial order exactly (see docs/ARCHITECTURE.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/value.h"
#include "common/worker_pool.h"
#include "core/causality.h"
#include "de/rbac.h"
#include "de/subscription.h"
#include "sim/clock.h"
#include "sim/random.h"

namespace knactor::de {

/// One access decision on the audit trail (allowed or denied). `store` is
/// the resource name — an object store or a log pool.
struct AuditEntry {
  sim::SimTime time = 0;
  std::string principal;
  Verb verb = Verb::kGet;
  std::string store;
  std::string key;
  bool allowed = true;
};

/// Deterministic key -> shard assignment (FNV-1a 64-bit). Not std::hash:
/// the partition must be byte-identical across runs, platforms, and
/// standard libraries for the N-shard run to replay the serial order.
inline std::size_t shard_of(const std::string& key, std::size_t shards) {
  if (shards <= 1) return 0;
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h % shards);
}

/// A string-keyed map hash-partitioned into N shards. Each shard is an
/// ordered map, so per-shard prefix scans stay cheap and a cross-shard
/// merge by key reproduces the exact iteration order of the 1-shard map.
template <typename T>
class ShardedMap {
 public:
  using Shard = std::map<std::string, T>;

  explicit ShardedMap(std::size_t shards = 1) : shards_(shards ? shards : 1) {}

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Re-partitions in place (existing entries move to their new shard).
  void set_shard_count(std::size_t n) {
    if (n == 0) n = 1;
    if (n == shards_.size()) return;
    std::vector<Shard> old = std::move(shards_);
    shards_.assign(n, Shard{});
    for (auto& shard : old) {
      for (auto& [key, value] : shard) {
        shards_[shard_of(key, n)].emplace(key, std::move(value));
      }
    }
  }

  [[nodiscard]] Shard& shard(std::size_t i) { return shards_[i]; }
  [[nodiscard]] const Shard& shard(std::size_t i) const { return shards_[i]; }
  [[nodiscard]] std::size_t shard_index(const std::string& key) const {
    return shard_of(key, shards_.size());
  }

  [[nodiscard]] T* find(const std::string& key) {
    Shard& s = shards_[shard_index(key)];
    auto it = s.find(key);
    return it == s.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const T* find(const std::string& key) const {
    const Shard& s = shards_[shard_index(key)];
    auto it = s.find(key);
    return it == s.end() ? nullptr : &it->second;
  }

  T& operator[](const std::string& key) {
    return shards_[shard_index(key)][key];
  }

  bool erase(const std::string& key) {
    return shards_[shard_index(key)].erase(key) > 0;
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s.size();
    return n;
  }

  void clear() {
    for (auto& s : shards_) s.clear();
  }

  /// All keys, sorted (== the iteration order of the 1-shard map).
  [[nodiscard]] std::vector<std::string> sorted_keys() const {
    std::vector<std::string> out;
    out.reserve(size());
    for (const auto& s : shards_) {
      for (const auto& [k, v] : s) out.push_back(k);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::vector<Shard> shards_;
};

/// The shared substrate one deployed data exchange runs on. Each DE facade
/// owns one Kernel; the kernel owns everything that is not type-specific.
class Kernel {
 public:
  /// Facade-owned counters the kernel's enforcement points bump, so each
  /// DE's public stats struct keeps its existing shape. (Denial counting
  /// stays with the facades: not every failed check is a client-visible
  /// denial — e.g. a watch delivery skipped by RBAC is not counted.)
  struct Hooks {
    std::uint64_t* unavailable_rejections = nullptr;
  };

  Kernel(sim::VirtualClock& clock, std::uint64_t seed)
      : clock_(clock), rng_(seed) {}

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  [[nodiscard]] sim::VirtualClock& clock() { return clock_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }
  [[nodiscard]] Rbac& rbac() { return rbac_; }

  void set_hooks(Hooks hooks) { hooks_ = hooks; }

  // --- commit sequencing -------------------------------------------------
  // Two sequence domains: `next_revision` numbers committed state (object
  // versions, log record seqs); `next_commit_seq` stamps DE-wide commit
  // order for notification merging (the stable-merge key at barriers).

  std::uint64_t next_revision() { return next_revision_++; }
  std::uint64_t next_commit_seq() { return ++commit_seq_; }
  [[nodiscard]] std::uint64_t commit_seq() const { return commit_seq_; }
  /// The revision the next next_revision() call will hand out, without
  /// consuming it. The persistence tier journals this alongside commit_seq
  /// so recovery can restore both stamp domains exactly.
  [[nodiscard]] std::uint64_t peek_next_revision() const {
    return next_revision_;
  }
  /// Restores both sequence domains to a recovered durable point, so ops
  /// committed after recovery get the same stamps they would have gotten
  /// had the crash never happened.
  void restore_sequences(std::uint64_t next_revision,
                         std::uint64_t commit_seq) {
    next_revision_ = next_revision;
    commit_seq_ = commit_seq;
  }
  std::uint64_t allocate_watch_id() { return next_watch_id_++; }

  // --- subscription registry ----------------------------------------------
  // Every watch on a DE facade is a subscription (de/subscription.h); the
  // kernel owns the registry so tooling (knctl explain/trace, SLO gates)
  // sees one uniform surface across facades. Counters are bumped only from
  // serial phases (the per-op commit path, the epoch pipeline's Phase-C
  // merge, flush/delivery callbacks) — never from shard tasks — so their
  // values are byte-identical across shard/worker configurations.

  /// One registered subscription: the contract (filter text, projection,
  /// QoS) plus delivery accounting. `matched` counts commits that reached
  /// the predicate (prefix + RBAC already passed), `filtered` the ones it
  /// rejected pre-enqueue, `delivered` events actually handed to the
  /// subscriber, `dropped` QoS history evictions + unsubscribe drops.
  struct SubscriptionInfo {
    std::uint64_t id = 0;
    std::string store;
    std::string principal;
    std::string filter;        // predicate source text ("" = match-all)
    bool projected = false;
    bool batched = false;
    sim::SimTime deadline = 0; // QoS latency budget (0 = none)
    std::string stage;         // SLO stage label on delivery spans
    std::uint64_t matched = 0;
    std::uint64_t filtered = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    /// Fraction of evaluated commits the predicate let through.
    [[nodiscard]] double selectivity() const {
      if (matched == 0) return 1.0;
      return static_cast<double>(matched - filtered) /
             static_cast<double>(matched);
    }
  };

  /// Allocates a watch id and registers `sub`'s contract under it — the
  /// one registration step of every facade's subscribe.
  std::uint64_t register_subscription(const std::string& store,
                                      const std::string& principal,
                                      const CompiledSubscription& sub,
                                      bool batched) {
    const std::uint64_t id = allocate_watch_id();
    SubscriptionInfo& info = subscriptions_[id];
    info.id = id;
    info.store = store;
    info.principal = principal;
    info.filter = sub.spec().filter;
    info.projected = sub.projected();
    info.batched = batched;
    info.deadline = sub.qos().deadline;
    info.stage = sub.qos().stage_or_default();
    return id;
  }
  void unregister_subscription(std::uint64_t id) { subscriptions_.erase(id); }
  [[nodiscard]] SubscriptionInfo* find_subscription(std::uint64_t id) {
    auto it = subscriptions_.find(id);
    return it == subscriptions_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const std::map<std::uint64_t, SubscriptionInfo>&
  subscriptions() const {
    return subscriptions_;
  }

  // --- epoch sequencing (per-shard commit-seq domains) --------------------
  // The epoch pipeline pre-assigns stamps: one serial reservation up front
  // replaces one shared-counter bump per commit, and each op's stamp is a
  // pure function of its position in the epoch (base + index). Shards then
  // stamp their ops from disjoint slices of the reservation without ever
  // touching the shared counters — the parallel run is byte-identical to
  // the serial one by construction. Ops that fail validation leave holes in
  // the sequence; both domains only need to be strictly increasing, and the
  // serial oracle runs the same reservation path, so the holes match too.

  /// Reserves `n` revision numbers; returns the first. Epoch op `i` commits
  /// with revision `base + i` (matching what n serial next_revision() calls
  /// would have handed out).
  std::uint64_t reserve_revisions(std::uint64_t n) {
    const std::uint64_t base = next_revision_;
    next_revision_ += n;
    return base;
  }
  /// Reserves `n` commit seqs; returns the first assigned value (what the
  /// next next_commit_seq() call would have returned). Op `i` stamps with
  /// `base + i`.
  std::uint64_t reserve_commit_seqs(std::uint64_t n) {
    const std::uint64_t base = commit_seq_ + 1;
    commit_seq_ += n;
    return base;
  }

  // --- availability (chaos) ----------------------------------------------

  void set_available(bool available) { available_ = available; }
  [[nodiscard]] bool available() const { return available_; }
  void crash() { available_ = false; }
  /// Runs the facade's restart hook (disk recovery, kept state, or a
  /// wipe), then marks up.
  void recover() {
    if (restart_) restart_();
    available_ = true;
  }
  void set_restart_hook(std::function<void()> restart) {
    restart_ = std::move(restart);
  }
  /// Availability gate for client operations: counts the rejection when
  /// the DE is down. Callers fail the op with Unavailable on false.
  bool guard_available() {
    if (available_) return true;
    if (hooks_.unavailable_rejections != nullptr) {
      ++*hooks_.unavailable_rejections;
    }
    return false;
  }

  // --- RBAC enforcement + audit ------------------------------------------

  /// The single access-check path of a DE: consults the policy engine and
  /// records the decision on the audit trail.
  Decision check_access(const std::string& principal,
                        const std::string& resource, const std::string& key,
                        Verb verb) {
    Decision d = rbac_.check(principal, resource, key, verb, clock_.now());
    if (audit_enabled_) {
      audit_.push_back(
          AuditEntry{clock_.now(), principal, verb, resource, key, d.allowed});
      while (audit_.size() > audit_capacity_) audit_.pop_front();
    }
    return d;
  }

  /// Thread-safe access check for epoch shard tasks: consults the policy
  /// engine (Rbac::check is const — safe to call from several shards at
  /// once) and buffers the decision into a caller-owned sink instead of
  /// pushing to the shared audit deque. `now` is captured serially before
  /// the epoch is dispatched so shard tasks never read the clock. The
  /// caller splices the sinks back in global commit order via
  /// append_audit() at the epoch merge.
  Decision check_access_buffered(const std::string& principal,
                                 const std::string& resource,
                                 const std::string& key, Verb verb,
                                 sim::SimTime now,
                                 std::vector<AuditEntry>* sink) const {
    Decision d = rbac_.check(principal, resource, key, verb, now);
    if (audit_enabled_ && sink != nullptr) {
      sink->push_back(
          AuditEntry{now, principal, verb, resource, key, d.allowed});
    }
    return d;
  }

  /// Merge half of check_access_buffered: appends buffered entries to the
  /// audit trail. Callers present the sinks in global commit order, so the
  /// trail reads exactly as if every check had run serially.
  void append_audit(const std::vector<AuditEntry>& entries) {
    if (!audit_enabled_) return;
    for (const auto& e : entries) audit_.push_back(e);
    while (audit_.size() > audit_capacity_) audit_.pop_front();
  }

  void enable_audit(std::size_t capacity = 1024) {
    audit_capacity_ = capacity;
    audit_enabled_ = capacity > 0;
    if (audit_.size() > audit_capacity_) audit_.clear();
  }
  void disable_audit() { audit_enabled_ = false; }
  [[nodiscard]] const std::deque<AuditEntry>& audit_log() const {
    return audit_;
  }

  // --- causal trace context + provenance ---------------------------------
  // The ambient TraceContext is the Dapper-style propagation point: a
  // client (integrator, bridge) sets it immediately before issuing writes
  // and clears it after; the facades capture it synchronously at call
  // time, so it rides into the commit and out on the watch events the
  // commit fires. The provenance ring is the lineage half: integrators
  // record one entry per derived write (capacity 0 = disabled, the
  // default — the hot path then skips input snapshotting entirely).

  void set_trace_context(const core::TraceContext& ctx) { trace_ctx_ = ctx; }
  void clear_trace_context() { trace_ctx_ = core::TraceContext{}; }
  [[nodiscard]] const core::TraceContext& trace_context() const {
    return trace_ctx_;
  }

  /// Enables lineage recording with a bounded ring (capacity 0 disables).
  void enable_provenance(std::size_t capacity = 1024) {
    provenance_.set_capacity(capacity);
  }
  [[nodiscard]] core::ProvenanceRing& provenance() { return provenance_; }
  [[nodiscard]] const core::ProvenanceRing& provenance() const {
    return provenance_;
  }

  // --- retention / GC hooks ----------------------------------------------

  /// Registers a sweep callback (retention manager, pool compaction, ...).
  /// Hooks run in registration order; each returns how many entries it
  /// collected.
  void add_gc_hook(std::function<std::size_t()> hook) {
    gc_hooks_.push_back(std::move(hook));
  }
  /// Runs every GC hook once; returns the total collected.
  std::size_t run_gc() {
    std::size_t collected = 0;
    for (auto& hook : gc_hooks_) collected += hook();
    return collected;
  }

  // --- shard execution ----------------------------------------------------

  /// Binds the runtime's worker pool. Unbound kernels run shard tasks
  /// inline (the serial oracle path).
  void set_worker_pool(common::WorkerPool* pool) { pool_ = pool; }
  [[nodiscard]] common::WorkerPool* worker_pool() const { return pool_; }

  /// Barrier: runs independent shard-local tasks, on the pool when bound,
  /// inline in index order otherwise. Returns only when all completed.
  void run_shard_tasks(const std::vector<std::function<void()>>& tasks) {
    if (pool_ != nullptr) {
      pool_->run(tasks);
      return;
    }
    for (const auto& task : tasks) task();
  }

  /// Epoch dispatch: per-shard ordered task queues with a single
  /// synchronization point for the whole batch (WorkerPool::run_epoch).
  /// Queue `i` is shard i's commits in epoch order; within a queue tasks
  /// run sequentially, across queues concurrently. Unbound kernels run
  /// inline in queue order (the serial oracle path).
  void run_epoch_tasks(
      const std::vector<std::vector<std::function<void()>>>& queues) {
    if (pool_ != nullptr) {
      pool_->run_epoch(queues);
      return;
    }
    for (const auto& queue : queues) {
      for (const auto& task : queue) task();
    }
  }

  // --- synchronous driving ------------------------------------------------

  /// Drives the clock until `done` reports true or the queue drains.
  void run_sync(const std::function<bool()>& done) {
    while (!done() && clock_.step()) {
    }
  }

 private:
  sim::VirtualClock& clock_;
  sim::Rng rng_;
  Rbac rbac_;
  Hooks hooks_;
  common::WorkerPool* pool_ = nullptr;
  std::function<void()> restart_;
  bool available_ = true;
  std::uint64_t next_revision_ = 1;
  std::uint64_t commit_seq_ = 1;  // pre-increment preserves legacy stamps
  std::uint64_t next_watch_id_ = 1;
  std::map<std::uint64_t, SubscriptionInfo> subscriptions_;
  core::TraceContext trace_ctx_;
  core::ProvenanceRing provenance_;
  bool audit_enabled_ = false;
  std::size_t audit_capacity_ = 0;
  std::deque<AuditEntry> audit_;
  std::vector<std::function<std::size_t()>> gc_hooks_;
};

}  // namespace knactor::de
