// Cast: the built-in integrator for Object data exchanges (§3.2). Executes
// a data exchange graph (DXG) by watching the referenced stores, snapshot-
// reading source state, evaluating mapping expressions, and patching target
// objects' fields. Converges in passes: a mapping whose dependencies are
// not yet present evaluates to null and is skipped until a later pass.
//
// Modes:
//   * watch-driven (default): a pass runs after any referenced store
//     changes (client reads/writes pay DE round-trip latency);
//   * polling: a pass every `poll_interval`;
//   * push-down (§3.3): the DXG pass is compiled into a UDF registered on
//     the DE with write triggers on the source stores — reads/writes then
//     run at engine latency inside the DE (Table 2 "K-redis-udf").
//
// Run-time reconfiguration (§3.3): `reconfigure` atomically swaps the DXG.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/causality.h"
#include "core/dxg.h"
#include "core/integrator.h"
#include "core/trace.h"
#include "de/object.h"
#include "expr/eval.h"
#include "sim/latency.h"
#include "sim/retry.h"

namespace knactor::core {

struct CastStats {
  std::uint64_t passes = 0;
  std::uint64_t fields_written = 0;
  std::uint64_t fields_skipped_not_ready = 0;
  std::uint64_t eval_errors = 0;
  std::uint64_t reconfigurations = 0;
  std::uint64_t failed_passes = 0;  // snapshot read or write failed
  std::uint64_t retries = 0;        // passes re-run by the retry policy
  std::uint64_t batches_consumed = 0;  // WatchBatch deliveries (batched mode)
  std::uint64_t batched_events = 0;    // events carried by those batches
};

class CastIntegrator : public Integrator {
 public:
  struct Options {
    /// Integrator-side compute cost per pass (the Table 2 "I" column for
    /// non-push-down modes).
    sim::LatencyModel compute = sim::LatencyModel::constant_ms(0.01);
    /// Re-run passes until no field changes, up to this many rounds per
    /// triggering event (dependency chains resolve across rounds).
    int max_rounds_per_event = 8;
    /// Validate DXG against schemas at (re)configuration; reject cycles
    /// and non-external target fields.
    bool strict = false;
    /// Polling instead of watches; 0 = watch-driven.
    sim::SimTime poll_interval = 0;
    /// Server-side watch coalescing: when > 0, watches register as batched
    /// subscriptions with this window (unless the spec's `Watch:` clause
    /// sets its own) — the DE buffers a burst of commits and delivers one
    /// WatchBatch, and the integrator runs one pass per batch. This is how
    /// bursts coalesce (§3.3 "consolidate the state processing logic",
    /// applied in time): one notification per window regardless of burst
    /// size.
    sim::SimTime batch_window = 0;
    /// Commit each pass's writes through the DE's epoch pipeline
    /// (ObjectStore::put_epoch): the pass's patches are grouped per target
    /// store and committed as one epoch each — one write round trip per
    /// store instead of one per patch, with the commit work running
    /// shard-parallel behind a deterministic merge. An epoch is not
    /// all-or-nothing: each patch succeeds or fails individually, exactly
    /// like the per-patch path.
    bool epoch_commit = false;
    /// Exchange-pass retry: when a pass's snapshot read or patch write
    /// fails (e.g. the DE is crashed), re-run the whole pass after backoff.
    /// Passes are idempotent (desired-state patches), so replays are safe.
    /// Disabled by default.
    sim::RetryPolicy retry;
    /// Optional counters sink: failed passes and retries are recorded as
    /// "cast.<name>.failed_passes" / "cast.<name>.retries".
    Metrics* metrics = nullptr;
  };

  /// `stores` binds DXG input aliases to object stores. All stores must
  /// live on `de` (the paper hosts composed stores on a shared exchange).
  CastIntegrator(std::string name, de::ObjectDe& de, Dxg dxg,
                 std::map<std::string, de::ObjectStore*> stores,
                 Options options, const de::SchemaRegistry* schemas = nullptr,
                 Tracer* tracer = nullptr);
  /// Default options.
  CastIntegrator(std::string name, de::ObjectDe& de, Dxg dxg,
                 std::map<std::string, de::ObjectStore*> stores);

  [[nodiscard]] const std::string& name() const override { return name_; }

  common::Status start() override;
  void stop() override;
  [[nodiscard]] bool running() const override { return running_; }

  /// Accepts either a full DXG spec Value ({Input, DXG}) or a YAML string
  /// via reconfigure_yaml. Alias->store bindings are re-resolved from the
  /// current binding map; new aliases must be bound with bind_store first.
  common::Status reconfigure(const common::Value& config) override;
  common::Status reconfigure_yaml(std::string_view yaml_text);

  /// Adds/replaces an alias binding (needed before reconfiguring to a DXG
  /// that references a new store).
  void bind_store(const std::string& alias, de::ObjectStore& store);

  /// Compiles the current DXG into a server-side UDF with triggers on all
  /// read stores (push-down). Requires the DE profile to support UDFs.
  common::Status enable_pushdown();
  void disable_pushdown();
  [[nodiscard]] bool pushdown_enabled() const { return pushdown_; }

  /// Runs one full exchange pass immediately (synchronous; drives the
  /// clock). Returns the number of fields written.
  common::Result<std::size_t> run_pass_sync();

  [[nodiscard]] const CastStats& stats() const { return stats_; }
  [[nodiscard]] const Dxg& dxg() const { return dxg_; }

 private:
  /// Reads a snapshot of every aliased store (client round trips), then
  /// evaluates and writes. Invoked from watch events / polling.
  void run_pass_async(int rounds_left);
  /// Pure evaluation over a snapshot: returns per-target patches.
  /// Exposed to both the client-side pass and the compiled UDF.
  struct PatchSet {
    // (alias, object key) -> fields to patch
    std::vector<std::pair<std::pair<std::string, std::string>, common::Value>>
        patches;
    /// Parallel to `patches` when lineage is enabled (empty otherwise):
    /// the deduplicated set of snapshot records each patch was computed
    /// from, resolved from the contributing mappings' refs.
    std::vector<std::vector<LineageRef>> inputs;
    std::size_t not_ready = 0;
    std::size_t errors = 0;
  };
  /// Per-pass view of the aliased stores: expression environment values
  /// plus the raw object-key lists (fan-out iterates these) and, when
  /// lineage is enabled, the per-key versions the snapshot read.
  struct Snapshot {
    std::map<std::string, common::Value> values;
    std::map<std::string, std::vector<std::string>> keys;
    std::map<std::string, std::map<std::string, std::uint64_t>> versions;
    bool failed = false;  // at least one alias list errored
  };
  PatchSet evaluate(const Snapshot& snapshot);
  /// Adds one alias's listed objects to a snapshot (expression value, key
  /// list, per-key versions) — shared by the client pass and the UDF.
  static void ingest(Snapshot& snapshot, const std::string& alias,
                     const std::vector<de::StateObject>& objects);
  /// One patch of a pass on its way to the DE: its target, how many
  /// fields it sets, and (lineage on) the snapshot records it read.
  struct PatchWrite {
    std::string alias;
    std::string object;
    std::size_t fields = 0;
    std::vector<LineageRef> inputs;
  };
  /// The bookkeeping of patch `pi` (its inputs move out of `ps`; its
  /// fields stay for the caller to send).
  static PatchWrite patch_write(PatchSet& ps, std::size_t pi, bool lineage);
  /// Books one patch's write result the same way on every write path: a
  /// committed patch adds its field count to `wrote` and the stats and
  /// records its lineage; a failed one counts an eval error. Returns
  /// whether the patch committed.
  bool book_write(const common::Result<std::uint64_t>& r, PatchWrite& patch,
                  bool lineage, const TraceContext& ctx, std::uint64_t span,
                  std::size_t& wrote);
  /// Resolves a mapping instance's refs against a snapshot into the
  /// (store, key, version, payload) records it read. Conservative: a ref
  /// whose key can't be pinned statically contributes every key of its
  /// alias (lineage completeness beats minimality — the differential test
  /// replays exactly this set).
  void resolve_inputs(const DxgMapping& mapping, const std::string* it_key,
                      const Snapshot& snapshot, std::vector<LineageRef>& out);
  /// Appends one (store, key) snapshot record to `out` (dedup by store+key;
  /// version and payload resolved from the snapshot).
  void add_input(const std::string& alias, const std::string& key,
                 const Snapshot& snapshot, std::vector<LineageRef>& out);
  /// Records one derived-write lineage entry on the DE's provenance ring.
  void record_lineage(const std::string& alias, const std::string& object,
                      std::uint64_t version, std::vector<LineageRef> inputs,
                      const TraceContext& ctx, std::uint64_t span_id);

  /// Builds the expression environment value for one alias from a list of
  /// that store's objects (objects keyed by name; default object's fields
  /// merged at top level).
  static common::Value build_alias_value(
      const std::vector<de::StateObject>& objects);

  void install_watches();
  void remove_watches();
  void schedule_poll();

  std::string name_;
  de::ObjectDe& de_;
  Dxg dxg_;
  std::map<std::string, de::ObjectStore*> stores_;
  Options options_;
  const de::SchemaRegistry* schemas_;
  Tracer* tracer_;
  bool running_ = false;
  bool pushdown_ = false;
  bool pass_in_flight_ = false;
  bool rerun_requested_ = false;
  int pass_attempt_ = 0;  // consecutive failed passes (retry bookkeeping)
  sim::SimTime pass_first_attempt_ = 0;
  std::string udf_name_;
  /// Causal context of the watch event/batch that triggered the pending
  /// pass (Dapper-style propagation): pass spans parent under it and
  /// derived writes inherit its trace id. Zero for the initial pass.
  TraceContext trigger_ctx_;
  std::vector<std::pair<de::ObjectStore*, std::uint64_t>> watches_;
  sim::Rng rng_{0xCA57};
  CastStats stats_;
};

}  // namespace knactor::core
