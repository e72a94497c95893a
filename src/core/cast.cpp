#include "core/cast.h"

#include <algorithm>
#include <memory>
#include <set>

#include "common/json.h"
#include "common/strings.h"
#include "common/logging.h"
#include "yaml/yaml.h"

namespace knactor::core {

using common::Error;
using common::Result;
using common::Status;
using common::Value;

namespace {

constexpr const char* kDefaultObject = "state";

/// Values compare as "already in sync" with numeric tolerance across
/// int/double (a recomputed double must not oscillate against a stored
/// int).
bool in_sync(const Value& current, const Value& desired) {
  if (current.is_number() && desired.is_number()) {
    return current.as_number() == desired.as_number();
  }
  return current == desired;
}

}  // namespace

CastIntegrator::CastIntegrator(std::string name, de::ObjectDe& de, Dxg dxg,
                               std::map<std::string, de::ObjectStore*> stores,
                               Options options,
                               const de::SchemaRegistry* schemas,
                               Tracer* tracer)
    : name_(std::move(name)),
      de_(de),
      dxg_(std::move(dxg)),
      stores_(std::move(stores)),
      options_(options),
      schemas_(schemas),
      tracer_(tracer) {}

CastIntegrator::CastIntegrator(std::string name, de::ObjectDe& de, Dxg dxg,
                               std::map<std::string, de::ObjectStore*> stores)
    : CastIntegrator(std::move(name), de, std::move(dxg), std::move(stores),
                     Options{}) {}

Status CastIntegrator::start() {
  if (running_) return Status::success();
  // All aliases must be bound.
  for (const auto& [alias, store_id] : dxg_.inputs()) {
    if (stores_.find(alias) == stores_.end()) {
      return Error::failed_precondition("cast " + name_ + ": alias '" + alias +
                                        "' (" + store_id + ") not bound");
    }
  }
  if (options_.strict) {
    auto issues = analyze(dxg_, schemas_);
    for (const auto& issue : issues) {
      if (issue.kind == DxgIssue::Kind::kCycle ||
          issue.kind == DxgIssue::Kind::kUnresolvedAlias ||
          issue.kind == DxgIssue::Kind::kUnknownField ||
          issue.kind == DxgIssue::Kind::kNotExternal) {
        return Error::failed_precondition("cast " + name_ + ": " +
                                          std::string(issue_kind_name(issue.kind)) +
                                          ": " + issue.detail);
      }
    }
  }
  running_ = true;
  if (pushdown_) {
    // Data path already lives in the DE.
  } else if (options_.poll_interval > 0) {
    schedule_poll();
  } else {
    install_watches();
  }
  // Initial pass picks up pre-existing state.
  if (!pushdown_) run_pass_async(options_.max_rounds_per_event);
  return Status::success();
}

void CastIntegrator::stop() {
  running_ = false;
  remove_watches();
}

void CastIntegrator::bind_store(const std::string& alias,
                                de::ObjectStore& store) {
  stores_[alias] = &store;
}

Status CastIntegrator::reconfigure(const Value& config) {
  KN_ASSIGN_OR_RETURN(Dxg next, Dxg::from_value(config));
  for (const auto& [alias, store_id] : next.inputs()) {
    if (stores_.find(alias) == stores_.end()) {
      return Error::failed_precondition("cast " + name_ + ": alias '" + alias +
                                        "' (" + store_id +
                                        ") not bound; call bind_store first");
    }
  }
  if (options_.strict) {
    auto issues = analyze(next, schemas_);
    for (const auto& issue : issues) {
      if (issue.kind == DxgIssue::Kind::kCycle ||
          issue.kind == DxgIssue::Kind::kUnresolvedAlias ||
          issue.kind == DxgIssue::Kind::kUnknownField ||
          issue.kind == DxgIssue::Kind::kNotExternal) {
        return Error::failed_precondition(
            "cast " + name_ + ": rejected reconfiguration: " +
            std::string(issue_kind_name(issue.kind)) + ": " + issue.detail);
      }
    }
  }
  bool was_pushdown = pushdown_;
  if (was_pushdown) disable_pushdown();
  bool was_running = running_;
  if (was_running) {
    remove_watches();
  }
  dxg_ = std::move(next);
  ++stats_.reconfigurations;
  if (was_pushdown) {
    KN_TRY(enable_pushdown());
  } else if (was_running) {
    if (options_.poll_interval == 0) install_watches();
    run_pass_async(options_.max_rounds_per_event);
  }
  return Status::success();
}

Status CastIntegrator::reconfigure_yaml(std::string_view yaml_text) {
  KN_ASSIGN_OR_RETURN(Value spec, yaml::parse(yaml_text));
  return reconfigure(spec);
}

void CastIntegrator::install_watches() {
  remove_watches();
  // Subscribe to every aliased store the DXG reads; also written stores
  // whose objects feed `this` references. Watching all aliases is simplest
  // and matches the informer pattern; self-writes converge because passes
  // only write out-of-sync fields.
  //
  // The spec's per-alias `Watch:` clause supplies the subscription's
  // content filter, projection, and QoS; a commit the filter rejects never
  // reaches the integrator, so no pass runs for it. `batch_window`
  // remains the programmatic default window when the clause sets none.
  for (const auto& [alias, store] : stores_) {
    if (dxg_.inputs().find(alias) == dxg_.inputs().end()) continue;
    de::SubscriptionSpec spec;
    if (const DxgWatch* clause = dxg_.watch_for(alias)) spec = clause->spec;
    if (spec.qos.window == 0) spec.qos.window = options_.batch_window;
    if (spec.qos.window > 0) {
      // Server-side coalescing: the DE buffers a window of commits and
      // delivers one batch; one pass consumes the whole burst.
      auto sub = store->subscribe_batch(
          principal(), std::move(spec), [this](const de::WatchBatch& batch) {
            if (!running_ || pushdown_) return;
            ++stats_.batches_consumed;
            stats_.batched_events += batch.events.size();
            // The earliest commit of the batch is the causal trigger (the
            // front event after the commit-seq merge); the whole pass runs
            // under its trace.
            if (!batch.events.empty()) trigger_ctx_ = batch.events.front().ctx;
            run_pass_async(options_.max_rounds_per_event);
          });
      if (!sub.ok()) {
        KN_WARN << "cast " << name_ << ": subscribe denied on store '"
                << store->name() << "': " << sub.error().to_string();
      } else {
        watches_.emplace_back(store, sub.value());
      }
      continue;
    }
    auto sub = store->subscribe(
        principal(), std::move(spec), [this](const de::WatchEvent& event) {
          if (!running_ || pushdown_) return;
          trigger_ctx_ = event.ctx;
          run_pass_async(options_.max_rounds_per_event);
        });
    if (!sub.ok()) {
      KN_WARN << "cast " << name_ << ": subscribe denied on store '"
              << store->name() << "': " << sub.error().to_string();
    } else {
      watches_.emplace_back(store, sub.value());
    }
  }
}

void CastIntegrator::remove_watches() {
  for (auto& [store, id] : watches_) {
    store->unwatch(id);
  }
  watches_.clear();
}

void CastIntegrator::schedule_poll() {
  if (!running_ || options_.poll_interval <= 0) return;
  de_.clock().schedule_after(options_.poll_interval, [this]() {
    if (!running_) return;
    run_pass_async(options_.max_rounds_per_event);
    schedule_poll();
  });
}

Value CastIntegrator::build_alias_value(
    const std::vector<de::StateObject>& objects) {
  Value out = Value::object();
  for (const auto& obj : objects) {
    out.set(obj.key, obj.data_copy());
  }
  // Default object's fields are visible at top level (so "P.id" resolves
  // when P's store keeps a single default object with field "id").
  const Value* def = out.get(kDefaultObject);
  if (def != nullptr && def->is_object()) {
    Value def_copy = *def;
    for (const auto& [k, v] : def_copy.as_object()) {
      if (out.get(k) == nullptr) out.set(k, v);
    }
  }
  return out;
}

void CastIntegrator::ingest(Snapshot& snapshot, const std::string& alias,
                            const std::vector<de::StateObject>& objects) {
  snapshot.values[alias] = build_alias_value(objects);
  auto& keys = snapshot.keys[alias];
  auto& versions = snapshot.versions[alias];
  for (const auto& obj : objects) {
    keys.push_back(obj.key);
    versions[obj.key] = obj.version;
  }
}

CastIntegrator::PatchWrite CastIntegrator::patch_write(PatchSet& ps,
                                                       std::size_t pi,
                                                       bool lineage) {
  const auto& [key, fields] = ps.patches[pi];
  PatchWrite patch;
  patch.alias = key.first;
  patch.object = key.second;
  patch.fields = fields.is_object() ? fields.as_object().size() : 0;
  if (lineage) patch.inputs = std::move(ps.inputs[pi]);
  return patch;
}

bool CastIntegrator::book_write(const Result<std::uint64_t>& r,
                                PatchWrite& patch, bool lineage,
                                const TraceContext& ctx, std::uint64_t span,
                                std::size_t& wrote) {
  if (!r.ok()) {
    ++stats_.eval_errors;
    KN_DEBUG << "cast " << name_ << ": write failed: " << r.error().to_string();
    return false;
  }
  wrote += patch.fields;
  stats_.fields_written += patch.fields;
  if (lineage) {
    record_lineage(patch.alias, patch.object, r.value(),
                   std::move(patch.inputs), ctx, span);
  }
  return true;
}

void CastIntegrator::add_input(const std::string& alias,
                               const std::string& key,
                               const Snapshot& snapshot,
                               std::vector<LineageRef>& out) {
  auto sit = stores_.find(alias);
  if (sit == stores_.end()) return;
  const std::string& store = sit->second->name();
  for (const auto& existing : out) {
    if (existing.store == store && existing.key == key) return;
  }
  LineageRef ref;
  ref.store = store;
  ref.key = key;
  if (auto vit = snapshot.versions.find(alias);
      vit != snapshot.versions.end()) {
    if (auto kv = vit->second.find(key); kv != vit->second.end()) {
      ref.version = kv->second;
    }
  }
  if (auto valit = snapshot.values.find(alias);
      valit != snapshot.values.end()) {
    const Value* obj = valit->second.get(key);
    if (obj != nullptr) ref.data = std::make_shared<const Value>(*obj);
  }
  out.push_back(std::move(ref));
}

void CastIntegrator::resolve_inputs(const DxgMapping& mapping,
                                    const std::string* it_key,
                                    const Snapshot& snapshot,
                                    std::vector<LineageRef>& out) {
  auto add = [&](const std::string& alias, const std::string& key) {
    add_input(alias, key, snapshot, out);
  };
  for (const auto& ref : mapping.refs) {
    auto dot = ref.find('.');
    std::string alias = dot == std::string::npos ? ref : ref.substr(0, dot);
    if (stores_.find(alias) == stores_.end()) continue;
    if (mapping.fan_out && it_key != nullptr && alias == mapping.driver_alias) {
      add(alias, *it_key);
      continue;
    }
    auto kit = snapshot.keys.find(alias);
    if (kit == snapshot.keys.end()) continue;
    const auto& keys = kit->second;
    auto has = [&keys](const std::string& k) {
      return std::find(keys.begin(), keys.end(), k) != keys.end();
    };
    // "ALIAS.x.y": x is the object key when such an object exists;
    // otherwise the ref reads through the default object's top-level
    // merge. A ref that can't be pinned contributes every object of the
    // alias — completeness beats minimality for replay.
    std::string first;
    if (dot != std::string::npos) {
      std::string rest = ref.substr(dot + 1);
      auto dot2 = rest.find('.');
      first = dot2 == std::string::npos ? rest : rest.substr(0, dot2);
    }
    if (!first.empty() && has(first)) {
      add(alias, first);
    } else if (has(kDefaultObject)) {
      add(alias, kDefaultObject);
    } else {
      for (const auto& k : keys) add(alias, k);
    }
  }
}

void CastIntegrator::record_lineage(const std::string& alias,
                                    const std::string& object,
                                    std::uint64_t version,
                                    std::vector<LineageRef> inputs,
                                    const TraceContext& ctx,
                                    std::uint64_t span_id) {
  auto& ring = de_.kernel().provenance();
  if (!ring.enabled()) return;
  auto sit = stores_.find(alias);
  if (sit == stores_.end()) return;
  de::ObjectStore* store = sit->second;
  LineageRecord rec;
  rec.output.store = store->name();
  rec.output.key = object;
  rec.output.version = version;
  // Resolve the committed payload at exactly `version` from the kernel's
  // version-chain record: later commits may already have landed by the
  // time this callback runs, so peeking the live object could record the
  // wrong bytes (and the wrong pre-state — the snapshot the pass read may
  // be older than the version the patch actually merged into).
  if (const LineageRecord* committed =
          ring.find(store->name(), object, version);
      committed != nullptr) {
    rec.output.data = committed->output.data;
    if (!committed->inputs.empty()) {
      for (auto& input : inputs) {
        if (input.store == store->name() && input.key == object) {
          input = committed->inputs.front();
        }
      }
    }
  } else if (const de::StateObject* live = store->peek(object);
             live != nullptr) {
    rec.output.data = live->data;
    if (version == 0) rec.output.version = live->version;
  }
  rec.inputs = std::move(inputs);
  rec.op = "cast:" + name_;
  rec.stage = "I-S";
  rec.trace_id = ctx.trace_id;
  rec.span_id = span_id;
  rec.time = de_.clock().now();
  ring.record(std::move(rec));
}

CastIntegrator::PatchSet CastIntegrator::evaluate(const Snapshot& snapshot) {
  PatchSet result;
  const bool lineage = de_.kernel().provenance().enabled();
  const auto& functions = expr::FunctionRegistry::builtins();
  // Work on a mutable copy so later mappings see earlier mappings' writes
  // within the same pass (operation ordering via state dependencies).
  std::map<std::string, Value> working = snapshot.values;

  // Evaluates one (mapping, target object key) instance; `it_key` is bound
  // for fan-out instances.
  auto apply_one = [&](const DxgMapping& mapping,
                       const std::string& target_object,
                       const std::string* it_key) {
    expr::MapEnv env;
    for (const auto& [alias, value] : working) {
      env.bind(alias, value);
    }
    if (it_key != nullptr) env.bind("it", Value(*it_key));
    // `this` = the target object's current value.
    Value target_obj = Value::object();
    auto wit = working.find(mapping.target_alias);
    if (wit != working.end()) {
      const Value* obj = wit->second.get(target_object);
      if (obj != nullptr && obj->is_object()) target_obj = *obj;
    }
    env.bind("this", target_obj);

    auto evaluated = expr::evaluate(*mapping.compiled, env, functions);
    if (!evaluated.ok()) {
      ++result.errors;
      ++stats_.eval_errors;
      KN_DEBUG << "cast " << name_ << ": " << mapping.target_path() << ": "
               << evaluated.error().to_string();
      return;
    }
    Value desired = evaluated.take();
    if (desired.is_null()) {
      ++result.not_ready;
      return;
    }
    const Value* current = target_obj.get(mapping.field);
    if (current != nullptr && in_sync(*current, desired)) return;

    // Record the patch, grouped by (alias, object).
    auto key = std::make_pair(mapping.target_alias, target_object);
    std::size_t gi = result.patches.size();
    for (std::size_t i = 0; i < result.patches.size(); ++i) {
      if (result.patches[i].first == key) {
        gi = i;
        break;
      }
    }
    if (gi == result.patches.size()) {
      result.patches.emplace_back(key, Value::object());
      if (lineage) {
        result.inputs.emplace_back();
        // The target's own pre-state is always an input: the committed
        // output is the merge of this patch over it, so replaying the
        // inputs alone must be able to rebuild the record byte-for-byte.
        auto vit = snapshot.values.find(mapping.target_alias);
        if (vit != snapshot.values.end() &&
            vit->second.get(target_object) != nullptr) {
          add_input(mapping.target_alias, target_object, snapshot,
                    result.inputs.back());
        }
      }
    }
    result.patches[gi].second.set(mapping.field, desired);
    if (lineage) resolve_inputs(mapping, it_key, snapshot, result.inputs[gi]);

    // Reflect the write into the working snapshot for later mappings.
    auto& alias_value = working[mapping.target_alias];
    if (!alias_value.is_object()) alias_value = Value::object();
    Value* obj = alias_value.get(target_object);
    if (obj == nullptr || !obj->is_object()) {
      alias_value.set(target_object, Value::object());
      obj = alias_value.get(target_object);
    }
    obj->set(mapping.field, desired);
    if (target_object == kDefaultObject) {
      // Keep the top-level merge view coherent.
      if (alias_value.get(mapping.field) == nullptr ||
          !alias_value.get(mapping.field)->is_object()) {
        alias_value.set(mapping.field, desired);
      }
    }
  };

  for (const auto& mapping : dxg_.mappings()) {
    if (!mapping.fan_out) {
      apply_one(mapping, mapping.target_object, nullptr);
      continue;
    }
    auto kit = snapshot.keys.find(mapping.driver_alias);
    if (kit == snapshot.keys.end()) continue;
    for (const std::string& driver_key : kit->second) {
      if (!common::starts_with(driver_key, mapping.driver_prefix)) continue;
      apply_one(mapping, driver_key, &driver_key);
    }
  }
  return result;
}

void CastIntegrator::run_pass_async(int rounds_left) {
  if (!running_ || pushdown_ || rounds_left <= 0) return;
  if (pass_in_flight_) {
    rerun_requested_ = true;
    return;
  }
  pass_in_flight_ = true;

  // The pass runs under the trace of the watch event/batch that triggered
  // it: the pass span parents under the causing write's span, and the
  // C-I / I / I-S child spans carry the paper's stage attribution.
  const TraceContext trigger = trigger_ctx_;
  std::uint64_t span = 0;
  std::uint64_t snap_span = 0;
  if (tracer_ != nullptr) {
    span = tracer_->begin("cast.pass." + name_, trigger.parent_span);
    if (trigger.active()) {
      tracer_->annotate(span, "trace", std::to_string(trigger.trace_id));
    }
    snap_span = tracer_->begin("cast.snapshot." + name_, span);
    tracer_->annotate(snap_span, "stage", "C-I");
  }

  // Gather a snapshot of every aliased store via async lists.
  auto snapshot = std::make_shared<Snapshot>();
  auto remaining = std::make_shared<std::size_t>(0);
  std::vector<std::pair<std::string, de::ObjectStore*>> targets;
  for (const auto& [alias, store_id] : dxg_.inputs()) {
    auto it = stores_.find(alias);
    if (it != stores_.end()) targets.emplace_back(alias, it->second);
  }
  *remaining = targets.size();

  auto finish_snapshot = [this, snapshot, rounds_left, span, snap_span,
                          trigger]() {
    std::uint64_t compute_span = 0;
    if (tracer_ != nullptr) {
      if (snap_span != 0) tracer_->end(snap_span);
      compute_span = tracer_->begin("cast.compute." + name_, span);
      tracer_->annotate(compute_span, "stage", "I");
    }
    // Charge integrator compute, then evaluate + write.
    de_.clock().schedule_after(
        options_.compute.sample(rng_),
        [this, snapshot, rounds_left, span, compute_span, trigger]() {
          ++stats_.passes;
          PatchSet ps = evaluate(*snapshot);
          stats_.fields_skipped_not_ready += ps.not_ready;
          std::uint64_t write_span = 0;
          if (tracer_ != nullptr) {
            if (compute_span != 0) tracer_->end(compute_span);
            if (!ps.patches.empty()) {
              write_span = tracer_->begin("cast.write." + name_, span);
              tracer_->annotate(write_span, "stage", "I-S");
            }
          }
          // Derived writes inherit the triggering trace and parent under
          // the write (or pass) span; the DE captures this context at the
          // patch call below.
          TraceContext write_ctx;
          write_ctx.trace_id = trigger.trace_id;
          write_ctx.parent_span = write_span != 0 ? write_span : span;

          auto writes_left = std::make_shared<std::size_t>(ps.patches.size());
          auto wrote = std::make_shared<std::size_t>(0);
          auto write_failed = std::make_shared<bool>(false);
          auto complete = [this, writes_left, wrote, write_failed, snapshot,
                           rounds_left, span, write_span]() {
            if (*writes_left > 0) return;
            pass_in_flight_ = false;
            if (tracer_ != nullptr) {
              if (write_span != 0) tracer_->end(write_span);
              if (span != 0) tracer_->end(span);
            }
            const bool failed = snapshot->failed || *write_failed;
            if (failed) {
              ++stats_.failed_passes;
              if (options_.metrics != nullptr) {
                options_.metrics->inc("cast." + name_ + ".failed_passes");
              }
            }
            if (failed && options_.retry.enabled()) {
              if (pass_attempt_ == 0) pass_first_attempt_ = de_.clock().now();
              ++pass_attempt_;
              const sim::SimTime elapsed =
                  de_.clock().now() - pass_first_attempt_;
              if (options_.retry.should_retry(pass_attempt_, elapsed)) {
                ++stats_.retries;
                if (options_.metrics != nullptr) {
                  options_.metrics->inc("cast." + name_ + ".retries");
                }
                rerun_requested_ = false;
                de_.clock().schedule_after(
                    options_.retry.backoff(pass_attempt_, rng_), [this]() {
                      run_pass_async(options_.max_rounds_per_event);
                    });
                return;
              }
              // Budget exhausted: give up until the next watch event (or an
              // explicit resync pass) re-triggers the exchange.
              pass_attempt_ = 0;
            } else if (!failed) {
              pass_attempt_ = 0;
            }
            bool rerun = rerun_requested_;
            rerun_requested_ = false;
            if (*wrote > 0 && rounds_left > 1) {
              run_pass_async(rounds_left - 1);
            } else if (rerun) {
              run_pass_async(options_.max_rounds_per_event);
            }
          };
          if (ps.patches.empty()) {
            complete();
            return;
          }
          const bool lineage = !ps.inputs.empty();
          de_.kernel().set_trace_context(write_ctx);
          if (options_.epoch_commit) {
            // Epoch mode: group the pass's patches per target store
            // (first-appearance order) and commit each group as one epoch
            // — one write round trip per store, shard-parallel commit work
            // behind the DE's deterministic merge. Results map back to the
            // same per-patch bookkeeping as the per-patch path.
            struct EpochGroup {
              de::ObjectStore* store = nullptr;
              std::vector<de::EpochWrite> writes;
              std::vector<PatchWrite> patches;
            };
            auto groups = std::make_shared<std::vector<EpochGroup>>();
            std::map<std::string, std::size_t> group_of;
            for (std::size_t pi = 0; pi < ps.patches.size(); ++pi) {
              PatchWrite patch = patch_write(ps, pi, lineage);
              auto [it, inserted] =
                  group_of.emplace(patch.alias, groups->size());
              if (inserted) {
                groups->push_back(EpochGroup{});
                groups->back().store = stores_[patch.alias];
              }
              EpochGroup& g = (*groups)[it->second];
              g.writes.push_back({.key = patch.object,
                                  .data = std::move(ps.patches[pi].second),
                                  .merge = true});
              g.patches.push_back(std::move(patch));
            }
            *writes_left = groups->size();
            for (std::size_t gi = 0; gi < groups->size(); ++gi) {
              EpochGroup& g = (*groups)[gi];
              auto writes = std::move(g.writes);
              g.store->put_epoch(
                  principal(), std::move(writes),
                  [this, writes_left, wrote, write_failed, complete, groups,
                   gi, lineage, write_ctx,
                   span](std::vector<Result<std::uint64_t>> results) {
                    EpochGroup& g = (*groups)[gi];
                    for (std::size_t j = 0; j < results.size(); ++j) {
                      if (!book_write(results[j], g.patches[j], lineage,
                                      write_ctx, span, *wrote)) {
                        *write_failed = true;
                      }
                    }
                    --*writes_left;
                    complete();
                  });
            }
          } else {
            for (std::size_t pi = 0; pi < ps.patches.size(); ++pi) {
              PatchWrite patch = patch_write(ps, pi, lineage);
              de::ObjectStore* store = stores_[patch.alias];
              const std::string object = patch.object;
              store->patch(principal(), object,
                           std::move(ps.patches[pi].second),
                           [this, writes_left, wrote, write_failed, complete,
                            patch = std::move(patch), lineage, write_ctx,
                            span](Result<std::uint64_t> r) mutable {
                             --*writes_left;
                             if (!book_write(r, patch, lineage, write_ctx,
                                             span, *wrote)) {
                               *write_failed = true;
                             }
                             complete();
                           });
            }
          }
          de_.kernel().clear_trace_context();
        });
  };

  if (targets.empty()) {
    finish_snapshot();
    return;
  }
  for (auto& [alias, store] : targets) {
    std::string alias_copy = alias;
    store->list(principal(), "",
                [snapshot, remaining, alias_copy, finish_snapshot](
                    Result<std::vector<de::StateObject>> r) {
                  if (r.ok()) {
                    ingest(*snapshot, alias_copy, r.value());
                  } else {
                    snapshot->values[alias_copy] = Value::object();
                    snapshot->failed = true;
                  }
                  if (--*remaining == 0) finish_snapshot();
                });
  }
}

Result<std::size_t> CastIntegrator::run_pass_sync() {
  if (pushdown_) {
    KN_ASSIGN_OR_RETURN(Value result,
                        de_.call_udf_sync(principal(), udf_name_,
                                          Value::object()));
    auto n = result.try_int();
    return static_cast<std::size_t>(n.value_or(0));
  }
  bool was_running = running_;
  running_ = true;
  std::size_t before = stats_.fields_written;
  run_pass_async(options_.max_rounds_per_event);
  while (pass_in_flight_ && de_.clock().step()) {
  }
  running_ = was_running;
  return stats_.fields_written - before;
}

Status CastIntegrator::enable_pushdown() {
  if (!de_.profile().supports_udf) {
    return Error::failed_precondition(
        "cast " + name_ + ": DE '" + de_.profile().name +
        "' does not support UDFs (push-down unavailable)");
  }
  udf_name_ = "cast:" + name_;

  // The UDF reads this integrator's live DXG through `self`, so a
  // reconfigure takes effect without re-registering. The integrator must
  // outlive the DE registration (disable_pushdown before destruction).
  std::map<std::string, std::string> alias_to_store;
  for (const auto& [alias, store] : stores_) {
    alias_to_store[alias] = store->name();
  }

  auto self = this;
  KN_TRY(de_.register_udf(
      principal(), udf_name_,
      [self, alias_to_store](de::UdfContext& ctx,
                             const Value&) -> Result<Value> {
        // The triggering commit's context is ambient during the UDF body
        // (installed by the DE's trigger dispatch).
        const TraceContext in_ctx = self->de_.kernel().trace_context();
        std::uint64_t span = 0;
        std::uint64_t snap_span = 0;
        if (self->tracer_ != nullptr) {
          span = self->tracer_->begin("cast.udf." + self->name_,
                                      in_ctx.parent_span);
          if (in_ctx.active()) {
            self->tracer_->annotate(span, "trace",
                                    std::to_string(in_ctx.trace_id));
          }
          snap_span = self->tracer_->begin("cast.snapshot." + self->name_, span);
          self->tracer_->annotate(snap_span, "stage", "C-I");
        }
        auto close_spans = [self, span](std::uint64_t inner) {
          if (self->tracer_ != nullptr) {
            if (inner != 0) self->tracer_->end(inner);
            if (span != 0) self->tracer_->end(span);
          }
        };
        // Snapshot via engine-level lists.
        Snapshot snapshot;
        for (const auto& [alias, store_id] : self->dxg_.inputs()) {
          auto it = alias_to_store.find(alias);
          if (it == alias_to_store.end()) continue;
          auto objs = ctx.list(it->second, "");
          if (!objs.ok()) {
            close_spans(snap_span);
            return objs.error();
          }
          ingest(snapshot, alias, objs.value());
        }
        std::uint64_t compute_span = 0;
        if (self->tracer_ != nullptr) {
          self->tracer_->end(snap_span);
          compute_span = self->tracer_->begin("cast.compute." + self->name_, span);
          self->tracer_->annotate(compute_span, "stage", "I");
        }
        // Function execution overhead inside the engine.
        ctx.charge(self->options_.compute.sample(self->rng_));
        PatchSet ps = self->evaluate(snapshot);
        self->stats_.fields_skipped_not_ready += ps.not_ready;
        ++self->stats_.passes;
        std::uint64_t write_span = 0;
        if (self->tracer_ != nullptr) {
          self->tracer_->end(compute_span);
          write_span = self->tracer_->begin("cast.write." + self->name_, span);
          self->tracer_->annotate(write_span, "stage", "I-S");
        }
        const bool lineage = !ps.inputs.empty();
        TraceContext write_ctx;
        write_ctx.trace_id = in_ctx.trace_id;
        write_ctx.parent_span = write_span != 0 ? write_span : span;
        self->de_.kernel().set_trace_context(write_ctx);
        std::size_t written = 0;
        for (std::size_t pi = 0; pi < ps.patches.size(); ++pi) {
          auto it = alias_to_store.find(ps.patches[pi].first.first);
          if (it == alias_to_store.end()) continue;
          PatchWrite patch = patch_write(ps, pi, lineage);
          auto patched = ctx.patch(it->second, patch.object,
                                   std::move(ps.patches[pi].second));
          if (!patched.ok()) {
            self->de_.kernel().set_trace_context(in_ctx);
            close_spans(write_span);
            return patched.error();
          }
          self->book_write(patched, patch, lineage, write_ctx, span, written);
        }
        self->de_.kernel().set_trace_context(in_ctx);
        close_spans(write_span);
        return Value(static_cast<std::int64_t>(written));
      }));

  // Triggers on every store the DXG reads (writes by services kick the
  // exchange; the UDF's own writes re-trigger but converge immediately).
  std::set<std::string> read_stores;
  for (const auto& mapping : dxg_.mappings()) {
    for (const auto& ref : mapping.refs) {
      auto dot = ref.find('.');
      std::string alias = dot == std::string::npos ? ref : ref.substr(0, dot);
      auto it = stores_.find(alias);
      if (it != stores_.end()) read_stores.insert(it->second->name());
    }
  }
  for (const auto& store_name : read_stores) {
    KN_TRY(de_.add_trigger(store_name, "", udf_name_));
  }
  pushdown_ = true;
  remove_watches();
  return Status::success();
}

void CastIntegrator::disable_pushdown() {
  if (!pushdown_) return;
  for (const auto& [alias, store] : stores_) {
    de_.remove_trigger(store->name(), udf_name_);
  }
  pushdown_ = false;
  if (running_ && options_.poll_interval == 0) install_watches();
}

}  // namespace knactor::core
