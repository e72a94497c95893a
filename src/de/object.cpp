#include "de/object.h"

#include <algorithm>
#include <cstdio>

#include "common/json.h"
#include "common/logging.h"
#include "common/strings.h"
#include "de/persist/engine.h"

namespace knactor::de {

using common::Error;
using common::Result;
using common::SharedValue;
using common::Status;
using common::Value;

// ---------------------------------------------------------------------------
// ObjectStore client operations: each charges the profile's round-trip
// latency, then executes against the engine and completes.
// ---------------------------------------------------------------------------

void ObjectStore::get(const std::string& principal, const std::string& key,
                      GetCallback done) {
  sim::SimTime rt = de_.profile_.read_rt.sample(de_.kernel_.rng());
  de_.clock().schedule_after(rt, [this, principal, key,
                                  done = std::move(done)] {
    if (!de_.kernel_.guard_available()) {
      done(Error::unavailable("object: de unavailable (crashed)"));
      return;
    }
    ++de_.stats_.reads;
    Decision d = de_.check_access(principal, name_, key, Verb::kGet);
    if (!d.allowed) {
      ++de_.stats_.permission_denials;
      done(Error::permission_denied("object: " + principal +
                                    " cannot get " + name_ + "/" + key));
      return;
    }
    const StateObject* found = objects_.find(key);
    if (found == nullptr) {
      done(Error::not_found("object: " + name_ + "/" + key + " not found"));
      return;
    }
    StateObject obj = *found;
    if (!d.fields.unrestricted() && obj.data) {
      obj.data = std::make_shared<const Value>(
          Rbac::filter_fields(*obj.data, d.fields));
    }
    done(std::move(obj));
  });
}

void ObjectStore::get_shared(
    const std::string& principal, const std::string& key,
    std::function<void(Result<SharedValue>)> done) {
  get(principal, key, [done = std::move(done)](Result<StateObject> r) {
    if (!r.ok()) {
      done(r.error());
      return;
    }
    done(r.value().data);
  });
}

void ObjectStore::put(const std::string& principal, const std::string& key,
                      Value data, PutCallback done) {
  submit(principal, {.key = key, .data = std::move(data)}, std::move(done));
}

void ObjectStore::put_versioned(const std::string& principal,
                                const std::string& key, Value data,
                                std::uint64_t expected_version,
                                PutCallback done) {
  submit(principal,
         {.key = key, .data = std::move(data),
          .expected_version = expected_version},
         std::move(done));
}

void ObjectStore::patch(const std::string& principal, const std::string& key,
                        Value fields, PutCallback done) {
  submit(principal, {.key = key, .data = std::move(fields), .merge = true},
         std::move(done));
}

void ObjectStore::remove(const std::string& principal, const std::string& key,
                         DelCallback done) {
  submit(principal, {.key = key, .remove = true},
         [done = std::move(done)](Result<std::uint64_t> r) {
           done(r.ok() ? Status::success() : Status(r.error()));
         });
}

void ObjectStore::submit(const std::string& principal, EpochWrite write,
                         PutCallback done) {
  sim::SimTime rt = de_.profile_.write_rt.sample(de_.kernel_.rng());
  // The ambient trace context is captured synchronously at the client
  // call (the writer's causal moment), not at the commit's scheduled
  // execution — by then the writer has cleared it.
  core::TraceContext ctx = de_.kernel_.trace_context();
  de_.clock().schedule_after(
      rt, [this, principal, ctx, write = std::move(write),
           done = std::move(done)]() mutable {
        done(de_.submit_write(ObjectDe::WriteOrigin::kClient, *this,
                              principal, std::move(write), ctx));
      });
}

void ObjectStore::list(const std::string& principal, const std::string& prefix,
                       ListCallback done) {
  sim::SimTime rt = de_.profile_.list_rt.sample(de_.kernel_.rng());
  de_.clock().schedule_after(rt, [this, principal, prefix,
                                  done = std::move(done)] {
    if (!de_.kernel_.guard_available()) {
      done(Error::unavailable("object: de unavailable (crashed)"));
      return;
    }
    ++de_.stats_.lists;
    Decision d = de_.check_access(principal, name_, prefix, Verb::kList);
    if (!d.allowed) {
      ++de_.stats_.permission_denials;
      done(Error::permission_denied("object: " + principal + " cannot list " +
                                    name_));
      return;
    }
    done(scan(prefix, d.fields));
  });
}

std::vector<StateObject> ObjectStore::scan(const std::string& prefix,
                                           const FieldRule& fields) const {
  // Shard-parallel prefix scan: each shard collects and RBAC-filters its
  // own matches (pure per-shard work), then the merge sorts by key —
  // byte-identical to the 1-shard in-order scan.
  const std::size_t shard_count = objects_.shard_count();
  std::vector<std::vector<StateObject>> per_shard(shard_count);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    tasks.push_back([this, i, &per_shard, &prefix, &fields] {
      std::vector<StateObject>& out = per_shard[i];
      for (const auto& [key, obj] : objects_.shard(i)) {
        if (!common::starts_with(key, prefix)) continue;
        StateObject copy = obj;
        if (!fields.unrestricted() && copy.data) {
          copy.data = std::make_shared<const Value>(
              Rbac::filter_fields(*copy.data, fields));
        }
        out.push_back(std::move(copy));
      }
    });
  }
  de_.kernel_.run_shard_tasks(tasks);
  std::vector<StateObject> out;
  for (auto& shard : per_shard) {
    for (auto& obj : shard) out.push_back(std::move(obj));
  }
  std::sort(out.begin(), out.end(),
            [](const StateObject& a, const StateObject& b) {
              return a.key < b.key;
            });
  return out;
}

void ObjectStore::put_epoch(const std::string& principal,
                            std::vector<EpochWrite> writes,
                            EpochCallback done) {
  // One write round trip for the whole epoch: batching the exchange is the
  // point of the pipeline (the per-op path pays the round trip per write).
  sim::SimTime rt = de_.profile_.write_rt.sample(de_.kernel_.rng());
  core::TraceContext ctx = de_.kernel_.trace_context();
  de_.clock().schedule_after(
      rt, [this, principal, ctx, writes = std::move(writes),
           done = std::move(done)]() mutable {
        done(de_.commit_epoch(*this, principal, ctx, std::move(writes)));
      });
}

std::vector<Result<std::uint64_t>> ObjectStore::put_epoch_sync(
    const std::string& principal, std::vector<EpochWrite> writes) {
  std::optional<std::vector<Result<std::uint64_t>>> results;
  put_epoch(principal, std::move(writes),
            [&](std::vector<Result<std::uint64_t>> r) {
              results = std::move(r);
            });
  de_.run_sync([&] { return results.has_value(); });
  return std::move(*results);
}

Result<std::uint64_t> ObjectStore::subscribe(const std::string& principal,
                                             SubscriptionSpec spec,
                                             WatchCallback callback) {
  return de_.add_subscription(*this, principal, std::move(spec),
                              std::move(callback), nullptr);
}

Result<std::uint64_t> ObjectStore::subscribe_batch(
    const std::string& principal, SubscriptionSpec spec,
    WatchBatchCallback callback) {
  return de_.add_subscription(*this, principal, std::move(spec), nullptr,
                              std::move(callback));
}

std::uint64_t ObjectStore::watch(const std::string& principal,
                                 const std::string& prefix,
                                 WatchCallback callback) {
  SubscriptionSpec spec;
  spec.prefix = prefix;
  auto sub = subscribe(principal, std::move(spec), std::move(callback));
  return sub.ok() ? sub.value() : 0;
}

std::uint64_t ObjectStore::watch_batch(const std::string& principal,
                                       const std::string& prefix,
                                       sim::SimTime window,
                                       WatchBatchCallback callback) {
  SubscriptionSpec spec;
  spec.prefix = prefix;
  spec.qos.window = window;
  auto sub = subscribe_batch(principal, std::move(spec), std::move(callback));
  return sub.ok() ? sub.value() : 0;
}

void ObjectStore::unsubscribe(std::uint64_t watch_id, bool drain) {
  auto it = de_.watch_buffers_.find(watch_id);
  if (it != de_.watch_buffers_.end()) {
    std::size_t pending = 0;
    for (const auto& queue : it->second.shards) pending += queue.events.size();
    if (pending > 0) {
      if (drain) {
        // Deliver the half-open window now, synchronously, before the watch
        // goes away — same shard sort + cross-shard merge a scheduled flush
        // runs (flush_watch_batch erases the buffer itself).
        de_.flush_watch_batch(watch_id);
      } else {
        de_.stats_.watch_events_dropped += pending;
        if (auto* info = de_.kernel_.find_subscription(watch_id)) {
          info->dropped += pending;
        }
        if (it->second.span_id != 0 && de_.tracer_ != nullptr) {
          de_.tracer_->annotate(it->second.span_id, "dropped",
                                std::to_string(pending));
          de_.tracer_->end(it->second.span_id);
        }
      }
    }
  }
  std::erase_if(de_.watches_,
                [watch_id](const auto& w) { return w.id == watch_id; });
  // A flush scheduled for a window we just drained or dropped finds no
  // buffer and no-ops — never a dangling coalesce slot, deterministically.
  de_.watch_buffers_.erase(watch_id);
  de_.kernel_.unregister_subscription(watch_id);
}

void ObjectStore::unwatch(std::uint64_t watch_id) {
  unsubscribe(watch_id, /*drain=*/false);
}

// Synchronous wrappers.

Result<StateObject> ObjectStore::get_sync(const std::string& principal,
                                          const std::string& key) {
  std::optional<Result<StateObject>> result;
  get(principal, key, [&](Result<StateObject> r) { result = std::move(r); });
  de_.run_sync([&] { return result.has_value(); });
  return std::move(*result);
}

Result<std::uint64_t> ObjectStore::put_sync(const std::string& principal,
                                            const std::string& key,
                                            Value data) {
  std::optional<Result<std::uint64_t>> result;
  put(principal, key, std::move(data),
      [&](Result<std::uint64_t> r) { result = std::move(r); });
  de_.run_sync([&] { return result.has_value(); });
  return std::move(*result);
}

Result<std::uint64_t> ObjectStore::patch_sync(const std::string& principal,
                                              const std::string& key,
                                              Value fields) {
  std::optional<Result<std::uint64_t>> result;
  patch(principal, key, std::move(fields),
        [&](Result<std::uint64_t> r) { result = std::move(r); });
  de_.run_sync([&] { return result.has_value(); });
  return std::move(*result);
}

Status ObjectStore::remove_sync(const std::string& principal,
                                const std::string& key) {
  std::optional<Status> result;
  remove(principal, key, [&](Status s) { result = std::move(s); });
  de_.run_sync([&] { return result.has_value(); });
  return std::move(*result);
}

Result<std::uint64_t> ObjectStore::update_sync(
    const std::string& principal, const std::string& key,
    const std::function<Value(const Value&)>& mutate, int max_attempts) {
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    std::uint64_t version = 0;
    Value current;
    auto read = get_sync(principal, key);
    if (read.ok()) {
      version = read.value().version;
      current = read.value().data_copy();
    } else if (read.error().code != Error::Code::kNotFound) {
      return read.error();
    }
    Value next = mutate(current);

    std::optional<Result<std::uint64_t>> written;
    put_versioned(principal, key, std::move(next), version,
                  [&](Result<std::uint64_t> r) { written = std::move(r); });
    de_.run_sync([&] { return written.has_value(); });
    if (written->ok()) return std::move(*written);
    if (written->error().code != Error::Code::kFailedPrecondition) {
      return written->error();
    }
    // Version conflict: loop and re-read.
  }
  return Error::failed_precondition("object: update of " + name_ + "/" + key +
                                    " conflicted " +
                                    std::to_string(max_attempts) + " times");
}

Result<std::vector<StateObject>> ObjectStore::list_sync(
    const std::string& principal, const std::string& prefix) {
  std::optional<Result<std::vector<StateObject>>> result;
  list(principal, prefix,
       [&](Result<std::vector<StateObject>> r) { result = std::move(r); });
  de_.run_sync([&] { return result.has_value(); });
  return std::move(*result);
}

// ---------------------------------------------------------------------------
// UdfContext: engine-level access.
// ---------------------------------------------------------------------------

Result<StateObject> UdfContext::get(const std::string& store,
                                    const std::string& key) {
  de_.clock().advance(de_.profile_.engine_read.sample(de_.kernel_.rng()));
  ++de_.stats_.engine_ops;
  return de_.engine_get(store, key, principal_);
}

Result<std::uint64_t> UdfContext::put(const std::string& store,
                                      const std::string& key, Value data) {
  return write(store, {.key = key, .data = std::move(data)});
}

Result<std::uint64_t> UdfContext::patch(const std::string& store,
                                        const std::string& key, Value fields) {
  return write(store, {.key = key, .data = std::move(fields), .merge = true});
}

Result<std::uint64_t> UdfContext::write(const std::string& store,
                                        EpochWrite write) {
  de_.clock().advance(de_.profile_.engine_write.sample(de_.kernel_.rng()));
  ++de_.stats_.engine_ops;
  ObjectStore* s = de_.store(store);
  if (s == nullptr) {
    return Error::not_found("udf: unknown store '" + store + "'");
  }
  return de_.submit_write(ObjectDe::WriteOrigin::kUdf, *s, principal_,
                          std::move(write), de_.kernel_.trace_context());
}

Result<std::vector<StateObject>> UdfContext::list(const std::string& store,
                                                  const std::string& prefix) {
  de_.clock().advance(de_.profile_.engine_read.sample(de_.kernel_.rng()));
  ++de_.stats_.engine_ops;
  ObjectStore* s = de_.store(store);
  if (s == nullptr) {
    return Error::not_found("udf: unknown store '" + store + "'");
  }
  Decision d =
      de_.check_access(principal_, store, prefix, Verb::kList);
  if (!d.allowed) {
    ++de_.stats_.permission_denials;
    return Error::permission_denied("udf: " + principal_ + " cannot list " +
                                    store);
  }
  return s->scan(prefix, d.fields);
}

sim::SimTime UdfContext::now() const { return de_.kernel_.clock().now(); }

void UdfContext::charge(sim::SimTime duration) {
  de_.clock().advance(duration);
}

// ---------------------------------------------------------------------------
// ObjectDe.
// ---------------------------------------------------------------------------

ObjectDe::ObjectDe(sim::VirtualClock& clock, ObjectDeProfile profile,
                   std::uint64_t seed)
    : kernel_(clock, seed), profile_(std::move(profile)) {
  kernel_.set_hooks(Kernel::Hooks{&stats_.unavailable_rejections});
  kernel_.set_restart_hook([this] { restart(); });
}

ObjectStore& ObjectDe::create_store(const std::string& name) {
  auto it = stores_.find(name);
  if (it != stores_.end()) return *it->second;
  auto store =
      std::unique_ptr<ObjectStore>(new ObjectStore(*this, name, shards_));
  ObjectStore& ref = *store;
  stores_[name] = std::move(store);
  return ref;
}

ObjectStore* ObjectDe::store(const std::string& name) {
  auto it = stores_.find(name);
  return it == stores_.end() ? nullptr : it->second.get();
}

void ObjectDe::set_shards(std::size_t n) {
  if (n == 0) n = 1;
  shards_ = n;
  for (auto& [name, store] : stores_) {
    store->objects_.set_shard_count(n);
  }
  // Pending watch buffers move to the new layout too, so every batched
  // watcher keeps staging straight into its shard queue. Queue order is
  // irrelevant: the flush sorts each queue by commit seq before merging.
  for (auto& [id, buf] : watch_buffers_) {
    std::vector<ShardQueue> old = std::move(buf.shards);
    buf.shards.assign(n, ShardQueue{});
    for (ShardQueue& queue : old) {
      for (BufferedEvent& be : queue.events) {
        ShardQueue& dst = buf.shards[shard_of(be.event.object.key, n)];
        dst.slots.emplace(be.event.object.key, dst.events.size());
        dst.events.push_back(std::move(be));
      }
    }
  }
}

Status ObjectDe::register_udf(const std::string& principal,
                              const std::string& name, Udf udf) {
  if (!profile_.supports_udf) {
    return Error::failed_precondition("object-de '" + profile_.name +
                                      "' does not support UDFs");
  }
  udfs_[name] = {principal, std::move(udf)};
  return Status::success();
}

void ObjectDe::call_udf(const std::string& principal, const std::string& name,
                        Value args, UdfCallback done) {
  sim::SimTime rt = profile_.udf_invoke.sample(kernel_.rng());
  clock().schedule_after(rt, [this, principal, name, args = std::move(args),
                              done = std::move(done)]() mutable {
    if (!kernel_.guard_available()) {
      done(Error::unavailable("object: de unavailable (crashed)"));
      return;
    }
    ++stats_.udf_calls;
    Decision d =
        check_access(principal, "*", name, Verb::kInvokeUdf);
    if (!d.allowed) {
      ++stats_.permission_denials;
      done(Error::permission_denied("udf: " + principal + " cannot invoke '" +
                                    name + "'"));
      return;
    }
    auto it = udfs_.find(name);
    if (it == udfs_.end()) {
      done(Error::not_found("udf: '" + name + "' not registered"));
      return;
    }
    UdfContext ctx(*this, it->second.first);
    done(it->second.second(ctx, args));
  });
}

Result<Value> ObjectDe::call_udf_sync(const std::string& principal,
                                      const std::string& name, Value args) {
  std::optional<Result<Value>> result;
  call_udf(principal, name, std::move(args),
           [&](Result<Value> r) { result = std::move(r); });
  run_sync([&] { return result.has_value(); });
  return std::move(*result);
}

Status ObjectDe::add_trigger(const std::string& store,
                             const std::string& key_prefix,
                             const std::string& udf_name) {
  if (!profile_.supports_udf) {
    return Error::failed_precondition("object-de '" + profile_.name +
                                      "' does not support triggers");
  }
  if (udfs_.find(udf_name) == udfs_.end()) {
    return Error::not_found("trigger: udf '" + udf_name + "' not registered");
  }
  triggers_.push_back(Trigger{store, key_prefix, udf_name});
  return Status::success();
}

void ObjectDe::remove_trigger(const std::string& store,
                              const std::string& udf_name) {
  std::erase_if(triggers_, [&](const Trigger& t) {
    return t.store == store && t.udf_name == udf_name;
  });
}

void ObjectDe::transact(const std::string& principal, std::vector<TxnOp> ops,
                        UdfCallback done) {
  sim::SimTime rt = profile_.write_rt.sample(kernel_.rng());
  core::TraceContext ctx = kernel_.trace_context();
  clock().schedule_after(rt, [this, principal, ctx, ops = std::move(ops),
                              done = std::move(done)]() mutable {
    if (!kernel_.guard_available()) {
      done(Error::unavailable("object: de unavailable (crashed)"));
      return;
    }
    ++stats_.writes;
    // Validate everything before touching anything.
    for (const auto& op : ops) {
      ObjectStore* store = this->store(op.store);
      if (store == nullptr) {
        done(Error::not_found("txn: unknown store '" + op.store + "'"));
        return;
      }
      Decision d =
          check_access(principal, op.store, op.key, Verb::kUpdate);
      if (!d.allowed) {
        ++stats_.permission_denials;
        done(Error::permission_denied("txn: " + principal + " cannot write " +
                                      op.store + "/" + op.key));
        return;
      }
      if (auto status = Rbac::validate_write(op.data, d.fields); !status.ok()) {
        ++stats_.permission_denials;
        done(status.error());
        return;
      }
      if (op.expected_version.has_value()) {
        const StateObject* cur = store->objects_.find(op.key);
        std::uint64_t current = cur == nullptr ? 0 : cur->version;
        if (current != *op.expected_version) {
          ++stats_.version_conflicts;
          done(Error::failed_precondition(
              "txn: version conflict on " + op.store + "/" + op.key));
          return;
        }
      }
    }
    // Apply with notifications deferred so observers see the exchange as
    // one atomic step.
    defer_notifications_ = true;
    commit_ctx_ = ctx;
    std::uint64_t last_version = 0;
    for (auto& op : ops) {
      ObjectStore* store = this->store(op.store);
      auto committed = commit_write(
          *store, {.key = op.key, .data = std::move(op.data), .merge = op.merge});
      if (committed.ok()) last_version = committed.value();
    }
    if (persist_ != nullptr && !txn_records_.empty()) {
      // One atomic frame for the whole transaction; the drain below
      // allocates one commit seq per pending notification, so the frame's
      // counter footer is the post-drain state.
      std::vector<std::string_view> records(txn_records_.begin(),
                                            txn_records_.end());
      auto st = persist_->append_batch(
          records, static_cast<std::uint32_t>(records.size()),
          kernel_.peek_next_revision(),
          kernel_.commit_seq() + pending_notifications_.size());
      txn_records_.clear();
      if (!st.ok()) {
        // Torn mid-transaction: nothing of it is durable (one checksum
        // covers the frame) and no observer saw it (notifications were
        // still deferred). The client retries after recovery.
        kernel_.crash();
        defer_notifications_ = false;
        pending_notifications_.clear();
        done(st.error());
        return;
      }
    }
    defer_notifications_ = false;
    std::vector<PendingNotification> pending =
        std::move(pending_notifications_);
    pending_notifications_.clear();
    for (auto& n : pending) {
      commit_ctx_ = n.ctx;
      fire_watches(n.store, n.type, n.object);
      fire_triggers(n.store, n.type, n.object);
    }
    commit_ctx_ = {};
    done(Value(static_cast<std::int64_t>(last_version)));
  });
}

Result<Value> ObjectDe::transact_sync(const std::string& principal,
                                      std::vector<TxnOp> ops) {
  std::optional<Result<Value>> result;
  transact(principal, std::move(ops),
           [&](Result<Value> r) { result = std::move(r); });
  run_sync([&] { return result.has_value(); });
  return std::move(*result);
}

void ObjectDe::restart() {
  if (persist_ != nullptr) {
    // On-disk recovery: newest valid snapshot + journal suffix. A failed
    // recovery (e.g. unreadable directory) leaves the DE empty — same as
    // a non-durable restart — rather than half-recovered.
    (void)recover_from_disk();
    return;
  }
  // A durable DE with no engine keeps its state: every acked commit is
  // already in memory (a rolled-back epoch restored its pre-images), so
  // objects keep their versions and timestamps, as disk recovery restores
  // them. No watch or trigger fires; listeners re-list after a restart, as
  // in the Kubernetes informer pattern.
  if (profile_.durable) return;
  for (auto& [name, store] : stores_) {
    store->objects_.clear();
  }
}

Status ObjectDe::enable_persistence(persist::Engine* engine) {
  if (engine == nullptr) {
    return Error::invalid_argument("persist: null engine");
  }
  persist_ = engine;
  auto st = recover_from_disk();
  if (!st.ok()) {
    persist_ = nullptr;
    return st;
  }
  kernel_.add_gc_hook([engine] { return engine->gc(); });
  return Status::success();
}

Status ObjectDe::recover_from_disk() {
  for (auto& [name, store] : stores_) {
    store->objects_.clear();
  }
  auto recovered = persist_->recover();
  if (!recovered.ok()) return recovered.error();
  const persist::Image& image = recovered.value();
  core::ScopedSpan span(tracer_, "de.persist.recover");
  for (const auto& store_image : image.stores) {
    ObjectStore& store = create_store(store_image.name);
    for (const auto& obj : store_image.objects) {
      StateObject state;
      state.key = obj.key;
      state.data = obj.data;
      state.version = obj.version;
      state.created_at = obj.created_at;
      state.updated_at = obj.updated_at;
      store.objects_[state.key] = std::move(state);
    }
  }
  // Counters resume at the recovered durable point: retried ops get the
  // same stamps they would have gotten had the crash never happened.
  kernel_.restore_sequences(image.next_revision, image.commit_seq);
  const persist::EngineStats& pstats = persist_->stats();
  span.annotate("frames_replayed", std::to_string(pstats.frames_replayed));
  span.annotate("records_replayed", std::to_string(pstats.records_replayed));
  span.annotate("objects", std::to_string(image.object_count()));
  if (epoch_metrics_ != nullptr) {
    epoch_metrics_->inc("de.persist.recoveries");
    epoch_metrics_->inc("de.persist.records_replayed",
                        pstats.records_replayed);
  }
  return Status::success();
}

Status ObjectDe::snapshot_now() {
  if (persist_ == nullptr) {
    return Error::failed_precondition("persist: no engine attached");
  }
  persist::Image image;
  image.next_revision = kernel_.peek_next_revision();
  image.commit_seq = kernel_.commit_seq();
  for (const auto& [name, store] : stores_) {  // stores_ is name-sorted
    persist::StoreImage store_image;
    store_image.name = name;
    for (const auto& key : store->objects_.sorted_keys()) {
      const StateObject* obj = store->objects_.find(key);
      persist::ObjectImage object_image;
      object_image.key = obj->key;
      object_image.version = obj->version;
      object_image.created_at = obj->created_at;
      object_image.updated_at = obj->updated_at;
      object_image.data = obj->data;  // shared handle, zero-copy
      store_image.objects.push_back(std::move(object_image));
    }
    image.stores.push_back(std::move(store_image));
  }
  core::ScopedSpan span(tracer_, "de.persist.snapshot");
  span.annotate("objects", std::to_string(image.object_count()));
  auto st = persist_->snapshot(image);
  if (!st.ok()) {
    kernel_.crash();
    return st;
  }
  if (epoch_metrics_ != nullptr) epoch_metrics_->inc("de.persist.snapshots");
  return Status::success();
}

void ObjectDe::maybe_auto_snapshot() {
  if (persist_ == nullptr || persist_->failed()) return;
  const std::uint64_t cadence = persist_->options().snapshot_every;
  if (cadence == 0 || persist_->records_since_snapshot() < cadence) return;
  // Best effort: the triggering commit is already durable and acked; a
  // snapshot crash only takes the DE down, it never un-acks the commit.
  (void)snapshot_now();
}

Result<std::uint64_t> ObjectDe::submit_write(WriteOrigin origin,
                                             ObjectStore& store,
                                             const std::string& principal,
                                             EpochWrite write,
                                             const core::TraceContext& ctx) {
  const bool client = origin == WriteOrigin::kClient;
  if (client) {
    if (!kernel_.guard_available()) {
      return Error::unavailable("object: de unavailable (crashed)");
    }
    ++(write.remove ? stats_.deletes : stats_.writes);
  }
  Decision d = check_access(principal, store.name_, write.key,
                            write.remove ? Verb::kDelete : Verb::kUpdate);
  if (!d.allowed) {
    ++stats_.permission_denials;
    const char* verb =
        write.remove ? "delete" : (write.merge ? "patch" : "write");
    return Error::permission_denied(std::string(client ? "object: " : "udf: ") +
                                    principal + " cannot " + verb + " " +
                                    store.name_ + "/" + write.key);
  }
  if (!write.remove) {
    if (auto status = Rbac::validate_write(write.data, d.fields);
        !status.ok()) {
      if (client) ++stats_.permission_denials;
      return status.error();
    }
  }
  commit_ctx_ = ctx;
  auto committed = commit_write(store, std::move(write), principal);
  commit_ctx_ = {};
  return committed;
}

Result<std::uint64_t> ObjectDe::commit_write(ObjectStore& store,
                                             EpochWrite write,
                                             const std::string& principal) {
  const std::string& key = write.key;
  StateObject* existing = store.objects_.find(key);
  const bool existed = existing != nullptr;
  StateObject obj;
  WatchEventType type;
  if (write.remove) {
    if (!existed) {
      return Error::not_found("object: " + store.name_ + "/" + key +
                              " not found");
    }
    obj = *existing;
    store.objects_.erase(key);
    type = WatchEventType::kDeleted;
  } else {
    if (write.expected_version.has_value()) {
      std::uint64_t current = existed ? existing->version : 0;
      if (current != *write.expected_version) {
        ++stats_.version_conflicts;
        return Error::failed_precondition(
            "object: version conflict on " + store.name_ + "/" + key +
            " (expected " + std::to_string(*write.expected_version) +
            ", have " + std::to_string(current) + ")");
      }
    }

    Value final_data;
    if (write.merge && existed && existing->data &&
        existing->data->is_object() && write.data.is_object()) {
      final_data = *existing->data;
      for (const auto& [k, v] : write.data.as_object()) {
        final_data.set(k, v);
      }
    } else {
      final_data = std::move(write.data);
    }

    // Version-chain lineage: snapshot the previous version before the
    // overwrite invalidates `existing`.
    const bool lineage = kernel_.provenance().enabled();
    core::LineageRef prev;
    if (lineage && existed) {
      prev = {store.name_, key, existing->version, existing->data};
    }

    obj.key = key;
    obj.data = std::make_shared<const Value>(std::move(final_data));
    obj.version = kernel_.next_revision();
    obj.created_at = existed ? existing->created_at : clock().now();
    obj.updated_at = clock().now();
    if (existed) {
      *existing = obj;  // in place: the find above already walked the shard
    } else {
      store.objects_[key] = obj;
    }
    type = existed ? WatchEventType::kModified : WatchEventType::kAdded;

    if (lineage) {
      core::LineageRecord rec;
      rec.output = {store.name_, key, obj.version, obj.data};
      if (existed) rec.inputs.push_back(std::move(prev));
      rec.op = "write:" + principal;
      rec.stage = "S";  // service-side write (richer integrator records for
                        // the same version are recorded after the commit)
      rec.trace_id = commit_ctx_.trace_id;
      rec.time = clock().now();
      kernel_.provenance().record(std::move(rec));
    }
  }

  if (persist_ != nullptr) {
    std::string rec;
    if (write.remove) {
      persist::encode_delete(rec, store.name_, key);
    } else {
      persist::encode_put(rec, store.name_, key, obj.version, obj.created_at,
                          obj.updated_at, *obj.data);
    }
    if (defer_notifications_) {
      // Transaction: stage; transact() flushes every staged record as one
      // atomic frame before the notification drain.
      txn_records_.push_back(std::move(rec));
    } else {
      // Journal before notifications, carrying this commit's post-state
      // counters (fire_watches below allocates exactly one commit seq).
      auto st = persist_->append_batch({rec}, 1, kernel_.peek_next_revision(),
                                       kernel_.commit_seq() + 1);
      if (!st.ok()) {
        // Torn append: the op is not durable, so it must not ack or
        // notify. Recovery reloads the journal's valid prefix; the client
        // retries against the recovered state.
        kernel_.crash();
        return st.error();
      }
    }
  }

  fire_watches(store.name_, type, obj);
  fire_triggers(store.name_, type, obj);
  if (!defer_notifications_) maybe_auto_snapshot();
  return write.remove ? std::uint64_t{0} : obj.version;
}

// ---------------------------------------------------------------------------
// Epoch commit pipeline (ObjectStore::put_epoch).
//
// Phase A (serial): availability gate, receipt stats, one clock read, stamp
//   pre-assignment (versions and commit seqs reserved up front — op i's
//   stamps are base + index, independent of execution order), partition by
//   key shard.
// Phase B (parallel, one ordered queue per shard): RBAC with buffered
//   audit, write validation, version check, merge compute, state insert,
//   journal record encoding, lineage snapshot, watch matching (match_watch)
//   and batched-watch staging. No clock reads, no RNG draws, no
//   shared-counter bumps — each op's scratch (EpochOp) is owned by exactly
//   one shard task.
// Phase C (serial merge, global op order): audit splice, lineage records,
//   stats, watch delivery scheduling and trigger fan-out through the same
//   code the per-op path uses (so RNG draws happen in exactly the serial
//   order). The chaos fault hook and the journal append run between B and
//   C: a crash there rolls the whole epoch back, so neither memory nor
//   disk ever holds a half-merged epoch.
// ---------------------------------------------------------------------------

std::vector<Result<std::uint64_t>> ObjectDe::commit_epoch(
    ObjectStore& store, const std::string& principal,
    const core::TraceContext& client_ctx, std::vector<EpochWrite> writes) {
  const std::size_t n = writes.size();
  std::vector<Result<std::uint64_t>> results;
  results.reserve(n);
  if (n == 0) return results;

  // --- Phase A: serial prep ------------------------------------------------
  if (!kernel_.available()) {
    stats_.unavailable_rejections += n;
    for (std::size_t i = 0; i < n; ++i) {
      results.push_back(Error::unavailable("object: de unavailable (crashed)"));
    }
    return results;
  }
  for (const auto& w : writes) {
    if (w.remove) {
      ++stats_.deletes;
    } else {
      ++stats_.writes;
    }
  }
  const sim::SimTime now = clock().now();

  // Pre-assign stamps: versions go to puts only (a delete never consumed a
  // revision on the per-op path), commit seqs to every op (every successful
  // commit consumed one). Failed ops leave holes; the serial oracle runs
  // this same reservation, so the holes are configuration-independent.
  std::vector<std::uint64_t> rev_for(n, 0);
  std::uint64_t puts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!writes[i].remove) rev_for[i] = puts++;
  }
  const std::uint64_t rev_base = kernel_.reserve_revisions(puts);
  for (std::size_t i = 0; i < n; ++i) {
    if (!writes[i].remove) rev_for[i] += rev_base;
  }
  const std::uint64_t seq_base = kernel_.reserve_commit_seqs(n);

  std::vector<std::size_t> store_watchers;
  for (std::size_t w = 0; w < watches_.size(); ++w) {
    if (watches_[w].store == store.name_) store_watchers.push_back(w);
  }

  const std::size_t shard_count = store.objects_.shard_count();
  std::vector<std::vector<std::size_t>> shard_ops(shard_count);
  for (std::size_t i = 0; i < n; ++i) {
    shard_ops[shard_of(writes[i].key, shard_count)].push_back(i);
  }

  // Per-shard watch queues: batched store watchers commit straight into
  // their buffers from the shard tasks. A buffer's shard queue `s` holds
  // only shard-`s` keys (set_shards re-partitions pending buffers) and is
  // touched by exactly one task, so no locks — and no per-op buffer
  // lookups in the serial merge. The shared-counter side (`buf.commits`,
  // coalesce stats, flush scheduling with its RNG draw) is staged per
  // shard and folded serially in Phase C.
  struct BatchTarget {
    std::size_t watch_index = 0;
    WatchBuffer* buffer = nullptr;
    std::vector<BatchStageUndo> undo;          // per shard; crash rollback
    std::vector<std::uint64_t> commits;        // per shard; folded serially
    std::vector<std::uint64_t> coalesced;
  };
  std::vector<BatchTarget> batch_targets;
  std::vector<int> batch_target_of(watches_.size(), -1);
  for (std::size_t widx : store_watchers) {
    const Watch& w = watches_[widx];
    if (!w.batch_callback) continue;
    WatchBuffer& buf = watch_buffers_[w.id];
    if (buf.shards.empty()) buf.shards.resize(shard_count);
    BatchTarget target;
    target.watch_index = widx;
    target.buffer = &buf;
    target.undo.resize(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) {
      target.undo[s].base_events = buf.shards[s].events.size();
      // Upper bound (every shard op may match): keeps the shard tasks from
      // reallocating the queue mid-epoch.
      buf.shards[s].events.reserve(buf.shards[s].events.size() +
                                   shard_ops[s].size());
    }
    target.commits.assign(shard_count, 0);
    target.coalesced.assign(shard_count, 0);
    batch_target_of[widx] = static_cast<int>(batch_targets.size());
    batch_targets.push_back(std::move(target));
  }

  // --- Phase B: parallel per-shard commit ---------------------------------
  // Worker-local observability sinks (one per shard): spans and counters
  // are emitted with zero shared-state contention and folded into the
  // shared Tracer/Metrics at the epoch boundary — or dropped whole if the
  // epoch rolls back.
  std::vector<core::Tracer::SpanBuffer> span_buffers(
      tracer_ != nullptr ? shard_count : 0);
  std::vector<core::Metrics::Delta> metric_deltas(
      epoch_metrics_ != nullptr ? shard_count : 0);
  std::vector<EpochOp> ops(n);
  // Rollback staging (pre-image copies, watch-buffer undo logs) is only
  // consumed by the mid-epoch crash paths — the chaos fault hook and a
  // torn journal append; with neither armed the epoch cannot roll back,
  // so the hot path skips the copies entirely.
  const bool stage_undo =
      static_cast<bool>(epoch_fault_hook_) ||
      (persist_ != nullptr && persist_->fault_armed());
  auto process_op = [&](std::size_t i, std::size_t shard) {
    EpochWrite& w = writes[i];
    EpochOp& op = ops[i];
    op.ctx = client_ctx;
    op.ctx.commit_seq = seq_base + i;
    if (op.ctx.trace_id == 0) op.ctx.trace_id = op.ctx.commit_seq;
    const Verb verb = w.remove ? Verb::kDelete : Verb::kUpdate;
    Decision d = kernel_.check_access_buffered(principal, store.name_, w.key,
                                               verb, now, &op.audit);
    if (!d.allowed) {
      op.fail = EpochOp::Fail::kDenied;
      op.error = Error::permission_denied(
          "object: " + principal + " cannot " +
          (w.remove ? std::string("delete ") : std::string("write ")) +
          store.name_ + "/" + w.key);
      return;
    }
    if (!w.remove) {
      if (auto status = Rbac::validate_write(w.data, d.fields); !status.ok()) {
        op.fail = EpochOp::Fail::kInvalid;
        op.error = status.error();
        return;
      }
    }
    StateObject* existing = store.objects_.find(w.key);
    const bool existed = existing != nullptr;
    if (w.expected_version.has_value()) {
      std::uint64_t current = existed ? existing->version : 0;
      if (current != *w.expected_version) {
        op.fail = EpochOp::Fail::kConflict;
        op.error = Error::failed_precondition(
            "object: version conflict on " + store.name_ + "/" + w.key +
            " (expected " + std::to_string(*w.expected_version) + ", have " +
            std::to_string(current) + ")");
        return;
      }
    }
    if (w.remove) {
      if (!existed) {
        op.fail = EpochOp::Fail::kNotFound;
        op.error =
            Error::not_found("object: " + store.name_ + "/" + w.key +
                             " not found");
        return;
      }
      op.undo_existed = true;
      if (stage_undo) op.undo_obj = *existing;
      op.obj = *existing;
      store.objects_.erase(w.key);
      op.type = WatchEventType::kDeleted;
      if (persist_ != nullptr) {
        persist::encode_delete(op.persist_rec, store.name_, op.obj.key);
      }
    } else {
      Value final_data;
      if (w.merge && existed && existing->data && existing->data->is_object() &&
          w.data.is_object()) {
        final_data = *existing->data;
        for (const auto& [k, v] : w.data.as_object()) {
          final_data.set(k, v);
        }
      } else {
        final_data = std::move(w.data);
      }
      const bool lineage = kernel_.provenance().enabled();
      core::LineageRef prev;
      if (lineage && existed) {
        prev = {store.name_, w.key, existing->version, existing->data};
      }
      if (existed) {
        op.undo_existed = true;
        if (stage_undo) op.undo_obj = *existing;
      }
      op.obj.key = std::move(w.key);  // rollback/merge read op.obj.key now
      op.obj.data = std::make_shared<const Value>(std::move(final_data));
      op.obj.version = rev_for[i];
      op.obj.created_at = existed ? existing->created_at : now;
      op.obj.updated_at = now;
      if (existed) {
        *existing = op.obj;  // in place: one shard walk per op, not two
      } else {
        store.objects_[op.obj.key] = op.obj;
      }
      if (lineage) {
        op.has_lineage = true;
        op.lineage.output = {store.name_, op.obj.key, op.obj.version,
                             op.obj.data};
        if (existed) op.lineage.inputs.push_back(std::move(prev));
        op.lineage.op = "write:" + principal;
        op.lineage.stage = "S";
        // Matches the per-op path: the version-chain record carries the
        // *client* trace id (the commit-seq root is stamped on events only).
        op.lineage.trace_id = client_ctx.trace_id;
        op.lineage.time = now;
      }
      if (persist_ != nullptr) {
        // Serialized in the shard task, reading straight through the
        // committed object's shared payload handle — no Value copy, and
        // the serial merge is left with a pure concatenation.
        persist::encode_put(op.persist_rec, store.name_, op.obj.key,
                            op.obj.version, op.obj.created_at,
                            op.obj.updated_at, *op.obj.data);
      }
      op.type = existed ? WatchEventType::kModified : WatchEventType::kAdded;
    }
    op.committed = true;
    // Watch matching through the shared rule (RBAC audited into the op's
    // sink, in watcher registration order — same audit shape as the per-op
    // path). Batched watchers coalesce straight into their buffer's shard
    // queue right here (shard-local, so lock-free), leaving only counter
    // folding for Phase C; per-event watchers stage a WatchHit for the
    // serial merge. Subscription accounting is staged on the op and folded
    // in Phase C, like every other counter.
    for (std::size_t widx : store_watchers) {
      const Watch& watch = watches_[widx];
      WatchMatch m = match_watch(watch, op.obj, now, &op.audit);
      if (m.outcome == WatchMatch::Outcome::kSkip) continue;
      if (watch.sub->active()) {
        op.sub_matched.push_back(static_cast<std::uint32_t>(widx));
      }
      if (m.outcome == WatchMatch::Outcome::kFiltered) {
        op.sub_filtered.push_back(static_cast<std::uint32_t>(widx));
        continue;  // rejected pre-enqueue: no slot, no hit
      }
      WatchEvent event{op.type, store.name_, op.obj, op.ctx};
      event.object.data = std::move(m.payload);
      const int bt = batch_target_of[widx];
      if (bt < 0) {
        op.hits.push_back({widx, std::move(event)});
        continue;
      }
      BatchTarget& target = batch_targets[static_cast<std::size_t>(bt)];
      ++target.commits[shard];
      if (coalesce_into(target.buffer->shards[shard], std::move(event),
                        op.ctx.commit_seq, m.fields,
                        stage_undo ? &target.undo[shard] : nullptr)) {
        ++target.coalesced[shard];
      }
    }
  };
  auto process = [&](std::size_t i, std::size_t shard,
                     core::Tracer::SpanBuffer* spans,
                     core::Metrics::Delta* delta) {
    process_op(i, shard);
    if (spans != nullptr) {
      const std::uint64_t sid = spans->begin("de.epoch.op", now);
      spans->annotate(sid, "stage", "S");
      spans->annotate(sid, "store", store.name_);
      spans->end(sid, now);
    }
    if (delta != nullptr) {
      delta->inc(ops[i].committed ? "de.epoch.committed" : "de.epoch.failed");
    }
  };
  std::vector<std::vector<std::function<void()>>> queues(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (shard_ops[s].empty()) continue;
    queues[s].push_back([&, s] {
      core::Tracer::SpanBuffer* spans =
          span_buffers.empty() ? nullptr : &span_buffers[s];
      core::Metrics::Delta* delta =
          metric_deltas.empty() ? nullptr : &metric_deltas[s];
      for (std::size_t i : shard_ops[s]) process(i, s, spans, delta);
    });
  }
  kernel_.run_epoch_tasks(queues);

  // --- mid-epoch crash / journal append -----------------------------------
  // The journal append sits between the parallel phase and the serial
  // merge, in the same all-or-nothing position as the chaos fault hook:
  // one frame carries every committed record in global op order plus the
  // post-reservation counters. It is appended even when every op failed —
  // the reservation holes are part of the durable sequence state. The hook
  // runs first (a process that died between commit and merge never reached
  // the append); either way a crash here rolls the whole epoch back so
  // neither state, journal, audit, lineage, nor any notification leaks.
  bool crashed = epoch_fault_hook_ && epoch_fault_hook_();
  Error crash_error = Error::unavailable("object: de crashed mid-epoch");
  if (!crashed && persist_ != nullptr) {
    std::vector<std::string_view> records;
    records.reserve(n);
    std::uint32_t record_count = 0;
    for (const EpochOp& op : ops) {
      if (!op.committed || op.persist_rec.empty()) continue;
      records.push_back(op.persist_rec);
      ++record_count;
    }
    auto st = persist_->append_batch(records, record_count,
                                     kernel_.peek_next_revision(),
                                     kernel_.commit_seq());
    if (!st.ok()) {
      crashed = true;
      crash_error = st.error();
    }
  }
  if (crashed) {
    // Reverse order restores within-epoch overwrite chains correctly. The
    // pre-images are only there when a crash path was armed (stage_undo);
    // an unexpected real I/O failure skips the restore — recovery reloads
    // state from disk anyway.
    if (stage_undo) {
      for (std::size_t i = n; i-- > 0;) {
        if (!ops[i].committed) continue;
        // op.obj.key owns the key now (writes[i].key was moved for puts).
        if (ops[i].undo_existed) {
          store.objects_[ops[i].obj.key] = std::move(ops[i].undo_obj);
        } else {
          store.objects_.erase(ops[i].obj.key);
        }
      }
      // Un-stage the watch events the shard tasks coalesced directly into
      // batched watchers' buffers: restore overwritten pre-epoch slots,
      // then truncate this epoch's appends and their slot-index entries.
      // Without this, a crashed epoch would leak half-merged notifications
      // on the next flush.
      for (BatchTarget& target : batch_targets) {
        for (std::size_t s = 0; s < shard_count; ++s) {
          BatchStageUndo& u = target.undo[s];
          ShardQueue& queue = target.buffer->shards[s];
          for (auto& [idx, prev] : u.saved) {
            queue.events[idx] = std::move(prev);
          }
          queue.events.resize(u.base_events);
          std::erase_if(queue.slots, [&](const auto& kv) {
            return kv.second >= u.base_events;
          });
        }
      }
    }
    kernel_.crash();
    stats_.unavailable_rejections += n;
    for (std::size_t i = 0; i < n; ++i) {
      results.push_back(crash_error);
    }
    return results;
  }

  // --- Phase C: serial deterministic merge --------------------------------
  // Fold the worker-local observability sinks first, in shard-index order
  // (a crashed epoch never reaches this point — its buffers are dropped
  // with the stack frame).
  for (auto& buffer : span_buffers) tracer_->merge(buffer);
  if (epoch_metrics_ != nullptr) {
    epoch_metrics_->inc("de.epoch.epochs");
    for (auto& delta : metric_deltas) epoch_metrics_->merge(delta);
  }
  // Fold the batch watchers' shard-local counters and draw the flush delay
  // (one RNG sample per watcher, registration order — the same draw the
  // per-op path makes on a window's first matching commit).
  for (BatchTarget& target : batch_targets) {
    std::uint64_t commits = 0;
    std::uint64_t coalesced = 0;
    for (std::size_t s = 0; s < shard_count; ++s) {
      commits += target.commits[s];
      coalesced += target.coalesced[s];
    }
    if (commits == 0) continue;
    target.buffer->commits += commits;
    stats_.watch_events_coalesced += coalesced;
    schedule_flush(watches_[target.watch_index], *target.buffer);
  }
  for (std::size_t i = 0; i < n; ++i) {
    EpochOp& op = ops[i];
    kernel_.append_audit(op.audit);
    if (op.fail != EpochOp::Fail::kNone) {
      switch (op.fail) {
        case EpochOp::Fail::kDenied:
        case EpochOp::Fail::kInvalid:
          ++stats_.permission_denials;
          break;
        case EpochOp::Fail::kConflict:
          ++stats_.version_conflicts;
          break;
        default:
          break;
      }
      results.push_back(op.error);
      continue;
    }
    if (op.has_lineage) kernel_.provenance().record(std::move(op.lineage));
    // Fold the shard-staged subscription accounting in global op order, and
    // emit the `sub.filter` spans here on the main loop — span count and
    // order stay independent of the shard/worker configuration.
    for (std::uint32_t widx : op.sub_matched) {
      if (auto* info = kernel_.find_subscription(watches_[widx].id)) {
        ++info->matched;
      }
    }
    stats_.watch_events_filtered += op.sub_filtered.size();
    for (std::uint32_t widx : op.sub_filtered) {
      const Watch& w = watches_[widx];
      if (auto* info = kernel_.find_subscription(w.id)) ++info->filtered;
      note_filtered(w, op.obj.key);
    }
    for (EpochOp::WatchHit& hit : op.hits) {
      schedule_event_delivery(watches_[hit.watch_index], std::move(hit.event));
    }
    fire_triggers_with(store.name_, op.type, op.obj, op.ctx);
    results.push_back(writes[i].remove ? std::uint64_t{0} : op.obj.version);
  }
  maybe_auto_snapshot();
  return results;
}

void ObjectDe::fire_watches(const std::string& store_name, WatchEventType type,
                            const StateObject& obj) {
  if (defer_notifications_) {
    pending_notifications_.push_back({store_name, type, obj, commit_ctx_});
    return;
  }
  std::uint64_t seq = kernel_.next_commit_seq();
  // Stamp the commit's causal context: a commit with no trace yet becomes
  // a trace root and adopts its own commit seq as the trace id (commit
  // seqs are allocated on the main loop, so ids are deterministic across
  // shard/worker configurations).
  core::TraceContext ctx = commit_ctx_;
  ctx.commit_seq = seq;
  if (ctx.trace_id == 0) ctx.trace_id = seq;
  const sim::SimTime now = clock().now();
  std::vector<AuditEntry> audit;
  for (const auto& w : watches_) {
    if (w.store != store_name) continue;
    WatchMatch m = match_watch(w, obj, now, &audit);
    kernel_.append_audit(audit);
    audit.clear();
    if (m.outcome == WatchMatch::Outcome::kSkip) continue;
    if (w.sub->active()) {
      Kernel::SubscriptionInfo* info = kernel_.find_subscription(w.id);
      if (info != nullptr) ++info->matched;
      if (m.outcome == WatchMatch::Outcome::kFiltered) {
        ++stats_.watch_events_filtered;
        if (info != nullptr) ++info->filtered;
        note_filtered(w, obj.key);
        continue;
      }
    }
    WatchEvent event{type, store_name, obj, ctx};
    event.object.data = std::move(m.payload);
    if (!w.batch_callback) {
      schedule_event_delivery(w, std::move(event));
      continue;
    }
    WatchBuffer& buf = watch_buffers_[w.id];
    if (buf.shards.empty()) buf.shards.resize(shards_);
    ++buf.commits;
    if (coalesce_into(buf.shards[shard_of(obj.key, buf.shards.size())],
                      std::move(event), seq, m.fields, nullptr)) {
      ++stats_.watch_events_coalesced;
    }
    schedule_flush(w, buf);
  }
}

ObjectDe::WatchMatch ObjectDe::match_watch(
    const Watch& w, const StateObject& obj, sim::SimTime now,
    std::vector<AuditEntry>* audit) const {
  WatchMatch m;
  if (!common::starts_with(obj.key, w.prefix)) return m;
  Decision d = kernel_.check_access_buffered(w.principal, w.store, obj.key,
                                             Verb::kWatch, now, audit);
  if (!d.allowed) return m;
  // Content filter + projection before any queue slot or RBAC field
  // filter is spent on the event.
  if (w.sub->active()) {
    auto projected = w.sub->apply(obj.data);
    if (!projected.has_value()) {
      m.outcome = WatchMatch::Outcome::kFiltered;
      return m;
    }
    m.payload = std::move(*projected);
  } else {
    m.payload = obj.data;
  }
  m.outcome = WatchMatch::Outcome::kDeliver;
  if (w.batch_callback) {
    m.fields = std::move(d.fields);  // applied shard-locally at flush
  } else if (!d.fields.unrestricted() && m.payload) {
    m.payload = std::make_shared<const Value>(
        Rbac::filter_fields(*m.payload, d.fields));
  }
  return m;
}

Result<std::uint64_t> ObjectDe::add_subscription(
    ObjectStore& store, const std::string& principal, SubscriptionSpec spec,
    ObjectStore::WatchCallback callback,
    ObjectStore::WatchBatchCallback batch_callback) {
  Decision d = check_access(principal, store.name_, spec.prefix, Verb::kWatch);
  if (!d.allowed) {
    ++stats_.permission_denials;
    return Error::permission_denied("object: " + principal + " cannot watch " +
                                    store.name_ + "/" + spec.prefix);
  }
  auto compiled = CompiledSubscription::compile(std::move(spec));
  if (!compiled.ok()) return compiled.error();
  Watch w;
  w.sub = compiled.take();
  w.id = kernel_.register_subscription(store.name_, principal, *w.sub,
                                       batch_callback != nullptr);
  w.store = store.name_;
  w.prefix = w.sub->spec().prefix;
  w.principal = principal;
  w.callback = std::move(callback);
  w.batch_callback = std::move(batch_callback);
  watches_.push_back(std::move(w));
  return watches_.back().id;
}

void ObjectDe::note_filtered(const Watch& w, const std::string& key) {
  // No "stage" attribute on purpose: a filter rejection is not a latency
  // sample, so it must not feed `stage:` SLO selectors (de/kernel SLOs
  // aggregate any span carrying the attribute).
  if (tracer_ == nullptr) return;
  core::ScopedSpan span(tracer_, "sub.filter");
  span.annotate("subscription", std::to_string(w.id));
  span.annotate("store", w.store);
  span.annotate("key", key);
}

std::uint64_t ObjectDe::begin_deliver_span(const Watch& w) {
  if (tracer_ == nullptr || !w.sub->active()) return 0;
  const std::uint64_t span_id = tracer_->begin("sub.deliver");
  tracer_->annotate(span_id, "subscription", std::to_string(w.id));
  tracer_->annotate(span_id, "stage", w.sub->qos().stage_or_default());
  if (w.sub->qos().deadline > 0) {
    tracer_->annotate(span_id, "deadline",
                      std::to_string(w.sub->qos().deadline));
  }
  return span_id;
}

void ObjectDe::finish_subscription_delivery(const Watch& w,
                                            std::uint64_t span_id,
                                            std::uint64_t events,
                                            const WatchEvent* sample) {
  if (!w.sub->active()) return;
  Kernel::SubscriptionInfo* info = kernel_.find_subscription(w.id);
  if (info != nullptr) info->delivered += events;
  if (span_id != 0 && tracer_ != nullptr) {
    if (info != nullptr) {
      char sel[32];
      std::snprintf(sel, sizeof sel, "%.4f", info->selectivity());
      tracer_->annotate(span_id, "selectivity", sel);
    }
    tracer_->annotate(span_id, "events", std::to_string(events));
    tracer_->end(span_id);
  }
  // One lineage record per delivery naming the subscription: `knctl
  // explain` walks from the delivered object back through `sub:<id>` to
  // the committing stage.
  if (kernel_.provenance().enabled() && sample != nullptr) {
    core::LineageRecord rec;
    rec.output = {sample->store, sample->object.key, sample->object.version,
                  sample->object.data};
    rec.op = "sub:" + std::to_string(w.id);
    rec.stage = w.sub->qos().stage_or_default();
    rec.trace_id = sample->ctx.trace_id;
    rec.span_id = span_id;
    rec.time = clock().now();
    kernel_.provenance().record(std::move(rec));
  }
}

void ObjectDe::schedule_event_delivery(const Watch& w, WatchEvent event) {
  sim::SimTime delay = profile_.watch_notify.sample(kernel_.rng());
  auto callback = w.callback;
  std::uint64_t id = w.id;
  // Active subscriptions get a `sub.deliver` span opened here — the
  // commit's serial moment — and closed at delivery, so its duration is
  // the notify latency the QoS deadline budgets for.
  const std::uint64_t span_id = begin_deliver_span(w);
  clock().schedule_after(delay, [this, callback, event = std::move(event), id,
                                 span_id]() {
    // The watch may have been cancelled while the event was in flight.
    for (const auto& live : watches_) {
      if (live.id == id) {
        ++stats_.watch_events;
        finish_subscription_delivery(live, span_id, 1, &event);
        callback(event);
        return;
      }
    }
    if (span_id != 0 && tracer_ != nullptr) {
      tracer_->annotate(span_id, "cancelled", "true");
      tracer_->end(span_id);
    }
  });
}

bool ObjectDe::coalesce_into(ShardQueue& queue, WatchEvent&& event,
                             std::uint64_t seq, const FieldRule& fields,
                             BatchStageUndo* undo) {
  auto slot = queue.slots.find(event.object.key);
  if (slot == queue.slots.end()) {
    queue.slots.emplace(event.object.key, queue.events.size());
    queue.events.push_back(BufferedEvent{std::move(event), seq, fields});
    return false;
  }
  // Coalesce into the key's slot. The slot takes the new payload and the
  // new commit sequence (flush orders by it, so a delete superseding a
  // modify keeps its temporal position). Type merge: an object the
  // watcher has never seen stays kAdded through modifies; a delete
  // always survives as kDeleted; a re-create after an unseen delete
  // nets out to kModified (the object still exists, with new data).
  BufferedEvent& be = queue.events[slot->second];
  if (undo != nullptr && slot->second < undo->base_events) {
    bool saved = false;
    for (const auto& [idx, prev] : undo->saved) {
      if (idx == slot->second) {
        saved = true;
        break;
      }
    }
    if (!saved) undo->saved.emplace_back(slot->second, be);
  }
  WatchEventType merged = event.type;
  if (event.type != WatchEventType::kDeleted) {
    if (be.event.type == WatchEventType::kAdded) {
      merged = WatchEventType::kAdded;
    } else if (be.event.type == WatchEventType::kDeleted) {
      merged = WatchEventType::kModified;
    }
  }
  be.event.type = merged;
  be.event.ctx = event.ctx;  // the slot carries its latest commit's context
  be.event.object = std::move(event.object);
  be.seq = seq;
  be.fields = fields;
  return true;
}

void ObjectDe::schedule_flush(const Watch& w, WatchBuffer& buf) {
  if (buf.flush_scheduled) return;
  buf.flush_scheduled = true;
  // Batched windows span flush scheduling to flush: the coalescing window
  // plus notify latency the QoS deadline budgets for.
  buf.span_id = begin_deliver_span(w);
  sim::SimTime delay =
      w.sub->qos().window + profile_.watch_notify.sample(kernel_.rng());
  std::uint64_t id = w.id;
  clock().schedule_after(delay, [this, id]() { flush_watch_batch(id); });
}

void ObjectDe::flush_watch_batch(std::uint64_t watch_id) {
  auto it = watch_buffers_.find(watch_id);
  if (it == watch_buffers_.end()) return;  // unwatched while buffering
  WatchBuffer buf = std::move(it->second);
  watch_buffers_.erase(it);
  const Watch* live = nullptr;
  for (const auto& w : watches_) {
    if (w.id == watch_id) {
      live = &w;
      break;
    }
  }
  std::size_t total = 0;
  for (const auto& queue : buf.shards) total += queue.events.size();
  if (live == nullptr || total == 0) {
    if (buf.span_id != 0 && tracer_ != nullptr) {
      tracer_->annotate(buf.span_id, "cancelled", "true");
      tracer_->end(buf.span_id);
    }
    return;
  }

  // Revision-window barrier: each shard's commit queue sorts itself by
  // DE-wide commit seq and applies RBAC field filtering — pure shard-local
  // work that runs on the worker pool.
  std::vector<std::function<void()>> tasks;
  tasks.reserve(buf.shards.size());
  for (auto& queue : buf.shards) {
    if (queue.events.empty()) continue;
    tasks.push_back([&queue] {
      std::stable_sort(queue.events.begin(), queue.events.end(),
                       [](const BufferedEvent& a, const BufferedEvent& b) {
                         return a.seq < b.seq;
                       });
      for (BufferedEvent& be : queue.events) {
        if (!be.fields.unrestricted() && be.event.object.data) {
          be.event.object.data = std::make_shared<const Value>(
              Rbac::filter_fields(*be.event.object.data, be.fields));
        }
      }
    });
  }
  kernel_.run_shard_tasks(tasks);

  // Cross-shard stable merge by commit seq: reproduces the exact event
  // order of the single-shard serial flush, for any shard/worker count.
  WatchBatch batch;
  batch.store = live->store;
  batch.commits = buf.commits;
  batch.events.reserve(total);
  std::vector<std::size_t> cursor(buf.shards.size(), 0);
  while (batch.events.size() < total) {
    std::size_t best = buf.shards.size();
    std::uint64_t best_seq = 0;
    for (std::size_t i = 0; i < buf.shards.size(); ++i) {
      const ShardQueue& queue = buf.shards[i];
      if (cursor[i] >= queue.events.size()) continue;
      std::uint64_t seq = queue.events[cursor[i]].seq;
      if (best == buf.shards.size() || seq < best_seq) {
        best = i;
        best_seq = seq;
      }
    }
    if (best == buf.shards.size()) break;  // defensive; total bounds us
    batch.events.push_back(
        std::move(buf.shards[best].events[cursor[best]++].event));
  }
  // QoS HISTORY KEEP_LAST: drop the oldest slots past the subscriber's
  // depth, after the merge so "newest N" is exact across shards.
  const std::size_t depth = live->sub->qos().history_depth;
  if (depth > 0 && batch.events.size() > depth) {
    const std::size_t dropped = batch.events.size() - depth;
    batch.events.erase(
        batch.events.begin(),
        batch.events.begin() + static_cast<std::ptrdiff_t>(dropped));
    stats_.watch_events_dropped += dropped;
    if (auto* info = kernel_.find_subscription(watch_id)) {
      info->dropped += dropped;
    }
  }
  ++stats_.watch_batches;
  stats_.watch_events += batch.events.size();
  stats_.watch_batch_sizes.add(batch.events.size());
  finish_subscription_delivery(*live, buf.span_id, batch.events.size(),
                               batch.events.empty() ? nullptr
                                                    : &batch.events.back());
  auto callback = live->batch_callback;  // copy: callback may unwatch
  callback(batch);
}

void ObjectDe::fire_triggers(const std::string& store_name,
                             WatchEventType type, const StateObject& obj) {
  // During a transaction the event was queued once by fire_watches; the
  // drain loop re-invokes both paths.
  if (defer_notifications_) return;
  // fire_watches ran first for this commit and allocated its seq, so the
  // kernel's current commit seq is this commit's — use it to root the
  // trace exactly like the watch path does.
  core::TraceContext ctx = commit_ctx_;
  ctx.commit_seq = kernel_.commit_seq();
  if (ctx.trace_id == 0) ctx.trace_id = ctx.commit_seq;
  fire_triggers_with(store_name, type, obj, ctx);
}

void ObjectDe::fire_triggers_with(const std::string& store_name,
                                  WatchEventType type, const StateObject& obj,
                                  const core::TraceContext& ctx) {
  for (const auto& t : triggers_) {
    if (t.store != store_name) continue;
    if (!common::starts_with(obj.key, t.prefix)) continue;
    auto it = udfs_.find(t.udf_name);
    if (it == udfs_.end()) continue;
    // Trigger fires server-side right after commit: only engine latency.
    Value args = Value::object();
    args.set("store", Value(store_name));
    args.set("key", Value(obj.key));
    args.set("event", Value(type == WatchEventType::kDeleted
                                ? "deleted"
                                : (type == WatchEventType::kAdded
                                       ? "added"
                                       : "modified")));
    std::string udf_name = t.udf_name;
    clock().schedule_after(
        profile_.engine_read.sample(kernel_.rng()),
        [this, udf_name, ctx, args = std::move(args)]() {
          auto uit = udfs_.find(udf_name);
          if (uit == udfs_.end()) return;
          ++stats_.udf_calls;
          // The triggering commit's context is ambient for the UDF body,
          // so a pushed-down integrator pass inherits the trace.
          kernel_.set_trace_context(ctx);
          UdfContext udf_ctx(*this, uit->second.first);
          auto result = uit->second.second(udf_ctx, args);
          kernel_.clear_trace_context();
          if (!result.ok()) {
            KN_WARN << "trigger udf '" << udf_name
                    << "' failed: " << result.error().to_string();
          }
        });
  }
}

Result<StateObject> ObjectDe::engine_get(const std::string& store,
                                         const std::string& key,
                                         const std::string& principal) {
  ObjectStore* s = this->store(store);
  if (s == nullptr) {
    return Error::not_found("udf: unknown store '" + store + "'");
  }
  Decision d = check_access(principal, store, key, Verb::kGet);
  if (!d.allowed) {
    ++stats_.permission_denials;
    return Error::permission_denied("udf: " + principal + " cannot get " +
                                    store + "/" + key);
  }
  const StateObject* found = s->objects_.find(key);
  if (found == nullptr) {
    return Error::not_found("object: " + store + "/" + key + " not found");
  }
  StateObject obj = *found;
  if (!d.fields.unrestricted() && obj.data) {
    obj.data =
        std::make_shared<const Value>(Rbac::filter_fields(*obj.data, d.fields));
  }
  return obj;
}

}  // namespace knactor::de
