#include "de/object.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>

namespace knactor::de {
namespace {

using common::Error;
using common::Value;

class ObjectDeTest : public ::testing::Test {
 protected:
  sim::VirtualClock clock_;
  ObjectDe de_{clock_, ObjectDeProfile::instant()};
};

TEST_F(ObjectDeTest, PutGetRoundTrip) {
  ObjectStore& store = de_.create_store("s");
  auto version = store.put_sync("me", "k", Value::object({{"a", 1}}));
  ASSERT_TRUE(version.ok());
  auto got = store.get_sync("me", "k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().data->get("a")->as_int(), 1);
  EXPECT_EQ(got.value().version, version.value());
  EXPECT_EQ(got.value().key, "k");
}

TEST_F(ObjectDeTest, GetMissingIsNotFound) {
  ObjectStore& store = de_.create_store("s");
  auto got = store.get_sync("me", "nope");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().code, common::Error::Code::kNotFound);
}

TEST_F(ObjectDeTest, VersionsIncreaseMonotonically) {
  ObjectStore& store = de_.create_store("s");
  auto v1 = store.put_sync("me", "a", Value::object({}));
  auto v2 = store.put_sync("me", "b", Value::object({}));
  auto v3 = store.put_sync("me", "a", Value::object({{"x", 1}}));
  EXPECT_LT(v1.value(), v2.value());
  EXPECT_LT(v2.value(), v3.value());
}

TEST_F(ObjectDeTest, PutOverwrites) {
  ObjectStore& store = de_.create_store("s");
  (void)store.put_sync("me", "k", Value::object({{"a", 1}, {"b", 2}}));
  (void)store.put_sync("me", "k", Value::object({{"c", 3}}));
  auto got = store.get_sync("me", "k");
  EXPECT_EQ(got.value().data->get("a"), nullptr);
  EXPECT_EQ(got.value().data->get("c")->as_int(), 3);
}

TEST_F(ObjectDeTest, PatchMergesTopLevelFields) {
  ObjectStore& store = de_.create_store("s");
  (void)store.put_sync("me", "k", Value::object({{"a", 1}, {"b", 2}}));
  (void)store.patch_sync("me", "k", Value::object({{"b", 20}, {"c", 30}}));
  auto got = store.get_sync("me", "k");
  EXPECT_EQ(got.value().data->get("a")->as_int(), 1);
  EXPECT_EQ(got.value().data->get("b")->as_int(), 20);
  EXPECT_EQ(got.value().data->get("c")->as_int(), 30);
}

TEST_F(ObjectDeTest, PatchCreatesWhenAbsent) {
  ObjectStore& store = de_.create_store("s");
  (void)store.patch_sync("me", "new", Value::object({{"a", 1}}));
  EXPECT_TRUE(store.get_sync("me", "new").ok());
}

TEST_F(ObjectDeTest, OptimisticConcurrency) {
  ObjectStore& store = de_.create_store("s");
  auto v1 = store.put_sync("me", "k", Value::object({{"a", 1}}));
  ASSERT_TRUE(v1.ok());

  std::optional<common::Result<std::uint64_t>> stale;
  store.put_versioned("me", "k", Value::object({{"a", 2}}), v1.value() + 99,
                      [&](common::Result<std::uint64_t> r) {
                        stale = std::move(r);
                      });
  clock_.run_all();
  ASSERT_TRUE(stale.has_value());
  ASSERT_FALSE(stale->ok());
  EXPECT_EQ(stale->error().code, common::Error::Code::kFailedPrecondition);
  EXPECT_EQ(de_.stats().version_conflicts, 1u);

  std::optional<common::Result<std::uint64_t>> fresh;
  store.put_versioned("me", "k", Value::object({{"a", 2}}), v1.value(),
                      [&](common::Result<std::uint64_t> r) {
                        fresh = std::move(r);
                      });
  clock_.run_all();
  ASSERT_TRUE(fresh.has_value());
  EXPECT_TRUE(fresh->ok());
}

TEST_F(ObjectDeTest, PutVersionedZeroMeansCreate) {
  ObjectStore& store = de_.create_store("s");
  std::optional<common::Result<std::uint64_t>> r;
  store.put_versioned("me", "new", Value::object({}), 0,
                      [&](common::Result<std::uint64_t> x) { r = std::move(x); });
  clock_.run_all();
  EXPECT_TRUE(r->ok());
}

TEST_F(ObjectDeTest, RemoveDeletes) {
  ObjectStore& store = de_.create_store("s");
  (void)store.put_sync("me", "k", Value::object({}));
  EXPECT_TRUE(store.remove_sync("me", "k").ok());
  EXPECT_FALSE(store.get_sync("me", "k").ok());
  EXPECT_FALSE(store.remove_sync("me", "k").ok());
}

TEST_F(ObjectDeTest, ListByPrefix) {
  ObjectStore& store = de_.create_store("s");
  (void)store.put_sync("me", "order/1", Value::object({}));
  (void)store.put_sync("me", "order/2", Value::object({}));
  (void)store.put_sync("me", "cart/1", Value::object({}));
  auto all = store.list_sync("me", "");
  EXPECT_EQ(all.value().size(), 3u);
  auto orders = store.list_sync("me", "order/");
  EXPECT_EQ(orders.value().size(), 2u);
  auto none = store.list_sync("me", "zzz");
  EXPECT_TRUE(none.value().empty());
}

TEST_F(ObjectDeTest, WatchReceivesAddModifyDelete) {
  ObjectStore& store = de_.create_store("s");
  std::vector<WatchEventType> events;
  std::uint64_t id = store.watch("me", "", [&](const WatchEvent& e) {
    events.push_back(e.type);
  });
  ASSERT_NE(id, 0u);
  (void)store.put_sync("me", "k", Value::object({{"a", 1}}));
  (void)store.put_sync("me", "k", Value::object({{"a", 2}}));
  (void)store.remove_sync("me", "k");
  clock_.run_all();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], WatchEventType::kAdded);
  EXPECT_EQ(events[1], WatchEventType::kModified);
  EXPECT_EQ(events[2], WatchEventType::kDeleted);
}

TEST_F(ObjectDeTest, WatchPrefixFilters) {
  ObjectStore& store = de_.create_store("s");
  int events = 0;
  store.watch("me", "order/", [&](const WatchEvent&) { ++events; });
  (void)store.put_sync("me", "order/1", Value::object({}));
  (void)store.put_sync("me", "cart/1", Value::object({}));
  clock_.run_all();
  EXPECT_EQ(events, 1);
}

TEST_F(ObjectDeTest, UnwatchStopsEvents) {
  ObjectStore& store = de_.create_store("s");
  int events = 0;
  std::uint64_t id = store.watch("me", "", [&](const WatchEvent&) { ++events; });
  (void)store.put_sync("me", "a", Value::object({}));
  clock_.run_all();
  store.unwatch(id);
  (void)store.put_sync("me", "b", Value::object({}));
  clock_.run_all();
  EXPECT_EQ(events, 1);
}

TEST_F(ObjectDeTest, UnwatchDropsInFlightEvents) {
  // Event committed but not yet delivered when the watch is cancelled.
  ObjectDe slow(clock_, ObjectDeProfile::redis());
  ObjectStore& store = slow.create_store("s");
  int events = 0;
  std::uint64_t id = store.watch("me", "", [&](const WatchEvent&) { ++events; });
  (void)store.put_sync("me", "a", Value::object({}));
  store.unwatch(id);  // before the notify latency elapses
  clock_.run_all();
  EXPECT_EQ(events, 0);
}

TEST_F(ObjectDeTest, WatchEventCarriesObject) {
  ObjectStore& store = de_.create_store("s");
  Value seen;
  store.watch("me", "", [&](const WatchEvent& e) {
    seen = e.object.data_copy();
  });
  (void)store.put_sync("me", "k", Value::object({{"a", 42}}));
  clock_.run_all();
  EXPECT_EQ(seen.get("a")->as_int(), 42);
}

TEST_F(ObjectDeTest, LatencyChargedPerProfile) {
  ObjectDe timed(clock_, ObjectDeProfile::apiserver());
  ObjectStore& store = timed.create_store("s");
  sim::SimTime start = clock_.now();
  (void)store.put_sync("me", "k", Value::object({}));
  sim::SimTime write_time = clock_.now() - start;
  EXPECT_GT(write_time, sim::from_ms(5.0));

  start = clock_.now();
  (void)store.get_sync("me", "k");
  sim::SimTime read_time = clock_.now() - start;
  EXPECT_GT(read_time, sim::from_ms(2.0));
  EXPECT_LT(read_time, write_time);  // reads cheaper than raft writes
}

TEST_F(ObjectDeTest, RedisFasterThanApiserver) {
  ObjectDe redis(clock_, ObjectDeProfile::redis());
  ObjectDe apiserver(clock_, ObjectDeProfile::apiserver());
  ObjectStore& r = redis.create_store("s");
  ObjectStore& a = apiserver.create_store("s");

  sim::SimTime t0 = clock_.now();
  for (int i = 0; i < 20; ++i) {
    (void)r.put_sync("me", "k", Value::object({{"i", i}}));
  }
  sim::SimTime redis_time = clock_.now() - t0;
  t0 = clock_.now();
  for (int i = 0; i < 20; ++i) {
    (void)a.put_sync("me", "k", Value::object({{"i", i}}));
  }
  sim::SimTime apiserver_time = clock_.now() - t0;
  EXPECT_GT(apiserver_time, 3 * redis_time);
}

TEST_F(ObjectDeTest, DurableRestartKeepsStateAndVersions) {
  // A durable DE with no disk engine keeps every acked commit in memory
  // across restart(): objects come back with their versions and
  // timestamps, as disk recovery restores them.
  ObjectDe durable(clock_, ObjectDeProfile::apiserver());
  ObjectStore& store = durable.create_store("s");
  (void)store.put_sync("me", "a", Value::object({{"x", 1}}));
  (void)store.put_sync("me", "b", Value::object({{"x", 2}}));
  (void)store.remove_sync("me", "a");
  (void)store.put_sync("me", "b", Value::object({{"x", 3}}));
  auto before = store.get_sync("me", "b");
  ASSERT_TRUE(before.ok());

  clock_.advance(5 * sim::kSecond);
  durable.restart();
  EXPECT_FALSE(store.get_sync("me", "a").ok());
  auto b = store.get_sync("me", "b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value().data->get("x")->as_int(), 3);
  EXPECT_EQ(b.value().version, before.value().version);
  EXPECT_EQ(b.value().created_at, before.value().created_at);
  EXPECT_EQ(b.value().updated_at, before.value().updated_at);
  // The pre-restart version is still the optimistic-concurrency token.
  std::optional<common::Result<std::uint64_t>> written;
  store.put_versioned("me", "b", Value::object({{"x", 4}}),
                      before.value().version,
                      [&](common::Result<std::uint64_t> r) {
                        written = std::move(r);
                      });
  clock_.run_all();
  ASSERT_TRUE(written.has_value());
  EXPECT_TRUE(written->ok());
}

TEST_F(ObjectDeTest, NonDurableRestartLosesState) {
  ObjectDe redis(clock_, ObjectDeProfile::redis());
  ObjectStore& store = redis.create_store("s");
  (void)store.put_sync("me", "a", Value::object({{"x", 1}}));
  redis.restart();
  EXPECT_FALSE(store.get_sync("me", "a").ok());
}

TEST_F(ObjectDeTest, UdfReadsAndWritesAcrossStores) {
  ObjectStore& src = de_.create_store("src");
  de_.create_store("dst");
  (void)src.put_sync("me", "state", Value::object({{"n", 21}}));

  ASSERT_TRUE(de_.register_udf("me", "double-it",
                               [](UdfContext& ctx, const Value&)
                                   -> common::Result<Value> {
                                 KN_ASSIGN_OR_RETURN(StateObject obj,
                                                     ctx.get("src", "state"));
                                 std::int64_t n =
                                     obj.data->get("n")->as_int();
                                 Value out = Value::object();
                                 out.set("n", Value(n * 2));
                                 KN_TRY(ctx.put("dst", "state", out));
                                 return Value(n * 2);
                               })
                  .ok());
  auto result = de_.call_udf_sync("me", "double-it", Value::object({}));
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result.value().as_int(), 42);
  auto dst = de_.store("dst")->get_sync("me", "state");
  EXPECT_EQ(dst.value().data->get("n")->as_int(), 42);
  EXPECT_EQ(de_.stats().udf_calls, 1u);
  EXPECT_GE(de_.stats().engine_ops, 2u);
}

TEST_F(ObjectDeTest, UdfUnsupportedOnApiserverProfile) {
  ObjectDe apiserver(clock_, ObjectDeProfile::apiserver());
  auto r = apiserver.register_udf(
      "me", "f", [](UdfContext&, const Value&) -> common::Result<Value> {
        return Value(1);
      });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, common::Error::Code::kFailedPrecondition);
}

TEST_F(ObjectDeTest, UnknownUdfIsNotFound) {
  auto r = de_.call_udf_sync("me", "ghost", Value::object({}));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, common::Error::Code::kNotFound);
}

TEST_F(ObjectDeTest, TriggerFiresUdfOnWrite) {
  ObjectStore& store = de_.create_store("s");
  de_.create_store("out");
  int fired = 0;
  ASSERT_TRUE(de_.register_udf("me", "on-write",
                               [&fired](UdfContext& ctx, const Value& args)
                                   -> common::Result<Value> {
                                 ++fired;
                                 EXPECT_EQ(args.get("store")->as_string(), "s");
                                 EXPECT_EQ(args.get("key")->as_string(), "k");
                                 Value v = Value::object();
                                 v.set("seen", Value(true));
                                 KN_TRY(ctx.put("out", "marker", v));
                                 return Value(nullptr);
                               })
                  .ok());
  ASSERT_TRUE(de_.add_trigger("s", "", "on-write").ok());
  (void)store.put_sync("me", "k", Value::object({{"a", 1}}));
  clock_.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_NE(de_.store("out")->peek("marker"), nullptr);
}

TEST_F(ObjectDeTest, TriggerPrefixFilters) {
  ObjectStore& store = de_.create_store("s");
  int fired = 0;
  ASSERT_TRUE(de_.register_udf("me", "count",
                               [&fired](UdfContext&, const Value&)
                                   -> common::Result<Value> {
                                 ++fired;
                                 return Value(nullptr);
                               })
                  .ok());
  ASSERT_TRUE(de_.add_trigger("s", "order/", "count").ok());
  (void)store.put_sync("me", "order/1", Value::object({}));
  (void)store.put_sync("me", "cart/1", Value::object({}));
  clock_.run_all();
  EXPECT_EQ(fired, 1);
}

TEST_F(ObjectDeTest, RemoveTriggerStopsFiring) {
  ObjectStore& store = de_.create_store("s");
  int fired = 0;
  (void)de_.register_udf("me", "count",
                         [&fired](UdfContext&, const Value&)
                             -> common::Result<Value> {
                           ++fired;
                           return Value(nullptr);
                         });
  (void)de_.add_trigger("s", "", "count");
  (void)store.put_sync("me", "a", Value::object({}));
  clock_.run_all();
  de_.remove_trigger("s", "count");
  (void)store.put_sync("me", "b", Value::object({}));
  clock_.run_all();
  EXPECT_EQ(fired, 1);
}

TEST_F(ObjectDeTest, TriggerRequiresRegisteredUdf) {
  de_.create_store("s");
  EXPECT_FALSE(de_.add_trigger("s", "", "ghost").ok());
}

TEST_F(ObjectDeTest, GetSharedAvoidsCopySemantics) {
  ObjectStore& store = de_.create_store("s");
  (void)store.put_sync("me", "k", Value::object({{"big", std::string(100, 'x')}}));
  common::SharedValue shared;
  store.get_shared("me", "k", [&](common::Result<common::SharedValue> r) {
    ASSERT_TRUE(r.ok());
    shared = r.take();
  });
  clock_.run_all();
  ASSERT_NE(shared, nullptr);
  // Same underlying buffer as the store's copy.
  EXPECT_EQ(shared.get(), store.peek("k")->data.get());
}

TEST_F(ObjectDeTest, StatsCountOperations) {
  ObjectStore& store = de_.create_store("s");
  (void)store.put_sync("me", "k", Value::object({}));
  (void)store.get_sync("me", "k");
  (void)store.list_sync("me", "");
  (void)store.remove_sync("me", "k");
  EXPECT_EQ(de_.stats().writes, 1u);
  EXPECT_EQ(de_.stats().reads, 1u);
  EXPECT_EQ(de_.stats().lists, 1u);
  EXPECT_EQ(de_.stats().deletes, 1u);
}

TEST_F(ObjectDeTest, CreateStoreIsIdempotent) {
  ObjectStore& a = de_.create_store("same");
  ObjectStore& b = de_.create_store("same");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(de_.store("missing"), nullptr);
}


// ---------------------------------------------------------------------------
// Per-op write contract: every per-op write entry point under each failure
// condition it can meet, with the exact error and the exact movement of
// every ObjectDeStats counter. All six entry points share one admit/commit
// path; this table is what that path must keep.
// ---------------------------------------------------------------------------

using Counters = std::map<std::string, std::uint64_t>;

Counters counters_of(const ObjectDeStats& s) {
  return {{"reads", s.reads},
          {"writes", s.writes},
          {"deletes", s.deletes},
          {"lists", s.lists},
          {"watch_events", s.watch_events},
          {"udf_calls", s.udf_calls},
          {"engine_ops", s.engine_ops},
          {"permission_denials", s.permission_denials},
          {"version_conflicts", s.version_conflicts},
          {"unavailable_rejections", s.unavailable_rejections},
          {"watch_batches", s.watch_batches},
          {"watch_events_coalesced", s.watch_events_coalesced},
          {"watch_events_filtered", s.watch_events_filtered},
          {"watch_events_dropped", s.watch_events_dropped}};
}

/// The counters that moved between two readings, with their deltas.
Counters moved_between(const Counters& before, const Counters& after) {
  Counters out;
  for (const auto& [name, value] : after) {
    if (value != before.at(name)) out[name] = value - before.at(name);
  }
  return out;
}

enum class WriteEntry { kPut, kPutVersioned, kPatch, kRemove, kUdfPut, kUdfPatch };
enum class WriteCondition { kDenied, kFieldRule, kCrashed, kConflictOrMissing };

struct WriteContractCase {
  const char* name;
  WriteEntry entry;
  WriteCondition condition;
  std::optional<Error::Code> code;  // nullopt: the write commits
  std::string message;
  Counters moved;
};

/// Runs one case against a fresh DE: store "s" holds "k" = {public: 1} at
/// version 1; RBAC grants "admin" everything and "limited" writes to field
/// `public` only; "nobody" has no role. UDF cases run the write inside a
/// UDF owned by the case's principal and invoked by "admin".
common::Status run_write_case(const WriteContractCase& c,
                              Counters* moved_out) {
  sim::VirtualClock clock;
  ObjectDe de(clock, ObjectDeProfile::instant());
  ObjectStore& store = de.create_store("s");
  EXPECT_EQ(store.put_sync("admin", "k", Value::object({{"public", 1}})).value(),
            1u);

  Role full;
  full.name = "full";
  PolicyRule all;
  all.store = "*";
  all.verbs = {Verb::kGet,    Verb::kList,   Verb::kWatch,    Verb::kCreate,
               Verb::kUpdate, Verb::kDelete, Verb::kInvokeUdf};
  full.rules.push_back(all);
  Role limited;
  limited.name = "limited";
  PolicyRule fields;
  fields.store = "s";
  fields.verbs = {Verb::kUpdate, Verb::kDelete};
  fields.fields.allowed = {"public"};
  limited.rules.push_back(fields);
  EXPECT_TRUE(de.rbac().add_role(full).ok());
  EXPECT_TRUE(de.rbac().add_role(limited).ok());
  EXPECT_TRUE(de.rbac().bind("admin", "full").ok());
  EXPECT_TRUE(de.rbac().bind("limited", "limited").ok());
  de.rbac().set_enabled(true);

  std::string principal = "admin";
  std::string target = "s";
  std::string key = "k";
  Value data = Value::object({{"public", 2}});
  std::uint64_t expected_version = 1;
  switch (c.condition) {
    case WriteCondition::kDenied: principal = "nobody"; break;
    case WriteCondition::kFieldRule:
      principal = "limited";
      data = Value::object({{"secret", 1}});
      break;
    case WriteCondition::kCrashed: break;
    case WriteCondition::kConflictOrMissing:
      expected_version = 99;                          // put_versioned
      if (c.entry == WriteEntry::kRemove) key = "gone";  // remove
      target = "nope";                                // UDF writes
      break;
  }

  const bool udf =
      c.entry == WriteEntry::kUdfPut || c.entry == WriteEntry::kUdfPatch;
  if (udf) {
    const bool merge = c.entry == WriteEntry::kUdfPatch;
    EXPECT_TRUE(de.register_udf(principal, "op",
                                [merge, target, data](UdfContext& ctx,
                                                      const Value&)
                                    -> common::Result<Value> {
                                  auto r = merge ? ctx.patch(target, "k", data)
                                                 : ctx.put(target, "k", data);
                                  if (!r.ok()) return r.error();
                                  return Value(
                                      static_cast<std::int64_t>(r.value()));
                                })
                    .ok());
  }
  if (c.condition == WriteCondition::kCrashed) de.crash();

  const Counters before = counters_of(de.stats());
  common::Status status;
  switch (c.entry) {
    case WriteEntry::kPut: {
      auto r = store.put_sync(principal, key, data);
      if (!r.ok()) status = r.error();
      break;
    }
    case WriteEntry::kPutVersioned: {
      std::optional<common::Result<std::uint64_t>> r;
      store.put_versioned(principal, key, data, expected_version,
                          [&](common::Result<std::uint64_t> v) {
                            r = std::move(v);
                          });
      clock.run_all();
      EXPECT_TRUE(r.has_value());
      if (r.has_value() && !r->ok()) status = r->error();
      break;
    }
    case WriteEntry::kPatch: {
      auto r = store.patch_sync(principal, key, data);
      if (!r.ok()) status = r.error();
      break;
    }
    case WriteEntry::kRemove: status = store.remove_sync(principal, key); break;
    case WriteEntry::kUdfPut:
    case WriteEntry::kUdfPatch: {
      auto r = de.call_udf_sync("admin", "op", Value::object({}));
      if (!r.ok()) status = r.error();
      break;
    }
  }
  *moved_out = moved_between(before, counters_of(de.stats()));
  return status;
}

TEST(ObjectWriteContract, EveryEntryPointUnderEveryCondition) {
  using C = Error::Code;
  using E = WriteEntry;
  using W = WriteCondition;
  const std::vector<WriteContractCase> cases = {
      // RBAC denial: the op counter and one denial.
      {"put/denied", E::kPut, W::kDenied, C::kPermissionDenied,
       "object: nobody cannot write s/k",
       {{"writes", 1}, {"permission_denials", 1}}},
      {"put_versioned/denied", E::kPutVersioned, W::kDenied,
       C::kPermissionDenied, "object: nobody cannot write s/k",
       {{"writes", 1}, {"permission_denials", 1}}},
      {"patch/denied", E::kPatch, W::kDenied, C::kPermissionDenied,
       "object: nobody cannot patch s/k",
       {{"writes", 1}, {"permission_denials", 1}}},
      {"remove/denied", E::kRemove, W::kDenied, C::kPermissionDenied,
       "object: nobody cannot delete s/k",
       {{"deletes", 1}, {"permission_denials", 1}}},
      {"udf.put/denied", E::kUdfPut, W::kDenied, C::kPermissionDenied,
       "udf: nobody cannot write s/k",
       {{"udf_calls", 1}, {"engine_ops", 1}, {"permission_denials", 1}}},
      {"udf.patch/denied", E::kUdfPatch, W::kDenied, C::kPermissionDenied,
       "udf: nobody cannot patch s/k",
       {{"udf_calls", 1}, {"engine_ops", 1}, {"permission_denials", 1}}},
      // Field-rule violation: client writes count a denial, UDF writes do
      // not, and a delete carries no fields so it commits.
      {"put/field_rule", E::kPut, W::kFieldRule, C::kPermissionDenied,
       "rbac: write to field 'secret' denied",
       {{"writes", 1}, {"permission_denials", 1}}},
      {"put_versioned/field_rule", E::kPutVersioned, W::kFieldRule,
       C::kPermissionDenied, "rbac: write to field 'secret' denied",
       {{"writes", 1}, {"permission_denials", 1}}},
      {"patch/field_rule", E::kPatch, W::kFieldRule, C::kPermissionDenied,
       "rbac: write to field 'secret' denied",
       {{"writes", 1}, {"permission_denials", 1}}},
      {"remove/field_rule", E::kRemove, W::kFieldRule, std::nullopt, "",
       {{"deletes", 1}}},
      {"udf.put/field_rule", E::kUdfPut, W::kFieldRule, C::kPermissionDenied,
       "rbac: write to field 'secret' denied",
       {{"udf_calls", 1}, {"engine_ops", 1}}},
      {"udf.patch/field_rule", E::kUdfPatch, W::kFieldRule,
       C::kPermissionDenied, "rbac: write to field 'secret' denied",
       {{"udf_calls", 1}, {"engine_ops", 1}}},
      // Crashed DE: rejected before any op counter moves (a UDF write is
      // rejected at the call, before its body runs).
      {"put/crashed", E::kPut, W::kCrashed, C::kUnavailable,
       "object: de unavailable (crashed)", {{"unavailable_rejections", 1}}},
      {"put_versioned/crashed", E::kPutVersioned, W::kCrashed,
       C::kUnavailable, "object: de unavailable (crashed)",
       {{"unavailable_rejections", 1}}},
      {"patch/crashed", E::kPatch, W::kCrashed, C::kUnavailable,
       "object: de unavailable (crashed)", {{"unavailable_rejections", 1}}},
      {"remove/crashed", E::kRemove, W::kCrashed, C::kUnavailable,
       "object: de unavailable (crashed)", {{"unavailable_rejections", 1}}},
      {"udf.put/crashed", E::kUdfPut, W::kCrashed, C::kUnavailable,
       "object: de unavailable (crashed)", {{"unavailable_rejections", 1}}},
      {"udf.patch/crashed", E::kUdfPatch, W::kCrashed, C::kUnavailable,
       "object: de unavailable (crashed)", {{"unavailable_rejections", 1}}},
      // Version conflict / missing key, where the entry point has one (put
      // and patch are upserts).
      {"put_versioned/conflict", E::kPutVersioned, W::kConflictOrMissing,
       C::kFailedPrecondition,
       "object: version conflict on s/k (expected 99, have 1)",
       {{"writes", 1}, {"version_conflicts", 1}}},
      {"remove/missing", E::kRemove, W::kConflictOrMissing, C::kNotFound,
       "object: s/gone not found", {{"deletes", 1}}},
      {"udf.put/missing_store", E::kUdfPut, W::kConflictOrMissing,
       C::kNotFound, "udf: unknown store 'nope'",
       {{"udf_calls", 1}, {"engine_ops", 1}}},
      {"udf.patch/missing_store", E::kUdfPatch, W::kConflictOrMissing,
       C::kNotFound, "udf: unknown store 'nope'",
       {{"udf_calls", 1}, {"engine_ops", 1}}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    Counters moved;
    common::Status status = run_write_case(c, &moved);
    if (c.code.has_value()) {
      ASSERT_FALSE(status.ok());
      EXPECT_EQ(status.error().code, *c.code) << status.error().to_string();
      EXPECT_EQ(status.error().message, c.message);
    } else {
      EXPECT_TRUE(status.ok()) << status.error().to_string();
    }
    EXPECT_EQ(moved, c.moved);
  }
}

}  // namespace
}  // namespace knactor::de
