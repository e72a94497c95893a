#include "de/rbac.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "de/object.h"

namespace knactor::de {
namespace {

using common::Value;

Role make_role(const std::string& name, const std::string& store,
               std::set<Verb> verbs) {
  Role role;
  role.name = name;
  PolicyRule rule;
  rule.store = store;
  rule.verbs = std::move(verbs);
  role.rules.push_back(rule);
  return role;
}

TEST(Rbac, DisabledAllowsEverything) {
  Rbac rbac;
  EXPECT_TRUE(rbac.check("anyone", "any", "key", Verb::kDelete, 0).allowed);
}

TEST(Rbac, EnabledDeniesByDefault) {
  Rbac rbac;
  rbac.set_enabled(true);
  EXPECT_FALSE(rbac.check("anyone", "s", "k", Verb::kGet, 0).allowed);
}

TEST(Rbac, RoleGrantsVerbsOnStore) {
  Rbac rbac;
  rbac.set_enabled(true);
  ASSERT_TRUE(rbac.add_role(make_role("reader", "s", {Verb::kGet})).ok());
  ASSERT_TRUE(rbac.bind("alice", "reader").ok());
  EXPECT_TRUE(rbac.check("alice", "s", "k", Verb::kGet, 0).allowed);
  EXPECT_FALSE(rbac.check("alice", "s", "k", Verb::kUpdate, 0).allowed);
  EXPECT_FALSE(rbac.check("alice", "other", "k", Verb::kGet, 0).allowed);
  EXPECT_FALSE(rbac.check("bob", "s", "k", Verb::kGet, 0).allowed);
}

TEST(Rbac, WildcardStore) {
  Rbac rbac;
  rbac.set_enabled(true);
  ASSERT_TRUE(rbac.add_role(make_role("admin", "*",
                                      {Verb::kGet, Verb::kUpdate}))
                  .ok());
  ASSERT_TRUE(rbac.bind("root", "admin").ok());
  EXPECT_TRUE(rbac.check("root", "anything", "k", Verb::kUpdate, 0).allowed);
}

TEST(Rbac, KeyPrefixScoping) {
  Rbac rbac;
  rbac.set_enabled(true);
  Role role = make_role("orders-only", "s", {Verb::kGet});
  role.rules[0].key_prefix = "order/";
  ASSERT_TRUE(rbac.add_role(role).ok());
  ASSERT_TRUE(rbac.bind("alice", "orders-only").ok());
  EXPECT_TRUE(rbac.check("alice", "s", "order/1", Verb::kGet, 0).allowed);
  EXPECT_FALSE(rbac.check("alice", "s", "cart/1", Verb::kGet, 0).allowed);
}

TEST(Rbac, DuplicateRoleRejected) {
  Rbac rbac;
  ASSERT_TRUE(rbac.add_role(make_role("r", "s", {Verb::kGet})).ok());
  EXPECT_FALSE(rbac.add_role(make_role("r", "s", {Verb::kGet})).ok());
}

TEST(Rbac, BindUnknownRoleRejected) {
  Rbac rbac;
  EXPECT_FALSE(rbac.bind("alice", "ghost").ok());
}

TEST(Rbac, UnbindRevokes) {
  Rbac rbac;
  rbac.set_enabled(true);
  ASSERT_TRUE(rbac.add_role(make_role("r", "s", {Verb::kGet})).ok());
  ASSERT_TRUE(rbac.bind("alice", "r").ok());
  EXPECT_TRUE(rbac.check("alice", "s", "k", Verb::kGet, 0).allowed);
  rbac.unbind("alice", "r");
  EXPECT_FALSE(rbac.check("alice", "s", "k", Verb::kGet, 0).allowed);
}

TEST(Rbac, MultipleRolesUnion) {
  Rbac rbac;
  rbac.set_enabled(true);
  ASSERT_TRUE(rbac.add_role(make_role("reader", "s", {Verb::kGet})).ok());
  ASSERT_TRUE(rbac.add_role(make_role("writer", "s", {Verb::kUpdate})).ok());
  ASSERT_TRUE(rbac.bind("alice", "reader").ok());
  ASSERT_TRUE(rbac.bind("alice", "writer").ok());
  EXPECT_TRUE(rbac.check("alice", "s", "k", Verb::kGet, 0).allowed);
  EXPECT_TRUE(rbac.check("alice", "s", "k", Verb::kUpdate, 0).allowed);
}

TEST(Rbac, FieldLevelGrant) {
  Rbac rbac;
  rbac.set_enabled(true);
  Role role = make_role("external-only", "s", {Verb::kUpdate});
  role.rules[0].fields.allowed = {"shippingCost", "paymentID"};
  ASSERT_TRUE(rbac.add_role(role).ok());
  ASSERT_TRUE(rbac.bind("integrator", "external-only").ok());

  Decision d = rbac.check("integrator", "s", "order", Verb::kUpdate, 0);
  ASSERT_TRUE(d.allowed);
  EXPECT_FALSE(d.fields.unrestricted());
  Value ok_write = Value::object({{"shippingCost", 5.0}});
  EXPECT_TRUE(Rbac::validate_write(ok_write, d.fields).ok());
  Value bad_write = Value::object({{"cost", 1.0}});
  EXPECT_FALSE(Rbac::validate_write(bad_write, d.fields).ok());
}

TEST(Rbac, FieldLevelDeny) {
  FieldRule rule;
  rule.denied = {"secret"};
  EXPECT_TRUE(rule.permits("open"));
  EXPECT_FALSE(rule.permits("secret"));
  Value v = Value::object({{"open", 1}, {"secret", 2}});
  Value filtered = Rbac::filter_fields(v, rule);
  EXPECT_NE(filtered.get("open"), nullptr);
  EXPECT_EQ(filtered.get("secret"), nullptr);
}

TEST(Rbac, UnrestrictedGrantWinsOverRestricted) {
  Rbac rbac;
  rbac.set_enabled(true);
  Role narrow = make_role("narrow", "s", {Verb::kGet});
  narrow.rules[0].fields.allowed = {"a"};
  ASSERT_TRUE(rbac.add_role(narrow).ok());
  ASSERT_TRUE(rbac.add_role(make_role("wide", "s", {Verb::kGet})).ok());
  ASSERT_TRUE(rbac.bind("alice", "narrow").ok());
  ASSERT_TRUE(rbac.bind("alice", "wide").ok());
  Decision d = rbac.check("alice", "s", "k", Verb::kGet, 0);
  EXPECT_TRUE(d.allowed);
  EXPECT_TRUE(d.fields.unrestricted());
}

TEST(Rbac, TimeWindowWithinDay) {
  TimeWindow w{8LL * 3600 * sim::kSecond, 20LL * 3600 * sim::kSecond};
  EXPECT_TRUE(w.contains(12LL * 3600 * sim::kSecond));
  EXPECT_FALSE(w.contains(6LL * 3600 * sim::kSecond));
  EXPECT_FALSE(w.contains(22LL * 3600 * sim::kSecond));
  // Next day, same hours.
  EXPECT_TRUE(w.contains((24 + 12LL) * 3600 * sim::kSecond));
}

TEST(Rbac, TimeWindowWrapping) {
  TimeWindow w{22LL * 3600 * sim::kSecond, 6LL * 3600 * sim::kSecond};
  EXPECT_TRUE(w.contains(23LL * 3600 * sim::kSecond));
  EXPECT_TRUE(w.contains(2LL * 3600 * sim::kSecond));
  EXPECT_FALSE(w.contains(12LL * 3600 * sim::kSecond));
}

TEST(Rbac, TimeWindowedRule) {
  Rbac rbac;
  rbac.set_enabled(true);
  Role role = make_role("day-shift", "s", {Verb::kUpdate});
  role.rules[0].window =
      TimeWindow{8LL * 3600 * sim::kSecond, 20LL * 3600 * sim::kSecond};
  ASSERT_TRUE(rbac.add_role(role).ok());
  ASSERT_TRUE(rbac.bind("worker", "day-shift").ok());
  EXPECT_TRUE(rbac.check("worker", "s", "k", Verb::kUpdate,
                         12LL * 3600 * sim::kSecond)
                  .allowed);
  EXPECT_FALSE(rbac.check("worker", "s", "k", Verb::kUpdate,
                          23LL * 3600 * sim::kSecond)
                   .allowed);
}

// Enforcement through the Object DE.
TEST(RbacEnforcement, ObjectStoreOperations) {
  sim::VirtualClock clock;
  ObjectDe de(clock, ObjectDeProfile::instant());
  ObjectStore& store = de.create_store("s");
  Rbac& rbac = de.rbac();
  Role reader = make_role("reader", "s", {Verb::kGet, Verb::kList});
  ASSERT_TRUE(rbac.add_role(reader).ok());
  Role writer = make_role("writer", "s",
                          {Verb::kGet, Verb::kUpdate, Verb::kDelete});
  ASSERT_TRUE(rbac.add_role(writer).ok());
  ASSERT_TRUE(rbac.bind("r", "reader").ok());
  ASSERT_TRUE(rbac.bind("w", "writer").ok());
  rbac.set_enabled(true);

  EXPECT_FALSE(store.put_sync("r", "k", Value::object({})).ok());
  EXPECT_TRUE(store.put_sync("w", "k", Value::object({{"a", 1}})).ok());
  EXPECT_TRUE(store.get_sync("r", "k").ok());
  EXPECT_TRUE(store.list_sync("r", "").ok());
  EXPECT_FALSE(store.list_sync("w", "").ok());  // writer lacks list
  EXPECT_FALSE(store.remove_sync("r", "k").ok());
  EXPECT_TRUE(store.remove_sync("w", "k").ok());
  EXPECT_GE(de.stats().permission_denials, 3u);
}

TEST(RbacEnforcement, WatchDeniedReturnsZero) {
  sim::VirtualClock clock;
  ObjectDe de(clock, ObjectDeProfile::instant());
  ObjectStore& store = de.create_store("s");
  de.rbac().set_enabled(true);
  EXPECT_EQ(store.watch("nobody", "", [](const WatchEvent&) {}), 0u);
}

TEST(RbacEnforcement, ReadFilteringAppliesFieldRules) {
  sim::VirtualClock clock;
  ObjectDe de(clock, ObjectDeProfile::instant());
  ObjectStore& store = de.create_store("s");
  Rbac& rbac = de.rbac();
  Role partial = make_role("partial", "s", {Verb::kGet, Verb::kUpdate});
  partial.rules[0].fields.allowed = {"public"};
  ASSERT_TRUE(rbac.add_role(partial).ok());
  Role full = make_role("full", "s",
                        {Verb::kGet, Verb::kUpdate, Verb::kList});
  ASSERT_TRUE(rbac.add_role(full).ok());
  ASSERT_TRUE(rbac.bind("limited", "partial").ok());
  ASSERT_TRUE(rbac.bind("owner", "full").ok());
  rbac.set_enabled(true);

  ASSERT_TRUE(store
                  .put_sync("owner", "k",
                            Value::object({{"public", 1}, {"private", 2}}))
                  .ok());
  auto got = store.get_sync("limited", "k");
  ASSERT_TRUE(got.ok());
  EXPECT_NE(got.value().data->get("public"), nullptr);
  EXPECT_EQ(got.value().data->get("private"), nullptr);

  // Field-limited write rejected when touching other fields.
  EXPECT_FALSE(
      store.put_sync("limited", "k", Value::object({{"private", 9}})).ok());
  EXPECT_TRUE(
      store.patch_sync("limited", "k", Value::object({{"public", 9}})).ok());
}

// A UDF runs as its owner, so its engine-level list must hide the same
// fields the owner's client list and get hide.
TEST(RbacEnforcement, UdfListAppliesOwnerFieldRules) {
  sim::VirtualClock clock;
  ObjectDe de(clock, ObjectDeProfile::instant());
  ObjectStore& store = de.create_store("s");
  Rbac& rbac = de.rbac();
  Role partial = make_role("partial", "s", {Verb::kGet, Verb::kList});
  partial.rules[0].fields.allowed = {"public"};
  ASSERT_TRUE(rbac.add_role(partial).ok());
  ASSERT_TRUE(rbac.add_role(make_role("full", "s", {Verb::kUpdate})).ok());
  ASSERT_TRUE(
      rbac.add_role(make_role("invoker", "*", {Verb::kInvokeUdf})).ok());
  ASSERT_TRUE(rbac.bind("limited", "partial").ok());
  ASSERT_TRUE(rbac.bind("limited", "invoker").ok());
  ASSERT_TRUE(rbac.bind("owner", "full").ok());
  rbac.set_enabled(true);
  ASSERT_TRUE(store
                  .put_sync("owner", "k",
                            Value::object({{"public", 1}, {"private", 2}}))
                  .ok());

  auto listed = store.list_sync("limited", "");
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed.value().size(), 1u);
  EXPECT_EQ(listed.value()[0].data->get("private"), nullptr);

  std::vector<StateObject> udf_listed;
  std::optional<StateObject> udf_got;
  ASSERT_TRUE(de.register_udf("limited", "peek",
                              [&](UdfContext& ctx, const Value&)
                                  -> common::Result<Value> {
                                KN_ASSIGN_OR_RETURN(udf_listed,
                                                    ctx.list("s", ""));
                                KN_ASSIGN_OR_RETURN(udf_got, ctx.get("s", "k"));
                                return Value(true);
                              })
                  .ok());
  ASSERT_TRUE(de.call_udf_sync("limited", "peek", Value::object({})).ok());
  ASSERT_TRUE(udf_got.has_value());
  EXPECT_EQ(udf_got->data->get("private"), nullptr);
  ASSERT_EQ(udf_listed.size(), 1u);
  EXPECT_EQ(udf_listed[0].key, "k");
  EXPECT_NE(udf_listed[0].data->get("public"), nullptr);
  EXPECT_EQ(udf_listed[0].data->get("private"), nullptr);
}

TEST(RbacEnforcement, UdfRunsAsOwnerPrincipal) {
  sim::VirtualClock clock;
  ObjectDe de(clock, ObjectDeProfile::instant());
  de.create_store("s");
  Rbac& rbac = de.rbac();
  Role udf_role = make_role("udf-writer", "s", {Verb::kUpdate});
  ASSERT_TRUE(rbac.add_role(udf_role).ok());
  Role invoker = make_role("invoker", "*", {Verb::kInvokeUdf});
  ASSERT_TRUE(rbac.add_role(invoker).ok());
  ASSERT_TRUE(rbac.bind("owner", "udf-writer").ok());
  ASSERT_TRUE(rbac.bind("owner", "invoker").ok());
  ASSERT_TRUE(rbac.bind("caller", "invoker").ok());
  rbac.set_enabled(true);

  ASSERT_TRUE(de.register_udf("owner", "write",
                              [](UdfContext& ctx, const Value&)
                                  -> common::Result<Value> {
                                Value v = Value::object();
                                v.set("x", Value(1));
                                KN_TRY(ctx.put("s", "k", v));
                                return Value(true);
                              })
                  .ok());
  // Caller may invoke; the UDF's writes are authorized as "owner".
  EXPECT_TRUE(de.call_udf_sync("caller", "write", Value::object({})).ok());
  // Unbound principal cannot invoke.
  EXPECT_FALSE(de.call_udf_sync("stranger", "write", Value::object({})).ok());
}

}  // namespace
}  // namespace knactor::de
