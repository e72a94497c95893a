#include "de/retention.h"

#include <gtest/gtest.h>

namespace knactor::de {
namespace {

using common::Value;

class RetentionTest : public ::testing::Test {
 protected:
  RetentionTest() : de_(clock_, ObjectDeProfile::instant()), manager_(de_) {
    store_ = &de_.create_store("s");
  }

  void put(const std::string& key) {
    ASSERT_TRUE(store_->put_sync("me", key, Value::object({{"v", 1}})).ok());
  }

  sim::VirtualClock clock_;
  ObjectDe de_;
  RetentionManager manager_;
  ObjectStore* store_ = nullptr;
};

TEST_F(RetentionTest, RefCountPolicyCollectsProcessedUnreferenced) {
  manager_.set_policy("s", RetentionPolicy::ref_count());
  put("k");
  manager_.claim("s", "k", "reconciler");
  EXPECT_EQ(manager_.refcount("s", "k"), 1u);

  // Still referenced: survives sweeps.
  EXPECT_EQ(manager_.sweep("me"), 0u);
  EXPECT_NE(store_->peek("k"), nullptr);

  manager_.release("s", "k", "reconciler", /*done=*/true);
  EXPECT_EQ(manager_.refcount("s", "k"), 0u);
  EXPECT_EQ(manager_.sweep("me"), 1u);
  EXPECT_EQ(store_->peek("k"), nullptr);
}

TEST_F(RetentionTest, UnprocessedObjectsNotCollected) {
  manager_.set_policy("s", RetentionPolicy::ref_count());
  put("never-claimed");
  // Never claimed, never processed: the refcount policy keeps it.
  EXPECT_EQ(manager_.sweep("me"), 0u);
  EXPECT_NE(store_->peek("never-claimed"), nullptr);
}

TEST_F(RetentionTest, ReleaseWithoutDoneKeepsObject) {
  manager_.set_policy("s", RetentionPolicy::ref_count());
  put("k");
  manager_.claim("s", "k", "c");
  manager_.release("s", "k", "c", /*done=*/false);
  EXPECT_EQ(manager_.sweep("me"), 0u);
}

TEST_F(RetentionTest, MultipleClaimants) {
  manager_.set_policy("s", RetentionPolicy::ref_count());
  put("k");
  manager_.claim("s", "k", "a");
  manager_.claim("s", "k", "b");
  manager_.release("s", "k", "a", true);
  EXPECT_EQ(manager_.refcount("s", "k"), 1u);
  EXPECT_EQ(manager_.sweep("me"), 0u);
  manager_.release("s", "k", "b", true);
  EXPECT_EQ(manager_.sweep("me"), 1u);
}

TEST_F(RetentionTest, NestedClaimsBySameConsumer) {
  manager_.set_policy("s", RetentionPolicy::ref_count());
  put("k");
  manager_.claim("s", "k", "a");
  manager_.claim("s", "k", "a");
  EXPECT_EQ(manager_.refcount("s", "k"), 2u);
  manager_.release("s", "k", "a", true);
  EXPECT_EQ(manager_.refcount("s", "k"), 1u);
  manager_.release("s", "k", "a", true);
  EXPECT_EQ(manager_.refcount("s", "k"), 0u);
}

TEST_F(RetentionTest, TtlPolicyCollectsOldObjects) {
  manager_.set_policy("s", RetentionPolicy::ttl_policy(10 * sim::kSecond));
  put("old");
  clock_.advance(20 * sim::kSecond);
  put("fresh");
  EXPECT_EQ(manager_.sweep("me"), 1u);
  EXPECT_EQ(store_->peek("old"), nullptr);
  EXPECT_NE(store_->peek("fresh"), nullptr);
}

TEST_F(RetentionTest, TtlRespectsActiveReferences) {
  manager_.set_policy("s", RetentionPolicy::ttl_policy(10 * sim::kSecond));
  put("held");
  manager_.claim("s", "held", "c");
  clock_.advance(20 * sim::kSecond);
  EXPECT_EQ(manager_.sweep("me"), 0u);
}

TEST_F(RetentionTest, KeepForeverNeverCollects) {
  manager_.set_policy("s", RetentionPolicy::keep_forever());
  put("archive");
  manager_.claim("s", "archive", "c");
  manager_.release("s", "archive", "c", true);
  clock_.advance(3600 * sim::kSecond);
  EXPECT_EQ(manager_.sweep("me"), 0u);
}

TEST_F(RetentionTest, StoresWithoutPolicyUntouched) {
  put("k");
  manager_.claim("s", "k", "c");
  manager_.release("s", "k", "c", true);
  EXPECT_EQ(manager_.sweep("me"), 0u);
}

TEST_F(RetentionTest, CollectionFiresWatchEvents) {
  manager_.set_policy("s", RetentionPolicy::ref_count());
  put("k");
  bool deleted = false;
  store_->watch("me", "", [&](const WatchEvent& e) {
    if (e.type == WatchEventType::kDeleted) deleted = true;
  });
  manager_.claim("s", "k", "c");
  manager_.release("s", "k", "c", true);
  (void)manager_.sweep("me");
  clock_.run_all();
  EXPECT_TRUE(deleted);
}

TEST_F(RetentionTest, PeriodicSweepRuns) {
  manager_.set_policy("s", RetentionPolicy::ttl_policy(5 * sim::kSecond));
  put("k");
  manager_.start_periodic_sweep("me", 10 * sim::kSecond);
  clock_.run_until(clock_.now() + 30 * sim::kSecond);
  EXPECT_EQ(store_->peek("k"), nullptr);
  EXPECT_GE(manager_.stats().sweeps, 2u);
  manager_.stop_periodic_sweep();
}

// ---------------------------------------------------------------------------
// GC under crash/restart (chaos resilience).
// ---------------------------------------------------------------------------

class DurableRetentionTest : public ::testing::Test {
 protected:
  DurableRetentionTest()
      : de_(clock_, ObjectDeProfile::apiserver()), manager_(de_) {
    store_ = &de_.create_store("s");
    manager_.set_policy("s", RetentionPolicy::ref_count());
  }

  void put(const std::string& key) {
    ASSERT_TRUE(store_->put_sync("me", key, Value::object({{"v", 1}})).ok());
  }

  sim::VirtualClock clock_;
  ObjectDe de_;
  RetentionManager manager_;
  ObjectStore* store_ = nullptr;
};

TEST_F(DurableRetentionTest, CollectedObjectsStayGoneAcrossRestart) {
  put("done");
  put("held");
  manager_.claim("s", "done", "c");
  manager_.release("s", "done", "c", /*done=*/true);
  manager_.claim("s", "held", "c");
  EXPECT_EQ(manager_.sweep("me"), 1u);
  EXPECT_EQ(store_->peek("done"), nullptr);

  // Durable restart: the collected object must not be resurrected (its
  // deletion was acked) and the held object must survive.
  de_.restart();
  clock_.run_all();
  EXPECT_EQ(store_->peek("done"), nullptr);
  ASSERT_NE(store_->peek("held"), nullptr);
  EXPECT_EQ(manager_.refcount("s", "held"), 1u);

  // Re-sweeping after recovery collects nothing extra.
  EXPECT_EQ(manager_.sweep("me"), 0u);
  ASSERT_NE(store_->peek("held"), nullptr);
  manager_.release("s", "held", "c", true);
  EXPECT_EQ(manager_.sweep("me"), 1u);
  EXPECT_EQ(store_->peek("held"), nullptr);
}

TEST_F(DurableRetentionTest, SweepAgainstCrashedDeCollectsNothing) {
  put("done");
  manager_.claim("s", "done", "c");
  manager_.release("s", "done", "c", true);

  de_.crash();
  // The DE rejects the sweep's list/remove ops; nothing is collected and
  // the usage table is untouched (a retry after recovery collects cleanly).
  EXPECT_EQ(manager_.sweep("me"), 0u);
  EXPECT_GT(de_.stats().unavailable_rejections, 0u);
  EXPECT_EQ(manager_.stats().collected, 0u);

  de_.recover();
  clock_.run_all();
  ASSERT_NE(store_->peek("done"), nullptr);  // kept across the restart
  EXPECT_EQ(manager_.sweep("me"), 1u);
  EXPECT_EQ(store_->peek("done"), nullptr);
}

TEST_F(DurableRetentionTest, CrashBetweenReleaseAndSweepIsSafe) {
  put("k");
  manager_.claim("s", "k", "c");
  de_.crash();
  // Claims/releases are consumer-side bookkeeping; they survive a DE crash.
  manager_.release("s", "k", "c", true);
  EXPECT_EQ(manager_.refcount("s", "k"), 0u);
  de_.recover();
  clock_.run_all();
  EXPECT_EQ(manager_.sweep("me"), 1u);
  EXPECT_EQ(store_->peek("k"), nullptr);
  EXPECT_EQ(manager_.sweep("me"), 0u);  // idempotent: nothing extra
}

TEST_F(RetentionTest, NonDurableRestartStaysConsistent) {
  // A redis-profile DE loses its objects on restart; the manager's usage
  // table may still reference them. Sweeping must stay consistent (no
  // phantom collections, no crash).
  manager_.set_policy("s", RetentionPolicy::ref_count());
  put("k");
  manager_.claim("s", "k", "c");
  manager_.release("s", "k", "c", true);
  de_.restart();  // instant profile is non-durable: the store is wiped
  clock_.run_all();
  EXPECT_EQ(store_->peek("k"), nullptr);
  EXPECT_EQ(manager_.sweep("me"), 0u);
  EXPECT_EQ(manager_.stats().collected, 0u);
}

TEST_F(RetentionTest, StatsTrack) {
  manager_.set_policy("s", RetentionPolicy::ref_count());
  put("k");
  manager_.claim("s", "k", "c");
  manager_.release("s", "k", "c", true);
  (void)manager_.sweep("me");
  EXPECT_EQ(manager_.stats().claims, 1u);
  EXPECT_EQ(manager_.stats().releases, 1u);
  EXPECT_EQ(manager_.stats().collected, 1u);
  EXPECT_EQ(manager_.stats().sweeps, 1u);
}

}  // namespace
}  // namespace knactor::de
