// Coalesced watch delivery (ObjectStore::watch_batch): a window of commits
// arrives as one WatchBatch, per-key updates coalesce, and — the ordering
// regression this suite pins down — a delete that follows a modify of the
// same key within one window is neither reordered before other keys'
// earlier events nor dropped.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "de/object.h"
#include "sim/clock.h"

namespace knactor::de {
namespace {

using common::Value;

class WatchBatchTest : public ::testing::Test {
 protected:
  WatchBatchTest() : de_(clock_, ObjectDeProfile::instant()) {
    store_ = &de_.create_store("things");
  }

  Value obj(int n) {
    Value v = Value::object();
    v.set("n", Value(static_cast<std::int64_t>(n)));
    return v;
  }

  sim::VirtualClock clock_;
  ObjectDe de_;
  ObjectStore* store_ = nullptr;
  std::vector<WatchBatch> batches_;
};

constexpr sim::SimTime kWindow = 10 * sim::kMillisecond;

TEST_F(WatchBatchTest, BurstArrivesAsOneBatch) {
  std::uint64_t id = store_->watch_batch(
      "svc", "", kWindow,
      [this](const WatchBatch& b) { batches_.push_back(b); });
  ASSERT_NE(id, 0u);
  (void)store_->put_sync("svc", "a", obj(1));
  (void)store_->put_sync("svc", "b", obj(2));
  (void)store_->put_sync("svc", "c", obj(3));
  clock_.run_all();

  ASSERT_EQ(batches_.size(), 1u);
  EXPECT_EQ(batches_[0].events.size(), 3u);
  EXPECT_EQ(batches_[0].commits, 3u);
  EXPECT_EQ(de_.stats().watch_batches, 1u);
  EXPECT_EQ(de_.stats().watch_events, 3u);
  EXPECT_EQ(de_.stats().watch_batch_sizes.count(), 1u);
  EXPECT_EQ(de_.stats().watch_batch_sizes.max(), 3u);
}

TEST_F(WatchBatchTest, SameKeyCoalescesToLatestPayload) {
  store_->watch_batch("svc", "", kWindow,
                      [this](const WatchBatch& b) { batches_.push_back(b); });
  (void)store_->put_sync("svc", "k", obj(1));
  (void)store_->put_sync("svc", "k", obj(2));
  (void)store_->put_sync("svc", "k", obj(3));
  clock_.run_all();

  ASSERT_EQ(batches_.size(), 1u);
  ASSERT_EQ(batches_[0].events.size(), 1u);
  EXPECT_EQ(batches_[0].commits, 3u);
  // An object the watcher has never seen stays kAdded through modifies,
  // carrying the newest payload.
  EXPECT_EQ(batches_[0].events[0].type, WatchEventType::kAdded);
  EXPECT_EQ(batches_[0].events[0].object.data->get("n")->as_int(), 3);
  EXPECT_EQ(de_.stats().watch_events_coalesced, 2u);
}

TEST_F(WatchBatchTest, DeleteAfterModifySurvivesInOrder) {
  // Satellite regression: key exists before the window; within the window
  // it is modified then deleted while another key changes in between. The
  // delete must not vanish and must stay AFTER the other key's event.
  (void)store_->put_sync("svc", "victim", obj(0));
  clock_.run_all();

  store_->watch_batch("svc", "", kWindow,
                      [this](const WatchBatch& b) { batches_.push_back(b); });
  (void)store_->put_sync("svc", "victim", obj(1));   // modify
  (void)store_->put_sync("svc", "other", obj(2));    // unrelated commit
  ASSERT_TRUE(store_->remove_sync("svc", "victim").ok());
  clock_.run_all();

  ASSERT_EQ(batches_.size(), 1u);
  const auto& events = batches_[0].events;
  ASSERT_EQ(events.size(), 2u);
  // Flush orders by each key's LATEST commit: other (commit 2) before
  // victim's delete (commit 3).
  EXPECT_EQ(events[0].object.key, "other");
  EXPECT_EQ(events[1].object.key, "victim");
  EXPECT_EQ(events[1].type, WatchEventType::kDeleted);
}

TEST_F(WatchBatchTest, DeleteThenRecreateNetsToModified) {
  (void)store_->put_sync("svc", "k", obj(1));
  clock_.run_all();
  store_->watch_batch("svc", "", kWindow,
                      [this](const WatchBatch& b) { batches_.push_back(b); });
  ASSERT_TRUE(store_->remove_sync("svc", "k").ok());
  (void)store_->put_sync("svc", "k", obj(2));
  clock_.run_all();

  ASSERT_EQ(batches_.size(), 1u);
  ASSERT_EQ(batches_[0].events.size(), 1u);
  // The object still exists with new data: a watcher that never saw the
  // intermediate delete observes one modification.
  EXPECT_EQ(batches_[0].events[0].type, WatchEventType::kModified);
  EXPECT_EQ(batches_[0].events[0].object.data->get("n")->as_int(), 2);
}

TEST_F(WatchBatchTest, ZeroWindowDeliversPerCommitBatches) {
  store_->watch_batch("svc", "", 0,
                      [this](const WatchBatch& b) { batches_.push_back(b); });
  (void)store_->put_sync("svc", "a", obj(1));
  clock_.run_all();
  (void)store_->put_sync("svc", "b", obj(2));
  clock_.run_all();

  ASSERT_EQ(batches_.size(), 2u);
  EXPECT_EQ(batches_[0].events.size(), 1u);
  EXPECT_EQ(batches_[1].events.size(), 1u);
}

TEST_F(WatchBatchTest, SeparateWindowsSeparateBatches) {
  store_->watch_batch("svc", "", kWindow,
                      [this](const WatchBatch& b) { batches_.push_back(b); });
  (void)store_->put_sync("svc", "a", obj(1));
  clock_.run_all();  // flush window 1
  (void)store_->put_sync("svc", "a", obj(2));
  clock_.run_all();  // flush window 2

  ASSERT_EQ(batches_.size(), 2u);
  EXPECT_EQ(batches_[0].events[0].type, WatchEventType::kAdded);
  EXPECT_EQ(batches_[1].events[0].type, WatchEventType::kModified);
}

TEST_F(WatchBatchTest, UnwatchDropsBufferedEvents) {
  std::uint64_t id = store_->watch_batch(
      "svc", "", kWindow,
      [this](const WatchBatch& b) { batches_.push_back(b); });
  (void)store_->put_sync("svc", "a", obj(1));
  store_->unwatch(id);
  clock_.run_all();
  EXPECT_TRUE(batches_.empty());
}

TEST_F(WatchBatchTest, PrefixFilters) {
  store_->watch_batch("svc", "order/", kWindow,
                      [this](const WatchBatch& b) { batches_.push_back(b); });
  (void)store_->put_sync("svc", "order/1", obj(1));
  (void)store_->put_sync("svc", "draft/1", obj(2));
  clock_.run_all();
  ASSERT_EQ(batches_.size(), 1u);
  ASSERT_EQ(batches_[0].events.size(), 1u);
  EXPECT_EQ(batches_[0].events[0].object.key, "order/1");
}

TEST_F(WatchBatchTest, PayloadIsSharedZeroCopy) {
  store_->watch_batch("svc", "", kWindow,
                      [this](const WatchBatch& b) { batches_.push_back(b); });
  (void)store_->put_sync("svc", "a", obj(1));
  clock_.run_all();
  ASSERT_EQ(batches_.size(), 1u);
  // Without RBAC field filtering the delivered payload aliases the stored
  // buffer — no deep copy on the batch path.
  EXPECT_EQ(batches_[0].events[0].object.data.get(),
            store_->peek("a")->data.get());
}

TEST_F(WatchBatchTest, BatchAndPerEventWatchesCoexist) {
  std::vector<WatchEvent> singles;
  store_->watch("svc", "", [&](const WatchEvent& e) { singles.push_back(e); });
  store_->watch_batch("svc", "", kWindow,
                      [this](const WatchBatch& b) { batches_.push_back(b); });
  (void)store_->put_sync("svc", "a", obj(1));
  (void)store_->put_sync("svc", "a", obj(2));
  clock_.run_all();
  EXPECT_EQ(singles.size(), 2u);  // per-event path unchanged
  ASSERT_EQ(batches_.size(), 1u);
  EXPECT_EQ(batches_[0].events.size(), 1u);
}

TEST_F(WatchBatchTest, TransactionCommitsArriveInOneBatch) {
  store_->watch_batch("svc", "", kWindow,
                      [this](const WatchBatch& b) { batches_.push_back(b); });
  std::vector<ObjectDe::TxnOp> ops;
  for (int i = 0; i < 3; ++i) {
    ObjectDe::TxnOp op;
    op.store = "things";
    op.key = "t" + std::to_string(i);
    op.data = obj(i);
    ops.push_back(std::move(op));
  }
  ASSERT_TRUE(de_.transact_sync("svc", std::move(ops)).ok());
  clock_.run_all();
  ASSERT_EQ(batches_.size(), 1u);
  EXPECT_EQ(batches_[0].events.size(), 3u);
}

// A window that opened before set_shards() must deliver exactly what the
// same workload delivers without the reshard: the pending slots move to
// the new shard layout, a later epoch coalesces into them, and the flush
// merge reproduces the single-layout order.
struct ReshardRun {
  std::vector<WatchBatch> batches;
  std::uint64_t coalesced = 0;
};

ReshardRun run_window_across_reshard(bool reshard) {
  sim::VirtualClock clock;
  ObjectDe de(clock, ObjectDeProfile::instant());
  ObjectStore& store = de.create_store("things");
  ReshardRun run;
  store.watch_batch("svc", "", kWindow,
                    [&run](const WatchBatch& b) { run.batches.push_back(b); });
  auto obj = [](int n) { return Value::object({{"n", n}}); };
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(store.put_sync("svc", "k" + std::to_string(i), obj(i)).ok());
  }
  if (reshard) de.set_shards(4);
  std::vector<EpochWrite> writes;
  writes.push_back({.key = "k2", .data = obj(20)});  // into a pending slot
  writes.push_back({.key = "k4", .remove = true});
  for (int i = 0; i < 6; ++i) {
    writes.push_back({.key = "n" + std::to_string(i), .data = obj(100 + i)});
  }
  writes.push_back({.key = "k0", .data = obj(30), .merge = true});
  for (const auto& r : store.put_epoch_sync("svc", std::move(writes))) {
    EXPECT_TRUE(r.ok());
  }
  EXPECT_TRUE(store.put_sync("svc", "n1", obj(7)).ok());  // per-op path too
  clock.run_all();
  run.coalesced = de.stats().watch_events_coalesced;
  return run;
}

TEST(WatchBatchReshard, PendingWindowSurvivesSetShards) {
  std::set<std::size_t> shards_hit;
  for (const char* key : {"k0", "k1", "k2", "k3", "k4", "k5"}) {
    shards_hit.insert(shard_of(key, 4));
  }
  ASSERT_GT(shards_hit.size(), 1u);  // the reshard really splits the window

  const ReshardRun base = run_window_across_reshard(false);
  const ReshardRun moved = run_window_across_reshard(true);
  ASSERT_EQ(base.batches.size(), 1u);
  ASSERT_EQ(moved.batches.size(), 1u);
  const WatchBatch& want = base.batches[0];
  const WatchBatch& got = moved.batches[0];
  EXPECT_EQ(want.events.size(), 12u);
  EXPECT_EQ(want.commits, 16u);
  EXPECT_EQ(base.coalesced, 4u);
  EXPECT_EQ(got.commits, want.commits);
  EXPECT_EQ(moved.coalesced, base.coalesced);
  ASSERT_EQ(got.events.size(), want.events.size());
  for (std::size_t i = 0; i < want.events.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    const WatchEvent& w = want.events[i];
    const WatchEvent& g = got.events[i];
    EXPECT_EQ(g.object.key, w.object.key);
    EXPECT_EQ(g.type, w.type);
    EXPECT_EQ(g.object.version, w.object.version);
    EXPECT_EQ(g.ctx.commit_seq, w.ctx.commit_seq);
    ASSERT_TRUE(g.object.data && w.object.data);
    EXPECT_EQ(*g.object.data, *w.object.data);
  }
}

}  // namespace
}  // namespace knactor::de
