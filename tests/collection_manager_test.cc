// Collection lifecycle (create / load / swap / delete / list) and the
// refcounted retirement protocol, including the swap-under-load hammer:
// reader threads extract through acquired engines while a writer swaps
// the collection in a loop. Readers use only the const paths
// (Aeetes::LookupString), which the engine documents as safe concurrently
// with extractions — the test must be clean under TSan (tsan preset).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/io/snapshot.h"
#include "src/server/collection_manager.h"
#include "tests/test_util.h"

namespace aeetes {
namespace server {
namespace {

const std::vector<std::string> kEntities = {
    "university of california berkeley",
    "massachusetts institute of technology",
    "eidgenossische technische hochschule zurich",
};

const std::vector<std::string> kRules = {
    "uc <=> university of california",
    "mit <=> massachusetts institute of technology",
    "eth <=> eidgenossische technische hochschule",
};

class CollectionManagerTest : public testing::Test {
 protected:
  void SetUp() override {
    snap_path_ = (std::filesystem::temp_directory_path() /
                  ("aeetes_cm_" + std::to_string(::getpid()) + ".snap"))
                     .string();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(snap_path_, ec);
  }

  /// Builds a manager with one collection "inst" and writes a snapshot
  /// of its engine to snap_path_, so Load/Swap have something to map.
  std::unique_ptr<CollectionManager> ManagerWithSnapshot() {
    auto manager = std::unique_ptr<CollectionManager>(
        new CollectionManager(CollectionManager::Options{}));
    EXPECT_TRUE(manager->Create("inst", kEntities, kRules).ok());
    auto engine = manager->Acquire("inst");
    EXPECT_TRUE(engine.ok());
    EXPECT_TRUE(SaveSnapshot(*(*engine)->aeetes, snap_path_).ok());
    return manager;
  }

  std::string snap_path_;
};

TEST_F(CollectionManagerTest, CreateAcquireListDelete) {
  CollectionManager manager{CollectionManager::Options{}};
  EXPECT_EQ(manager.size(), 0u);
  EXPECT_EQ(manager.Acquire("inst").status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(manager.Create("inst", kEntities, kRules).ok());
  EXPECT_EQ(manager.size(), 1u);
  EXPECT_EQ(manager.Create("inst", kEntities, kRules).code(),
            StatusCode::kAlreadyExists);

  auto engine = manager.Acquire("inst");
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->name, "inst");
  EXPECT_EQ((*engine)->version, 1u);
  EXPECT_EQ((*engine)->source, "build");
  ASSERT_NE((*engine)->aeetes, nullptr);
  ASSERT_NE((*engine)->extractor, nullptr);

  // The built engine actually resolves a synonym-derived mention.
  auto hits = (*engine)->aeetes->LookupString("uc berkeley", /*tau=*/0.8);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());
  EXPECT_EQ((*engine)->aeetes->EntityText(hits->front().entity),
            "university of california berkeley");

  const auto infos = manager.List();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].name, "inst");
  EXPECT_EQ(infos[0].version, 1u);

  ASSERT_TRUE(manager.Delete("inst").ok());
  EXPECT_EQ(manager.size(), 0u);
  EXPECT_EQ(manager.Delete("inst").code(), StatusCode::kNotFound);

  // The acquired engine outlives the delete (refcounted retirement).
  auto again = (*engine)->aeetes->LookupString("mit", /*tau=*/0.8);
  ASSERT_TRUE(again.ok());
  ASSERT_FALSE(again->empty());
}

TEST_F(CollectionManagerTest, LoadPublishesSnapshotEngine) {
  auto manager = ManagerWithSnapshot();
  ASSERT_TRUE(manager->Load("copy", snap_path_).ok());
  EXPECT_EQ(manager->Load("copy", snap_path_).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(manager->Load("nope", snap_path_ + ".missing").code(),
            StatusCode::kIOError);

  auto engine = manager->Acquire("copy");
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->source, snap_path_);
  auto hits = (*engine)->aeetes->LookupString("eth zurich", /*tau=*/0.8);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());
}

TEST_F(CollectionManagerTest, SwapBumpsVersionAndRetiresOldEngine) {
  auto manager = ManagerWithSnapshot();
  auto before = manager->Acquire("inst");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ((*before)->version, 1u);

  ASSERT_TRUE(manager->Swap("inst", snap_path_).ok());
  auto after = manager->Acquire("inst");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->version, 2u);
  EXPECT_EQ((*after)->source, snap_path_);
  EXPECT_NE((*before)->aeetes.get(), (*after)->aeetes.get());

  // Swapping a collection that does not exist is NotFound, and a swap
  // from a bad path leaves the published engine untouched.
  EXPECT_EQ(manager->Swap("ghost", snap_path_).code(), StatusCode::kNotFound);
  EXPECT_FALSE(manager->Swap("inst", snap_path_ + ".missing").ok());
  auto still = manager->Acquire("inst");
  ASSERT_TRUE(still.ok());
  EXPECT_EQ((*still)->version, 2u);

  // The retired v1 engine still answers for its holder.
  auto hits = (*before)->aeetes->LookupString("uc berkeley", /*tau=*/0.8);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());
}

TEST_F(CollectionManagerTest, MaxCollectionsBoundsCreateAndLoad) {
  CollectionManager::Options options;
  options.max_collections = 1;
  CollectionManager manager{options};
  ASSERT_TRUE(manager.Create("a", kEntities, kRules).ok());
  EXPECT_EQ(manager.Create("b", kEntities, kRules).code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(manager.Delete("a").ok());
  EXPECT_TRUE(manager.Create("b", kEntities, kRules).ok());
}

TEST_F(CollectionManagerTest, GaugeTracksLiveCollections) {
  MetricsRegistry registry;
  Gauge& gauge = registry.GetOrRegisterGauge("server.active_collections",
                                             "live collections");
  CollectionManager manager{CollectionManager::Options{}, &gauge};
  ASSERT_TRUE(manager.Create("a", kEntities, kRules).ok());
  ASSERT_TRUE(manager.Create("b", kEntities, kRules).ok());
  EXPECT_EQ(gauge.value(), 2);
  ASSERT_TRUE(manager.Delete("a").ok());
  EXPECT_EQ(gauge.value(), 1);
}

/// The ISSUE 8 swap-under-load hammer. Readers continuously acquire the
/// live engine and run const-path lookups (a real filter+verify pass over
/// the index) while a writer swaps the collection from a snapshot in a
/// tight loop. Every reader asserts semantic correctness — a torn engine
/// would misresolve or crash — and the whole dance must be TSan-clean.
TEST_F(CollectionManagerTest, SwapUnderLoadHammer) {
  auto manager = ManagerWithSnapshot();

  constexpr int kReaders = 4;
  constexpr int kSwaps = 25;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> lookups{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&manager, &stop, &lookups] {
      while (!stop.load(std::memory_order_acquire)) {
        auto engine = manager->Acquire("inst");
        ASSERT_TRUE(engine.ok()) << engine.status();
        // The acquired shared_ptr pins this engine version even if the
        // writer swaps it out mid-lookup.
        auto hits =
            (*engine)->aeetes->LookupString("uc berkeley", /*tau=*/0.8);
        ASSERT_TRUE(hits.ok()) << hits.status();
        ASSERT_FALSE(hits->empty());
        EXPECT_DOUBLE_EQ(hits->front().score, 1.0);
        EXPECT_EQ((*engine)->aeetes->EntityText(hits->front().entity),
                  "university of california berkeley");
        lookups.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int s = 0; s < kSwaps; ++s) {
    ASSERT_TRUE(manager->Swap("inst", snap_path_).ok());
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  auto final_engine = manager->Acquire("inst");
  ASSERT_TRUE(final_engine.ok());
  EXPECT_EQ((*final_engine)->version, 1u + kSwaps);
  EXPECT_GT(lookups.load(), 0u);
}

/// Extraction helper running the full online path (not LookupString), so
/// the delta overlay participates. Safe concurrently with anything: the
/// text may carry tokens the engine has never seen.
std::vector<std::string> ExtractTexts(const ServingEngine& engine,
                                      const std::string& text, double tau) {
  const Document doc = engine.aeetes->EncodeDocument(text);
  auto result = engine.aeetes->Extract(doc, tau);
  EXPECT_TRUE(result.ok()) << result.status();
  std::vector<std::string> texts;
  if (!result.ok()) return texts;
  for (const Match& m : result->matches) {
    texts.push_back(engine.aeetes->EntityText(m.entity));
  }
  std::sort(texts.begin(), texts.end());
  return texts;
}

bool Contains(const std::vector<std::string>& texts, const std::string& t) {
  return std::find(texts.begin(), texts.end(), t) != texts.end();
}

/// Polls until "inst" publishes `version` (compactions are async).
testing::AssertionResult WaitForVersion(CollectionManager& manager,
                                        const std::string& name,
                                        uint64_t version) {
  for (int i = 0; i < 500; ++i) {
    auto engine = manager.Acquire(name);
    if (engine.ok() && (*engine)->version >= version) {
      return testing::AssertionSuccess();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return testing::AssertionFailure()
         << name << " never reached version " << version;
}

TEST_F(CollectionManagerTest, UpsertAndRemoveAreImmediatelyVisible) {
  CollectionManager manager{CollectionManager::Options{}};
  ASSERT_TRUE(manager.Create("inst", kEntities, kRules).ok());

  EXPECT_EQ(manager.UpsertEntities("ghost", {"x"}).status().code(),
            StatusCode::kNotFound);

  auto upserted = manager.UpsertEntities(
      "inst", {"stanford university", "carnegie mellon university"});
  ASSERT_TRUE(upserted.ok()) << upserted.status();
  EXPECT_EQ(*upserted, 2u);

  auto engine = manager.Acquire("inst");
  ASSERT_TRUE(engine.ok());
  const auto hits = ExtractTexts(
      **engine, "she left stanford university for mit", /*tau=*/0.9);
  EXPECT_TRUE(Contains(hits, "stanford university"));
  EXPECT_TRUE(Contains(hits, "massachusetts institute of technology"));

  auto removed = manager.RemoveEntities(
      "inst", {"massachusetts institute of technology"});
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1u);
  const auto after = ExtractTexts(
      **engine, "she left stanford university for mit", /*tau=*/0.9);
  EXPECT_TRUE(Contains(after, "stanford university"));
  EXPECT_FALSE(Contains(after, "massachusetts institute of technology"));

  const auto infos = manager.List();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].delta_entities, 2u);
  EXPECT_EQ(infos[0].tombstones, 1u);
}

TEST_F(CollectionManagerTest, CompactionSwapsInCompactedEngine) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("aeetes_cm_compact_" + std::to_string(::getpid())))
                        .string();
  std::filesystem::create_directories(dir);
  MetricsRegistry registry;
  Gauge& delta_gauge = registry.GetOrRegisterGauge(
      "collection.delta_entities", "live delta entities");
  Counter& compactions = registry.GetOrRegisterCounter(
      "collection.compactions", "completed compactions");
  CollectionManager::Options options;
  options.snapshot_dir = dir;
  {
    CollectionManager manager{options, nullptr, &delta_gauge, &compactions};
    ASSERT_TRUE(manager.Create("inst", kEntities, kRules).ok());
    ASSERT_TRUE(manager.UpsertEntities("inst", {"stanford university"}).ok());
    ASSERT_TRUE(
        manager
            .RemoveEntities("inst",
                            {"eidgenossische technische hochschule zurich"})
            .ok());
    EXPECT_EQ(delta_gauge.value(), 1);

    EXPECT_EQ(manager.Compact("ghost").status().code(), StatusCode::kNotFound);
    auto target = manager.Compact("inst");
    ASSERT_TRUE(target.ok()) << target.status();
    EXPECT_EQ(*target, 2u);
    ASSERT_TRUE(WaitForVersion(manager, "inst", 2));

    auto engine = manager.Acquire("inst");
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ((*engine)->version, 2u);
    // The compacted image carries the upsert as a frozen origin and the
    // tombstoned origin is gone for good; the successor overlay is empty.
    const auto infos = manager.List();
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_EQ(infos[0].delta_entities, 0u);
    EXPECT_EQ(infos[0].tombstones, 0u);
    EXPECT_EQ(delta_gauge.value(), 0);
    EXPECT_EQ(compactions.value(), 1u);
    const auto hits = ExtractTexts(
        **engine, "uc berkeley hosts stanford university and eth zurich",
        /*tau=*/0.8);
    EXPECT_TRUE(Contains(hits, "university of california berkeley"));
    EXPECT_TRUE(Contains(hits, "stanford university"));
    EXPECT_FALSE(
        Contains(hits, "eidgenossische technische hochschule zurich"));

    // The versioned snapshot is the rollback point: a fresh collection
    // loaded from it serves the compacted state.
    const std::string snap = dir + "/inst.v2.snap";
    EXPECT_TRUE(std::filesystem::exists(snap));
    EXPECT_EQ((*engine)->source, snap);
    ASSERT_TRUE(manager.Load("rollback", snap).ok());
    auto rollback = manager.Acquire("rollback");
    ASSERT_TRUE(rollback.ok());
    EXPECT_TRUE(Contains(
        ExtractTexts(**rollback, "stanford university", /*tau=*/0.9),
        "stanford university"));
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

/// Snapshot-loaded collections keep their synonym rules: the rule lines
/// live in the engine image, so a collection loaded (or swapped) from a
/// compacted snapshot expands upserts exactly as the collection that wrote
/// it. ("a.v2.snap" is collection version 2, not image format 2.)
TEST_F(CollectionManagerTest, SnapshotLoadedCollectionKeepsRules) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("aeetes_cm_rules_" + std::to_string(::getpid())))
                        .string();
  std::filesystem::create_directories(dir);
  CollectionManager::Options options;
  options.snapshot_dir = dir;
  {
    CollectionManager manager{options};
    ASSERT_TRUE(manager.Create("a", kEntities, kRules).ok());
    ASSERT_TRUE(manager.Compact("a").ok());
    ASSERT_TRUE(WaitForVersion(manager, "a", 2));
    const std::string snap = dir + "/a.v2.snap";
    ASSERT_TRUE(manager.Load("b", snap).ok());
    // Swap replaces an engine built without rules by the same snapshot.
    ASSERT_TRUE(manager.Create("c", kEntities, {}).ok());
    ASSERT_TRUE(manager.Swap("c", snap).ok());

    const std::string text = "massachusetts institute of technology media lab";
    std::vector<std::vector<std::string>> hits;
    for (const char* name : {"a", "b", "c"}) {
      ASSERT_TRUE(manager.UpsertEntities(name, {"mit media lab"}).ok());
      auto engine = manager.Acquire(name);
      ASSERT_TRUE(engine.ok());
      hits.push_back(ExtractTexts(**engine, text, /*tau=*/0.8));
    }
    EXPECT_TRUE(Contains(hits[0], "mit media lab"));
    EXPECT_EQ(hits[1], hits[0]) << "loaded collection lost its rules";
    EXPECT_EQ(hits[2], hits[0]) << "swapped collection lost its rules";
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

/// The §15 live-update hammer: extractor threads run the full online path
/// (frozen + delta merge) against acquired engines while a writer churns
/// upserts/removals through the manager and a compaction swaps the image
/// out from under everyone. The always-live berkeley entity must match on
/// every single extraction, and the dance must be TSan-clean (tsan
/// preset). Every document carries tokens no engine has seen, and the
/// writer's delta entity is made only of tokens the frozen image lacks.
TEST_F(CollectionManagerTest, LiveUpdateCompactionHammer) {
  CollectionManager manager{CollectionManager::Options{}};
  ASSERT_TRUE(manager.Create("inst", kEntities, kRules).ok());

  const std::string doc_text =
      "uc berkeley of university of california berkeley technology zurich "
      "caltech polytechnic pasadena";
  const std::string fresh_entity = "caltech polytechnic pasadena";
  constexpr int kExtractors = 3;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> extractions{0};
  std::vector<std::thread> threads;
  threads.reserve(kExtractors + 1);
  for (int r = 0; r < kExtractors; ++r) {
    threads.emplace_back([&, r] {
      uint64_t n = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto engine = manager.Acquire("inst");
        ASSERT_TRUE(engine.ok()) << engine.status();
        std::string text = doc_text;
        text += testutil::NumberedName(" unseen", static_cast<size_t>(r));
        text += testutil::NumberedName("x", n++);
        const auto hits = ExtractTexts(**engine, text, /*tau=*/0.9);
        EXPECT_TRUE(Contains(hits, "university of california berkeley"));
        extractions.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  threads.emplace_back([&] {
    // Writer: churn a delta entity and a frozen tombstone. Never touches
    // berkeley, so the extractor invariant holds through every state.
    int i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const bool tombstone = (i & 2) != 0;
      if ((i & 1) == 0) {
        ASSERT_TRUE(manager.UpsertEntities("inst", {fresh_entity}).ok());
        if (tombstone) {
          ASSERT_TRUE(
              manager
                  .RemoveEntities(
                      "inst", {"massachusetts institute of technology"})
                  .ok());
        }
      } else {
        ASSERT_TRUE(manager.RemoveEntities("inst", {fresh_entity}).ok());
        ASSERT_TRUE(
            manager
                .UpsertEntities("inst",
                                {"massachusetts institute of technology"})
                .ok());
      }
      ++i;
    }
  });

  auto target = manager.Compact("inst");
  ASSERT_TRUE(target.ok()) << target.status();
  EXPECT_TRUE(WaitForVersion(manager, "inst", *target));

  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  EXPECT_GT(extractions.load(), 0u);

  // Post-quiesce sanity: berkeley still resolves on the compacted engine,
  // and an upserted entity of tokens the image may lack matches a document
  // in which those tokens are unseen ones.
  auto engine = manager.Acquire("inst");
  ASSERT_TRUE(engine.ok());
  EXPECT_GE((*engine)->version, 2u);
  EXPECT_TRUE(Contains(ExtractTexts(**engine, doc_text, /*tau=*/0.9),
                       "university of california berkeley"));
  ASSERT_TRUE(manager.UpsertEntities("inst", {fresh_entity}).ok());
  engine = manager.Acquire("inst");
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(Contains(
      ExtractTexts(**engine, doc_text + " unseen tail", /*tau=*/0.9),
      fresh_entity));
}

}  // namespace
}  // namespace server
}  // namespace aeetes
