// Directed tests for the mutable delta overlay (DESIGN.md §15): upserts
// become extractable immediately, removals tombstone frozen origins,
// re-upserts un-tombstone, rules apply to delta entities, effective
// entity-size bounds track the live set, and compaction packs an engine
// whose results match the overlay view. The randomized cross-path
// equivalence suite lives in delta_property_test.cc.
#include "src/core/delta_layer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/core/aeetes.h"
#include "src/core/engine_image.h"

namespace aeetes {
namespace {

/// One extraction hit, keyed portably across engines whose EntityIds
/// differ (frozen+delta vs rebuilt vs compacted numberings).
struct Hit {
  std::string entity;
  uint32_t begin = 0;
  uint32_t len = 0;
  double score = 0.0;

  bool operator==(const Hit& o) const {
    return entity == o.entity && begin == o.begin && len == o.len &&
           score == o.score;  // exact: both sides compute identical doubles
  }
  bool operator<(const Hit& o) const {
    if (begin != o.begin) return begin < o.begin;
    if (len != o.len) return len < o.len;
    if (entity != o.entity) return entity < o.entity;
    return score < o.score;
  }
};

std::ostream& operator<<(std::ostream& os, const Hit& h) {
  return os << "{'" << h.entity << "' @" << h.begin << "+" << h.len << " s="
            << h.score << "}";
}

std::vector<Hit> HitsOf(Aeetes& engine, const std::string& text, double tau,
                        FilterStrategy strategy = FilterStrategy::kLazy) {
  const Document doc = engine.EncodeDocument(text);
  auto result = engine.ExtractWithStrategy(doc, tau, strategy);
  EXPECT_TRUE(result.ok()) << result.status();
  std::vector<Hit> hits;
  if (!result.ok()) return hits;
  for (const Match& m : result->matches) {
    hits.push_back(Hit{engine.EntityText(m.entity), m.token_begin,
                       m.token_len, m.score});
  }
  std::sort(hits.begin(), hits.end());
  return hits;
}

std::unique_ptr<Aeetes> BuildEngine(const std::vector<std::string>& entities,
                                    const std::vector<std::string>& rules) {
  auto built = Aeetes::BuildFromText(entities, rules);
  EXPECT_TRUE(built.ok()) << built.status();
  return std::move(*built);
}

std::shared_ptr<DeltaLayer> Attach(Aeetes& engine,
                                   std::vector<std::string> rule_lines) {
  DeltaLayer::Options options;
  options.derivation = engine.options().derivation;
  options.tokenizer = engine.options().tokenizer;
  auto layer = DeltaLayer::Create(engine.derived_dictionary(),
                                  std::move(rule_lines), options);
  EXPECT_TRUE(layer.ok()) << layer.status();
  engine.AttachDelta(*layer);
  return *layer;
}

class DeltaLayerTest : public testing::Test {
 protected:
  void SetUp() override {
    entities_ = {"purdue university", "uq au", "acme corp"};
    rules_ = {"uq <=> university of queensland", "au <=> australia"};
    engine_ = BuildEngine(entities_, rules_);
    delta_ = Attach(*engine_, rules_);
  }

  std::vector<std::string> entities_;
  std::vector<std::string> rules_;
  std::unique_ptr<Aeetes> engine_;
  std::shared_ptr<DeltaLayer> delta_;
};

TEST_F(DeltaLayerTest, EmptyOverlayIsPassthrough) {
  EXPECT_TRUE(delta_->snapshot()->passthrough());
  const auto hits = HitsOf(*engine_, "visiting acme corp today", 0.9);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].entity, "acme corp");
}

TEST_F(DeltaLayerTest, UpsertIsImmediatelyExtractable) {
  const std::string doc = "met the globex industries team at acme corp";
  EXPECT_TRUE(HitsOf(*engine_, doc, 0.9).size() == 1u);  // frozen hit only

  auto upserted = delta_->UpsertEntities({"globex industries"});
  ASSERT_TRUE(upserted.ok()) << upserted.status();
  EXPECT_EQ(*upserted, 1u);
  EXPECT_EQ(delta_->live_entities(), 1u);

  const auto hits = HitsOf(*engine_, doc, 0.9);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].entity, "globex industries");
  EXPECT_EQ(hits[0].len, 2u);
  EXPECT_DOUBLE_EQ(hits[0].score, 1.0);
  EXPECT_EQ(hits[1].entity, "acme corp");
}

TEST_F(DeltaLayerTest, DeltaEntityIdsAreDisjointFromFrozenAndResolve) {
  ASSERT_TRUE(delta_->UpsertEntities({"globex industries"}).ok());
  const Document doc = engine_->EncodeDocument("globex industries");
  auto result = engine_->Extract(doc, 0.9);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->matches.size(), 1u);
  const EntityId id = result->matches[0].entity;
  EXPECT_GE(id, engine_->derived_dictionary().num_origins());
  EXPECT_TRUE(delta_->OwnsEntity(id));
  EXPECT_EQ(engine_->EntityText(id), "globex industries");
}

TEST_F(DeltaLayerTest, RemoveTombstonesFrozenEntity) {
  const std::string doc = "acme corp sued purdue university";
  EXPECT_EQ(HitsOf(*engine_, doc, 0.9).size(), 2u);

  auto removed = delta_->RemoveEntities({"acme corp"});
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1u);
  EXPECT_EQ(delta_->tombstone_count(), 1u);

  const auto hits = HitsOf(*engine_, doc, 0.9);
  ASSERT_EQ(hits.size(), 1u);  // the tombstoned origin no longer matches
  EXPECT_EQ(hits[0].entity, "purdue university");
}

TEST_F(DeltaLayerTest, UpsertUnTombstonesFrozenEntity) {
  ASSERT_TRUE(delta_->RemoveEntities({"uq au"}).ok());
  EXPECT_TRUE(HitsOf(*engine_, "uq au", 0.9).empty());

  auto upserted = delta_->UpsertEntities({"uq au"});
  ASSERT_TRUE(upserted.ok());
  EXPECT_EQ(*upserted, 1u);
  EXPECT_EQ(delta_->tombstone_count(), 0u);
  EXPECT_EQ(delta_->live_entities(), 0u);  // frozen origin, not a delta slot

  // The frozen expansion (built under the image's rules) is back in full:
  // the synonym-rewritten surface still matches.
  const auto hits = HitsOf(*engine_, "university of queensland australia",
                           0.9);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].entity, "uq au");
  EXPECT_DOUBLE_EQ(hits[0].score, 1.0);
}

TEST_F(DeltaLayerTest, UpsertOfLiveFrozenEntityIsNoOp) {
  auto upserted = delta_->UpsertEntities({"acme corp"});
  ASSERT_TRUE(upserted.ok());
  EXPECT_EQ(*upserted, 0u);
  EXPECT_TRUE(delta_->snapshot()->passthrough());
}

TEST_F(DeltaLayerTest, RemoveUnknownEntityIsIgnored) {
  auto removed = delta_->RemoveEntities({"never seen"});
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 0u);
}

TEST_F(DeltaLayerTest, RemovedDeltaEntityStopsMatchingButTextResolves) {
  ASSERT_TRUE(delta_->UpsertEntities({"globex industries"}).ok());
  const Document doc = engine_->EncodeDocument("globex industries");
  auto before = engine_->Extract(doc, 0.9);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->matches.size(), 1u);
  const EntityId id = before->matches[0].entity;

  ASSERT_TRUE(delta_->RemoveEntities({"globex industries"}).ok());
  auto after = engine_->Extract(doc, 0.9);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->matches.empty());
  // Ids are never reused, so a racing response can still name the entity.
  EXPECT_EQ(delta_->EntityText(id), "globex industries");
}

TEST_F(DeltaLayerTest, ReUpsertAfterRemoveKeepsEntityId) {
  ASSERT_TRUE(delta_->UpsertEntities({"globex industries"}).ok());
  const Document doc = engine_->EncodeDocument("globex industries");
  auto first = engine_->Extract(doc, 0.9);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->matches.size(), 1u);
  const EntityId id = first->matches[0].entity;

  ASSERT_TRUE(delta_->RemoveEntities({"globex industries"}).ok());
  ASSERT_TRUE(delta_->UpsertEntities({"globex industries"}).ok());
  auto second = engine_->Extract(doc, 0.9);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->matches.size(), 1u);
  EXPECT_EQ(second->matches[0].entity, id);
}

TEST_F(DeltaLayerTest, DeltaEntityExpandsUnderLayerRules) {
  // "uq" only appears in the delta entity via the layer's rules.
  ASSERT_TRUE(delta_->UpsertEntities({"uq press"}).ok());
  const auto hits =
      HitsOf(*engine_, "the university of queensland press released it", 0.9);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].entity, "uq press");
  EXPECT_EQ(hits[0].len, 4u);  // "university of queensland press"
  EXPECT_DOUBLE_EQ(hits[0].score, 1.0);
}

TEST_F(DeltaLayerTest, UpsertRulesReExpandsDeltaEntities) {
  ASSERT_TRUE(delta_->UpsertEntities({"tx hq"}).ok());
  EXPECT_TRUE(HitsOf(*engine_, "the texas headquarters", 0.9).empty());

  auto added = delta_->UpsertRules(
      {"tx <=> texas", "hq <=> headquarters"});
  ASSERT_TRUE(added.ok());
  const auto hits = HitsOf(*engine_, "the texas headquarters", 0.9);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].entity, "tx hq");
  EXPECT_DOUBLE_EQ(hits[0].score, 1.0);
}

TEST_F(DeltaLayerTest, OutOfVocabularyDeltaTokensMatch) {
  // Neither token exists in the frozen dictionary; the document gives them
  // per-document ids and keeps their text, and the overlay bridges by text.
  ASSERT_TRUE(delta_->UpsertEntities({"zyzzyva xylophone"}).ok());
  const auto hits = HitsOf(*engine_, "a zyzzyva xylophone appeared", 0.9);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].entity, "zyzzyva xylophone");
}

TEST_F(DeltaLayerTest, DeltaEntityLongerThanFrozenMaxIsFound) {
  // The frozen dictionary's widest derived set is smaller than this
  // 5-token upsert; without the effective-bounds override the window
  // enumeration would never produce a 5-token window.
  const std::string text = "one two three four five";
  ASSERT_TRUE(delta_->UpsertEntities({text}).ok());
  const auto snap = delta_->snapshot();
  EXPECT_EQ(snap->entity_size_max(), 5u);
  for (FilterStrategy s :
       {FilterStrategy::kSimple, FilterStrategy::kSkip,
        FilterStrategy::kDynamic, FilterStrategy::kLazy}) {
    const auto hits = HitsOf(*engine_, "zero one two three four five six",
                             0.95, s);
    ASSERT_EQ(hits.size(), 1u) << FilterStrategyName(s);
    EXPECT_EQ(hits[0].entity, text);
    EXPECT_EQ(hits[0].len, 5u);
  }
}

TEST_F(DeltaLayerTest, RemovingEveryEntityYieldsNoMatches) {
  ASSERT_TRUE(delta_->UpsertEntities({"globex industries"}).ok());
  ASSERT_TRUE(delta_
                  ->RemoveEntities({"purdue university", "uq au", "acme corp",
                                    "globex industries"})
                  .ok());
  EXPECT_FALSE(delta_->snapshot()->has_live_entities());
  EXPECT_TRUE(
      HitsOf(*engine_, "acme corp globex industries purdue university", 0.5)
          .empty());
}

TEST_F(DeltaLayerTest, TombstoningUniqueLargestEntityShrinksBounds) {
  // "purdue university" (2 tokens) and "acme corp" (2) remain after
  // removing "uq au" — whose rule expansion ("university of queensland
  // australia") is the unique widest derived form.
  const size_t before = delta_->snapshot()->entity_size_max();
  ASSERT_TRUE(delta_->RemoveEntities({"uq au"}).ok());
  const auto snap = delta_->snapshot();
  EXPECT_LT(snap->entity_size_max(), before);
  // The survivors still match under the tightened bounds.
  const auto hits = HitsOf(*engine_, "acme corp and purdue university", 0.9);
  EXPECT_EQ(hits.size(), 2u);
}

TEST_F(DeltaLayerTest, MutationLogReplayReproducesState) {
  ASSERT_TRUE(delta_->UpsertEntities({"globex industries"}).ok());
  ASSERT_TRUE(delta_->RemoveEntities({"acme corp"}).ok());
  ASSERT_TRUE(delta_->UpsertRules({"gx <=> globex"}).ok());
  ASSERT_TRUE(delta_->UpsertEntities({"gx tower"}).ok());

  auto replayed = DeltaLayer::Create(engine_->derived_dictionary(), rules_,
                                     DeltaLayer::Options{
                                         engine_->options().derivation,
                                         engine_->options().tokenizer});
  ASSERT_TRUE(replayed.ok());
  ASSERT_TRUE((*replayed)->Replay(delta_->MutationsSince(0)).ok());

  EXPECT_EQ((*replayed)->live_entities(), delta_->live_entities());
  EXPECT_EQ((*replayed)->tombstone_count(), delta_->tombstone_count());
  EXPECT_EQ((*replayed)->rule_lines(), delta_->rule_lines());
  EXPECT_EQ((*replayed)->generation(), delta_->generation());

  // Swapping in the replayed layer yields identical extractions.
  const std::string doc = "globex tower by acme corp near purdue university";
  const auto want = HitsOf(*engine_, doc, 0.8);
  engine_->AttachDelta(*replayed);
  EXPECT_EQ(HitsOf(*engine_, doc, 0.8), want);
}

TEST_F(DeltaLayerTest, MutationsSinceReturnsOnlyTheTail) {
  ASSERT_TRUE(delta_->UpsertEntities({"globex industries"}).ok());
  const uint64_t mark = delta_->generation();
  ASSERT_TRUE(delta_->RemoveEntities({"acme corp"}).ok());
  const auto tail = delta_->MutationsSince(mark);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].kind, DeltaMutation::Kind::kRemove);
  EXPECT_EQ(tail[0].text, "acme corp");
}

TEST_F(DeltaLayerTest, CompactedEngineMatchesOverlayView) {
  ASSERT_TRUE(delta_->UpsertEntities({"globex industries", "uq press"}).ok());
  ASSERT_TRUE(delta_->RemoveEntities({"acme corp"}).ok());

  auto parts = BuildCompactedParts(engine_->derived_dictionary(),
                                   *delta_->snapshot());
  ASSERT_TRUE(parts.ok()) << parts.status();
  auto image = EngineImage::Pack(std::move(*parts));
  ASSERT_TRUE(image.ok()) << image.status();
  auto compacted = Aeetes::FromImage(std::move(*image), engine_->options());
  ASSERT_TRUE(compacted.ok()) << compacted.status();

  const std::string doc =
      "globex industries acquired acme corp and the university of "
      "queensland press with purdue university";
  for (double tau : {0.6, 0.8, 1.0}) {
    EXPECT_EQ(HitsOf(**compacted, doc, tau), HitsOf(*engine_, doc, tau))
        << "tau=" << tau;
  }
}

TEST_F(DeltaLayerTest, CompactingEverythingAwayFails) {
  ASSERT_TRUE(
      delta_->RemoveEntities({"purdue university", "uq au", "acme corp"})
          .ok());
  auto parts = BuildCompactedParts(engine_->derived_dictionary(),
                                   *delta_->snapshot());
  EXPECT_FALSE(parts.ok());
}

TEST_F(DeltaLayerTest, EmptyEntityTextRejected) {
  EXPECT_FALSE(delta_->UpsertEntities({"   "}).ok());
}

}  // namespace
}  // namespace aeetes
