#include "src/runtime/parallel_extractor.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/datagen/generator.h"
#include "src/datagen/profile.h"
#include "src/sim/similarity.h"
#include "tests/test_util.h"

namespace aeetes {
namespace {

/// Match::operator== ignores score/witness; byte-identical comparison
/// must not.
bool SameMatch(const Match& a, const Match& b) {
  return a.token_begin == b.token_begin && a.token_len == b.token_len &&
         a.entity == b.entity && a.score == b.score &&
         a.best_derived == b.best_derived;
}

void ExpectSameMatches(const std::vector<Match>& got,
                       const std::vector<Match>& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(SameMatch(got[i], want[i]))
        << context << " match " << i << ": got (" << got[i].token_begin
        << "," << got[i].token_len << "," << got[i].entity << ","
        << got[i].score << ") want (" << want[i].token_begin << ","
        << want[i].token_len << "," << want[i].entity << ","
        << want[i].score << ")";
  }
}

bool SameFilterStats(const FilterStats& a, const FilterStats& b) {
  return a.windows == b.windows && a.substrings == b.substrings &&
         a.prefix_rebuilds == b.prefix_rebuilds &&
         a.prefix_updates == b.prefix_updates &&
         a.entries_accessed == b.entries_accessed &&
         a.length_groups_skipped == b.length_groups_skipped &&
         a.origin_groups_skipped == b.origin_groups_skipped &&
         a.candidates == b.candidates &&
         a.positional_pruned == b.positional_pruned &&
         a.registrations == b.registrations;
}

class ParallelExtractorTest : public testing::Test {
 protected:
  void SetUp() override {
    DatasetProfile profile = PubMedLikeProfile();
    profile.num_entities = 150;
    profile.num_documents = 14;
    profile.num_rules = 60;
    profile.doc_len = 90;
    ds_ = GenerateDataset(profile);
    auto built = Aeetes::BuildFromText(ds_.entity_texts, ds_.rule_lines);
    ASSERT_TRUE(built.ok()) << built.status();
    aeetes_ = std::move(*built);
    for (const std::string& text : ds_.documents) {
      encoded_.push_back(aeetes_->EncodeDocument(text));
    }
  }

  SyntheticDataset ds_;
  std::unique_ptr<Aeetes> aeetes_;
  std::vector<Document> encoded_;
};

TEST_F(ParallelExtractorTest, MatchesSequentialLoopForEveryStrategy) {
  const FilterStrategy strategies[] = {
      FilterStrategy::kSimple, FilterStrategy::kSkip,
      FilterStrategy::kDynamic, FilterStrategy::kLazy};
  const double tau = 0.8;
  for (FilterStrategy strategy : strategies) {
    // Sequential reference: per-document results and aggregate stats.
    std::vector<Aeetes::ExtractionResult> serial;
    FilterStats serial_filter;
    VerifyStats serial_verify;
    uint64_t serial_matches = 0;
    for (const Document& doc : encoded_) {
      auto r = aeetes_->ExtractWithStrategy(doc, tau, strategy);
      ASSERT_TRUE(r.ok());
      serial_filter += r->filter_stats;
      serial_verify += r->verify_stats;
      serial_matches += r->matches.size();
      serial.push_back(std::move(*r));
    }

    for (size_t threads : {1u, 2u, 4u, 8u}) {
      const std::string context = std::string(FilterStrategyName(strategy)) +
                                  " threads=" + std::to_string(threads);
      ParallelExtractorOptions opts;
      opts.num_threads = threads;
      auto extractor = ParallelExtractor::Create(*aeetes_, opts);
      ASSERT_TRUE(extractor.ok()) << context;
      auto result =
          (*extractor)->ExtractAllWithStrategy(encoded_, tau, strategy);
      ASSERT_TRUE(result.ok()) << context;
      ASSERT_EQ(result->per_document.size(), encoded_.size()) << context;
      for (size_t d = 0; d < encoded_.size(); ++d) {
        const DocumentExtraction& de = result->per_document[d];
        EXPECT_EQ(de.doc, d) << context;
        EXPECT_EQ(de.chunks, 1u) << context;
        ExpectSameMatches(de.matches, serial[d].matches,
                          context + " doc=" + std::to_string(d));
        EXPECT_TRUE(SameFilterStats(de.filter_stats, serial[d].filter_stats))
            << context;
        EXPECT_EQ(de.verify_stats.verified, serial[d].verify_stats.verified)
            << context;
      }
      EXPECT_TRUE(SameFilterStats(result->filter_stats, serial_filter))
          << context;
      EXPECT_EQ(result->verify_stats.verified, serial_verify.verified)
          << context;
      EXPECT_EQ(result->verify_stats.matched, serial_verify.matched)
          << context;
      EXPECT_EQ(result->total_matches, serial_matches) << context;
    }
  }
}

TEST_F(ParallelExtractorTest, ExtractorIsReusableAndDeterministic) {
  ParallelExtractorOptions opts;
  opts.num_threads = 4;
  opts.queue_capacity = 4;  // force Submit-side backpressure
  auto extractor = ParallelExtractor::Create(*aeetes_, opts);
  ASSERT_TRUE(extractor.ok());
  auto first = (*extractor)->ExtractAll(encoded_, 0.8);
  ASSERT_TRUE(first.ok());
  auto second = (*extractor)->ExtractAll(encoded_, 0.8);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->per_document.size(), second->per_document.size());
  for (size_t d = 0; d < first->per_document.size(); ++d) {
    ExpectSameMatches(second->per_document[d].matches,
                      first->per_document[d].matches,
                      "doc=" + std::to_string(d));
  }
  EXPECT_EQ(first->total_matches, second->total_matches);
}

TEST_F(ParallelExtractorTest, PublishesRuntimeGaugesAfterEveryRun) {
  ParallelExtractorOptions opts;
  opts.num_threads = 2;
  auto extractor = ParallelExtractor::Create(*aeetes_, opts);
  ASSERT_TRUE(extractor.ok());
  auto result = (*extractor)->ExtractAll(encoded_, 0.8);
  ASSERT_TRUE(result.ok());

  // ExtractAll publishes the pool snapshot into the engine registry.
  const MetricsRegistry& registry = aeetes_->metrics();
  const Gauge* submitted = registry.FindGauge("runtime.pool.submitted");
  const Gauge* executed = registry.FindGauge("runtime.pool.executed");
  ASSERT_NE(submitted, nullptr);
  ASSERT_NE(executed, nullptr);
  EXPECT_EQ(submitted->value(),
            static_cast<int64_t>(encoded_.size()));  // one task per doc
  EXPECT_EQ(executed->value(), submitted->value());
  EXPECT_NE(registry.FindGauge("runtime.pool.threads"), nullptr);
  EXPECT_NE(registry.FindGauge("runtime.worker.0.busy_ppm"), nullptr);
  EXPECT_NE(registry.FindGauge("runtime.worker.1.busy_ppm"), nullptr);

  // PoolStats mirrors the gauges.
  const ThreadPool::Stats stats = (*extractor)->PoolStats();
  EXPECT_EQ(static_cast<int64_t>(stats.submitted), submitted->value());

  // A second run refreshes the same gauges in place.
  ASSERT_TRUE((*extractor)->ExtractAll(encoded_, 0.8).ok());
  EXPECT_EQ(submitted->value(),
            static_cast<int64_t>(2 * encoded_.size()));
}

TEST_F(ParallelExtractorTest, CollectsOneTracePerWorker) {
  ParallelExtractorOptions opts;
  opts.num_threads = 3;
  opts.collect_traces = true;
  auto extractor = ParallelExtractor::Create(*aeetes_, opts);
  ASSERT_TRUE(extractor.ok());
  auto result = (*extractor)->ExtractAll(encoded_, 0.8);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->worker_traces.size(), 3u);
  size_t spans = 0;
  for (const TraceRecorder& tr : result->worker_traces) {
    spans += tr.spans().size();
  }
  EXPECT_GT(spans, 0u);
}

TEST_F(ParallelExtractorTest, EmptyCorpusAndBadThreshold) {
  auto extractor = ParallelExtractor::Create(*aeetes_, {});
  ASSERT_TRUE(extractor.ok());
  auto empty = (*extractor)->ExtractAll({}, 0.8);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->per_document.empty());
  EXPECT_EQ(empty->total_matches, 0u);
  EXPECT_FALSE((*extractor)->ExtractAll(encoded_, 0.0).ok());
  EXPECT_FALSE((*extractor)->ExtractAll(encoded_, 1.5).ok());
}

class ChunkingTest : public ParallelExtractorTest {
 protected:
  size_t MaxWindow(double tau) const {
    const DerivedDictionary& dd = aeetes_->derived_dictionary();
    return SubstringLengthBounds(aeetes_->options().metric,
                                 dd.min_set_size(), dd.max_set_size(), tau)
        .hi;
  }
};

TEST_F(ChunkingTest, LayoutCoversDocumentWithExactOverlap) {
  const double tau = 0.8;
  const size_t max_window = MaxWindow(tau);
  ASSERT_GT(max_window, 0u);
  const size_t limit = max_window + 3;
  ParallelExtractorOptions opts;
  opts.num_threads = 1;
  opts.max_document_tokens = limit;
  auto extractor = ParallelExtractor::Create(*aeetes_, opts);
  ASSERT_TRUE(extractor.ok());

  for (size_t n : {size_t{0}, limit - 1, limit, limit + 1, 3 * limit,
                   10 * limit + 7}) {
    const auto layout = (*extractor)->ChunkLayout(n, tau);
    ASSERT_FALSE(layout.empty()) << "n=" << n;
    if (n <= limit) {
      EXPECT_EQ(layout.size(), 1u) << "n=" << n;
      EXPECT_EQ(layout[0], (std::pair<size_t, size_t>{0, n}));
      continue;
    }
    EXPECT_EQ(layout.front().first, 0u);
    EXPECT_EQ(layout.back().first + layout.back().second, n) << "n=" << n;
    for (size_t c = 0; c < layout.size(); ++c) {
      EXPECT_LE(layout[c].second, limit) << "n=" << n << " chunk=" << c;
      if (c + 1 < layout.size()) {
        EXPECT_EQ(layout[c].second, limit);
        // Adjacent chunks share exactly max_window - 1 tokens, so every
        // window of <= max_window tokens fits inside one chunk.
        EXPECT_EQ(layout[c + 1].first,
                  layout[c].first + limit - (max_window - 1))
            << "n=" << n << " chunk=" << c;
      }
    }
  }
}

TEST_F(ChunkingTest, LimitBelowMaxWindowRunsWhole) {
  const double tau = 0.8;
  const size_t max_window = MaxWindow(tau);
  ASSERT_GT(max_window, 1u);
  ParallelExtractorOptions opts;
  opts.num_threads = 1;
  opts.max_document_tokens = max_window - 1;
  auto extractor = ParallelExtractor::Create(*aeetes_, opts);
  ASSERT_TRUE(extractor.ok());
  EXPECT_EQ((*extractor)->ChunkLayout(10 * max_window, tau).size(), 1u);
}

TEST_F(ChunkingTest, ChunkedIsBitIdenticalToUnchunked) {
  // One long document that genuinely splits: concatenate the corpus.
  std::string long_text;
  for (const std::string& text : ds_.documents) {
    if (!long_text.empty()) long_text += ' ';
    long_text += text;
  }
  std::vector<Document> docs;
  docs.push_back(aeetes_->EncodeDocument(long_text));

  for (double tau : {0.6, 0.8, 1.0}) {
    ParallelExtractorOptions whole_opts;
    whole_opts.num_threads = 2;
    auto whole = ParallelExtractor::Create(*aeetes_, whole_opts);
    ASSERT_TRUE(whole.ok());
    auto reference = (*whole)->ExtractAll(docs, tau);
    ASSERT_TRUE(reference.ok());
    ASSERT_EQ(reference->per_document[0].chunks, 1u);

    const size_t max_window = MaxWindow(tau);
    for (size_t limit :
         {max_window, max_window + 1, max_window + 9, 2 * max_window,
          docs[0].size() / 2}) {
      if (limit < max_window) continue;
      const std::string context = "tau=" + std::to_string(tau) +
                                  " limit=" + std::to_string(limit);
      ParallelExtractorOptions opts;
      opts.num_threads = 4;
      opts.max_document_tokens = limit;
      auto chunked = ParallelExtractor::Create(*aeetes_, opts);
      ASSERT_TRUE(chunked.ok()) << context;
      auto result = (*chunked)->ExtractAll(docs, tau);
      ASSERT_TRUE(result.ok()) << context;
      if (docs[0].size() > limit) {
        EXPECT_GT(result->per_document[0].chunks, 1u) << context;
      }
      ExpectSameMatches(result->per_document[0].matches,
                        reference->per_document[0].matches, context);
      EXPECT_EQ(result->total_matches, reference->total_matches) << context;
    }
  }
}

TEST(ChunkBoundaryTest, StraddlingMatchFoundExactlyOnce) {
  // A hand-built document where the only match straddles a chunk
  // boundary: chunk 0 is [0, 10), the entity sits at tokens [9, 12).
  const std::vector<std::string> entities = {"alpha beta gamma"};
  auto built = Aeetes::BuildFromText(entities, {});
  ASSERT_TRUE(built.ok()) << built.status();
  auto& aeetes = *built;

  std::string text;
  for (int i = 0; i < 9; ++i) text += "noise" + std::to_string(i) + " ";
  text += "alpha beta gamma";
  for (int i = 9; i < 15; ++i) text += " noise" + std::to_string(i);
  std::vector<Document> docs;
  docs.push_back(aeetes->EncodeDocument(text));
  ASSERT_EQ(docs[0].size(), 18u);

  ParallelExtractorOptions opts;
  opts.num_threads = 2;
  opts.max_document_tokens = 10;
  auto extractor = ParallelExtractor::Create(*aeetes, opts);
  ASSERT_TRUE(extractor.ok());

  // The layout must actually straddle: [9, 12) crosses the end of the
  // first chunk and lies inside the second.
  const auto layout = (*extractor)->ChunkLayout(docs[0].size(), 1.0);
  ASSERT_GT(layout.size(), 1u);
  ASSERT_LT(layout[0].first + layout[0].second, 12u);

  auto result = (*extractor)->ExtractAll(docs, 1.0);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->per_document[0].matches.size(), 1u);
  const Match& m = result->per_document[0].matches[0];
  EXPECT_EQ(m.token_begin, 9u);
  EXPECT_EQ(m.token_len, 3u);
  EXPECT_EQ(m.entity, 0u);
  EXPECT_EQ(result->total_matches, 1u);
}

// Chunks keep their document's unseen-token texts: a delta-overlay entity
// made only of tokens the frozen image lacks is still found by chunked
// extraction, exactly as by an unchunked ExtractInto of the whole document.
TEST(ChunkBoundaryTest, ChunkedDeltaMatchesOnUnseenTokens) {
  const std::vector<std::string> entities = {"alpha beta gamma",
                                             "delta epsilon zeta eta"};
  auto built = Aeetes::BuildFromText(entities, {});
  ASSERT_TRUE(built.ok()) << built.status();
  Aeetes& aeetes = **built;
  auto layer = DeltaLayer::Create(aeetes.derived_dictionary(), {});
  ASSERT_TRUE(layer.ok()) << layer.status();
  aeetes.AttachDelta(*layer);
  ASSERT_TRUE(
      (*layer)->UpsertEntities({"caltech polytechnic pasadena"}).ok());
  const size_t dict_size = aeetes.derived_dictionary().token_dict().size();

  std::string text;
  for (size_t i = 0; i < 40; ++i) {
    text += testutil::NumberedName("noise", i % 13);
    text += i % 9 == 4   ? " caltech polytechnic pasadena "
            : i % 9 == 7 ? " alpha beta gamma "
                         : " ";
  }
  std::vector<Document> docs;
  docs.push_back(aeetes.EncodeDocument(text));
  EXPECT_EQ(aeetes.derived_dictionary().token_dict().size(), dict_size);

  for (double tau : {0.6, 0.8, 1.0}) {
    ExtractScratch scratch;
    ASSERT_TRUE(aeetes.ExtractInto(scratch, docs[0], tau).ok());
    const std::vector<Match> reference = scratch.matches;
    const size_t delta_hits = static_cast<size_t>(std::count_if(
        reference.begin(), reference.end(), [&](const Match& m) {
          return m.entity >= aeetes.derived_dictionary().num_origins();
        }));
    EXPECT_GE(delta_hits, 4u) << "tau=" << tau;

    ParallelExtractorOptions opts;
    opts.num_threads = 2;
    opts.max_document_tokens = 10;
    auto extractor = ParallelExtractor::Create(aeetes, opts);
    ASSERT_TRUE(extractor.ok());
    auto result = (*extractor)->ExtractAll(docs, tau);
    ASSERT_TRUE(result.ok());
    EXPECT_GT(result->per_document[0].chunks, 1u);
    ExpectSameMatches(result->per_document[0].matches, reference,
                      "tau=" + std::to_string(tau));
  }
}

}  // namespace
}  // namespace aeetes
