#include "src/core/candidate_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <tuple>

#include "src/baseline/brute_force.h"
#include "src/index/clustered_index.h"
#include "src/text/token_set.h"
#include "tests/test_util.h"

namespace aeetes {
namespace {

using testutil::MakeRandomWorld;

std::set<std::tuple<uint32_t, uint32_t, EntityId>> CandidateSet(
    const std::vector<Candidate>& cs) {
  std::set<std::tuple<uint32_t, uint32_t, EntityId>> out;
  for (const Candidate& c : cs) out.emplace(c.pos, c.len, c.origin);
  return out;
}

constexpr FilterStrategy kAllStrategies[] = {
    FilterStrategy::kSimple, FilterStrategy::kSkip, FilterStrategy::kDynamic,
    FilterStrategy::kLazy};

TEST(FilterStrategyTest, Names) {
  EXPECT_STREQ(FilterStrategyName(FilterStrategy::kSimple), "Simple");
  EXPECT_STREQ(FilterStrategyName(FilterStrategy::kSkip), "Skip");
  EXPECT_STREQ(FilterStrategyName(FilterStrategy::kDynamic), "Dynamic");
  EXPECT_STREQ(FilterStrategyName(FilterStrategy::kLazy), "Lazy");
}

/// Brute-force size of Lazy's substring index I: for every admissible
/// substring, the tau-prefix tokens of its ordered set that have a posting
/// list.
uint64_t ExpectedRegistrations(const Document& doc,
                               const DerivedDictionary& dd,
                               const ClusteredIndex& index, double tau,
                               Metric metric) {
  const LengthRange win = SubstringLengthBounds(metric, dd.min_set_size(),
                                                dd.max_set_size(), tau);
  const TokenSeq& tokens = doc.tokens();
  uint64_t total = 0;
  for (size_t p = 0; p < tokens.size(); ++p) {
    for (size_t l = win.lo; l <= win.hi && p + l <= tokens.size(); ++l) {
      const TokenSeq set = BuildOrderedSet(
          Span<TokenId>(tokens.data() + p, l), dd.token_dict());
      const size_t prefix = PrefixLength(metric, set.size(), tau);
      for (size_t k = 0; k < prefix; ++k) {
        if (!index.list(set[k]).empty()) ++total;
      }
    }
  }
  return total;
}

/// Replaces about a quarter of `tokens` with tokens the dictionary has
/// never seen, some of them repeated: ids at or past the dictionary's end,
/// as Document::FromText gives them (frequency 0, no posting list).
void SpliceUnknownTokens(std::mt19937_64& rng, const DerivedDictionary& dd,
                         TokenSeq& tokens) {
  const TokenId end = static_cast<TokenId>(dd.token_dict().size());
  for (TokenId& t : tokens) {
    if (rng() % 4 == 0) t = end + static_cast<TokenId>(rng() % 6);
  }
}

// Every strategy yields the same candidate set, enumerates the same
// windows and substrings, and Lazy's substring index holds exactly the
// brute-force (token, substring) entries — across all four metrics, with
// and without the positional filter (which reads each registration's
// prefix index k), on worlds with few distinct tokens (many repeats per
// window) and with unknown tokens, and on documents shorter than, equal
// to, and longer than the window-length bounds.
TEST(CandidateGeneratorTest, AllStrategiesProduceIdenticalCandidateSets) {
  std::mt19937_64 rng(11);
  enum class Shape { kPlain, kSmallVocabulary, kUnknownTokens };
  for (int iter = 0; iter < 24; ++iter) {
    const Shape shape = static_cast<Shape>(iter % 3);
    auto world = shape == Shape::kSmallVocabulary
                     ? MakeRandomWorld(rng, /*vocab=*/5, /*num_entities=*/8,
                                       /*num_rules=*/6, /*doc_len=*/60)
                     : MakeRandomWorld(rng);
    if (shape == Shape::kUnknownTokens) {
      SpliceUnknownTokens(rng, *world.dd, world.doc_tokens);
    }
    auto index = ClusteredIndex::Build(*world.dd);
    for (Metric metric : {Metric::kJaccard, Metric::kCosine, Metric::kDice,
                          Metric::kOverlap}) {
      for (double tau : {0.7, 0.8, 0.9}) {
        const LengthRange win =
            SubstringLengthBounds(metric, world.dd->min_set_size(),
                                  world.dd->max_set_size(), tau);
        // 40 tokens exceed every bounded hi here; Overlap (unbounded hi)
        // costs cubic time in the length, so it is not taken longer.
        const size_t long_n = std::min<size_t>(world.doc_tokens.size(), 40);
        ASSERT_LT(win.lo, long_n);
        if (metric != Metric::kOverlap) {
          ASSERT_GT(long_n, win.hi);
        }
        for (size_t n : {win.lo - 1, win.lo, long_n}) {
          const Document doc = Document::FromTokens(
              TokenSeq(world.doc_tokens.begin(),
                       world.doc_tokens.begin() + static_cast<ptrdiff_t>(n)));
          for (bool positional : {false, true}) {
            CandidateGenOptions opts;
            opts.positional_filter = positional;
            const auto simple =
                GenerateCandidates(FilterStrategy::kSimple, doc, *world.dd,
                                   *index, tau, metric, opts);
            const auto base = CandidateSet(simple.candidates);
            for (FilterStrategy s :
                 {FilterStrategy::kSkip, FilterStrategy::kDynamic,
                  FilterStrategy::kLazy}) {
              const auto got = GenerateCandidates(s, doc, *world.dd, *index,
                                                  tau, metric, opts);
              const std::string where =
                  std::string("strategy=") + FilterStrategyName(s) +
                  " metric=" + MetricName(metric) +
                  " tau=" + std::to_string(tau) +
                  " n=" + std::to_string(n) +
                  " positional=" + std::to_string(positional) +
                  " iter=" + std::to_string(iter);
              EXPECT_EQ(CandidateSet(got.candidates), base) << where;
              EXPECT_EQ(got.stats.windows, simple.stats.windows) << where;
              EXPECT_EQ(got.stats.substrings, simple.stats.substrings)
                  << where;
              if (s == FilterStrategy::kLazy) {
                EXPECT_EQ(got.stats.registrations,
                          ExpectedRegistrations(doc, *world.dd, *index, tau,
                                                metric))
                    << where;
                EXPECT_EQ(got.stats.prefix_rebuilds, got.stats.windows)
                    << where;
                EXPECT_EQ(got.stats.prefix_updates,
                          got.stats.substrings - got.stats.windows)
                    << where;
              } else {
                EXPECT_EQ(got.stats.registrations, 0u) << where;
              }
            }
          }
        }
      }
    }
  }
}

TEST(CandidateGeneratorTest, CandidatesAreCompleteVsBruteForce) {
  std::mt19937_64 rng(13);
  for (int iter = 0; iter < 20; ++iter) {
    auto world = MakeRandomWorld(rng);
    const Document doc = Document::FromTokens(world.doc_tokens);
    auto index = ClusteredIndex::Build(*world.dd);
    for (double tau : {0.7, 0.85}) {
      const auto matches = BruteForceExtract(doc, *world.dd, tau);
      for (FilterStrategy s : kAllStrategies) {
        const auto got = GenerateCandidates(s, doc, *world.dd, *index, tau);
        const auto cset = CandidateSet(got.candidates);
        for (const Match& m : matches) {
          EXPECT_TRUE(cset.count(
              std::make_tuple(m.token_begin, m.token_len, m.entity)))
              << "missed true match at pos=" << m.token_begin
              << " len=" << m.token_len << " entity=" << m.entity
              << " strategy=" << FilterStrategyName(s) << " tau=" << tau;
        }
      }
    }
  }
}

TEST(CandidateGeneratorTest, BatchSkippingReducesAccessedEntries) {
  std::mt19937_64 rng(17);
  uint64_t simple_total = 0, skip_total = 0, dynamic_total = 0,
           lazy_total = 0;
  for (int iter = 0; iter < 10; ++iter) {
    auto world = MakeRandomWorld(rng, /*vocab=*/40, /*num_entities=*/20,
                                 /*num_rules=*/10, /*doc_len=*/120);
    const Document doc = Document::FromTokens(world.doc_tokens);
    auto index = ClusteredIndex::Build(*world.dd);
    const double tau = 0.8;
    simple_total += GenerateCandidates(FilterStrategy::kSimple, doc,
                                       *world.dd, *index, tau)
                        .stats.entries_accessed;
    skip_total += GenerateCandidates(FilterStrategy::kSkip, doc, *world.dd,
                                     *index, tau)
                      .stats.entries_accessed;
    dynamic_total += GenerateCandidates(FilterStrategy::kDynamic, doc,
                                        *world.dd, *index, tau)
                         .stats.entries_accessed;
    lazy_total += GenerateCandidates(FilterStrategy::kLazy, doc, *world.dd,
                                     *index, tau)
                      .stats.entries_accessed;
  }
  EXPECT_LE(skip_total, simple_total);
  EXPECT_LE(lazy_total, dynamic_total);
}

TEST(CandidateGeneratorTest, DynamicUsesIncrementalPrefixes) {
  std::mt19937_64 rng(19);
  auto world = MakeRandomWorld(rng);
  const Document doc = Document::FromTokens(world.doc_tokens);
  auto index = ClusteredIndex::Build(*world.dd);
  const auto simple =
      GenerateCandidates(FilterStrategy::kSimple, doc, *world.dd, *index, 0.8);
  const auto dynamic = GenerateCandidates(FilterStrategy::kDynamic, doc,
                                          *world.dd, *index, 0.8);
  // Simple rebuilds every prefix; Dynamic rebuilds one and updates the
  // rest.
  EXPECT_GT(simple.stats.prefix_rebuilds, dynamic.stats.prefix_rebuilds);
  EXPECT_EQ(dynamic.stats.prefix_rebuilds, 1u);
  EXPECT_GT(dynamic.stats.prefix_updates, 0u);
  EXPECT_EQ(simple.stats.prefix_updates, 0u);
}

TEST(CandidateGeneratorTest, CandidatesAreDeduped) {
  std::mt19937_64 rng(23);
  auto world = MakeRandomWorld(rng);
  const Document doc = Document::FromTokens(world.doc_tokens);
  auto index = ClusteredIndex::Build(*world.dd);
  for (FilterStrategy s : kAllStrategies) {
    const auto got =
        GenerateCandidates(s, doc, *world.dd, *index, 0.75);
    const auto set = CandidateSet(got.candidates);
    EXPECT_EQ(set.size(), got.candidates.size())
        << FilterStrategyName(s) << " emitted duplicate candidates";
  }
}

// Regression for the packed-candidate-key collision: the Lazy dedupe key
// used to be (pos << 38 | len << 30 | origin), giving the window length 8
// bits. Any window of 256+ tokens aliased a neighboring shorter window —
// key(p, 259, e) == key(p + 1, 3, e) — and one of the two candidates was
// silently dropped in release builds (debug builds tripped a DCHECK).
//
// This world makes both colliding windows real candidates of the same
// origin: a tiny entity {a, b, c}, a document cycling "a b c" (so every
// window of every length matches the entity's token set exactly), and a
// 300-distinct-token "widener" entity — absent from the document — whose
// only job is to stretch SubstringLengthBounds past 255.
TEST(CandidateGeneratorTest, LongWindowsSurviveDedupeNoKeyCollision) {
  auto dict = std::make_unique<TokenDictionary>();
  const TokenId a = dict->GetOrAdd("a");
  const TokenId b = dict->GetOrAdd("b");
  const TokenId c = dict->GetOrAdd("c");
  TokenSeq widener;
  for (size_t i = 0; i < 300; ++i) {
    widener.push_back(dict->GetOrAdd(testutil::NumberedName("wide", i)));
  }
  std::vector<TokenSeq> entities = {{a, b, c}, widener};
  auto dd = DerivedDictionary::Build(std::move(entities), RuleSet{},
                                     std::move(dict), {});
  ASSERT_TRUE(dd.ok());

  TokenSeq doc_tokens;
  for (int i = 0; i < 90; ++i) doc_tokens.insert(doc_tokens.end(), {a, b, c});
  const Document doc = Document::FromTokens(doc_tokens);
  auto index = ClusteredIndex::Build(**dd);

  const auto simple = GenerateCandidates(FilterStrategy::kSimple, doc, **dd,
                                         *index, 0.85);
  uint32_t max_len = 0;
  for (const Candidate& cand : simple.candidates) {
    max_len = std::max(max_len, cand.len);
  }
  ASSERT_GE(max_len, 256u) << "world failed to produce 256+-token windows";

  for (FilterStrategy s :
       {FilterStrategy::kSkip, FilterStrategy::kDynamic,
        FilterStrategy::kLazy}) {
    const auto got = GenerateCandidates(s, doc, **dd, *index, 0.85);
    EXPECT_EQ(CandidateSet(got.candidates), CandidateSet(simple.candidates))
        << FilterStrategyName(s)
        << " lost candidates on 256+-token windows (key collision)";
  }
}

TEST(CandidateGeneratorTest, EmptyDocumentYieldsNothing) {
  std::mt19937_64 rng(29);
  auto world = MakeRandomWorld(rng);
  const Document doc = Document::FromTokens({});
  auto index = ClusteredIndex::Build(*world.dd);
  for (FilterStrategy s : kAllStrategies) {
    const auto got = GenerateCandidates(s, doc, *world.dd, *index, 0.8);
    EXPECT_TRUE(got.candidates.empty());
  }
}

TEST(CandidateGeneratorTest, DocumentOfOnlyUnknownTokensYieldsNothing) {
  std::mt19937_64 rng(31);
  auto world = MakeRandomWorld(rng);
  // Tokens outside the dictionary: ids past its end.
  const TokenId end = static_cast<TokenId>(world.dd->token_dict().size());
  TokenSeq oov;
  for (TokenId i = 0; i < 30; ++i) oov.push_back(end + i);
  const Document doc = Document::FromTokens(oov);
  auto index = ClusteredIndex::Build(*world.dd);
  for (FilterStrategy s : kAllStrategies) {
    const auto got = GenerateCandidates(s, doc, *world.dd, *index, 0.8);
    EXPECT_TRUE(got.candidates.empty()) << FilterStrategyName(s);
  }
}

}  // namespace
}  // namespace aeetes
