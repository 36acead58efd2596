#include "src/core/verifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "src/baseline/brute_force.h"
#include "src/core/candidate_generator.h"
#include "src/index/clustered_index.h"
#include "tests/test_util.h"

namespace aeetes {
namespace {

using testutil::MakeRandomWorld;
using testutil::RandomWorld;
using testutil::Sorted;

TEST(ScorePassesTest, EpsilonGuard) {
  EXPECT_TRUE(ScorePasses(0.8, 0.8));
  EXPECT_TRUE(ScorePasses(4.0 / 5.0, 0.8));
  EXPECT_TRUE(ScorePasses(0.8 - 1e-12, 0.8));
  EXPECT_FALSE(ScorePasses(0.79, 0.8));
}

TEST(VerifierTest, FilterPlusVerifyEqualsBruteForce) {
  std::mt19937_64 rng(41);
  for (int iter = 0; iter < 25; ++iter) {
    auto world = MakeRandomWorld(rng);
    const Document doc = Document::FromTokens(world.doc_tokens);
    auto index = ClusteredIndex::Build(*world.dd);
    for (double tau : {0.7, 0.8, 0.9}) {
      const auto oracle = Sorted(BruteForceExtract(doc, *world.dd, tau));
      auto gen = GenerateCandidates(FilterStrategy::kLazy, doc, *world.dd,
                                    *index, tau);
      const auto got = Sorted(VerifyCandidates(std::move(gen.candidates),
                                               doc, *world.dd, tau, {}));
      ASSERT_EQ(got.size(), oracle.size()) << "tau=" << tau;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].token_begin, oracle[i].token_begin);
        EXPECT_EQ(got[i].token_len, oracle[i].token_len);
        EXPECT_EQ(got[i].entity, oracle[i].entity);
        EXPECT_DOUBLE_EQ(got[i].score, oracle[i].score);
      }
    }
  }
}

TEST(VerifierTest, ReportsStats) {
  std::mt19937_64 rng(43);
  auto world = MakeRandomWorld(rng);
  const Document doc = Document::FromTokens(world.doc_tokens);
  auto index = ClusteredIndex::Build(*world.dd);
  auto gen = GenerateCandidates(FilterStrategy::kLazy, doc, *world.dd,
                                *index, 0.8);
  const size_t n_cand = gen.candidates.size();
  VerifyStats stats;
  const auto matches = VerifyCandidates(std::move(gen.candidates), doc,
                                        *world.dd, 0.8, {}, &stats);
  EXPECT_EQ(stats.verified, n_cand);
  EXPECT_EQ(stats.matched, matches.size());
  EXPECT_LE(stats.matched, stats.verified);
}

TEST(VerifierTest, MatchesCarryBestDerived) {
  std::mt19937_64 rng(47);
  auto world = MakeRandomWorld(rng);
  const Document doc = Document::FromTokens(world.doc_tokens);
  auto index = ClusteredIndex::Build(*world.dd);
  auto gen = GenerateCandidates(FilterStrategy::kLazy, doc, *world.dd,
                                *index, 0.7);
  const auto matches =
      VerifyCandidates(std::move(gen.candidates), doc, *world.dd, 0.7, {});
  for (const Match& m : matches) {
    ASSERT_NE(m.best_derived, JaccArScore::kNoDerived);
    EXPECT_EQ(world.dd->origin_of(m.best_derived), m.entity);
  }
}

TEST(VerifierTest, EarlyTerminationMatchesExactVerification) {
  std::mt19937_64 rng(59);
  for (int iter = 0; iter < 15; ++iter) {
    auto world = MakeRandomWorld(rng);
    const Document doc = Document::FromTokens(world.doc_tokens);
    auto index = ClusteredIndex::Build(*world.dd);
    for (double tau : {0.7, 0.85}) {
      auto gen = GenerateCandidates(FilterStrategy::kLazy, doc, *world.dd,
                                    *index, tau);
      auto gen2 = gen;
      const auto fast =
          Sorted(VerifyCandidates(std::move(gen.candidates), doc, *world.dd,
                                  tau, {}, nullptr,
                                  /*early_termination=*/true));
      const auto slow =
          Sorted(VerifyCandidates(std::move(gen2.candidates), doc,
                                  *world.dd, tau, {}, nullptr,
                                  /*early_termination=*/false));
      ASSERT_EQ(fast.size(), slow.size());
      for (size_t i = 0; i < fast.size(); ++i) {
        EXPECT_EQ(fast[i], slow[i]);
        EXPECT_DOUBLE_EQ(fast[i].score, slow[i].score);
        EXPECT_EQ(fast[i].best_derived, slow[i].best_derived);
      }
    }
  }
}

// Regression for the window-memo sentinel: the memo key used to start at
// (pos=0, len=0) with a side `have_set` flag, because a first candidate at
// position 0 is a perfectly valid key and must not be mistaken for "no
// window built yet". The sentinel is now kNoWindow (uint32 max), which no
// candidate can carry. This test's FIRST candidate sits at pos=0 with a
// nonzero length, in both verification modes.
TEST(VerifierTest, FirstCandidateAtPositionZeroIsVerified) {
  auto dict = std::make_unique<TokenDictionary>();
  const TokenId a = dict->GetOrAdd("a");
  const TokenId b = dict->GetOrAdd("b");
  dict->GetOrAdd("c");
  std::vector<TokenSeq> entities = {{a, b}};
  auto dd = DerivedDictionary::Build(std::move(entities), RuleSet{},
                                     std::move(dict), {});
  ASSERT_TRUE(dd.ok());
  const Document doc = Document::FromTokens({a, b, a});

  for (bool early_termination : {true, false}) {
    std::vector<Candidate> candidates = {Candidate{0, 2, 0}};
    const auto matches =
        VerifyCandidates(std::move(candidates), doc, **dd, 0.8, {}, nullptr,
                         early_termination);
    ASSERT_EQ(matches.size(), 1u)
        << "early_termination=" << early_termination;
    EXPECT_EQ(matches[0].token_begin, 0u);
    EXPECT_EQ(matches[0].token_len, 2u);
    EXPECT_EQ(matches[0].entity, 0u);
    EXPECT_DOUBLE_EQ(matches[0].score, 1.0);
  }
}

/// A rule-rich world: every rule rewrites a contiguous piece of some
/// entity (so rules apply and origins fan out into many derived
/// entities), optionally with weights in (0, 1], and the document plants
/// derived entities among noise so matches occur.
RandomWorld MakeRuleRichWorld(std::mt19937_64& rng, bool weighted) {
  auto dict = std::make_unique<TokenDictionary>();
  std::vector<TokenId> ids;
  for (size_t i = 0; i < 24; ++i) {
    ids.push_back(dict->GetOrAdd(testutil::NumberedName("tok", i)));
  }
  auto rand_tok = [&]() { return ids[rng() % ids.size()]; };
  std::vector<TokenSeq> entities;
  for (size_t i = 0; i < 10; ++i) {
    TokenSeq e;
    const size_t len = 2 + rng() % 4;
    for (size_t j = 0; j < len; ++j) e.push_back(rand_tok());
    entities.push_back(std::move(e));
  }
  RuleSet rules;
  for (size_t r = 0; r < 30; ++r) {
    const TokenSeq& e = entities[rng() % entities.size()];
    const size_t begin = rng() % e.size();
    const size_t len = 1 + rng() % std::min<size_t>(2, e.size() - begin);
    TokenSeq lhs(e.begin() + static_cast<std::ptrdiff_t>(begin),
                 e.begin() + static_cast<std::ptrdiff_t>(begin + len));
    TokenSeq rhs;
    const size_t rhs_len = 1 + rng() % 3;
    for (size_t j = 0; j < rhs_len; ++j) rhs.push_back(rand_tok());
    const double weight =
        weighted ? 0.5 + 0.05 * static_cast<double>(rng() % 11) : 1.0;
    (void)rules.Add(std::move(lhs), std::move(rhs), weight);
  }
  DerivedDictionaryOptions opts;
  opts.expander.max_derived = 32;
  auto dd = DerivedDictionary::Build(std::move(entities), rules,
                                     std::move(dict), opts);
  AEETES_CHECK(dd.ok()) << dd.status();
  RandomWorld world;
  world.dd = std::move(*dd);
  // Short documents: the Overlap metric admits every window length, so
  // candidate counts grow with the square of the document length.
  for (size_t i = 0; i < 16; ++i) {
    if (rng() % 4 == 0) {
      const DerivedId d =
          static_cast<DerivedId>(rng() % world.dd->num_derived());
      const Span<TokenId> tokens = world.dd->derived(d).tokens;
      world.doc_tokens.insert(world.doc_tokens.end(), tokens.begin(),
                              tokens.end());
    } else {
      world.doc_tokens.push_back(rand_tok());
    }
  }
  return world;
}

/// Verifies every candidate of (world, metric, weighted, tau, strategy) on
/// both paths and requires identical matches: the early-terminating path
/// with the origin-union bound against the exhaustive JaccAR maximum.
/// Returns the bound-pruned pair count.
uint64_t ExpectBoundedEqualsExhaustive(const RandomWorld& world,
                                       const ClusteredIndex& index,
                                       Metric metric, bool weighted,
                                       double tau, FilterStrategy strategy) {
  const Document doc = Document::FromTokens(world.doc_tokens);
  JaccArOptions options;
  options.metric = metric;
  options.weighted = weighted;
  auto gen = GenerateCandidates(strategy, doc, *world.dd, index, tau, metric);
  auto gen2 = gen;
  VerifyStats stats;
  const auto fast = Sorted(VerifyCandidates(std::move(gen.candidates), doc,
                                            *world.dd, tau, options, &stats,
                                            /*early_termination=*/true));
  const auto slow = Sorted(VerifyCandidates(std::move(gen2.candidates), doc,
                                            *world.dd, tau, options, nullptr,
                                            /*early_termination=*/false));
  const std::string where = std::string(MetricName(metric)) +
                            (weighted ? " weighted" : "") +
                            " tau=" + std::to_string(tau) + " " +
                            FilterStrategyName(strategy);
  EXPECT_EQ(fast.size(), slow.size()) << where;
  for (size_t i = 0; i < std::min(fast.size(), slow.size()); ++i) {
    EXPECT_EQ(fast[i], slow[i]) << where;  // entity and span
    EXPECT_DOUBLE_EQ(fast[i].score, slow[i].score) << where;
    EXPECT_EQ(fast[i].best_derived, slow[i].best_derived) << where;
  }
  EXPECT_LE(stats.matched + stats.bound_pruned, stats.verified) << where;
  return stats.bound_pruned;
}

TEST(VerifierTest, UnionBoundEqualsExhaustiveVerification) {
  std::mt19937_64 rng(20261017);
  uint64_t pruned = 0;
  for (int iter = 0; iter < 4; ++iter) {
    for (const bool weighted : {false, true}) {
      const RandomWorld world = MakeRuleRichWorld(rng, weighted);
      const auto index = ClusteredIndex::Build(*world.dd);
      for (const Metric metric : {Metric::kJaccard, Metric::kCosine,
                                  Metric::kDice, Metric::kOverlap}) {
        for (const double tau : {0.5, 0.7, 0.85, 1.0}) {
          for (const FilterStrategy strategy :
               {FilterStrategy::kSimple, FilterStrategy::kSkip,
                FilterStrategy::kDynamic, FilterStrategy::kLazy}) {
            pruned += ExpectBoundedEqualsExhaustive(world, *index, metric,
                                                    weighted, tau, strategy);
          }
        }
      }
    }
  }
  EXPECT_GT(pruned, 0u) << "the property never exercised the bound";
}

TEST(VerifierTest, UnionBoundPrunesOnRuleRichWorld) {
  std::mt19937_64 rng(73);
  const RandomWorld world = MakeRuleRichWorld(rng, /*weighted=*/false);
  const auto index = ClusteredIndex::Build(*world.dd);
  const Document doc = Document::FromTokens(world.doc_tokens);
  auto gen = GenerateCandidates(FilterStrategy::kLazy, doc, *world.dd,
                                *index, 0.8);
  VerifyStats stats;
  (void)VerifyCandidates(std::move(gen.candidates), doc, *world.dd, 0.8, {},
                         &stats);
  EXPECT_GT(stats.bound_pruned, 0u);
  EXPECT_LE(stats.bound_pruned + stats.matched, stats.verified);

  // The exhaustive path never consults the bound.
  auto gen2 = GenerateCandidates(FilterStrategy::kLazy, doc, *world.dd,
                                 *index, 0.8);
  VerifyStats exhaustive;
  (void)VerifyCandidates(std::move(gen2.candidates), doc, *world.dd, 0.8, {},
                         &exhaustive, /*early_termination=*/false);
  EXPECT_EQ(exhaustive.bound_pruned, 0u);
  EXPECT_EQ(exhaustive.matched, stats.matched);
}

TEST(VerifierTest, EmptyCandidatesEmptyMatches) {
  std::mt19937_64 rng(53);
  auto world = MakeRandomWorld(rng);
  const Document doc = Document::FromTokens(world.doc_tokens);
  EXPECT_TRUE(VerifyCandidates({}, doc, *world.dd, 0.8, {}).empty());
}

}  // namespace
}  // namespace aeetes
