#include "src/sim/similarity.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "src/text/token_set.h"

namespace aeetes {
namespace {

/// Builds "<prefix><i>" without std::string operator+ (works around a
/// spurious GCC 12 -Wrestrict warning at -O2).
std::string NumberedName(const char* prefix, size_t i) {
  std::string name(prefix);
  name += std::to_string(i);
  return name;
}

TEST(EpsMathTest, GuardsAgainstFloatingPointDrift) {
  // (1 - 0.8) * 5 evaluates to 0.9999999999999998 in doubles; the naive
  // floor of (that + 1) is 1, losing a prefix slot. EpsCeil/EpsFloor must
  // resolve these to the exact rational values.
  EXPECT_EQ(EpsCeil(0.8 * 5), 4u);
  EXPECT_EQ(EpsFloor(5.0 / 0.8), 6u);
  EXPECT_EQ(EpsCeil(0.7 * 10), 7u);
  EXPECT_EQ(EpsFloor(0.3 * 10), 3u);
  EXPECT_EQ(EpsCeil(0.0), 0u);
  EXPECT_EQ(EpsFloor(-1.0), 0u);  // clamped at zero
}

TEST(SetSimilarityTest, JaccardMatchesDefinition) {
  EXPECT_DOUBLE_EQ(SetSimilarity(Metric::kJaccard, 2, 3, 3), 0.5);
  EXPECT_DOUBLE_EQ(SetSimilarity(Metric::kJaccard, 3, 3, 3), 1.0);
  EXPECT_DOUBLE_EQ(SetSimilarity(Metric::kJaccard, 0, 3, 3), 0.0);
  EXPECT_DOUBLE_EQ(SetSimilarity(Metric::kJaccard, 0, 0, 3), 0.0);
}

TEST(SetSimilarityTest, CosineDiceOverlapMatchDefinitions) {
  EXPECT_DOUBLE_EQ(SetSimilarity(Metric::kCosine, 2, 4, 1),
                   2.0 / std::sqrt(4.0));
  EXPECT_DOUBLE_EQ(SetSimilarity(Metric::kDice, 2, 3, 5), 4.0 / 8.0);
  EXPECT_DOUBLE_EQ(SetSimilarity(Metric::kOverlap, 2, 2, 5), 1.0);
}

TEST(PrefixLengthTest, MatchesPaperExamples) {
  // Paper Example 4.1 with tau = 0.8: |P| = floor((1-0.8)*3 + 1) = 1 for
  // l=3 and l=4; and 2 for l=5.
  EXPECT_EQ(PrefixLength(Metric::kJaccard, 3, 0.8), 1u);
  EXPECT_EQ(PrefixLength(Metric::kJaccard, 4, 0.8), 1u);
  EXPECT_EQ(PrefixLength(Metric::kJaccard, 5, 0.8), 2u);
}

TEST(PrefixLengthTest, BoundsAndEdges) {
  EXPECT_EQ(PrefixLength(Metric::kJaccard, 0, 0.8), 0u);
  EXPECT_EQ(PrefixLength(Metric::kJaccard, 1, 0.8), 1u);
  EXPECT_EQ(PrefixLength(Metric::kJaccard, 10, 1.0), 1u);
  // Overlap coefficient: the whole set (sound, no pruning).
  EXPECT_EQ(PrefixLength(Metric::kOverlap, 7, 0.8), 7u);
  // Prefix length never exceeds the set size.
  for (size_t l = 1; l <= 30; ++l) {
    for (double tau : {0.5, 0.7, 0.75, 0.8, 0.9, 1.0}) {
      const size_t p = PrefixLength(Metric::kJaccard, l, tau);
      EXPECT_GE(p, 1u);
      EXPECT_LE(p, l);
    }
  }
}

TEST(PartnerLengthRangeTest, JaccardBoundsAreTight) {
  const LengthRange r = PartnerLengthRange(Metric::kJaccard, 10, 0.8);
  EXPECT_EQ(r.lo, 8u);
  EXPECT_EQ(r.hi, 12u);
  EXPECT_TRUE(r.Contains(8));
  EXPECT_TRUE(r.Contains(12));
  EXPECT_FALSE(r.Contains(7));
  EXPECT_FALSE(r.Contains(13));
}

TEST(PartnerLengthRangeTest, SymmetricForJaccard) {
  for (size_t x = 1; x <= 25; ++x) {
    for (size_t y = 1; y <= 25; ++y) {
      for (double tau : {0.7, 0.8, 0.9}) {
        const bool xy = PartnerLengthRange(Metric::kJaccard, x, tau).Contains(y);
        const bool yx = PartnerLengthRange(Metric::kJaccard, y, tau).Contains(x);
        EXPECT_EQ(xy, yx) << "x=" << x << " y=" << y << " tau=" << tau;
      }
    }
  }
}

TEST(PartnerLengthRangeTest, ExcludedLengthsTrulyCannotReachTau) {
  // For any y outside the range, even a full overlap (o = min(x, y))
  // cannot reach tau.
  for (size_t x = 1; x <= 20; ++x) {
    for (double tau : {0.7, 0.8, 0.9}) {
      const LengthRange r = PartnerLengthRange(Metric::kJaccard, x, tau);
      for (size_t y = 1; y <= 40; ++y) {
        if (r.Contains(y)) continue;
        const double best =
            SetSimilarity(Metric::kJaccard, std::min(x, y), x, y);
        EXPECT_LT(best, tau) << "x=" << x << " y=" << y;
      }
    }
  }
}

TEST(RequiredOverlapTest, JaccardFormula) {
  // tau/(1+tau) * (x+y): for x=y=5, tau=0.8 -> ceil(0.444*10) = 5.
  EXPECT_EQ(RequiredOverlap(Metric::kJaccard, 5, 5, 0.8), 5u);
  EXPECT_EQ(RequiredOverlap(Metric::kJaccard, 3, 3, 1.0), 3u);
  EXPECT_GE(RequiredOverlap(Metric::kJaccard, 1, 1, 0.1), 1u);
}

TEST(RequiredOverlapTest, OverlapBelowThresholdImpliesDissimilar) {
  for (size_t x = 1; x <= 15; ++x) {
    for (size_t y = 1; y <= 15; ++y) {
      for (double tau : {0.7, 0.8, 0.9}) {
        const size_t t = RequiredOverlap(Metric::kJaccard, x, y, tau);
        if (t == 0) continue;
        const double sim =
            SetSimilarity(Metric::kJaccard, std::min({t - 1, x, y}), x, y);
        EXPECT_LT(sim, tau) << "x=" << x << " y=" << y << " tau=" << tau;
      }
    }
  }
}

// The verifier's origin-union bound compares the union against the
// requirement at the smallest admitted derived size and the unweighted
// threshold, so it is sound only if RequiredOverlap never decreases in y
// (larger derived entities) or in tau (tau / weight for weights in (0, 1]).
TEST(RequiredOverlapTest, NonDecreasingInSizeAndThreshold) {
  const Metric metrics[] = {Metric::kJaccard, Metric::kCosine, Metric::kDice,
                            Metric::kOverlap};
  std::vector<double> taus;
  for (int i = 1; i <= 40; ++i) taus.push_back(i / 40.0);
  for (double tau : {0.33, 0.67, 0.77, 0.85, 0.95}) taus.push_back(tau);
  const double weights[] = {1.0, 0.99, 0.9, 0.8, 0.75, 0.5};
  for (const Metric m : metrics) {
    for (const double tau : taus) {
      for (size_t x = 1; x <= 64; ++x) {
        for (size_t y = 1; y < 64; ++y) {
          ASSERT_LE(RequiredOverlap(m, x, y, tau),
                    RequiredOverlap(m, x, y + 1, tau))
              << MetricName(m) << " x=" << x << " y=" << y << " tau=" << tau;
          for (const double w : weights) {
            if (tau / w > 1.0) continue;  // the verifier skips these
            ASSERT_LE(RequiredOverlap(m, x, y, tau),
                      RequiredOverlap(m, x, y, tau / w))
                << MetricName(m) << " x=" << x << " y=" << y
                << " tau=" << tau << " w=" << w;
          }
        }
      }
    }
  }
}

TEST(SubstringLengthBoundsTest, UsesPaperFloorAndCeil) {
  // E_lo = floor(2 * 0.8) = 1, E_hi = ceil(5 / 0.8) = 7.
  const LengthRange r = SubstringLengthBounds(Metric::kJaccard, 2, 5, 0.8);
  EXPECT_EQ(r.lo, 1u);
  EXPECT_EQ(r.hi, 7u);
}

TEST(MetricNameTest, Names) {
  EXPECT_STREQ(MetricName(Metric::kJaccard), "Jaccard");
  EXPECT_STREQ(MetricName(Metric::kCosine), "Cosine");
  EXPECT_STREQ(MetricName(Metric::kDice), "Dice");
  EXPECT_STREQ(MetricName(Metric::kOverlap), "Overlap");
}

// ---------------------------------------------------------------------------
// Property: the prefix filter is sound — if the tau-prefixes of two random
// sets are disjoint, their similarity is below tau. Parameterized over
// metrics and thresholds.
// ---------------------------------------------------------------------------

class PrefixFilterProperty
    : public testing::TestWithParam<std::tuple<Metric, double>> {};

TEST_P(PrefixFilterProperty, DisjointPrefixesImplyDissimilar) {
  const auto [metric, tau] = GetParam();
  std::mt19937_64 rng(1234);
  TokenDictionary dict;
  const size_t vocab = 30;
  for (size_t i = 0; i < vocab; ++i) {
    const TokenId id = dict.GetOrAdd(NumberedName("w", i));
    ASSERT_TRUE(dict.AddFrequency(id, 1 + rng() % 9).ok());
  }
  dict.Freeze();

  for (int iter = 0; iter < 400; ++iter) {
    TokenSeq a, b;
    const size_t na = 1 + rng() % 10;
    const size_t nb = 1 + rng() % 10;
    for (size_t i = 0; i < na; ++i) {
      a.push_back(static_cast<TokenId>(rng() % vocab));
    }
    for (size_t i = 0; i < nb; ++i) {
      b.push_back(static_cast<TokenId>(rng() % vocab));
    }
    const TokenSeq sa = BuildOrderedSet(a, dict);
    const TokenSeq sb = BuildOrderedSet(b, dict);
    const size_t pa = PrefixLength(metric, sa.size(), tau);
    const size_t pb = PrefixLength(metric, sb.size(), tau);
    if (!PrefixesIntersect(sa, pa, sb, pb, dict)) {
      const double sim = SimilarityOnOrderedSets(metric, sa, sb, dict);
      EXPECT_LT(sim, tau + 1e-9)
          << "metric=" << MetricName(metric) << " tau=" << tau;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMetrics, PrefixFilterProperty,
    testing::Combine(testing::Values(Metric::kJaccard, Metric::kCosine,
                                     Metric::kDice, Metric::kOverlap),
                     testing::Values(0.7, 0.8, 0.9)));

// Property: excluded partner lengths can indeed never reach tau, for every
// metric with a bounded range.
class LengthFilterProperty
    : public testing::TestWithParam<std::tuple<Metric, double>> {};

TEST_P(LengthFilterProperty, ExcludedSizesCannotReachTau) {
  const auto [metric, tau] = GetParam();
  for (size_t x = 1; x <= 20; ++x) {
    const LengthRange r = PartnerLengthRange(metric, x, tau);
    for (size_t y = 1; y <= 45; ++y) {
      if (r.Contains(y)) continue;
      const double best = SetSimilarity(metric, std::min(x, y), x, y);
      EXPECT_LT(best, tau) << MetricName(metric) << " x=" << x << " y=" << y;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMetrics, LengthFilterProperty,
    testing::Combine(testing::Values(Metric::kJaccard, Metric::kCosine,
                                     Metric::kDice, Metric::kOverlap),
                     testing::Values(0.7, 0.8, 0.9)));

}  // namespace
}  // namespace aeetes
