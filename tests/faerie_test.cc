#include "src/baseline/faerie.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <tuple>

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

using MatchKey = std::tuple<uint32_t, uint32_t, uint32_t>;

std::set<MatchKey> Keys(const std::vector<Faerie::FaerieMatch>& ms) {
  std::set<MatchKey> out;
  for (const auto& m : ms) out.emplace(m.token_begin, m.token_len, m.entity);
  return out;
}

/// Plain-Jaccard oracle over windows whose lengths fall in the same bounds
/// Faerie enumerates (PartnerLengthRange of each entity).
std::set<MatchKey> Oracle(const std::vector<TokenSeq>& entity_sets,
                          const Document& doc, double tau,
                          const TokenDictionary& dict, size_t min_set,
                          size_t max_set) {
  std::set<MatchKey> out;
  const size_t n = doc.size();
  const LengthRange global =
      SubstringLengthBounds(Metric::kJaccard, min_set, max_set, tau);
  for (uint32_t e = 0; e < entity_sets.size(); ++e) {
    const LengthRange lens =
        PartnerLengthRange(Metric::kJaccard, entity_sets[e].size(), tau);
    for (size_t l = lens.lo; l <= std::min<size_t>(global.hi, n); ++l) {
      for (size_t p = 0; p + l <= n; ++p) {
        TokenSeq slice(doc.tokens().begin() + p, doc.tokens().begin() + p + l);
        const TokenSeq set = BuildOrderedSet(slice, dict);
        const size_t o = OverlapSize(set, entity_sets[e], dict);
        const double sim = SetSimilarity(Metric::kJaccard, o, set.size(),
                                         entity_sets[e].size());
        if (ScorePasses(sim, tau)) {
          out.emplace(static_cast<uint32_t>(p), static_cast<uint32_t>(l), e);
        }
      }
    }
  }
  return out;
}

TEST(FaerieTest, RejectsBadInputs) {
  auto dict = std::make_shared<TokenDictionary>();
  dict->GetOrAdd("a");
  EXPECT_EQ(Faerie::Build({{0}}, dict).status().code(),
            StatusCode::kFailedPrecondition);  // not frozen
  dict->Freeze();
  EXPECT_FALSE(Faerie::Build({}, dict).ok());
  EXPECT_FALSE(Faerie::Build({{1}}, nullptr).ok());
  EXPECT_FALSE(Faerie::Build({{}}, dict).ok());
}

TEST(FaerieTest, FindsExactAndApproximateWindows) {
  auto dict = std::make_shared<TokenDictionary>();
  const TokenId a = dict->GetOrAdd("purdue");
  const TokenId b = dict->GetOrAdd("university");
  const TokenId c = dict->GetOrAdd("usa");
  const TokenId x = dict->GetOrAdd("noise");
  for (TokenId t : {a, b, c}) ASSERT_TRUE(dict->AddFrequency(t).ok());
  dict->Freeze();
  auto f = Faerie::Build({{a, b, c}}, dict);
  ASSERT_TRUE(f.ok());
  const Document doc = Document::FromTokens({x, a, b, c, x, a, b, x});
  const auto strict = (*f)->Extract(doc, 0.99);
  ASSERT_EQ(strict.size(), 1u);
  EXPECT_EQ(strict[0].token_begin, 1u);
  EXPECT_EQ(strict[0].token_len, 3u);
  const auto loose = (*f)->Extract(doc, 0.6);  // {a,b} scores 2/3
  EXPECT_GT(loose.size(), strict.size());
}

TEST(FaeriePropertyTest, MatchesOracleOnRandomData) {
  std::mt19937_64 rng(83);
  for (int iter = 0; iter < 30; ++iter) {
    auto dict = std::make_shared<TokenDictionary>();
    const size_t vocab = 15;
    std::vector<TokenId> ids;
    for (size_t i = 0; i < vocab; ++i) {
      ids.push_back(dict->GetOrAdd(NumberedName("t", i)));
      ASSERT_TRUE(dict->AddFrequency(ids.back(), 1 + rng() % 4).ok());
    }
    std::vector<TokenSeq> entities;
    const size_t ne = 3 + rng() % 8;
    for (size_t i = 0; i < ne; ++i) {
      TokenSeq e;
      const size_t len = 1 + rng() % 4;
      for (size_t j = 0; j < len; ++j) e.push_back(ids[rng() % vocab]);
      entities.push_back(std::move(e));
    }
    dict->Freeze();
    auto f = Faerie::Build(entities, dict);
    ASSERT_TRUE(f.ok());

    TokenSeq doc_tokens;
    const size_t n = 20 + rng() % 60;
    for (size_t i = 0; i < n; ++i) {
      if (rng() % 4 == 0) {
        const TokenSeq& e = entities[rng() % entities.size()];
        doc_tokens.insert(doc_tokens.end(), e.begin(), e.end());
      } else {
        doc_tokens.push_back(ids[rng() % vocab]);
      }
    }
    const Document doc = Document::FromTokens(doc_tokens);

    std::vector<TokenSeq> sets;
    for (size_t i = 0; i < (*f)->num_entities(); ++i) {
      sets.push_back((*f)->entity_set(i));
    }
    for (double tau : {0.7, 0.8, 0.9}) {
      EXPECT_EQ(Keys((*f)->Extract(doc, tau)),
                Oracle(sets, doc, tau, *dict, (*f)->min_set_size(),
                       (*f)->max_set_size()))
          << "iter=" << iter << " tau=" << tau;
    }
  }
}

TEST(FaerieTest, StatsAreReported) {
  auto dict = std::make_shared<TokenDictionary>();
  const TokenId a = dict->GetOrAdd("a");
  const TokenId b = dict->GetOrAdd("b");
  dict->Freeze();
  auto f = Faerie::Build({{a, b}}, dict);
  ASSERT_TRUE(f.ok());
  const Document doc = Document::FromTokens({a, b, a, b});
  Faerie::Stats stats;
  (*f)->Extract(doc, 0.8, &stats);
  EXPECT_GT(stats.position_entries, 0u);
  EXPECT_GT(stats.candidates, 0u);
  EXPECT_EQ(stats.candidates, stats.verified);
}

TEST(FaerieTest, MemoryBytesPositive) {
  auto dict = std::make_shared<TokenDictionary>();
  const TokenId a = dict->GetOrAdd("a");
  dict->Freeze();
  auto f = Faerie::Build({{a}}, dict);
  ASSERT_TRUE(f.ok());
  EXPECT_GT((*f)->MemoryBytes(), 0u);
}

}  // namespace
}  // namespace aeetes
