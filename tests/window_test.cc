#include "src/core/window.h"

#include <gtest/gtest.h>

#include <random>

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

class WindowTest : public testing::Test {
 protected:
  void SetUp() override {
    for (size_t i = 0; i < 10; ++i) {
      const TokenId id = dict_.GetOrAdd(NumberedName("w", i));
      ASSERT_TRUE(dict_.AddFrequency(id, i + 1).ok());  // rank = id order
    }
    dict_.Freeze();
  }

  Document Doc(const TokenSeq& tokens) { return Document::FromTokens(tokens); }

  TokenDictionary dict_;
};

TEST_F(WindowTest, ResetBuildsOrderedSet) {
  const Document doc = Doc({5, 2, 8, 2});
  SlidingWindow w(doc, dict_);
  w.Reset(0, 4);
  EXPECT_EQ(w.pos(), 0u);
  EXPECT_EQ(w.len(), 4u);
  EXPECT_EQ(w.set_size(), 3u);  // {2, 5, 8} with duplicate 2
  EXPECT_EQ(w.DistinctToken(0), 2u);
  EXPECT_EQ(w.DistinctToken(1), 5u);
  EXPECT_EQ(w.DistinctToken(2), 8u);
}

TEST_F(WindowTest, ExtendAddsTrailingToken) {
  const Document doc = Doc({5, 2, 8});
  SlidingWindow w(doc, dict_);
  w.Reset(0, 2);
  ASSERT_TRUE(w.Extend());
  EXPECT_EQ(w.len(), 3u);
  EXPECT_EQ(w.OrderedSet(), (TokenSeq{2, 5, 8}));
  EXPECT_FALSE(w.Extend());  // document end
}

TEST_F(WindowTest, MigrateShiftsWindow) {
  const Document doc = Doc({5, 2, 8, 1});
  SlidingWindow w(doc, dict_);
  w.Reset(0, 2);  // {2, 5}
  ASSERT_TRUE(w.Migrate());
  EXPECT_EQ(w.pos(), 1u);
  EXPECT_EQ(w.len(), 2u);
  EXPECT_EQ(w.OrderedSet(), (TokenSeq{2, 8}));
  ASSERT_TRUE(w.Migrate());
  EXPECT_EQ(w.OrderedSet(), (TokenSeq{1, 8}));
  EXPECT_FALSE(w.Migrate());
}

TEST_F(WindowTest, DuplicateCountsSurviveMigration) {
  const Document doc = Doc({3, 3, 3, 5});
  SlidingWindow w(doc, dict_);
  w.Reset(0, 2);  // {3 x2}
  EXPECT_EQ(w.set_size(), 1u);
  ASSERT_TRUE(w.Migrate());  // removes one 3, adds 3 -> still {3 x2}
  EXPECT_EQ(w.set_size(), 1u);
  ASSERT_TRUE(w.Migrate());  // {3, 5}
  EXPECT_EQ(w.set_size(), 2u);
}

TEST_F(WindowTest, InvalidTokensSortFirst) {
  // A token the dictionary lacks (id past its end, as Document::FromText
  // assigns) has frequency 0 -> lowest rank.
  const TokenId oov = static_cast<TokenId>(dict_.size());
  const Document doc = Doc({5, oov});
  SlidingWindow w(doc, dict_);
  w.Reset(0, 2);
  EXPECT_EQ(w.DistinctToken(0), oov);
}

TEST(WindowPropertyTest, IncrementalStateMatchesFromScratch) {
  std::mt19937_64 rng(31);
  for (int iter = 0; iter < 60; ++iter) {
    TokenDictionary dict;
    const size_t vocab = 12;
    for (size_t i = 0; i < vocab; ++i) {
      const TokenId id = dict.GetOrAdd(NumberedName("t", i));
      ASSERT_TRUE(dict.AddFrequency(id, rng() % 6).ok());
    }
    dict.Freeze();
    TokenSeq tokens;
    const size_t n = 10 + rng() % 40;
    for (size_t i = 0; i < n; ++i) {
      tokens.push_back(static_cast<TokenId>(rng() % vocab));
    }
    const Document doc = Document::FromTokens(tokens);

    // Random walk of Extend/Migrate, checking equality with a rebuilt
    // window at every step.
    SlidingWindow w(doc, dict);
    size_t pos = 0, len = 1 + rng() % 4;
    if (pos + len > n) len = n - pos;
    w.Reset(pos, len);
    for (int step = 0; step < 60; ++step) {
      const bool extend = (rng() % 2) == 0;
      if (extend) {
        if (!w.Extend()) continue;
        ++len;
      } else {
        if (!w.Migrate()) continue;
        ++pos;
      }
      SlidingWindow fresh(doc, dict);
      fresh.Reset(pos, len);
      ASSERT_EQ(w.pos(), pos);
      ASSERT_EQ(w.len(), len);
      ASSERT_EQ(w.OrderedSet(), fresh.OrderedSet())
          << "iter=" << iter << " step=" << step;
    }
  }
}

TEST(WindowPropertyTest, OrderedSetMatchesBuildOrderedSet) {
  std::mt19937_64 rng(77);
  TokenDictionary dict;
  for (size_t i = 0; i < 9; ++i) {
    const TokenId id = dict.GetOrAdd(NumberedName("t", i));
    ASSERT_TRUE(dict.AddFrequency(id, 1 + rng() % 4).ok());
  }
  dict.Freeze();
  TokenSeq tokens;
  for (size_t i = 0; i < 50; ++i) {
    tokens.push_back(static_cast<TokenId>(rng() % 9));
  }
  const Document doc = Document::FromTokens(tokens);
  SlidingWindow w(doc, dict);
  for (size_t p = 0; p + 5 <= doc.size(); p += 3) {
    w.Reset(p, 5);
    const TokenSeq expect = BuildOrderedSet(
        TokenSeq(tokens.begin() + p, tokens.begin() + p + 5), dict);
    EXPECT_EQ(w.OrderedSet(), expect);
  }
}

}  // namespace
}  // namespace aeetes
