#include "src/core/document.h"

#include <gtest/gtest.h>

#include "src/common/hash.h"

namespace aeetes {
namespace {

TEST(DocumentTest, FromTextTracksSpans) {
  Tokenizer tokenizer;
  TokenDictionary dict;
  const Document doc =
      Document::FromText("Hello, New York!", tokenizer, dict);
  ASSERT_EQ(doc.size(), 3u);
  EXPECT_EQ(doc.TokenSpan(0), (std::pair<size_t, size_t>{0, 5}));
  EXPECT_EQ(doc.SubstringText(1, 2), "New York");
  EXPECT_EQ(doc.SubstringText(0, 3), "Hello, New York");
}

TEST(DocumentTest, SubstringSpanClampsAtEnd) {
  Tokenizer tokenizer;
  TokenDictionary dict;
  const Document doc = Document::FromText("a b c", tokenizer, dict);
  EXPECT_EQ(doc.SubstringText(1, 99), "b c");
  EXPECT_EQ(doc.SubstringText(5, 1), "");
  EXPECT_EQ(doc.SubstringText(0, 0), "");
}

TEST(DocumentTest, FromTokensHasNoSpans) {
  const Document doc = Document::FromTokens({1, 2, 3});
  EXPECT_EQ(doc.size(), 3u);
  EXPECT_EQ(doc.TokenSpan(0), (std::pair<size_t, size_t>{0, 0}));
  EXPECT_EQ(doc.SubstringText(0, 2), "");
  EXPECT_TRUE(doc.text().empty());
}

TEST(DocumentTest, DefaultIsEmpty) {
  const Document doc;
  EXPECT_EQ(doc.size(), 0u);
}

// Encoding never writes the dictionary: unseen tokens get per-document ids
// from dict.size() upwards, one per distinct text, with frequency 0, and
// their texts live in the document.
TEST(DocumentTest, UnseenTokensGetPerDocumentIds) {
  Tokenizer tokenizer;
  TokenDictionary dict;
  const TokenId york = dict.GetOrAdd("york");
  ASSERT_TRUE(dict.AddFrequency(york, 2).ok());
  dict.Freeze();
  const size_t dict_size = dict.size();

  const Document doc =
      Document::FromText("new york and new jersey", tokenizer, dict);
  EXPECT_EQ(dict.size(), dict_size);
  ASSERT_EQ(doc.size(), 5u);
  const TokenSeq& t = doc.tokens();
  EXPECT_EQ(t[1], york);
  EXPECT_EQ(t[0], t[3]);  // "new" twice: one id
  EXPECT_NE(t[0], t[2]);
  EXPECT_NE(t[0], t[4]);
  EXPECT_NE(t[2], t[4]);
  for (const size_t i : {0, 2, 4}) {
    EXPECT_GE(t[i], dict_size);
    EXPECT_LT(t[i], doc.token_id_end());
    EXPECT_EQ(dict.frequency(t[i]), 0u);
    EXPECT_LT(dict.Rank(t[i]), dict.Rank(york));
  }
  EXPECT_EQ(doc.TokenText(0, dict), "new");
  EXPECT_EQ(doc.TokenText(1, dict), "york");
  EXPECT_EQ(doc.TokenText(2, dict), "and");
  EXPECT_EQ(doc.TokenText(3, dict), "new");
  EXPECT_EQ(doc.TokenText(4, dict), "jersey");

  // A slice keeps the ids and the unseen-token texts.
  const Document slice = doc.Slice(2, 3);
  ASSERT_EQ(slice.size(), 3u);
  EXPECT_EQ(slice.tokens()[1], t[3]);
  EXPECT_EQ(slice.TokenText(0, dict), "and");
  EXPECT_EQ(slice.TokenText(1, dict), "new");
  EXPECT_EQ(slice.TokenText(2, dict), "jersey");
  EXPECT_EQ(slice.token_id_end(), doc.token_id_end());
}

TEST(HashTest, IntVectorHashIsDeterministicAndOrderSensitive) {
  const std::vector<uint32_t> a = {1, 2, 3};
  const std::vector<uint32_t> b = {3, 2, 1};
  IntVectorHash<uint32_t> h;
  EXPECT_EQ(h(a), h(a));
  EXPECT_NE(h(a), h(b));  // order matters
  EXPECT_NE(h(a), h(std::vector<uint32_t>{1, 2}));
}

TEST(HashTest, HashCombineChanges) {
  size_t s1 = 0, s2 = 0;
  HashCombine(s1, 1);
  HashCombine(s2, 2);
  EXPECT_NE(s1, s2);
}

}  // namespace
}  // namespace aeetes
