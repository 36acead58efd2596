#ifndef AEETES_CORE_DOCUMENT_H_
#define AEETES_CORE_DOCUMENT_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/text/token.h"
#include "src/text/token_dictionary.h"
#include "src/text/tokenizer.h"

namespace aeetes {

/// A tokenized, encoded document. Encoding only reads the dictionary: a
/// known token keeps its id, and the k-th distinct token the dictionary
/// lacks (an "invalid token", Section 3.2 of the paper) gets id
/// `dict.size() + k`, which the dictionary reads as frequency 0 — rarest
/// in the global order, distinct from every other token, shared by the
/// token's repeated occurrences. Those texts live in the document, so the
/// dictionary never grows. Byte spans are retained so matches can be
/// reported as character ranges of the original text.
class Document {
 public:
  /// An empty document.
  Document() = default;

  /// Tokenizes `text` and encodes its tokens against `dict` (read-only;
  /// safe concurrently with any other reader of `dict`).
  static Document FromText(std::string_view text, const Tokenizer& tokenizer,
                           const TokenDictionary& dict);

  /// Wraps an already-encoded token sequence (spans and texts unavailable).
  static Document FromTokens(TokenSeq tokens);

  /// Tokens [begin, begin + len) as a document of their own, keeping this
  /// document's ids and unseen-token texts (spans and text are dropped).
  [[nodiscard]] Document Slice(size_t begin, size_t len) const;

  [[nodiscard]] const TokenSeq& tokens() const { return tokens_; }
  [[nodiscard]] size_t size() const { return tokens_.size(); }

  /// One past the largest token id the document may hold: arrays indexed
  /// by TokenId need this many slots (at least `dict.size()`).
  [[nodiscard]] size_t token_id_end() const { return token_id_end_; }

  /// Text of token `i`: the dictionary's for a known token, the
  /// document's own for an unseen one (empty when built from tokens).
  /// `dict` must be the dictionary the document was encoded against.
  [[nodiscard]] std::string_view TokenText(size_t i,
                                           const TokenDictionary& dict) const {
    const TokenId t = tokens_[i];
    if (t < dict.size()) return dict.Text(t);
    const size_t k = t - dict.size();
    if (unseen_ == nullptr || k + 1 >= unseen_->begin.size()) return {};
    return unseen_->Text(k);
  }

  /// Byte span of token `i` in the original text, or {0,0} when the
  /// document was built from tokens.
  [[nodiscard]] std::pair<size_t, size_t> TokenSpan(size_t i) const {
    if (i >= spans_.size()) return {0, 0};
    return spans_[i];
  }

  /// Byte range covering tokens [begin, begin + len).
  [[nodiscard]] std::pair<size_t, size_t> SubstringSpan(size_t begin,
                                                        size_t len) const;

  /// The original text (empty when built from tokens).
  [[nodiscard]] const std::string& text() const { return text_; }

  /// Substring text for tokens [begin, begin + len).
  [[nodiscard]] std::string SubstringText(size_t begin, size_t len) const;

 private:
  std::string text_;
  TokenSeq tokens_;
  std::vector<std::pair<size_t, size_t>> spans_;
  /// Texts of the unseen tokens, concatenated: id `dict.size() + k` is
  /// blob[begin[k], begin[k + 1]).
  struct UnseenTexts {
    std::string blob;
    std::vector<uint32_t> begin{0};
    [[nodiscard]] std::string_view Text(size_t k) const {
      return std::string_view(blob).substr(begin[k], begin[k + 1] - begin[k]);
    }
  };
  /// Shared, so slices of one document do not copy it.
  std::shared_ptr<const UnseenTexts> unseen_;
  size_t token_id_end_ = 0;
};

}  // namespace aeetes

#endif  // AEETES_CORE_DOCUMENT_H_
