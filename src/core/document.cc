#include "src/core/document.h"

#include <algorithm>
#include <cstdint>

#include "src/common/hash.h"
#include "src/common/logging.h"

namespace aeetes {

Document Document::FromText(std::string_view text, const Tokenizer& tokenizer,
                            const TokenDictionary& dict) {
  Document doc;
  doc.text_ = std::string(text);
  // Unseen-token texts are addressed by 32-bit offsets.
  AEETES_CHECK_LE(text.size(), size_t{UINT32_MAX}) << "document too large";
  const std::vector<RawToken> raw = tokenizer.Tokenize(text);
  doc.tokens_.reserve(raw.size());
  doc.spans_.reserve(raw.size());

  // Unseen tokens are deduplicated through a small open-addressing table
  // sized for the worst case of all tokens unseen. A slot packs the high
  // half of the token's hash over k + 1 (0 = empty); each token is hashed
  // once, for both the dictionary probe and this table.
  UnseenTexts unseen;
  std::vector<uint64_t> table;
  size_t mask = 0;
  const TokenId base = static_cast<TokenId>(dict.size());
  for (const RawToken& rt : raw) {
    const uint64_t hash = HashBytes(rt.text.data(), rt.text.size());
    if (const std::optional<TokenId> id = dict.Lookup(rt.text, hash)) {
      doc.tokens_.push_back(*id);
    } else {
      if (table.empty()) {
        size_t slots = 8;
        while (slots < 2 * raw.size()) slots <<= 1;
        table.assign(slots, 0);
        mask = slots - 1;
      }
      const uint64_t tag = hash & 0xFFFFFFFF00000000ULL;
      size_t slot = static_cast<size_t>(hash) & mask;
      uint32_t k1 = 0;  // k + 1 of the matching entry, 0 while probing
      for (; table[slot] != 0; slot = (slot + 1) & mask) {
        const uint32_t entry = static_cast<uint32_t>(table[slot]);
        if ((table[slot] & ~0xFFFFFFFFULL) == tag &&
            unseen.Text(entry - 1) == rt.text) {
          k1 = entry;
          break;
        }
      }
      if (k1 == 0) {
        unseen.blob += rt.text;
        unseen.begin.push_back(static_cast<uint32_t>(unseen.blob.size()));
        k1 = static_cast<uint32_t>(unseen.begin.size() - 1);
        table[slot] = tag | k1;
      }
      doc.tokens_.push_back(base + k1 - 1);
    }
    doc.spans_.emplace_back(rt.begin, rt.end);
  }
  doc.token_id_end_ = dict.size() + unseen.begin.size() - 1;
  if (unseen.begin.size() > 1) {
    doc.unseen_ = std::make_shared<const UnseenTexts>(std::move(unseen));
  }
  return doc;
}

Document Document::FromTokens(TokenSeq tokens) {
  Document doc;
  doc.tokens_ = std::move(tokens);
  for (const TokenId t : doc.tokens_) {
    doc.token_id_end_ = std::max<size_t>(doc.token_id_end_, size_t{t} + 1);
  }
  return doc;
}

Document Document::Slice(size_t begin, size_t len) const {
  Document doc;
  const auto first = tokens_.begin() + static_cast<ptrdiff_t>(begin);
  doc.tokens_.assign(first, first + static_cast<ptrdiff_t>(len));
  doc.unseen_ = unseen_;
  doc.token_id_end_ = token_id_end_;
  return doc;
}

std::pair<size_t, size_t> Document::SubstringSpan(size_t begin,
                                                  size_t len) const {
  if (len == 0 || begin >= spans_.size()) return {0, 0};
  const size_t last = std::min(begin + len, spans_.size()) - 1;
  return {spans_[begin].first, spans_[last].second};
}

std::string Document::SubstringText(size_t begin, size_t len) const {
  const auto [b, e] = SubstringSpan(begin, len);
  if (e <= b || e > text_.size()) return "";
  return text_.substr(b, e - b);
}

}  // namespace aeetes
