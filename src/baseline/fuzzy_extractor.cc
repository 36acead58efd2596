#include "src/baseline/fuzzy_extractor.h"

#include <algorithm>
#include <limits>

#include "src/sim/similarity.h"
#include "src/text/token_set.h"

namespace aeetes {

FuzzyExtractor::FuzzyExtractor(std::vector<TokenSeq> entities,
                               const TokenDictionary& dict,
                               FuzzyJaccardOptions options)
    : dict_(dict), fj_(options) {
  entity_texts_.reserve(entities.size());
  min_size_ = std::numeric_limits<size_t>::max();
  max_size_ = 0;
  for (const TokenSeq& e : entities) {
    const TokenSeq set = BuildOrderedSet(e, dict_);
    min_size_ = std::min(min_size_, set.size());
    max_size_ = std::max(max_size_, set.size());
    std::vector<std::string>& texts = entity_texts_.emplace_back();
    for (const TokenId t : set) texts.emplace_back(dict_.Text(t));
  }
}

std::vector<Match> FuzzyExtractor::Extract(const Document& doc,
                                           double tau) const {
  std::vector<Match> out;
  const size_t n = doc.size();
  // The fuzzy matching weight M satisfies M <= min(|s|, |e|), so FJ obeys
  // the same length filter as Jaccard.
  const LengthRange win_len =
      SubstringLengthBounds(Metric::kJaccard, min_size_, max_size_, tau);
  std::vector<std::string> window_texts;
  for (size_t p = 0; p < n; ++p) {
    const size_t max_len = std::min<size_t>(win_len.hi, n - p);
    for (size_t l = win_len.lo; l <= max_len; ++l) {
      TokenSeq slice(doc.tokens().begin() + p, doc.tokens().begin() + p + l);
      const TokenSeq set = BuildOrderedSet(slice, dict_);
      // Texts come from the document: its unseen tokens are not in dict_.
      window_texts.clear();
      for (size_t i = p; i < p + l; ++i) {
        window_texts.emplace_back(doc.TokenText(i, dict_));
      }
      for (uint32_t e = 0; e < entity_texts_.size(); ++e) {
        const size_t x = set.size();
        const size_t y = entity_texts_[e].size();
        // FJ <= min(x, y) / max(x, y): the length filter.
        if (static_cast<double>(std::min(x, y)) <
            tau * static_cast<double>(std::max(x, y)) - 1e-9) {
          continue;
        }
        const double score = fj_.Similarity(window_texts, entity_texts_[e]);
        if (ScorePasses(score, tau)) {
          out.push_back(Match{static_cast<uint32_t>(p),
                              static_cast<uint32_t>(l), e, score,
                              JaccArScore::kNoDerived});
        }
      }
    }
  }
  return out;
}

}  // namespace aeetes
