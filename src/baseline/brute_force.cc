#include "src/baseline/brute_force.h"

#include <algorithm>

#include "src/text/token_set.h"

namespace aeetes {

std::vector<Match> BruteForceExtract(const Document& doc,
                                     const DerivedDictionary& dd, double tau,
                                     const JaccArOptions& options) {
  std::vector<Match> out;
  const size_t n = doc.size();
  const LengthRange win_len = SubstringLengthBounds(
      options.metric, dd.min_set_size(), dd.max_set_size(), tau);
  const JaccArVerifier verifier(dd, options);
  for (size_t p = 0; p < n; ++p) {
    const size_t max_len = std::min<size_t>(win_len.hi, n - p);
    for (size_t l = win_len.lo; l <= max_len; ++l) {
      TokenSeq slice(doc.tokens().begin() + p, doc.tokens().begin() + p + l);
      const TokenSeq set = BuildOrderedSet(slice, dd.token_dict());
      for (EntityId e = 0; e < dd.num_origins(); ++e) {
        const JaccArScore s = verifier.Score(e, set, /*tau=*/0.0);
        if (ScorePasses(s.score, tau)) {
          out.push_back(Match{static_cast<uint32_t>(p),
                              static_cast<uint32_t>(l), e, s.score,
                              s.best_derived});
        }
      }
    }
  }
  return out;
}

std::vector<Match> BruteForceFuzzyExtract(const Document& doc,
                                          const DerivedDictionary& dd,
                                          double tau,
                                          FuzzyJaccardOptions fuzzy,
                                          bool weighted) {
  std::vector<Match> out;
  const size_t n = doc.size();
  // FJ obeys the same length relation as Jaccard (matching weight is
  // bounded by min set size), so the window bounds stay valid.
  const LengthRange win_len = SubstringLengthBounds(
      Metric::kJaccard, dd.min_set_size(), dd.max_set_size(), tau);
  const FuzzyJaccArVerifier verifier(dd, fuzzy, weighted);
  std::vector<std::string> texts;
  for (size_t p = 0; p < n; ++p) {
    const size_t max_len = std::min<size_t>(win_len.hi, n - p);
    for (size_t l = win_len.lo; l <= max_len; ++l) {
      // Texts come from the document: its unseen tokens are not in dd.
      texts.clear();
      for (size_t i = p; i < p + l; ++i) {
        texts.emplace_back(doc.TokenText(i, dd.token_dict()));
      }
      for (EntityId e = 0; e < dd.num_origins(); ++e) {
        const JaccArScore s = verifier.Score(e, texts);
        if (ScorePasses(s.score, tau)) {
          out.push_back(Match{static_cast<uint32_t>(p),
                              static_cast<uint32_t>(l), e, s.score,
                              s.best_derived});
        }
      }
    }
  }
  return out;
}

}  // namespace aeetes
