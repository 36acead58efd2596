#ifndef AEETES_BASELINE_FUZZY_EXTRACTOR_H_
#define AEETES_BASELINE_FUZZY_EXTRACTOR_H_

#include <string>
#include <vector>

#include "src/core/document.h"
#include "src/core/verifier.h"
#include "src/sim/fuzzy_jaccard.h"
#include "src/text/token.h"
#include "src/text/token_dictionary.h"

namespace aeetes {

/// The FJ baseline of Table 2: sliding-window extraction under Fuzzy
/// Jaccard (typo-tolerant token matching, no synonym awareness).
/// Brute-force verification — intended for the effectiveness experiments,
/// which use modest corpora.
class FuzzyExtractor {
 public:
  FuzzyExtractor(std::vector<TokenSeq> entities, const TokenDictionary& dict,
                 FuzzyJaccardOptions options = {});

  [[nodiscard]] std::vector<Match> Extract(const Document& doc,
                                           double tau) const;

 private:
  const TokenDictionary& dict_;
  /// Distinct token texts of each entity (FJ compares texts).
  std::vector<std::vector<std::string>> entity_texts_;
  size_t min_size_ = 0;
  size_t max_size_ = 0;
  FuzzyJaccard fj_;
};

}  // namespace aeetes

#endif  // AEETES_BASELINE_FUZZY_EXTRACTOR_H_
