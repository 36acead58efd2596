#include "src/core/corpus.h"

#include <algorithm>
#include <utility>

#include "src/runtime/parallel_extractor.h"

namespace aeetes {

Result<CorpusExtraction> ExtractCorpus(
    const Aeetes& aeetes, const std::vector<std::string>& documents, double tau,
    const CorpusExtractionOptions& options) {
  if (!(tau > 0.0) || tau > 1.0) {
    return Status::InvalidArgument("threshold must be in (0, 1]");
  }
  CorpusExtraction out;
  out.per_document.resize(documents.size());
  if (documents.empty()) return out;

  std::vector<Document> encoded;
  encoded.reserve(documents.size());
  for (const std::string& text : documents) {
    encoded.push_back(aeetes.EncodeDocument(text));
  }

  // The runtime pool fans extraction out and merges deterministically.
  ParallelExtractorOptions popts;
  popts.num_threads = options.num_threads;
  AEETES_ASSIGN_OR_RETURN(std::unique_ptr<ParallelExtractor> extractor,
                          ParallelExtractor::Create(aeetes, popts));
  AEETES_ASSIGN_OR_RETURN(ParallelExtraction result,
                          extractor->ExtractAll(encoded, tau));

  for (size_t i = 0; i < result.per_document.size(); ++i) {
    DocumentMatches& dm = out.per_document[i];
    DocumentExtraction& de = result.per_document[i];
    dm.doc = de.doc;
    dm.matches = std::move(de.matches);
    dm.filter_stats = de.filter_stats;
  }
  out.total_filter_stats = result.filter_stats;
  out.total_matches = result.total_matches;
  return out;
}

std::vector<Match> TopKByScore(std::vector<Match> matches, size_t k) {
  auto better = [](const Match& a, const Match& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.token_begin != b.token_begin) return a.token_begin < b.token_begin;
    if (a.token_len != b.token_len) return a.token_len < b.token_len;
    return a.entity < b.entity;
  };
  if (k < matches.size()) {
    std::nth_element(matches.begin(), matches.begin() + static_cast<long>(k),
                     matches.end(), better);
    matches.resize(k);
  }
  std::sort(matches.begin(), matches.end(), better);
  return matches;
}

}  // namespace aeetes
