// Seeded inputs of the three workloads.
//
// The dictionary and rules of each workload are fixed by its profile's own
// seed: the generator's rule process is heavy-tailed (a shared frequent
// left-hand side can multiply the derived dictionary), so a dictionary
// drawn per run would move every timing by tens of percent from one seed
// to the next. The run seed draws everything else: which documents of a
// fixed generated pool form the document set, the held-out split, the
// document slices and the never-seen tokens (and, in serve.cc, arrival
// times and write order).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/common/logging.h"
#include "src/datagen/profile.h"
#include "src/text/tokenizer.h"

namespace perfbench {

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  // splitmix64 finalizer over the pair.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

/// Generates `profile` with `pool` documents and keeps a seeded sample of
/// `keep` of them.
aeetes::SyntheticDataset SampleDocuments(aeetes::DatasetProfile profile,
                                         size_t pool, size_t keep,
                                         uint64_t seed) {
  profile.num_documents = pool;
  aeetes::SyntheticDataset ds = aeetes::GenerateDataset(profile);
  std::vector<uint32_t> order(ds.documents.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(MixSeed(seed, 0xd0c5));
  std::shuffle(order.begin(), order.end(), rng);
  order.resize(std::min(keep, order.size()));
  std::vector<uint32_t> new_index(ds.documents.size(), UINT32_MAX);
  std::vector<std::string> docs;
  for (uint32_t i : order) {
    new_index[i] = static_cast<uint32_t>(docs.size());
    docs.push_back(std::move(ds.documents[i]));
  }
  std::vector<aeetes::GroundTruthPair> truth;
  for (aeetes::GroundTruthPair g : ds.ground_truth) {
    if (new_index[g.doc] == UINT32_MAX) continue;
    g.doc = new_index[g.doc];
    truth.push_back(g);
  }
  ds.documents = std::move(docs);
  ds.ground_truth = std::move(truth);
  return ds;
}

// The efficiency scale of the paper-figure benches: the dictionary grows
// 16x while the vocabulary grows by its fourth root (Heaps' law) and the
// rule count stays put, so inverted lists lengthen as in the paper's
// 100k+-entity corpora.
aeetes::DatasetProfile EfficiencyScale(aeetes::DatasetProfile p) {
  constexpr size_t kScale = 16;
  constexpr size_t kVocabScale = 2;  // 16^(1/4)
  p.num_entities *= kScale;
  p.entity_vocab *= kVocabScale;
  p.synonym_vocab *= kVocabScale;
  p.background_vocab *= kVocabScale;
  return p;
}

}  // namespace

LibraryCorpus MakeLibraryCorpus(const std::string& workload, uint64_t seed) {
  LibraryCorpus corpus;
  if (workload == "pubmed-filter") {
    // ~188-token documents; filter dominates engine time.
    corpus.dataset = SampleDocuments(
        EfficiencyScale(aeetes::PubMedLikeProfile()), 6000, 2000, seed);
    corpus.tau = 0.85;
    corpus.faerie_sample = 16;
  } else {
    // ~322-token documents over ~7-token entities with ~20 applicable
    // rules each; verification dominates engine time.
    AEETES_CHECK(workload == "usjob-verify") << workload;
    corpus.dataset = SampleDocuments(
        EfficiencyScale(aeetes::USJobLikeProfile()), 800, 400, seed);
    corpus.tau = 0.75;
    corpus.faerie_sample = 4;
  }
  return corpus;
}

ServeCorpus MakeServeCorpus(uint64_t seed) {
  constexpr size_t kSliceTokens = 32;
  // ~1,500 planted mentions to slice around.
  const aeetes::SyntheticDataset ds =
      SampleDocuments(aeetes::PubMedLikeProfile(), 1200, 300, seed);

  ServeCorpus corpus;
  corpus.rules = ds.rule_lines;

  // Distinct entities only: a held-out text equal to a kept one would make
  // remove/re-upsert tombstone the frozen copy, and the rebuild check
  // compares against a dictionary without duplicates.
  const aeetes::Tokenizer tokenizer;
  std::set<std::string> seen;
  std::vector<std::string> entities;
  for (const std::string& e : ds.entity_texts) {
    std::string key;
    for (const std::string& t : tokenizer.TokenizeToStrings(e)) {
      key += t;
      key += ' ';
    }
    if (seen.insert(key).second) entities.push_back(e);
  }
  std::mt19937_64 rng(MixSeed(seed, 0x5e21));
  std::shuffle(entities.begin(), entities.end(), rng);
  const size_t held = entities.size() / 10;
  corpus.held_out.assign(entities.begin(),
                         entities.begin() + static_cast<ptrdiff_t>(held));
  corpus.create_entities.assign(
      entities.begin() + static_cast<ptrdiff_t>(held), entities.end());

  // One slice per planted mention: a kSliceTokens window that contains the
  // whole mention at a seeded offset.
  std::vector<std::vector<aeetes::RawToken>> doc_tokens;
  doc_tokens.reserve(ds.documents.size());
  for (const std::string& d : ds.documents) {
    doc_tokens.push_back(tokenizer.Tokenize(d));
  }
  for (const aeetes::GroundTruthPair& g : ds.ground_truth) {
    const std::vector<aeetes::RawToken>& toks = doc_tokens[g.doc];
    if (toks.size() < kSliceTokens || g.token_len > kSliceTokens ||
        g.token_begin + g.token_len > toks.size()) {
      continue;
    }
    const size_t slack = kSliceTokens - g.token_len;
    size_t begin = g.token_begin - std::min<size_t>(g.token_begin,
                                                     rng() % (slack + 1));
    begin = std::min(begin, toks.size() - kSliceTokens);
    const size_t last = begin + kSliceTokens - 1;
    const std::string& text = ds.documents[g.doc];
    corpus.slices.push_back(
        text.substr(toks[begin].begin, toks[last].end - toks[begin].begin));
  }
  AEETES_CHECK(!corpus.slices.empty());
  std::shuffle(corpus.slices.begin(), corpus.slices.end(), rng);
  return corpus;
}

std::string FreshDocument(const ServeCorpus& corpus, uint64_t seed,
                          uint64_t i) {
  // Digits never occur in generated vocabulary, and `i` makes each token
  // unique to its request, so both tokens are new to the daemon.
  const uint64_t r = MixSeed(seed, i);
  char head[48];
  char tail[48];
  std::snprintf(head, sizeof(head), "id%llux%05llx",
                static_cast<unsigned long long>(i),
                static_cast<unsigned long long>(r & 0xfffff));
  std::snprintf(tail, sizeof(tail), "r%05llxq%llu",
                static_cast<unsigned long long>((r >> 20) & 0xfffff),
                static_cast<unsigned long long>(i));
  std::string doc = head;
  doc += ' ';
  doc += corpus.slices[i % corpus.slices.size()];
  doc += ' ';
  doc += tail;
  return doc;
}

}  // namespace perfbench
