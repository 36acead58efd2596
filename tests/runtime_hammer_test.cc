// Concurrency hammer for the runtime subsystem — the proof obligation for
// the thread-safety contract in aeetes.h. One shared Aeetes serves over a
// thousand extraction tasks on >= 4 pool workers while other threads
// concurrently run LookupString and export metrics; run under the tsan
// preset (tools/check.sh tsan) this exercises every cross-thread edge the
// online path has: the work-stealing deques, the injection queue, the
// parking protocol, the relaxed metric counters, and the read-only
// dictionary/index probes.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/aeetes.h"
#include "src/datagen/generator.h"
#include "src/datagen/profile.h"
#include "src/runtime/parallel_extractor.h"
#include "src/runtime/thread_pool.h"
#include "tests/test_util.h"

namespace aeetes {
namespace {

using testutil::NumberedName;

TEST(RuntimeHammerTest, SharedAeetesUnderConcurrentLoad) {
  DatasetProfile profile = PubMedLikeProfile();
  profile.num_entities = 120;
  profile.num_documents = 16;
  profile.num_rules = 50;
  profile.doc_len = 60;
  const SyntheticDataset ds = GenerateDataset(profile);
  auto built = Aeetes::BuildFromText(ds.entity_texts, ds.rule_lines);
  ASSERT_TRUE(built.ok()) << built.status();
  const Aeetes& aeetes = **built;

  // Serial phase: encode once, then replicate to >= 1k extraction tasks.
  std::vector<Document> base;
  for (const std::string& text : ds.documents) {
    base.push_back((*built)->EncodeDocument(text));
  }
  std::vector<Document> corpus;
  while (corpus.size() < 1024) {
    corpus.insert(corpus.end(), base.begin(), base.end());
  }

  ParallelExtractorOptions opts;
  opts.num_threads = 4;
  opts.queue_capacity = 64;  // keep the backpressure path hot
  auto extractor = ParallelExtractor::Create(aeetes, opts);
  ASSERT_TRUE(extractor.ok());
  ASSERT_EQ((*extractor)->num_threads(), 4u);

  // Concurrent readers of the shared instance while extraction runs:
  // LookupString (const, non-interning) and the metrics export.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> lookups{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        auto hits =
            aeetes.LookupString(ds.entity_texts[i % ds.entity_texts.size()],
                                0.7);
        ASSERT_TRUE(hits.ok());
        (void)aeetes.metrics().ToJson();
        lookups.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }

  auto first = (*extractor)->ExtractAll(corpus, 0.8);
  auto second = (*extractor)->ExtractAll(corpus, 0.8);
  stop.store(true);
  for (auto& r : readers) r.join();

  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->per_document.size(), corpus.size());
  EXPECT_GT(lookups.load(), 0u);

  // Determinism across two runs over the same pool, and replica
  // consistency: every copy of base document d must yield identical
  // results.
  EXPECT_EQ(first->total_matches, second->total_matches);
  EXPECT_EQ(first->verify_stats.verified, second->verify_stats.verified);
  for (size_t i = 0; i < corpus.size(); ++i) {
    const auto& a = first->per_document[i].matches;
    const auto& b = second->per_document[i].matches;
    ASSERT_EQ(a, b) << "doc " << i;
    const auto& canonical = first->per_document[i % base.size()].matches;
    ASSERT_EQ(a, canonical) << "replica " << i;
  }
}

// Encoding is as const as extraction: threads encode documents full of
// tokens the engine has never seen and extract from them on one shared
// instance, while a ParallelExtractor pass and LookupString calls run
// alongside. Every thread's results equal the serial ones, and the
// dictionary never grows.
TEST(RuntimeHammerTest, ConcurrentEncodeAndExtractWithUnseenTokens) {
  DatasetProfile profile = PubMedLikeProfile();
  profile.num_entities = 120;
  profile.num_documents = 8;
  profile.num_rules = 50;
  profile.doc_len = 60;
  const SyntheticDataset ds = GenerateDataset(profile);
  auto built = Aeetes::BuildFromText(ds.entity_texts, ds.rule_lines);
  ASSERT_TRUE(built.ok()) << built.status();
  const Aeetes& aeetes = **built;
  const size_t dict_size = aeetes.derived_dictionary().token_dict().size();

  // Document d with two fresh unseen tokens spliced in after its third
  // word: the matches depend only on which positions hold unseen tokens,
  // not on their texts.
  auto text_of = [&](size_t d, const std::string& tag) {
    const std::string& doc = ds.documents[d];
    size_t cut = 0;
    for (int words = 0; words < 3 && cut != std::string::npos; ++words) {
      cut = doc.find(' ', cut + 1);
    }
    if (cut == std::string::npos) cut = doc.size();
    return doc.substr(0, cut) + " " + tag + "a " + tag + "b" +
           doc.substr(cut);
  };
  std::vector<std::vector<Match>> expected;
  for (size_t d = 0; d < ds.documents.size(); ++d) {
    auto r = aeetes.Extract(aeetes.EncodeDocument(text_of(d, "serial")), 0.8);
    ASSERT_TRUE(r.ok());
    expected.push_back(r->matches);
  }

  std::vector<Document> corpus;
  for (size_t i = 0; i < 256; ++i) {
    corpus.push_back(aeetes.EncodeDocument(
        text_of(i % ds.documents.size(), NumberedName("pool", i))));
  }
  ParallelExtractorOptions opts;
  opts.num_threads = 2;
  auto extractor = ParallelExtractor::Create(aeetes, opts);
  ASSERT_TRUE(extractor.ok());

  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      ExtractScratch scratch;
      for (size_t i = 0; i < 200; ++i) {
        const size_t d = i % ds.documents.size();
        std::string tag = NumberedName("t", static_cast<size_t>(t));
        tag += NumberedName("u", i);
        const Document doc = aeetes.EncodeDocument(text_of(d, tag));
        auto r = aeetes.ExtractInto(scratch, doc, 0.8);
        if (!r.ok() || scratch.matches != expected[d]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        auto hits = aeetes.LookupString(tag + " " + ds.entity_texts[i % 7], 0.5);
        if (!hits.ok()) mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  auto pass = (*extractor)->ExtractAll(corpus, 0.8);
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0u);
  ASSERT_TRUE(pass.ok());
  for (size_t i = 0; i < corpus.size(); ++i) {
    ASSERT_EQ(pass->per_document[i].matches,
              expected[i % ds.documents.size()])
        << "doc " << i;
  }
  EXPECT_EQ(aeetes.derived_dictionary().token_dict().size(), dict_size);
}

TEST(RuntimeHammerTest, ThreadPoolStormsOfTinyTasks) {
  ThreadPoolOptions opts;
  opts.num_threads = 4;
  opts.queue_capacity = 32;
  auto pool = ThreadPool::Create(opts);
  ASSERT_TRUE(pool.ok());

  std::atomic<uint64_t> done{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < 400; ++i) {
        ASSERT_TRUE((*pool)
                        ->Submit([&done] {
                          done.fetch_add(1, std::memory_order_relaxed);
                        })
                        .ok());
      }
    });
  }
  for (auto& t : producers) t.join();
  (*pool)->WaitIdle();
  EXPECT_EQ(done.load(), 1600u);
  ASSERT_TRUE((*pool)->Shutdown().ok());
}

}  // namespace
}  // namespace aeetes
