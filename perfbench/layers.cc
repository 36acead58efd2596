// Per-layer measurement shared by every workload: the traced composition
// of the engine's public layer functions, the offline-stage split and the
// extraction pool.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string_view>
#include <thread>

#include "perfbench/bench.h"
#include "src/common/logging.h"
#include "src/index/clustered_index.h"
#include "src/io/snapshot.h"
#include "src/runtime/parallel_extractor.h"
#include "src/synonym/derived_dictionary.h"
#include "src/synonym/rule.h"
#include "src/text/tokenizer.h"

namespace perfbench {

std::vector<aeetes::Document> EncodeAll(aeetes::Aeetes& engine,
                                        const std::vector<std::string>& texts) {
  std::vector<aeetes::Document> docs;
  docs.reserve(texts.size());
  for (const std::string& t : texts) docs.push_back(engine.EncodeDocument(t));
  return docs;
}

bool SameMatches(const std::vector<aeetes::Match>& a,
                 const std::vector<aeetes::Match>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const aeetes::Match& x, const aeetes::Match& y) {
                      return x == y && x.score == y.score &&
                             x.best_derived == y.best_derived;
                    });
}

std::vector<SelfTime> SelfTimes(const aeetes::TraceRecorder& trace) {
  const std::vector<aeetes::TraceRecorder::Span>& spans = trace.spans();
  // Spans nest, so a span's children never overlap and self time is its
  // duration minus the sum of theirs.
  std::vector<double> self_ms(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self_ms[i] += spans[i].elapsed_ms;
    if (spans[i].parent != aeetes::TraceRecorder::kNoSpan) {
      self_ms[spans[i].parent] -= spans[i].elapsed_ms;
    }
  }
  std::vector<SelfTime> out;
  std::map<std::string_view, size_t> slot;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto [it, inserted] = slot.try_emplace(spans[i].name, out.size());
    if (inserted) out.push_back({spans[i].name, 0.0, 0});
    out[it->second].total_us += self_ms[i] * 1e3;
    ++out[it->second].count;
  }
  return out;
}

namespace {

bool MatchOrder(const aeetes::Match& a, const aeetes::Match& b) {
  if (a.token_begin != b.token_begin) return a.token_begin < b.token_begin;
  if (a.token_len != b.token_len) return a.token_len < b.token_len;
  return a.entity < b.entity;
}

/// Encodes each text inside a span, then extracts every document twice:
/// once by calling the layers' public functions in turn
/// (GenerateCandidatesInto, VerifyCandidatesInto,
/// DeltaIndex::CollectMatches, merge) inside spans, and once through
/// ExtractInto. Any difference between the two match lists is recorded as
/// a failed check in `report`. Adds the pass to `t`.
void TraceDocuments(aeetes::Aeetes& engine,
                    const std::vector<std::string>& texts, double tau,
                    aeetes::TraceRecorder& spans, LayerTotals& t,
                    Report& report) {
  using namespace aeetes;
  const uint64_t first_item = t.docs;
  ExtractScratch composed;
  const DerivedDictionary& dd = engine.derived_dictionary();
  const AeetesOptions& opt = engine.options();
  JaccArOptions jopts;
  jopts.metric = opt.metric;
  jopts.weighted = opt.weighted;
  const size_t first_span = spans.spans().size();

  // Three passes over the documents: encode; each extraction layer's
  // public function in turn; ExtractInto. The last two run on the same
  // pre-encoded documents as whole passes, in an order that alternates from
  // call to call, so neither runs on caches the other just warmed for the
  // same document; their difference is the work ExtractInto does beyond
  // the layers.
  std::vector<Document> docs;
  docs.reserve(texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    TraceScope s(&spans, "encode");
    s.AddStat("item", first_item + i);
    docs.push_back(engine.EncodeDocument(texts[i]));
  }

  std::vector<std::vector<Match>> composed_matches;
  auto compose_pass = [&] {
    for (size_t i = 0; i < docs.size(); ++i) {
      const uint64_t item = first_item + i;
      const Document& doc = docs[i];
      FilterStats fs;
      VerifyStats vs;
      VerifyStats delta_vs;
      size_t delta_matches = 0;
      {
        TraceScope root(&spans, "doc");
        root.AddStat("item", item);
        // The overlay snapshot ExtractInto would pin for this call.
        std::shared_ptr<const DeltaIndex> delta;
        if (engine.delta_layer() != nullptr) {
          delta = engine.delta_layer()->snapshot();
          if (delta != nullptr && delta->passthrough()) delta.reset();
        }
        {
          TraceScope s(&spans, "filter");
          CandidateGenOptions gen;
          gen.positional_filter = opt.positional_filter;
          if (delta != nullptr) {
            gen.override_entity_sizes = true;
            gen.entity_size_min = delta->entity_size_min();
            gen.entity_size_max = delta->entity_size_max();
          }
          fs = GenerateCandidatesInto(opt.strategy, doc, dd, engine.index(),
                                      tau, opt.metric, gen, composed);
          if (delta != nullptr && delta->has_tombstones()) {
            std::vector<Candidate>& c = composed.candidates;
            c.erase(std::remove_if(c.begin(), c.end(),
                                   [&delta](const Candidate& x) {
                                     return delta->IsTombstoned(x.origin);
                                   }),
                    c.end());
          }
        }
        {
          TraceScope s(&spans, "verify");
          VerifyCandidatesInto(composed.candidates, doc, dd, tau, jopts,
                               composed.matches, composed.ordered_set,
                               composed.ordered_ranks, &vs);
        }
        if (delta != nullptr) {
          const size_t frozen_end = composed.matches.size();
          {
            TraceScope s(&spans, "delta");
            delta->CollectMatches(
                doc, dd.token_dict(), tau, opt.metric, opt.weighted,
                SubstringLengthBounds(opt.metric, delta->entity_size_min(),
                                      delta->entity_size_max(), tau),
                composed.delta, composed.matches, &delta_vs);
          }
          delta_matches = composed.matches.size() - frozen_end;
          TraceScope s(&spans, "merge");
          std::inplace_merge(
              composed.matches.begin(),
              composed.matches.begin() + static_cast<ptrdiff_t>(frozen_end),
              composed.matches.end(), MatchOrder);
        }
      }
      composed_matches.push_back(composed.matches);
      ++t.docs;
      t.windows += fs.windows;
      t.entries += fs.entries_accessed;
      t.candidates += fs.candidates;
      t.pairs += vs.verified;
      t.matched += vs.matched;
      t.delta_matches += delta_matches;
    }
  };

  std::vector<std::vector<Match>> reference_matches;
  auto reference_pass = [&] {
    ExtractScratch reference;
    for (size_t i = 0; i < docs.size(); ++i) {
      TraceScope s(&spans, "extract");
      s.AddStat("item", first_item + i);
      const Result<Aeetes::ExtractionSummary> r =
          engine.ExtractInto(reference, docs[i], tau);
      if (!r.ok()) report.Fail("ExtractInto: " + r.status().ToString());
      reference_matches.push_back(reference.matches);
    }
  };
  if ((first_item / std::max<size_t>(1, texts.size())) % 2 == 0) {
    compose_pass();
    reference_pass();
  } else {
    reference_pass();
    compose_pass();
  }
  for (size_t i = 0; i < docs.size(); ++i) {
    if (!SameMatches(composed_matches[i], reference_matches[i])) {
      report.Fail("traced composition differs from ExtractInto on item " +
                  std::to_string(first_item + i));
      break;
    }
  }

  const std::vector<TraceRecorder::Span>& all = spans.spans();
  for (size_t i = first_span; i < all.size(); ++i) {
    const std::string_view name = all[i].name;
    const double us = all[i].elapsed_ms * 1e3;
    if (name == "doc") t.doc_us += us;
    if (name == "encode") t.encode_us += us;
    if (name == "filter") t.filter_us += us;
    if (name == "verify") t.verify_us += us;
    if (name == "delta") t.delta_us += us;
    if (name == "extract") t.extract_us += us;
  }
}

/// Untraced encode + ExtractInto per document, in microseconds, with the
/// pass structure of TraceDocuments: encode all, then extract all.
double UntracedUsPerDoc(aeetes::Aeetes& engine,
                        const std::vector<std::string>& texts, double tau) {
  aeetes::ExtractScratch scratch;
  const Clock::time_point t0 = Clock::now();
  const std::vector<aeetes::Document> docs = EncodeAll(engine, texts);
  for (const aeetes::Document& doc : docs) {
    AEETES_CHECK(engine.ExtractInto(scratch, doc, tau).ok());
  }
  return MicrosBetween(t0, Clock::now()) / static_cast<double>(texts.size());
}

}  // namespace

std::unique_ptr<aeetes::Aeetes> AddSetupLayers(
    const std::vector<std::string>& entities,
    const std::vector<std::string>& rule_lines, const RunOptions& options,
    Report& report) {
  using namespace aeetes;
  const Tokenizer tokenizer;
  auto dict = std::make_unique<TokenDictionary>();
  std::vector<TokenSeq> encoded;
  encoded.reserve(entities.size());
  for (const std::string& e : entities) {
    encoded.push_back(dict->Encode(tokenizer.TokenizeToStrings(e)));
  }
  RuleSet rules;
  for (const std::string& line : rule_lines) {
    AEETES_CHECK(rules.AddFromText(line, tokenizer, *dict).ok()) << line;
  }

  Clock::time_point t0 = Clock::now();
  Result<std::unique_ptr<DerivedDictionary>> dd =
      DerivedDictionary::Build(std::move(encoded), rules, std::move(dict));
  const double derive_s = SecondsSince(t0);
  AEETES_CHECK(dd.ok()) << dd.status();

  t0 = Clock::now();
  std::unique_ptr<ClusteredIndex> index = ClusteredIndex::Build(**dd);
  const double index_s = SecondsSince(t0);
  index.reset();  // timed only: the engine image below packs its own

  Result<std::unique_ptr<Aeetes>> engine =
      Aeetes::FromDerivedDictionary(std::move(*dd));
  AEETES_CHECK(engine.ok()) << engine.status();
  const double image_mb =
      static_cast<double>((*engine)->image().bytes().size()) / (1 << 20);

  const std::string path = options.work_dir + "/setup.snap";
  AEETES_CHECK(SaveSnapshot(**engine, path).ok()) << path;
  t0 = Clock::now();
  Result<std::unique_ptr<Aeetes>> loaded = LoadSnapshot(path);
  const double load_ms = SecondsSince(t0) * 1e3;
  AEETES_CHECK(loaded.ok()) << loaded.status();
  loaded->reset();
  std::error_code ec;
  std::filesystem::remove(path, ec);

  report.Add("setup.derive_s", derive_s, 1);
  report.Add("setup.index_s", index_s, 1);
  report.Add("setup.image_mb", image_mb, 1);
  report.Add("setup.load_ms", load_ms, 1);
  return std::move(*engine);
}

void AddPoolLayers(const aeetes::Aeetes& engine,
                   const std::vector<aeetes::Document>& docs, double tau,
                   double budget_s, Report& report) {
  using namespace aeetes;
  const size_t workers = std::max(1u, std::thread::hardware_concurrency());
  struct Run {
    double pass_s = 0.0;  // median ExtractAll wall time
    ThreadPool::Stats stats;
    double lifetime_s = 0.0;
    size_t passes = 0;
  };
  auto run = [&](size_t threads, double seconds) {
    Run out;
    const Clock::time_point created = Clock::now();
    ParallelExtractorOptions popt;
    popt.num_threads = threads;
    Result<std::unique_ptr<ParallelExtractor>> px =
        ParallelExtractor::Create(engine, popt);
    AEETES_CHECK(px.ok()) << px.status();
    std::vector<double> passes;
    while (passes.size() < 3 || SecondsSince(created) < seconds) {
      const Clock::time_point t0 = Clock::now();
      Result<ParallelExtraction> r =
          (*px)->ExtractAll(Span<Document>(docs.data(), docs.size()), tau);
      AEETES_CHECK(r.ok()) << r.status();
      passes.push_back(SecondsSince(t0));
    }
    out.stats = (*px)->PoolStats();
    out.lifetime_s = SecondsSince(created);
    out.pass_s = Median(passes);
    out.passes = passes.size();
    return out;
  };
  const Run one = run(1, budget_s / 2);
  const Run many = run(workers, budget_s / 2);

  const std::vector<double>& busy = many.stats.worker_busy_fraction;
  const double busy_sum = std::accumulate(busy.begin(), busy.end(), 0.0);
  const double passes = static_cast<double>(many.passes);
  const double tasks = static_cast<double>(many.stats.executed);
  report.Add("pool.speedup", one.pass_s / many.pass_s, many.passes);
  report.Add("pool.busy_min", *std::min_element(busy.begin(), busy.end()),
             busy.size());
  report.Add("pool.busy_mean", busy_sum / static_cast<double>(busy.size()),
             busy.size());
  report.Add("pool.steals", static_cast<double>(many.stats.steals) / passes,
             many.passes);
  // Busy fractions are over the pool's lifetime, which `lifetime_s` spans.
  report.Add("pool.task_us",
             tasks == 0 ? 0.0 : busy_sum * many.lifetime_s * 1e6 / tasks,
             many.stats.executed);
  char note[160];
  std::snprintf(note, sizeof(note),
                "pool: %zu workers, ExtractAll %.2f ms vs %.2f ms at 1 worker "
                "(%zu passes)",
                workers, many.pass_s * 1e3, one.pass_s * 1e3, many.passes);
  report.Note(note);
}

EngineTrace TraceEngine(aeetes::Aeetes& engine,
                        const std::vector<std::string>& texts, double tau,
                        double budget_s, Report& report) {
  EngineTrace trace;
  const aeetes::TokenDictionary& dict =
      engine.derived_dictionary().token_dict();
  const size_t dict_before = dict.size();
  for (const std::string& text : texts) engine.EncodeDocument(text);
  trace.new_tokens_per_doc = static_cast<double>(dict.size() - dict_before) /
                             static_cast<double>(texts.size());

  std::vector<double> untraced;
  const Clock::time_point start = Clock::now();
  do {
    TraceDocuments(engine, texts, tau, trace.spans, trace.totals, report);
    untraced.push_back(UntracedUsPerDoc(engine, texts, tau));
  } while (untraced.size() % 2 == 1 || SecondsSince(start) < budget_s);
  report.attempted += 2 * trace.totals.docs;
  trace.untraced_us_per_doc = Mean(untraced);
  return trace;
}

void AddEngineLayers(const EngineTrace& trace, Report& report) {
  const LayerTotals& t = trace.totals;
  const double n = static_cast<double>(t.docs);
  auto per_doc = [&](const char* name, double total) {
    report.Add(name, total / n, t.docs);
  };
  per_doc("encode.us_per_doc", t.encode_us);
  report.Add("encode.new_tokens_per_doc", trace.new_tokens_per_doc, t.docs);
  per_doc("filter.us_per_doc", t.filter_us);
  per_doc("filter.windows_per_doc", static_cast<double>(t.windows));
  per_doc("filter.entries_per_doc", static_cast<double>(t.entries));
  per_doc("filter.candidates_per_doc", static_cast<double>(t.candidates));
  per_doc("verify.us_per_doc", t.verify_us);
  per_doc("verify.pairs_per_doc", static_cast<double>(t.pairs));
  report.Add("verify.match_ratio",
             t.pairs == 0 ? 0.0
                          : static_cast<double>(t.matched) /
                                static_cast<double>(t.pairs),
             t.pairs);
  // A small difference of two large sums, so it is floored at 0.
  per_doc("extract.other_us_per_doc",
          std::max(0.0, t.extract_us - t.filter_us - t.verify_us - t.delta_us));
  const double traced_us_per_doc = (t.encode_us + t.doc_us) / n;
  report.Add("trace.overhead_frac",
             traced_us_per_doc / trace.untraced_us_per_doc - 1.0, t.docs);

  char line[160];
  std::snprintf(line, sizeof(line),
                "per document: traced %.2f us (encode + layer calls), "
                "untraced %.2f us (encode + ExtractInto)",
                traced_us_per_doc, trace.untraced_us_per_doc);
  report.Note(line);
  for (const SelfTime& s : SelfTimes(trace.spans)) {
    char note[160];
    std::snprintf(note, sizeof(note),
                  "self time %-8s %10.2f us/span over %zu spans",
                  s.name.c_str(), s.total_us / static_cast<double>(s.count),
                  s.count);
    report.Note(note);
  }
}

void WriteSpans(const aeetes::TraceRecorder& spans, const RunOptions& options,
                const std::string& name, Report& report) {
  // One JSON object per span. TraceRecorder::ToJson nests children under
  // their parents by scanning every later span, which is quadratic in the
  // tens of thousands of spans a run records.
  const std::string path = options.work_dir + "/" + name + ".spans.jsonl";
  std::ofstream out(path, std::ios::trunc);
  std::string line;
  const std::vector<aeetes::TraceRecorder::Span>& all = spans.spans();
  for (size_t i = 0; i < all.size() && out; ++i) {
    const aeetes::TraceRecorder::Span& s = all[i];
    line = "{\"id\":";
    line += std::to_string(i);
    line += ",\"name\":";
    aeetes::jsonio::AppendString(&line, s.name);
    line += ",\"parent\":";
    line += s.parent == aeetes::TraceRecorder::kNoSpan
                ? "null"
                : std::to_string(s.parent);
    line += ",\"start_ms\":";
    aeetes::jsonio::AppendDouble(&line, s.start_ms);
    line += ",\"elapsed_ms\":";
    aeetes::jsonio::AppendDouble(&line, s.elapsed_ms);
    for (const auto& [stat, value] : s.stats) {
      line += ',';
      aeetes::jsonio::AppendString(&line, stat);
      line += ':';
      line += std::to_string(value);
    }
    line += "}\n";
    out << line;
  }
  if (!out) {
    report.Fail("cannot write " + path);
    return;
  }
  report.Note("spans: " + std::to_string(all.size()) + " written to " + path);
}

}  // namespace perfbench
