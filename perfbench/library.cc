// The library workloads, pubmed-filter and usjob-verify: text in, matches
// out, through Aeetes::EncodeDocument, ExtractInto and
// ParallelExtractor::ExtractAll.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "perfbench/bench.h"
#include "src/baseline/faerie_r.h"
#include "src/common/logging.h"
#include "src/runtime/parallel_extractor.h"

namespace perfbench {

namespace {

using aeetes::Aeetes;
using aeetes::Document;
using aeetes::ExtractScratch;

/// ExtractAll must return, per document, exactly the serial ExtractInto
/// matches. Returns the serial results for the FaerieR check.
std::vector<std::vector<aeetes::Match>> CheckParallel(
    const Aeetes& engine, const std::vector<Document>& docs, double tau,
    Report& report) {
  std::vector<std::vector<aeetes::Match>> serial;
  serial.reserve(docs.size());
  ExtractScratch scratch;
  for (const Document& d : docs) {
    if (!engine.ExtractInto(scratch, d, tau).ok()) {
      report.Fail("ExtractInto failed");
      return serial;
    }
    serial.push_back(scratch.matches);
  }
  auto px = aeetes::ParallelExtractor::Create(engine);
  AEETES_CHECK(px.ok()) << px.status();
  auto all = (*px)->ExtractAll(aeetes::Span<Document>(docs.data(), docs.size()),
                               tau);
  if (!all.ok() || all->per_document.size() != docs.size()) {
    report.Fail("ExtractAll failed");
    return serial;
  }
  size_t matches = 0;
  for (size_t i = 0; i < docs.size(); ++i) {
    matches += serial[i].size();
    if (!SameMatches(all->per_document[i].matches, serial[i])) {
      report.Fail("ExtractAll differs from serial ExtractInto on document " +
                  std::to_string(i));
      return serial;
    }
  }
  report.Note("check: ExtractAll == serial ExtractInto on " +
              std::to_string(docs.size()) + " documents (" +
              std::to_string(matches) + " matches)");
  return serial;
}

/// Aeetes and the FaerieR baseline must agree on match counts on the first
/// `sample` documents. Runs after the timed phases: FaerieR's index is not
/// part of the measured footprint.
void CheckFaerie(const Aeetes& engine, const std::vector<Document>& docs,
                 const std::vector<std::vector<aeetes::Match>>& serial,
                 double tau, size_t sample, Report& report) {
  auto faerie = aeetes::FaerieR::Build(engine.derived_dictionary());
  AEETES_CHECK(faerie.ok()) << faerie.status();
  sample = std::min({sample, docs.size(), serial.size()});
  size_t faerie_matches = 0;
  size_t aeetes_matches = 0;
  for (size_t i = 0; i < sample; ++i) {
    faerie_matches += (*faerie)->Extract(docs[i], tau).size();
    aeetes_matches += serial[i].size();
  }
  if (faerie_matches != aeetes_matches) {
    report.Fail("FaerieR found " + std::to_string(faerie_matches) +
                " matches, Aeetes " + std::to_string(aeetes_matches));
  }
  report.Note("check: FaerieR agrees on " + std::to_string(sample) +
              " documents (" + std::to_string(aeetes_matches) + " matches)");
}

struct Samples {
  std::vector<double> pass_docs_per_s;
  // Per document, its fastest time over the latency passes so far.
  std::vector<double> best_doc_ms;
  size_t latency_passes = 0;
};

/// Text in -> matches out for the whole set: serial encode, then
/// ExtractAll on every hardware thread. Runs passes for at least `seconds`.
void ThroughputPhase(Aeetes& engine, aeetes::ParallelExtractor& px,
                     const std::vector<std::string>& texts, double tau,
                     double seconds, Samples& s, uint64_t& attempted) {
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point t0 = Clock::now();
    const std::vector<Document> docs = EncodeAll(engine, texts);
    auto r = px.ExtractAll(aeetes::Span<Document>(docs.data(), docs.size()),
                           tau);
    AEETES_CHECK(r.ok()) << r.status();
    s.pass_docs_per_s.push_back(static_cast<double>(texts.size()) /
                                SecondsSince(t0));
    attempted += texts.size();
  } while (SecondsSince(start) < seconds);
}

/// One thread, one pass over every document in order: EncodeDocument +
/// ExtractInto per document, warm scratch. Returns the pass's wall time.
double LatencyPass(Aeetes& engine, const std::vector<std::string>& texts,
                   double tau, Samples& s, uint64_t& attempted) {
  ExtractScratch scratch;
  s.best_doc_ms.resize(texts.size(), std::numeric_limits<double>::infinity());
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < texts.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    const Document doc = engine.EncodeDocument(texts[i]);
    AEETES_CHECK(engine.ExtractInto(scratch, doc, tau).ok());
    s.best_doc_ms[i] =
        std::min(s.best_doc_ms[i], MicrosBetween(t0, Clock::now()) / 1e3);
  }
  ++s.latency_passes;
  attempted += texts.size();
  return SecondsSince(start);
}

void Untraced(const LibraryCorpus& corpus, const RunOptions& options,
              Report& report) {
  const aeetes::SyntheticDataset& ds = corpus.dataset;
  const std::vector<std::string>& texts = ds.documents;

  // Set-up: the offline build, repeated; the median is reported. The
  // builds are spread evenly between the measuring rounds, so that set-up
  // and the rounds both span the whole run and a slow spell on the machine
  // does not fall on one of them alone.
  std::vector<double> setup_s;
  std::unique_ptr<aeetes::ParallelExtractor> px;
  std::unique_ptr<Aeetes> engine;
  auto build = [&] {
    px.reset();
    engine.reset();
    const Clock::time_point t0 = Clock::now();
    auto built = Aeetes::BuildFromText(ds.entity_texts, ds.rule_lines);
    setup_s.push_back(SecondsSince(t0));
    AEETES_CHECK(built.ok()) << built.status();
    engine = std::move(*built);
    // Intern the documents' tokens, as every later pass finds them.
    EncodeAll(*engine, texts);
    auto created = aeetes::ParallelExtractor::Create(*engine);
    AEETES_CHECK(created.ok()) << created.status();
    px = std::move(*created);
  };
  build();
  // At least three builds, and as many (up to nine) as fill a quarter of
  // --seconds.
  const size_t builds = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(options.seconds / 4 / setup_s[0])), 3, 9);

  // Rounds of one latency pass and as long again of throughput passes, so
  // slow drift on the machine lands on both alike: at least three rounds,
  // and rounds until they have taken --seconds.
  Samples s;
  double measured_s = 0.0;
  while (s.latency_passes < 3 || measured_s < options.seconds) {
    const double due = 1.0 + static_cast<double>(builds - 1) * measured_s /
                                 options.seconds;
    if (setup_s.size() < builds && static_cast<double>(setup_s.size()) < due) {
      build();
    }
    const Clock::time_point t0 = Clock::now();
    const double pass_s =
        LatencyPass(*engine, texts, corpus.tau, s, report.attempted);
    ThroughputPhase(*engine, *px, texts, corpus.tau, pass_s, s,
                    report.attempted);
    measured_s += SecondsSince(t0);
  }
  while (setup_s.size() < builds) build();

  report.Add("setup_s", Median(setup_s), setup_s.size());
  // Timings are the fastest seen: other tenants of a shared host only ever
  // add time, in episodes that come and go within a run, so the fastest
  // pass, and each document's fastest time, are what the code decides.
  const size_t doc_samples = s.latency_passes * texts.size();
  report.Add("docs_per_s",
             *std::max_element(s.pass_docs_per_s.begin(),
                               s.pass_docs_per_s.end()),
             s.pass_docs_per_s.size());
  report.Add("doc_p50_ms", Quantile(s.best_doc_ms, 0.50), doc_samples);
  report.Add("doc_p99_ms", Quantile(s.best_doc_ms, 0.99), doc_samples);
  report.Add("rss_mb", PeakRssMb(), 1);
  char note[160];
  std::snprintf(note, sizeof(note),
                "untraced: %zu builds, %zu throughput passes, %zu latency "
                "passes of %zu documents",
                setup_s.size(), s.pass_docs_per_s.size(), s.latency_passes,
                texts.size());
  report.Note(note);
  const std::vector<Document> docs = EncodeAll(*engine, texts);
  CheckFaerie(*engine, docs, CheckParallel(*engine, docs, corpus.tau, report),
              corpus.tau, corpus.faerie_sample, report);
}

void Traced(const LibraryCorpus& corpus, const RunOptions& options,
            Report& report) {
  const aeetes::SyntheticDataset& ds = corpus.dataset;
  const std::vector<std::string>& texts = ds.documents;
  std::unique_ptr<Aeetes> engine =
      AddSetupLayers(ds.entity_texts, ds.rule_lines, options, report);
  const EngineTrace trace =
      TraceEngine(*engine, texts, corpus.tau, options.seconds / 2, report);
  AddEngineLayers(trace, report);
  WriteSpans(trace.spans, options, options.workload, report);

  const std::vector<Document> docs = EncodeAll(*engine, texts);
  CheckFaerie(*engine, docs, CheckParallel(*engine, docs, corpus.tau, report),
              corpus.tau, corpus.faerie_sample, report);
  AddPoolLayers(*engine, docs, corpus.tau, options.seconds / 2, report);
}

}  // namespace

Report RunLibrary(const RunOptions& options) {
  Report report;
  const LibraryCorpus corpus = MakeLibraryCorpus(options.workload,
                                                 options.seed);
  if (options.trace) {
    Traced(corpus, options, report);
  } else {
    Untraced(corpus, options, report);
  }
  return report;
}

}  // namespace perfbench
