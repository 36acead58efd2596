// Shared pieces of the repository benchmark (see README.md in this
// directory): run options, the result report, sample statistics, the
// workload corpora and the shared engine measurements.
#ifndef AEETES_PERFBENCH_BENCH_H_
#define AEETES_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/core/aeetes.h"
#include "src/datagen/generator.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server_bin;  // aeetes_server built next to this binary
  std::string work_dir;    // scratch space inside the checkout
};

/// One measured number; its unit is fixed in main.cc beside its name.
/// `samples` is how many observations it summarizes.
struct Metric {
  std::string name;
  double value = 0.0;
  size_t samples = 0;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The measured metrics; main.cc prints them in BENCHMARK.json order.
  std::vector<Metric> metrics;
  /// Printed before the JSON line only: per-phase counts and the
  /// workload-specific names of the end-to-end metrics.
  std::vector<std::string> notes;

  void Add(std::string name, double value, size_t samples) {
    metrics.push_back({std::move(name), value, samples});
  }
  /// Records a failed output check; the run then reports correct=false.
  void Fail(const std::string& what);
  void Note(const std::string& line) { notes.push_back(line); }
};

// ---------------------------------------------------------------- timing

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Linear-interpolated quantile of `values`, q in [0,1].
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
/// p99 that one stall cannot dominate: `in_order` (samples in the order
/// they were taken) is cut into runs of at least 1,000 samples, so each
/// run's p99 has ten samples beyond it, and the median of those p99s is
/// returned. Under 2,000 samples it is the plain p99.
double SegmentedP99(const std::vector<double>& in_order);

/// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMb();
/// Current resident set (VmRSS) of `pid` in MiB, 0 when unreadable.
double RssMb(int pid);

// ----------------------------------------------------------------- corpus

/// Deterministic 64-bit mix of the run seed with a per-use salt.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

struct LibraryCorpus {
  aeetes::SyntheticDataset dataset;
  double tau = 0.0;
  size_t faerie_sample = 0;  // documents cross-checked against FaerieR
};

/// pubmed-filter / usjob-verify inputs for `seed`.
LibraryCorpus MakeLibraryCorpus(const std::string& workload, uint64_t seed);

struct ServeCorpus {
  std::vector<std::string> create_entities;  // dictionary minus held-out
  std::vector<std::string> held_out;         // upserted at set-up
  std::vector<std::string> rules;
  /// ~32-token slices of generated documents, each keeping its planted
  /// mention, in seeded request order (cycled by the load generator).
  std::vector<std::string> slices;
};

ServeCorpus MakeServeCorpus(uint64_t seed);

/// The request text for the i-th request: a slice wrapped in two tokens
/// no dictionary or earlier request contains (IDs, typos).
std::string FreshDocument(const ServeCorpus& corpus, uint64_t seed,
                          uint64_t i);

// ------------------------------------------------------------------ spans

/// Total self time (duration minus its child spans) per span name of
/// `trace`, in microseconds, with the number of spans of that name, in
/// order of first appearance.
struct SelfTime {
  std::string name;
  double total_us = 0.0;
  size_t count = 0;
};
std::vector<SelfTime> SelfTimes(const aeetes::TraceRecorder& trace);

// ------------------------------------------------------- shared engine work

/// EncodeDocument of every text, in order.
std::vector<aeetes::Document> EncodeAll(aeetes::Aeetes& engine,
                                        const std::vector<std::string>& texts);

/// True when both lists hold the same matches in the same order, score and
/// witness included.
bool SameMatches(const std::vector<aeetes::Match>& a,
                 const std::vector<aeetes::Match>& b);

/// Per-layer numbers of the traced composition over a set of documents.
struct LayerTotals {
  size_t docs = 0;
  double encode_us = 0, filter_us = 0, verify_us = 0, delta_us = 0;
  double extract_us = 0;  // the ExtractInto reference calls
  double doc_us = 0;      // traced composition spans (without encode)
  uint64_t windows = 0, entries = 0, candidates = 0;
  uint64_t pairs = 0, matched = 0, delta_matches = 0;
};

/// The traced run's engine layers on one document set.
struct EngineTrace {
  LayerTotals totals;
  double new_tokens_per_doc = 0.0;   // interned by the first encode
  double untraced_us_per_doc = 0.0;  // encode + ExtractInto, no spans
  aeetes::TraceRecorder spans;
};

/// Encodes `texts` once (counting the tokens that interns), then alternates
/// traced passes with untraced ones for at least `budget_s` and an even
/// number of passes. A traced pass encodes every document inside a span,
/// then extracts each twice: once by calling the layers' public functions
/// in turn (GenerateCandidatesInto, VerifyCandidatesInto,
/// DeltaIndex::CollectMatches, merge) inside spans, once through
/// ExtractInto. Any difference between the two is a failed check.
EngineTrace TraceEngine(aeetes::Aeetes& engine,
                        const std::vector<std::string>& texts, double tau,
                        double budget_s, Report& report);

/// Adds the encode/filter/verify/extract.other metrics, trace.overhead_frac
/// and the span self-time notes of `trace`.
void AddEngineLayers(const EngineTrace& trace, Report& report);

/// Writes `spans` as JSON lines to `<work_dir>/<name>.spans.jsonl`.
void WriteSpans(const aeetes::TraceRecorder& spans, const RunOptions& options,
                const std::string& name, Report& report);

/// Offline-stage split on one dictionary: derived-dictionary build, index
/// build, engine-image size and snapshot load. Adds setup.* metrics and
/// returns the engine built from those parts.
std::unique_ptr<aeetes::Aeetes> AddSetupLayers(
    const std::vector<std::string>& entities,
    const std::vector<std::string>& rules, const RunOptions& options,
    Report& report);

/// ExtractAll at every hardware thread vs one worker over `docs`; adds the
/// pool.* metrics.
void AddPoolLayers(const aeetes::Aeetes& engine,
                   const std::vector<aeetes::Document>& docs, double tau,
                   double budget_s, Report& report);

// -------------------------------------------------------------- workloads

Report RunLibrary(const RunOptions& options);

/// The serving layers, measured in pubmed-filter's traced run: the real
/// aeetes_server over TCP with a delta overlay and a writer beside open-loop
/// reads, plus the overlay's engine cost in-process. Adds the server.*,
/// protocol.*, collection.*, delta.* and loadgen.* metrics.
void AddServingLayers(const RunOptions& options, Report& report);

}  // namespace perfbench

#endif  // AEETES_PERFBENCH_BENCH_H_
