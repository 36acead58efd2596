// Regenerates Figure 9: end-to-end average extraction time per document,
// Aeetes (Lazy strategy) vs FaerieR, thresholds 0.7..0.9, three corpora.
// FaerieR's time excludes its offline preprocessing (applying rules to the
// dictionary), matching the paper's measurement.
//
// Knobs (environment):
//   AEETES_BENCH_CORPUS_DIR  directory with entities.txt / rules.txt /
//       documents.txt — benchmark that corpus instead of the synthetic
//       profiles. Count columns are then bit-exact across machines, which
//       is what tools/bench_compare.py's bench-smoke gate keys on.
//
// Rows gain cycles/instructions/cache-miss/branch-miss columns when the
// host exposes hardware perf counters; they are omitted (not zeroed) when
// perf_event_open is unavailable so JSON comparisons stay portable.

#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/perf_counters.h"

namespace {

void SetPerfColumns(aeetes::bench::BenchReporter::Row& row,
                    const aeetes::PerfSample& perf, size_t docs) {
  if (!perf.valid || docs == 0) return;
  const double n = static_cast<double>(docs);
  row.Set("aeetes_cycles_per_doc", static_cast<double>(perf.cycles) / n)
      .Set("aeetes_instructions_per_doc",
           static_cast<double>(perf.instructions) / n)
      .Set("aeetes_cache_misses_per_doc",
           static_cast<double>(perf.cache_misses) / n)
      .Set("aeetes_branch_misses_per_doc",
           static_cast<double>(perf.branch_misses) / n);
}

}  // namespace

int main() {
  using namespace aeetes;
  bench::BenchReporter reporter("fig9_end_to_end", "End-to-end performance",
                                "Figure 9");

  const char* corpus_dir = std::getenv("AEETES_BENCH_CORPUS_DIR");

  std::cout << std::left << std::setw(14) << "dataset" << std::setw(6)
            << "tau" << std::right << std::setw(16) << "FaerieR(ms/doc)"
            << std::setw(16) << "Aeetes(ms/doc)" << std::setw(10)
            << "speedup" << "\n";

  // Each element is (dataset name, prepared workload). The corpus mode
  // replaces — rather than augments — the synthetic sweep so the JSON blob
  // holds exactly one corpus and baselines stay small.
  std::vector<std::pair<std::string, bench::Workload>> workloads;
  if (corpus_dir != nullptr && *corpus_dir != '\0') {
    const std::string dir(corpus_dir);
    const size_t slash = dir.find_last_of('/');
    const std::string name =
        slash == std::string::npos ? dir : dir.substr(slash + 1);
    workloads.emplace_back(name.empty() ? "corpus" : name,
                           bench::PrepareCorpusWorkload(dir));
  } else {
    for (const DatasetProfile& profile : bench::EfficiencyProfiles()) {
      workloads.emplace_back(profile.name, bench::PrepareWorkload(profile));
    }
  }

  for (auto& [dataset_name, w] : workloads) {
    auto faerie_r = FaerieR::Build(w.aeetes->derived_dictionary());
    AEETES_CHECK(faerie_r.ok());

    for (double tau : bench::ThresholdSweep()) {
      size_t faerie_matches = 0;
      const double faerie_ms =
          bench::TimedMillis([&] {
            for (const Document& doc : w.documents) {
              faerie_matches += (*faerie_r)->Extract(doc, tau).size();
            }
          }) /
          static_cast<double>(w.documents.size());

      // Steady-state configuration: one warm scratch across the corpus
      // (the deployment shape — per-call allocation would be measured by
      // the legacy Extract wrapper instead).
      size_t aeetes_matches = 0;
      ExtractScratch scratch;
      double filter_ms = 0, verify_ms = 0;
      PerfSample perf;
      const double aeetes_ms =
          bench::TimedMillisWithPerf(
              [&] {
                for (const Document& doc : w.documents) {
                  auto r = w.aeetes->ExtractInto(scratch, doc, tau);
                  AEETES_CHECK(r.ok());
                  filter_ms += r->filter_ms;
                  verify_ms += r->verify_ms;
                  aeetes_matches += scratch.matches.size();
                }
              },
              &perf) /
          static_cast<double>(w.documents.size());

      AEETES_CHECK(faerie_matches == aeetes_matches)
          << "result sets diverged: " << faerie_matches << " vs "
          << aeetes_matches;

      auto& row = reporter.AddRow()
                      .Set("dataset", dataset_name)
                      .Set("tau", tau)
                      .Set("faerie_ms_per_doc", faerie_ms)
                      .Set("aeetes_ms_per_doc", aeetes_ms)
                      .Set("aeetes_filter_ms_total", filter_ms)
                      .Set("aeetes_verify_ms_total", verify_ms)
                      .Set("matches", static_cast<uint64_t>(aeetes_matches));
      SetPerfColumns(row, perf, w.documents.size());

      std::cout << std::left << std::setw(14) << dataset_name << std::setw(6)
                << std::setprecision(2) << tau << std::right << std::fixed
                << std::setw(16) << std::setprecision(3) << faerie_ms
                << std::setw(16) << aeetes_ms << std::setw(9)
                << std::setprecision(1) << (faerie_ms / std::max(aeetes_ms, 1e-9))
                << "x\n";
    }
    std::cout << "  index sizes: Aeetes=" << w.aeetes->index().MemoryBytes()
              << " B, FaerieR=" << (*faerie_r)->faerie().MemoryBytes()
              << " B (paper Sec. 6.3 reports ~2x for Aeetes)\n";
  }
  std::cout << "\nexpected shape (paper): Aeetes outperforms FaerieR by 1-2 "
               "orders of magnitude; both result sets are identical.\n";
  return 0;
}
