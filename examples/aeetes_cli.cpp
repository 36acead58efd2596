// Command-line extraction tool: the adoption path for users with real
// data. Reads an entity dictionary, a synonym rule file and a document
// file (one item per line), and prints matches as TSV.
//
//   $ ./aeetes_cli ENTITIES RULES DOCUMENTS [tau] [strategy] [flags]
//
//   ENTITIES   one entity per line
//   RULES      one "lhs <=> rhs" rule per line (empty file = no rules)
//   DOCUMENTS  one document per line
//   tau        similarity threshold, default 0.8
//   strategy   simple|skip|dynamic|lazy, default lazy
//
// Flags (anywhere on the command line):
//   --stats        print the metrics registry as a human table (stderr)
//   --stats=json   print the metrics registry as one JSON line (stdout,
//                  after the TSV rows — `tail -n 1` isolates it)
//   --stats=prom   print the registry in Prometheus text exposition
//                  format (stdout, after the TSV rows; exposition lines
//                  start at the first `# HELP`)
//   --trace        print the per-stage span tree of every document's
//                  Extract call (stderr; per worker when --threads != 1)
//   --flight-recorder=FILE  enable the flight recorder (sample every
//                  call, keep the slowest 32) and write the retained
//                  span trees as Chrome trace_event JSON to FILE — load
//                  it in Perfetto / chrome://tracing
//   --threads=N    extract documents on N pool workers (default 1 =
//                  serial; 0 = one per hardware thread). The TSV rows and
//                  the stats counters are identical for every N.
//   --save-snapshot=PATH  after building, write the engine image (snapshot
//                  v3) to PATH and continue
//   --load-snapshot=PATH  mmap a previously saved snapshot instead of
//                  building from ENTITIES/RULES (both files are still
//                  read for reporting, but the engine state comes from
//                  the snapshot; snapshot.* gauges land in --stats)
//
// Output columns: doc_id, token_begin, token_len, substring, entity_id,
// entity, score.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/core/aeetes.h"
#include "src/io/snapshot.h"
#include "src/runtime/parallel_extractor.h"

namespace {

bool ReadLines(const std::string& path, std::vector<std::string>* out,
               bool allow_missing) {
  std::ifstream in(path);
  if (!in) {
    if (allow_missing) return true;
    std::cerr << "cannot open " << path << "\n";
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) out->push_back(line);
  }
  return true;
}

bool ParseStrategy(const std::string& name, aeetes::FilterStrategy* out) {
  using aeetes::FilterStrategy;
  if (name == "simple") *out = FilterStrategy::kSimple;
  else if (name == "skip") *out = FilterStrategy::kSkip;
  else if (name == "dynamic") *out = FilterStrategy::kDynamic;
  else if (name == "lazy") *out = FilterStrategy::kLazy;
  else return false;
  return true;
}

bool ParseThreads(const std::string& value, size_t* out) {
  if (value.empty()) return false;
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(value.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = static_cast<size_t>(parsed);
  return true;
}

void PrintMatches(const aeetes::Aeetes& aeetes, size_t doc_id,
                  const aeetes::Document& doc,
                  const std::vector<aeetes::Match>& matches, size_t* total) {
  for (const aeetes::Match& m : matches) {
    std::cout << doc_id << "\t" << m.token_begin << "\t" << m.token_len
              << "\t" << doc.SubstringText(m.token_begin, m.token_len) << "\t"
              << m.entity << "\t" << aeetes.EntityText(m.entity) << "\t"
              << m.score << "\n";
    ++*total;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aeetes;
  bool stats_text = false;
  bool stats_json = false;
  bool stats_prom = false;
  bool trace_stages = false;
  size_t threads = 1;
  std::string save_snapshot, load_snapshot, flight_recorder_path;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stats") {
      stats_text = true;
    } else if (arg == "--stats=json") {
      stats_json = true;
    } else if (arg == "--stats=prom") {
      stats_prom = true;
    } else if (arg == "--trace") {
      trace_stages = true;
    } else if (arg.rfind("--flight-recorder=", 0) == 0) {
      flight_recorder_path = arg.substr(18);
      if (flight_recorder_path.empty()) {
        std::cerr << "empty flight recorder path: " << arg << "\n";
        return 2;
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!ParseThreads(arg.substr(10), &threads)) {
        std::cerr << "bad thread count: " << arg << "\n";
        return 2;
      }
    } else if (arg.rfind("--save-snapshot=", 0) == 0) {
      save_snapshot = arg.substr(16);
    } else if (arg.rfind("--load-snapshot=", 0) == 0) {
      load_snapshot = arg.substr(16);
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() < 3) {
    std::cerr << "usage: " << argv[0]
              << " ENTITIES RULES DOCUMENTS [tau=0.8] [strategy=lazy]"
                 " [--stats[=json|=prom]] [--trace] [--threads=N]"
                 " [--flight-recorder=FILE]"
                 " [--save-snapshot=PATH] [--load-snapshot=PATH]\n";
    return 2;
  }
  std::vector<std::string> entities, rules, documents;
  if (!ReadLines(positional[0], &entities, false)) return 1;
  if (!ReadLines(positional[1], &rules, true)) return 1;
  if (!ReadLines(positional[2], &documents, false)) return 1;
  // strtod, not stod: argv is untrusted and stod throws on non-numeric
  // input, which a no-exceptions binary turns into std::terminate.
  double tau = 0.8;
  if (positional.size() > 3) {
    const char* s = positional[3].c_str();
    char* parse_end = nullptr;
    tau = std::strtod(s, &parse_end);
    if (parse_end == s || *parse_end != '\0' || !(tau > 0.0 && tau <= 1.0)) {
      std::cerr << "bad tau (expected a number in (0, 1]): " << positional[3]
                << "\n";
      return 2;
    }
  }
  AeetesOptions options;
  if (positional.size() > 4 &&
      !ParseStrategy(positional[4], &options.strategy)) {
    std::cerr << "unknown strategy: " << positional[4] << "\n";
    return 2;
  }

  Result<std::unique_ptr<Aeetes>> built =
      load_snapshot.empty() ? Aeetes::BuildFromText(entities, rules, options)
                            : LoadSnapshot(load_snapshot, options);
  if (!built.ok()) {
    std::cerr << (load_snapshot.empty() ? "build" : "snapshot load")
              << " failed: " << built.status() << "\n";
    return 1;
  }
  auto& aeetes = *built;
  if (!load_snapshot.empty()) {
    std::cerr << "loaded snapshot " << load_snapshot << " ("
              << aeetes->image().bytes().size() / 1024 << " KB, "
              << (aeetes->image().stats().mmap_backed ? "mmap" : "rebuilt")
              << ")\n";
  }
  if (!save_snapshot.empty()) {
    if (Status s = SaveSnapshot(*aeetes, save_snapshot); !s.ok()) {
      std::cerr << "snapshot save failed: " << s << "\n";
      return 1;
    }
    std::cerr << "saved snapshot to " << save_snapshot << "\n";
  }
  if (!flight_recorder_path.empty()) {
    // Batch-mode capture: sample every call (the ring still bounds
    // retention to the slowest 32). A long-running service would keep the
    // defaults — 1-in-64 plus the slow threshold.
    FlightRecorderOptions fopts;
    fopts.sample_every_n = 1;
    fopts.slow_threshold_ms = 0.0;
    fopts.capacity = 32;
    aeetes->EnableFlightRecorder(fopts);
  }
  std::cerr << "dictionary: " << entities.size() << " entities, "
            << aeetes->derived_dictionary().num_derived()
            << " derived; index " << aeetes->index().MemoryBytes() / 1024
            << " KB\n";

  size_t total = 0;
  if (threads == 1) {
    for (size_t d = 0; d < documents.size(); ++d) {
      TraceRecorder recorder;
      TraceRecorder* trace = trace_stages ? &recorder : nullptr;
      Document doc;
      {
        TraceScope tokenize_span(trace, "tokenize");
        doc = aeetes->EncodeDocument(documents[d]);
        tokenize_span.AddStat("tokens", doc.size());
      }
      auto result = aeetes->Extract(doc, tau, trace);
      if (!result.ok()) {
        std::cerr << "doc " << d << ": " << result.status() << "\n";
        return 1;
      }
      PrintMatches(*aeetes, d, doc, result->matches, &total);
      if (trace_stages) {
        std::cerr << "doc " << d << " trace:\n" << recorder.ToText();
      }
    }
  } else {
    // Encode, then fan extraction out over the runtime pool, which merges
    // back into document order.
    std::vector<Document> encoded;
    encoded.reserve(documents.size());
    for (const std::string& text : documents) {
      encoded.push_back(aeetes->EncodeDocument(text));
    }
    ParallelExtractorOptions popts;
    popts.num_threads = threads;
    popts.collect_traces = trace_stages;
    auto extractor = ParallelExtractor::Create(*aeetes, popts);
    if (!extractor.ok()) {
      std::cerr << "runtime setup failed: " << extractor.status() << "\n";
      return 1;
    }
    auto result = (*extractor)->ExtractAll(encoded, tau);
    if (!result.ok()) {
      std::cerr << "extraction failed: " << result.status() << "\n";
      return 1;
    }
    for (size_t d = 0; d < documents.size(); ++d) {
      PrintMatches(*aeetes, d, encoded[d], result->per_document[d].matches,
                   &total);
    }
    if (trace_stages) {
      for (size_t w = 0; w < result->worker_traces.size(); ++w) {
        std::cerr << "worker " << w << " trace:\n"
                  << result->worker_traces[w].ToText();
      }
    }
    std::cerr << "extracted on " << (*extractor)->num_threads()
              << " threads\n";
  }
  std::cerr << total << " matches across " << documents.size()
            << " documents at tau=" << tau << "\n";
  if (!flight_recorder_path.empty()) {
    const FlightRecorder* recorder = aeetes->flight_recorder();
    std::ofstream out(flight_recorder_path);
    if (!out) {
      std::cerr << "cannot write flight recorder trace to "
                << flight_recorder_path << "\n";
      return 1;
    }
    out << recorder->ToChromeTrace() << "\n";
    std::cerr << "flight recorder: retained " << recorder->retained()
              << " of " << recorder->total_calls() << " calls -> "
              << flight_recorder_path << "\n";
  }
  if (stats_text) {
    std::cerr << aeetes->metrics().ToText();
  }
  if (stats_json) {
    std::cout << aeetes->metrics().ToJson() << "\n";
  }
  if (stats_prom) {
    std::cout << aeetes->metrics().ToPrometheus();
  }
  return 0;
}
