// perfbench: the repository benchmark. Run it through run.py, which
// builds it first:
//
//   python3 perfbench/run.py --workload pubmed-filter --seed 1 --seconds 24
//
// Prints the run's notes and every metric with its unit and sample count,
// then, as the last line, one JSON object with the keys correct,
// attempted, failed and metrics (end-to-end metrics untraced, per-layer
// metrics with --trace 1). Exits non-zero when an output check fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "perfbench/bench.h"

namespace perfbench {

void Report::Fail(const std::string& what) {
  if (correct) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  correct = false;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double SegmentedP99(const std::vector<double>& in_order) {
  constexpr size_t kMinSegment = 1000;
  const size_t segments = std::max<size_t>(1, in_order.size() / kMinSegment);
  std::vector<double> p99s;
  for (size_t k = 0; k < segments; ++k) {
    const size_t lo = k * in_order.size() / segments;
    const size_t hi = (k + 1) * in_order.size() / segments;
    std::vector<double> seg(in_order.begin() + static_cast<ptrdiff_t>(lo),
                            in_order.begin() + static_cast<ptrdiff_t>(hi));
    p99s.push_back(Quantile(seg, 0.99));
  }
  return Median(p99s);
}

namespace {

double StatusFieldMb(const std::string& path, const char* field) {
  std::ifstream in(path);
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      std::istringstream fields(line.substr(len));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must list the names of BENCHMARK.json, in its order; run.py checks that
// the printed metrics match it.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},      {"docs_per_s", "docs/s"}, {"doc_p50_ms", "ms"},
    {"doc_p99_ms", "ms"},  {"rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"encode.us_per_doc", "us"},
    {"encode.new_tokens_per_doc", "count"},
    {"filter.us_per_doc", "us"},
    {"filter.windows_per_doc", "count"},
    {"filter.entries_per_doc", "count"},
    {"filter.candidates_per_doc", "count"},
    {"verify.us_per_doc", "us"},
    {"verify.pairs_per_doc", "count"},
    {"verify.match_ratio", "ratio"},
    {"delta.us_per_doc", "us"},
    {"delta.matches_per_doc", "count"},
    {"delta.overhead_ratio", "ratio"},
    {"extract.other_us_per_doc", "us"},
    {"pool.speedup", "x"},
    {"pool.busy_min", "ratio"},
    {"pool.busy_mean", "ratio"},
    {"pool.steals", "count"},
    {"pool.task_us", "us"},
    {"server.request_us", "us"},
    {"server.batch_us", "us"},
    {"server.batch_docs", "count"},
    {"server.queue_us", "us"},
    {"server.outside_us", "us"},
    {"protocol.parse_us", "us"},
    {"collection.upsert_us", "us"},
    {"collection.compact_s", "s"},
    {"setup.derive_s", "s"},
    {"setup.index_s", "s"},
    {"setup.image_mb", "MiB"},
    {"setup.load_ms", "ms"},
    {"loadgen.late_p99_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

bool FlagValue(const char* arg, const char* name, const char* next,
               std::string* out, int* i) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  if (arg[len] == '\0' && next != nullptr) {
    *out = next;
    ++*i;
    return true;
  }
  return false;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "pubmed-filter|usjob-verify --seed N --seconds S "
               "--trace 0|1 --server-bin PATH --work-dir DIR\n",
               why);
  return 2;
}

}  // namespace

double PeakRssMb() { return StatusFieldMb("/proc/self/status", "VmHWM:"); }

double RssMb(int pid) {
  return StatusFieldMb("/proc/" + std::to_string(pid) + "/status", "VmRSS:");
}

int Main(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    std::string v;
    if (FlagValue(argv[i], "--workload", next, &v, &i)) {
      options.workload = v;
    } else if (FlagValue(argv[i], "--seed", next, &v, &i)) {
      options.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (FlagValue(argv[i], "--seconds", next, &v, &i)) {
      options.seconds = std::strtod(v.c_str(), nullptr);
    } else if (FlagValue(argv[i], "--trace", next, &v, &i)) {
      options.trace = v == "1";
    } else if (FlagValue(argv[i], "--server-bin", next, &v, &i)) {
      options.server_bin = v;
    } else if (FlagValue(argv[i], "--work-dir", next, &v, &i)) {
      options.work_dir = v;
    } else {
      return Usage((std::string("unknown argument ") + argv[i]).c_str());
    }
  }
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");
  if (options.work_dir.empty()) return Usage("--work-dir is required");

  if (options.workload != "pubmed-filter" &&
      options.workload != "usjob-verify") {
    return Usage("unknown workload");
  }
  // pubmed-filter's traced run also drives the daemon for the serving
  // layers; see README.md for why serving has no workload of its own.
  const bool serving = options.trace && options.workload == "pubmed-filter";
  if (serving && options.server_bin.empty()) {
    return Usage("--server-bin is required");
  }
  Report report = RunLibrary(options);
  if (serving) AddServingLayers(options, report);

  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& note : report.notes) {
    std::printf("  %s\n", note.c_str());
  }

  std::string json = "{\"correct\":";
  json += report.correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(report.attempted);
  json += ",\"failed\":" + std::to_string(report.failed);
  json += ",\"metrics\":{";
  bool first = true;
  auto emit = [&](const MetricSpec& spec, bool required) {
    const auto it = std::find_if(
        report.metrics.begin(), report.metrics.end(),
        [&spec](const Metric& m) { return m.name == spec.name; });
    double value = 0.0;
    size_t samples = 0;
    if (it != report.metrics.end()) {
      value = it->value;
      samples = it->samples;
    } else if (required) {
      std::fprintf(stderr, "perfbench: %s was not measured\n", spec.name);
      return false;
    }
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", spec.name);
      return false;
    }
    if (it != report.metrics.end()) {
      std::printf("  %-28s %14.6f %-7s n=%zu\n", spec.name, value, spec.unit,
                  samples);
    } else {
      std::printf("  %-28s %14.6f %-7s not exercised by this workload\n",
                  spec.name, value, spec.unit);
    }
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  first ? "" : ",", spec.name, value, spec.unit);
    json += buf;
    first = false;
    return true;
  };
  bool complete = true;
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) complete &= emit(spec, false);
  } else {
    for (const MetricSpec& spec : kEndToEnd) complete &= emit(spec, true);
  }
  json += "}}";
  if (!complete) return 1;
  if (report.attempted == 0) {
    std::fprintf(stderr, "perfbench: nothing was attempted\n");
    return 1;
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
