// The serving layers (pubmed-filter's traced run): the real aeetes_server
// daemon over TCP, with a delta overlay holding ~10% of the dictionary,
// open-loop extract traffic at fixed rates and a writer that keeps removing
// and re-upserting overlay entities beside it.
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <thread>
#include <tuple>

#include "perfbench/bench.h"
#include "src/common/logging.h"
#include "src/server/client.h"
#include "src/server/collection_manager.h"
#include "src/server/protocol.h"

extern char** environ;

namespace perfbench {

namespace {

using aeetes::server::Client;
using aeetes::server::JsonValue;

constexpr double kTau = 0.8;
constexpr const char* kCollection = "live";

// Fixed absolute request rates (requests/s), one document per request:
// ~20% and ~45% of the daemon's capacity on 4 vCPUs at the commit that
// introduced this benchmark. README.md records how they were measured.
constexpr double kLightRate = 2000;
constexpr double kBusyRate = 4500;
// Writer: one remove or upsert of a held-out entity per tick.
constexpr double kWriteRate = 150;
// A generator whose send lateness reaches this p99 has fallen behind its
// schedule (sleep jitter alone reaches ~1 ms on a virtual machine).
constexpr double kMaxLateP99Ms = 20.0;

// ------------------------------------------------------------------ daemon

/// One aeetes_server process; SIGKILLed and reaped on destruction unless
/// Stop() drained it first.
class Daemon {
 public:
  Daemon(const std::string& bin, const std::string& work_dir) {
    const std::string port_file = work_dir + "/server.port";
    std::error_code ec;
    std::filesystem::remove(port_file, ec);
    const std::string port_arg = "--port-file=" + port_file;
    const char* argv[] = {bin.c_str(), "--port=0", port_arg.c_str(), nullptr};
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    // The daemon's stdout joins stderr: stdout carries the result line.
    posix_spawn_file_actions_adddup2(&actions, 2, 1);
    const int rc = posix_spawn(&pid_, bin.c_str(), &actions, nullptr,
                               const_cast<char* const*>(argv), environ);
    posix_spawn_file_actions_destroy(&actions);
    AEETES_CHECK(rc == 0) << "cannot start " << bin;
    for (int tries = 0; tries < 20000 && port_ == 0; ++tries) {
      std::ifstream in(port_file);
      unsigned value = 0;
      if (in >> value && value != 0) {
        port_ = static_cast<uint16_t>(value);
        break;
      }
      int status = 0;
      AEETES_CHECK(waitpid(pid_, &status, WNOHANG) == 0)
          << "aeetes_server exited during start-up";
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    AEETES_CHECK(port_ != 0) << "aeetes_server did not report its port";
  }

  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      int status = 0;
      waitpid(pid_, &status, 0);
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// SIGTERM, then waits for the drain; true when it exited 0.
  bool Stop() {
    if (pid_ <= 0) return false;
    kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 3000; ++i) {
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;  // the destructor kills it
  }

  void Kill() {
    if (pid_ > 0) kill(pid_, SIGKILL);
  }

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

std::unique_ptr<Client> Connect(const Daemon& daemon) {
  auto c = Client::Connect("127.0.0.1", daemon.port());
  AEETES_CHECK(c.ok()) << c.status();
  return std::move(*c);
}

std::string Quote(const std::string& s) {
  std::string out;
  aeetes::jsonio::AppendString(&out, s);
  return out;
}

std::string ListPayload(const char* verb, const char* key,
                        const std::vector<std::string>& items,
                        const std::vector<std::string>* rules = nullptr) {
  std::string p = std::string("{\"verb\":\"") + verb +
                  "\",\"collection\":\"" + kCollection + "\",\"" + key +
                  "\":[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i != 0) p += ',';
    p += Quote(items[i]);
  }
  p += ']';
  if (rules != nullptr) {
    p += ",\"rules\":[";
    for (size_t i = 0; i < rules->size(); ++i) {
      if (i != 0) p += ',';
      p += Quote((*rules)[i]);
    }
    p += ']';
  }
  p += '}';
  return p;
}

std::string ExtractPayload(const std::string& doc) {
  return std::string("{\"verb\":\"extract\",\"collection\":\"") + kCollection +
         "\",\"tau\":0.8,\"docs\":[" + Quote(doc) + "]}";
}

bool IsOk(const std::string& response) {
  return response.starts_with("{\"ok\":true");
}

/// Admin round trip; aborts the run when the daemon refuses.
JsonValue Admin(Client& c, const std::string& payload) {
  auto r = c.Call(payload);
  AEETES_CHECK(r.ok()) << r.status();
  const JsonValue* ok = r->Find("ok");
  AEETES_CHECK(ok != nullptr && ok->AsBool())
      << payload.substr(0, 80) << " refused";
  return std::move(*r);
}

/// Spawn -> ready, create the collection without the held-out entities,
/// then upsert those into the overlay.
std::unique_ptr<Daemon> SetUp(const RunOptions& options,
                              const ServeCorpus& corpus) {
  auto daemon = std::make_unique<Daemon>(options.server_bin, options.work_dir);
  auto c = Connect(*daemon);
  Admin(*c, ListPayload("create", "entities", corpus.create_entities,
                        &corpus.rules));
  Admin(*c, ListPayload("upsert_entities", "entities", corpus.held_out));
  return daemon;
}

// ---------------------------------------------------------------- traffic

struct Phase {
  std::string name;
  double rate = 0.0;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<double> latency_ms;  // from the scheduled send; failed = inf
  std::vector<double> rtt_ms;      // from the actual send, successes only
  std::vector<double> late_ms;     // actual send - scheduled send
};

/// Open loop: Poisson arrivals at `rate` for `seconds`, one connection, a
/// sender (this thread) and a receiver thread. Responses arrive in request
/// order on a connection, so the receiver pairs them by position.
Phase OpenLoop(Daemon& daemon, const ServeCorpus& corpus,
               const RunOptions& options, const std::string& name, double rate,
               double seconds, uint64_t& next_id,
               std::vector<std::string>* payloads_out) {
  Phase phase;
  phase.name = name;
  phase.rate = rate;
  std::mt19937_64 rng(MixSeed(options.seed, next_id ^ 0xa11));
  std::exponential_distribution<double> gap(rate);
  std::vector<double> due;
  for (double t = gap(rng); t < seconds; t += gap(rng)) due.push_back(t);
  const size_t n = due.size();
  std::vector<std::string> payloads(n);
  for (size_t i = 0; i < n; ++i) {
    payloads[i] =
        ExtractPayload(FreshDocument(corpus, options.seed, next_id + i));
  }
  next_id += n;

  auto client = Connect(daemon);
  std::vector<Clock::time_point> scheduled(n);
  std::vector<Clock::time_point> sent(n);
  std::vector<Clock::time_point> received(n);
  std::vector<char> ok(n, 0);
  size_t sent_n = 0;
  std::atomic<bool> done{false};
  std::thread receiver([&] {
    for (size_t i = 0; i < n; ++i) {
      aeetes::Result<std::string> r = client->Receive();
      received[i] = Clock::now();
      if (!r.ok()) break;  // connection lost: the rest count as failed
      ok[i] = IsOk(*r) ? 1 : 0;
    }
    done.store(true, std::memory_order_release);
  });

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  for (size_t i = 0; i < n; ++i) {
    scheduled[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(due[i]));
    std::this_thread::sleep_until(scheduled[i]);
    sent[i] = Clock::now();
    if (!client->Send(payloads[i]).ok()) break;
    sent_n = i + 1;
  }
  // Watchdog: a daemon that stops answering is killed, which ends the
  // receiver's blocking read.
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(30);
  while (!done.load(std::memory_order_acquire) && Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!done.load(std::memory_order_acquire)) {
    daemon.Kill();
  }
  receiver.join();

  phase.attempted = n;
  phase.latency_ms.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (i < sent_n) {
      phase.late_ms.push_back(MicrosBetween(scheduled[i], sent[i]) / 1e3);
    }
    if (i < sent_n && ok[i] != 0) {
      phase.latency_ms.push_back(MicrosBetween(scheduled[i], received[i]) /
                                 1e3);
      phase.rtt_ms.push_back(MicrosBetween(sent[i], received[i]) / 1e3);
    } else {
      ++phase.failed;
      phase.latency_ms.push_back(INFINITY);
    }
  }
  if (payloads_out != nullptr) {
    payloads_out->insert(payloads_out->end(),
                         std::make_move_iterator(payloads.begin()),
                         std::make_move_iterator(payloads.end()));
  }
  return phase;
}

/// Removes and re-upserts held-out entities at kWriteRate on its own
/// connection until stopped; always stops after an upsert, so the live
/// set is the whole dictionary again. A write's latency is its ack time
/// from its actual send: the writer waits for each ack, so timing from the
/// schedule would charge one stall to every write queued behind it.
class Writer {
 public:
  Writer(const Daemon& daemon, const ServeCorpus& corpus, uint64_t seed)
      : client_(Connect(daemon)), order_(corpus.held_out) {
    std::mt19937_64 rng(MixSeed(seed, 0x3717e));
    std::shuffle(order_.begin(), order_.end(), rng);
    thread_ = std::thread([this] { Loop(); });
  }
  ~Writer() { Stop(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  std::vector<double> latency_ms;  // read after Stop()
  size_t attempted = 0;
  size_t failed = 0;

 private:
  void Loop() {
    const Clock::time_point t0 = Clock::now();
    for (uint64_t k = 0;; ++k) {
      const bool remove = k % 2 == 0;
      if (remove && stop_.load(std::memory_order_acquire)) return;
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(static_cast<double>(k) /
                                                 kWriteRate));
      std::this_thread::sleep_until(due);
      const std::string& entity = order_[(k / 2) % order_.size()];
      const Clock::time_point sent = Clock::now();
      auto r = client_->Call(ListPayload(
          remove ? "remove_entities" : "upsert_entities", "entities",
          {entity}));
      ++attempted;
      const JsonValue* ok = r.ok() ? r->Find("ok") : nullptr;
      if (ok == nullptr || !ok->AsBool()) {
        ++failed;
        latency_ms.push_back(INFINITY);
        if (!r.ok()) return;
        continue;
      }
      latency_ms.push_back(MicrosBetween(sent, Clock::now()) / 1e3);
    }
  }

  std::unique_ptr<Client> client_;
  std::vector<std::string> order_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ------------------------------------------------------------------ checks

using MatchKey = std::tuple<uint32_t, uint32_t, std::string>;

std::vector<std::string> CheckDocs(const ServeCorpus& corpus, uint64_t seed) {
  std::vector<std::string> docs;
  for (uint64_t i = 0; i < 64; ++i) {
    docs.push_back(FreshDocument(corpus, seed, (uint64_t{1} << 40) + i));
  }
  return docs;
}

/// Daemon responses for `docs` must equal an in-process rebuild over the
/// live entity set (the whole dictionary once the writer has stopped).
void CheckAgainstRebuild(const Daemon& daemon, aeetes::Aeetes& rebuild,
                         const std::vector<std::string>& docs,
                         const char* when, Report& report) {
  auto c = Connect(daemon);
  aeetes::ExtractScratch scratch;
  size_t matches = 0;
  for (size_t d = 0; d < docs.size(); ++d) {
    auto r = c->Call(ExtractPayload(docs[d]));
    const JsonValue* results = r.ok() ? r->Find("results") : nullptr;
    if (results == nullptr || results->size() != 1) {
      report.Fail(std::string("extract refused during the check ") + when);
      return;
    }
    std::vector<std::pair<MatchKey, double>> got;
    const JsonValue* ms = results->at(0).Find("matches");
    for (size_t m = 0; ms != nullptr && m < ms->size(); ++m) {
      const JsonValue& x = ms->at(m);
      got.push_back({{static_cast<uint32_t>(x.Find("begin")->AsDouble()),
                      static_cast<uint32_t>(x.Find("len")->AsDouble()),
                      x.Find("entity_text")->AsString()},
                     x.Find("score")->AsDouble()});
    }
    const aeetes::Document doc = rebuild.EncodeDocument(docs[d]);
    AEETES_CHECK(rebuild.ExtractInto(scratch, doc, kTau).ok());
    std::vector<std::pair<MatchKey, double>> want;
    for (const aeetes::Match& m : scratch.matches) {
      want.push_back(
          {{m.token_begin, m.token_len, rebuild.EntityText(m.entity)},
           m.score});
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    bool same = got.size() == want.size();
    for (size_t i = 0; same && i < got.size(); ++i) {
      same = got[i].first == want[i].first &&
             std::fabs(got[i].second - want[i].second) < 2e-6;
    }
    if (!same) {
      report.Fail(std::string("daemon differs from a rebuild ") + when +
                  " on check document " + std::to_string(d));
      return;
    }
    matches += want.size();
  }
  char note[160];
  std::snprintf(note, sizeof(note),
                "check %s: %zu documents equal a rebuild (%zu matches)", when,
                docs.size(), matches);
  report.Note(note);
}

/// Version of the collection as `list` reports it.
uint64_t ListedVersion(Client& c) {
  const JsonValue list = Admin(c, "{\"verb\":\"list\"}");
  const JsonValue* cols = list.Find("collections");
  for (size_t i = 0; cols != nullptr && i < cols->size(); ++i) {
    if (cols->at(i).Find("name")->AsString() == kCollection) {
      return static_cast<uint64_t>(cols->at(i).Find("version")->AsDouble());
    }
  }
  AEETES_CHECK(false) << "collection missing from list";
  return 0;
}

/// Compacts and waits for `list` to show the new version; seconds taken.
double CompactAndWait(const Daemon& daemon) {
  auto c = Connect(daemon);
  const uint64_t before = ListedVersion(*c);
  const Clock::time_point t0 = Clock::now();
  Admin(*c, std::string("{\"verb\":\"compact\",\"collection\":\"") +
                kCollection + "\"}");
  while (ListedVersion(*c) <= before) {
    AEETES_CHECK(SecondsSince(t0) < 60) << "compaction did not finish";
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return SecondsSince(t0);
}

/// The daemon's Prometheus exposition, from the `metrics` verb.
std::string ScrapeMetrics(const Daemon& daemon) {
  auto c = Connect(daemon);
  const JsonValue m = Admin(*c, "{\"verb\":\"metrics\"}");
  const JsonValue* text = m.Find("text");
  AEETES_CHECK(text != nullptr && text->is_string());
  return text->AsString();
}

/// `prom`_sum and `prom`_count of one histogram in the Prometheus text.
std::pair<double, double> HistogramSumCount(const std::string& text,
                                            const std::string& prom) {
  double sum = 0.0;
  double count = 0.0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prom + "_sum ", 0) == 0) {
      sum = std::stod(line.substr(prom.size() + 5));
    } else if (line.rfind(prom + "_count ", 0) == 0) {
      count = std::stod(line.substr(prom.size() + 7));
    }
  }
  return {sum, count};
}

/// Mean of one histogram over the observations between two scrapes.
double HistogramMeanBetween(const std::string& before,
                            const std::string& after,
                            const std::string& prom) {
  const auto [sum0, count0] = HistogramSumCount(before, prom);
  const auto [sum1, count1] = HistogramSumCount(after, prom);
  return count1 > count0 ? (sum1 - sum0) / (count1 - count0) : 0.0;
}

void NotePhase(const Phase& p, Report& report) {
  char note[200];
  std::snprintf(note, sizeof(note),
                "phase %-9s %6.0f req/s: attempted %zu, succeeded %zu, failed "
                "%zu, p50 %.3f ms, p99 %.3f ms",
                p.name.c_str(), p.rate, p.attempted, p.attempted - p.failed,
                p.failed, Quantile(p.latency_ms, 0.5),
                SegmentedP99(p.latency_ms));
  report.Note(note);
}

struct Traffic {
  Phase warm, light, busy;
  std::vector<double> write_ms;
  size_t write_attempted = 0, write_failed = 0;
  std::vector<std::string> payloads;  // light + busy, in send order
  // The daemon's metrics before light and after busy.
  std::string metrics_before, metrics_after;
  double rss_mb = 0.0;  // daemon RSS after busy
};

/// Warm-up, light and busy phases with the writer running throughout.
Traffic RunTraffic(Daemon& daemon, const ServeCorpus& corpus,
                   const RunOptions& options, Report& report) {
  Traffic t;
  uint64_t next_id = 0;
  const double s = options.seconds;
  Writer writer(daemon, corpus, options.seed);
  // Unmeasured warm-up at the light rate: threads, caches and the first
  // growth steps of the daemon's token dictionary settle before the
  // measured phases. (A cold daemon driven at the busy rate at once can
  // fall behind and stay behind for the whole warm-up.)
  t.warm = OpenLoop(daemon, corpus, options, "warm-up", kLightRate, 0.1 * s,
                    next_id, nullptr);
  t.metrics_before = ScrapeMetrics(daemon);
  t.light = OpenLoop(daemon, corpus, options, "light", kLightRate, 0.3 * s,
                     next_id, &t.payloads);
  t.busy = OpenLoop(daemon, corpus, options, "busy", kBusyRate, 0.2 * s,
                    next_id, &t.payloads);
  t.metrics_after = ScrapeMetrics(daemon);
  t.rss_mb = RssMb(daemon.pid());
  writer.Stop();
  t.write_ms = writer.latency_ms;
  t.write_attempted = writer.attempted;
  t.write_failed = writer.failed;

  for (const Phase* p : {&t.warm, &t.light, &t.busy}) {
    NotePhase(*p, report);
    report.attempted += p->attempted;
    report.failed += p->failed;
  }
  char note[200];
  std::snprintf(note, sizeof(note),
                "writer %.0f ops/s: attempted %zu, succeeded %zu, failed %zu, "
                "ack p50 %.3f ms, p99 %.3f ms",
                kWriteRate, t.write_attempted,
                t.write_attempted - t.write_failed, t.write_failed,
                Quantile(t.write_ms, 0.5), SegmentedP99(t.write_ms));
  report.Note(note);
  report.attempted += t.write_attempted;
  report.failed += t.write_failed;
  return t;
}

/// The generator must have kept to its schedule on the measured phases.
double LateP99(const Traffic& t, Report& report) {
  std::vector<double> late = t.light.late_ms;
  late.insert(late.end(), t.busy.late_ms.begin(), t.busy.late_ms.end());
  const double p99 = Quantile(late, 0.99);
  if (p99 > kMaxLateP99Ms) {
    report.Fail("load generator fell behind its schedule; run invalid");
  }
  return p99;
}

}  // namespace

void AddServingLayers(const RunOptions& options, Report& report) {
  // A 1 ns timer slack keeps sleep_until close to each scheduled send.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const ServeCorpus corpus = MakeServeCorpus(options.seed);
  std::vector<std::string> all = corpus.create_entities;
  all.insert(all.end(), corpus.held_out.begin(), corpus.held_out.end());
  auto rebuilt = aeetes::Aeetes::BuildFromText(all, corpus.rules);
  AEETES_CHECK(rebuilt.ok()) << rebuilt.status();
  aeetes::Aeetes& rebuild = **rebuilt;

  // Daemon side: the request-path layers from its own histograms.
  std::unique_ptr<Daemon> daemon = SetUp(options, corpus);
  const Traffic t = RunTraffic(*daemon, corpus, options, report);
  report.Add("loadgen.late_p99_ms", LateP99(t, report),
             t.light.late_ms.size() + t.busy.late_ms.size());
  {
    // Light and busy only: the difference of two scrapes.
    auto mean = [&t](const char* prom) {
      return HistogramMeanBetween(t.metrics_before, t.metrics_after, prom);
    };
    const double request_us = mean("aeetes_server_request_latency_us");
    const double batch_us = mean("aeetes_server_batch_latency_us");
    std::vector<double> rtt = t.light.rtt_ms;
    rtt.insert(rtt.end(), t.busy.rtt_ms.begin(), t.busy.rtt_ms.end());
    const size_t n = rtt.size();
    report.Add("server.request_us", request_us, n);
    report.Add("server.batch_us", batch_us, n);
    report.Add("server.batch_docs", mean("aeetes_server_batch_size"), n);
    report.Add("server.queue_us", request_us - batch_us, n);
    report.Add("server.outside_us", Mean(rtt) * 1e3 - request_us, n);
  }
  {
    const Clock::time_point t0 = Clock::now();
    size_t bad = 0;
    for (const std::string& p : t.payloads) {
      bad += aeetes::server::ParseRequest(p).ok() ? 0 : 1;
    }
    report.Add("protocol.parse_us",
               MicrosBetween(t0, Clock::now()) /
                   static_cast<double>(t.payloads.size()),
               t.payloads.size());
    if (bad != 0) report.Fail("ParseRequest rejected a sent payload");
  }
  // Responses must equal a rebuild over the live set, on the overlay and
  // again after compaction folds it into the frozen image.
  const std::vector<std::string> docs = CheckDocs(corpus, options.seed);
  CheckAgainstRebuild(*daemon, rebuild, docs, "on the overlay", report);
  report.Add("collection.compact_s", CompactAndWait(*daemon), 1);
  CheckAgainstRebuild(*daemon, rebuild, docs, "after compact", report);
  if (!daemon->Stop()) report.Fail("aeetes_server did not drain cleanly");
  daemon.reset();

  // In-process: the same collection and overlay in a CollectionManager,
  // for the write path and the overlay's engine cost.
  aeetes::server::CollectionManager manager({});
  AEETES_CHECK(
      manager.Create(kCollection, corpus.create_entities, corpus.rules).ok());
  std::vector<double> upsert_us;
  for (const std::string& e : corpus.held_out) {
    const Clock::time_point t0 = Clock::now();
    AEETES_CHECK(manager.UpsertEntities(kCollection, {e}).ok());
    upsert_us.push_back(MicrosBetween(t0, Clock::now()));
  }
  report.Add("collection.upsert_us", Mean(upsert_us), upsert_us.size());
  auto serving = manager.Acquire(kCollection);
  AEETES_CHECK(serving.ok()) << serving.status();
  aeetes::Aeetes& live = *(*serving)->aeetes;

  // The first 2,000 documents the daemon was sent (the warm-up's).
  std::vector<std::string> texts;
  for (uint64_t i = 0; i < 2000; ++i) {
    texts.push_back(FreshDocument(corpus, options.seed, i));
  }
  const EngineTrace trace =
      TraceEngine(live, texts, kTau, options.seconds / 6, report);
  const double n = static_cast<double>(trace.totals.docs);
  report.Add("delta.us_per_doc", trace.totals.delta_us / n, trace.totals.docs);
  report.Add("delta.matches_per_doc",
             static_cast<double>(trace.totals.delta_matches) / n,
             trace.totals.docs);
  WriteSpans(trace.spans, options, options.workload + ".serving", report);

  // Overlay cost: ExtractInto on the live engine vs the rebuild.
  auto pass_s = [&texts](aeetes::Aeetes& engine) {
    const std::vector<aeetes::Document> encoded = EncodeAll(engine, texts);
    aeetes::ExtractScratch scratch;
    std::vector<double> passes;
    for (int r = 0; r < 5; ++r) {
      const Clock::time_point t0 = Clock::now();
      for (const aeetes::Document& doc : encoded) {
        AEETES_CHECK(engine.ExtractInto(scratch, doc, kTau).ok());
      }
      passes.push_back(SecondsSince(t0));
    }
    return Median(passes);
  };
  report.Add("delta.overhead_ratio", pass_s(live) / pass_s(rebuild),
             texts.size());

  // The serving end-to-end numbers, for reading only: on a virtual machine
  // they move too much between runs to gate on (README.md).
  char note[200];
  std::snprintf(note, sizeof(note),
                "serving (not gated): serve_p50_ms.light %.3f, "
                "serve_p99_ms.light %.3f, serve_p50_ms.busy %.3f, "
                "serve_p99_ms.busy %.3f, daemon rss %.1f MiB",
                Quantile(t.light.latency_ms, 0.5),
                SegmentedP99(t.light.latency_ms),
                Quantile(t.busy.latency_ms, 0.5),
                SegmentedP99(t.busy.latency_ms), t.rss_mb);
  report.Note(note);
}

}  // namespace perfbench
