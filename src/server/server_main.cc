// aeetes_server: the long-lived extraction daemon (DESIGN.md §14).
//
//   $ aeetes_server --snapshot=institutions.snap --port=7071
//
// speaks the framed-JSON protocol on the bound port. Admin verbs manage
// collections at runtime; --snapshot/--entities preload one collection at
// startup so the first extract needs no admin round trip. SIGTERM / SIGINT
// drain gracefully: stop accepting, finish in-flight requests, flush, exit
// 0.
//
// Flags:
//   --port=N            listen port (default 7071; 0 = ephemeral)
//   --bind=ADDR         bind address (default 127.0.0.1)
//   --port-file=PATH    write the bound port to PATH once serving (lets
//                       callers use --port=0 without a race)
//   --collection=NAME   name for the preloaded collection (default
//                       "default")
//   --snapshot=PATH     preload NAME from a snapshot (engine images mmap)
//   --entities=PATH     preload NAME by offline build from an entity file
//   --rules=PATH        synonym rules for --entities (optional)
//   --threads=N         extractor pool threads per collection (0 = one
//                       per hardware thread, the default)
//   --rate=R            per-tenant rate limit, requests/second (0 = off)
//   --burst=B           rate-limiter burst size (default max(R, 1))
//   --flight-recorder=FILE  enable per-engine flight recorders; drain
//                       writes their retained traces to FILE as JSON
//   --snapshot-dir=DIR  where compactions persist versioned snapshots
//                       ("<collection>.v<version>.snap"); empty (the
//                       default) keeps compactions in-memory only

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/server/server.h"

namespace {

// Written once before signals are installed; the handler only reads it.
// sig_atomic_t is wide enough for an fd and async-signal-safe to read.
volatile std::sig_atomic_t g_drain_fd = -1;

extern "C" void HandleTermSignal(int /*signum*/) {
  const int fd = g_drain_fd;
  if (fd >= 0) {
    const char b = 'd';
    // write(2) is async-signal-safe; a full pipe already has wake-ups
    // pending, so a short write is fine.
    ssize_t ignored = write(fd, &b, 1);
    (void)ignored;
  }
}

bool FlagValue(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

bool ReadLines(const std::string& path, std::vector<std::string>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) out->push_back(line);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  aeetes::server::Server::Options options;
  options.port = 7071;
  std::string port_file;
  std::string collection = "default";
  std::string snapshot_path;
  std::string entities_path;
  std::string rules_path;
  double rate = 0.0;
  double burst = 0.0;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (FlagValue(argv[i], "--port", &value)) {
      options.port = static_cast<uint16_t>(std::strtoul(value.c_str(),
                                                        nullptr, 10));
    } else if (FlagValue(argv[i], "--bind", &value)) {
      options.bind_address = value;
    } else if (FlagValue(argv[i], "--port-file", &value)) {
      port_file = value;
    } else if (FlagValue(argv[i], "--collection", &value)) {
      collection = value;
    } else if (FlagValue(argv[i], "--snapshot", &value)) {
      snapshot_path = value;
    } else if (FlagValue(argv[i], "--entities", &value)) {
      entities_path = value;
    } else if (FlagValue(argv[i], "--rules", &value)) {
      rules_path = value;
    } else if (FlagValue(argv[i], "--threads", &value)) {
      options.collections.extractor.num_threads =
          static_cast<size_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (FlagValue(argv[i], "--rate", &value)) {
      rate = std::strtod(value.c_str(), nullptr);
    } else if (FlagValue(argv[i], "--burst", &value)) {
      burst = std::strtod(value.c_str(), nullptr);
    } else if (FlagValue(argv[i], "--snapshot-dir", &value)) {
      options.collections.snapshot_dir = value;
    } else if (FlagValue(argv[i], "--flight-recorder", &value)) {
      options.flight_recorder_dump_path = value;
      options.collections.enable_flight_recorder = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (rate > 0.0) {
    options.rate_limit.tokens_per_second = rate;
    options.rate_limit.burst = burst > 0.0 ? burst
                               : (rate > 1.0 ? rate : 1.0);
  }

  const std::string bind_address = options.bind_address;
  auto server_or = aeetes::server::Server::Start(std::move(options));
  if (!server_or.ok()) {
    std::fprintf(stderr, "failed to start: %s\n",
                 server_or.status().ToString().c_str());
    return 1;
  }
  aeetes::server::Server& server = **server_or;

  if (!snapshot_path.empty()) {
    const aeetes::Status st =
        server.collections().Load(collection, snapshot_path);
    if (!st.ok()) {
      std::fprintf(stderr, "failed to load collection '%s': %s\n",
                   collection.c_str(), st.ToString().c_str());
      return 1;
    }
  } else if (!entities_path.empty()) {
    std::vector<std::string> entities;
    std::vector<std::string> rules;
    if (!ReadLines(entities_path, &entities)) {
      std::fprintf(stderr, "cannot read %s\n", entities_path.c_str());
      return 1;
    }
    if (!rules_path.empty() && !ReadLines(rules_path, &rules)) {
      std::fprintf(stderr, "cannot read %s\n", rules_path.c_str());
      return 1;
    }
    const aeetes::Status st =
        server.collections().Create(collection, entities, rules);
    if (!st.ok()) {
      std::fprintf(stderr, "failed to build collection '%s': %s\n",
                   collection.c_str(), st.ToString().c_str());
      return 1;
    }
  }

  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::trunc);
    out << server.port() << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", port_file.c_str());
      return 1;
    }
  }

  g_drain_fd = server.drain_fd();
  struct sigaction action = {};
  action.sa_handler = HandleTermSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  std::fprintf(stderr, "aeetes_server serving on %s:%u\n",
               bind_address.c_str(), static_cast<unsigned>(server.port()));
  server.Wait();
  std::fprintf(stderr, "aeetes_server drained, exiting\n");
  return 0;
}
