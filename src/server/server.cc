#include "src/server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#include "src/common/logging.h"
#include "src/common/telemetry.h"

namespace aeetes {
namespace server {

namespace {

Status ErrnoStatus(const char* what) {
  const int err = errno;
  return Status::IOError(std::string(what) + ": " +
                         std::strerror(err) + " (errno " +
                         std::to_string(err) + ")");
}

short PollEvents(int events) { return static_cast<short>(events); }

/// Upper bound on how long a poisoned connection may hold its slot while
/// its remaining input is drained.
constexpr int64_t kLingerMicros = 5'000'000;

std::string OkResponse() { return "{\"ok\":true}"; }

std::string BuildExtractResponse(const ServingEngine& engine,
                                 const RequestBatcher::Outcome& outcome) {
  std::string out = "{\"ok\":true,\"results\":[";
  for (size_t d = 0; d < outcome.results.size(); ++d) {
    if (d != 0) out += ',';
    out += "{\"doc\":";
    out += std::to_string(d);
    out += ",\"matches\":[";
    const Document& doc = outcome.documents[d];
    const std::vector<Match>& matches = outcome.results[d].matches;
    for (size_t m = 0; m < matches.size(); ++m) {
      const Match& match = matches[m];
      if (m != 0) out += ',';
      out += "{\"begin\":";
      out += std::to_string(match.token_begin);
      out += ",\"len\":";
      out += std::to_string(match.token_len);
      out += ",\"text\":";
      jsonio::AppendString(&out,
                           doc.SubstringText(match.token_begin,
                                             match.token_len));
      out += ",\"entity\":";
      out += std::to_string(match.entity);
      out += ",\"entity_text\":";
      jsonio::AppendString(&out, engine.aeetes->EntityText(match.entity));
      out += ",\"score\":";
      jsonio::AppendDouble(&out, match.score);
      out += '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace

Server::Server(Options options)
    : options_(std::move(options)),
      requests_(metrics_.RegisterCounter(
          "server.requests", "Request frames handled, all verbs")),
      rate_limited_(metrics_.RegisterCounter(
          "server.rate_limited",
          "Extract requests rejected by the per-tenant rate limiter")),
      bad_frames_(metrics_.RegisterCounter(
          "server.bad_frames", "Connections dropped for hostile framing")),
      connections_accepted_(metrics_.RegisterCounter(
          "server.connections", "Connections accepted")),
      active_collections_(metrics_.RegisterGauge(
          "server.active_collections", "Collections currently published")),
      delta_entities_(metrics_.RegisterGauge(
          "collection.delta_entities",
          "Live delta-overlay entities across all collections")),
      compactions_(metrics_.RegisterCounter(
          "collection.compactions", "Completed compaction swaps")),
      extract_latency_us_(metrics_.RegisterHistogram(
          "server.request_latency_us",
          "Extract latency, frame receipt to response ready")),
      collections_(std::make_unique<CollectionManager>(
          options_.collections, &active_collections_, &delta_entities_,
          &compactions_)),
      rate_limiter_(options_.rate_limit),
      batcher_(std::make_unique<RequestBatcher>(metrics_, options_.batcher)) {
}

Server::~Server() {
  Stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

Result<std::unique_ptr<Server>> Server::Start(Options options) {
  std::unique_ptr<Server> server(new Server(std::move(options)));
  AEETES_RETURN_IF_ERROR(server->Init());
  server->loop_ = std::thread([s = server.get()] { s->Loop(); });
  return server;
}

Status Server::Init() {
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC | O_NONBLOCK) != 0) {
    return ErrnoStatus("pipe2");
  }
  wake_read_fd_ = pipefd[0];
  wake_write_fd_ = pipefd[1];

  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");
  const int one = 1;
  if (::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                   sizeof(one)) != 0) {
    return ErrnoStatus("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address '" +
                                   options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return ErrnoStatus("bind");
  }
  if (::listen(listen_fd_, 128) != 0) return ErrnoStatus("listen");
  sockaddr_in bound = {};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return ErrnoStatus("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

void Server::RequestDrain() {
  const char b = 'd';
  ssize_t ignored = ::write(wake_write_fd_, &b, 1);
  (void)ignored;  // a full pipe means wake-ups are already pending
}

void Server::Wait() {
  MutexLock lock(stop_mu_);
  if (loop_.joinable()) loop_.join();
}

void Server::Stop() {
  RequestDrain();
  Wait();
}

void Server::Loop() {
  std::vector<pollfd> fds;
  std::vector<uint64_t> fd_conn;  // conn id per pollfd entry; 0 = not a conn
  while (true) {
    DrainCompletions();
    const int64_t now_us = clock_.ElapsedMicros();
    int timeout_ms = -1;
    for (auto it = conns_.begin(); it != conns_.end();) {
      const Connection& conn = it->second;
      const bool linger_over =
          conn.lingering && (conn.closing || now_us >= conn.linger_deadline_us);
      if (linger_over || (conn.closing && Quiesced(conn))) {
        ::close(it->second.fd);
        it = conns_.erase(it);
        continue;
      }
      if (conn.lingering) {
        const int64_t wait_ms = (conn.linger_deadline_us - now_us + 999) / 1000;
        if (timeout_ms < 0 || wait_ms < timeout_ms) {
          timeout_ms = static_cast<int>(wait_ms);
        }
      }
      ++it;
    }
    if (draining_ && conns_.empty()) break;

    fds.clear();
    fd_conn.clear();
    fds.push_back({wake_read_fd_, PollEvents(POLLIN), 0});
    fd_conn.push_back(0);
    if (!draining_) {
      fds.push_back({listen_fd_, PollEvents(POLLIN), 0});
      fd_conn.push_back(0);
    }
    const size_t first_conn = fds.size();
    for (const auto& [id, conn] : conns_) {
      int events = 0;
      const size_t backlog = conn.outbox.size() - conn.out_off;
      // Backpressure: a peer that is not draining its responses stops
      // being read (and so stops submitting) until its backlog shrinks.
      if (conn.lingering ||
          (!conn.closing && backlog < options_.outbox_high_watermark)) {
        events |= POLLIN;
      }
      if (!conn.lingering && backlog > 0) events |= POLLOUT;
      fds.push_back({conn.fd, PollEvents(events), 0});
      fd_conn.push_back(id);
    }

    const int rc =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      AEETES_LOG(Error) << "poll failed: " << std::strerror(errno);
      break;
    }

    if ((fds[0].revents & POLLIN) != 0) {
      char buf[256];
      bool drain_requested = false;
      while (true) {
        const ssize_t n = ::read(wake_read_fd_, buf, sizeof(buf));
        if (n <= 0) break;  // EAGAIN / EINTR: retry next wake
        for (ssize_t i = 0; i < n; ++i) {
          if (buf[i] == 'd') drain_requested = true;
        }
      }
      if (drain_requested && !draining_) BeginDrain();
    }
    if (!draining_ && first_conn == 2 && (fds[1].revents & POLLIN) != 0) {
      AcceptReady();
    }
    for (size_t i = first_conn; i < fds.size(); ++i) {
      const auto it = conns_.find(fd_conn[i]);
      if (it == conns_.end()) continue;
      Connection& conn = it->second;
      bool alive = true;
      if ((fds[i].revents & (POLLERR | POLLNVAL)) != 0) alive = false;
      if (alive && (fds[i].revents & POLLIN) != 0) alive = ReadReady(conn);
      if (alive && (fds[i].revents & POLLOUT) != 0) alive = WriteReady(conn);
      if (alive && (fds[i].revents & POLLHUP) != 0 &&
          conn.out_off >= conn.outbox.size()) {
        // Both directions are shut (a reset, or a lingering close whose
        // peer has closed too): nothing more can reach the peer, so
        // responses still in flight are dropped with the connection.
        alive = false;
      }
      if (!alive) {
        ::close(conn.fd);
        conns_.erase(it);
      }
    }
  }

  batcher_->Drain();
  DumpFlightRecorders();
}

void Server::BeginDrain() {
  draining_ = true;
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& [id, conn] : conns_) conn.closing = true;
}

bool Server::Quiesced(const Connection& conn) {
  return conn.in_flight == 0 && conn.ready.empty() &&
         conn.out_off >= conn.outbox.size();
}

void Server::AcceptReady() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or transient accept error: poll again
    }
    if (conns_.size() >= options_.max_connections) {
      ::close(fd);
      continue;
    }
    connections_accepted_.Increment();
    const uint64_t id = next_conn_id_++;
    Connection conn(options_.max_frame_bytes);
    conn.fd = fd;
    conn.id = id;
    conns_.emplace(id, std::move(conn));
  }
}

bool Server::ReadReady(Connection& conn) {
  char buf[65536];
  while (true) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      if (conn.lingering) continue;  // discard input after a bad frame
      conn.reader.Feed(buf, static_cast<size_t>(n));
      std::string payload;
      while (true) {
        const FrameReader::Next next = conn.reader.Poll(&payload);
        if (next == FrameReader::Next::kNeedMore) break;
        if (next == FrameReader::Next::kBad) {
          bad_frames_.Increment();
          BeginLinger(conn);  // stream is poisoned; no resync is possible
          break;
        }
        HandleFrame(conn, payload);
      }
      continue;
    }
    if (n == 0) {
      // Peer closed its write side. It may still be reading: stop reading
      // and close once every response in flight is written (Loop's
      // closing && Quiesced check).
      conn.closing = true;
      return true;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;
  }
}

bool Server::WriteReady(Connection& conn) {
  while (conn.out_off < conn.outbox.size()) {
    // MSG_NOSIGNAL: a peer that reset the connection must cost only this
    // connection (EPIPE below), not raise SIGPIPE in the whole process.
    const ssize_t n = ::send(conn.fd, conn.outbox.data() + conn.out_off,
                             conn.outbox.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;
  }
  if (conn.out_off >= conn.outbox.size()) {
    conn.outbox.clear();
    conn.out_off = 0;
  } else if (conn.out_off >= conn.outbox.size() / 2) {
    // Partial flush to a slow peer: reclaim the written prefix once it
    // dominates, so a long-lived backlog costs one copy per drain cycle
    // rather than holding every byte ever sent (FrameReader idiom).
    conn.outbox.erase(0, conn.out_off);
    conn.out_off = 0;
  }
  return true;
}

void Server::BeginLinger(Connection& conn) {
  conn.lingering = true;
  conn.linger_deadline_us = clock_.ElapsedMicros() + kLingerMicros;
  conn.ready.clear();
  conn.outbox.clear();
  conn.out_off = 0;
  (void)::shutdown(conn.fd, SHUT_WR);  // best effort: the peer reads EOF
}

void Server::HandleFrame(Connection& conn, const std::string& payload) {
  requests_.Increment();
  const uint64_t seq = conn.next_seq++;
  Result<Request> parsed = ParseRequest(payload);
  if (!parsed.ok()) {
    CompleteLocal(conn, seq, ErrorResponse(parsed.status()));
    return;
  }
  if (parsed->verb == Verb::kExtract) {
    HandleExtract(conn, seq, std::move(*parsed));
    return;
  }
  CompleteLocal(conn, seq, HandleAdmin(*parsed));
}

void Server::HandleExtract(Connection& conn, uint64_t seq, Request req) {
  if (draining_) {
    CompleteLocal(conn, seq,
                  ErrorResponse(kDraining, "server is draining"));
    return;
  }
  const int64_t start_us = clock_.ElapsedMicros();
  const Status admitted = rate_limiter_.Admit(req.tenant, start_us);
  if (!admitted.ok()) {
    rate_limited_.Increment();
    CompleteLocal(conn, seq, ErrorResponse(kRateLimited, admitted.message()));
    return;
  }
  Result<std::shared_ptr<const ServingEngine>> engine_or =
      collections_->Acquire(req.collection);
  if (!engine_or.ok()) {
    CompleteLocal(conn, seq, ErrorResponse(engine_or.status()));
    return;
  }
  std::shared_ptr<const ServingEngine> engine = std::move(*engine_or);

  RequestBatcher::Job job;
  job.engine = engine;
  job.docs = std::move(req.docs);
  job.tau = req.tau;
  job.strategy = req.strategy;
  job.has_strategy = req.has_strategy;
  const uint64_t conn_id = conn.id;
  job.done = [this, conn_id, seq, engine,
              start_us](Result<RequestBatcher::Outcome> outcome) {
    std::string payload = outcome.ok()
                              ? BuildExtractResponse(*engine, *outcome)
                              : ErrorResponse(outcome.status());
    extract_latency_us_.Record(
        static_cast<uint64_t>(clock_.ElapsedMicros() - start_us));
    Completion completion;
    completion.conn_id = conn_id;
    completion.seq = seq;
    completion.payload = std::move(payload);
    PostCompletion(std::move(completion));
  };
  ++conn.in_flight;
  const Status submitted = batcher_->Submit(std::move(job));
  if (!submitted.ok()) {
    --conn.in_flight;
    CompleteLocal(conn, seq, ErrorResponse(submitted));
  }
}

std::string Server::HandleAdmin(const Request& req) {
  const bool mutating =
      req.verb == Verb::kCreate || req.verb == Verb::kLoad ||
      req.verb == Verb::kSwap || req.verb == Verb::kDelete ||
      req.verb == Verb::kUpsertEntities ||
      req.verb == Verb::kRemoveEntities || req.verb == Verb::kCompact;
  if (draining_ && mutating) {
    return ErrorResponse(kDraining, "server is draining");
  }
  switch (req.verb) {
    case Verb::kCreate: {
      const Status st =
          collections_->Create(req.collection, req.entities, req.rules);
      return st.ok() ? OkResponse() : ErrorResponse(st);
    }
    case Verb::kLoad: {
      const Status st = collections_->Load(req.collection, req.path);
      return st.ok() ? OkResponse() : ErrorResponse(st);
    }
    case Verb::kSwap: {
      const Status st = collections_->Swap(req.collection, req.path);
      return st.ok() ? OkResponse() : ErrorResponse(st);
    }
    case Verb::kDelete: {
      const Status st = collections_->Delete(req.collection);
      return st.ok() ? OkResponse() : ErrorResponse(st);
    }
    case Verb::kUpsertEntities: {
      const Result<size_t> n =
          collections_->UpsertEntities(req.collection, req.entities);
      if (!n.ok()) return ErrorResponse(n.status());
      return "{\"ok\":true,\"upserted\":" + std::to_string(*n) + "}";
    }
    case Verb::kRemoveEntities: {
      const Result<size_t> n =
          collections_->RemoveEntities(req.collection, req.entities);
      if (!n.ok()) return ErrorResponse(n.status());
      return "{\"ok\":true,\"removed\":" + std::to_string(*n) + "}";
    }
    case Verb::kCompact: {
      const Result<uint64_t> v = collections_->Compact(req.collection);
      if (!v.ok()) return ErrorResponse(v.status());
      return "{\"ok\":true,\"scheduled\":true,\"target_version\":" +
             std::to_string(*v) + "}";
    }
    case Verb::kList: {
      std::string out = "{\"ok\":true,\"collections\":[";
      bool first = true;
      for (const CollectionManager::Info& info : collections_->List()) {
        if (!first) out += ',';
        first = false;
        out += "{\"name\":";
        jsonio::AppendString(&out, info.name);
        out += ",\"version\":";
        out += std::to_string(info.version);
        out += ",\"source\":";
        jsonio::AppendString(&out, info.source);
        out += ",\"delta_entities\":";
        out += std::to_string(info.delta_entities);
        out += ",\"tombstones\":";
        out += std::to_string(info.tombstones);
        out += ",\"dict_tokens\":";
        out += std::to_string(info.dict_tokens);
        out += '}';
      }
      out += "]}";
      return out;
    }
    case Verb::kHealthz: {
      std::string out = "{\"ok\":true,\"status\":\"";
      out += draining_ ? "draining" : "serving";
      out += "\",\"collections\":";
      out += std::to_string(collections_->size());
      out += '}';
      return out;
    }
    case Verb::kMetrics: {
      std::string out = "{\"ok\":true,\"text\":";
      jsonio::AppendString(&out, metrics_.ToPrometheus());
      out += '}';
      return out;
    }
    case Verb::kStats: {
      // ToJson emits a JSON object, so it embeds raw.
      std::string out = "{\"ok\":true,\"stats\":";
      out += metrics_.ToJson();
      out += '}';
      return out;
    }
    case Verb::kExtract:
      break;  // handled by HandleExtract
  }
  return ErrorResponse(kInternalError, "unroutable verb");
}

void Server::CompleteLocal(Connection& conn, uint64_t seq,
                           std::string payload) {
  conn.ready.emplace(seq, std::move(payload));
  PumpReady(conn);
}

void Server::PumpReady(Connection& conn) {
  while (true) {
    const auto it = conn.ready.find(conn.next_send);
    if (it == conn.ready.end()) break;
    EncodeFrame(it->second, &conn.outbox);
    conn.ready.erase(it);
    ++conn.next_send;
  }
}

void Server::PostCompletion(Completion completion) {
  {
    MutexLock lock(mu_);
    completions_.push_back(std::move(completion));
  }
  const char b = 'w';
  ssize_t ignored = ::write(wake_write_fd_, &b, 1);
  (void)ignored;  // a full pipe already has wake-ups pending
}

void Server::DrainCompletions() {
  std::vector<Completion> taken;
  {
    MutexLock lock(mu_);
    taken.swap(completions_);
  }
  for (Completion& completion : taken) {
    const auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) continue;  // connection died first
    Connection& conn = it->second;
    AEETES_DCHECK_GT(conn.in_flight, size_t{0});
    --conn.in_flight;
    if (conn.lingering) continue;  // nothing more is sent to this peer
    CompleteLocal(conn, completion.seq, std::move(completion.payload));
  }
}

void Server::DumpFlightRecorders() {
  if (options_.flight_recorder_dump_path.empty()) return;
  std::string out = "{";
  bool first = true;
  for (const CollectionManager::Info& info : collections_->List()) {
    Result<std::shared_ptr<const ServingEngine>> engine =
        collections_->Acquire(info.name);
    if (!engine.ok()) continue;
    const FlightRecorder* recorder = (*engine)->aeetes->flight_recorder();
    if (recorder == nullptr) continue;
    if (!first) out += ',';
    first = false;
    jsonio::AppendString(&out, info.name);
    out += ':';
    out += recorder->ToJson();
  }
  out += '}';
  std::ofstream file(options_.flight_recorder_dump_path,
                     std::ios::binary | std::ios::trunc);
  file << out;
}

}  // namespace server
}  // namespace aeetes
