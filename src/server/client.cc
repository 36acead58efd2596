#include "src/server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace aeetes {
namespace server {

namespace {

Status ErrnoStatus(const char* what) {
  const int err = errno;
  return Status::IOError(std::string(what) + ": " + std::strerror(err) +
                         " (errno " + std::to_string(err) + ")");
}

}  // namespace

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                uint16_t port,
                                                size_t max_frame_bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return ErrnoStatus("socket");
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address '" + host + "'");
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const Status st = ErrnoStatus("connect");
    ::close(fd);
    return st;
  }
  const int one = 1;
  // Best effort: request latency matters more than segment coalescing.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<Client>(new Client(fd, max_frame_bytes));
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Status Client::Send(std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  EncodeFrame(payload, &frame);
  size_t off = 0;
  while (off < frame.size()) {
    // MSG_NOSIGNAL: a reset connection is an error status for the caller,
    // not a SIGPIPE that kills the embedding process.
    const ssize_t n =
        ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return ErrnoStatus("send");
  }
  return Status::OK();
}

Result<std::string> Client::Receive() {
  std::string payload;
  char buf[65536];
  while (true) {
    const FrameReader::Next next = reader_.Poll(&payload);
    if (next == FrameReader::Next::kFrame) return payload;
    if (next == FrameReader::Next::kBad) {
      return Status::IOError("oversized response frame");
    }
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      reader_.Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return Status::IOError("connection closed by server");
    if (errno == EINTR) continue;
    return ErrnoStatus("read");
  }
}

Result<JsonValue> Client::Call(std::string_view payload) {
  AEETES_RETURN_IF_ERROR(Send(payload));
  AEETES_ASSIGN_OR_RETURN(const std::string response, Receive());
  return ParseJson(response);
}

}  // namespace server
}  // namespace aeetes
