#include "rpc/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace kg::rpc {

namespace {

/// One direction of a loopback connection: an ordered byte queue with
/// close semantics matching a socket (writes to a closed pipe fail;
/// reads drain the buffer, then fail). Once the reading end asks for a
/// readiness descriptor, an eventfd mirrors "bytes buffered or closed"
/// under `mu`: the write that makes the buffer non-empty and Close()
/// signal it, the read that drains the buffer clears it.
struct Pipe {
  std::mutex mu;
  std::condition_variable cv;
  std::string buf;
  bool closed = false;
  int ready_fd = -1;
  bool signalled = false;

  ~Pipe() {
    if (ready_fd >= 0) ::close(ready_fd);
  }

  Status Write(std::string_view bytes) {
    std::lock_guard<std::mutex> lock(mu);
    if (closed) return Status::Unavailable("loopback pipe closed");
    buf.append(bytes);
    Signal();
    cv.notify_all();
    return Status::OK();
  }

  Result<size_t> Take(std::string* out, size_t max) {
    const size_t n = std::min(max, buf.size());
    if (n == 0) {
      if (closed) return Status::Unavailable("loopback connection closed");
      return size_t{0};
    }
    out->append(buf, 0, n);
    buf.erase(0, n);
    if (buf.empty() && !closed && signalled) {
      uint64_t count = 0;
      (void)!::read(ready_fd, &count, sizeof(count));
      signalled = false;
    }
    return n;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
    Signal();
    cv.notify_all();
  }

  int ReadinessFd() {
    std::lock_guard<std::mutex> lock(mu);
    if (ready_fd < 0) {
      ready_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (!buf.empty() || closed) Signal();
    }
    return ready_fd;
  }

 private:
  // Caller holds `mu`.
  void Signal() {
    if (ready_fd < 0 || signalled) return;
    const uint64_t one = 1;
    (void)!::write(ready_fd, &one, sizeof(one));
    signalled = true;
  }
};

class InMemoryTransport : public ITransport {
 public:
  InMemoryTransport(std::shared_ptr<Pipe> read_pipe,
                    std::shared_ptr<Pipe> write_pipe, std::string label)
      : read_(std::move(read_pipe)),
        write_(std::move(write_pipe)),
        label_(std::move(label)) {}

  ~InMemoryTransport() override { Close(); }

  Status Write(std::string_view bytes) override {
    return write_->Write(bytes);
  }

  Result<size_t> TryRead(std::string* out, size_t max) override {
    std::unique_lock<std::mutex> lock(read_->mu);
    return read_->Take(out, max);
  }

  Result<size_t> Read(std::string* out, size_t max,
                      int timeout_ms) override {
    std::unique_lock<std::mutex> lock(read_->mu);
    const auto ready = [this] { return !read_->buf.empty() || read_->closed; };
    if (timeout_ms < 0) {
      read_->cv.wait(lock, ready);
    } else if (!read_->cv.wait_for(
                   lock, std::chrono::milliseconds(timeout_ms), ready)) {
      return size_t{0};  // Timeout: stream still healthy, nothing arrived.
    }
    return read_->Take(out, max);
  }

  int ReadinessFd() override { return read_->ReadinessFd(); }

  void Close() override {
    read_->Close();
    write_->Close();
  }

  std::string peer() const override { return label_; }

 private:
  std::shared_ptr<Pipe> read_;
  std::shared_ptr<Pipe> write_;
  std::string label_;
};

}  // namespace

// ---- InMemoryTransportServer --------------------------------------------

struct InMemoryTransportServer::State {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::unique_ptr<ITransport>> pending;
  bool shutdown = false;
  size_t next_id = 0;
};

InMemoryTransportServer::InMemoryTransportServer()
    : state_(std::make_shared<State>()) {}

InMemoryTransportServer::~InMemoryTransportServer() { Shutdown(); }

Result<std::unique_ptr<ITransport>> InMemoryTransportServer::Connect() {
  auto client_to_server = std::make_shared<Pipe>();
  auto server_to_client = std::make_shared<Pipe>();
  std::unique_ptr<ITransport> client_end;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->shutdown) {
      return Status::Unavailable("loopback server is shut down");
    }
    const std::string label = "loopback#" + std::to_string(state_->next_id++);
    client_end = std::make_unique<InMemoryTransport>(
        server_to_client, client_to_server, label);
    state_->pending.push_back(std::make_unique<InMemoryTransport>(
        client_to_server, server_to_client, label));
    state_->cv.notify_one();
  }
  return client_end;
}

Result<std::unique_ptr<ITransport>> InMemoryTransportServer::Accept() {
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] {
    return !state_->pending.empty() || state_->shutdown;
  });
  if (!state_->pending.empty()) {
    auto transport = std::move(state_->pending.front());
    state_->pending.pop_front();
    return transport;
  }
  return Status::Cancelled("loopback server shut down");
}

void InMemoryTransportServer::Shutdown() {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->shutdown = true;
  // Like a listening socket going away: connections nobody accepted
  // are reset, so their clients see a dead stream instead of silence.
  for (auto& transport : state_->pending) transport->Close();
  state_->pending.clear();
  state_->cv.notify_all();
}

// ---- TCP ----------------------------------------------------------------

namespace {

class TcpTransport : public ITransport {
 public:
  TcpTransport(int fd, std::string label)
      : fd_(fd), label_(std::move(label)) {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~TcpTransport() override {
    Close();
    // The descriptor is released only here, when no other thread can
    // still hold a reference to this transport — close()ing it in
    // Close() would race a reader mid-recv() and hand the fd number to
    // whoever opens one next.
    ::close(fd_);
  }

  Status Write(std::string_view bytes) override {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::Unavailable(std::string("tcp send failed: ") +
                                   std::strerror(errno));
      }
      sent += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Result<size_t> TryRead(std::string* out, size_t max) override {
    return DoRead(out, max, MSG_DONTWAIT);
  }

  Result<size_t> Read(std::string* out, size_t max,
                      int timeout_ms) override {
    // One poll() bounded by the caller's timeout. Close() needs no tick
    // to be noticed: its shutdown() makes the socket readable at once.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(std::max(timeout_ms, 0));
    for (;;) {
      if (closed_.load(std::memory_order_acquire)) break;
      int wait_ms = -1;
      if (timeout_ms >= 0) {
        const auto left = deadline - std::chrono::steady_clock::now();
        wait_ms = static_cast<int>(std::max<int64_t>(
            0, std::chrono::ceil<std::chrono::milliseconds>(left).count()));
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, wait_ms);
      if (rc < 0) {
        if (errno == EINTR) continue;
        return Status::Unavailable(std::string("tcp poll failed: ") +
                                   std::strerror(errno));
      }
      if (rc == 0) return size_t{0};  // Timeout: nothing arrived.
      if (closed_.load(std::memory_order_acquire)) break;
      return DoRead(out, max, 0);
    }
    return Status::Unavailable("tcp connection closed");
  }

  int ReadinessFd() override { return fd_; }

  void Close() override {
    if (!closed_.exchange(true, std::memory_order_acq_rel)) {
      // shutdown() only: it unblocks threads parked in poll()/recv()
      // on this socket while keeping the descriptor valid under them.
      ::shutdown(fd_, SHUT_RDWR);
    }
  }

  std::string peer() const override { return label_; }

 private:
  Result<size_t> DoRead(std::string* out, size_t max, int flags) {
    char chunk[4096];
    const size_t want = std::min(max, sizeof(chunk));
    const ssize_t n = ::recv(fd_, chunk, want, flags);
    if (n > 0) {
      out->append(chunk, static_cast<size_t>(n));
      return static_cast<size_t>(n);
    }
    if (n == 0) return Status::Unavailable("tcp connection closed by peer");
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return size_t{0};
    }
    return Status::Unavailable(std::string("tcp recv failed: ") +
                               std::strerror(errno));
  }

  int fd_;
  std::string label_;
  std::atomic<bool> closed_{false};
};

}  // namespace

Result<std::unique_ptr<TcpTransportServer>> TcpTransportServer::Listen(
    uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket() failed: ") +
                           std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status = Status::IoError(
        std::string("bind(127.0.0.1:") + std::to_string(port) +
        ") failed: " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 64) < 0) {
    const Status status = Status::IoError(std::string("listen() failed: ") +
                                          std::strerror(errno));
    ::close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const Status status = Status::IoError(
        std::string("getsockname() failed: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  return std::unique_ptr<TcpTransportServer>(
      new TcpTransportServer(fd, ntohs(addr.sin_port)));
}

TcpTransportServer::~TcpTransportServer() {
  Shutdown();
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<ITransport>> TcpTransportServer::Accept() {
  for (;;) {
    // A blocking accept(): Shutdown()'s shutdown() on the listening
    // socket makes it fail with EINVAL, here or already in progress.
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    const int conn =
        ::accept(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    if (shutdown_.load(std::memory_order_acquire)) {
      if (conn >= 0) ::close(conn);
      return Status::Cancelled("tcp server shut down");
    }
    if (conn < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return Status::IoError(std::string("accept() failed: ") +
                             std::strerror(errno));
    }
    char ip[INET_ADDRSTRLEN] = "?";
    ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
    return std::unique_ptr<ITransport>(std::make_unique<TcpTransport>(
        conn, std::string("tcp:") + ip + ":" +
                  std::to_string(ntohs(addr.sin_port))));
  }
}

void TcpTransportServer::Shutdown() {
  if (!shutdown_.exchange(true, std::memory_order_acq_rel)) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

std::string TcpTransportServer::address() const {
  return "127.0.0.1:" + std::to_string(port_);
}

Result<std::unique_ptr<ITransport>> TcpConnect(const std::string& host,
                                               uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket() failed: ") +
                           std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status = Status::Unavailable(
        "connect(" + host + ":" + std::to_string(port) +
        ") failed: " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  return std::unique_ptr<ITransport>(std::make_unique<TcpTransport>(
      fd, "tcp:" + host + ":" + std::to_string(port)));
}

// ---- ChaosTransport -----------------------------------------------------

ChaosTransport::ChaosTransport(std::unique_ptr<ITransport> inner,
                               const FaultInjector* injector,
                               std::string channel)
    : inner_(std::move(inner)),
      injector_(injector),
      write_channel_(channel + "/tx"),
      read_channel_(channel + "/rx") {}

Status ChaosTransport::Write(std::string_view bytes) {
  const FaultInjector::Attempt attempt =
      injector_->Probe(write_channel_, writes_++);
  virtual_latency_ms_ += attempt.latency_ms;
  switch (attempt.kind) {
    case FaultKind::kTransient:
      // The frame vanishes in flight; the caller's read deadline and
      // retry policy must recover, exactly as with a lost packet.
      ++frames_dropped_;
      return Status::OK();
    case FaultKind::kTerminal: {
      // The wire itself is dead from here on.
      inner_->Close();
      return Status::Unavailable("injected: connection reset");
    }
    case FaultKind::kSlow:
    case FaultKind::kNone:
      break;
  }
  if (injector_->MaybeCorrupt(write_channel_,
                              std::to_string(writes_ - 1), "x") != "x") {
    // Corruption channel fired: deliver the frame with one bit flipped
    // mid-payload, so the peer's Checksum32 rejects it.
    std::string garbled(bytes);
    garbled[garbled.size() / 2] =
        static_cast<char>(garbled[garbled.size() / 2] ^ 0x20);
    ++frames_garbled_;
    return inner_->Write(garbled);
  }
  return inner_->Write(bytes);
}

Result<size_t> ChaosTransport::TryRead(std::string* out, size_t max) {
  const size_t before = out->size();
  auto read = inner_->TryRead(out, max);
  if (read.ok() && *read > 0) MaybeGarbleRead(out, before);
  return read;
}

Result<size_t> ChaosTransport::Read(std::string* out, size_t max,
                                    int timeout_ms) {
  const size_t before = out->size();
  auto read = inner_->Read(out, max, timeout_ms);
  if (read.ok() && *read > 0) MaybeGarbleRead(out, before);
  return read;
}

void ChaosTransport::MaybeGarbleRead(std::string* out, size_t before) {
  const FaultInjector::Attempt attempt =
      injector_->Probe(read_channel_, reads_++);
  virtual_latency_ms_ += attempt.latency_ms;
  if (attempt.kind == FaultKind::kTransient && out->size() > before) {
    const size_t at = before + (out->size() - before) / 2;
    (*out)[at] = static_cast<char>((*out)[at] ^ 0x20);
    ++frames_garbled_;
  }
}

int ChaosTransport::ReadinessFd() { return inner_->ReadinessFd(); }

void ChaosTransport::Close() { inner_->Close(); }

std::string ChaosTransport::peer() const {
  return inner_->peer() + " (chaos)";
}

}  // namespace kg::rpc
