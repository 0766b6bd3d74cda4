#ifndef KGRAPH_RPC_TRANSPORT_H_
#define KGRAPH_RPC_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/fault.h"
#include "common/status.h"

namespace kg::rpc {

/// One bidirectional byte stream between a client and the server. The
/// protocol layers above see only ordered bytes — framing, checksums,
/// and message semantics all live in frame.h — so a TCP socket and an
/// in-memory queue pair are interchangeable underneath the same server
/// and client code.
///
/// Close() from either side unblocks every pending Read/Write on the
/// stream; after the peer closes, reads drain buffered bytes and then
/// fail with kUnavailable (a dead connection is a retriable condition —
/// another replica may answer).
class ITransport {
 public:
  virtual ~ITransport() = default;

  /// Writes all of `bytes` in order, or fails. Writers on one stream
  /// must be externally serialized (the server takes a per-connection
  /// write lock).
  virtual Status Write(std::string_view bytes) = 0;

  /// Non-blocking read: appends up to `max` already-available bytes to
  /// `*out` and returns how many. 0 with OK means "nothing available
  /// yet"; a closed/broken stream returns kUnavailable once drained.
  virtual Result<size_t> TryRead(std::string* out, size_t max) = 0;

  /// Blocking read: waits until at least one byte is available, then
  /// behaves like TryRead. Returns kUnavailable when the stream closes
  /// with nothing left to drain. `timeout_ms >= 0` bounds the wait and
  /// returns OK with 0 bytes on expiry (a timeout is the caller's
  /// policy decision, not a stream failure); -1 waits indefinitely.
  virtual Result<size_t> Read(std::string* out, size_t max,
                              int timeout_ms = -1) = 0;

  /// Pollable readiness handle: a descriptor that polls readable
  /// (POLLIN) whenever TryRead would return bytes or report the stream
  /// closed, and stays readable until TryRead has drained the buffered
  /// bytes — level-triggered, like a socket. It lets one thread block in
  /// a single poll() over many streams (RpcServer's event loop). The
  /// transport owns the descriptor; callers only poll it, and only while
  /// they hold the transport.
  virtual int ReadinessFd() = 0;

  /// Idempotent; unblocks both directions.
  virtual void Close() = 0;

  /// Diagnostic label ("loopback#3", "tcp:127.0.0.1:41973").
  virtual std::string peer() const = 0;
};

/// Accepts transports on the serving side.
class ITransportServer {
 public:
  virtual ~ITransportServer() = default;

  /// Blocks until a connection arrives (returns it) or Shutdown() is
  /// called (returns kCancelled). Nothing polls on a timer: Shutdown()
  /// itself unblocks the wait.
  virtual Result<std::unique_ptr<ITransport>> Accept() = 0;

  /// Stops accepting; unblocks pending Accept() calls. Idempotent.
  virtual void Shutdown() = 0;

  /// Printable listen address ("loopback", "127.0.0.1:41973").
  virtual std::string address() const = 0;
};

// ---- In-memory loopback -------------------------------------------------

/// Same-process transport: two bounded-latency byte queues, no sockets,
/// no ports. The only kernel object is the eventfd behind ReadinessFd(),
/// created on first use (so only the polled end of a connection has
/// one) and signalled by the peer's Write and by Close. This is the deterministic rig the wire-level
/// test battery runs on — byte-exact, ordering-exact, and immune to CI
/// network flakiness — and the honest upper bound for what the protocol
/// itself costs (bench_rpc reports it next to TCP).
class InMemoryTransportServer : public ITransportServer {
 public:
  InMemoryTransportServer();
  ~InMemoryTransportServer() override;

  /// Creates a connected pair, queues the server end for Accept(), and
  /// returns the client end. Fails with kUnavailable after Shutdown().
  Result<std::unique_ptr<ITransport>> Connect();

  Result<std::unique_ptr<ITransport>> Accept() override;
  /// Also closes connections queued but not yet accepted.
  void Shutdown() override;
  std::string address() const override { return "loopback"; }

 private:
  struct State;
  std::shared_ptr<State> state_;
};

// ---- TCP ----------------------------------------------------------------

/// POSIX TCP stream transport. Listen on port 0 to let the kernel pick;
/// address() reports the bound port.
class TcpTransportServer : public ITransportServer {
 public:
  static Result<std::unique_ptr<TcpTransportServer>> Listen(uint16_t port);
  ~TcpTransportServer() override;

  Result<std::unique_ptr<ITransport>> Accept() override;
  void Shutdown() override;
  std::string address() const override;
  uint16_t port() const { return port_; }

 private:
  TcpTransportServer(int fd, uint16_t port) : fd_(fd), port_(port) {}

  int fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> shutdown_{false};
};

/// Connects to a TCP endpoint ("127.0.0.1", port).
Result<std::unique_ptr<ITransport>> TcpConnect(const std::string& host,
                                               uint16_t port);

// ---- Chaos wrapper ------------------------------------------------------

/// Wraps a transport with FaultInjector-driven wire chaos: per written
/// frame, the injector's pure hash of (seed, channel, frame index)
/// decides drop / garble (one flipped byte — the peer's checksum catches
/// it) / slow (virtual latency surfaced to the caller); received bytes
/// can be garbled the same way on a separate channel. Decisions never
/// depend on wall clock or thread schedule, so a chaos run replays
/// bit-for-bit per seed (rpc_chaos_test).
///
/// Writes are assumed to be whole frames (the client writes one frame
/// per call), so "drop" loses exactly one message, like a lost packet
/// carrying it.
class ChaosTransport : public ITransport {
 public:
  /// `channel` names this connection in the fault plan ("client-3").
  ChaosTransport(std::unique_ptr<ITransport> inner,
                 const FaultInjector* injector, std::string channel);

  Status Write(std::string_view bytes) override;
  Result<size_t> TryRead(std::string* out, size_t max) override;
  Result<size_t> Read(std::string* out, size_t max,
                      int timeout_ms = -1) override;
  /// The inner transport's handle: injected faults change bytes, never
  /// when they become readable.
  int ReadinessFd() override;
  void Close() override;
  std::string peer() const override;

  /// Virtual milliseconds of injected latency so far (for deadline
  /// accounting in retry loops; nothing here sleeps for real).
  double virtual_latency_ms() const { return virtual_latency_ms_; }

  size_t frames_dropped() const { return frames_dropped_; }
  size_t frames_garbled() const { return frames_garbled_; }

 private:
  /// Applies the read-direction corruption channel to bytes appended to
  /// `*out` after `before`.
  void MaybeGarbleRead(std::string* out, size_t before);

  std::unique_ptr<ITransport> inner_;
  const FaultInjector* injector_;
  std::string write_channel_;
  std::string read_channel_;
  size_t writes_ = 0;
  size_t reads_ = 0;
  size_t frames_dropped_ = 0;
  size_t frames_garbled_ = 0;
  double virtual_latency_ms_ = 0.0;
};

}  // namespace kg::rpc

#endif  // KGRAPH_RPC_TRANSPORT_H_
