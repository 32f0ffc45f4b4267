// Thin RAII layer over POSIX TCP sockets for the crowd-repo server.
//
// Deliberately minimal: blocking sockets with kernel-enforced deadlines
// (SO_RCVTIMEO / SO_SNDTIMEO) instead of a userspace timer wheel. The
// engine's lint rules forbid clock reads in src/ (determinism of the
// tuning core), and socket-option timeouts need none: a stalled peer
// surfaces as IoStatus::Timeout straight from recv/send.
//
// recv_exact / send_all loop over short reads/writes and retry EINTR;
// they report one of four outcomes (Ok, Eof, Timeout, Error) so the
// server can distinguish "client went away" from "client stalled".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace gptc::net {

/// Outcome of a blocking socket transfer.
enum class IoStatus {
  Ok,       // transferred exactly the requested bytes
  Eof,      // peer closed the connection cleanly before completion
  Timeout,  // SO_RCVTIMEO / SO_SNDTIMEO deadline expired
  Error,    // any other socket error (errno-level)
};

/// Owning wrapper around a socket file descriptor. Move-only.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Releases ownership of the descriptor without closing it.
  int release();

  void close();

  /// Sets the kernel receive/send deadline. 0 disables the timeout
  /// (blocking without bound). Returns false on setsockopt failure.
  bool set_recv_timeout_ms(std::uint32_t ms);
  bool set_send_timeout_ms(std::uint32_t ms);

  /// Half-closes the write side (shutdown(SHUT_WR)): queued data and a
  /// FIN are flushed to the peer. Part of the graceful-close sequence.
  void shutdown_write();

  /// Reads and discards until EOF, timeout, error, or `max_bytes`.
  /// Closing a socket with unread bytes in its receive buffer makes the
  /// kernel send RST, which can destroy a response the peer has not read
  /// yet — so error paths drain before closing to guarantee the final
  /// (typed error) frame is actually deliverable.
  void drain(std::size_t max_bytes);

  /// Reads exactly `size` bytes into `out`. Eof with partial data counts
  /// as Eof (the stream ended mid-frame).
  IoStatus recv_exact(void* out, std::size_t size);

  /// Writes all `size` bytes.
  IoStatus send_all(const void* data, std::size_t size);

 private:
  int fd_ = -1;
};

/// Listening TCP socket bound to `address:port`. Port 0 binds an
/// ephemeral port; bound_port() reports the actual one.
class TcpListener {
 public:
  TcpListener() = default;

  /// Binds and listens. Throws std::runtime_error on failure.
  void listen(const std::string& address, std::uint16_t port, int backlog);

  /// Blocks until a connection arrives or the listener is closed.
  /// Returns an invalid Socket when the listener was closed (the
  /// server's shutdown path) or on a transient accept error.
  Socket accept();

  std::uint16_t bound_port() const { return bound_port_; }
  bool valid() const { return sock_.valid(); }

  /// Shuts the listening socket down without releasing the descriptor:
  /// a thread blocked in accept() wakes and gets an invalid Socket, but
  /// no Socket member is written, so it is safe to call concurrently
  /// with accept(). The shutdown path is shutdown() → join the accept
  /// thread → close().
  void shutdown();

  /// Closes the listening descriptor. NOT safe concurrently with
  /// accept() — call shutdown() and join the accepting thread first.
  void close();

 private:
  Socket sock_;
  std::uint16_t bound_port_ = 0;
};

/// Connects to `address:port` with the given timeouts applied to the
/// resulting socket. Throws std::runtime_error on failure.
Socket tcp_connect(const std::string& address, std::uint16_t port,
                   std::uint32_t recv_timeout_ms,
                   std::uint32_t send_timeout_ms);

}  // namespace gptc::net
