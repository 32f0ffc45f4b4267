#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace gptc::net {

namespace {

timeval timeout_from_ms(std::uint32_t ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000u);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000u) * 1000u);
  return tv;
}

bool is_timeout_errno(int err) {
  // Blocking sockets with SO_RCVTIMEO/SO_SNDTIMEO report an expired
  // deadline as EAGAIN/EWOULDBLOCK.
  return err == EAGAIN || err == EWOULDBLOCK;
}

sockaddr_in make_addr(const std::string& address, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("net: bad IPv4 address: " + address);
  }
  return addr;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

int Socket::release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Socket::set_recv_timeout_ms(std::uint32_t ms) {
  const timeval tv = timeout_from_ms(ms);
  return ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) == 0;
}

bool Socket::set_send_timeout_ms(std::uint32_t ms) {
  const timeval tv = timeout_from_ms(ms);
  return ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) == 0;
}

void Socket::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Socket::drain(std::size_t max_bytes) {
  char buf[4096];
  std::size_t consumed = 0;
  while (consumed < max_bytes) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      consumed += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EOF, timeout, or error: nothing more to wait for
  }
}

IoStatus Socket::recv_exact(void* out, std::size_t size) {
  char* cursor = static_cast<char*>(out);
  std::size_t remaining = size;
  while (remaining > 0) {
    const ssize_t n = ::recv(fd_, cursor, remaining, 0);
    if (n > 0) {
      cursor += n;
      remaining -= static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return IoStatus::Eof;
    if (errno == EINTR) continue;
    if (is_timeout_errno(errno)) return IoStatus::Timeout;
    return IoStatus::Error;
  }
  return IoStatus::Ok;
}

IoStatus Socket::send_all(const void* data, std::size_t size) {
  const char* cursor = static_cast<const char*>(data);
  std::size_t remaining = size;
  while (remaining > 0) {
    const ssize_t n = ::send(fd_, cursor, remaining, MSG_NOSIGNAL);
    if (n > 0) {
      cursor += n;
      remaining -= static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (is_timeout_errno(errno)) return IoStatus::Timeout;
    if (errno == EPIPE || errno == ECONNRESET) return IoStatus::Eof;
    return IoStatus::Error;
  }
  return IoStatus::Ok;
}

void TcpListener::listen(const std::string& address, std::uint16_t port,
                         int backlog) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) {
    throw std::runtime_error("net: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr = make_addr(address, port);
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw std::runtime_error("net: bind() to " + address + " failed: " +
                             std::string(std::strerror(errno)));
  }
  if (::listen(sock.fd(), backlog) != 0) {
    throw std::runtime_error("net: listen() failed: " +
                             std::string(std::strerror(errno)));
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    throw std::runtime_error("net: getsockname() failed");
  }
  bound_port_ = ntohs(bound.sin_port);
  sock_ = std::move(sock);
}

Socket TcpListener::accept() {
  while (sock_.valid()) {
    const int fd = ::accept(sock_.fd(), nullptr, nullptr);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR) continue;
    // EINVAL/EBADF: listener shut down under us (server stop). Anything
    // else is a transient accept failure; either way the caller rechecks
    // its stop flag.
    return Socket();
  }
  return Socket();
}

void TcpListener::shutdown() {
  // ::shutdown wakes a thread blocked in accept() (close() alone does
  // not on Linux). Only the syscall — fd_ stays untouched so a
  // concurrent accept() never reads a half-written descriptor.
  if (sock_.valid()) ::shutdown(sock_.fd(), SHUT_RDWR);
}

void TcpListener::close() { sock_.close(); }

Socket tcp_connect(const std::string& address, std::uint16_t port,
                   std::uint32_t recv_timeout_ms,
                   std::uint32_t send_timeout_ms) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) {
    throw std::runtime_error("net: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  sockaddr_in addr = make_addr(address, port);
  if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    throw std::runtime_error("net: connect() to " + address + " failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (recv_timeout_ms > 0) sock.set_recv_timeout_ms(recv_timeout_ms);
  if (send_timeout_ms > 0) sock.set_send_timeout_ms(send_timeout_ms);
  return sock;
}

}  // namespace gptc::net
