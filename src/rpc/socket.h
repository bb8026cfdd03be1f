// Minimal blocking-socket layer for the ForkBase RPC transport.
//
// Endpoints are strings: "host:port" (TCP; "host:0" binds an ephemeral
// port) or "unix:/path/to.sock" (Unix domain). Socket and Listener are
// move-only RAII wrappers over one fd; Shutdown() may be called from
// another thread to unblock a blocked Recv/Accept (the idiom the server
// uses to stop its per-connection readers and accept loop).

#ifndef FORKBASE_RPC_SOCKET_H_
#define FORKBASE_RPC_SOCKET_H_

#include <string>
#include <utility>

#include "util/status.h"

namespace fb {
namespace rpc {

// Parsed form of an endpoint string; Parse rejects anything else.
struct Endpoint {
  bool is_unix = false;
  std::string host;  // TCP only
  int port = 0;      // TCP only
  std::string path;  // Unix only

  static Result<Endpoint> Parse(const std::string& spec);
  std::string ToString() const;
};

// A connected stream socket.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Socket& operator=(Socket&& o) noexcept {
    if (this != &o) {
      Close();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  static Result<Socket> Connect(const Endpoint& ep);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // Writes exactly `n` bytes (looping over partial sends, SIGPIPE
  // suppressed); IOError on any failure.
  Status SendAll(const void* data, size_t n);
  // Reads exactly `n` bytes; IOError mentioning "closed" on clean EOF.
  Status RecvAll(void* data, size_t n);
  // Reads whatever is available, up to `n` bytes (blocks until at least
  // one arrives); IOError mentioning "closed" on clean EOF. The gulp
  // primitive FrameReader amortizes its syscalls with.
  Status RecvSome(void* data, size_t n, size_t* received);
  // True when the peer has closed or reset the connection. Never blocks
  // and consumes nothing (a non-blocking MSG_PEEK): a client checks an
  // idle pooled connection with it before reusing it.
  bool PeerClosed() const;

  // Switches the fd to non-blocking mode (the server's event loop owns
  // readiness; sends and recvs then return EAGAIN instead of blocking).
  Status SetNonBlocking();

  // Bounds one blocking send; past the timeout SendAll fails with
  // IOError instead of wedging the calling thread forever.
  void SetSendTimeout(int seconds);

  // Unblocks any thread stuck in RecvAll/SendAll; the socket stays
  // owned (Close still required). Safe to call concurrently.
  void Shutdown();
  void Close();

 private:
  int fd_ = -1;
};

// A listening socket.
class Listener {
 public:
  Listener() = default;
  ~Listener() { Close(); }

  Listener(Listener&& o) noexcept
      : fd_(o.fd_), bound_(std::move(o.bound_)), unix_path_(std::move(o.unix_path_)) {
    o.fd_ = -1;
    o.unix_path_.clear();
  }
  Listener& operator=(Listener&& o) noexcept {
    if (this != &o) {
      Close();
      fd_ = o.fd_;
      bound_ = std::move(o.bound_);
      unix_path_ = std::move(o.unix_path_);
      o.fd_ = -1;
      o.unix_path_.clear();
    }
    return *this;
  }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  static Result<Listener> Listen(const Endpoint& ep, int backlog = 64);

  // The resolved endpoint string (with the real port when 0 was asked).
  const std::string& bound_endpoint() const { return bound_; }

  int fd() const { return fd_; }

  Result<Socket> Accept();

  // Unblocks a blocked Accept (it returns IOError afterwards).
  void Shutdown();
  void Close();

 private:
  int fd_ = -1;
  std::string bound_;
  std::string unix_path_;  // unlinked on Close
};

}  // namespace rpc
}  // namespace fb

#endif  // FORKBASE_RPC_SOCKET_H_
