#include "rpc/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace fb {
namespace rpc {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

// ---------------------------------------------------------------------------
// Endpoint
// ---------------------------------------------------------------------------

Result<Endpoint> Endpoint::Parse(const std::string& spec) {
  Endpoint ep;
  if (spec.rfind("unix:", 0) == 0) {
    ep.is_unix = true;
    ep.path = spec.substr(5);
    if (ep.path.empty()) {
      return Status::InvalidArgument("empty unix socket path: " + spec);
    }
    if (ep.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " + spec);
    }
    return ep;
  }
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    return Status::InvalidArgument("endpoint must be host:port or unix:/path: " +
                                   spec);
  }
  ep.host = spec.substr(0, colon);
  char* end = nullptr;
  const long port = std::strtol(spec.c_str() + colon + 1, &end, 10);
  if (*end != '\0' || port < 0 || port > 65535) {
    return Status::InvalidArgument("bad port in endpoint: " + spec);
  }
  ep.port = static_cast<int>(port);
  return ep;
}

std::string Endpoint::ToString() const {
  if (is_unix) return "unix:" + path;
  return host + ":" + std::to_string(port);
}

namespace {

// Fills a sockaddr for `ep`; resolves the TCP host with getaddrinfo.
Status ResolveTcp(const Endpoint& ep, sockaddr_storage* addr,
                  socklen_t* addr_len) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port = std::to_string(ep.port);
  const int rc = ::getaddrinfo(ep.host.c_str(), port.c_str(), &hints, &res);
  if (rc != 0 || res == nullptr) {
    return Status::IOError("resolve " + ep.host + ": " + gai_strerror(rc));
  }
  std::memcpy(addr, res->ai_addr, res->ai_addrlen);
  *addr_len = res->ai_addrlen;
  ::freeaddrinfo(res);
  return Status::OK();
}

void FillUnix(const Endpoint& ep, sockaddr_un* addr, socklen_t* addr_len) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::strncpy(addr->sun_path, ep.path.c_str(), sizeof(addr->sun_path) - 1);
  *addr_len = sizeof(*addr);
}

}  // namespace

// ---------------------------------------------------------------------------
// Socket
// ---------------------------------------------------------------------------

Result<Socket> Socket::Connect(const Endpoint& ep) {
  int fd = -1;
  if (ep.is_unix) {
    sockaddr_un addr;
    socklen_t len = 0;
    FillUnix(ep, &addr, &len);
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Status::IOError(Errno("socket"));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), len) != 0) {
      const Status s = Status::IOError(Errno("connect " + ep.ToString()));
      ::close(fd);
      return s;
    }
  } else {
    sockaddr_storage addr;
    socklen_t len = 0;
    FB_RETURN_NOT_OK(ResolveTcp(ep, &addr, &len));
    fd = ::socket(addr.ss_family, SOCK_STREAM, 0);
    if (fd < 0) return Status::IOError(Errno("socket"));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), len) != 0) {
      const Status s = Status::IOError(Errno("connect " + ep.ToString()));
      ::close(fd);
      return s;
    }
    // RPC frames are small request/response units; never batch them.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return Socket(fd);
}

Status Socket::SendAll(const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  while (n > 0) {
    const ssize_t w = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(Errno("send"));
    }
    if (w == 0) return Status::IOError("send: connection closed");
    p += w;
    n -= static_cast<size_t>(w);
  }
  return Status::OK();
}

Status Socket::RecvAll(void* data, size_t n) {
  uint8_t* p = static_cast<uint8_t*>(data);
  while (n > 0) {
    const ssize_t r = ::recv(fd_, p, n, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(Errno("recv"));
    }
    if (r == 0) return Status::IOError("recv: connection closed");
    p += r;
    n -= static_cast<size_t>(r);
  }
  return Status::OK();
}

Status Socket::RecvSome(void* data, size_t n, size_t* received) {
  *received = 0;
  for (;;) {
    const ssize_t r = ::recv(fd_, data, n, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(Errno("recv"));
    }
    if (r == 0) return Status::IOError("recv: connection closed");
    *received = static_cast<size_t>(r);
    return Status::OK();
  }
}

bool Socket::PeerClosed() const {
  char byte;
  for (;;) {
    const ssize_t r = ::recv(fd_, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
    if (r > 0) return false;  // unread bytes: still open
    if (r == 0) return true;  // clean EOF
    if (errno == EINTR) continue;
    return errno != EAGAIN && errno != EWOULDBLOCK;
  }
}

Status Socket::SetNonBlocking() {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Status::IOError(Errno("fcntl O_NONBLOCK"));
  }
  return Status::OK();
}

void Socket::SetSendTimeout(int seconds) {
  if (fd_ < 0 || seconds <= 0) return;
  timeval tv{};
  tv.tv_sec = seconds;
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void Socket::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// ---------------------------------------------------------------------------
// Listener
// ---------------------------------------------------------------------------

Result<Listener> Listener::Listen(const Endpoint& ep, int backlog) {
  Listener l;
  if (ep.is_unix) {
    // A stale socket file from a dead server would fail bind, but
    // unlinking blindly would silently hijack a LIVE server's path: a
    // successful probe connect means someone is already serving here.
    {
      Result<Socket> probe = Socket::Connect(ep);
      if (probe.ok()) {
        return Status::AlreadyExists("endpoint already served: " +
                                     ep.ToString());
      }
    }
    ::unlink(ep.path.c_str());
    sockaddr_un addr;
    socklen_t len = 0;
    FillUnix(ep, &addr, &len);
    l.fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (l.fd_ < 0) return Status::IOError(Errno("socket"));
    if (::bind(l.fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0) {
      return Status::IOError(Errno("bind " + ep.ToString()));
    }
    l.unix_path_ = ep.path;
    l.bound_ = ep.ToString();
  } else {
    sockaddr_storage addr;
    socklen_t len = 0;
    FB_RETURN_NOT_OK(ResolveTcp(ep, &addr, &len));
    l.fd_ = ::socket(addr.ss_family, SOCK_STREAM, 0);
    if (l.fd_ < 0) return Status::IOError(Errno("socket"));
    int one = 1;
    ::setsockopt(l.fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(l.fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0) {
      return Status::IOError(Errno("bind " + ep.ToString()));
    }
    // Report the kernel-assigned port when the caller asked for :0.
    sockaddr_storage bound;
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(l.fd_, reinterpret_cast<sockaddr*>(&bound),
                      &bound_len) != 0) {
      return Status::IOError(Errno("getsockname"));
    }
    int port = ep.port;
    if (bound.ss_family == AF_INET) {
      port = ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port);
    } else if (bound.ss_family == AF_INET6) {
      port = ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port);
    }
    l.bound_ = ep.host + ":" + std::to_string(port);
  }
  if (::listen(l.fd_, backlog) != 0) {
    return Status::IOError(Errno("listen " + ep.ToString()));
  }
  return l;
}

Result<Socket> Listener::Accept() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return Status::IOError(Errno("accept"));
  }
}

void Listener::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Listener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
    unix_path_.clear();
  }
}

}  // namespace rpc
}  // namespace fb
