#include "util/net.hh"

#include <arpa/inet.h>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "engine/run_guard.hh"
#include "util/logging.hh"

namespace azoo {
namespace net {

namespace {

/** errno -> short name for Status messages (the common socket set;
 *  anything else prints the number). */
std::string
errnoName(int err)
{
    switch (err) {
      case EPIPE: return "EPIPE";
      case ECONNRESET: return "ECONNRESET";
      case ECONNREFUSED: return "ECONNREFUSED";
      case EADDRINUSE: return "EADDRINUSE";
      case EMFILE: return "EMFILE";
      case ENFILE: return "ENFILE";
      case EACCES: return "EACCES";
      case ENOENT: return "ENOENT";
      case EINTR: return "EINTR";
      case ETIMEDOUT: return "ETIMEDOUT";
      default: return cat("errno ", err);
    }
}

Status
ioError(const char *op, int err)
{
    return Status(ErrorCode::kIoError, cat(op, ": ", errnoName(err)));
}

/** "unix:PATH" / "tcp:PORT" -> kind. */
enum class AddrKind { kUnix, kTcp, kBad };

AddrKind
parseAddr(const std::string &addr, std::string &path, uint16_t &port)
{
    if (addr.rfind("unix:", 0) == 0) {
        path = addr.substr(5);
        if (path.empty() || path.size() >= sizeof(sockaddr_un{}.sun_path))
            return AddrKind::kBad;
        return AddrKind::kUnix;
    }
    if (addr.rfind("tcp:", 0) == 0) {
        const std::string p = addr.substr(4);
        if (p.empty() || p.size() > 5)
            return AddrKind::kBad;
        uint32_t v = 0;
        for (char c : p) {
            if (c < '0' || c > '9')
                return AddrKind::kBad;
            v = v * 10 + static_cast<uint32_t>(c - '0');
        }
        if (v > 65535)
            return AddrKind::kBad;
        port = static_cast<uint16_t>(v);
        return AddrKind::kTcp;
    }
    return AddrKind::kBad;
}

/**
 * Turn off Nagle's algorithm on a TCP socket. Each session ends with
 * small writes (the last DATA frame, FIN, the REPLY); with Nagle on,
 * the sender holds them until the peer's delayed ACK fires (~40 ms
 * on Linux), which put a 40 ms floor under every TCP session. Frames
 * are written whole, so there is nothing for Nagle to coalesce.
 */
Status
setNoDelay(int fd)
{
    const int one = 1;
    if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0)
        return ioError("setsockopt(TCP_NODELAY)", errno);
    return Status();
}

Status
badAddr(const std::string &addr)
{
    return Status(ErrorCode::kInvalidArgument,
                  cat("bad address '", addr,
                      "' (expected unix:PATH or tcp:PORT)"));
}

} // namespace

void
Fd::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
ignoreSigpipe()
{
    ::signal(SIGPIPE, SIG_IGN);
}

Status
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        return ioError("fcntl", errno);
    return Status();
}

Expected<Fd>
listenOn(const std::string &addr, int backlog)
{
    std::string path;
    uint16_t port = 0;
    const AddrKind kind = parseAddr(addr, path, port);
    if (kind == AddrKind::kBad)
        return badAddr(addr);

    const int domain = kind == AddrKind::kUnix ? AF_UNIX : AF_INET;
    Fd fd(::socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!fd.valid())
        return ioError("socket", errno);

    if (kind == AddrKind::kUnix) {
        ::unlink(path.c_str()); // stale socket from a previous run
        sockaddr_un sa{};
        sa.sun_family = AF_UNIX;
        std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
        if (::bind(fd.get(), reinterpret_cast<sockaddr *>(&sa),
                   sizeof(sa)) < 0)
            return ioError("bind", errno);
    } else {
        const int one = 1;
        ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        // Accepted connections inherit TCP_NODELAY from the listener
        // on Linux (checked by Net.TcpBothEndsSetNoDelay in
        // test_util), so acceptOn needs no syscall per connection.
        if (Status st = setNoDelay(fd.get()); !st.ok())
            return st;
        sockaddr_in sa{};
        sa.sin_family = AF_INET;
        sa.sin_port = htons(port);
        sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::bind(fd.get(), reinterpret_cast<sockaddr *>(&sa),
                   sizeof(sa)) < 0)
            return ioError("bind", errno);
    }
    if (::listen(fd.get(), backlog) < 0)
        return ioError("listen", errno);
    if (Status st = setNonBlocking(fd.get()); !st.ok())
        return st;
    return fd;
}

uint16_t
localPort(int fd)
{
    sockaddr_in sa{};
    socklen_t len = sizeof(sa);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&sa), &len) < 0 ||
        sa.sin_family != AF_INET)
        return 0;
    return ntohs(sa.sin_port);
}

Expected<Fd>
connectTo(const std::string &addr)
{
    std::string path;
    uint16_t port = 0;
    const AddrKind kind = parseAddr(addr, path, port);
    if (kind == AddrKind::kBad)
        return badAddr(addr);

    const int domain = kind == AddrKind::kUnix ? AF_UNIX : AF_INET;
    Fd fd(::socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!fd.valid())
        return ioError("socket", errno);

    int rc = 0;
    if (kind == AddrKind::kUnix) {
        sockaddr_un sa{};
        sa.sun_family = AF_UNIX;
        std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
        rc = ::connect(fd.get(), reinterpret_cast<sockaddr *>(&sa),
                       sizeof(sa));
    } else {
        if (Status st = setNoDelay(fd.get()); !st.ok())
            return st;
        sockaddr_in sa{};
        sa.sin_family = AF_INET;
        sa.sin_port = htons(port);
        sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        rc = ::connect(fd.get(), reinterpret_cast<sockaddr *>(&sa),
                       sizeof(sa));
    }
    if (rc < 0)
        return ioError("connect", errno);
    return fd;
}

Expected<Fd>
acceptOn(int listenFd, bool &wouldBlock)
{
    wouldBlock = false;
    const int fd = ::accept4(listenFd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            wouldBlock = true;
            return Fd();
        }
        return ioError("accept", errno);
    }
    return Fd(fd);
}

Expected<IoResult>
readSome(int fd, void *buf, size_t len)
{
    IoResult r;
    const ssize_t n = ::read(fd, buf, len);
    if (n > 0) {
        r.n = static_cast<size_t>(n);
        return r;
    }
    if (n == 0) {
        r.eof = true;
        return r;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
        r.wouldBlock = true;
        return r;
    }
    if (errno == EINTR) {
        r.wouldBlock = true; // retry on the next poll round
        return r;
    }
    return ioError("read", errno);
}

Expected<IoResult>
writeSome(int fd, const void *buf, size_t len)
{
    IoResult r;
    const ssize_t n = ::write(fd, buf, len);
    if (n >= 0) {
        r.n = static_cast<size_t>(n);
        return r;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
        r.wouldBlock = true;
        return r;
    }
    if (errno == EINTR) {
        r.wouldBlock = true;
        return r;
    }
    return ioError("write", errno);
}

namespace {

Status
pollFor(int fd, short events, int timeoutMs)
{
    pollfd p{fd, events, 0};
    const int rc = ::poll(&p, 1, timeoutMs > 0 ? timeoutMs : -1);
    if (rc < 0 && errno != EINTR)
        return ioError("poll", errno);
    if (rc == 0)
        return Status(ErrorCode::kDeadlineExceeded, "io timeout");
    return Status();
}

} // namespace

Status
writeAll(int fd, const void *buf, size_t len, int timeoutMs)
{
    const auto *p = static_cast<const uint8_t *>(buf);
    while (len > 0) {
        Expected<IoResult> r = writeSome(fd, p, len);
        if (!r.ok())
            return r.status();
        if (r->wouldBlock || r->n == 0) {
            if (Status st = pollFor(fd, POLLOUT, timeoutMs); !st.ok())
                return st;
            continue;
        }
        p += r->n;
        len -= r->n;
    }
    return Status();
}

Status
readAll(int fd, void *buf, size_t len, int timeoutMs)
{
    auto *p = static_cast<uint8_t *>(buf);
    while (len > 0) {
        Expected<IoResult> r = readSome(fd, p, len);
        if (!r.ok())
            return r.status();
        if (r->eof)
            return Status(ErrorCode::kIoError, "read: eof");
        if (r->wouldBlock) {
            if (Status st = pollFor(fd, POLLIN, timeoutMs); !st.ok())
                return st;
            continue;
        }
        p += r->n;
        len -= r->n;
    }
    return Status();
}

namespace {

std::atomic<uint32_t> g_pendingSignals{0};

extern "C" void
selfPipeHandler(int signo)
{
    SelfPipe::global().notify(signo);
}

std::atomic<RunGuard *> g_signalGuard{nullptr};

extern "C" void
cancelHandler(int signo)
{
    if (RunGuard *g = g_signalGuard.load(std::memory_order_relaxed))
        g->cancel(); // lock-free atomic store: async-signal-safe
    SelfPipe::global().notify(signo);
}

void
installHandler(void (*handler)(int), bool withHup)
{
    struct sigaction sa {};
    sa.sa_handler = handler;
    ::sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    if (withHup)
        ::sigaction(SIGHUP, &sa, nullptr);
}

} // namespace

SelfPipe::SelfPipe()
{
    int fds[2] = {-1, -1};
    if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) < 0)
        panic("SelfPipe: pipe2 failed");
    read_ = Fd(fds[0]);
    write_ = Fd(fds[1]);
}

SelfPipe &
SelfPipe::global()
{
    static SelfPipe pipe;
    return pipe;
}

void
SelfPipe::notify(int signo)
{
    if (signo >= 0 && signo < 32)
        g_pendingSignals.fetch_or(sigBit(signo),
                                  std::memory_order_relaxed);
    const uint8_t b = 1;
    // A full pipe already guarantees a wakeup; ignore the result.
    [[maybe_unused]] ssize_t n = ::write(write_.get(), &b, 1);
}

uint32_t
SelfPipe::drain()
{
    uint8_t buf[64];
    while (::read(read_.get(), buf, sizeof(buf)) > 0) {
    }
    return g_pendingSignals.exchange(0, std::memory_order_relaxed);
}

void
installTermHandlers()
{
    ignoreSigpipe();
    (void)SelfPipe::global(); // create before any signal can arrive
    installHandler(&selfPipeHandler, /*withHup=*/true);
}

void
installCancelOnSignals(RunGuard &guard)
{
    ignoreSigpipe();
    (void)SelfPipe::global();
    g_signalGuard.store(&guard, std::memory_order_relaxed);
    // No SIGHUP here: synchronous tools have no reload concept, and
    // a terminal hangup should keep its default disposition.
    installHandler(&cancelHandler, /*withHup=*/false);
}

} // namespace net
} // namespace azoo
