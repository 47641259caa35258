/**
 * @file
 * Socket, self-pipe, and signal-hygiene helpers for the long-running
 * tools (azoo_serve, azoo_run, bench/serve_latency).
 *
 * Everything here follows the library's recoverable-error posture: a
 * peer that disappears mid-write is the *network's* fault, so it
 * surfaces as a Status (kIoError carrying the errno name — EPIPE,
 * ECONNRESET), never a signal or an exit. ignoreSigpipe() makes that
 * possible process-wide: with SIGPIPE defaulted, the first write to a
 * dropped client kills the daemon before the error path ever runs.
 *
 * Addresses are strings so tools and tests share one syntax:
 *   "unix:/path/to.sock"  Unix-domain stream socket
 *   "tcp:PORT"            TCP on 127.0.0.1 (PORT 0 picks a free one)
 *
 * Signal delivery is routed through the classic self-pipe trick: the
 * async-signal-safe handler writes one byte to a non-blocking pipe
 * whose read end sits in the server's poll set, so signal handling
 * happens on the event loop with no async-signal-safety constraints.
 * installCancelOnSignals() is the lighter variant for synchronous
 * tools: the handler raises a RunGuard's cancellation flag (one
 * lock-free atomic store), so a Ctrl-C'd azoo_run yields a truncated
 * but exact result instead of dying mid-write.
 */

#ifndef AZOO_UTIL_NET_HH
#define AZOO_UTIL_NET_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "util/status.hh"

namespace azoo {

class RunGuard;

namespace net {

/** Owning file descriptor (move-only; close on destruction). */
class Fd
{
  public:
    Fd() = default;
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd() { close(); }

    Fd(Fd &&o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
    Fd &
    operator=(Fd &&o) noexcept
    {
        if (this != &o) {
            close();
            fd_ = o.fd_;
            o.fd_ = -1;
        }
        return *this;
    }
    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;

    int get() const { return fd_; }
    bool valid() const { return fd_ >= 0; }

    /** Release ownership without closing. */
    int
    release()
    {
        int fd = fd_;
        fd_ = -1;
        return fd;
    }

    void close();

  private:
    int fd_ = -1;
};

/** Outcome of one non-blocking read/write attempt. */
struct IoResult {
    size_t n = 0;           ///< bytes transferred
    bool eof = false;       ///< read: orderly peer shutdown
    bool wouldBlock = false; ///< EAGAIN/EWOULDBLOCK — retry via poll
};

/** Ignore SIGPIPE process-wide (idempotent). Every long-running tool
 *  calls this before its first socket write. */
void ignoreSigpipe();

/** Set O_NONBLOCK on @p fd. */
Status setNonBlocking(int fd);

/**
 * Bind and listen on @p addr ("unix:PATH" or "tcp:PORT"). A stale
 * unix socket file at PATH is unlinked first (daemons restart). The
 * returned fd is non-blocking and close-on-exec. A TCP listener has
 * TCP_NODELAY set, and the connections it accepts inherit it.
 */
Expected<Fd> listenOn(const std::string &addr, int backlog = 128);

/** Local port of a bound TCP socket (for "tcp:0"); 0 for unix. */
uint16_t localPort(int fd);

/** Blocking connect to @p addr (same syntax as listenOn). The
 *  returned fd is blocking — clients use poll for timeouts — and a
 *  TCP fd has TCP_NODELAY set. */
Expected<Fd> connectTo(const std::string &addr);

/** Accept one connection from a listening fd: IoResult.wouldBlock
 *  when none is pending. The accepted fd is non-blocking. */
Expected<Fd> acceptOn(int listenFd, bool &wouldBlock);

/** One non-blocking read(2). kIoError on a hard error (message names
 *  the errno, e.g. "read: ECONNRESET"). */
Expected<IoResult> readSome(int fd, void *buf, size_t len);

/** One non-blocking write(2). A dropped peer is kIoError "write:
 *  EPIPE" (requires ignoreSigpipe(), or the process dies instead). */
Expected<IoResult> writeSome(int fd, const void *buf, size_t len);

/** Blocking write-all with poll; used by clients. kIoError (EPIPE on
 *  a dropped peer) or kDeadlineExceeded on @p timeoutMs (0 = none). */
Status writeAll(int fd, const void *buf, size_t len,
                int timeoutMs = 0);

/** Blocking read of exactly @p len bytes with poll. kIoError "eof"
 *  if the peer closes first; kDeadlineExceeded on timeout. */
Status readAll(int fd, void *buf, size_t len, int timeoutMs = 0);

/** Bit for @p signo in a SelfPipe::drain() mask (signo < 32, which
 *  covers every classic POSIX signal). */
inline constexpr uint32_t
sigBit(int signo)
{
    return 1u << static_cast<unsigned>(signo);
}

/**
 * The self-pipe: signal handlers write, the event loop polls the
 * read end. A process has one (global()); installTermHandlers()
 * points SIGTERM/SIGINT/SIGHUP at it.
 */
class SelfPipe
{
  public:
    /** The process-wide instance (created on first use). */
    static SelfPipe &global();

    /** Async-signal-safe: write one byte (dropped when full, which
     *  is fine — one pending byte already means "wake up"). */
    void notify(int signo);

    /** Read end for poll sets. */
    int readFd() const { return read_.get(); }

    /** Drain pending bytes; returns the sigBit() mask of every signal
     *  delivered since the previous drain (0 if none). A mask, not a
     *  last-signal value: a SIGHUP racing a SIGTERM must not make the
     *  daemon forget to drain (or reload). */
    uint32_t drain();

  private:
    SelfPipe();

    Fd read_, write_;
};

/** Route SIGTERM, SIGINT, and SIGHUP to SelfPipe::global() (and
 *  ignore SIGPIPE). The daemon's poll loop owns the actual handling:
 *  TERM/INT begin a drain, HUP triggers a ruleset reload. */
void installTermHandlers();

/**
 * Synchronous-tool signal hygiene: ignore SIGPIPE and make SIGTERM /
 * SIGINT raise @p guard's cancellation flag (plus a note on the
 * self-pipe, harmless if nothing polls it). The guarded run then
 * stops at its next poll with kCancelled and the tool reports a
 * truncated-but-exact result. @p guard must outlive the process's
 * signal exposure (tools pass a main()-scoped guard).
 */
void installCancelOnSignals(RunGuard &guard);

} // namespace net
} // namespace azoo

#endif // AZOO_UTIL_NET_HH
