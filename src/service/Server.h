//===- service/Server.h - Protocol front ends for the service ---*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Newline-delimited JSON front ends for AnalysisService.  One request per
/// line:
///
///   {"id":7,"cmd":"gmod main"}
///
/// where `cmd` is any session-script command (service/ScriptDriver.h) —
/// the protocol reuses the script grammar verbatim, so the CLI and the
/// wire speak one language.  One response per request (order may differ
/// from submission order under concurrency; correlate by id):
///
///   {"id":7,"ok":true,"gen":3,"result":"GMOD(main) = {x, y}"}
///   {"id":8,"ok":false,"gen":3,"error":"unknown procedure 'nope'"}
///   {"id":9,"ok":false,"retry":true,"error":"overloaded"}        (backpressure)
///
/// Extra response fields: `"check":false` on a failed `check`; the
/// `stats` / `metrics` / `debug` commands return their object (or the
/// flight-recorder's Chrome-trace array) under `"result"` unquoted
/// (`metrics --format=prom` returns Prometheus text as a plain string);
/// and `query` answered by a demand engine carries a nested
/// `"stats":{"region_procs":N,"memo_hits":N,"frontier_cuts":N}` object
/// attributing that query's region solve.
///
/// Tracing: a request may carry `"trace":"<id>"`; the server assigns
/// "s<N>" when absent.  The id is echoed back as `"trace"` and tags every
/// span the request produces in the service's trace sink, so one request's
/// phase tree is recoverable from a shared trace file.
///
/// Front ends: serveFd() pumps one request stream over a pair of file
/// descriptors (used for stdio serving and for each accepted TCP
/// connection); TcpServer accepts loopback connections and serves each on
/// its own thread; runClient() is the line-oriented client the CLI's
/// `client` subcommand wraps.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_SERVICE_SERVER_H
#define IPSE_SERVICE_SERVER_H

#include "service/AnalysisService.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ipse {
namespace service {

/// Renders one response as a protocol line (no trailing newline).
std::string renderResponse(const Response &R);

/// Decodes one request line and routes it into \p Svc.  \p Emit receives
/// exactly one response line per call — possibly on a service thread, so
/// it must be thread-safe.  Malformed envelopes, script parse errors, and
/// backpressure refusals are all answered inline.
void handleRequestLine(AnalysisService &Svc, std::string_view Line,
                       const std::function<void(const std::string &)> &Emit);

/// One request line dispatched by the generic pump below: decode, route,
/// and call \p Emit exactly once (possibly later, from a service thread).
using LineHandler = std::function<void(
    std::string_view Line, const std::function<void(const std::string &)> &Emit)>;

/// The longest request line serveLines() accepts, newline excluded.  A
/// request is a short JSON envelope around one script command; the longest
/// a verb sends is a `load` naming a path of up to PATH_MAX (4096) bytes.
inline constexpr std::size_t MaxRequestLineBytes = 64 * 1024;

/// The protocol pump behind every front end: reads newline-delimited
/// requests from \p InFd until EOF, hands each non-blank line to
/// \p Handle, and writes emitted responses to \p OutFd (write-locked;
/// service threads interleave whole lines).  A line longer than
/// MaxRequestLineBytes is answered with one ok:false error and ends the
/// stream, so the caller closes the connection.  Drains outstanding
/// requests before returning.  \p Handle runs on the reading thread, so
/// per-connection state (the tenant front end's `attach` default) needs
/// no locking.
void serveLines(const LineHandler &Handle, int InFd, int OutFd);

/// Serves single-program requests from \p InFd until EOF (serveLines over
/// handleRequestLine).
void serveFd(AnalysisService &Svc, int InFd, int OutFd);

/// A loopback TCP listener serving each accepted connection on its own
/// thread.  The single-program constructor pumps serveFd(); the handler
/// constructor runs an arbitrary per-connection server (the multi-tenant
/// front end passes a closure that builds fresh connection state and
/// calls serveLines).
class TcpServer {
public:
  using ConnectionFn = std::function<void(int InFd, int OutFd)>;

  explicit TcpServer(AnalysisService &Svc)
      : Handler([&Svc](int InFd, int OutFd) { serveFd(Svc, InFd, OutFd); }) {}
  explicit TcpServer(ConnectionFn Handler) : Handler(std::move(Handler)) {}
  ~TcpServer() { stop(); }

  /// Binds 127.0.0.1:\p Port (0 picks an ephemeral port — see port()),
  /// listens, and starts the accept thread.  Returns false with
  /// \p ErrorOut set on failure.
  bool start(std::uint16_t Port, std::string &ErrorOut);

  /// The bound port (valid after a successful start()).
  std::uint16_t port() const { return BoundPort; }

  /// Stops accepting, shuts down live connections, joins all threads.
  /// Idempotent.
  void stop();

private:
  void acceptLoop();

  ConnectionFn Handler;
  /// Atomic: stop() retires it (exchange to -1) while acceptLoop is
  /// blocked in accept() on it.
  std::atomic<int> ListenFd{-1};
  std::uint16_t BoundPort = 0;
  std::thread Acceptor;
  std::mutex ConnMutex;
  std::vector<int> ConnFds;
  std::vector<std::thread> ConnThreads;
  bool Running = false;
};

/// Connects to 127.0.0.1:\p Port, wraps each line of \p In (a session
/// script; '#' comments and blanks skipped) into a protocol request, and
/// prints each response line to \p Out.  Returns 0 on success, 1 on
/// connection failure or any ok=false response.
int runClient(std::uint16_t Port, std::FILE *In, std::FILE *Out);

/// Connects to 127.0.0.1:\p Port, issues one `metrics` request, and
/// prints the decoded payload — Prometheus text when \p Prom, the raw
/// JSON object otherwise — to \p Out.  Returns 0 on success, 1 on
/// connection or protocol failure.
int runMetricsDump(std::uint16_t Port, bool Prom, std::FILE *Out);

/// Connects to 127.0.0.1:\p Port, issues one `debug` request, and prints
/// the flight-recorder dump (a complete Chrome Trace Event JSON array) to
/// \p Out.  Returns 0 on success, 1 on connection or protocol failure.
int runDebugDump(std::uint16_t Port, std::FILE *Out);

} // namespace service
} // namespace ipse

#endif // IPSE_SERVICE_SERVER_H
