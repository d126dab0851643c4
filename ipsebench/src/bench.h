//===- ipsebench/src/bench.h - Shared pieces of the repo benchmark --------===//
//
// The benchmark drives the shipped `ipse-cli` binary from outside (the
// untraced end-to-end runs) and replays the same seeded inputs in-process
// under the benchmark's own spans (the traced per-layer runs).  Nothing in
// here instruments the program: every span wraps a call into a module's
// public functions from this side of the API.
//
//===----------------------------------------------------------------------===//

#ifndef IPSEBENCH_BENCH_H
#define IPSEBENCH_BENCH_H

#include "incremental/Edit.h"
#include "ir/Program.h"
#include "synth/EditGen.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ipsebench {

/// Everything a workload needs from the command line.
struct Config {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Cli;     ///< Path of the ipse-cli binary under test.
  std::string WorkDir; ///< Scratch directory for this run (inside the checkout).
  std::string NoSync;  ///< Path of the fsync shim preloaded into servers.
};

/// One run's outcome: the contract's four keys plus the human-readable
/// lines printed before the final JSON object.
struct Result {
  bool Correct = true;
  /// The run measured the benchmark rather than the program (its load
  /// generator fell behind): no metrics are reported.
  bool Invalid = false;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  /// name -> (value, unit), printed in insertion order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;
  /// Extra facts (lateness, validity, sample counts) printed as an info line.
  std::map<std::string, std::string> Info;
  std::vector<std::string> Notes;

  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, {Value, Unit}});
  }
  void fail(const std::string &Why) {
    Correct = false;
    Notes.push_back("check failed: " + Why);
  }
};

// ---- time and statistics -------------------------------------------------

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of \p V (0 <= Q <= 1); 0 for an empty sample.
double percentile(std::vector<double> V, double Q);
double median(std::vector<double> V);

// ---- spans (traced runs only) ----------------------------------------------

/// One timed call into a layer.  Name is "<layer>.<call>"; Parent indexes
/// the enclosing span (-1 at the root); Req groups the spans of one
/// request or one replayed input.
struct Span {
  const char *Name;
  std::int64_t Start, End;
  std::int32_t Parent;
  std::uint64_t Req;
};

/// The in-memory span buffer.  Spans are recorded only while Enabled; the
/// buffer is written out once, when the run ends.
struct Tracer {
  bool Enabled = false;
  std::uint64_t Req = 0;
  std::vector<Span> Spans;
  std::vector<std::int32_t> Stack;

  static Tracer &get();
  /// Self time per span name: duration minus the part its children cover.
  std::map<std::string, double> selfMsByName() const;
  /// Sum of durations per span name, in milliseconds.
  std::map<std::string, double> totalMsByName() const;
  bool writeJsonl(const std::string &Path) const;
};

/// RAII span; free when the tracer is disabled.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  std::int32_t Idx = -1;
};

// ---- files and processes ---------------------------------------------------

bool writeFile(const std::string &Path, const std::string &Text);

/// Runs argv to completion with stdout captured into \p Out.  Returns the
/// exit status (-1 on spawn failure or a signal); \p WallNs and \p MaxRssKb
/// receive the child's wall time and ru_maxrss.
int runCapture(const std::vector<std::string> &Argv, std::string &Out,
               std::int64_t &WallNs, long &MaxRssKb);

/// A server child: stdin is a pipe held open (closing it stops the
/// server), stderr goes to a log file from which the bound port is read.
struct ServerProc {
  int Pid = -1;
  int StdinFd = -1;
  std::string LogPath;
  std::uint16_t Port = 0;
  std::string Preload; ///< Library to LD_PRELOAD into the child, if set.

  bool start(const std::vector<std::string> &Argv, const std::string &Log);
  /// Polls the log for "serving on 127.0.0.1:<port>"; false on timeout or
  /// if the child died.
  bool waitForPort(double TimeoutS);
  bool alive();
  /// VmHWM of the child in MiB (0 if unreadable).
  double peakRssMb() const;
  /// Closes stdin and waits up to \p TimeoutS, then kills.  Idempotent.
  void stop(double TimeoutS = 30);
  ~ServerProc() { stop(5); }
};

int connectLoopback(std::uint16_t Port);

/// Acknowledges what \p Fd has received at once rather than after the
/// delayed-ACK timer.  The server leaves Nagle on, so a response written
/// while the previous one is unacknowledged waits for the client's ACK (up
/// to 40 ms); acknowledging at once keeps that kernel timer out of the
/// latencies.  Linux clears the option after each ACK: call after every
/// read.
void quickAck(int Fd);

/// One blocking request/response on a connected socket (closed loop, used
/// for set-up, stats verbs and the quiesced check sweep).  Returns the raw
/// response line, or "" on error.
std::string roundTrip(int Fd, const std::string &RequestLine,
                      double TimeoutS = 30);

// ---- independent output oracle (src/baselines) ----------------------------

/// GMOD/GUSE per procedure and DMOD/DUSE per call site, computed by the
/// round-robin iterative solver — never by the engines under test.  The
/// paper's solvers equal this oracle on procedures reachable from main
/// (the §3.3 precondition), so only those are compared; Reachable is a
/// plain search over call sites.
struct Oracle {
  std::vector<std::string> GMod, GUse; ///< Rendered sets per proc.
  std::vector<std::string> DMod, DUse; ///< Rendered sets per site.
  std::vector<bool> Reachable;         ///< Per proc, from main.
  explicit Oracle(const ipse::ir::Program &P);
  /// Compares an `ipse-cli report` text line by line with the oracle,
  /// skipping unreachable procedures and their call sites.  On a mismatch
  /// returns false with the first differing line in \p Why.
  bool checkReport(const ipse::ir::Program &P, const std::string &Got,
                   std::string &Why) const;
};

/// The edits every workload draws: effect and call-structure deltas, but
/// no call removals.  A removal can leave a procedure unreachable, and the
/// paper's solvers equal the call-chain oracle only when every procedure
/// is reachable (§3.3).
ipse::synth::EditGenConfig editConfig(std::uint64_t Seed);

/// Applies one resolved edit to a bare program (the benchmark's shadow
/// copy) through ir::ProgramEditor.
void applyToShadow(ipse::ir::Program &P, const ipse::incremental::Edit &E);

/// Makes every procedure reachable from main (the paper's §3.3
/// precondition) without changing the procedure count: in nesting order,
/// each unreachable procedure gets a call from its lexical parent, with
/// expression actuals.
void makeReachable(ipse::ir::Program &P);

// ---- workloads ---------------------------------------------------------------

void runCompile(const Config &C, Result &R);
void runFleet(const Config &C, Result &R);

} // namespace ipsebench

#endif // IPSEBENCH_BENCH_H
