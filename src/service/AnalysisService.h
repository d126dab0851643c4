//===- service/AnalysisService.h - Concurrent MOD/USE query engine -*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrent analysis service: many threads query GMOD / RMOD /
/// MOD(s) / USE(s) while edits stream in.  Single-writer / multi-reader
/// MVCC:
///
///  - Edits are serialized onto one writer thread that owns the
///    incremental::AnalysisSession.  The writer drains its queue in
///    batches, applies the batch, flushes once (so a burst of edits pays
///    for one re-propagation — the session's laziness, preserved across
///    the thread boundary), captures an immutable AnalysisSnapshot, and
///    publishes it with an atomic shared_ptr swap.
///
///  - Queries run on a fixed worker pool.  A worker drains a burst of
///    requests, pins the current snapshot once, answers every request in
///    the burst from that snapshot (identical queries in a burst are
///    deduplicated and evaluated once), and never takes a lock on the
///    read path: pin + answer is two atomic shared_ptr operations plus
///    pure reads of immutable data.
///
/// Every response carries the generation of the snapshot that answered
/// it, so clients can reason about staleness ("answered as of generation
/// G") — the consistency contract is that each response is bit-for-bit
/// correct for *some* published generation, never a torn mix of two.
///
/// Backpressure: both queues are bounded; trySubmit() refuses instead of
/// buffering without limit, and the front end turns that refusal into an
/// "overloaded, retry" response.  Observability: per-endpoint counters,
/// read/write latency histograms, and a `stats` command (plus an optional
/// periodic JSON line on stderr).
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_SERVICE_ANALYSISSERVICE_H
#define IPSE_SERVICE_ANALYSISSERVICE_H

#include "ir/Program.h"
#include "service/AnalysisSnapshot.h"
#include "service/ScriptDriver.h"
#include "support/LatencyHistogram.h"
#include "support/MpmcQueue.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ipse {
namespace incremental {
class AnalysisSession;
}
namespace observe {
class TraceSink;
}
namespace persist {
class Store;
}

namespace service {

struct ServiceOptions {
  /// Reader pool size.  0 is permitted (useful for deterministic
  /// backpressure tests: queries queue up but are never served).
  unsigned Workers = 2;
  /// Capacity of each request queue (reads and writes are queued
  /// separately); tryPush beyond this is refused.
  std::size_t QueueCapacity = 256;
  /// Max requests drained per wakeup — the batching window.
  std::size_t MaxBatch = 32;
  /// Forwarded to the session (maintain the USE pipeline).
  bool TrackUse = true;
  /// When nonzero, a stats thread prints one statsJson() line to
  /// \c StatsOut every this-many milliseconds.
  unsigned StatsIntervalMs = 0;
  /// Stream for periodic stats lines (defaults to stderr).
  std::FILE *StatsOut = nullptr;
  /// When set, worker query evaluation and writer flushes run under
  /// request-tagged TraceScopes streaming here (must be thread-safe; not
  /// owned; must outlive the service).
  observe::TraceSink *Sink = nullptr;
  /// Slow-op threshold in microseconds (0 = off).  Query evaluations and
  /// writer flushes whose wall time exceeds it emit a structured
  /// SlowQueryRecord to \c Sink, a flight-recorder event, and bump the
  /// "slow_queries_total" counter.  The CLI's `--slow-ms` lands here.
  std::uint64_t SlowQueryUs = 0;
  /// When non-empty, durable mode: the directory must exist.  If it holds
  /// a store, the service recovers from it (latest snapshot + WAL tail;
  /// the initial program and TrackUse are taken from the store, not from
  /// the constructor arguments); otherwise it is initialized from the
  /// constructor's program.  Every applied edit batch is then
  /// write-ahead-logged (fsync'd) before its snapshot publishes, and the
  /// store compacts on the thresholds below, plus once at shutdown.
  std::string DataDir;
  /// Compact when the WAL reaches this many records / bytes.
  std::uint64_t CompactWalRecords = 1024;
  std::uint64_t CompactWalBytes = 8u << 20;
};

/// One answer.  For edits, Result is empty and Generation is the
/// generation the edit produced; for queries, Result is exactly the text
/// `ipse-cli session` would print and Generation identifies the snapshot
/// that answered.
struct Response {
  std::uint64_t Id = 0;
  bool Ok = true;
  /// True when the request was refused for load (resubmit later).
  bool Retry = false;
  /// False only for a failed `check`.
  bool CheckOk = true;
  /// True when Result is pre-rendered JSON (the `stats` endpoint).
  bool ResultIsJson = false;
  std::uint64_t Generation = 0;
  /// The request's trace id, echoed back verbatim (empty if none given).
  std::string TraceId;
  std::string Result;
  std::string Error;
  /// Per-query demand attribution (demand-engine targets only): how much
  /// region solving this specific query triggered.  Rendered as a nested
  /// "stats" object on the wire when HasStats is true.
  bool HasStats = false;
  std::uint64_t RegionProcs = 0;
  std::uint64_t MemoHits = 0;
  std::uint64_t FrontierCuts = 0;
};

/// The process-wide EffectSet representation policy as the short string
/// slow-query records carry ("auto" / "dense" / "sparse").
const char *defaultReprName();

/// Monotonic counters, readable at any time (relaxed loads).
struct ServiceCounters {
  std::uint64_t Edits = 0;        ///< Edit commands applied.
  std::uint64_t Queries = 0;      ///< Query commands answered.
  std::uint64_t Errors = 0;       ///< Requests answered with ok=false.
  std::uint64_t Rejected = 0;     ///< trySubmit refusals (backpressure).
  std::uint64_t ReadBatches = 0;  ///< Worker wakeups.
  std::uint64_t BatchedReads = 0; ///< Requests across all read batches.
  std::uint64_t DedupSaved = 0;   ///< Walks avoided by in-batch dedup.
  std::uint64_t Published = 0;    ///< Snapshots published (excl. initial).
};

class AnalysisService {
public:
  using ResponseFn = std::function<void(Response)>;
  using PublishFn =
      std::function<void(std::shared_ptr<const AnalysisSnapshot>)>;

  /// Builds the session, publishes the generation-0 snapshot, and starts
  /// the writer + worker (+ optional stats) threads.  With
  /// Options.DataDir set, throws std::runtime_error if the store cannot
  /// be recovered or initialized (a service that silently dropped
  /// durability would be worse than one that refuses to start).
  AnalysisService(ir::Program Initial, ServiceOptions Options = {});
  ~AnalysisService();

  AnalysisService(const AnalysisService &) = delete;
  AnalysisService &operator=(const AnalysisService &) = delete;

  /// Routes \p Cmd without blocking.  Returns true if accepted — \p Done
  /// will be invoked exactly once, on a service thread (or inline for
  /// `stats` and malformed commands).  Returns false when the target
  /// queue is full or the service is stopped; \p Done is NOT invoked and
  /// the caller should answer "retry later".  \p TraceId tags the spans
  /// this request produces (Options.Sink) and is echoed in the response.
  bool trySubmit(std::uint64_t Id, ScriptCommand Cmd, ResponseFn Done,
                 std::string TraceId = {});

  /// Blocking convenience used by tests and the stress driver: submits
  /// (waiting for queue space rather than refusing) and waits for the
  /// answer.
  Response call(ScriptCommand Cmd, std::string TraceId = {});
  /// Parses \p Line first; parse errors come back as ok=false responses.
  Response call(std::string_view Line, std::string TraceId = {});

  /// The currently published snapshot (never null).
  std::shared_ptr<const AnalysisSnapshot> snapshot() const {
    return Current.load(std::memory_order_acquire);
  }
  /// Generation gauge: the published snapshot's generation.
  std::uint64_t generation() const { return snapshot()->generation(); }

  /// Installs \p Hook, invoked on the writer thread for every snapshot
  /// published after this call (the stress test's record of history).
  void setPublishHook(PublishFn Hook);

  ServiceCounters counters() const;
  /// One JSON object: counters, queue gauges, generation, and latency
  /// histograms ("read_lat" / "write_lat").
  std::string statsJson() const;

  /// Stops accepting requests, drains both queues, and joins all
  /// threads.  Idempotent; the destructor calls it.
  void stop();

  const ServiceOptions &options() const { return Opts; }

private:
  struct Pending {
    std::uint64_t Id = 0;
    ScriptCommand Cmd;
    ResponseFn Done;
    std::string TraceId;
    std::chrono::steady_clock::time_point Enqueued;
  };

  void writerLoop();
  void workerLoop();
  void statsLoop();
  void publish(std::shared_ptr<const AnalysisSnapshot> Snap);
  /// Pushes current queue depths and snapshot age into the process-wide
  /// observe::MetricsRegistry (called per writer batch and on demand by
  /// the stats / metrics endpoints).
  void refreshGauges() const;
  /// Routes one request; \p Blocking selects push vs. tryPush.
  bool submit(Pending P, bool Blocking);
  std::uint64_t elapsedMicros(const Pending &P) const;

  ServiceOptions Opts;
  std::unique_ptr<incremental::AnalysisSession> Session; ///< Writer-owned.
  /// Durable store (DataDir mode only).  Confined to the writer thread
  /// after construction; reset on a WAL write error (the service keeps
  /// serving from memory but refuses to pretend it is still durable).
  std::unique_ptr<persist::Store> DataStore;
  std::atomic<std::shared_ptr<const AnalysisSnapshot>> Current;

  MpmcQueue<Pending> WriteQueue, ReadQueue;
  std::thread Writer;
  std::vector<std::thread> Pool;

  std::mutex HookMutex;
  PublishFn Hook;

  // Counters (relaxed; single logical writer each or inherently racy
  // gauges).
  std::atomic<std::uint64_t> CntEdits{0}, CntQueries{0}, CntErrors{0},
      CntRejected{0}, CntReadBatches{0}, CntBatchedReads{0},
      CntDedupSaved{0}, CntPublished{0};
  LatencyHistogram ReadLat, WriteLat;
  /// nowNanos() of the last publish (snapshot-age gauge input).
  std::atomic<std::uint64_t> LastPublishNs{0};

  std::thread StatsThread;
  std::mutex StatsMutex;
  std::condition_variable StatsCv;
  bool Stopping = false;
  std::atomic<bool> Stopped{false};
};

} // namespace service
} // namespace ipse

#endif // IPSE_SERVICE_ANALYSISSERVICE_H
