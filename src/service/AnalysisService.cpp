//===- service/AnalysisService.cpp - Concurrent MOD/USE query engine ----------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "service/AnalysisService.h"

#include "incremental/AnalysisSession.h"
#include "observe/FlightRecorder.h"
#include "observe/Metrics.h"
#include "observe/Prometheus.h"
#include "observe/Trace.h"
#include "persist/Store.h"
#include "support/Json.h"

#include <future>
#include <optional>
#include <stdexcept>
#include <unordered_map>

using namespace ipse;
using namespace ipse::service;

namespace {

/// In-batch dedup key: two requests with the same key are the same pure
/// function of the pinned snapshot.
std::string dedupKey(const ScriptCommand &Cmd) {
  std::string Key;
  Key += static_cast<char>('A' + static_cast<int>(Cmd.Kind));
  for (const std::string &A : Cmd.Args) {
    Key += '\x1f';
    Key += A;
  }
  return Key;
}

const char *reprName() {
  switch (EffectSet::defaultRepresentation()) {
  case EffectSet::Representation::Dense:
    return "dense";
  case EffectSet::Representation::Sparse:
    return "sparse";
  case EffectSet::Representation::Auto:
    break;
  }
  return "auto";
}

} // namespace

const char *service::defaultReprName() { return reprName(); }

AnalysisService::AnalysisService(ir::Program Initial, ServiceOptions Options)
    : Opts(Options), WriteQueue(Opts.QueueCapacity),
      ReadQueue(Opts.QueueCapacity) {
  if (Opts.MaxBatch == 0)
    Opts.MaxBatch = 1;
  incremental::SessionOptions SO;
  SO.TrackUse = Opts.TrackUse;
  if (!Opts.DataDir.empty()) {
    persist::StoreOptions PO;
    PO.CompactWalRecords = Opts.CompactWalRecords;
    PO.CompactWalBytes = Opts.CompactWalBytes;
    DataStore = std::make_unique<persist::Store>();
    std::string Err;
    if (persist::Store::exists(Opts.DataDir)) {
      // Warm restart: snapshot planes + WAL tail replace the constructor's
      // program.  TrackUse follows the store — a durable session must
      // resume the configuration it was persisted under.
      persist::RecoveredState RS;
      if (!persist::Store::open(Opts.DataDir, PO, *DataStore, RS, Err))
        throw std::runtime_error("persist: cannot recover '" + Opts.DataDir +
                                 "': " + Err);
      Opts.TrackUse = SO.TrackUse = RS.Snapshot.TrackUse;
      Session = std::make_unique<incremental::AnalysisSession>(
          std::move(RS.Snapshot.Program), SO, std::move(RS.Snapshot.Planes));
      for (const incremental::Edit &E : RS.Tail)
        incremental::applyEdit(*Session, E);
    } else {
      Session = std::make_unique<incremental::AnalysisSession>(
          std::move(Initial), SO);
      if (!persist::Store::init(Opts.DataDir, PO, *Session, *DataStore, Err))
        throw std::runtime_error("persist: cannot initialize '" +
                                 Opts.DataDir + "': " + Err);
    }
  } else {
    Session = std::make_unique<incremental::AnalysisSession>(std::move(Initial),
                                                             SO);
  }
  Current.store(AnalysisSnapshot::capture(*Session, Session->generation()),
                std::memory_order_release);
  LastPublishNs.store(observe::nowNanos(), std::memory_order_relaxed);

  Writer = std::thread([this] { writerLoop(); });
  for (unsigned I = 0; I != Opts.Workers; ++I)
    Pool.emplace_back([this] { workerLoop(); });
  if (Opts.StatsIntervalMs) {
    if (!Opts.StatsOut)
      Opts.StatsOut = stderr;
    StatsThread = std::thread([this] { statsLoop(); });
  }
}

AnalysisService::~AnalysisService() { stop(); }

void AnalysisService::stop() {
  if (Stopped.exchange(true))
    return;
  WriteQueue.close();
  ReadQueue.close();
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    Stopping = true;
  }
  StatsCv.notify_all();
  if (Writer.joinable())
    Writer.join();
  for (std::thread &T : Pool)
    if (T.joinable())
      T.join();
  if (StatsThread.joinable())
    StatsThread.join();
}

void AnalysisService::setPublishHook(PublishFn NewHook) {
  std::lock_guard<std::mutex> Lock(HookMutex);
  Hook = std::move(NewHook);
}

void AnalysisService::publish(std::shared_ptr<const AnalysisSnapshot> Snap) {
  Current.store(Snap, std::memory_order_release);
  LastPublishNs.store(observe::nowNanos(), std::memory_order_relaxed);
  CntPublished.fetch_add(1, std::memory_order_relaxed);
  PublishFn H;
  {
    std::lock_guard<std::mutex> Lock(HookMutex);
    H = Hook;
  }
  if (H)
    H(std::move(Snap));
}

std::uint64_t AnalysisService::elapsedMicros(const Pending &P) const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - P.Enqueued)
          .count());
}

bool AnalysisService::submit(Pending P, bool Blocking) {
  // `stats` is served inline: it reads only atomics, and keeping it out
  // of the queues means it still answers when the service is saturated —
  // exactly when you want to see the counters.
  if (P.Cmd.Kind == ScriptCommand::Op::Stats ||
      P.Cmd.Kind == ScriptCommand::Op::Metrics ||
      P.Cmd.Kind == ScriptCommand::Op::Debug) {
    Response R;
    R.Id = P.Id;
    R.Generation = generation();
    R.TraceId = P.TraceId;
    R.ResultIsJson = true;
    if (P.Cmd.Kind == ScriptCommand::Op::Stats) {
      R.Result = statsJson();
    } else if (P.Cmd.Kind == ScriptCommand::Op::Debug) {
      // Flight-recorder dump: drain every thread's ring into one Chrome
      // Trace Event array.  Served inline for the same reason as stats —
      // it must still answer when the service is wedged.  Single-line:
      // the response is newline-framed.
      R.Result = observe::flight::renderChromeTrace(/*MultiLine=*/false);
    } else {
      refreshGauges();
      if (!P.Cmd.Args.empty() && P.Cmd.Args[0] == "--format=prom") {
        R.Result = observe::prometheusText(observe::MetricsRegistry::global());
        R.ResultIsJson = false;
      } else {
        R.Result = observe::MetricsRegistry::global().toJson();
      }
    }
    CntQueries.fetch_add(1, std::memory_order_relaxed);
    P.Done(std::move(R));
    return true;
  }

  MpmcQueue<Pending> *Q = nullptr;
  if (isEditCommand(P.Cmd.Kind))
    Q = &WriteQueue;
  else if (isQueryCommand(P.Cmd.Kind))
    Q = &ReadQueue;
  else {
    // load / gen re-seed the program wholesale; the serve front end does
    // that at startup, not per-request.
    Response R;
    R.Id = P.Id;
    R.Ok = false;
    R.Generation = generation();
    R.TraceId = P.TraceId;
    R.Error = "command not available while serving";
    CntErrors.fetch_add(1, std::memory_order_relaxed);
    P.Done(std::move(R));
    return true;
  }

  P.Enqueued = std::chrono::steady_clock::now();
  bool Accepted = Blocking ? Q->push(std::move(P)) : Q->tryPush(std::move(P));
  if (!Accepted)
    CntRejected.fetch_add(1, std::memory_order_relaxed);
  return Accepted;
}

bool AnalysisService::trySubmit(std::uint64_t Id, ScriptCommand Cmd,
                                ResponseFn Done, std::string TraceId) {
  Pending P;
  P.Id = Id;
  P.Cmd = std::move(Cmd);
  P.Done = std::move(Done);
  P.TraceId = std::move(TraceId);
  return submit(std::move(P), /*Blocking=*/false);
}

Response AnalysisService::call(ScriptCommand Cmd, std::string TraceId) {
  auto Promise = std::make_shared<std::promise<Response>>();
  std::future<Response> Future = Promise->get_future();
  Pending P;
  P.Cmd = std::move(Cmd);
  P.TraceId = std::move(TraceId);
  P.Done = [Promise](Response R) { Promise->set_value(std::move(R)); };
  if (!submit(std::move(P), /*Blocking=*/true)) {
    Response R;
    R.Ok = false;
    R.Error = "service stopped";
    return R;
  }
  return Future.get();
}

Response AnalysisService::call(std::string_view Line, std::string TraceId) {
  try {
    std::optional<ScriptCommand> Cmd = parseScriptLine(Line, 0);
    if (!Cmd) {
      Response R; // Blank line: trivially OK, answered by nobody.
      R.Generation = generation();
      R.TraceId = std::move(TraceId);
      return R;
    }
    return call(std::move(*Cmd), std::move(TraceId));
  } catch (const ScriptError &E) {
    Response R;
    R.Ok = false;
    R.Generation = generation();
    R.TraceId = std::move(TraceId);
    R.Error = E.Message;
    CntErrors.fetch_add(1, std::memory_order_relaxed);
    return R;
  }
}

//===----------------------------------------------------------------------===//
// Writer thread.
//===----------------------------------------------------------------------===//

void AnalysisService::writerLoop() {
  std::vector<Pending> Batch;
  std::vector<std::string> Failures;
  std::vector<incremental::Edit> Applied;
  while (true) {
    std::optional<Pending> First = WriteQueue.pop();
    if (!First)
      break; // Closed and drained.
    Batch.clear();
    Batch.push_back(std::move(*First));
    WriteQueue.tryPopBatch(Batch, Opts.MaxBatch - 1);
    observe::flight::record(observe::flight::EventKind::QueueDepth,
                            "service.write_queue", WriteQueue.size());

    // Apply the whole batch before flushing: the session defers solve
    // work until queried, so N edits cost one re-propagation.
    Failures.assign(Batch.size(), std::string());
    Applied.clear();
    bool AnyApplied = false;
    for (std::size_t I = 0; I != Batch.size(); ++I) {
      try {
        Applied.push_back(applyEditCommand(*Session, Batch[I].Cmd));
        AnyApplied = true;
      } catch (const ScriptError &E) {
        Failures[I] = E.Message;
      }
    }

    // Durability barrier: the batch's resolved edits hit the WAL (one
    // group-commit fsync) before any snapshot containing them can
    // publish.  A crash after this point replays them; a crash before it
    // never published them, so nothing observable is lost either way.
    if (AnyApplied && DataStore) {
      std::string Err;
      const std::uint64_t W0 = observe::nowNanos();
      if (!DataStore->appendEdits(Applied, Err)) {
        std::fprintf(stderr,
                     "ipse: WAL append failed, persistence disabled: %s\n",
                     Err.c_str());
        observe::MetricsRegistry::global().counter("persist.wal_errors").add();
        DataStore.reset();
      } else {
        observe::flight::record(observe::flight::EventKind::WalAppend,
                                "persist.wal_append", Applied.size());
        // appendEdits is one group-commit write+fsync; its wall time is
        // the fsync story for this batch.
        observe::flight::record(observe::flight::EventKind::WalFsync,
                                "persist.wal_fsync",
                                (observe::nowNanos() - W0) / 1000);
      }
    }

    std::shared_ptr<const AnalysisSnapshot> Snap =
        Current.load(std::memory_order_acquire);
    if (AnyApplied) {
      const std::uint64_t T0 = observe::nowNanos();
      {
        // The flush span is attributed to the request that opened the
        // batch (the edits that ride along share its solve anyway).
        std::optional<observe::TraceScope> Scope;
        if (Opts.Sink)
          Scope.emplace(nullptr, Opts.Sink,
                        observe::ScopeTags{Batch.front().TraceId,
                                           Session->generation(), {}});
        observe::TraceSpan Span("service.flush");
        // capture() flushes; this is the batch's one solve.
        Snap = AnalysisSnapshot::capture(*Session, Session->generation());
      }
      publish(Snap);
      observe::flight::record(observe::flight::EventKind::SnapshotPublish,
                              "service.publish", Snap->generation());
      const std::uint64_t FlushUs = (observe::nowNanos() - T0) / 1000;
      observe::MetricsRegistry &Reg = observe::MetricsRegistry::global();
      Reg.histogram("service.flush_us").record(FlushUs);
      Reg.histogram("service.flush_batch").record(Batch.size());
      if (Opts.SlowQueryUs && FlushUs > Opts.SlowQueryUs) {
        Reg.counter("slow_queries_total").add();
        observe::flight::record(observe::flight::EventKind::SlowQuery,
                                "service.flush", FlushUs);
        if (Opts.Sink) {
          observe::SlowQueryRecord SQ;
          SQ.Op = "service.flush";
          SQ.WallUs = FlushUs;
          SQ.Tid = observe::currentTid();
          SQ.TraceId = Batch.front().TraceId;
          SQ.Generation = Snap->generation();
          SQ.Repr = defaultReprName();
          Opts.Sink->onSlowQuery(SQ);
        }
      }
      refreshGauges();
    }

    if (DataStore && DataStore->shouldCompact()) {
      std::string Err;
      if (!DataStore->compact(*Session, Err))
        std::fprintf(stderr, "ipse: compaction failed (will retry): %s\n",
                     Err.c_str());
    }

    // Durability lag, visible to scrapers: how far the WAL has run ahead
    // of the last durable snapshot.  Updated here because DataStore is
    // confined to this thread.
    if (DataStore) {
      observe::MetricsRegistry &PReg = observe::MetricsRegistry::global();
      PReg.gauge("persist.wal_lag_records")
          .set(static_cast<std::int64_t>(DataStore->walRecords()));
      PReg.gauge("persist.wal_lag_bytes")
          .set(static_cast<std::int64_t>(DataStore->walBytes()));
      PReg.gauge("persist.snapshot_generation")
          .set(static_cast<std::int64_t>(DataStore->snapshotGeneration()));
    }

    observe::MetricsRegistry &Reg = observe::MetricsRegistry::global();
    for (std::size_t I = 0; I != Batch.size(); ++I) {
      Response R;
      R.Id = Batch[I].Id;
      R.Generation = Snap->generation();
      R.TraceId = Batch[I].TraceId;
      if (Failures[I].empty()) {
        CntEdits.fetch_add(1, std::memory_order_relaxed);
      } else {
        R.Ok = false;
        R.Error = Failures[I];
        CntErrors.fetch_add(1, std::memory_order_relaxed);
      }
      std::uint64_t Us = elapsedMicros(Batch[I]);
      WriteLat.record(Us);
      Reg.histogram("service.write_lat_us").record(Us);
      Batch[I].Done(std::move(R));
    }
  }

  // Clean shutdown: fold the WAL into a final snapshot so the next boot
  // loads planes and replays nothing.
  if (DataStore && DataStore->walRecords() > 0) {
    std::string Err;
    if (!DataStore->compact(*Session, Err))
      std::fprintf(stderr, "ipse: final compaction failed: %s\n", Err.c_str());
  }
}

//===----------------------------------------------------------------------===//
// Reader pool.
//===----------------------------------------------------------------------===//

void AnalysisService::workerLoop() {
  std::vector<Pending> Batch;
  while (true) {
    std::optional<Pending> First = ReadQueue.pop();
    if (!First)
      return;
    Batch.clear();
    Batch.push_back(std::move(*First));
    ReadQueue.tryPopBatch(Batch, Opts.MaxBatch - 1);
    CntReadBatches.fetch_add(1, std::memory_order_relaxed);
    CntBatchedReads.fetch_add(Batch.size(), std::memory_order_relaxed);
    observe::flight::record(observe::flight::EventKind::QueueDepth,
                            "service.read_queue", ReadQueue.size());

    // Pin once: every request in the burst is answered from the same
    // generation, and identical requests share one evaluation.
    std::shared_ptr<const AnalysisSnapshot> Snap =
        Current.load(std::memory_order_acquire);
    struct Eval {
      bool Ok = true;
      QueryResult QR;
      std::string Error;
    };
    std::unordered_map<std::string, std::size_t> Memo;
    std::vector<Eval> Evals;

    observe::MetricsRegistry &Reg = observe::MetricsRegistry::global();
    for (Pending &P : Batch) {
      std::string Key = dedupKey(P.Cmd);
      auto [It, Inserted] = Memo.try_emplace(Key, Evals.size());
      if (Inserted) {
        Eval E;
        const std::uint64_t T0 = observe::nowNanos();
        {
          // Tag the evaluation's span tree with the triggering request
          // (dedup followers reuse the result, so the work is theirs
          // too, but the trace attributes it to whoever paid for it).
          std::optional<observe::TraceScope> Scope;
          if (Opts.Sink)
            Scope.emplace(nullptr, Opts.Sink,
                          observe::ScopeTags{P.TraceId, Snap->generation(),
                                             {}});
          observe::TraceSpan Span("service.query");
          try {
            E.QR = evalQueryCommand(*Snap, P.Cmd);
          } catch (const ScriptError &Err) {
            E.Ok = false;
            E.Error = Err.Message;
          }
        }
        const std::uint64_t EvalUs = (observe::nowNanos() - T0) / 1000;
        if (Opts.SlowQueryUs && EvalUs > Opts.SlowQueryUs) {
          Reg.counter("slow_queries_total").add();
          observe::flight::record(observe::flight::EventKind::SlowQuery,
                                  "service.query", EvalUs);
          if (Opts.Sink) {
            observe::SlowQueryRecord SQ;
            SQ.Op = "service.query";
            SQ.WallUs = EvalUs;
            SQ.Tid = observe::currentTid();
            SQ.TraceId = P.TraceId;
            SQ.Generation = Snap->generation();
            SQ.HasDemandStats = E.QR.HasStats;
            SQ.RegionProcs = E.QR.RegionProcs;
            SQ.MemoHits = E.QR.MemoHits;
            SQ.FrontierCuts = E.QR.FrontierCuts;
            SQ.Repr = defaultReprName();
            Opts.Sink->onSlowQuery(SQ);
          }
        }
        Evals.push_back(std::move(E));
      } else {
        CntDedupSaved.fetch_add(1, std::memory_order_relaxed);
      }
      const Eval &E = Evals[It->second];
      Response R;
      R.Id = P.Id;
      R.Generation = Snap->generation();
      R.TraceId = P.TraceId;
      if (E.Ok) {
        R.Result = E.QR.Text;
        R.CheckOk = E.QR.CheckOk;
        R.HasStats = E.QR.HasStats;
        R.RegionProcs = E.QR.RegionProcs;
        R.MemoHits = E.QR.MemoHits;
        R.FrontierCuts = E.QR.FrontierCuts;
        CntQueries.fetch_add(1, std::memory_order_relaxed);
      } else {
        R.Ok = false;
        R.Error = E.Error;
        CntErrors.fetch_add(1, std::memory_order_relaxed);
      }
      std::uint64_t Us = elapsedMicros(P);
      ReadLat.record(Us);
      Reg.histogram("service.read_lat_us").record(Us);
      P.Done(std::move(R));
    }
  }
}

//===----------------------------------------------------------------------===//
// Observability.
//===----------------------------------------------------------------------===//

void AnalysisService::refreshGauges() const {
  observe::MetricsRegistry &Reg = observe::MetricsRegistry::global();
  Reg.gauge("service.write_queue_depth")
      .set(static_cast<std::int64_t>(WriteQueue.size()));
  Reg.gauge("service.read_queue_depth")
      .set(static_cast<std::int64_t>(ReadQueue.size()));
  Reg.gauge("service.snapshot_age_us")
      .set(static_cast<std::int64_t>(
          (observe::nowNanos() -
           LastPublishNs.load(std::memory_order_relaxed)) /
          1000));
}

ServiceCounters AnalysisService::counters() const {
  ServiceCounters C;
  C.Edits = CntEdits.load(std::memory_order_relaxed);
  C.Queries = CntQueries.load(std::memory_order_relaxed);
  C.Errors = CntErrors.load(std::memory_order_relaxed);
  C.Rejected = CntRejected.load(std::memory_order_relaxed);
  C.ReadBatches = CntReadBatches.load(std::memory_order_relaxed);
  C.BatchedReads = CntBatchedReads.load(std::memory_order_relaxed);
  C.DedupSaved = CntDedupSaved.load(std::memory_order_relaxed);
  C.Published = CntPublished.load(std::memory_order_relaxed);
  return C;
}

std::string AnalysisService::statsJson() const {
  refreshGauges();
  ServiceCounters C = counters();
  JsonWriter W;
  W.field("gen", generation());
  W.field("edits", C.Edits);
  W.field("queries", C.Queries);
  W.field("errors", C.Errors);
  W.field("rejected", C.Rejected);
  W.field("read_batches", C.ReadBatches);
  W.field("batched_reads", C.BatchedReads);
  W.field("dedup_saved", C.DedupSaved);
  W.field("published", C.Published);
  W.field("read_queue", static_cast<std::uint64_t>(ReadQueue.size()));
  W.field("write_queue", static_cast<std::uint64_t>(WriteQueue.size()));
  W.fieldRaw("read_lat", ReadLat.toJson());
  W.fieldRaw("write_lat", WriteLat.toJson());
  return W.finish();
}

void AnalysisService::statsLoop() {
  std::unique_lock<std::mutex> Lock(StatsMutex);
  while (!Stopping) {
    StatsCv.wait_for(Lock, std::chrono::milliseconds(Opts.StatsIntervalMs));
    if (Stopping)
      return;
    Lock.unlock();
    std::string Line = statsJson();
    std::fprintf(Opts.StatsOut, "%s\n", Line.c_str());
    std::fflush(Opts.StatsOut);
    Lock.lock();
  }
}
