//===- ipsebench/src/wire.cpp - The `fleet` workload ----------------------===//
//
// Drives `ipse-cli serve --tenants` over loopback TCP with an open-loop
// Poisson generator: one sending thread (the caller) and one receiving
// thread, two connections.  Every request is timed from the moment it was
// due, not from when it was written, so a stall shows in the requests
// behind it.  Edits are drawn from synth::EditGen against a shadow copy of
// each tenant's program and always travel on connection 0, so the server
// applies them in the order the shadow did.
//
// A run is: half the batch `report` rounds, set-up (repeated, median
// reported), a wait for the set-up's evictions to finish, an untimed
// warm-up and one timed phase at the fixed rate, a quiesced sweep that
// checks a seeded sample of answers against the iterative baseline on the
// shadow programs, a short closed-loop phase that measures the server's
// capacity on the same mix (printed beside the rate, as the rate's basis;
// not a gated metric), and, once the server has stopped, the other half of
// the `report` rounds.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "incremental/AnalysisSession.h"
#include "persist/Snapshot.h"
#include "demand/DemandSession.h"
#include "service/AnalysisService.h"
#include "service/AnalysisSnapshot.h"
#include "service/ScriptDriver.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "synth/EditGen.h"
#include "synth/ProgramGen.h"
#include "synth/SourceGen.h"
#include "tenant/Protocol.h"
#include "tenant/TenantService.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cerrno>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <mutex>
#include <set>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

using namespace ipse;

namespace ipsebench {
namespace {

// ---- run validity ----------------------------------------------------------------

/// A generator that sent its median request more than 1 ms after it was
/// due, or its p99 request more than 20 ms late, fell behind its schedule:
/// the run measured the benchmark, not the server, and is invalid.  (Brief
/// wake-up delays of a few ms on a shared host are not falling behind;
/// every latency is timed from the due time, so they are still counted.)
constexpr double LatenessP50LimitUs = 1000;
constexpr double LatenessP99LimitUs = 20000;
constexpr double DrainTimeoutS = 5;
constexpr int SetupReps = 5; // set-ups per run; the median is reported

// ---- shadow programs -----------------------------------------------------------

/// One program as the benchmark believes the server holds it.  Edits only
/// add calls and statements, so query operands drawn from the initial
/// call-site and statement counts stay valid in every state an in-flight
/// edit could leave behind.
struct Shadow {
  ir::Program P;
  synth::EditGen Gen;
  std::vector<std::uint32_t> Calls0, Stmts0;

  Shadow(ir::Program Prog, std::uint64_t EditSeed)
      : P(std::move(Prog)), Gen(editConfig(EditSeed)) {
    for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
      Calls0.push_back(P.proc(ir::ProcId(I)).CallSites.size());
      Stmts0.push_back(P.proc(ir::ProcId(I)).Stmts.size());
    }
  }

  /// The next valid edit as a script line, applied to the shadow.
  std::optional<std::string> nextEdit() {
    std::optional<incremental::Edit> E = Gen.next(P);
    if (!E)
      return std::nullopt;
    std::string Line = incremental::toScriptLine(P, *E);
    applyToShadow(P, *E);
    return Line;
  }

  /// A read-mostly query mix: gmod, guse, mod, use and demand-style query.
  std::string nextQuery(Rng &R) const {
    ir::ProcId Proc(static_cast<std::uint32_t>(R.nextBelow(P.numProcs())));
    const std::string Name(P.name(Proc));
    std::uint64_t Pick = R.nextBelow(100);
    std::uint32_t Stmts = Stmts0[Proc.index()];
    std::uint32_t Calls = Calls0[Proc.index()];
    if (Pick < 30)
      return "gmod " + Name;
    if (Pick < 50)
      return "guse " + Name;
    if (Pick < 80 && Stmts > 0)
      return (Pick < 65 ? "mod " : "use ") + Name + " " +
             std::to_string(R.nextBelow(Stmts));
    if (Calls > 0)
      return "query " + Name + " " + Name + "#" +
             std::to_string(R.nextBelow(Calls));
    return "query " + Name;
  }
};

std::optional<JsonObject> parseObj(std::string_view Text) {
  std::string Err;
  return parseJsonObject(Text, Err);
}

// ---- the open-loop generator ---------------------------------------------------

enum class Kind : std::uint8_t { Query, Edit, Sweep, Control };

struct Pending {
  std::int64_t Due = 0;
  Kind K = Kind::Query;
  std::uint16_t Phase = 0;
  bool Done = false;
  bool Abandoned = false;
  bool Ok = false;
  std::string Text;      ///< Result (Sweep: rendered answer; Control: raw).
  std::string Expected;  ///< Sweep only: the oracle's answer.
};

struct PhaseStats {
  std::uint64_t Sent = 0, Failed = 0;
  std::vector<double> QueryUs, EditUs, LatenessUs;
  /// Demand attribution: region size of each `query` that solved one.
  std::vector<double> RegionProcs;
  std::uint64_t MemoOnly = 0; ///< `query` answers served from the memo.
  /// Programs with an edit the server did not acknowledge: the shadow may
  /// hold an edit the server never applied.
  std::set<std::size_t> FailedEditProgs;
};

class Generator {
public:
  /// \p Conns are two connected sockets to the server.
  explicit Generator(std::vector<int> Conns) : Fds(std::move(Conns)) {
    for (int Fd : Fds)
      ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL) | O_NONBLOCK);
    Out.resize(Fds.size());
    Reqs.reserve(1 << 16);
    Receiver = std::thread([this] { receiveLoop(); });
  }
  ~Generator() {
    Stop = true;
    Receiver.join();
  }
  Generator(const Generator &) = delete;
  Generator &operator=(const Generator &) = delete;

  bool serverGone() const { return Gone; }

  static constexpr std::int64_t SpinNs = 1000000;

  /// Queues one request (id assigned here) on connection \p Conn.
  std::uint64_t send(int Conn, Kind K, std::uint16_t Phase, std::int64_t Due,
                     const std::string &Tenant, const std::string &Cmd,
                     std::string Expected = {}) {
    std::uint64_t Id;
    {
      std::lock_guard<std::mutex> L(Mu);
      Id = Reqs.size() + 1;
      Pending P;
      P.Due = Due;
      P.K = K;
      P.Phase = Phase;
      P.Expected = std::move(Expected);
      Reqs.push_back(std::move(P));
      ++Outstanding;
    }
    std::string Line = "{\"id\":" + std::to_string(Id);
    if (!Tenant.empty())
      Line += ",\"tenant\":\"" + Tenant + "\"";
    Line += ",\"cmd\":\"" + jsonEscape(Cmd) + "\"}\n";
    Out[Conn] += Line;
    flush(Conn);
    return Id;
  }

  /// Writes what the socket accepts without blocking.
  void flush(int Conn) {
    std::string &B = Out[Conn];
    while (!B.empty()) {
      ssize_t N = ::send(Fds[Conn], B.data(), B.size(), MSG_NOSIGNAL);
      if (N > 0) {
        B.erase(0, static_cast<std::size_t>(N));
        continue;
      }
      if (N < 0 && errno == EINTR)
        continue;
      if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        return;
      Gone = true;
      return;
    }
  }
  void flushAll() {
    for (std::size_t C = 0; C != Fds.size(); ++C)
      flush(static_cast<int>(C));
  }

  /// Sleeps until \p Due (absolute steady ns), flushing backed-up output.
  /// The last SpinNs are spun, not slept: a sleeping thread on a shared
  /// host wakes up to a few ms late, and every latency is timed from the
  /// due time, so the generator's own wake-up would count against the
  /// server.
  void waitUntil(std::int64_t Due) {
    for (;;) {
      flushAll();
      std::int64_t Now = nowNs();
      if (Now >= Due)
        return;
      bool Backed = false;
      for (const std::string &B : Out)
        Backed |= !B.empty();
      std::int64_t Wait = Due - Now - SpinNs;
      if (Wait <= 0)
        continue;
      if (Backed && Wait > 200000)
        Wait = 200000;
      timespec Ts{static_cast<time_t>(Wait / 1000000000),
                  static_cast<long>(Wait % 1000000000)};
      ::nanosleep(&Ts, nullptr);
    }
  }

  /// Waits until fewer than \p N requests are outstanding, the server is
  /// gone, or \p Deadline (steady ns) passes.
  void waitBelow(std::uint64_t N, std::int64_t Deadline) {
    for (;;) {
      flushAll();
      std::unique_lock<std::mutex> L(Mu);
      if (Outstanding < N || Gone || nowNs() >= Deadline)
        return;
      Cv.wait_for(L, std::chrono::milliseconds(1));
    }
  }

  /// Waits until nothing is outstanding or \p TimeoutS passes, then
  /// abandons whatever is left (it counts as failed).
  void drain(double TimeoutS) {
    std::int64_t Deadline = nowNs() + std::int64_t(TimeoutS * 1e9);
    for (;;) {
      flushAll();
      {
        std::unique_lock<std::mutex> L(Mu);
        if (Outstanding == 0 || Gone || nowNs() >= Deadline)
          break;
        Cv.wait_for(L, std::chrono::milliseconds(2));
      }
    }
    std::lock_guard<std::mutex> L(Mu);
    for (Pending &P : Reqs)
      if (!P.Done && !P.Abandoned) {
        P.Abandoned = true;
        --Outstanding;
        if (P.Phase < Phases.size())
          ++Phases[P.Phase].Failed;
      }
  }



  /// Per-phase results, indexed by the Phase tag passed to send().
  std::vector<PhaseStats> Phases;
  std::mutex Mu;
  std::vector<Pending> Reqs;

private:
  void receiveLoop() {
    std::vector<std::string> In(Fds.size());
    std::vector<pollfd> P;
    for (int Fd : Fds)
      P.push_back({Fd, POLLIN, 0});
    char Buf[1 << 16];
    while (!Stop && !Gone) {
      if (::poll(P.data(), P.size(), 20) <= 0)
        continue;
      for (std::size_t C = 0; C != P.size(); ++C) {
        if (!(P[C].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        ssize_t N = ::recv(Fds[C], Buf, sizeof(Buf), 0);
        if (N == 0 || (N < 0 && errno != EAGAIN && errno != EINTR)) {
          markGone();
          return;
        }
        if (N < 0)
          continue;
        quickAck(Fds[C]);
        In[C].append(Buf, static_cast<std::size_t>(N));
        std::size_t Start = 0, Nl;
        while ((Nl = In[C].find('\n', Start)) != std::string::npos) {
          onLine(std::string_view(In[C]).substr(Start, Nl - Start));
          Start = Nl + 1;
        }
        In[C].erase(0, Start);
      }
    }
  }

  void markGone() {
    std::lock_guard<std::mutex> L(Mu);
    Gone = true;
    Cv.notify_all();
  }

  void onLine(std::string_view Line) {
    std::int64_t Now = nowNs();
    std::optional<JsonObject> J = parseObj(Line);
    if (!J)
      return;
    std::uint64_t Id = J->getUInt("id").value_or(0);
    bool Ok = J->getBool("ok").value_or(false) && !J->getBool("retry");
    std::lock_guard<std::mutex> L(Mu);
    if (Id == 0 || Id > Reqs.size())
      return;
    Pending &P = Reqs[Id - 1];
    if (P.Done || P.Abandoned)
      return;
    P.Done = true;
    P.Ok = Ok;
    --Outstanding;
    if (P.K == Kind::Sweep)
      P.Text = J->getString("result").value_or("");
    else if (P.K == Kind::Control) // an object, or Prometheus text
      P.Text = J->getRaw("result").value_or(
          J->getString("result").value_or(""));
    if (P.Phase < Phases.size()) {
      PhaseStats &S = Phases[P.Phase];
      if (!Ok) {
        ++S.Failed;
      } else {
        double Us = (Now - P.Due) / 1e3;
        if (P.K == Kind::Edit)
          S.EditUs.push_back(Us);
        else if (P.K == Kind::Query)
          S.QueryUs.push_back(Us);
        if (auto Stats = J->getRaw("stats"))
          if (auto SJ = parseObj(*Stats)) {
            std::uint64_t Region = SJ->getUInt("region_procs").value_or(0);
            if (Region)
              S.RegionProcs.push_back(double(Region));
            else
              ++S.MemoOnly;
          }
      }
    }
    Cv.notify_all();
  }

  std::vector<int> Fds;
  std::vector<std::string> Out;
  std::uint64_t Outstanding = 0;
  std::condition_variable Cv;
  std::atomic<bool> Stop{false}, Gone{false};
  std::thread Receiver;
};

// ---- traffic ---------------------------------------------------------------------

/// The tenants behind the server, their popularity, and the request mix.
struct Traffic {
  std::vector<Shadow> Shadows;          ///< One per tenant.
  std::vector<std::string> TenantNames;
  std::vector<double> ZipfCdf;          ///< Popularity by rank.
  std::vector<std::uint32_t> RankToTenant;
  double EditShare = 0;

  std::size_t pickProgram(Rng &R) const {
    double U = double(R.next() >> 11) / double(1ull << 53);
    std::size_t Rank =
        std::lower_bound(ZipfCdf.begin(), ZipfCdf.end(), U) - ZipfCdf.begin();
    return RankToTenant[std::min(Rank, RankToTenant.size() - 1)];
  }

  /// One request of the mix.  A drawn edit is applied to its shadow.
  struct Request {
    bool Edit = false;
    std::size_t Prog = 0;
    std::string Cmd;
  };
  Request draw(Rng &R) {
    Request Q;
    Q.Prog = pickProgram(R);
    Q.Edit = R.nextBelow(1000000) < std::uint64_t(EditShare * 1e6);
    std::optional<std::string> Cmd;
    if (Q.Edit)
      Cmd = Shadows[Q.Prog].nextEdit();
    if (!Cmd) {
      Q.Edit = false;
      Cmd = Shadows[Q.Prog].nextQuery(R);
    }
    Q.Cmd = std::move(*Cmd);
    return Q;
  }
};

std::uint16_t newPhase(Generator &G) {
  std::lock_guard<std::mutex> L(G.Mu);
  G.Phases.emplace_back();
  return static_cast<std::uint16_t>(G.Phases.size() - 1);
}

/// Sends \p Q: edits on connection 0, so the server applies them in shadow
/// order; queries on connection 1.
std::uint64_t sendRequest(Generator &G, const Traffic &T, std::uint16_t Tag,
                          std::int64_t Due, const Traffic::Request &Q) {
  return G.send(Q.Edit ? 0 : 1, Q.Edit ? Kind::Edit : Kind::Query, Tag, Due,
                T.TenantNames[Q.Prog], Q.Cmd);
}

/// One open-loop phase at \p Rate for \p Seconds.  The whole schedule —
/// due times, and every request line drawn against the shadows — is built
/// before the clock starts, so generating edits never delays a send.
PhaseStats runPhase(Generator &G, Traffic &T, Rng &R, double Rate,
                    double Seconds) {
  // A Poisson process conditioned on its count: round(Rate * Seconds)
  // arrivals at sorted uniform times, so every run of a phase offers the
  // same load and only the arrival pattern depends on the seed.
  std::vector<std::int64_t> Offsets(
      static_cast<std::size_t>(Rate * Seconds + 0.5));
  for (std::int64_t &O : Offsets)
    O = std::int64_t(double(R.next() >> 11) / double(1ull << 53) * Seconds *
                     1e9);
  std::sort(Offsets.begin(), Offsets.end());
  std::vector<Traffic::Request> Plan;
  for (std::size_t I = 0; I != Offsets.size(); ++I)
    Plan.push_back(T.draw(R));

  std::uint16_t Tag = newPhase(G);
  std::int64_t Start = nowNs() + 1000000;
  std::int64_t End = Start + std::int64_t(Seconds * 1e9);
  std::vector<double> Lateness;
  std::vector<std::pair<std::uint64_t, std::size_t>> Edits; // id, program
  std::uint64_t Sent = 0;
  for (std::size_t I = 0; I != Plan.size(); ++I) {
    if (G.serverGone())
      break;
    std::int64_t Due = Start + Offsets[I];
    G.waitUntil(Due);
    Lateness.push_back((nowNs() - Due) / 1e3);
    std::uint64_t Id = sendRequest(G, T, Tag, Due, Plan[I]);
    if (Plan[I].Edit)
      Edits.push_back({Id, Plan[I].Prog});
    ++Sent;
  }
  G.waitUntil(End);
  if (G.serverGone()) {
    // Every request the schedule still held counts as failed.
    std::uint64_t Unsent = Plan.size() - Sent;
    Sent += Unsent;
    std::lock_guard<std::mutex> L(G.Mu);
    G.Phases[Tag].Failed += Unsent;
  }
  G.drain(DrainTimeoutS);
  std::lock_guard<std::mutex> L(G.Mu);
  PhaseStats &S = G.Phases[Tag];
  S.Sent = Sent;
  S.LatenessUs = std::move(Lateness);
  for (const auto &[Id, Prog] : Edits)
    if (!G.Reqs[Id - 1].Ok)
      S.FailedEditProgs.insert(Prog);
  return S;
}

/// Closed-loop capacity on the same mix: keeps \p Window requests in
/// flight for \p Seconds.  Returns requests answered ok per second;
/// \p Failed receives the rest.
double capacity(Generator &G, Traffic &T, Rng &R, unsigned Window,
                double Seconds, std::uint64_t &Failed) {
  std::uint16_t Tag = newPhase(G);
  std::int64_t Start = nowNs();
  std::int64_t End = Start + std::int64_t(Seconds * 1e9);
  while (!G.serverGone()) {
    G.waitBelow(Window, End);
    std::int64_t Now = nowNs();
    if (Now >= End)
      break;
    sendRequest(G, T, Tag, Now, T.draw(R));
  }
  G.drain(DrainTimeoutS);
  double Secs = (nowNs() - Start) / 1e9;
  std::lock_guard<std::mutex> L(G.Mu);
  const PhaseStats &S = G.Phases[Tag];
  Failed = S.Failed;
  return double(S.QueryUs.size() + S.EditUs.size()) / Secs;
}

/// Sends a seeded sample of queries on the quiesced server and compares
/// every answer with the iterative baseline on the shadow programs.
/// Programs in \p Skip (a failed edit: the shadow may differ from the
/// server) are not sampled; if none is left, the check did not run and the
/// run is not correct.
void sweep(Generator &G, Traffic &T, Rng &R, std::size_t Programs,
           std::size_t PerProgram, const std::set<std::size_t> &Skip,
           Result &Res) {
  std::vector<std::uint64_t> Ids;
  std::vector<std::string> Cmds;
  std::vector<std::size_t> Candidates;
  for (std::size_t I = 0; I != T.Shadows.size(); ++I)
    if (!Skip.count(I))
      Candidates.push_back(I);
  if (Candidates.empty()) {
    Res.fail("the output check did not run: every program had a failed edit");
    return;
  }
  for (std::size_t I = 0; I != Programs; ++I) {
    std::size_t Prog = Candidates[R.nextBelow(Candidates.size())];
    const Shadow &S = T.Shadows[Prog];
    const std::string &Tenant = T.TenantNames[Prog];
    Oracle O(S.P);
    for (std::size_t Q = 0; Q != PerProgram; ++Q) {
      // Only reachable procedures: there the paper's solvers and the
      // call-chain oracle agree (§3.3).
      ir::ProcId Proc = S.P.main();
      for (int Try = 0; Try != 64; ++Try) {
        ir::ProcId Pick(static_cast<std::uint32_t>(R.nextBelow(S.P.numProcs())));
        if (O.Reachable[Pick.index()]) {
          Proc = Pick;
          break;
        }
      }
      std::string Name(S.P.name(Proc));
      std::string Cmd, Expected;
      const std::vector<ir::CallSiteId> &Sites = S.P.proc(Proc).CallSites;
      switch (Q % 3) {
      case 0:
        Cmd = "gmod " + Name;
        Expected = "GMOD(" + Name + ") = {" + O.GMod[Proc.index()] + "}";
        break;
      case 1:
        Cmd = "guse " + Name;
        Expected = "GUSE(" + Name + ") = {" + O.GUse[Proc.index()] + "}";
        break;
      default: {
        Cmd = "query " + Name;
        Expected = "GMOD(" + Name + ") = {" + O.GMod[Proc.index()] + "}";
        if (!Sites.empty()) {
          std::size_t K = R.nextBelow(Sites.size());
          Cmd += " " + Name + "#" + std::to_string(K);
          Expected += "; DMOD(" + Name + "#" + std::to_string(K) + ") = {" +
                      O.DMod[Sites[K].index()] + "}";
        }
      }
      }
      Ids.push_back(
          G.send(0, Kind::Sweep, 0xffff, nowNs(), Tenant, Cmd, std::move(Expected)));
      Cmds.push_back(Tenant + " " + Cmd);
      // A few in flight at a time: the sweep checks answers, not the
      // server's queue limits.
      if (Ids.size() % 16 == 0)
        G.drain(60);
    }
  }
  G.drain(60);
  std::size_t Bad = 0;
  std::string First;
  std::lock_guard<std::mutex> L(G.Mu);
  for (std::size_t I = 0; I != Ids.size(); ++I) {
    const Pending &P = G.Reqs[Ids[I] - 1];
    if (P.Done && P.Ok && P.Text == P.Expected)
      continue;
    if (!Bad++)
      First = "; first: '" + Cmds[I] + "' answered '" + P.Text.substr(0, 400) +
              "', expected '" + P.Expected.substr(0, 400) + "'";
  }
  Res.Info["sweep"] = std::to_string(Ids.size() - Bad) + "/" +
                      std::to_string(Ids.size()) +
                      " answers match the oracle; " +
                      std::to_string(Skip.size()) +
                      " programs not sampled (failed edit)";
  if (Bad)
    Res.fail(std::to_string(Bad) + " of " + std::to_string(Ids.size()) +
             " answers differ from the iterative baseline" + First);
}

/// One control verb (stats, metrics) answered with its raw result.
std::string control(Generator &G, const std::string &Tenant,
                    const std::string &Cmd) {
  std::uint64_t Id = G.send(0, Kind::Control, 0xffff, nowNs(), Tenant, Cmd);
  G.drain(30);
  std::lock_guard<std::mutex> L(G.Mu);
  return G.Reqs[Id - 1].Text;
}

/// One histogram of the server's Prometheus text (`metrics --format=prom`):
/// cumulative counts by upper bound in microseconds, sum and count.
struct PromHist {
  std::map<double, double> Cum;
  double Sum = 0, Count = 0;

  double mean() const { return Count > 0 ? Sum / Count : 0; }
  /// The bucket bound holding the \p P quantile, as the server computes it.
  double percentile(double P) const {
    if (Count <= 0)
      return 0;
    double Rank = std::clamp(std::floor(P * Count + 0.5), 1.0, Count);
    for (const auto &[Le, N] : Cum)
      if (N >= Rank)
        return Le;
    return Cum.empty() ? 0 : Cum.rbegin()->first;
  }
};

PromHist promHist(const std::string &Text, const std::string &Name) {
  std::string Base = "ipse_";
  for (char Ch : Name)
    Base += Ch == '.' ? '_' : Ch;
  const std::string Bucket = Base + "_bucket{le=\"";
  PromHist H;
  std::size_t At = 0;
  while (At < Text.size()) {
    std::size_t Nl = std::min(Text.find('\n', At), Text.size());
    std::string Line = Text.substr(At, Nl - At);
    At = Nl + 1;
    double Value = std::atof(Line.c_str() + Line.rfind(' ') + 1);
    if (Line.rfind(Bucket, 0) == 0) {
      if (Line.compare(Bucket.size(), 4, "+Inf") != 0)
        H.Cum[std::atof(Line.c_str() + Bucket.size())] = Value;
    } else if (Line.rfind(Base + "_sum ", 0) == 0) {
      H.Sum = Value;
    } else if (Line.rfind(Base + "_count ", 0) == 0) {
      H.Count = Value;
    }
  }
  return H;
}

/// What was recorded between reading \p A and reading \p B.
PromHist promDelta(const PromHist &A, const PromHist &B) {
  PromHist D;
  D.Sum = B.Sum - A.Sum;
  D.Count = B.Count - A.Count;
  for (const auto &[Le, N] : B.Cum) {
    // A lists its buckets from the lowest up to its highest non-empty one.
    auto It = A.Cum.upper_bound(Le);
    D.Cum[Le] = N - (It == A.Cum.begin() ? 0 : std::prev(It)->second);
  }
  return D;
}

/// Runs `ipse-cli report` \p Reps times on each of \p Programs (path and
/// procedure count), appending each run's wall seconds to \p Secs (one
/// list per program).
void reportRounds(const Config &C,
                  const std::vector<std::pair<std::string, std::size_t>> &Programs,
                  unsigned Reps, std::vector<std::vector<double>> &Secs,
                  Result &R) {
  Secs.resize(Programs.size());
  for (unsigned Rep = 0; Rep != Reps; ++Rep)
    for (std::size_t I = 0; I != Programs.size(); ++I) {
      std::string Out;
      std::int64_t Ns = 0;
      long Kb = 0;
      if (runCapture({C.Cli, "report", Programs[I].first}, Out, Ns, Kb) != 0) {
        R.fail("report of " + Programs[I].first + " exited non-zero");
        return;
      }
      Secs[I].push_back(Ns / 1e9);
    }
}

/// Procedures per second over \p Programs, each timed by its fastest run:
/// a shared host only ever slows a run down, so the fastest one is the
/// steadiest estimate of the program's own cost.
double bestRate(const std::vector<std::pair<std::string, std::size_t>> &Programs,
                const std::vector<std::vector<double>> &Secs) {
  double Procs = 0, Total = 0;
  for (std::size_t I = 0; I != Programs.size() && I != Secs.size(); ++I) {
    if (Secs[I].empty())
      return 0;
    Procs += double(Programs[I].second);
    Total += *std::min_element(Secs[I].begin(), Secs[I].end());
  }
  return Total > 0 ? Procs / Total : 0;
}

/// Requests kept in flight by the closed-loop capacity phase, and its
/// length.  Sixteen stays under the server's queue limits, as the sweep.
constexpr unsigned CapacityWindow = 16;
constexpr double CapacitySeconds = 3;

/// Seconds of traffic at the fixed rate before the timed phase, so that
/// the resident set holds the popular tenants rather than the last ones
/// opened.  Its requests count as attempted; its latencies are not kept.
constexpr double WarmupSeconds = 5;

/// A warm-up and the timed phase at the fixed rate, then the check sweep;
/// fills the end-to-end metrics that come from the wire.
void runLoad(const Config &C, Generator &G, Traffic &T, Rng &Rg, double Rate,
             std::size_t SweepPrograms, std::size_t SweepPer, Result &R) {
  PhaseStats W = runPhase(G, T, Rg, Rate, WarmupSeconds);
  R.Attempted += W.Sent;
  R.Failed += W.Failed;
  PhaseStats S = runPhase(G, T, Rg, Rate, C.Seconds);
  R.Attempted += S.Sent;
  R.Failed += S.Failed;
  S.FailedEditProgs.insert(W.FailedEditProgs.begin(), W.FailedEditProgs.end());
  if (G.serverGone()) {
    R.fail("the server exited during the timed phase");
    return;
  }
  double LateP50 = median(S.LatenessUs), LateP99 = percentile(S.LatenessUs, 0.99);
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "%g rps; %zu queries, %zu edits; "
                "generator lateness p99 %.0f us", Rate, S.QueryUs.size(),
                S.EditUs.size(), LateP99);
  R.Info["timed_phase"] = Buf;
  std::string Q;
  for (double P : {0.1, 0.5, 0.9, 0.99})
    Q += std::to_string(int(percentile(S.QueryUs, P))) + " ";
  R.Info["query_us_p10_p50_p90_p99"] = Q;
  Q.clear();
  for (double P : {0.1, 0.5, 0.9, 0.99})
    Q += std::to_string(int(percentile(S.EditUs, P))) + " ";
  R.Info["edit_us_p10_p50_p90_p99"] = Q;
  if (LateP50 > LatenessP50LimitUs || LateP99 > LatenessP99LimitUs) {
    R.Invalid = true;
    R.fail("the generator fell behind its schedule; the run is invalid");
  }
  sweep(G, T, Rg, SweepPrograms, SweepPer, S.FailedEditProgs, R);

  R.metric("query_us_p50", median(S.QueryUs), "us");
  R.metric("edit_us_p50", median(S.EditUs), "us");
}

/// The closed-loop capacity on the same mix, printed beside the fixed rate
/// as its basis.  It runs after everything measured, so it cannot disturb
/// a metric, and its requests are not counted in the result.
void reportCapacity(Generator &G, Traffic &T, Rng &Rg, double Rate,
                    Result &R) {
  std::uint64_t Failed = 0;
  double Cap = capacity(G, T, Rg, CapacityWindow, CapacitySeconds, Failed);
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "%.0f rps closed loop, %u in flight, "
                "%llu failed; the timed rate is %.0f%% of it", Cap,
                CapacityWindow, (unsigned long long)Failed,
                Cap > 0 ? 100 * Rate / Cap : 0);
  R.Info["capacity"] = Buf;
}

bool connectPair(ServerProc &S, std::vector<int> &Fds) {
  for (int I = 0; I != 2; ++I) {
    int Fd = connectLoopback(S.Port);
    if (Fd < 0)
      return false;
    Fds.push_back(Fd);
  }
  return true;
}

// ---- fleet -------------------------------------------------------------------------

constexpr unsigned FleetTenants = 240;
constexpr unsigned FleetResidentCap = 160;
constexpr double FleetRate = 100;
/// Rounds of `ipse-cli report` over eight tenant programs behind
/// compile_procs_per_s, run both before the server starts and after it
/// stops so that they span the run; each program counts its fastest run.
constexpr unsigned ReportRounds = 8;

std::string fleetSpec(std::uint64_t Seed, unsigned Idx) {
  return "procs=300 globals=16 depth=1 seed=" +
         std::to_string(Seed * 1000003 + Idx);
}

ir::Program fleetProgram(std::uint64_t Seed, unsigned Idx) {
  std::vector<std::string> Args;
  std::string Spec = fleetSpec(Seed, Idx);
  std::size_t At = 0;
  while (At < Spec.size()) {
    std::size_t Sp = Spec.find(' ', At);
    Args.push_back(Spec.substr(At, Sp - At));
    At = Sp == std::string::npos ? Spec.size() : Sp + 1;
  }
  return synth::generateProgram(service::parseGenSpec(Args, 0));
}

Traffic fleetTraffic(std::uint64_t Seed) {
  Traffic T;
  for (unsigned I = 0; I != FleetTenants; ++I) {
    T.TenantNames.push_back(std::string("t").append(std::to_string(I)));
    T.Shadows.emplace_back(fleetProgram(Seed, I), Seed * 7717 + I);
  }
  // Zipf(1.0) popularity; which tenant holds which rank is seeded.
  double Sum = 0;
  for (unsigned K = 1; K <= FleetTenants; ++K)
    Sum += 1.0 / K;
  double Acc = 0;
  for (unsigned K = 1; K <= FleetTenants; ++K) {
    Acc += 1.0 / K / Sum;
    T.ZipfCdf.push_back(Acc);
  }
  for (unsigned I = 0; I != FleetTenants; ++I)
    T.RankToTenant.push_back(I);
  Rng R(Seed * 31337 + 9);
  for (unsigned I = FleetTenants - 1; I > 0; --I)
    std::swap(T.RankToTenant[I], T.RankToTenant[R.nextBelow(I + 1)]);
  T.EditShare = 1.0 / 3;
  return T;
}

/// Launches the fleet server on a fresh data dir and opens every tenant.
/// Returns the set-up time in seconds, or a negative value on failure.
double fleetSetup(const Config &C, const std::string &DataDir,
                  std::unique_ptr<ServerProc> &Server) {
  std::error_code Ec;
  std::filesystem::remove_all(DataDir, Ec);
  Server = std::make_unique<ServerProc>();
  Server->Preload = C.NoSync;
  std::vector<std::string> Argv = {
      C.Cli, "serve", "--port", "0", "--tenants", "--engine=demand",
      "--resident-cap", std::to_string(FleetResidentCap), "--data-dir",
      DataDir};
  std::int64_t T0 = nowNs();
  if (!Server->start(Argv, C.WorkDir + "/fleet-server.log") ||
      !Server->waitForPort(120))
    return -1;
  int Fd = connectLoopback(Server->Port);
  if (Fd < 0)
    return -1;
  std::string Batch;
  for (unsigned I = 0; I != FleetTenants; ++I)
    Batch += "{\"id\":" + std::to_string(I + 1) + ",\"cmd\":\"open t" +
             std::to_string(I) + " " + fleetSpec(C.Seed, I) + "\"}\n";
  // Pipelined opens; wait for every ack.
  std::size_t Off = 0;
  while (Off < Batch.size()) {
    ssize_t N = ::send(Fd, Batch.data() + Off, Batch.size() - Off, MSG_NOSIGNAL);
    if (N <= 0) {
      ::close(Fd);
      return -1;
    }
    Off += static_cast<std::size_t>(N);
  }
  unsigned Acks = 0, Ok = 0;
  std::string Buf;
  char Tmp[4096];
  std::int64_t Deadline = nowNs() + std::int64_t(120e9);
  while (Acks < FleetTenants && nowNs() < Deadline) {
    pollfd P{Fd, POLLIN, 0};
    if (::poll(&P, 1, 100) <= 0)
      continue;
    ssize_t N = ::recv(Fd, Tmp, sizeof(Tmp), 0);
    if (N <= 0)
      break;
    quickAck(Fd);
    Buf.append(Tmp, static_cast<std::size_t>(N));
    std::size_t Nl;
    while ((Nl = Buf.find('\n')) != std::string::npos) {
      ++Acks;
      Ok += Buf.compare(0, Nl, "") != 0 &&
            Buf.substr(0, Nl).find("\"ok\":true") != std::string::npos;
      Buf.erase(0, Nl + 1);
    }
  }
  ::close(Fd);
  if (Ok != FleetTenants)
    return -1;
  return (nowNs() - T0) / 1e9;
}

/// Waits until the evictions that the set-up's opens queued have run: the
/// resident count is at the cap and the eviction count holds still.  Each
/// eviction writes a snapshot on a shard thread; without the wait they
/// would run during the timed phase.
bool fleetQuiesce(ServerProc &Server) {
  int Fd = connectLoopback(Server.Port);
  if (Fd < 0)
    return false;
  double Last = -1;
  bool Quiet = false;
  std::int64_t Deadline = nowNs() + std::int64_t(60e9);
  for (unsigned Id = 1; !Quiet && nowNs() < Deadline; ++Id) {
    std::optional<JsonObject> J = parseObj(roundTrip(
        Fd, "{\"id\":" + std::to_string(Id) + ",\"tenant\":\"t0\",\"cmd\":\"stats\"}"));
    std::optional<JsonObject> St;
    if (J)
      if (auto Raw = J->getRaw("result"))
        St = parseObj(*Raw);
    if (!St)
      break;
    double Evictions = St->getDouble("evictions").value_or(0);
    Quiet = St->getDouble("resident").value_or(0) <= FleetResidentCap &&
            Evictions == Last;
    Last = Evictions;
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  ::close(Fd);
  return Quiet;
}

void fleetUntraced(const Config &C, Result &R) {
  // The batch rate, half before the server starts and half after it
  // stops, never beside it.
  std::vector<std::pair<std::string, std::size_t>> Sources;
  for (unsigned I = 0; I != 8; ++I) {
    ir::Program P = fleetProgram(C.Seed, I);
    Sources.push_back({C.WorkDir + "/tenant" + std::to_string(I) + ".mp",
                       P.numProcs()});
    writeFile(Sources.back().first, synth::emitMiniProc(P));
  }
  std::vector<std::vector<double>> ReportSecs;
  reportRounds(C, Sources, ReportRounds, ReportSecs, R);

  std::vector<double> SetupS;
  std::unique_ptr<ServerProc> Server;
  for (int Rep = 0; Rep != SetupReps; ++Rep) {
    double S = fleetSetup(C, C.WorkDir + "/fleet-data", Server);
    if (S < 0) {
      R.fail("fleet server could not open every tenant");
      return;
    }
    SetupS.push_back(S);
    if (Rep != SetupReps - 1)
      Server->stop();
  }
  R.metric("setup_s", median(SetupS), "s");
  if (!fleetQuiesce(*Server)) {
    R.fail("fleet server did not settle after set-up");
    return;
  }

  std::vector<int> Fds;
  if (!connectPair(*Server, Fds)) {
    R.fail("cannot connect to the fleet server");
    return;
  }
  Traffic T = fleetTraffic(C.Seed);
  {
    Generator G(Fds);
    Rng Rg(C.Seed * 104729 + 17);
    runLoad(C, G, T, Rg, FleetRate, 24, 12, R);
    R.metric("ok_pct",
             R.Attempted ? 100.0 * double(R.Attempted - R.Failed) / R.Attempted
                         : 0,
             "%");
    R.metric("peak_rss_mb", Server->peakRssMb(), "MB");
    if (!G.serverGone())
      reportCapacity(G, T, Rg, FleetRate, R);
  }
  for (int Fd : Fds)
    ::close(Fd);
  Server->stop();
  reportRounds(C, Sources, ReportRounds, ReportSecs, R);
  R.metric("compile_procs_per_s", bestRate(Sources, ReportSecs), "1/s");
}

// ---- traced runs ---------------------------------------------------------------------

/// The server's `stats` counters and `metrics --format=prom` text, read
/// before and after the traced wire phase, so that every server-side figure
/// covers the phase alone and not the set-up's opens and evictions.
struct ServerReading {
  std::optional<JsonObject> Stats;
  std::string Prom;

  double stat(const char *Key) const {
    return Stats ? Stats->getDouble(Key).value_or(0) : 0;
  }
};

ServerReading readServer(Generator &G) {
  ServerReading S;
  S.Stats = parseObj(control(G, "t0", "stats"));
  S.Prom = control(G, "", "metrics --format=prom");
  return S;
}

/// A short wire phase at the fixed rate against \p Server, with the
/// server's counters read before and after it.
PhaseStats tracedWire(const Config &C, ServerProc &Server, Traffic &T,
                      double Rate, double Seconds, ServerReading &Before,
                      ServerReading &After, Result &R) {
  std::vector<int> Fds;
  PhaseStats S;
  if (!connectPair(Server, Fds)) {
    R.fail("cannot connect for the traced wire phase");
    return S;
  }
  {
    Generator G(Fds);
    Rng Rg(C.Seed * 104729 + 17);
    PhaseStats W = runPhase(G, T, Rg, Rate, WarmupSeconds);
    R.Attempted += W.Sent;
    R.Failed += W.Failed;
    Before = readServer(G);
    S = runPhase(G, T, Rg, Rate, Seconds);
    R.Attempted += S.Sent;
    R.Failed += S.Failed;
    After = readServer(G);
  }
  for (int Fd : Fds)
    ::close(Fd);
  return S;
}

/// Time of one handleRequestLine-style call: \p Fn gets an emitter and must
/// call it exactly once, possibly from another thread.
template <class F> double timeEmit(F &&Fn) {
  std::promise<void> Done;
  std::future<void> Wait = Done.get_future();
  std::int64_t T0 = nowNs();
  Fn([&Done](const std::string &) { Done.set_value(); });
  Wait.wait();
  return (nowNs() - T0) / 1e3;
}

/// The incremental edit path in-process: per-edit `applyEdit` + `flush`
/// by tier, `AnalysisSnapshot::capture` after each flush, and service
/// calls (filled by the caller).
struct SessionReplay {
  std::vector<double> Flush[2], Capture, CallUs; // Flush[1]: call tier

  void report(Result &R) const {
    R.metric("incremental.flush_us.effect", median(Flush[0]), "us");
    R.metric("incremental.flush_us.call", median(Flush[1]), "us");
    R.metric("service.capture_us", median(Capture), "us");
    R.metric("service.call_us", median(CallUs), "us");
  }
};

/// Opens a session on \p P and replays up to \p MaxEdits edits of the
/// EditGen stream \p EditSeed (within \p BudgetS seconds), timing each
/// under its span; samples are kept when \p Record.
void replaySession(ir::Program P, std::uint64_t EditSeed, unsigned MaxEdits,
                   double BudgetS, bool Record, SessionReplay &Out) {
  Shadow Sh(P, EditSeed);
  std::optional<incremental::AnalysisSession> Session;
  {
    ScopedSpan S("incremental.open");
    Session.emplace(std::move(P));
  }
  std::int64_t Budget = nowNs() + std::int64_t(BudgetS * 1e9);
  for (unsigned I = 0; I != MaxEdits && nowNs() < Budget; ++I) {
    ++Tracer::get().Req;
    std::optional<incremental::Edit> E = Sh.Gen.next(Sh.P);
    if (!E)
      break;
    using incremental::EditKind;
    bool CallTier = E->Kind == EditKind::AddCall || E->Kind == EditKind::AddStmt;
    applyToShadow(Sh.P, *E);
    std::int64_t F0 = nowNs();
    {
      ScopedSpan S(CallTier ? "incremental.flush_call"
                            : "incremental.flush_effect");
      incremental::applyEdit(*Session, *E);
      Session->flush();
    }
    std::int64_t F1 = nowNs();
    {
      ScopedSpan S("service.capture");
      auto Snap = service::AnalysisSnapshot::capture(*Session, I + 1);
    }
    if (Record) {
      Out.Flush[CallTier].push_back((F1 - F0) / 1e3);
      Out.Capture.push_back((nowNs() - F1) / 1e3);
    }
  }
}

void fleetTraced(const Config &C, Result &R) {
  Tracer &Tr = Tracer::get();
  std::unique_ptr<ServerProc> Server;
  if (fleetSetup(C, C.WorkDir + "/fleet-data", Server) < 0) {
    R.fail("fleet server could not open every tenant");
    return;
  }
  if (!fleetQuiesce(*Server)) {
    R.fail("fleet server did not settle after set-up");
    return;
  }
  Traffic T = fleetTraffic(C.Seed);
  double Secs = std::min(C.Seconds, 10.0);
  ServerReading Before, After;
  PhaseStats Wire = tracedWire(C, *Server, T, FleetRate, Secs, Before, After, R);
  Server->stop();
  auto stat = [&](const char *K) { return After.stat(K) - Before.stat(K); };
  auto hist = [&](const char *Name) {
    return promDelta(promHist(Before.Prom, Name), promHist(After.Prom, Name));
  };
  // Resident answers over requests: queries and edits both fault in.
  double Queries = stat("queries"), Edits = stat("edits");
  double FaultIns = stat("fault_ins");
  R.metric("tenant.hit_ratio",
           Queries + Edits > 0
               ? std::max(0.0, 1 - FaultIns / (Queries + Edits))
               : 0,
           "ratio");
  PromHist FaultIn = hist("tenant.fault_in_us");
  R.metric("tenant.fault_in_us_p50", FaultIn.percentile(0.5), "us");
  R.metric("tenant.fault_in_us_p99", FaultIn.percentile(0.99), "us");
  R.metric("tenant.evictions_per_s", stat("evictions") / Secs, "1/s");
  R.metric("persist.wal_append_us", hist("persist.wal_append_us").mean(), "us");
  // Over the `query` answers that solved a region; memo-only answers are
  // counted in the info line.
  R.metric("demand.region_procs_p50", median(Wire.RegionProcs), "procs");
  R.Info["demand_queries"] =
      std::to_string(Wire.RegionProcs.size()) + " solved a region, " +
      std::to_string(Wire.MemoOnly) + " answered from the memo";
  // The tenant front end's batching and refusals.
  double Rejected = stat("rejected");
  double Handled = Queries + Edits;
  R.metric("service.flush_batch", hist("tenant.flush_batch").mean(), "edits");
  R.metric("service.rejected_ratio",
           Handled + Rejected > 0 ? Rejected / (Handled + Rejected) : 0,
           "ratio");

  // In-process: persist and demand on the same tenant programs, and the
  // tenant front end without a socket.  A warm-up pass, then spans off,
  // on, on, off: neither the cold first pass nor a steady drift of the host
  // biases the overhead.  Samples come from the spans-on passes; the spans
  // kept are the last spans-on pass's.
  std::vector<double> SnapW, SnapR, DemandOpen, ColdQ, HandleUs;
  SessionReplay Session;
  double MemoHits = 0, DemandQueries = 0;
  double OffMs = 0, OnMs = 0;
  std::string Dir = C.WorkDir + "/fleet-inproc";
  std::filesystem::create_directories(Dir);
  const bool SpansOn[] = {false, false, true, true, false};
  for (int Pass = 0; Pass != 5; ++Pass) {
    const bool On = SpansOn[Pass];
    if (On)
      Tr.Spans.clear();
    Tr.Enabled = On;
    std::int64_t T0 = nowNs();
    for (unsigned I = 0; I != 16; ++I) {
      ++Tr.Req;
      ir::Program P = fleetProgram(C.Seed, I);
      std::optional<demand::DemandSession> D;
      std::int64_t D0 = nowNs();
      {
        ScopedSpan S("demand.open");
        D.emplace(P);
      }
      std::int64_t D1 = nowNs();
      Rng Rq(C.Seed + I);
      ir::ProcId Proc(static_cast<std::uint32_t>(Rq.nextBelow(P.numProcs())));
      {
        ScopedSpan S("demand.cold_query");
        (void)D->gmod(Proc);
      }
      std::int64_t D2 = nowNs();
      for (unsigned Q = 0; Q != 50; ++Q) {
        ScopedSpan S("demand.query");
        (void)D->gmod(ir::ProcId(static_cast<std::uint32_t>(Rq.nextBelow(P.numProcs()))));
      }
      // The incremental edit path and the service on the tenant program.
      replaySession(P, C.Seed * 7717 + I, 25, 2.0, On, Session);
      service::AnalysisService Svc(P);
      for (unsigned Q = 0; Q != 25; ++Q) {
        std::string Cmd = T.Shadows[I].nextQuery(Rq);
        std::int64_t Q0 = nowNs();
        {
          ScopedSpan S("service.call");
          (void)Svc.call(Cmd);
        }
        if (On)
          Session.CallUs.push_back((nowNs() - Q0) / 1e3);
      }
      Svc.stop();
      incremental::AnalysisSession Full(P);
      persist::SnapshotData Data;
      Data.TrackUse = true;
      Data.Program = P;
      Data.Planes = Full.exportPlanes();
      Data.Generation = Data.Planes.Generation;
      std::string Path = Dir + "/t" + std::to_string(I) + ".ipsesnap", Err;
      std::int64_t W0 = nowNs();
      {
        ScopedSpan S("persist.snapshot_write");
        if (!persist::SnapshotWriter::write(Path, Data, Err))
          R.fail("snapshot write: " + Err);
      }
      std::int64_t W1 = nowNs();
      persist::SnapshotData Back;
      {
        ScopedSpan S("persist.snapshot_read");
        if (!persist::SnapshotReader::read(Path, Back, Err))
          R.fail("snapshot read: " + Err);
      }
      std::int64_t W2 = nowNs();
      if (On) {
        DemandOpen.push_back((D1 - D0) / 1e3);
        ColdQ.push_back((D2 - D1) / 1e3);
        SnapW.push_back((W1 - W0) / 1e6);
        SnapR.push_back((W2 - W1) / 1e6);
        MemoHits += double(D->stats().MemoHits);
        DemandQueries += double(D->stats().Queries);
      }
    }
    // The tenant front end without a socket: resident queries.
    tenant::TenantService Tenants;
    tenant::TenantConnection Conn;
    for (unsigned I = 0; I != 4; ++I)
      Tenants.call("", "open t" + std::to_string(I) + " " + fleetSpec(C.Seed, I));
    Rng Rq(C.Seed * 3 + 7);
    for (unsigned I = 0; I != 1000; ++I) {
      ++Tr.Req;
      std::size_t Ti = Rq.nextBelow(4);
      std::string Line = "{\"id\":" + std::to_string(I + 1) + ",\"tenant\":\"t" +
                         std::to_string(Ti) + "\",\"cmd\":\"" +
                         T.Shadows[Ti].nextQuery(Rq) + "\"}";
      double One;
      {
        ScopedSpan S("server.handle");
        One = timeEmit([&](auto Emit) {
          tenant::handleTenantRequestLine(Tenants, nullptr, Conn, Line, Emit);
        });
      }
      if (On)
        HandleUs.push_back(One);
    }
    Tenants.stop();
    if (Pass != 0)
      (On ? OnMs : OffMs) += (nowNs() - T0) / 1e6;
  }
  Tr.Enabled = false;

  R.Attempted += SnapW.size() + HandleUs.size();
  Session.report(R);
  R.metric("persist.snapshot_write_ms", median(SnapW), "ms");
  R.metric("persist.snapshot_read_ms", median(SnapR), "ms");
  R.metric("demand.memo_hit_ratio",
           DemandQueries > 0 ? MemoHits / DemandQueries : 0, "ratio");
  R.metric("demand.open_us", median(DemandOpen), "us");
  R.metric("demand.cold_query_us", median(ColdQ), "us");
  double Handle = median(HandleUs);
  R.metric("server.handle_us", Handle, "us");
  R.metric("server.wire_us", median(Wire.QueryUs) - Handle, "us");
  R.metric("observe.trace_overhead_pct",
           OffMs > 0 ? (OnMs - OffMs) / OffMs * 100 : 0, "%");
}

} // namespace

void runFleet(const Config &C, Result &R) {
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  if (C.Trace)
    fleetTraced(C, R);
  else
    fleetUntraced(C, R);
}

} // namespace ipsebench
