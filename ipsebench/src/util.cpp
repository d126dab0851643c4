//===- ipsebench/src/util.cpp - Stats, spans, processes, oracle -----------===//

#include "bench.h"

#include "analysis/LocalEffects.h"
#include "analysis/VarMasks.h"
#include "baselines/IterativeSolver.h"
#include "graph/CallGraph.h"
#include "ir/Printer.h"
#include "ir/ProgramEditor.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace ipse;

namespace ipsebench {

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t Rank = static_cast<std::size_t>(Q * V.size());
  if (Rank >= V.size())
    Rank = V.size() - 1;
  return V[Rank];
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

// ---- spans -----------------------------------------------------------------

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

ScopedSpan::ScopedSpan(const char *Name) {
  Tracer &T = Tracer::get();
  if (!T.Enabled)
    return;
  Idx = static_cast<std::int32_t>(T.Spans.size());
  T.Spans.push_back(
      {Name, nowNs(), 0, T.Stack.empty() ? -1 : T.Stack.back(), T.Req});
  T.Stack.push_back(Idx);
}

ScopedSpan::~ScopedSpan() {
  if (Idx < 0)
    return;
  Tracer &T = Tracer::get();
  T.Spans[Idx].End = nowNs();
  T.Stack.pop_back();
}

std::map<std::string, double> Tracer::selfMsByName() const {
  std::vector<double> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += double(S.End - S.Start);
  std::map<std::string, double> Out;
  for (std::size_t I = 0; I != Spans.size(); ++I)
    Out[Spans[I].Name] +=
        (double(Spans[I].End - Spans[I].Start) - ChildNs[I]) / 1e6;
  return Out;
}

std::map<std::string, double> Tracer::totalMsByName() const {
  std::map<std::string, double> Out;
  for (const Span &S : Spans)
    Out[S.Name] += double(S.End - S.Start) / 1e6;
  return Out;
}

bool Tracer::writeJsonl(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"i\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"req\":%llu}\n",
                 I, S.Name, (long long)S.Start, (long long)S.End, S.Parent,
                 (unsigned long long)S.Req);
  }
  return std::fclose(F) == 0;
}

// ---- files and processes -----------------------------------------------------

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  return bool(Out);
}

namespace {

std::vector<char *> cArgv(const std::vector<std::string> &Argv) {
  std::vector<char *> Out;
  for (const std::string &A : Argv)
    Out.push_back(const_cast<char *>(A.c_str()));
  Out.push_back(nullptr);
  return Out;
}

} // namespace

int runCapture(const std::vector<std::string> &Argv, std::string &Out,
               std::int64_t &WallNs, long &MaxRssKb) {
  int Pipe[2];
  if (::pipe2(Pipe, O_CLOEXEC) != 0)
    return -1;
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_adddup2(&FA, Pipe[1], 1);
  posix_spawn_file_actions_addopen(&FA, 0, "/dev/null", O_RDONLY, 0);
  std::vector<char *> A = cArgv(Argv);
  std::int64_t T0 = nowNs();
  pid_t Pid = -1;
  int Rc = posix_spawn(&Pid, A[0], &FA, nullptr, A.data(), environ);
  posix_spawn_file_actions_destroy(&FA);
  ::close(Pipe[1]);
  if (Rc != 0) {
    ::close(Pipe[0]);
    return -1;
  }
  Out.clear();
  char Buf[1 << 16];
  for (;;) {
    ssize_t N = ::read(Pipe[0], Buf, sizeof(Buf));
    if (N > 0)
      Out.append(Buf, static_cast<std::size_t>(N));
    else if (N < 0 && errno == EINTR)
      continue;
    else
      break;
  }
  ::close(Pipe[0]);
  int Status = 0;
  struct rusage RU;
  std::memset(&RU, 0, sizeof(RU));
  while (::wait4(Pid, &Status, 0, &RU) < 0 && errno == EINTR) {
  }
  WallNs = nowNs() - T0;
  MaxRssKb = RU.ru_maxrss;
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

bool ServerProc::start(const std::vector<std::string> &Argv,
                       const std::string &Log) {
  LogPath = Log;
  int In[2];
  if (::pipe2(In, O_CLOEXEC) != 0)
    return false;
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_adddup2(&FA, In[0], 0);
  posix_spawn_file_actions_addopen(&FA, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&FA, 2, Log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char *> A = cArgv(Argv);
  std::vector<std::string> EnvText;
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "LD_PRELOAD=", 11) != 0)
      EnvText.push_back(*E);
  if (!Preload.empty())
    EnvText.push_back("LD_PRELOAD=" + Preload);
  std::vector<char *> Env = cArgv(EnvText);
  pid_t P = -1;
  int Rc = posix_spawn(&P, A[0], &FA, nullptr, A.data(), Env.data());
  posix_spawn_file_actions_destroy(&FA);
  ::close(In[0]);
  if (Rc != 0) {
    ::close(In[1]);
    return false;
  }
  Pid = P;
  StdinFd = In[1];
  return true;
}

bool ServerProc::alive() {
  if (Pid < 0)
    return false;
  int Status = 0;
  pid_t R = ::waitpid(Pid, &Status, WNOHANG);
  if (R == Pid) {
    Pid = -1;
    return false;
  }
  return true;
}

bool ServerProc::waitForPort(double TimeoutS) {
  std::int64_t Deadline = nowNs() + std::int64_t(TimeoutS * 1e9);
  const std::string Marker = "serving on 127.0.0.1:";
  while (nowNs() < Deadline) {
    std::ifstream In(LogPath);
    std::string Line;
    while (std::getline(In, Line)) {
      std::size_t At = Line.find(Marker);
      if (At != std::string::npos) {
        Port = static_cast<std::uint16_t>(
            std::atoi(Line.c_str() + At + Marker.size()));
        return Port != 0;
      }
    }
    if (!alive())
      return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return false;
}

double ServerProc::peakRssMb() const {
  if (Pid < 0)
    return 0;
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0;
  return 0;
}

void ServerProc::stop(double TimeoutS) {
  if (StdinFd >= 0) {
    ::close(StdinFd);
    StdinFd = -1;
  }
  if (Pid < 0)
    return;
  std::int64_t Deadline = nowNs() + std::int64_t(TimeoutS * 1e9);
  int Status = 0;
  while (nowNs() < Deadline) {
    pid_t R = ::waitpid(Pid, &Status, WNOHANG);
    if (R == Pid || R < 0) {
      Pid = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::kill(Pid, SIGKILL);
  ::waitpid(Pid, &Status, 0);
  Pid = -1;
}

int connectLoopback(std::uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return Fd;
}

void quickAck(int Fd) {
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_QUICKACK, &One, sizeof(One));
}

std::string roundTrip(int Fd, const std::string &RequestLine,
                      double TimeoutS) {
  std::string Req = RequestLine + "\n";
  std::size_t Off = 0;
  while (Off < Req.size()) {
    ssize_t N = ::send(Fd, Req.data() + Off, Req.size() - Off, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return "";
    Off += static_cast<std::size_t>(N);
  }
  std::string Line;
  std::int64_t Deadline = nowNs() + std::int64_t(TimeoutS * 1e9);
  char C;
  while (nowNs() < Deadline) {
    pollfd P{Fd, POLLIN, 0};
    int Ms = int((Deadline - nowNs()) / 1000000) + 1;
    if (::poll(&P, 1, Ms) <= 0)
      continue;
    ssize_t N = ::recv(Fd, &C, 1, 0);
    if (N <= 0)
      return "";
    if (C == '\n')
      return Line;
    Line.push_back(C);
  }
  return "";
}

// ---- oracle ------------------------------------------------------------------

namespace {

/// Renders sets as `ipse-cli` does (qualified names, sorted, ", "), with
/// every name and its sort rank computed once per program.
struct SetRenderer {
  std::vector<std::string> Names;
  std::vector<std::uint32_t> Rank;

  explicit SetRenderer(const ir::Program &P) {
    for (std::uint32_t I = 0; I != P.numVars(); ++I)
      Names.push_back(ir::qualifiedName(P, ir::VarId(I)));
    std::vector<std::uint32_t> Order(Names.size());
    std::iota(Order.begin(), Order.end(), 0u);
    std::sort(Order.begin(), Order.end(), [&](std::uint32_t A, std::uint32_t B) {
      return Names[A] < Names[B];
    });
    Rank.resize(Names.size());
    for (std::uint32_t I = 0; I != Order.size(); ++I)
      Rank[Order[I]] = I;
  }

  std::string operator()(const EffectSet &S) const {
    std::vector<std::uint32_t> Bits;
    S.forEachSetBit(
        [&](std::size_t I) { Bits.push_back(static_cast<std::uint32_t>(I)); });
    std::sort(Bits.begin(), Bits.end(), [&](std::uint32_t A, std::uint32_t B) {
      return Rank[A] < Rank[B];
    });
    std::string Out;
    for (std::size_t I = 0; I != Bits.size(); ++I) {
      if (I)
        Out += ", ";
      Out += Names[Bits[I]];
    }
    return Out;
  }
};

} // namespace

Oracle::Oracle(const ir::Program &P) {
  analysis::VarMasks Masks(P);
  graph::CallGraph CG(P);
  SetRenderer render(P);
  Reachable.assign(P.numProcs(), false);
  std::vector<ir::ProcId> Work = {P.main()};
  Reachable[P.main().index()] = true;
  while (!Work.empty()) {
    ir::ProcId Q = Work.back();
    Work.pop_back();
    for (ir::CallSiteId C : P.proc(Q).CallSites) {
      ir::ProcId Callee = P.callSite(C).Callee;
      if (!Reachable[Callee.index()]) {
        Reachable[Callee.index()] = true;
        Work.push_back(Callee);
      }
    }
  }
  for (analysis::EffectKind K :
       {analysis::EffectKind::Mod, analysis::EffectKind::Use}) {
    analysis::LocalEffects Local(P, Masks, K);
    baselines::IterativeResult It =
        baselines::solveIterative(P, CG, Masks, Local);
    std::vector<std::string> &G = K == analysis::EffectKind::Mod ? GMod : GUse;
    std::vector<std::string> &D = K == analysis::EffectKind::Mod ? DMod : DUse;
    for (std::uint32_t I = 0; I != P.numProcs(); ++I)
      G.push_back(render(It.GMod.GMod[I]));
    for (std::uint32_t I = 0; I != P.numCallSites(); ++I) {
      EffectSet Site(P.numVars());
      baselines::applyFullBinding(P, Masks, It.GMod.GMod, ir::CallSiteId(I),
                                  Site);
      D.push_back(render(Site));
    }
  }
}

bool Oracle::checkReport(const ir::Program &P, const std::string &Got,
                         std::string &Why) const {
  std::vector<std::string> Want;
  std::vector<bool> Checked;
  auto want = [&](std::string Line, bool Check) {
    Want.push_back(std::move(Line));
    Checked.push_back(Check);
  };
  want("procedures:", true);
  for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
    bool R = Reachable[I];
    want("  " + std::string(P.name(ir::ProcId(I))) + ":", true);
    want("    GMOD = { " + GMod[I] + " }", R);
    want("    GUSE = { " + GUse[I] + " }", R);
  }
  want("call sites:", true);
  for (std::uint32_t I = 0; I != P.numCallSites(); ++I) {
    const ir::CallSite &C = P.callSite(ir::CallSiteId(I));
    bool R = Reachable[C.Caller.index()];
    want("  s" + std::to_string(I) + ": " + std::string(P.name(C.Caller)) +
             " -> " + std::string(P.name(C.Callee)) + ":",
         true);
    want("    DMOD = { " + DMod[I] + " }", R);
    want("    DUSE = { " + DUse[I] + " }", R);
  }
  std::size_t Line = 0, Start = 0;
  for (; Start < Got.size() && Line < Want.size(); ++Line) {
    std::size_t End = Got.find('\n', Start);
    if (End == std::string::npos)
      End = Got.size();
    if (Checked[Line] &&
        std::string_view(Got).substr(Start, End - Start) != Want[Line]) {
      Why = "line " + std::to_string(Line + 1) + ": expected '" +
            Want[Line].substr(0, 120) + "'";
      return false;
    }
    Start = End + 1;
  }
  if (Line != Want.size() || Start < Got.size()) {
    Why = "report has " + std::string(Line != Want.size() ? "fewer" : "more") +
          " lines than the oracle";
    return false;
  }
  return true;
}

void makeReachable(ir::Program &P) {
  std::vector<bool> Seen(P.numProcs(), false);
  std::vector<ir::ProcId> Work;
  auto reach = [&](ir::ProcId From) {
    if (Seen[From.index()])
      return;
    Seen[From.index()] = true;
    Work.push_back(From);
    while (!Work.empty()) {
      ir::ProcId Q = Work.back();
      Work.pop_back();
      for (ir::CallSiteId C : P.proc(Q).CallSites) {
        ir::ProcId Callee = P.callSite(C).Callee;
        if (!Seen[Callee.index()]) {
          Seen[Callee.index()] = true;
          Work.push_back(Callee);
        }
      }
    }
  };
  reach(P.main());
  // Nesting-tree preorder: a parent is reachable before its children.
  ir::ProgramEditor Ed(P);
  std::vector<ir::ProcId> Order = {P.main()};
  for (std::size_t I = 0; I != Order.size(); ++I) {
    ir::ProcId Q = Order[I];
    for (ir::ProcId Child : P.proc(Q).Nested)
      Order.push_back(Child);
    if (Seen[Q.index()])
      continue;
    ir::ProcId Parent = P.proc(Q).Parent;
    ir::StmtId Host = P.proc(Parent).Stmts.empty() ? Ed.addStmt(Parent)
                                                   : P.proc(Parent).Stmts[0];
    std::vector<ir::Actual> Args(P.proc(Q).Formals.size(),
                                 ir::Actual::expression());
    Ed.addCall(Host, Q, std::move(Args));
    reach(Q);
  }
}

synth::EditGenConfig editConfig(std::uint64_t Seed) {
  synth::EditGenConfig EC;
  EC.Seed = Seed;
  EC.AllowUniverse = false;
  EC.WeightRemoveCall = 0;
  return EC;
}

void applyToShadow(ir::Program &P, const incremental::Edit &E) {
  using incremental::EditKind;
  ir::ProgramEditor Ed(P);
  switch (E.Kind) {
  case EditKind::AddMod:
    Ed.addMod(E.Stmt, E.Var);
    break;
  case EditKind::RemoveMod:
    Ed.removeMod(E.Stmt, E.Var);
    break;
  case EditKind::AddUse:
    Ed.addUse(E.Stmt, E.Var);
    break;
  case EditKind::RemoveUse:
    Ed.removeUse(E.Stmt, E.Var);
    break;
  case EditKind::AddCall:
    Ed.addCall(E.Stmt, E.Callee, E.Actuals);
    break;
  case EditKind::RemoveCall:
    Ed.removeCall(E.Call);
    break;
  case EditKind::AddStmt:
    Ed.addStmt(E.Proc);
    break;
  case EditKind::AddProc:
    Ed.addProc(E.Name, E.Proc);
    break;
  case EditKind::AddGlobal:
    Ed.addGlobal(E.Name);
    break;
  case EditKind::AddLocal:
    Ed.addLocal(E.Proc, E.Name);
    break;
  case EditKind::AddFormal:
    Ed.addFormal(E.Proc, E.Name);
    break;
  case EditKind::RemoveProc:
    Ed.removeProc(E.Proc);
    break;
  }
}

} // namespace ipsebench
