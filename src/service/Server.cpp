//===- service/Server.cpp - Protocol front ends for the service ---------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "support/Json.h"

#include <atomic>
#include <cctype>
#include <condition_variable>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace ipse;
using namespace ipse::service;

std::string service::renderResponse(const Response &R) {
  JsonWriter W;
  W.field("id", R.Id);
  W.field("ok", R.Ok);
  if (R.Retry)
    W.field("retry", true);
  W.field("gen", R.Generation);
  if (!R.TraceId.empty())
    W.field("trace", R.TraceId);
  if (!R.CheckOk)
    W.field("check", false);
  if (!R.Result.empty()) {
    if (R.ResultIsJson)
      W.fieldRaw("result", R.Result);
    else
      W.field("result", R.Result);
  }
  if (R.HasStats) {
    // Per-query demand attribution (demand-engine targets only).
    JsonWriter SW;
    SW.field("region_procs", R.RegionProcs);
    SW.field("memo_hits", R.MemoHits);
    SW.field("frontier_cuts", R.FrontierCuts);
    W.fieldRaw("stats", SW.finish());
  }
  if (!R.Error.empty())
    W.field("error", R.Error);
  return W.finish();
}

void service::handleRequestLine(
    AnalysisService &Svc, std::string_view Line,
    const std::function<void(const std::string &)> &Emit) {
  // Tolerate blank keep-alive lines without a response-less code path:
  // every non-blank line gets exactly one response.
  std::string_view Trimmed = Line;
  while (!Trimmed.empty() && (Trimmed.back() == '\r' || Trimmed.back() == '\n'))
    Trimmed.remove_suffix(1);
  if (Trimmed.empty())
    return;

  Response R;
  std::string ParseError;
  std::optional<JsonObject> Obj = parseJsonObject(Trimmed, ParseError);
  if (!Obj) {
    R.Ok = false;
    R.Error = "bad request: " + ParseError;
    Emit(renderResponse(R));
    return;
  }
  R.Id = Obj->getUInt("id").value_or(0);
  // Client-supplied trace id, or a server-assigned "s<N>" — either way
  // every response (including the inline error paths below) echoes it.
  std::string TraceId;
  if (std::optional<std::string> T = Obj->getString("trace");
      T && !T->empty()) {
    TraceId = std::move(*T);
  } else {
    static std::atomic<std::uint64_t> NextServerTrace{1};
    TraceId =
        "s" + std::to_string(NextServerTrace.fetch_add(
                  1, std::memory_order_relaxed));
  }
  R.TraceId = TraceId;
  std::optional<std::string> CmdText = Obj->getString("cmd");
  if (!CmdText) {
    R.Ok = false;
    R.Error = "bad request: missing 'cmd'";
    Emit(renderResponse(R));
    return;
  }

  std::optional<ScriptCommand> Cmd;
  try {
    Cmd = parseScriptLine(*CmdText, 0);
  } catch (const ScriptError &E) {
    R.Ok = false;
    R.Generation = Svc.generation();
    R.Error = E.Message;
    Emit(renderResponse(R));
    return;
  }
  if (!Cmd) { // Comment-only cmd: acknowledge trivially.
    R.Generation = Svc.generation();
    Emit(renderResponse(R));
    return;
  }

  std::uint64_t Id = R.Id;
  // Captured by value: the response fires on a service thread, after this
  // frame (and the caller's temporary std::function) is gone.  The copy
  // still refers to the front end's synchronization state, which outlives
  // every outstanding response (serveFd drains before returning).
  std::function<void(const std::string &)> EmitCopy = Emit;
  bool Accepted = Svc.trySubmit(
      Id, std::move(*Cmd),
      [EmitCopy](Response Done) { EmitCopy(renderResponse(Done)); },
      std::move(TraceId));
  if (!Accepted) {
    R.Ok = false;
    R.Retry = true;
    R.Generation = Svc.generation();
    R.Error = "overloaded";
    Emit(renderResponse(R));
  }
}

namespace {

/// Writes one whole line (text + '\n') to \p Fd, retrying short writes.
void writeLine(int Fd, std::mutex &WriteMutex, const std::string &Text) {
  std::lock_guard<std::mutex> Lock(WriteMutex);
  std::string Buf = Text;
  Buf += '\n';
  const char *P = Buf.data();
  std::size_t Left = Buf.size();
  while (Left) {
    ssize_t N = ::write(Fd, P, Left);
    if (N <= 0)
      return; // Peer gone; nothing useful to do with the rest.
    P += N;
    Left -= static_cast<std::size_t>(N);
  }
}

} // namespace

void service::serveLines(const LineHandler &Handle, int InFd, int OutFd) {
  std::mutex WriteMutex;
  // Outstanding = requests handed to the service whose response has not
  // been written yet; EOF waits for the count to drain so no response is
  // lost when the client half-closes.
  std::mutex PendingMutex;
  std::condition_variable PendingCv;
  std::size_t Outstanding = 0;

  auto Emit = [&](const std::string &LineOut) {
    writeLine(OutFd, WriteMutex, LineOut);
    // Notify while holding the mutex: the drain wait below destroys this
    // frame's cv/mutex the moment Outstanding hits zero, and holding the
    // lock through notify_all keeps the waiter from getting there while
    // this thread is still inside the cv.
    std::lock_guard<std::mutex> Lock(PendingMutex);
    if (Outstanding)
      --Outstanding;
    PendingCv.notify_all();
  };

  auto isBlank = [](std::string_view Line) {
    for (char C : Line)
      if (!std::isspace(static_cast<unsigned char>(C)))
        return false;
    return true;
  };

  std::string Carry;
  char Buf[4096];
  bool TooLong = false;
  while (!TooLong) {
    ssize_t N = ::read(InFd, Buf, sizeof(Buf));
    if (N <= 0)
      break;
    // Carry never holds a newline, so only the bytes just read are scanned.
    std::size_t Scan = Carry.size();
    Carry.append(Buf, static_cast<std::size_t>(N));
    std::size_t Start = 0;
    for (std::size_t Nl; (Nl = Carry.find('\n', Scan)) != std::string::npos;
         Start = Scan = Nl + 1) {
      if (Nl - Start > MaxRequestLineBytes) {
        TooLong = true;
        break;
      }
      std::string_view Line(Carry.data() + Start, Nl - Start);
      // Blank keep-alive lines get no response, so no slot; every other
      // line is answered exactly once (handleRequestLine's contract).
      if (isBlank(Line))
        continue;
      {
        std::lock_guard<std::mutex> Lock(PendingMutex);
        ++Outstanding;
      }
      Handle(Line, Emit);
    }
    Carry.erase(0, Start);
    TooLong |= Carry.size() > MaxRequestLineBytes;
  }
  if (TooLong) {
    // One answer, then stop reading: the rest of the line is never
    // buffered, and the caller closes the connection.
    Response R;
    R.Ok = false;
    R.Error = "request line longer than " +
              std::to_string(MaxRequestLineBytes) + " bytes";
    writeLine(OutFd, WriteMutex, renderResponse(R));
  }

  std::unique_lock<std::mutex> Lock(PendingMutex);
  PendingCv.wait(Lock, [&] { return Outstanding == 0; });
}

void service::serveFd(AnalysisService &Svc, int InFd, int OutFd) {
  serveLines(
      [&Svc](std::string_view Line,
             const std::function<void(const std::string &)> &Emit) {
        handleRequestLine(Svc, Line, Emit);
      },
      InFd, OutFd);
}

//===----------------------------------------------------------------------===//
// TCP listener.
//===----------------------------------------------------------------------===//

bool TcpServer::start(std::uint16_t Port, std::string &ErrorOut) {
  ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    ErrorOut = std::strerror(errno);
    return false;
  }
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
          0 ||
      ::listen(ListenFd, 16) < 0) {
    ErrorOut = std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  socklen_t Len = sizeof(Addr);
  ::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len);
  BoundPort = ntohs(Addr.sin_port);
  Running = true;
  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void TcpServer::acceptLoop() {
  while (true) {
    int Conn = ::accept(ListenFd, nullptr, nullptr);
    if (Conn < 0)
      return; // Listener closed by stop().
    std::lock_guard<std::mutex> Lock(ConnMutex);
    if (!Running) {
      ::close(Conn);
      return;
    }
    // Each response is one short line; Nagle would hold the second of two
    // back-to-back responses until the client's (possibly delayed) ACK.
    int One = 1;
    ::setsockopt(Conn, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    ConnFds.push_back(Conn);
    ConnThreads.emplace_back([this, Conn] {
      Handler(Conn, Conn);
      ::close(Conn);
    });
  }
}

void TcpServer::stop() {
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    if (!Running && ListenFd < 0)
      return;
    Running = false;
    for (int Fd : ConnFds)
      ::shutdown(Fd, SHUT_RDWR); // Unblocks each connection's read loop.
  }
  if (int Fd = ListenFd.exchange(-1); Fd >= 0) {
    ::shutdown(Fd, SHUT_RDWR);
    ::close(Fd); // Unblocks accept().
  }
  if (Acceptor.joinable())
    Acceptor.join();
  std::vector<std::thread> Threads;
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    Threads.swap(ConnThreads);
    ConnFds.clear();
  }
  for (std::thread &T : Threads)
    if (T.joinable())
      T.join();
}

//===----------------------------------------------------------------------===//
// Line-oriented client.
//===----------------------------------------------------------------------===//

namespace {

/// Connects to 127.0.0.1:\p Port; returns -1 with a stderr diagnostic on
/// failure.
int connectLoopback(std::uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    std::fprintf(stderr, "error: socket: %s\n", std::strerror(errno));
    return -1;
  }
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    std::fprintf(stderr, "error: connect 127.0.0.1:%u: %s\n", unsigned(Port),
                 std::strerror(errno));
    ::close(Fd);
    return -1;
  }
  return Fd;
}

} // namespace

int service::runClient(std::uint16_t Port, std::FILE *In, std::FILE *Out) {
  int Fd = connectLoopback(Port);
  if (Fd < 0)
    return 1;

  // Synchronous one-at-a-time: send a request, read its response line.
  // Simple, and exactly what scripted use needs.
  int Exit = 0;
  std::uint64_t NextId = 1;
  char *LinePtr = nullptr;
  std::size_t LineCap = 0;
  std::string Carry;
  char Buf[4096];
  auto readResponseLine = [&](std::string &OutLine) -> bool {
    while (true) {
      if (std::size_t Nl = Carry.find('\n'); Nl != std::string::npos) {
        OutLine = Carry.substr(0, Nl);
        Carry.erase(0, Nl + 1);
        return true;
      }
      ssize_t N = ::read(Fd, Buf, sizeof(Buf));
      if (N <= 0)
        return false;
      Carry.append(Buf, static_cast<std::size_t>(N));
    }
  };

  while (true) {
    ssize_t Len = ::getline(&LinePtr, &LineCap, In);
    if (Len < 0)
      break;
    std::string Script(LinePtr, static_cast<std::size_t>(Len));
    while (!Script.empty() &&
           (Script.back() == '\n' || Script.back() == '\r'))
      Script.pop_back();
    if (std::size_t Hash = Script.find('#'); Hash != std::string::npos)
      Script.resize(Hash);
    bool AllSpace = true;
    for (char C : Script)
      if (!std::isspace(static_cast<unsigned char>(C)))
        AllSpace = false;
    if (AllSpace)
      continue;

    JsonWriter W;
    W.field("id", NextId);
    // Client-chosen trace ids ("c1", "c2", ...) mirror the request ids,
    // so a span's "trace" tag reads straight back to a script line.
    W.field("trace", "c" + std::to_string(NextId));
    ++NextId;
    W.field("cmd", Script);
    std::string Req = W.finish() + "\n";
    if (::write(Fd, Req.data(), Req.size()) !=
        static_cast<ssize_t>(Req.size())) {
      std::fprintf(stderr, "error: connection lost\n");
      Exit = 1;
      break;
    }
    std::string RespLine;
    if (!readResponseLine(RespLine)) {
      std::fprintf(stderr, "error: connection closed\n");
      Exit = 1;
      break;
    }
    std::fprintf(Out, "%s\n", RespLine.c_str());
    std::string Err;
    if (std::optional<JsonObject> Resp = parseJsonObject(RespLine, Err))
      if (Resp->getBool("ok") == false)
        Exit = 1;
  }
  std::free(LinePtr);
  ::close(Fd);
  return Exit;
}

int service::runMetricsDump(std::uint16_t Port, bool Prom, std::FILE *Out) {
  int Fd = connectLoopback(Port);
  if (Fd < 0)
    return 1;

  JsonWriter W;
  W.field("id", std::uint64_t(1));
  W.field("cmd", Prom ? "metrics --format=prom" : "metrics");
  std::string Req = W.finish() + "\n";
  if (::write(Fd, Req.data(), Req.size()) != static_cast<ssize_t>(Req.size())) {
    std::fprintf(stderr, "error: connection lost\n");
    ::close(Fd);
    return 1;
  }

  std::string Carry;
  char Buf[4096];
  std::size_t Nl;
  while ((Nl = Carry.find('\n')) == std::string::npos) {
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N <= 0) {
      std::fprintf(stderr, "error: connection closed\n");
      ::close(Fd);
      return 1;
    }
    Carry.append(Buf, static_cast<std::size_t>(N));
  }
  ::close(Fd);

  std::string RespLine = Carry.substr(0, Nl);
  std::string Err;
  std::optional<JsonObject> Resp = parseJsonObject(RespLine, Err);
  if (!Resp || Resp->getBool("ok") != true) {
    std::fprintf(stderr, "error: bad metrics response: %s\n",
                 RespLine.c_str());
    return 1;
  }
  // Prometheus text arrives as a JSON string; the JSON form arrives as a
  // nested object the flat parser keeps as a raw lexeme.
  std::optional<std::string> Payload =
      Prom ? Resp->getString("result") : Resp->getRaw("result");
  if (!Payload) {
    std::fprintf(stderr, "error: metrics response without result\n");
    return 1;
  }
  std::fprintf(Out, "%s%s", Payload->c_str(),
               (!Payload->empty() && Payload->back() == '\n') ? "" : "\n");
  return 0;
}

int service::runDebugDump(std::uint16_t Port, std::FILE *Out) {
  int Fd = connectLoopback(Port);
  if (Fd < 0)
    return 1;

  JsonWriter W;
  W.field("id", std::uint64_t(1));
  W.field("cmd", "debug");
  std::string Req = W.finish() + "\n";
  if (::write(Fd, Req.data(), Req.size()) != static_cast<ssize_t>(Req.size())) {
    std::fprintf(stderr, "error: connection lost\n");
    ::close(Fd);
    return 1;
  }

  std::string Carry;
  char Buf[4096];
  std::size_t Nl;
  while ((Nl = Carry.find('\n')) == std::string::npos) {
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N <= 0) {
      std::fprintf(stderr, "error: connection closed\n");
      ::close(Fd);
      return 1;
    }
    Carry.append(Buf, static_cast<std::size_t>(N));
  }
  ::close(Fd);

  std::string RespLine = Carry.substr(0, Nl);
  std::string Err;
  std::optional<JsonObject> Resp = parseJsonObject(RespLine, Err);
  if (!Resp || Resp->getBool("ok") != true) {
    std::fprintf(stderr, "error: bad debug response: %s\n", RespLine.c_str());
    return 1;
  }
  // The flight dump arrives as a raw JSON array lexeme; print it as-is
  // (already a complete, Perfetto-loadable Chrome Trace document).
  std::optional<std::string> Payload = Resp->getRaw("result");
  if (!Payload) {
    std::fprintf(stderr, "error: debug response without result\n");
    return 1;
  }
  std::fprintf(Out, "%s\n", Payload->c_str());
  return 0;
}
