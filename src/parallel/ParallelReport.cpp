//===- parallel/ParallelReport.cpp - Parallel report materialization ----------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "parallel/ParallelReport.h"

#include "parallel/ParallelAnalyzer.h"

#include <memory>
#include <vector>

using namespace ipse;
using namespace ipse::ir;
using namespace ipse::parallel;

std::string parallel::makeReportParallel(const Program &P,
                                         analysis::ReportOptions Options,
                                         unsigned Threads) {
  // Same small-program floor as the owned-pool analyzer: the report's
  // lent pool is sized once here, so clamp before it spins up.
  ParallelAnalyzerOptions ModOpts;
  ModOpts.Threads = Threads;
  const unsigned Eff = ModOpts.effectiveThreads(P.numProcs());
  observe::addCounter("parallel.effective_threads", Eff);
  if (Eff < (Threads < 1 ? 1u : Threads))
    observe::addCounter("parallel.small_program_clamp", 1);
  ThreadPool Pool(Eff);

  ParallelAnalyzer Mod(P, ModOpts, Pool);
  std::unique_ptr<ParallelAnalyzer> Use;
  if (Options.IncludeUse) {
    ParallelAnalyzerOptions UseOpts;
    UseOpts.Kind = analysis::EffectKind::Use;
    Use = std::make_unique<ParallelAnalyzer>(P, UseOpts, Pool);
  }

  // One fragment per procedure and per call site, rendered concurrently
  // (every fragment depends only on the finished analyzers, the shared
  // name order and its own id) and joined in id order — the output is the
  // sequential makeReport's, byte for byte, at any pool width.
  observe::TraceSpan Span("render");
  const VarNameOrder Order(P);
  std::vector<std::string> ProcFrags(P.numProcs());
  Pool.parallelFor(P.numProcs(), [&](std::size_t I) {
    std::vector<std::uint32_t> Ranks;
    analysis::renderProc(ProcFrags[I], P, Order, Options, Mod, Use.get(),
                         ProcId(static_cast<std::uint32_t>(I)), Ranks);
  });

  std::vector<std::string> SiteFrags;
  if (Options.IncludeCallSites) {
    SiteFrags.resize(P.numCallSites());
    Pool.parallelFor(P.numCallSites(), [&](std::size_t I) {
      std::vector<std::uint32_t> Ranks;
      analysis::renderCallSite(SiteFrags[I], P, Order, Options, Mod,
                               Use.get(),
                               CallSiteId(static_cast<std::uint32_t>(I)),
                               Ranks);
    });
  }

  std::string Out = "procedures:\n";
  for (const std::string &Frag : ProcFrags)
    Out += Frag;
  if (Options.IncludeCallSites) {
    Out += "call sites:\n";
    for (const std::string &Frag : SiteFrags)
      Out += Frag;
  }
  return Out;
}
