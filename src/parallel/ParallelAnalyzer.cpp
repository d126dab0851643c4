//===- parallel/ParallelAnalyzer.cpp - Parallel batch pipeline ----------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "parallel/ParallelAnalyzer.h"

using namespace ipse;
using namespace ipse::parallel;

ParallelAnalyzer::ParallelAnalyzer(const ir::Program &P,
                                   ParallelAnalyzerOptions Options)
    : P(P), Options(Options), Masks(P), CG(P), BG(P),
      OwnedPool(
          std::make_unique<ThreadPool>(Options.effectiveThreads(P.numProcs()))),
      Pool(*OwnedPool) {
  observe::addCounter("parallel.effective_threads", Pool.threads());
  if (Pool.threads() < (Options.Threads < 1 ? 1u : Options.Threads))
    observe::addCounter("parallel.small_program_clamp", 1);
  run();
}

ParallelAnalyzer::ParallelAnalyzer(const ir::Program &P,
                                   ParallelAnalyzerOptions Options,
                                   ThreadPool &Pool)
    : P(P), Options(Options), Masks(P), CG(P), BG(P), Pool(Pool) {
  run();
}

void ParallelAnalyzer::run() {
  GraphsSpan.close();
  const std::uint64_t IdleBefore = Pool.idleNanos();
  {
    observe::TraceSpan Span("local");
    Local = std::make_unique<analysis::LocalEffects>(P, Masks, Options.Kind);
  }
  {
    observe::TraceSpan Span("rmod");
    EffectSet FormalBits(P.numVars());
    for (std::uint32_t I = 0; I != P.numProcs(); ++I)
      for (ir::VarId F : P.proc(ir::ProcId(I)).Formals)
        if (Local->formalBit(P, F))
          FormalBits.set(F.index());
    RMod = solveRModLevels(P, BG, FormalBits, Pool, Options.Schedule);
    observe::addCounter("rmod.boolean_steps", RMod.BooleanSteps);
  }
  {
    observe::TraceSpan Span("imodplus");
    IModPlus = computeIModPlusParallel(P, *Local, RMod.ModifiedFormals, Pool,
                                       Options.Schedule);
  }
  {
    observe::TraceSpan Span("gmod");
    GMod = solveGModLevels(P, CG, Masks, IModPlus, Pool, &Stats,
                           Options.Schedule);
  }
  observe::addCounter("pool.idle_ns", Pool.idleNanos() - IdleBefore);
  observe::addCounter("parallel.fanout_levels", Stats.FanoutLevels);
  observe::addCounter("parallel.inline_levels", Stats.InlineLevels);
}

