//===- analysis/SideEffectAnalyzer.cpp - The §5 pipeline ----------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "analysis/SideEffectAnalyzer.h"

#include "analysis/MultiLevelGMod.h"
#include "support/Compiler.h"

using namespace ipse;
using namespace ipse::analysis;

SideEffectAnalyzer::SideEffectAnalyzer(const ir::Program &P,
                                       AnalyzerOptions Options)
    : P(P), Options(Options), Masks(P), CG(P), BG(P) {
  GraphsSpan.close();
  {
    observe::TraceSpan Span("local");
    Local = std::make_unique<LocalEffects>(P, Masks, Options.Kind);
  }
  {
    observe::TraceSpan Span("rmod");
    RMod = solveRMod(P, BG, *Local);
    observe::addCounter("rmod.boolean_steps", RMod.BooleanSteps);
  }
  {
    observe::TraceSpan Span("imodplus");
    IModPlus = computeIModPlus(P, *Local, RMod);
  }

  using Algo = AnalyzerOptions::GModAlgorithm;
  Algo Chosen = Options.Algorithm;
  if (Chosen == Algo::Auto)
    Chosen = P.maxProcLevel() <= 1 ? Algo::FindGMod : Algo::MultiLevelCombined;

  observe::TraceSpan Span("gmod");
  switch (Chosen) {
  case Algo::FindGMod:
    GMod = solveGMod(P, CG, Masks, IModPlus);
    break;
  case Algo::MultiLevelRepeated:
    GMod = solveMultiLevelRepeated(P, CG, Masks, IModPlus);
    break;
  case Algo::MultiLevelCombined:
    GMod = solveMultiLevelCombined(P, CG, Masks, IModPlus);
    break;
  case Algo::Auto:
    unreachable("Auto was resolved above");
  }
}
