//===- ipsebench/src/compile.cpp - The `compile` workload -----------------===//
//
// A compiler's view: a closed loop with one client that runs
// `ipse-cli report <file>` as a child process over a fixed, seeded set of
// MiniProc sources.  Passes alternate between the sources as generated and
// the same sources after one seeded edit each, so a pass after an edit
// measures what a batch tool pays before an edit is visible.  Every report
// is compared with the iterative baseline's report of the same program.
//
// The traced run replays the same programs in-process and times each
// paper phase through its public function.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "analysis/DMod.h"
#include "analysis/GMod.h"
#include "analysis/IModPlus.h"
#include "analysis/LocalEffects.h"
#include "analysis/MultiLevelGMod.h"
#include "analysis/RMod.h"
#include "analysis/Report.h"
#include "analysis/SideEffectAnalyzer.h"
#include "analysis/VarMasks.h"
#include "frontend/Frontend.h"
#include "graph/BindingGraph.h"
#include "graph/CallGraph.h"
#include "support/OpCount.h"
#include "synth/EditGen.h"
#include "synth/ProgramGen.h"
#include "synth/SourceGen.h"


using namespace ipse;

namespace ipsebench {
namespace {

struct Input {
  std::string Name;
  ir::Program P;
};

/// The fixed compile set for \p Seed: a wide two-level program in the
/// FORTRAN/C scoping style whose variable universe (globals, formals and
/// locals) gives long bit-vectors, a nested program (dP = 3, §4), and a
/// deep β chain and cycle (Figure 1's worst case).  Every procedure is
/// reachable from main (the paper's §3.3 precondition).
std::vector<Input> compileSet(std::uint64_t Seed) {
  std::vector<Input> Set;
  auto generated = [&](const char *Name, unsigned Procs, unsigned Depth,
                       std::uint64_t Salt) {
    synth::ProgramGenConfig Cfg;
    Cfg.Seed = Seed * 7919 + Salt;
    Cfg.NumProcs = Procs;
    Cfg.NumGlobals = 64;
    Cfg.MaxNestDepth = Depth;
    ir::Program P = synth::generateProgram(Cfg);
    makeReachable(P);
    Set.push_back({Name, std::move(P)});
  };
  generated("wide", 12000, 1, 1);
  generated("nested", 6000, 3, 2);
  Set.push_back({"chain", synth::makeChainProgram(2000, 3)});
  Set.push_back({"cycle", synth::makeCycleProgram(2000, 3)});
  return Set;
}

/// One seeded EditGen edit (effect or call-structure tier) applied to a
/// copy of \p P.
ir::Program editedCopy(const ir::Program &P, std::uint64_t Seed) {
  ir::Program Q = P;
  synth::EditGen Gen(editConfig(Seed));
  if (std::optional<incremental::Edit> E = Gen.next(Q))
    applyToShadow(Q, *E);
  return Q;
}

struct Case {
  std::string Path;
  ir::Program Parsed;
  std::optional<Oracle> Expected;
  std::size_t Procs = 0;
};

void untraced(const Config &C, Result &R) {
  std::vector<Input> Set = compileSet(C.Seed);
  // Cases[0] are the sources as generated, Cases[1] the edited ones.
  std::vector<Case> Cases[2];
  for (std::size_t I = 0; I != Set.size(); ++I) {
    const Input &In = Set[I];
    ir::Program Edited = editedCopy(In.P, C.Seed * 31 + I);
    const ir::Program *Versions[2] = {&In.P, &Edited};
    for (int V = 0; V != 2; ++V) {
      Case K;
      K.Path = C.WorkDir + "/" + In.Name + (V ? "-edited" : "") + ".mp";
      std::string Source = synth::emitMiniProc(*Versions[V]);
      writeFile(K.Path, Source);
      // The oracle runs on the program as the CLI numbers it: parsed from
      // the same source text.
      K.Parsed = *frontend::compileMiniProc(Source).Program;
      K.Procs = K.Parsed.numProcs();
      K.Expected.emplace(K.Parsed);
      Cases[V].push_back(std::move(K));
    }
  }

  // Set-up: launching ipse-cli on a trivial program, median of 31.
  synth::ProgramGenConfig Tiny;
  Tiny.NumProcs = 1;
  std::string TinyPath = C.WorkDir + "/trivial.mp";
  writeFile(TinyPath, synth::emitMiniProc(synth::generateProgram(Tiny)));
  std::vector<double> SetupS;
  long PeakKb = 0;
  for (int I = 0; I != 31; ++I) {
    std::string Out;
    std::int64_t Ns = 0;
    long Kb = 0;
    if (runCapture({C.Cli, "report", TinyPath}, Out, Ns, Kb) != 0) {
      R.fail("report on the trivial program exited non-zero");
      return;
    }
    SetupS.push_back(Ns / 1e9);
  }

  // One request is one build of the whole set.  Passes alternate between
  // the sources as generated (query_us) and the edited ones (edit_us).
  std::vector<double> PassUs[2];
  double SetProcs[2] = {0, 0};
  for (int V = 0; V != 2; ++V)
    for (const Case &K : Cases[V])
      SetProcs[V] += double(K.Procs);
  std::vector<double> ProcsPerS;
  std::int64_t Start = nowNs();
  for (unsigned Pass = 0;
       Pass < 2 || (nowNs() - Start) / 1e9 < C.Seconds; ++Pass) {
    double PassNs = 0;
    bool PassOk = true;
    for (const Case &K : Cases[Pass % 2]) {
      std::string Out;
      std::int64_t Ns = 0;
      long Kb = 0;
      ++R.Attempted;
      int Rc = runCapture({C.Cli, "report", K.Path}, Out, Ns, Kb);
      PeakKb = std::max(PeakKb, Kb);
      PassNs += double(Ns);
      std::string Why;
      if (Rc != 0) {
        ++R.Failed;
        PassOk = false;
        R.Notes.push_back("report " + K.Path + " exited " + std::to_string(Rc));
      } else if (!K.Expected->checkReport(K.Parsed, Out, Why)) {
        ++R.Failed;
        PassOk = false;
        R.fail("report of " + K.Path + " differs from the iterative baseline, " +
               Why);
      }
    }
    if (!PassOk)
      continue;
    PassUs[Pass % 2].push_back(PassNs / 1e3);
    ProcsPerS.push_back(SetProcs[Pass % 2] / (PassNs / 1e9));
  }

  R.metric("setup_s", median(SetupS), "s");
  R.metric("compile_procs_per_s", median(ProcsPerS), "1/s");
  R.metric("query_us_p50", median(PassUs[0]), "us");
  R.metric("edit_us_p50", median(PassUs[1]), "us");
  R.Info["builds_query_edit"] = std::to_string(PassUs[0].size()) + "/" +
                                std::to_string(PassUs[1].size());
  R.metric("ok_pct",
           R.Attempted ? 100.0 * double(R.Attempted - R.Failed) / R.Attempted
                       : 0,
           "%");
  R.metric("peak_rss_mb", PeakKb / 1024.0, "MB");
}

/// Word-op counts, times and paper-currency step counts of one replay of
/// the compile set in-process.
struct PhaseTotals {
  std::map<std::string, double> Words;
  double Bytes = 0;
  double RModSteps = 0, NBetaEBeta = 0;       // Figure 1
  double GModBv = 0, EPlusN = 0;              // Theorem 2 (findgmod)
  double Sec4Bv = 0, DpNPlusE = 0;            // §4 (combined variant)
};

PhaseTotals replay(const std::vector<std::pair<std::string, std::string>> &Src) {
  PhaseTotals T;
  Tracer &Tr = Tracer::get();
  for (const auto &[Name, Source] : Src) {
    ++Tr.Req;
    ScopedSpan Root("bench.compile_one");
    T.Bytes += double(Source.size());
    std::optional<ir::Program> P;
    {
      ScopedSpan S("frontend.compile");
      P = std::move(frontend::compileMiniProc(Source).Program);
    }
    std::size_t WordsPerVec = (P->numVars() + 63) / 64;
    auto count = [&](const char *Phase, OpCountScope &Ops) {
      T.Words[Phase] += double(Ops.delta());
    };
    std::optional<graph::CallGraph> CG;
    std::optional<graph::BindingGraph> BG;
    {
      ScopedSpan S("graph.build");
      CG.emplace(*P);
      BG.emplace(*P);
    }
    OpCountScope LocalOps;
    std::optional<analysis::VarMasks> Masks;
    std::optional<analysis::LocalEffects> Local;
    {
      ScopedSpan S("analysis.local");
      Masks.emplace(*P);
      Local.emplace(*P, *Masks, analysis::EffectKind::Mod);
    }
    count("local", LocalOps);
    OpCountScope RModOps;
    analysis::RModResult RMod;
    {
      ScopedSpan S("analysis.rmod");
      RMod = analysis::solveRMod(*P, *BG, *Local);
    }
    count("rmod", RModOps);
    T.RModSteps += double(RMod.BooleanSteps);
    T.NBetaEBeta += double(BG->numNodes() + BG->numEdges());
    OpCountScope IModOps;
    std::vector<EffectSet> IModPlus;
    {
      ScopedSpan S("analysis.imodplus");
      IModPlus = analysis::computeIModPlus(*P, *Local, RMod);
    }
    count("imodplus", IModOps);
    OpCountScope GModOps;
    analysis::GModResult GMod;
    bool TwoLevel = P->maxProcLevel() <= 1;
    {
      ScopedSpan S("analysis.gmod");
      GMod = TwoLevel
                 ? analysis::solveGMod(*P, *CG, *Masks, IModPlus)
                 : analysis::solveMultiLevelCombined(*P, *CG, *Masks, IModPlus);
    }
    count("gmod", GModOps);
    double Bv = double(GModOps.delta() / WordsPerVec);
    double E = double(P->numCallSites()), N = double(P->numProcs());
    if (TwoLevel) {
      T.GModBv += Bv;
      T.EPlusN += E + N;
    } else {
      T.Sec4Bv += Bv;
      T.DpNPlusE += double(P->maxProcLevel()) * N + E;
    }
    OpCountScope DModOps;
    {
      ScopedSpan S("analysis.dmod");
      for (std::uint32_t I = 0; I != P->numCallSites(); ++I)
        (void)analysis::projectCallSite(*P, *Masks, GMod, ir::CallSiteId(I));
    }
    count("dmod", DModOps);
    // renderReport over fully built analyzers: the report rendering the
    // CLI does, DMOD/DUSE projection included.
    analysis::SideEffectAnalyzer ModA(*P);
    analysis::AnalyzerOptions UseOpts;
    UseOpts.Kind = analysis::EffectKind::Use;
    analysis::SideEffectAnalyzer UseA(*P, UseOpts);
    OpCountScope ReportOps;
    {
      ScopedSpan S("analysis.report");
      std::string Text =
          analysis::renderReport(*P, analysis::ReportOptions(), ModA, &UseA);
      (void)Text;
    }
    count("report", ReportOps);
  }
  return T;
}

void traced(const Config &C, Result &R) {
  std::vector<std::pair<std::string, std::string>> Src;
  for (const Input &In : compileSet(C.Seed))
    Src.push_back({In.Name, synth::emitMiniProc(In.P)});

  // Untraced / traced pairs give the benchmark's own tracing overhead.
  Tracer &Tr = Tracer::get();
  std::vector<double> OffMs, OnMs;
  PhaseTotals T, Untraced;
  for (int Rep = 0; Rep != 2; ++Rep) {
    Tr.Enabled = false;
    std::int64_t T0 = nowNs();
    Untraced = replay(Src);
    OffMs.push_back((nowNs() - T0) / 1e6);
    Tr.Spans.clear();
    Tr.Enabled = true;
    T0 = nowNs();
    T = replay(Src);
    OnMs.push_back((nowNs() - T0) / 1e6);
    Tr.Enabled = false;
    if (Rep == 0)
      Tr.Spans.clear();
  }
  R.Attempted = Src.size();
  // The paper-currency counts are deterministic: a replay with spans off
  // must count exactly what the traced replay counted.
  if (Untraced.Words != T.Words || Untraced.RModSteps != T.RModSteps ||
      Untraced.GModBv != T.GModBv || Untraced.Sec4Bv != T.Sec4Bv)
    R.fail("step or word-op counts differ between two replays of the set");

  std::map<std::string, double> Total = Tr.totalMsByName();
  R.metric("frontend.compile_ms", Total["frontend.compile"], "ms");
  R.metric("frontend.mb_per_s",
           Total["frontend.compile"] > 0
               ? T.Bytes / 1e6 / (Total["frontend.compile"] / 1e3)
               : 0,
           "MB/s");
  R.metric("graph.build_ms", Total["graph.build"], "ms");
  for (const char *Phase :
       {"local", "rmod", "imodplus", "gmod", "dmod", "report"})
    R.metric(std::string("analysis.") + Phase + "_ms",
             Total[std::string("analysis.") + Phase], "ms");
  R.metric("analysis.rmod_steps_per_nbeta_ebeta",
           T.NBetaEBeta > 0 ? T.RModSteps / T.NBetaEBeta : 0, "ratio");
  R.metric("analysis.gmod_bvsteps_per_e_n",
           T.EPlusN > 0 ? T.GModBv / T.EPlusN : 0, "ratio");
  R.metric("analysis.sec4_bvsteps_per_dpn_e",
           T.DpNPlusE > 0 ? T.Sec4Bv / T.DpNPlusE : 0, "ratio");
  R.metric("analysis.rmod_boolean_steps", T.RModSteps, "count");
  R.metric("analysis.gmod_bvsteps", T.GModBv, "count");
  R.metric("analysis.sec4_bvsteps", T.Sec4Bv, "count");
  for (const auto &[Phase, Words] : T.Words)
    R.metric("support.word_ops." + Phase, Words, "count");
  double Off = median(OffMs), On = median(OnMs);
  R.metric("observe.trace_overhead_pct", Off > 0 ? (On - Off) / Off * 100 : 0,
           "%");
}

} // namespace

void runCompile(const Config &C, Result &R) {
  if (C.Trace)
    traced(C, R);
  else
    untraced(C, R);
}

} // namespace ipsebench
