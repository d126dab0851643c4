//===- parallel/ParallelAnalyzer.h - Parallel batch pipeline ----*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel batch engine: a drop-in alternative to
/// analysis::SideEffectAnalyzer that runs the same pipeline —
///
///   LMOD/IMOD  →  β + RMOD  →  IMOD+  →  GMOD  →  DMOD/MOD queries
///
/// — with the RMOD, IMOD+, and GMOD passes level-scheduled over a fixed
/// thread pool (parallel/ParallelSolvers.h).  Results are bit-for-bit
/// identical to the sequential analyzer at every thread count; Threads = 1
/// runs the same kernels inline with no threads or locks at all.
///
/// The query surface mirrors SideEffectAnalyzer so tests, the report
/// writer, and the CLI can swap engines behind one variable.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_PARALLEL_PARALLELANALYZER_H
#define IPSE_PARALLEL_PARALLELANALYZER_H

#include "analysis/DMod.h"
#include "analysis/EffectKind.h"
#include "analysis/GMod.h"
#include "analysis/LocalEffects.h"
#include "analysis/RMod.h"
#include "analysis/VarMasks.h"
#include "graph/BindingGraph.h"
#include "graph/CallGraph.h"
#include "ir/AliasInfo.h"
#include "ir/Program.h"
#include "observe/Trace.h"
#include "parallel/ParallelSolvers.h"
#include "parallel/ThreadPool.h"

#include <memory>
#include <string>
#include <vector>

namespace ipse {
namespace parallel {

struct ParallelAnalyzerOptions {
  analysis::EffectKind Kind = analysis::EffectKind::Mod;
  /// Executing lanes (clamped to >= 1); 1 = inline, sequential kernels.
  unsigned Threads = 1;
  /// Programs with fewer procedures than this run with one lane no matter
  /// what Threads says: on every benchmarked shape up to a few thousand
  /// procedures the pool fan-out costs more than the kernels it spreads,
  /// so K > 1 is pure overhead there (see BENCH_ipse.json, bench_parallel
  /// rows).  Results are bit-identical at any lane count, so the clamp is
  /// answer-invisible.  0 disables it (benchmarks measuring raw K do this).
  /// Only the owned-pool constructor consults it; a lent pool's width is
  /// the caller's decision.
  unsigned SmallProgramThreshold = 4096;

  /// Per-level fan-out policy (the adaptive-K half of the scheduler; the
  /// SmallProgramThreshold clamp above is the whole-program half).  The
  /// default probes the host once: a level only fans out when the machine
  /// can actually run lanes side by side and the level's width x universe
  /// words clears the handoff cost.  Tests that need pool traffic on
  /// every level set Schedule.AdaptiveFanout = false.
  ScheduleOptions Schedule = defaultSchedule();

  /// The lane count the owned-pool constructor will actually use for a
  /// program of \p NumProcs procedures.
  unsigned effectiveThreads(std::size_t NumProcs) const {
    if (SmallProgramThreshold != 0 && NumProcs < SmallProgramThreshold)
      return 1;
    return Threads < 1 ? 1 : Threads;
  }

  /// ScheduleOptions with HardwareLanes filled from the host.
  static ScheduleOptions defaultSchedule() {
    ScheduleOptions S;
    S.HardwareLanes = std::thread::hardware_concurrency();
    return S;
  }
};

/// Runs the pipeline at construction; every query afterwards is cheap.
/// The analyzed Program must outlive the analyzer.
class ParallelAnalyzer {
public:
  /// Owns a private pool of Options.Threads lanes.
  explicit ParallelAnalyzer(const ir::Program &P,
                            ParallelAnalyzerOptions Options = {});

  /// Shares \p Pool (e.g. the report writer building MOD and USE from one
  /// pool).  Options.Threads is ignored; the pool decides.
  ParallelAnalyzer(const ir::Program &P, ParallelAnalyzerOptions Options,
                   ThreadPool &Pool);

  const ir::Program &program() const { return P; }
  analysis::EffectKind kind() const { return Options.Kind; }
  unsigned threads() const { return Pool.threads(); }

  /// Schedule shape of the GMOD solve (for benchmarks).
  const GModScheduleStats &scheduleStats() const { return Stats; }

  /// GMOD(p) (or GUSE(p)).
  const EffectSet &gmod(ir::ProcId Proc) const { return GMod.of(Proc); }

  /// True iff formal \p F is in RMOD of its owner.
  bool rmodContains(ir::VarId F) const { return RMod.contains(F); }

  /// IMOD+(p) (equation 5).
  const EffectSet &imodPlus(ir::ProcId Proc) const {
    return IModPlus[Proc.index()];
  }

  /// The nesting-extended IMOD(p).
  const EffectSet &imod(ir::ProcId Proc) const {
    return Local->extended(Proc);
  }

  /// DMOD(s) (equation 2).
  EffectSet dmod(ir::StmtId S) const {
    return analysis::dmodOfStmt(P, Masks, GMod, S);
  }

  /// be(GMOD(q)) for one call site.
  EffectSet dmod(ir::CallSiteId C) const {
    return analysis::projectCallSite(P, Masks, GMod, C);
  }

  /// MOD(s) under the given alias pairs (§5).
  EffectSet mod(ir::StmtId S, const ir::AliasInfo &Aliases) const {
    return analysis::modOfStmt(P, Masks, GMod, Aliases, S);
  }


  /// Shared building blocks, exposed for tests and benchmarks.
  const analysis::VarMasks &masks() const { return Masks; }
  const graph::CallGraph &callGraph() const { return CG; }
  const graph::BindingGraph &bindingGraph() const { return BG; }
  const analysis::GModResult &gmodResult() const { return GMod; }
  const analysis::RModResult &rmodResult() const { return RMod; }

private:
  void run();

  const ir::Program &P;
  ParallelAnalyzerOptions Options;
  // Declared before the graphs so the "graphs" span covers their
  // member-initializer construction; closed at the top of run().
  observe::ManualSpan GraphsSpan{"graphs"};
  analysis::VarMasks Masks;
  graph::CallGraph CG;
  graph::BindingGraph BG;
  std::unique_ptr<ThreadPool> OwnedPool; ///< Present unless a pool was lent.
  ThreadPool &Pool;
  std::unique_ptr<analysis::LocalEffects> Local;
  analysis::RModResult RMod;
  std::vector<EffectSet> IModPlus;
  analysis::GModResult GMod;
  GModScheduleStats Stats;
};

} // namespace parallel
} // namespace ipse

#endif // IPSE_PARALLEL_PARALLELANALYZER_H
