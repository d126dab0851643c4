//===- demand/DemandSession.h - Demand-driven MOD/USE queries ---*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The demand-driven analysis engine: load a Program, then answer GMOD /
/// RMOD / MOD(s) queries for *individual* procedures or call sites by
/// solving only the region of the call/binding graphs the query actually
/// depends on — instead of the whole-program fixed point every batch engine
/// (and the incremental session's first flush) pays for.
///
/// The dependency structure of the Cooper–Kennedy pipeline is what makes
/// the region well-defined.  GMOD(p) (equation 4) reads the GMOD of p's
/// callees; IMOD+(p) (equation 5) reads p's nesting-extended IMOD and the
/// RMOD bits of its callees' formals; and RMOD(fp_i^p) (Figure 1) reads the
/// RMOD bits of fp_i^p's β successors — formals of procedures invoked from
/// p's *nested extended body* (a call site lexically inside p may pass p's
/// formal onward, §3.3).  A query's region is therefore the closure of the
/// queried procedures under two successor relations:
///
///   - call edges:  p → q for every call site in p invoking q, and
///   - β-owner edges:  p → owner(g) for every β edge fp_i^p → g.
///
/// The walk cuts at procedures whose results are already memoized
/// ("Solved"): their final GMOD sets and RMOD bits are *frontier
/// summaries* — exact constants folded into the region's equations, the
/// same way the batch sweep folds finished components into later ones.
/// Because the region is dependency-closed and the cut values are final
/// least-fixed-point values, the region-restricted solve reproduces the
/// global least fixed point on the region bit-for-bit (see DESIGN.md
/// "Demand-driven queries" for the argument); answers are byte-identical
/// to a fresh batch solve, which the differential suites assert.
///
/// Memoization is a per-procedure, per-kind Solved bit with the invariant
/// that a Solved procedure's dependency successors are all Solved.  Edits
/// invalidate through the same delta taxonomy as the incremental session:
///
///   1. Effect-set deltas recompute IMOD along the lexical chain; if a
///      still-Solved procedure's formal bits are unchanged and its new
///      IMOD+ is absorbed by its memoized GMOD (the session's
///      monotone-growth prune), it *stays* Solved — otherwise the
///      reverse-dependency closure above it is un-solved.
///   2. Call-site deltas rebuild β and the dependency adjacency (linear
///      integer work) and un-solve the reverse closure of the touched
///      caller and its lexical ancestors (whose formals the new/removed
///      binding edges may originate from).
///   3. Universe deltas reset all memoized state — which, unlike a batch
///      engine's rebuild, costs no fixed-point work at all: the next query
///      re-solves only its own region.
///
/// Per-procedure planes (IMOD, IMOD+, GMOD, LOCAL masks) are allocated
/// lazily, so resident memory is proportional to the solved region — a
/// 100k-procedure program costs a few shared V-bit vectors until someone
/// asks about it.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_DEMAND_DEMANDSESSION_H
#define IPSE_DEMAND_DEMANDSESSION_H

#include "analysis/EffectKind.h"
#include "analysis/GMod.h"
#include "graph/BindingGraph.h"
#include "incremental/AnalysisSession.h"
#include "incremental/Edit.h"
#include "ir/AliasInfo.h"
#include "ir/Program.h"
#include "support/EffectSet.h"

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ipse {
namespace demand {

/// Session configuration.
struct DemandOptions {
  /// Maintain the USE pipeline alongside MOD.
  bool TrackUse = true;
};

/// Counters describing how queries were serviced — the demand story made
/// observable (tests assert regions stay small and memo hits actually hit).
struct DemandStats {
  std::uint64_t EditsApplied = 0;
  /// ensureSolved() entries (every query funnels through one).
  std::uint64_t Queries = 0;
  /// Queries that had to solve a non-empty region.
  std::uint64_t RegionSolves = 0;
  /// Total procedures solved across all region solves.
  std::uint64_t RegionProcs = 0;
  /// Queried procedures already covered by memoized planes.
  std::uint64_t MemoHits = 0;
  /// Region-DFS edges not descended because the callee was already
  /// Solved — the memo frontier actually cutting the region short.
  std::uint64_t FrontierCuts = 0;
  /// Memoized procedures un-solved by edit invalidation.
  std::uint64_t Invalidations = 0;
  /// Effect deltas absorbed by the monotone-growth prune (proc kept
  /// Solved).
  std::uint64_t AbsorbedEdits = 0;
  /// Universe resets (structure rebuilt, all memo dropped — no solve).
  std::uint64_t FullResets = 0;
};

/// A long-lived demand-driven analysis over one evolving program.
///
/// Query methods first apply pending invalidation, then solve exactly the
/// uncovered region the query depends on.  Returned references stay valid
/// until the next edit.
class DemandSession {
public:
  explicit DemandSession(ir::Program Initial,
                         DemandOptions Options = DemandOptions());

  /// Warm-restart constructor: installs previously exported planes (from
  /// this class or incremental::AnalysisSession::exportPlanes() over an
  /// identical program) as fully-memoized state; every procedure starts
  /// Solved and the first query after any replayed edits re-solves only
  /// the invalidated region.
  DemandSession(ir::Program Initial, DemandOptions Options,
                incremental::SessionPlanes Planes);

  const ir::Program &program() const { return P; }
  std::uint64_t generation() const { return Generation; }
  const DemandStats &stats() const { return Stats; }
  const DemandOptions &options() const { return Opts; }

  /// \name Deltas (mirror incremental::AnalysisSession)
  /// Each applies the program edit, records invalidation dirt, and returns
  /// immediately; un-solving runs at the next query.
  /// @{
  void addMod(ir::StmtId S, ir::VarId V);
  bool removeMod(ir::StmtId S, ir::VarId V);
  void addUse(ir::StmtId S, ir::VarId V);
  bool removeUse(ir::StmtId S, ir::VarId V);

  ir::StmtId addStmt(ir::ProcId Parent);
  ir::CallSiteId addCall(ir::StmtId S, ir::ProcId Callee,
                         std::vector<ir::Actual> Actuals);
  ir::CallSiteId removeCall(ir::CallSiteId C);

  ir::ProcId addProc(std::string_view Name, ir::ProcId Parent);
  ir::VarId addGlobal(std::string_view Name);
  ir::VarId addLocal(ir::ProcId Owner, std::string_view Name);
  ir::VarId addFormal(ir::ProcId Owner, std::string_view Name);
  void removeProc(ir::ProcId Target);
  /// @}

  /// Solves (at most) the region the listed procedures depend on; after it
  /// returns every listed procedure is covered for \p Kind.
  void ensureSolved(std::span<const ir::ProcId> Procs,
                    analysis::EffectKind Kind);

  /// Covers every procedure for every tracked kind — what exportPlanes()
  /// and whole-program consumers (gmodResult) call.  Equivalent to one
  /// batch solve the first time; a no-op when already covered.
  void ensureSolvedAll();

  /// True iff \p Proc's results are memoized (pending edits considered).
  bool covered(ir::ProcId Proc, analysis::EffectKind Kind);

  /// Number of covered procedures for \p Kind (pending edits considered).
  std::size_t coveredCount(analysis::EffectKind Kind);

  /// \name Queries (mirror AnalysisSession; solve their region on demand)
  /// @{
  const EffectSet &gmod(ir::ProcId Proc);
  const EffectSet &guse(ir::ProcId Proc);
  const EffectSet &gmod(ir::ProcId Proc, analysis::EffectKind Kind);
  const EffectSet &imodPlus(ir::ProcId Proc, analysis::EffectKind Kind);
  const EffectSet &imod(ir::ProcId Proc, analysis::EffectKind Kind);
  bool rmodContains(ir::VarId Formal);
  bool rmodContains(ir::VarId Formal, analysis::EffectKind Kind);

  EffectSet dmod(ir::StmtId S);
  EffectSet duse(ir::StmtId S);
  EffectSet dmod(ir::CallSiteId C);
  EffectSet dmod(ir::CallSiteId C, analysis::EffectKind Kind);
  EffectSet mod(ir::StmtId S, const ir::AliasInfo &Aliases);
  EffectSet use(ir::StmtId S, const ir::AliasInfo &Aliases);
  /// @}


  /// \name Whole-program export hooks
  /// These cover everything first (ensureSolvedAll), so they cost a full
  /// solve on first use — they exist for differential testing and for the
  /// persistence layer, not for the demand fast path.
  /// @{
  const analysis::GModResult &gmodResult(analysis::EffectKind Kind);
  const EffectSet &rmodBits(analysis::EffectKind Kind);
  incremental::SessionPlanes exportPlanes();
  /// @}

  /// \name Partial-plane peeks
  /// Flush pending invalidation but solve nothing: the planes as they are,
  /// with un-Solved entries holding stale/empty bits.  Callers must gate
  /// every read through the coverage flags (service::AnalysisSnapshot::
  /// capturePartial does).
  /// @{
  const analysis::GModResult &peekGModResult(analysis::EffectKind Kind);
  const EffectSet &peekRModBits(analysis::EffectKind Kind);
  std::vector<char> coveredFlags(analysis::EffectKind Kind);
  /// @}

private:
  /// Resident per-effect-kind pipeline state.  Per-procedure vectors hold
  /// empty EffectSets until the procedure is touched (Ready) or solved.
  struct KindState {
    analysis::EffectKind Kind = analysis::EffectKind::Mod;
    /// Own/Ext IMOD; valid iff Ready[p].
    std::vector<EffectSet> Own, Ext;
    /// Per-var β-input bits; bit of formal f valid iff Ready[owner(f)].
    EffectSet FormalBits;
    /// Per-var Figure-1 RMOD outputs; bit of f valid iff Solved[owner(f)].
    EffectSet RModBits;
    /// IMOD+ / GMOD planes; entries valid iff Solved[p].
    std::vector<EffectSet> IModPlus;
    analysis::GModResult GMod;
    /// Local effects computed and FormalBits synced for p (and, by
    /// construction, for p's lexical descendants).
    std::vector<char> Ready;
    /// All planes of p final; implies every dependency successor Solved.
    std::vector<char> Solved;
  };

  KindState &state(analysis::EffectKind Kind);

  // Edit bookkeeping.
  void bump();
  void markEffectDirty(analysis::EffectKind Kind, ir::ProcId Proc);
  void markCallDirty(ir::ProcId Caller);
  void markUniverseDirty();

  // Structure (linear integer work, no fixed points).
  void rebuildVarStructure();
  void rebuildBindingStructure();
  const EffectSet &localMask(ir::ProcId Proc);
  void initKindStates();
  void fullReset();

  // Invalidation.
  void flushDirt();
  void unsolveClosure(KindState &K, std::uint32_t Root);
  void makeEffectReady(KindState &K, std::uint32_t Proc);
  void applyEffectDelta(KindState &K, const std::vector<std::uint32_t> &Dirty);

  // Region solving.
  void solveRegion(KindState &K, std::span<const ir::ProcId> Procs);
  void solveRegionRMod(KindState &K,
                       const std::vector<std::uint32_t> &Region);
  void solveRegionGMod(KindState &K,
                       const std::vector<std::uint32_t> &Region);
  EffectSet projectSite(KindState &K, ir::CallSiteId Site);
  EffectSet effectOfStmt(analysis::EffectKind Kind, ir::StmtId S,
                         const ir::AliasInfo *Aliases);

  ir::Program P;
  DemandOptions Opts;
  DemandStats Stats;
  std::uint64_t Generation = 0;
  std::uint64_t CleanGeneration = 0;

  // Resident shared structure.
  std::unique_ptr<graph::BindingGraph> BG;
  /// Below[L]: variables declared at levels < L (the §4 edge filter).
  std::vector<EffectSet> Below;
  EffectSet EmptyVars;
  /// LOCAL(p) masks, built lazily per procedure.
  std::vector<EffectSet> LocalMasks;
  std::vector<char> LocalMaskReady;
  /// Forward/reverse dependency adjacency: call edges plus β-owner edges
  /// (parallel entries kept; closures walk with a visited set).
  std::vector<std::vector<std::uint32_t>> FwdDep;
  std::vector<std::vector<std::uint32_t>> RevDep;
  std::vector<KindState> States;

  // Dirty state, consumed by flushDirt().
  bool UniverseDirty = false;
  bool CallStructureDirty = false;
  std::vector<std::uint32_t> DirtyEffectProcs[2]; ///< Indexed by kind.
  std::vector<char> DirtyEffectFlag[2];
  std::vector<std::uint32_t> CallDirtyProcs;
  std::vector<char> CallDirtyFlag;

  // Epoch-stamped scratch so per-query work is O(region), not O(program).
  std::uint32_t Epoch = 0;
  std::vector<std::uint32_t> ProcStamp, ProcSlot;
  std::vector<std::uint32_t> NodeStamp, NodeSlot;
  void nextEpoch();
  bool stamped(const std::vector<std::uint32_t> &S, std::uint32_t I) const {
    return I < S.size() && S[I] == Epoch;
  }
};

/// Applies \p E to \p Session — the same dispatch incremental::applyEdit
/// performs for AnalysisSession, so Edit streams (WAL replay, EditGen)
/// drive either engine.
void applyEdit(DemandSession &Session, const incremental::Edit &E);

} // namespace demand
} // namespace ipse

#endif // IPSE_DEMAND_DEMANDSESSION_H
