//===- analysis/Report.h - Human-readable analysis reports ------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders the results of the side-effect pipeline as a stable text report
/// — per-procedure GMOD/GUSE and per-call-site DMOD/DUSE — the format an
/// optimizing compiler's diagnostics would show and the golden corpus
/// tests pin down.
///
/// The rendering itself (renderReport) is a template over any pair of
/// engines exposing the SideEffectAnalyzer query surface, so the batch
/// analyzer and the incremental session produce the report through the
/// same code path — byte-identical by construction, which is what the
/// facade's cross-engine differential tests rely on.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_ANALYSIS_REPORT_H
#define IPSE_ANALYSIS_REPORT_H

#include "analysis/EffectKind.h"
#include "ir/Printer.h"
#include "ir/Program.h"
#include "observe/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ipse {
namespace analysis {

/// What the report should include.
struct ReportOptions {
  bool IncludeUse = true;      ///< Also run and print the USE problem.
  bool IncludeCallSites = true; ///< Per-call-site DMOD/DUSE lines.
  bool IncludeRMod = false;     ///< Per-formal RMOD/RUSE lines.
};

/// One effect kind of a session engine (incremental::AnalysisSession or
/// demand::DemandSession, whose queries take the kind as an argument),
/// presented through the batch analyzers' per-kind query surface so
/// renderReport treats every engine alike.
template <class Session> class KindView {
public:
  KindView(Session &S, EffectKind Kind) : S(S), Kind(Kind) {}
  const EffectSet &gmod(ir::ProcId Proc) const { return S.gmod(Proc, Kind); }
  bool rmodContains(ir::VarId F) const { return S.rmodContains(F, Kind); }
  EffectSet dmod(ir::CallSiteId C) const { return S.dmod(C, Kind); }

private:
  Session &S;
  EffectKind Kind;
};

/// Appends procedure \p Proc's report lines (name, GMOD, GUSE and the
/// optional RMOD/RUSE lines) to \p Out.  \p Ranks is scratch for
/// VarNameOrder::appendSet.
template <class ModEngine, class UseEngine>
void renderProc(std::string &Out, const ir::Program &P,
                const ir::VarNameOrder &Order, ReportOptions Options,
                const ModEngine &Mod, const UseEngine *Use, ir::ProcId Proc,
                std::vector<std::uint32_t> &Ranks) {
  Out += "  ";
  Out += P.name(Proc);
  Out += ":\n    GMOD = { ";
  Order.appendSet(Out, Mod.gmod(Proc), Ranks);
  Out += " }\n";
  if (Options.IncludeUse) {
    Out += "    GUSE = { ";
    Order.appendSet(Out, Use->gmod(Proc), Ranks);
    Out += " }\n";
  }
  if (Options.IncludeRMod) {
    for (ir::VarId F : P.proc(Proc).Formals) {
      Out += "    ";
      Out += P.name(F);
      Out += Mod.rmodContains(F) ? ": RMOD" : ": -";
      if (Options.IncludeUse)
        Out += Use->rmodContains(F) ? " RUSE" : " -";
      Out += "\n";
    }
  }
}

/// Appends call site \p Site's report lines (endpoints, DMOD, DUSE) to
/// \p Out.
template <class ModEngine, class UseEngine>
void renderCallSite(std::string &Out, const ir::Program &P,
                    const ir::VarNameOrder &Order, ReportOptions Options,
                    const ModEngine &Mod, const UseEngine *Use,
                    ir::CallSiteId Site, std::vector<std::uint32_t> &Ranks) {
  const ir::CallSite &C = P.callSite(Site);
  Out += "  s";
  Out += std::to_string(Site.index());
  Out += ": ";
  Out += P.name(C.Caller);
  Out += " -> ";
  Out += P.name(C.Callee);
  Out += ":\n    DMOD = { ";
  Order.appendSet(Out, Mod.dmod(Site), Ranks);
  Out += " }\n";
  if (Options.IncludeUse) {
    Out += "    DUSE = { ";
    Order.appendSet(Out, Use->dmod(Site), Ranks);
    Out += " }\n";
  }
}

/// Renders the report from finished engines.  \p Mod answers the MOD
/// problem; \p Use (may be null iff !Options.IncludeUse) answers USE.
/// Engines need gmod(ProcId), rmodContains(VarId) and dmod(CallSiteId).
/// Deterministic: procedures in id order, sets sorted by qualified name.
/// Names are ranked once per report (ir::VarNameOrder), so each set costs
/// an integer sort of its members.
template <class ModEngine, class UseEngine>
std::string renderReport(const ir::Program &P, ReportOptions Options,
                         const ModEngine &Mod, const UseEngine *Use) {
  observe::TraceSpan Span("render");
  const ir::VarNameOrder Order(P);
  std::vector<std::uint32_t> Ranks;
  std::string Out = "procedures:\n";
  for (std::uint32_t I = 0; I != P.numProcs(); ++I)
    renderProc(Out, P, Order, Options, Mod, Use, ir::ProcId(I), Ranks);
  if (Options.IncludeCallSites) {
    Out += "call sites:\n";
    for (std::uint32_t I = 0; I != P.numCallSites(); ++I)
      renderCallSite(Out, P, Order, Options, Mod, Use, ir::CallSiteId(I),
                     Ranks);
  }
  return Out;
}

/// Runs the pipeline(s) on \p P and renders the report via renderReport.
std::string makeReport(const ir::Program &P,
                       ReportOptions Options = ReportOptions());

} // namespace analysis
} // namespace ipse

#endif // IPSE_ANALYSIS_REPORT_H
