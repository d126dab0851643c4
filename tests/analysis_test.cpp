//===- tests/analysis_test.cpp - Hand-computed pipeline expectations ----------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "analysis/AliasEstimator.h"
#include "analysis/Report.h"
#include "analysis/DMod.h"
#include "analysis/GMod.h"
#include "analysis/IModPlus.h"
#include "analysis/LocalEffects.h"
#include "analysis/RMod.h"
#include "analysis/SideEffectAnalyzer.h"
#include "analysis/VarMasks.h"
#include "api/Ipse.h"
#include "graph/BindingGraph.h"
#include "graph/Reachability.h"
#include "graph/CallGraph.h"
#include "ir/Printer.h"
#include "ir/ProgramBuilder.h"
#include "synth/ProgramGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

using namespace ipse;
using namespace ipse::analysis;
using namespace ipse::ir;

namespace {

/// Set-of-vars matcher helper.
EffectSet makeSet(std::size_t Universe, std::initializer_list<VarId> Vars) {
  EffectSet BV(Universe);
  for (VarId V : Vars)
    BV.set(V.index());
  return BV;
}

/// The running example from the header comment of ir_test.cpp:
///
///   program main; var g, h;
///     proc q(c);       begin c := g; end;
///     proc p(a, b); var x;
///       begin x := a; call q(b); h := 2; end;
///   begin call p(g, h); write g; end.
struct Example {
  Program P;
  ProcId Main, PProc, QProc;
  VarId G, H, A, Bv, X, C;
  StmtId MainCallStmt;
  CallSiteId CallQ, CallP;

  Example() {
    ProgramBuilder B;
    Main = B.createMain("main");
    G = B.addGlobal("g");
    H = B.addGlobal("h");
    QProc = B.createProc("q", Main);
    C = B.addFormal(QProc, "c");
    StmtId QS = B.addStmt(QProc);
    B.addMod(QS, C);
    B.addUse(QS, G);
    PProc = B.createProc("p", Main);
    A = B.addFormal(PProc, "a");
    Bv = B.addFormal(PProc, "b");
    X = B.addLocal(PProc, "x");
    StmtId PS1 = B.addStmt(PProc);
    B.addMod(PS1, X);
    B.addUse(PS1, A);
    CallQ = B.addCallStmt(PProc, QProc, {Bv});
    StmtId PS3 = B.addStmt(PProc);
    B.addMod(PS3, H);
    MainCallStmt = B.addStmt(Main);
    CallP = B.addCall(MainCallStmt, PProc, std::vector<VarId>{G, H});
    StmtId MS = B.addStmt(Main);
    B.addUse(MS, G);
    P = B.finish();
  }
};

TEST(VarMasks, LocalAndGlobalMasks) {
  Example E;
  VarMasks M(E.P);
  EXPECT_TRUE(M.local(E.PProc).test(E.X.index()));
  EXPECT_TRUE(M.local(E.PProc).test(E.A.index()));
  EXPECT_FALSE(M.local(E.PProc).test(E.G.index()));
  EXPECT_TRUE(M.global().test(E.G.index()));
  EXPECT_TRUE(M.global().test(E.H.index()));
  EXPECT_FALSE(M.global().test(E.X.index()));
  // Main's LOCAL is the globals.
  EXPECT_EQ(M.local(E.Main), M.global());
  // Level masks partition the variables.
  EXPECT_EQ(M.level(0), M.global());
  EXPECT_TRUE(M.level(1).test(E.C.index()));
}

TEST(LocalEffects, ModSets) {
  Example E;
  VarMasks M(E.P);
  LocalEffects L(E.P, M, EffectKind::Mod);
  EXPECT_EQ(L.own(E.QProc), makeSet(E.P.numVars(), {E.C}));
  EXPECT_EQ(L.own(E.PProc), makeSet(E.P.numVars(), {E.X, E.H}));
  EXPECT_EQ(L.own(E.Main), makeSet(E.P.numVars(), {}));
  // No nesting here: extended == own.
  EXPECT_EQ(L.extended(E.PProc), L.own(E.PProc));
  EXPECT_TRUE(L.formalBit(E.P, E.C));
  EXPECT_FALSE(L.formalBit(E.P, E.A));
  EXPECT_FALSE(L.formalBit(E.P, E.Bv));
}

TEST(LocalEffects, UseSets) {
  Example E;
  VarMasks M(E.P);
  LocalEffects L(E.P, M, EffectKind::Use);
  EXPECT_EQ(L.own(E.QProc), makeSet(E.P.numVars(), {E.G}));
  EXPECT_EQ(L.own(E.PProc), makeSet(E.P.numVars(), {E.A}));
  EXPECT_EQ(L.own(E.Main), makeSet(E.P.numVars(), {E.G}));
}

TEST(LocalEffects, NestingExtension) {
  // main { outer(ov) { inner { mod ov; mod g; mod il } } }
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  VarId G = B.addGlobal("g");
  ProcId Outer = B.createProc("outer", Main);
  VarId OV = B.addLocal(Outer, "ov");
  ProcId Inner = B.createProc("inner", Outer);
  VarId IL = B.addLocal(Inner, "il");
  StmtId S = B.addStmt(Inner);
  B.addMod(S, OV);
  B.addMod(S, G);
  B.addMod(S, IL);
  B.addCallStmt(Outer, Inner, {});
  B.addCallStmt(Main, Outer, {});
  Program P = B.finish();

  VarMasks M(P);
  LocalEffects L(P, M, EffectKind::Mod);
  // Own sets: only inner modifies anything directly.
  EXPECT_EQ(L.own(Outer), makeSet(P.numVars(), {}));
  // Extended: inner's effects minus inner's locals fold into outer...
  EXPECT_EQ(L.extended(Inner), makeSet(P.numVars(), {OV, G, IL}));
  EXPECT_EQ(L.extended(Outer), makeSet(P.numVars(), {OV, G}));
  // ...and outer's (minus outer's locals) into main.
  EXPECT_EQ(L.extended(Main), makeSet(P.numVars(), {G}));
}

TEST(RMod, RunningExample) {
  Example E;
  VarMasks M(E.P);
  LocalEffects L(E.P, M, EffectKind::Mod);
  graph::BindingGraph BG(E.P);
  RModResult R = solveRMod(E.P, BG, L);
  EXPECT_TRUE(R.contains(E.C));  // q modifies c directly.
  EXPECT_TRUE(R.contains(E.Bv)); // b is bound to c at the call in p.
  EXPECT_FALSE(R.contains(E.A)); // a is only read.
}

TEST(RMod, ChainPropagatesToTheTop) {
  Program P = synth::makeChainProgram(20, 3);
  VarMasks M(P);
  LocalEffects L(P, M, EffectKind::Mod);
  graph::BindingGraph BG(P);
  RModResult R = solveRMod(P, BG, L);
  // Formal 0 of every chain procedure is eventually modified; formal 1
  // never is.
  for (std::uint32_t I = 1; I != P.numProcs(); ++I) {
    const Procedure &Pr = P.proc(ProcId(I));
    EXPECT_TRUE(R.contains(Pr.Formals[0])) << P.name(ProcId(I));
    EXPECT_FALSE(R.contains(Pr.Formals[1])) << P.name(ProcId(I));
  }
}

TEST(RMod, CycleGivesWholeComponentTheSameValue) {
  Program P = synth::makeCycleProgram(10, 2);
  VarMasks M(P);
  LocalEffects L(P, M, EffectKind::Mod);
  graph::BindingGraph BG(P);
  RModResult R = solveRMod(P, BG, L);
  for (std::uint32_t I = 1; I != P.numProcs(); ++I)
    EXPECT_TRUE(R.contains(P.proc(ProcId(I)).Formals[0]));
}

TEST(RMod, FormalWithoutBindingEventsUsesOwnBit) {
  // p(a): a := 1.  No call passes a anywhere: no β node, RMOD from IMOD.
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  VarId G = B.addGlobal("g");
  ProcId PProc = B.createProc("p", Main);
  VarId A = B.addFormal(PProc, "a");
  VarId A2 = B.addFormal(PProc, "a2");
  StmtId S = B.addStmt(PProc);
  B.addMod(S, A);
  B.addCallStmt(Main, PProc, {G, G});
  Program P = B.finish();

  graph::BindingGraph BG(P);
  EXPECT_EQ(BG.numNodes(), 0u);
  VarMasks M(P);
  LocalEffects L(P, M, EffectKind::Mod);
  RModResult R = solveRMod(P, BG, L);
  EXPECT_TRUE(R.contains(A));
  EXPECT_FALSE(R.contains(A2));
}

TEST(IModPlus, ProjectsRModThroughActuals) {
  Example E;
  VarMasks M(E.P);
  LocalEffects L(E.P, M, EffectKind::Mod);
  graph::BindingGraph BG(E.P);
  RModResult R = solveRMod(E.P, BG, L);
  std::vector<EffectSet> Plus = computeIModPlus(E.P, L, R);

  // IMOD+(p) = IMOD(p) ∪ {b}  (b passed to q's modified formal c).
  EXPECT_EQ(Plus[E.PProc.index()],
            makeSet(E.P.numVars(), {E.X, E.H, E.Bv}));
  // IMOD+(main) = {} ∪ {h}  (h bound to b ∈ RMOD(p); g bound to a ∉ RMOD).
  EXPECT_EQ(Plus[E.Main.index()], makeSet(E.P.numVars(), {E.H}));
  // q makes no calls.
  EXPECT_EQ(Plus[E.QProc.index()], makeSet(E.P.numVars(), {E.C}));
}

TEST(GMod, RunningExample) {
  Example E;
  VarMasks M(E.P);
  LocalEffects L(E.P, M, EffectKind::Mod);
  graph::BindingGraph BG(E.P);
  graph::CallGraph CG(E.P);
  RModResult R = solveRMod(E.P, BG, L);
  std::vector<EffectSet> Plus = computeIModPlus(E.P, L, R);
  GModResult GM = solveGMod(E.P, CG, M, Plus);

  EXPECT_EQ(GM.of(E.QProc), makeSet(E.P.numVars(), {E.C}));
  EXPECT_EQ(GM.of(E.PProc), makeSet(E.P.numVars(), {E.X, E.H, E.Bv}));
  EXPECT_EQ(GM.of(E.Main), makeSet(E.P.numVars(), {E.H}));
}

TEST(GMod, GlobalsFlowUpThroughCallChains) {
  // main -> a -> b -> c; only c modifies global g.
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  VarId G = B.addGlobal("g");
  ProcId A = B.createProc("a", Main);
  ProcId Bp = B.createProc("b", Main);
  ProcId Cp = B.createProc("c", Main);
  VarId BLocal = B.addLocal(Bp, "bl");
  StmtId SB = B.addStmt(Bp);
  B.addMod(SB, BLocal);
  StmtId SC = B.addStmt(Cp);
  B.addMod(SC, G);
  B.addCallStmt(Main, A, {});
  B.addCallStmt(A, Bp, {});
  B.addCallStmt(Bp, Cp, {});
  Program P = B.finish();

  SideEffectAnalyzer An(P);
  EXPECT_TRUE(An.gmod(Main).test(G.index()));
  EXPECT_TRUE(An.gmod(A).test(G.index()));
  EXPECT_TRUE(An.gmod(Bp).test(G.index()));
  // b's local is filtered before reaching a.
  EXPECT_TRUE(An.gmod(Bp).test(BLocal.index()));
  EXPECT_FALSE(An.gmod(A).test(BLocal.index()));
}

TEST(GMod, RecursiveCycleSharesGlobals) {
  // mutual recursion: a <-> b; a mods g1, b mods g2.
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  VarId G1 = B.addGlobal("g1");
  VarId G2 = B.addGlobal("g2");
  ProcId A = B.createProc("a", Main);
  ProcId Bp = B.createProc("b", Main);
  StmtId SA = B.addStmt(A);
  B.addMod(SA, G1);
  StmtId SB = B.addStmt(Bp);
  B.addMod(SB, G2);
  B.addCallStmt(A, Bp, {});
  B.addCallStmt(Bp, A, {});
  B.addCallStmt(Main, A, {});
  Program P = B.finish();

  SideEffectAnalyzer An(P);
  for (ProcId Proc : {A, Bp}) {
    EXPECT_TRUE(An.gmod(Proc).test(G1.index()));
    EXPECT_TRUE(An.gmod(Proc).test(G2.index()));
  }
  EXPECT_TRUE(An.gmod(Main).test(G1.index()));
  EXPECT_TRUE(An.gmod(Main).test(G2.index()));
}

TEST(GMod, UnreachableNestedProcFoldsIntoParent) {
  // §3.3 treats nested bodies as extensions of the parent's body, which is
  // exact only when every procedure is reachable — the paper prescribes
  // unreachable-procedure elimination as a preprocessing step.  Without
  // it, the unreachable nested procedure's effects conservatively fold
  // into the (lexical) parent's IMOD.
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  VarId G = B.addGlobal("g");
  ProcId Dead = B.createProc("dead", Main);
  StmtId S = B.addStmt(Dead);
  B.addMod(S, G);
  B.addStmt(Main);
  Program P = B.finish();

  SideEffectAnalyzer An(P);
  EXPECT_TRUE(An.gmod(Dead).test(G.index()));
  EXPECT_TRUE(An.gmod(Main).test(G.index())); // Folded per §3.3.

  // After the paper's prescribed preprocessing the imprecision is gone.
  Program Clean = graph::eliminateUnreachable(P);
  SideEffectAnalyzer CleanAn(Clean);
  EXPECT_FALSE(CleanAn.gmod(Clean.main()).any());
}

TEST(DMod, ProjectionAtCallSite) {
  Example E;
  SideEffectAnalyzer An(E.P);
  // DMOD of "call p(g,h)": be(GMOD(p)) = {h} ∪ {h←b} = {h}.
  EffectSet D = An.dmod(E.CallP);
  EXPECT_EQ(D, makeSet(E.P.numVars(), {E.H}));
  // DMOD of the call statement equals it (no LMOD there).
  EXPECT_EQ(An.dmod(E.MainCallStmt), D);
  // DMOD of "call q(b)" inside p: c ∈ GMOD(q) maps to b.
  EXPECT_EQ(An.dmod(E.CallQ), makeSet(E.P.numVars(), {E.Bv}));
}

TEST(DMod, ExpressionActualsBindNothing) {
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  VarId G = B.addGlobal("g");
  (void)G;
  ProcId Q = B.createProc("q", Main);
  VarId F = B.addFormal(Q, "f");
  StmtId S = B.addStmt(Q);
  B.addMod(S, F);
  StmtId Call = B.addStmt(Main);
  B.addCall(Call, Q, std::vector<Actual>{Actual::expression()});
  Program P = B.finish();

  SideEffectAnalyzer An(P);
  EXPECT_TRUE(An.dmod(Call).none()); // f maps to no storage.
}

TEST(Mod, AliasFactoring) {
  Example E;
  SideEffectAnalyzer An(E.P);
  AliasInfo Aliases(E.P);
  // Suppose g and h may be aliased on entry to main (artificial).
  Aliases.addPair(E.Main, E.G, E.H);
  EffectSet Mod = An.mod(E.MainCallStmt, Aliases);
  // DMOD = {h}; the alias pair pulls in g.
  EXPECT_EQ(Mod, makeSet(E.P.numVars(), {E.G, E.H}));
}

TEST(Mod, OneApplicationOnly) {
  // Pairs <a,b> and <b,c>: DMOD={a} must produce {a,b}, not {a,b,c}.
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  VarId A = B.addGlobal("a");
  VarId Bv = B.addGlobal("b");
  VarId C = B.addGlobal("c");
  StmtId S = B.addStmt(Main);
  B.addMod(S, A);
  Program P = B.finish();

  SideEffectAnalyzer An(P);
  AliasInfo Aliases(P);
  Aliases.addPair(P.main(), A, Bv);
  Aliases.addPair(P.main(), Bv, C);
  EffectSet Mod = An.mod(S, Aliases);
  EXPECT_TRUE(Mod.test(A.index()));
  EXPECT_TRUE(Mod.test(Bv.index()));
  EXPECT_FALSE(Mod.test(C.index()));
}

TEST(Use, FullPipelineOnUseKind) {
  Example E;
  AnalyzerOptions Opts;
  Opts.Kind = EffectKind::Use;
  SideEffectAnalyzer An(E.P, Opts);
  // GUSE(q) = {g};  GUSE(p) = {a, g};  GUSE(main) = {g, g←a} = {g}.
  EXPECT_EQ(An.gmod(E.QProc), makeSet(E.P.numVars(), {E.G}));
  EXPECT_EQ(An.gmod(E.PProc), makeSet(E.P.numVars(), {E.A, E.G}));
  EXPECT_EQ(An.gmod(E.Main), makeSet(E.P.numVars(), {E.G}));
  // RUSE: a is used, b and c are not.
  EXPECT_TRUE(An.rmodContains(E.A));
  EXPECT_FALSE(An.rmodContains(E.Bv));
  EXPECT_FALSE(An.rmodContains(E.C));
}

TEST(Analyzer, RModEqualsGModRestrictedToFormals) {
  Example E;
  SideEffectAnalyzer An(E.P);
  for (std::uint32_t I = 0; I != E.P.numProcs(); ++I)
    for (VarId F : E.P.proc(ProcId(I)).Formals)
      EXPECT_EQ(An.rmodContains(F), An.gmod(ProcId(I)).test(F.index()))
          << qualifiedName(E.P, F);
}

TEST(Analyzer, SetToString) {
  Example E;
  SideEffectAnalyzer An(E.P);
  EXPECT_EQ(An.setToString(An.gmod(E.PProc)), "h, p.b, p.x");
  EffectSet Empty(E.P.numVars());
  EXPECT_EQ(An.setToString(Empty), "");
}

TEST(AliasEstimator, SameVarTwiceIntroducesFormalPair) {
  // call p(g, g) must alias p's two formals.
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  VarId G = B.addGlobal("g");
  ProcId PProc = B.createProc("p", Main);
  VarId A = B.addFormal(PProc, "a");
  VarId Bv = B.addFormal(PProc, "b");
  B.addCallStmt(Main, PProc, {G, G});
  Program P = B.finish();

  AliasInfo AI = estimateAliases(P);
  ASSERT_GE(AI.pairs(PProc).size(), 2u); // <a,b> plus <a,g>, <b,g>.
  bool FoundAB = false;
  for (const auto &[X, Y] : AI.pairs(PProc))
    FoundAB |= (X == A && Y == Bv) || (X == Bv && Y == A);
  EXPECT_TRUE(FoundAB);
}

TEST(AliasEstimator, GlobalPassedToFormal) {
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  VarId G = B.addGlobal("g");
  ProcId PProc = B.createProc("p", Main);
  VarId A = B.addFormal(PProc, "a");
  B.addCallStmt(Main, PProc, {G});
  Program P = B.finish();

  AliasInfo AI = estimateAliases(P);
  ASSERT_EQ(AI.pairs(PProc).size(), 1u);
  EXPECT_EQ(AI.pairs(PProc)[0].first, G < A ? G : A);
}

TEST(AliasEstimator, PairsPropagateDownCallChains) {
  // main: call p(g);  p(a): call q(a);  q(f): ...
  // <a,g> in p maps to <f,g> in q.
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  VarId G = B.addGlobal("g");
  ProcId QProc = B.createProc("q", Main);
  VarId F = B.addFormal(QProc, "f");
  ProcId PProc = B.createProc("p", Main);
  VarId A = B.addFormal(PProc, "a");
  (void)A;
  B.addCallStmt(PProc, QProc, {A});
  B.addCallStmt(Main, PProc, {G});
  Program P = B.finish();

  AliasInfo AI = estimateAliases(P);
  bool FoundFG = false;
  for (const auto &[X, Y] : AI.pairs(QProc))
    FoundFG |= (X == G && Y == F) || (X == F && Y == G);
  EXPECT_TRUE(FoundFG);
}

//===----------------------------------------------------------------------===//
// Report rendering against the string-sort reference.
//===----------------------------------------------------------------------===//

/// The renderer the report used before names were ranked once per
/// report: every set's qualified names built and string-sorted.
std::string referenceSetText(const Program &P, const EffectSet &Set) {
  std::vector<std::string> Names;
  Set.forEachSetBit([&](std::size_t Idx) {
    Names.push_back(qualifiedName(P, VarId(static_cast<std::uint32_t>(Idx))));
  });
  std::sort(Names.begin(), Names.end());
  std::ostringstream OS;
  for (std::size_t I = 0; I != Names.size(); ++I)
    OS << (I ? ", " : "") << Names[I];
  return OS.str();
}

std::string referenceReport(const Program &P, ReportOptions Options) {
  SideEffectAnalyzer Mod(P);
  AnalyzerOptions UseOpts;
  UseOpts.Kind = EffectKind::Use;
  SideEffectAnalyzer Use(P, UseOpts);
  std::ostringstream OS;
  OS << "procedures:\n";
  for (std::uint32_t I = 0; I != P.numProcs(); ++I) {
    ProcId Proc(I);
    OS << "  " << P.name(Proc) << ":\n";
    OS << "    GMOD = { " << referenceSetText(P, Mod.gmod(Proc)) << " }\n";
    if (Options.IncludeUse)
      OS << "    GUSE = { " << referenceSetText(P, Use.gmod(Proc)) << " }\n";
    if (Options.IncludeRMod) {
      for (VarId F : P.proc(Proc).Formals) {
        OS << "    " << P.name(F) << ": "
           << (Mod.rmodContains(F) ? "RMOD" : "-");
        if (Options.IncludeUse)
          OS << (Use.rmodContains(F) ? " RUSE" : " -");
        OS << "\n";
      }
    }
  }
  if (Options.IncludeCallSites) {
    OS << "call sites:\n";
    for (std::uint32_t I = 0; I != P.numCallSites(); ++I) {
      const CallSite &C = P.callSite(CallSiteId(I));
      OS << "  s" << I << ": " << P.name(C.Caller) << " -> "
         << P.name(C.Callee) << ":\n";
      OS << "    DMOD = { " << referenceSetText(P, Mod.dmod(CallSiteId(I)))
         << " }\n";
      if (Options.IncludeUse)
        OS << "    DUSE = { "
           << referenceSetText(P, Use.dmod(CallSiteId(I))) << " }\n";
    }
  }
  return OS.str();
}

/// Names chosen to stress the byte-wise order of qualified names: "g2"
/// against "g10"; "p1.x", "p10.x" and "p1_f0.x" in one set ('.' against
/// digits and '_'); a global "p1" beside procedure p1; upper case before
/// lower; two procedures named f under different parents, so "f.x" is a
/// duplicate qualified name; and a procedure whose sets are all empty.
Program orderingStressProgram() {
  ProgramBuilder B;
  ProcId Main = B.createMain("main");
  VarId G2 = B.addGlobal("g2"), G10 = B.addGlobal("g10");
  VarId G1 = B.addGlobal("g1"), Upper = B.addGlobal("G");
  VarId GP1 = B.addGlobal("p1"), AB = B.addGlobal("a_b");
  VarId Z = B.addGlobal("z");

  ProcId P1 = B.createProc("p1", Main);
  VarId P1F0 = B.addFormal(P1, "f0");
  VarId P1X = B.addLocal(P1, "x");
  ProcId P1F = B.createProc("p1_f0", P1);
  VarId P1FX = B.addLocal(P1F, "x");
  ProcId P10 = B.createProc("p10", P1F);
  VarId P10F0 = B.addFormal(P10, "f0");
  VarId P10X = B.addLocal(P10, "x");
  ProcId F1 = B.createProc("f", P10);
  VarId F1Y = B.addFormal(F1, "y");
  VarId F1X = B.addLocal(F1, "x");
  ProcId Q = B.createProc("q", P1);
  VarId QX = B.addLocal(Q, "x");
  ProcId F2 = B.createProc("f", Q);
  VarId F2X = B.addLocal(F2, "x");
  ProcId Empty = B.createProc("empty", Main);

  StmtId S = B.addStmt(Main);
  for (VarId V : {Z, Upper, AB})
    B.addUse(S, V);
  B.addCallStmt(Main, P1, {G2});
  B.addCallStmt(Main, Empty, {});

  S = B.addStmt(P1);
  B.addMod(S, P1X);
  B.addMod(S, P1F0);
  B.addUse(S, G1);
  B.addCallStmt(P1, P1F, {});
  B.addCallStmt(P1, Q, {});

  S = B.addStmt(P1F);
  B.addMod(S, P1FX);
  B.addCallStmt(P1F, P10, {P1FX});

  S = B.addStmt(P10);
  B.addUse(S, P10F0);
  B.addCallStmt(P10, F1, {P10X});

  S = B.addStmt(F1);
  for (VarId V : {F1Y, F1X, P1X, P1FX, P10X, G10, GP1, Upper})
    B.addMod(S, V);
  B.addUse(S, G2);
  B.addUse(S, AB);

  S = B.addStmt(Q);
  B.addMod(S, QX);
  B.addCallStmt(Q, F2, {});
  S = B.addStmt(F2);
  B.addMod(S, F2X);
  B.addMod(S, QX);
  B.addUse(S, G1);
  return B.finish();
}

TEST(ReportRendering, MatchesStringSortReferenceOnEveryEngine) {
  synth::ProgramGenConfig Cfg;
  Cfg.NumProcs = 60;
  Cfg.NumGlobals = 12;
  Cfg.MaxNestDepth = 3;
  Cfg.Seed = 29;
  const Program Programs[] = {orderingStressProgram(),
                              synth::generateProgram(Cfg)};

  // The stress program's sets really do interleave the tricky names.
  const std::string Stress =
      referenceReport(Programs[0], ReportOptions());
  EXPECT_NE(Stress.find("GMOD = { G, f.x, f.y, g10, p1, p1.x, p10.x, "
                        "p1_f0.x }"),
            std::string::npos)
      << Stress;
  EXPECT_NE(Stress.find("  empty:\n    GMOD = {  }\n    GUSE = {  }\n"),
            std::string::npos)
      << Stress;

  using Engine = ipse::AnalysisOptions::Engine;
  for (const Program &P : Programs) {
    for (int Flags = 0; Flags != 8; ++Flags) {
      ReportOptions RO;
      RO.IncludeRMod = Flags & 1;
      RO.IncludeUse = !(Flags & 2);
      RO.IncludeCallSites = !(Flags & 4);
      const std::string Want = referenceReport(P, RO);
      EXPECT_EQ(makeReport(P, RO), Want) << "flags " << Flags;
      for (Engine E : {Engine::Sequential, Engine::Session, Engine::Demand}) {
        ipse::AnalysisOptions O;
        O.Backend = E;
        O.TrackUse = RO.IncludeUse;
        ipse::ReportRun Run = ipse::Analyzer(O).report(P, RO);
        ASSERT_TRUE(Run.Ok);
        EXPECT_EQ(Run.Output, Want)
            << "engine " << int(E) << " flags " << Flags;
      }
    }
  }
}

} // namespace
