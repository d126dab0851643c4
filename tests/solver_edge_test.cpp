//===- tests/solver_edge_test.cpp - Degenerate and extreme inputs -------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "analysis/SideEffectAnalyzer.h"
#include "graph/BindingGraph.h"
#include "ir/ProgramBuilder.h"
#include "synth/ProgramGen.h"

#include "SolverMatrix.h"

#include <gtest/gtest.h>

using namespace ipse;
using namespace ipse::analysis;
using namespace ipse::ir;

namespace {

/// Runs every engine in the solver matrix (tests/SolverMatrix.h) on \p P
/// and compares each against the iterative oracle, for both MOD and USE.
void expectAllSolversAgree(const Program &P) {
  const std::vector<testmatrix::SolverEngine> &Engines =
      testmatrix::allSolverEngines();
  for (EffectKind Kind : {EffectKind::Mod, EffectKind::Use}) {
    GModResult Oracle = Engines.front().Solve(P, Kind);
    for (std::size_t E = 1; E != Engines.size(); ++E) {
      const testmatrix::SolverEngine &Engine = Engines[E];
      if (Engine.TwoLevelOnly && P.maxProcLevel() > 1)
        continue;
      GModResult Got = Engine.Solve(P, Kind);
      for (std::uint32_t I = 0; I != P.numProcs(); ++I)
        EXPECT_EQ(Got.GMod[I], Oracle.GMod[I])
            << Engine.Name << " vs oracle: " << P.name(ProcId(I));
    }
  }
}

TEST(SolverEdge, EmptyProgram) {
  ProgramBuilder B;
  B.createMain("m");
  Program P = B.finish();
  SideEffectAnalyzer An(P);
  EXPECT_TRUE(An.gmod(P.main()).none());
  expectAllSolversAgree(P);
}

TEST(SolverEdge, MainOnlyWithEffects) {
  // Footnote 3: GMOD(main) may be non-empty.
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  VarId G = B.addGlobal("g");
  StmtId S = B.addStmt(Main);
  B.addMod(S, G);
  Program P = B.finish();
  SideEffectAnalyzer An(P);
  EXPECT_TRUE(An.gmod(Main).test(G.index()));
  expectAllSolversAgree(P);
}

TEST(SolverEdge, ProceduresWithoutCalls) {
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  VarId G = B.addGlobal("g");
  ProcId A = B.createProc("a", Main);
  StmtId S = B.addStmt(A);
  B.addMod(S, G);
  B.addCallStmt(Main, A, {});
  Program P = B.finish();
  graph::BindingGraph BG(P);
  EXPECT_EQ(BG.numEdges(), 0u);
  expectAllSolversAgree(P);
}

TEST(SolverEdge, SelfRecursionThroughOwnFormal) {
  // p(a, b): p(b, a) — the arguments swap around the self loop; only b is
  // directly modified, but the swap makes both formals RMOD.
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  VarId G1 = B.addGlobal("g1");
  VarId G2 = B.addGlobal("g2");
  ProcId Pp = B.createProc("p", Main);
  VarId A = B.addFormal(Pp, "a");
  VarId Bf = B.addFormal(Pp, "b");
  StmtId S = B.addStmt(Pp);
  B.addMod(S, Bf);
  B.addCallStmt(Pp, Pp, {Bf, A}); // Swapped.
  B.addCallStmt(Main, Pp, {G1, G2});
  Program P = B.finish();

  SideEffectAnalyzer An(P);
  EXPECT_TRUE(An.rmodContains(A));
  EXPECT_TRUE(An.rmodContains(Bf));
  EXPECT_TRUE(An.gmod(Main).test(G1.index()));
  EXPECT_TRUE(An.gmod(Main).test(G2.index()));
  expectAllSolversAgree(P);
}

TEST(SolverEdge, NonSwappingSelfRecursionKeepsPrecision) {
  // p(a, b): p(a, b) — no swap; only b is modified, a must stay clean.
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  VarId G1 = B.addGlobal("g1");
  VarId G2 = B.addGlobal("g2");
  ProcId Pp = B.createProc("p", Main);
  VarId A = B.addFormal(Pp, "a");
  VarId Bf = B.addFormal(Pp, "b");
  StmtId S = B.addStmt(Pp);
  B.addMod(S, Bf);
  B.addCallStmt(Pp, Pp, {A, Bf});
  B.addCallStmt(Main, Pp, {G1, G2});
  Program P = B.finish();

  SideEffectAnalyzer An(P);
  EXPECT_FALSE(An.rmodContains(A));
  EXPECT_TRUE(An.rmodContains(Bf));
  EXPECT_FALSE(An.gmod(Main).test(G1.index()));
  EXPECT_TRUE(An.gmod(Main).test(G2.index()));
  expectAllSolversAgree(P);
}

TEST(SolverEdge, CompleteCallGraph) {
  // Every procedure calls every other: one giant SCC.
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  std::vector<VarId> G;
  std::vector<ProcId> Procs;
  for (unsigned I = 0; I != 8; ++I)
    G.push_back(B.addGlobal("g" + std::to_string(I)));
  for (unsigned I = 0; I != 8; ++I)
    Procs.push_back(B.createProc("p" + std::to_string(I), Main));
  for (unsigned I = 0; I != 8; ++I) {
    StmtId S = B.addStmt(Procs[I]);
    B.addMod(S, G[I]);
    for (unsigned J = 0; J != 8; ++J)
      if (I != J)
        B.addCallStmt(Procs[I], Procs[J], {});
  }
  B.addCallStmt(Main, Procs[0], {});
  Program P = B.finish();

  SideEffectAnalyzer An(P);
  // Everyone sees every global.
  for (ProcId Proc : Procs)
    for (VarId V : G)
      EXPECT_TRUE(An.gmod(Proc).test(V.index()));
  expectAllSolversAgree(P);
}

TEST(SolverEdge, GiantScc) {
  // Every procedure in one strongly connected component: a 64-cycle, and a
  // complete call graph over 12 procedures whose MOD and USE seeds differ.
  expectAllSolversAgree(synth::makeCycleProgram(64, 2));

  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  std::vector<VarId> G;
  std::vector<ProcId> Procs;
  for (unsigned I = 0; I != 12; ++I)
    G.push_back(B.addGlobal("g" + std::to_string(I)));
  for (unsigned I = 0; I != 12; ++I)
    Procs.push_back(B.createProc("p" + std::to_string(I), Main));
  for (unsigned I = 0; I != 12; ++I) {
    StmtId S = B.addStmt(Procs[I]);
    B.addMod(S, G[I]);
    B.addUse(S, G[(I + 1) % 12]);
    for (unsigned J = 0; J != 12; ++J)
      if (I != J)
        B.addCallStmt(Procs[I], Procs[J], {});
  }
  B.addCallStmt(Main, Procs[0], {});
  expectAllSolversAgree(B.finish());
}

TEST(SolverEdge, DeepChain) {
  // 400 procedures, each passing its formals to the next: the deepest
  // binding chain, and one condensation component per topological level.
  expectAllSolversAgree(synth::makeChainProgram(400, 2));
}

TEST(SolverEdge, WideStar) {
  // main calls 300 leaves that split two globals between MOD and USE.
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  VarId G0 = B.addGlobal("a");
  VarId G1 = B.addGlobal("b");
  for (unsigned I = 0; I != 300; ++I) {
    ProcId Pp = B.createProc("p" + std::to_string(I), Main);
    StmtId S = B.addStmt(Pp);
    B.addMod(S, I % 2 ? G0 : G1);
    B.addUse(S, I % 3 ? G1 : G0);
    B.addCallStmt(Main, Pp, {});
  }
  expectAllSolversAgree(B.finish());
}

TEST(SolverEdge, AllExpressionActuals) {
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  VarId G = B.addGlobal("g");
  (void)G;
  ProcId Pp = B.createProc("p", Main);
  VarId A = B.addFormal(Pp, "a");
  StmtId S = B.addStmt(Pp);
  B.addMod(S, A);
  StmtId Call = B.addStmt(Main);
  B.addCall(Call, Pp, std::vector<Actual>{Actual::expression()});
  Program P = B.finish();

  SideEffectAnalyzer An(P);
  EXPECT_TRUE(An.rmodContains(A));
  EXPECT_TRUE(An.gmod(Main).none()); // The effect lands on no storage.
  expectAllSolversAgree(P);
}

TEST(SolverEdge, LongBindingChainThroughGlobalsAndFormals) {
  // Alternation: formal -> formal -> global actual breaks the chain.
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  VarId G = B.addGlobal("g");
  ProcId P1 = B.createProc("p1", Main);
  VarId F1 = B.addFormal(P1, "f1");
  ProcId P2 = B.createProc("p2", Main);
  VarId F2 = B.addFormal(P2, "f2");
  ProcId P3 = B.createProc("p3", Main);
  VarId F3 = B.addFormal(P3, "f3");
  StmtId S = B.addStmt(P3);
  B.addMod(S, F3);
  B.addCallStmt(P1, P2, {F1}); // formal-to-formal: β edge.
  B.addCallStmt(P2, P3, {G});  // global actual: no β edge, but G gets hit.
  B.addCallStmt(Main, P1, {G});
  Program P = B.finish();

  SideEffectAnalyzer An(P);
  EXPECT_TRUE(An.rmodContains(F3));
  EXPECT_FALSE(An.rmodContains(F2)); // f2 never reaches a modified formal.
  EXPECT_FALSE(An.rmodContains(F1));
  // G is modified via the global binding at p2's call site.
  EXPECT_TRUE(An.gmod(P2).test(G.index()));
  EXPECT_TRUE(An.gmod(Main).test(G.index()));
  expectAllSolversAgree(P);
}

TEST(SolverEdge, WideFlatProgram) {
  // main calls 200 leaf procedures; no recursion, no bindings.
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  VarId G = B.addGlobal("g");
  for (unsigned I = 0; I != 200; ++I) {
    ProcId Pp = B.createProc("p" + std::to_string(I), Main);
    if (I % 2 == 0) {
      StmtId S = B.addStmt(Pp);
      B.addMod(S, G);
    }
    B.addCallStmt(Main, Pp, {});
  }
  Program P = B.finish();
  SideEffectAnalyzer An(P);
  EXPECT_TRUE(An.gmod(Main).test(G.index()));
  expectAllSolversAgree(P);
}

TEST(SolverEdge, UseAndModDisjointSeeds) {
  // Statements where LMOD and LUSE never overlap: the two analyses must
  // stay fully independent.
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  VarId W = B.addGlobal("written");
  VarId R = B.addGlobal("readonly");
  ProcId Pp = B.createProc("p", Main);
  StmtId S = B.addStmt(Pp);
  B.addMod(S, W);
  B.addUse(S, R);
  B.addCallStmt(Main, Pp, {});
  Program P = B.finish();

  SideEffectAnalyzer Mod(P);
  AnalyzerOptions UseOpts;
  UseOpts.Kind = EffectKind::Use;
  SideEffectAnalyzer Use(P, UseOpts);
  EXPECT_TRUE(Mod.gmod(Main).test(W.index()));
  EXPECT_FALSE(Mod.gmod(Main).test(R.index()));
  EXPECT_TRUE(Use.gmod(Main).test(R.index()));
  EXPECT_FALSE(Use.gmod(Main).test(W.index()));
}

TEST(SolverEdge, LargeRandomProgramSmoke) {
  synth::ProgramGenConfig Cfg;
  Cfg.Seed = 3141;
  Cfg.NumProcs = 3000;
  Cfg.NumGlobals = 100;
  Cfg.MaxFormals = 4;
  Cfg.MaxCallsPerProc = 5;
  Program P = synth::generateProgram(Cfg);
  SideEffectAnalyzer An(P);
  // Just exercise the whole pipeline at scale; spot-check an invariant.
  for (std::uint32_t I = 0; I != P.numProcs(); ++I)
    EXPECT_TRUE(An.imodPlus(ProcId(I)).isSubsetOf(An.gmod(ProcId(I))));
}

} // namespace
