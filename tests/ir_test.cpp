//===- tests/ir_test.cpp - Program model and builder tests --------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "ir/AliasInfo.h"
#include "ir/Printer.h"
#include "ir/Program.h"
#include "ir/ProgramBuilder.h"

#include <gtest/gtest.h>

namespace ipse {
namespace ir {

/// Direct access to a Program's tables, to build the corrupt programs
/// only a bad snapshot or a buggy editor could produce.
struct ProgramTablesForTest {
  static std::vector<Procedure> &procs(Program &P) { return P.Procs; }
};

} // namespace ir
} // namespace ipse

using namespace ipse;
using namespace ipse::ir;

namespace {

/// Builds the running example used throughout the test suites:
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
  CallSiteId CallP, CallQ;

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

    CallP = B.addCallStmt(Main, PProc, {G, H});
    StmtId MS = B.addStmt(Main);
    B.addUse(MS, G);

    P = B.finish();
  }
};

TEST(Program, BasicShape) {
  Example E;
  EXPECT_EQ(E.P.numProcs(), 3u);
  EXPECT_EQ(E.P.numVars(), 6u);
  EXPECT_EQ(E.P.numCallSites(), 2u);
  EXPECT_EQ(E.P.main(), E.Main);
  EXPECT_EQ(E.P.maxProcLevel(), 1u);
}

TEST(Program, Names) {
  Example E;
  EXPECT_EQ(E.P.name(E.PProc), "p");
  EXPECT_EQ(E.P.name(E.G), "g");
  EXPECT_EQ(E.P.name(E.C), "c");
}

TEST(Program, VariableKinds) {
  Example E;
  EXPECT_EQ(E.P.var(E.G).Kind, VarKind::Global);
  EXPECT_EQ(E.P.var(E.X).Kind, VarKind::Local);
  EXPECT_EQ(E.P.var(E.A).Kind, VarKind::Formal);
  EXPECT_EQ(E.P.var(E.A).FormalPos, 0u);
  EXPECT_EQ(E.P.var(E.Bv).FormalPos, 1u);
  EXPECT_TRUE(E.P.isGlobal(E.G));
  EXPECT_FALSE(E.P.isGlobal(E.X));
}

TEST(Program, Ownership) {
  Example E;
  EXPECT_TRUE(E.P.isLocalTo(E.X, E.PProc));
  EXPECT_TRUE(E.P.isLocalTo(E.A, E.PProc));
  EXPECT_FALSE(E.P.isLocalTo(E.G, E.PProc));
  EXPECT_TRUE(E.P.isLocalTo(E.G, E.Main));
}

TEST(Program, Visibility) {
  Example E;
  EXPECT_TRUE(E.P.isVisibleIn(E.G, E.PProc));
  EXPECT_TRUE(E.P.isVisibleIn(E.X, E.PProc));
  EXPECT_FALSE(E.P.isVisibleIn(E.X, E.QProc));
  EXPECT_FALSE(E.P.isVisibleIn(E.C, E.PProc));
  EXPECT_TRUE(E.P.isVisibleIn(E.G, E.Main));
}

TEST(Program, VarLevels) {
  Example E;
  EXPECT_EQ(E.P.varLevel(E.G), 0u);
  EXPECT_EQ(E.P.varLevel(E.X), 1u);
  EXPECT_EQ(E.P.varLevel(E.C), 1u);
}

TEST(Program, CallSites) {
  Example E;
  const CallSite &CP = E.P.callSite(E.CallP);
  EXPECT_EQ(CP.Caller, E.Main);
  EXPECT_EQ(CP.Callee, E.PProc);
  ASSERT_EQ(CP.Actuals.size(), 2u);
  EXPECT_TRUE(CP.Actuals[0].isVariable());
  EXPECT_EQ(CP.Actuals[0].Var, E.G);
  EXPECT_EQ(CP.Actuals[1].Var, E.H);
}

TEST(Program, VerifyAcceptsValid) {
  Example E;
  std::string Error;
  EXPECT_TRUE(E.P.verify(Error)) << Error;
  EXPECT_TRUE(Error.empty());
}

TEST(Program, VerifyRejectsProcedureMissingFromParentsNestedList) {
  Example E;
  std::vector<Procedure> &Procs = ProgramTablesForTest::procs(E.P);
  std::vector<ProcId> &Nested = Procs[E.Main.index()].Nested;
  ASSERT_EQ(Nested, (std::vector<ProcId>{E.QProc, E.PProc}));
  // Every remaining entry is valid; p is simply not listed.
  Nested = {E.QProc, E.QProc};
  std::string Error;
  EXPECT_FALSE(E.P.verify(Error));
  EXPECT_EQ(Error, "procedure p missing from its parent's Nested list");
  Nested.pop_back();
  EXPECT_FALSE(E.P.verify(Error));
  EXPECT_EQ(Error, "procedure p missing from its parent's Nested list");
  Nested = {E.QProc, E.PProc};
  EXPECT_TRUE(E.P.verify(Error)) << Error;
}

TEST(Program, VerifyRejectsCallSiteMissingFromCallersList) {
  Example E;
  std::vector<Procedure> &Procs = ProgramTablesForTest::procs(E.P);
  std::vector<CallSiteId> &MainSites = Procs[E.Main.index()].CallSites;
  ASSERT_EQ(MainSites, std::vector<CallSiteId>{E.CallP});
  // A list naming another procedure's call site does not list this one.
  MainSites = {E.CallQ};
  std::string Error;
  EXPECT_FALSE(E.P.verify(Error));
  EXPECT_EQ(Error, "call site missing from its caller's list");
  MainSites.clear();
  EXPECT_FALSE(E.P.verify(Error));
  EXPECT_EQ(Error, "call site missing from its caller's list");
  MainSites = {E.CallP};
  EXPECT_TRUE(E.P.verify(Error)) << Error;
}

TEST(Program, NestingTree) {
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  ProcId Outer = B.createProc("outer", Main);
  ProcId Inner = B.createProc("inner", Outer);
  ProcId Deep = B.createProc("deep", Inner);
  B.addStmt(Main);
  Program P = B.finish();

  EXPECT_EQ(P.proc(Outer).Level, 1u);
  EXPECT_EQ(P.proc(Inner).Level, 2u);
  EXPECT_EQ(P.proc(Deep).Level, 3u);
  EXPECT_EQ(P.maxProcLevel(), 3u);
  EXPECT_TRUE(P.isAncestorOrSelf(Main, Deep));
  EXPECT_TRUE(P.isAncestorOrSelf(Outer, Deep));
  EXPECT_TRUE(P.isAncestorOrSelf(Deep, Deep));
  EXPECT_FALSE(P.isAncestorOrSelf(Deep, Outer));
  ASSERT_EQ(P.proc(Outer).Nested.size(), 1u);
  EXPECT_EQ(P.proc(Outer).Nested[0], Inner);
}

TEST(Program, NestedVisibilityAndCalls) {
  ProgramBuilder B;
  ProcId Main = B.createMain("m");
  VarId G = B.addGlobal("g");
  ProcId Outer = B.createProc("outer", Main);
  VarId OV = B.addLocal(Outer, "ov");
  ProcId Inner = B.createProc("inner", Outer);
  StmtId S = B.addStmt(Inner);
  B.addMod(S, OV); // Inner may modify outer's local.
  B.addMod(S, G);
  B.addCallStmt(Outer, Inner, {});
  B.addCallStmt(Inner, Outer, {}); // Recursion upward is legal.
  B.addCallStmt(Main, Outer, {});
  Program P = B.finish();

  EXPECT_TRUE(P.isVisibleIn(OV, Inner));
  std::string Error;
  EXPECT_TRUE(P.verify(Error)) << Error;
}

TEST(ProgramBuilder, ArityMismatchDiesInFinish) {
  // addCall does not check arity (verify does); finish() must abort.
  ASSERT_DEATH(
      {
        ProgramBuilder B;
        ProcId Main = B.createMain("m");
        ProcId Q = B.createProc("q", Main);
        B.addFormal(Q, "f");
        B.addCallStmt(Main, Q, {}); // Missing the one actual.
        B.finish();
      },
      "arity mismatch");
}

TEST(ProgramBuilder, ScopeViolationDiesInFinish) {
  // Calling a procedure that is not lexically visible must be rejected.
  ASSERT_DEATH(
      {
        ProgramBuilder B;
        ProcId Main = B.createMain("m");
        ProcId Outer = B.createProc("outer", Main);
        ProcId Inner = B.createProc("inner", Outer);
        ProcId Other = B.createProc("other", Main);
        (void)Inner;
        B.addCallStmt(Other, Inner, {}); // Inner is hidden inside Outer.
        B.finish();
      },
      "lexical scoping");
}

TEST(Printer, RendersProgram) {
  Example E;
  std::string Text = printProgram(E.P);
  EXPECT_NE(Text.find("program main"), std::string::npos);
  EXPECT_NE(Text.find("proc p(a, b)"), std::string::npos);
  EXPECT_NE(Text.find("call q(b)"), std::string::npos);
  EXPECT_NE(Text.find("mod{x}"), std::string::npos);
}

TEST(Printer, QualifiedNames) {
  Example E;
  EXPECT_EQ(qualifiedName(E.P, E.G), "g");
  EXPECT_EQ(qualifiedName(E.P, E.X), "p.x");
  EXPECT_EQ(qualifiedName(E.P, E.C), "q.c");
}

TEST(Printer, SetToStringSortsQualifiedNames) {
  Example E;
  EffectSet Set(E.P.numVars());
  EXPECT_EQ(setToString(E.P, Set), "");
  for (VarId V : {E.X, E.C, E.H, E.G, E.A})
    Set.set(V.index());
  EXPECT_EQ(setToString(E.P, Set), "g, h, p.a, p.x, q.c");
  VarNameOrder Order(E.P);
  std::vector<std::uint32_t> Ranks;
  std::string Out = "{";
  Order.appendSet(Out, Set, Ranks);
  EXPECT_EQ(Out, "{g, h, p.a, p.x, q.c");
}

TEST(AliasInfo, StoresNormalizedPairs) {
  Example E;
  AliasInfo AI(E.P);
  AI.addPair(E.PProc, E.Bv, E.A); // Stored with the smaller id first.
  ASSERT_EQ(AI.pairs(E.PProc).size(), 1u);
  EXPECT_EQ(AI.pairs(E.PProc)[0].first, E.A);
  EXPECT_EQ(AI.pairs(E.PProc)[0].second, E.Bv);
  EXPECT_EQ(AI.totalPairs(), 1u);
  EXPECT_TRUE(AI.pairs(E.QProc).empty());
}

TEST(StrongId, DefaultIsInvalid) {
  VarId V;
  EXPECT_FALSE(V.isValid());
  VarId W(3);
  EXPECT_TRUE(W.isValid());
  EXPECT_EQ(W.index(), 3u);
  EXPECT_NE(V, W);
}

} // namespace
