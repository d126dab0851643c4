//===- tests/frontend_test.cpp - MiniProc lexer/parser/sema tests -------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "analysis/SideEffectAnalyzer.h"
#include "frontend/Frontend.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "ir/Printer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <string>

using namespace ipse;
using namespace ipse::frontend;
using namespace ipse::ir;

namespace {

std::vector<TokenKind> kindsOf(const std::string &Source) {
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = lex(Source, Diags);
  std::vector<TokenKind> Kinds;
  for (const Token &T : Tokens)
    Kinds.push_back(T.Kind);
  return Kinds;
}

TEST(Lexer, BasicTokens) {
  auto Kinds = kindsOf("x := y + 42;");
  std::vector<TokenKind> Expected = {
      TokenKind::Identifier, TokenKind::Assign, TokenKind::Identifier,
      TokenKind::Plus,       TokenKind::Number, TokenKind::Semicolon,
      TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, Keywords) {
  auto Kinds = kindsOf("program proc var begin end call if then else "
                       "while do read write");
  EXPECT_EQ(Kinds.size(), 14u); // 13 keywords + eof.
  EXPECT_EQ(Kinds[0], TokenKind::KwProgram);
  EXPECT_EQ(Kinds[12], TokenKind::KwWrite);
}

TEST(Lexer, KeywordsAreNotPrefixes) {
  auto Kinds = kindsOf("programx beginx end2");
  EXPECT_EQ(Kinds[0], TokenKind::Identifier);
  EXPECT_EQ(Kinds[1], TokenKind::Identifier);
  EXPECT_EQ(Kinds[2], TokenKind::Identifier);
}

TEST(Lexer, KeywordPrefixedIdentifiers) {
  // Each spelling starts with (or extends) a keyword of another length,
  // so the length switch must not match on a prefix.
  DiagnosticEngine Diags;
  std::vector<Token> Tokens =
      lex("ends do1 program_ iff whiles proc_ e d p0 Do END", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  ASSERT_EQ(Tokens.size(), 12u);
  const char *Spelled[] = {"ends", "do1", "program_", "iff", "whiles",
                           "proc_", "e", "d", "p0", "Do", "END"};
  for (std::size_t I = 0; I != 11; ++I) {
    EXPECT_EQ(Tokens[I].Kind, TokenKind::Identifier) << Spelled[I];
    EXPECT_EQ(Tokens[I].Text, Spelled[I]);
  }
  EXPECT_EQ(Tokens[11].Kind, TokenKind::Eof);
  // The keywords themselves, directly before the end of input.
  EXPECT_EQ(kindsOf("do")[0], TokenKind::KwDo);
  EXPECT_EQ(kindsOf("x;end")[2], TokenKind::KwEnd);
}

TEST(Lexer, TokensViewTheSource) {
  // Token text is a slice of the lexed buffer, not a copy.
  std::string Source = "program t; begin x := 42 end.";
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = lex(Source, Diags);
  const char *Begin = Source.data(), *End = Source.data() + Source.size();
  for (const Token &T : Tokens) {
    EXPECT_GE(T.Text.data(), Begin) << T.Text;
    EXPECT_LE(T.Text.data() + T.Text.size(), End) << T.Text;
    EXPECT_EQ(Source.substr(T.Text.data() - Begin, T.Text.size()), T.Text);
  }
}

TEST(Frontend, ProgramOutlivesItsSource) {
  // The compiled program owns its names: it stays usable after the source
  // buffer the tokens viewed is overwritten and destroyed (ASan builds
  // catch any name still viewing it).
  std::optional<ir::Program> P;
  {
    std::string Source = "program outer; var shared;\n"
                         "proc writer(f); var mine;\n"
                         "  begin f := mine; shared := 1 end;\n"
                         "begin call writer(shared) end.";
    CompileResult R = compileMiniProc(Source);
    ASSERT_TRUE(R.succeeded()) << R.Diags.renderAll();
    P = std::move(R.Program);
    std::fill(Source.begin(), Source.end(), '#');
  }
  EXPECT_EQ(P->name(P->main()), "outer");
  EXPECT_EQ(P->name(ProcId(1)), "writer");
  analysis::SideEffectAnalyzer An(*P);
  EXPECT_EQ(An.setToString(An.gmod(ProcId(1))), "shared, writer.f");
}

TEST(Parser, NumberLiteralsSaturateLikeStrtol) {
  // Number tokens are parsed from the source slice; an out-of-range
  // literal saturates at LONG_MAX, as strtol did.
  DiagnosticEngine Diags;
  auto Ast = parse(lex("program t; var a; begin a := 7; "
                       "a := 99999999999999999999999 end.",
                       Diags),
                   Diags);
  ASSERT_TRUE(Ast) << Diags.renderAll();
  ASSERT_EQ(Ast->Body.size(), 2u);
  EXPECT_EQ(Ast->Body[0]->Value->Value, 7);
  EXPECT_EQ(Ast->Body[1]->Value->Value, std::numeric_limits<long>::max());
}

TEST(Lexer, Comments) {
  auto Kinds = kindsOf("x // line comment\n:= { block\ncomment } 1");
  std::vector<TokenKind> Expected = {TokenKind::Identifier, TokenKind::Assign,
                                     TokenKind::Number, TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, PositionsAreTracked) {
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = lex("ab\n  cd", Diags);
  EXPECT_EQ(Tokens[0].Loc.Line, 1u);
  EXPECT_EQ(Tokens[0].Loc.Col, 1u);
  EXPECT_EQ(Tokens[1].Loc.Line, 2u);
  EXPECT_EQ(Tokens[1].Loc.Col, 3u);
}

TEST(Lexer, BadCharacterReported) {
  DiagnosticEngine Diags;
  lex("x ? y", Diags);
  ASSERT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.all()[0].Message.find("unexpected character"),
            std::string::npos);
}

TEST(Lexer, LoneColonReported) {
  DiagnosticEngine Diags;
  lex("x : y", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Lexer, UnterminatedBlockComment) {
  DiagnosticEngine Diags;
  lex("x { never closed", Diags);
  ASSERT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.all()[0].Message.find("unterminated"), std::string::npos);
}

const char *GoodProgram = R"(
program main;
var g, h;
proc q(c);
begin
  c := g;
end;
proc p(a, b);
var x;
begin
  x := a + 1;
  call q(b);
  h := 2;
end;
begin
  p(g, h);      // call keyword is optional
  write g;
end.
)";

TEST(Parser, AcceptsGoodProgram) {
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = lex(GoodProgram, Diags);
  ASSERT_FALSE(Diags.hasErrors());
  auto Ast = parse(Tokens, Diags);
  ASSERT_NE(Ast, nullptr) << Diags.renderAll();
  EXPECT_EQ(Ast->Name, "main");
  EXPECT_EQ(Ast->Vars.size(), 2u);
  EXPECT_EQ(Ast->Procs.size(), 2u);
  EXPECT_EQ(Ast->Procs[0]->Name, "q");
  EXPECT_EQ(Ast->Procs[1]->Params.size(), 2u);
  EXPECT_EQ(Ast->Body.size(), 2u);
}

TEST(Parser, IfWhileNesting) {
  const char *Src = R"(
program t; var a, b;
begin
  if a then
    a := 1;
    while b do b := b - 1; end;
  else
    b := 2;
  end;
end.
)";
  DiagnosticEngine Diags;
  auto Ast = parse(lex(Src, Diags), Diags);
  ASSERT_NE(Ast, nullptr) << Diags.renderAll();
  ASSERT_EQ(Ast->Body.size(), 1u);
  EXPECT_EQ(Ast->Body[0]->K, ast::Stmt::Kind::If);
  EXPECT_EQ(Ast->Body[0]->Then.size(), 2u);
  EXPECT_EQ(Ast->Body[0]->Else.size(), 1u);
}

TEST(Parser, ReportsMissingDot) {
  DiagnosticEngine Diags;
  auto Ast = parse(lex("program t; begin end", Diags), Diags);
  EXPECT_EQ(Ast, nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Parser, RecoversAndReportsMultipleErrors) {
  const char *Src = R"(
program t; var a;
begin
  a := ;
  a := ;
end.
)";
  DiagnosticEngine Diags;
  auto Ast = parse(lex(Src, Diags), Diags);
  EXPECT_EQ(Ast, nullptr);
  EXPECT_GE(Diags.all().size(), 2u);
}

TEST(Parser, ExpressionPrecedence) {
  DiagnosticEngine Diags;
  auto Ast = parse(lex("program t; var a, b, c;\nbegin a := a + b * c; end.",
                       Diags),
                   Diags);
  ASSERT_NE(Ast, nullptr);
  const ast::Expr &E = *Ast->Body[0]->Value;
  ASSERT_EQ(E.K, ast::Expr::Kind::Binary);
  EXPECT_EQ(E.Op, '+'); // * binds tighter.
  EXPECT_EQ(E.Rhs->Op, '*');
}

TEST(Sema, LowersGoodProgram) {
  CompileResult R = compileMiniProc(GoodProgram);
  ASSERT_TRUE(R.succeeded()) << R.Diags.renderAll();
  const Program &P = *R.Program;
  EXPECT_EQ(P.numProcs(), 3u);
  EXPECT_EQ(P.numVars(), 6u); // g h c a b x.
  EXPECT_EQ(P.numCallSites(), 2u);
  std::string Error;
  EXPECT_TRUE(P.verify(Error)) << Error;
  EXPECT_EQ(P.name(ProcId(1)), "q");
  EXPECT_EQ(P.name(ProcId(2)), "p");
}

TEST(Sema, AnalysisOfCompiledProgram) {
  CompileResult R = compileMiniProc(GoodProgram);
  ASSERT_TRUE(R.succeeded());
  const Program &P = *R.Program;
  analysis::SideEffectAnalyzer An(P);

  // Same expectations as the hand-built running example in
  // analysis_test.cpp: GMOD(p) = {x, h, b}; GMOD(main) = {h}.
  ProcId PProc(2);
  EXPECT_EQ(An.setToString(An.gmod(PProc)), "h, p.b, p.x");
  EXPECT_EQ(An.setToString(An.gmod(P.main())), "h");
}

TEST(Sema, UndeclaredNameReported) {
  CompileResult R = compileMiniProc("program t;\nbegin x := 1; end.");
  EXPECT_FALSE(R.succeeded());
  EXPECT_NE(R.Diags.renderAll().find("undeclared"), std::string::npos);
}

TEST(Sema, DuplicateDeclarationReported) {
  CompileResult R =
      compileMiniProc("program t; var a, a;\nbegin a := 1; end.");
  EXPECT_FALSE(R.succeeded());
  EXPECT_NE(R.Diags.renderAll().find("duplicate"), std::string::npos);
}

TEST(Sema, ArityMismatchReported) {
  CompileResult R = compileMiniProc(R"(
program t; var g;
proc p(a); begin a := 1; end;
begin call p(g, g); end.
)");
  EXPECT_FALSE(R.succeeded());
  EXPECT_NE(R.Diags.renderAll().find("expects 1 argument"),
            std::string::npos);
}

TEST(Sema, CallingAVariableReported) {
  CompileResult R = compileMiniProc(R"(
program t; var g;
begin call g(); end.
)");
  EXPECT_FALSE(R.succeeded());
  EXPECT_NE(R.Diags.renderAll().find("not a procedure"), std::string::npos);
}

TEST(Sema, AssigningAProcedureReported) {
  CompileResult R = compileMiniProc(R"(
program t;
proc p(); begin end;
begin p := 1; end.
)");
  EXPECT_FALSE(R.succeeded());
  EXPECT_NE(R.Diags.renderAll().find("not a variable"), std::string::npos);
}

TEST(Sema, ShadowingResolvesInnermost) {
  CompileResult R = compileMiniProc(R"(
program t; var x;
proc p(); var x;
begin x := 1; end;
begin call p(); end.
)");
  ASSERT_TRUE(R.succeeded()) << R.Diags.renderAll();
  const Program &P = *R.Program;
  // p's statement modifies p.x, not the global x.
  analysis::SideEffectAnalyzer An(P);
  EXPECT_EQ(An.setToString(An.gmod(ProcId(1))), "p.x");
  EXPECT_EQ(An.setToString(An.gmod(P.main())), "");
}

TEST(Sema, MutualRecursionAmongSiblings) {
  CompileResult R = compileMiniProc(R"(
program t; var g;
proc even(n); begin call odd(n); end;
proc odd(n);  begin call even(n); g := 1; end;
begin call even(g); end.
)");
  ASSERT_TRUE(R.succeeded()) << R.Diags.renderAll();
  analysis::SideEffectAnalyzer An(*R.Program);
  EXPECT_TRUE(An.gmod(R.Program->main()).test(0)); // g modified.
}

TEST(Sema, NestedProceduresAndUplevelAccess) {
  CompileResult R = compileMiniProc(R"(
program t; var g;
proc outer(a); var ov;
  proc inner();
  begin
    ov := 1;          // uplevel store to outer's local
    a := 2;           // uplevel store to outer's formal
  end;
begin
  call inner();
end;
begin
  call outer(g);
end.
)");
  ASSERT_TRUE(R.succeeded()) << R.Diags.renderAll();
  const Program &P = *R.Program;
  EXPECT_EQ(P.maxProcLevel(), 2u);
  analysis::SideEffectAnalyzer An(P);
  // outer's formal a is modified (in inner), so g ∈ GMOD(main).
  EXPECT_EQ(An.setToString(An.gmod(P.main())), "g");
}

TEST(Sema, ExpressionActualsDoNotBind) {
  CompileResult R = compileMiniProc(R"(
program t; var g;
proc p(a); begin a := 1; end;
begin call p(g + 0); end.
)");
  ASSERT_TRUE(R.succeeded()) << R.Diags.renderAll();
  analysis::SideEffectAnalyzer An(*R.Program);
  // The mod to a does not reach g: the actual is an expression.
  EXPECT_EQ(An.setToString(An.gmod(R.Program->main())), "");
}

TEST(Sema, FlowInsensitiveControlFlow) {
  CompileResult R = compileMiniProc(R"(
program t; var g, h, c;
begin
  if c then g := 1; else h := 2; end;
end.
)");
  ASSERT_TRUE(R.succeeded()) << R.Diags.renderAll();
  analysis::SideEffectAnalyzer An(*R.Program);
  // Both branches count.
  EXPECT_EQ(An.setToString(An.gmod(R.Program->main())), "g, h");
}

TEST(Frontend, LexErrorShortCircuits) {
  CompileResult R = compileMiniProc("program t; begin ? end.");
  EXPECT_FALSE(R.succeeded());
  EXPECT_TRUE(R.Diags.hasErrors());
}

} // namespace
