//===- frontend/Parser.cpp - MiniProc parser -----------------------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include <cassert>
#include <charconv>
#include <limits>
#include <string_view>

using namespace ipse;
using namespace ipse::frontend;
using namespace ipse::frontend::ast;

namespace {

/// The value of a Number token's digits; like strtol, saturates at
/// LONG_MAX when the literal is out of range.
long parseNumber(std::string_view Digits) {
  long Value = 0;
  if (std::from_chars(Digits.data(), Digits.data() + Digits.size(), Value)
          .ec == std::errc::result_out_of_range)
    return std::numeric_limits<long>::max();
  return Value;
}

class ParserImpl {
public:
  ParserImpl(const std::vector<Token> &Tokens, DiagnosticEngine &Diags)
      : Tokens(Tokens), Diags(Diags) {}

  std::unique_ptr<ProgramAst> run() {
    auto Prog = std::make_unique<ProgramAst>();
    expect(TokenKind::KwProgram);
    Prog->Name = expectIdent();
    expect(TokenKind::Semicolon);
    parseBlock(Prog->Vars, Prog->Procs, Prog->Body);
    expect(TokenKind::Dot);
    if (!cur().is(TokenKind::Eof))
      error("extra input after final '.'");
    if (Diags.hasErrors())
      return nullptr;
    return Prog;
  }

private:
  const Token &cur() const { return Tokens[Pos]; }
  const Token &peekNext() const {
    return Tokens[Pos + 1 < Tokens.size() ? Pos + 1 : Pos];
  }

  void advance() {
    if (Pos + 1 < Tokens.size())
      ++Pos;
  }

  void error(const std::string &Msg) { Diags.report(cur().Loc, Msg); }

  bool accept(TokenKind Kind) {
    if (!cur().is(Kind))
      return false;
    advance();
    return true;
  }

  void expect(TokenKind Kind) {
    if (accept(Kind))
      return;
    error(std::string("expected ") + tokenKindName(Kind) + " before " +
          tokenKindName(cur().Kind));
  }

  std::string expectIdent() {
    if (cur().is(TokenKind::Identifier)) {
      std::string Name(cur().Text);
      advance();
      return Name;
    }
    error(std::string("expected identifier before ") +
          tokenKindName(cur().Kind));
    return "<error>";
  }

  /// Skips tokens until a statement boundary (';', 'end', '.', eof).
  void synchronize() {
    while (!cur().is(TokenKind::Eof) && !cur().is(TokenKind::Semicolon) &&
           !cur().is(TokenKind::KwEnd) && !cur().is(TokenKind::Dot))
      advance();
    accept(TokenKind::Semicolon);
  }

  void parseNameList(std::vector<std::string> &Out) {
    Out.push_back(expectIdent());
    while (accept(TokenKind::Comma))
      Out.push_back(expectIdent());
  }

  void parseBlock(std::vector<std::string> &Vars,
                  std::vector<std::unique_ptr<ProcDecl>> &Procs,
                  std::vector<StmtPtr> &Body) {
    if (accept(TokenKind::KwVar)) {
      parseNameList(Vars);
      expect(TokenKind::Semicolon);
    }
    while (cur().is(TokenKind::KwProc))
      Procs.push_back(parseProcDecl());
    expect(TokenKind::KwBegin);
    parseStmtList(Body);
    expect(TokenKind::KwEnd);
  }

  std::unique_ptr<ProcDecl> parseProcDecl() {
    auto Decl = std::make_unique<ProcDecl>();
    Decl->Loc = cur().Loc;
    expect(TokenKind::KwProc);
    Decl->Name = expectIdent();
    if (accept(TokenKind::LParen)) {
      if (!cur().is(TokenKind::RParen))
        parseNameList(Decl->Params);
      expect(TokenKind::RParen);
    }
    expect(TokenKind::Semicolon);
    parseBlock(Decl->Vars, Decl->Procs, Decl->Body);
    expect(TokenKind::Semicolon);
    return Decl;
  }

  bool startsStmt() const {
    switch (cur().Kind) {
    case TokenKind::Identifier:
    case TokenKind::KwCall:
    case TokenKind::KwIf:
    case TokenKind::KwWhile:
    case TokenKind::KwRead:
    case TokenKind::KwWrite:
      return true;
    default:
      return false;
    }
  }

  void parseStmtList(std::vector<StmtPtr> &Out) {
    while (startsStmt()) {
      StmtPtr S = parseStmt();
      if (S)
        Out.push_back(std::move(S));
      accept(TokenKind::Semicolon);
    }
  }

  StmtPtr parseStmt() {
    SourceLoc Loc = cur().Loc;
    switch (cur().Kind) {
    case TokenKind::KwCall: {
      advance();
      return parseCall(Loc);
    }
    case TokenKind::Identifier: {
      if (peekNext().is(TokenKind::LParen))
        return parseCall(Loc);
      auto S = std::make_unique<Stmt>();
      S->K = Stmt::Kind::Assign;
      S->Loc = Loc;
      S->Target = expectIdent();
      expect(TokenKind::Assign);
      S->Value = parseExpr();
      return S;
    }
    case TokenKind::KwIf: {
      advance();
      auto S = std::make_unique<Stmt>();
      S->K = Stmt::Kind::If;
      S->Loc = Loc;
      S->Value = parseExpr();
      expect(TokenKind::KwThen);
      parseStmtList(S->Then);
      if (accept(TokenKind::KwElse))
        parseStmtList(S->Else);
      expect(TokenKind::KwEnd);
      return S;
    }
    case TokenKind::KwWhile: {
      advance();
      auto S = std::make_unique<Stmt>();
      S->K = Stmt::Kind::While;
      S->Loc = Loc;
      S->Value = parseExpr();
      expect(TokenKind::KwDo);
      parseStmtList(S->Else);
      expect(TokenKind::KwEnd);
      return S;
    }
    case TokenKind::KwRead: {
      advance();
      auto S = std::make_unique<Stmt>();
      S->K = Stmt::Kind::Read;
      S->Loc = Loc;
      S->Target = expectIdent();
      return S;
    }
    case TokenKind::KwWrite: {
      advance();
      auto S = std::make_unique<Stmt>();
      S->K = Stmt::Kind::Write;
      S->Loc = Loc;
      S->Value = parseExpr();
      return S;
    }
    default:
      error("expected a statement");
      synchronize();
      return nullptr;
    }
  }

  StmtPtr parseCall(SourceLoc Loc) {
    auto S = std::make_unique<Stmt>();
    S->K = Stmt::Kind::Call;
    S->Loc = Loc;
    S->Callee = expectIdent();
    expect(TokenKind::LParen);
    if (!cur().is(TokenKind::RParen)) {
      S->Args.push_back(parseExpr());
      while (accept(TokenKind::Comma))
        S->Args.push_back(parseExpr());
    }
    expect(TokenKind::RParen);
    return S;
  }

  ExprPtr parseExpr() {
    ExprPtr E = parseTerm();
    while (cur().is(TokenKind::Plus) || cur().is(TokenKind::Minus)) {
      char Op = cur().is(TokenKind::Plus) ? '+' : '-';
      SourceLoc Loc = cur().Loc;
      advance();
      auto B = std::make_unique<Expr>();
      B->K = Expr::Kind::Binary;
      B->Loc = Loc;
      B->Op = Op;
      B->Lhs = std::move(E);
      B->Rhs = parseTerm();
      E = std::move(B);
    }
    return E;
  }

  ExprPtr parseTerm() {
    ExprPtr E = parseFactor();
    while (cur().is(TokenKind::Star) || cur().is(TokenKind::Slash)) {
      char Op = cur().is(TokenKind::Star) ? '*' : '/';
      SourceLoc Loc = cur().Loc;
      advance();
      auto B = std::make_unique<Expr>();
      B->K = Expr::Kind::Binary;
      B->Loc = Loc;
      B->Op = Op;
      B->Lhs = std::move(E);
      B->Rhs = parseFactor();
      E = std::move(B);
    }
    return E;
  }

  ExprPtr parseFactor() {
    SourceLoc Loc = cur().Loc;
    auto E = std::make_unique<Expr>();
    E->Loc = Loc;
    switch (cur().Kind) {
    case TokenKind::Number:
      E->K = Expr::Kind::Number;
      E->Value = parseNumber(cur().Text);
      advance();
      return E;
    case TokenKind::Identifier:
      E->K = Expr::Kind::VarRef;
      E->Name.assign(cur().Text);
      advance();
      return E;
    case TokenKind::LParen: {
      advance();
      ExprPtr Inner = parseExpr();
      expect(TokenKind::RParen);
      return Inner;
    }
    case TokenKind::Minus:
      advance();
      E->K = Expr::Kind::Unary;
      E->Op = '-';
      E->Lhs = parseFactor();
      return E;
    default:
      error(std::string("expected an expression before ") +
            tokenKindName(cur().Kind));
      advance();
      E->K = Expr::Kind::Number;
      E->Value = 0;
      return E;
    }
  }

  const std::vector<Token> &Tokens;
  DiagnosticEngine &Diags;
  std::size_t Pos = 0;
};

} // namespace

std::unique_ptr<ProgramAst> frontend::parse(const std::vector<Token> &Tokens,
                                            DiagnosticEngine &Diags) {
  assert(!Tokens.empty() && Tokens.back().is(TokenKind::Eof) &&
         "token stream must end with Eof");
  return ParserImpl(Tokens, Diags).run();
}
