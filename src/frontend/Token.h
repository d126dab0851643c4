//===- frontend/Token.h - MiniProc tokens -----------------------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Token kinds for MiniProc, the Pascal-like toy language the analyses are
/// demonstrated on (nested procedure declarations, global variables, and
/// reference formal parameters — the three features the paper's problem is
/// about).
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_FRONTEND_TOKEN_H
#define IPSE_FRONTEND_TOKEN_H

#include "frontend/Diagnostics.h"

#include <string_view>

namespace ipse {
namespace frontend {

enum class TokenKind {
  // Literals and names.
  Identifier,
  Number,

  // Keywords.
  KwProgram,
  KwProc,
  KwVar,
  KwBegin,
  KwEnd,
  KwCall,
  KwIf,
  KwThen,
  KwElse,
  KwWhile,
  KwDo,
  KwRead,
  KwWrite,

  // Punctuation and operators.
  Assign,    // :=
  Semicolon, // ;
  Comma,     // ,
  LParen,    // (
  RParen,    // )
  Plus,      // +
  Minus,     // -
  Star,      // *
  Slash,     // /
  Dot,       // .

  Eof,
  Error
};

/// Returns a printable name for error messages ("':='", "identifier", ...).
const char *tokenKindName(TokenKind Kind);

/// One lexed token.  Text is a slice of the lexed source, so tokens must
/// not outlive the source they were lexed from.
struct Token {
  TokenKind Kind = TokenKind::Eof;
  std::string_view Text;
  SourceLoc Loc;

  bool is(TokenKind K) const { return Kind == K; }
};

} // namespace frontend
} // namespace ipse

#endif // IPSE_FRONTEND_TOKEN_H
