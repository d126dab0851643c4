//===- frontend/Lexer.cpp - MiniProc lexer -------------------------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"

#include <initializer_list>
#include <string>
#include <utility>

using namespace ipse;
using namespace ipse::frontend;

const char *frontend::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::Number:
    return "number";
  case TokenKind::KwProgram:
    return "'program'";
  case TokenKind::KwProc:
    return "'proc'";
  case TokenKind::KwVar:
    return "'var'";
  case TokenKind::KwBegin:
    return "'begin'";
  case TokenKind::KwEnd:
    return "'end'";
  case TokenKind::KwCall:
    return "'call'";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwThen:
    return "'then'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwWhile:
    return "'while'";
  case TokenKind::KwDo:
    return "'do'";
  case TokenKind::KwRead:
    return "'read'";
  case TokenKind::KwWrite:
    return "'write'";
  case TokenKind::Assign:
    return "':='";
  case TokenKind::Semicolon:
    return "';'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Slash:
    return "'/'";
  case TokenKind::Dot:
    return "'.'";
  case TokenKind::Eof:
    return "end of input";
  case TokenKind::Error:
    return "invalid token";
  }
  return "?";
}

namespace {

// ASCII classification, as <cctype> gives in the "C" locale, without the
// locale lookup per character.
bool isIdentStart(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
}
bool isDigit(char C) { return C >= '0' && C <= '9'; }
bool isIdentChar(char C) { return isIdentStart(C) || isDigit(C); }
bool isSpace(char C) {
  return C == ' ' || C == '\t' || C == '\n' || C == '\v' || C == '\f' ||
         C == '\r';
}

using Spelling = std::pair<std::string_view, TokenKind>;

/// The kind of the first of \p Candidates spelled \p Text, or Identifier.
TokenKind among(std::string_view Text,
                std::initializer_list<Spelling> Candidates) {
  for (const Spelling &C : Candidates)
    if (Text == C.first)
      return C.second;
  return TokenKind::Identifier;
}

/// The keyword spelled \p Text, or Identifier.  A switch on the length
/// leaves at most five comparisons per identifier.
TokenKind keywordOrIdentifier(std::string_view Text) {
  switch (Text.size()) {
  case 2:
    return among(Text, {{"if", TokenKind::KwIf}, {"do", TokenKind::KwDo}});
  case 3:
    return among(Text, {{"var", TokenKind::KwVar}, {"end", TokenKind::KwEnd}});
  case 4:
    return among(Text, {{"proc", TokenKind::KwProc},
                        {"call", TokenKind::KwCall},
                        {"then", TokenKind::KwThen},
                        {"else", TokenKind::KwElse},
                        {"read", TokenKind::KwRead}});
  case 5:
    return among(Text, {{"begin", TokenKind::KwBegin},
                        {"while", TokenKind::KwWhile},
                        {"write", TokenKind::KwWrite}});
  case 7:
    return among(Text, {{"program", TokenKind::KwProgram}});
  default:
    return TokenKind::Identifier;
  }
}

class LexerImpl {
public:
  LexerImpl(std::string_view Source, DiagnosticEngine &Diags)
      : Source(Source), Diags(Diags) {}

  std::vector<Token> run() {
    std::vector<Token> Tokens;
    // MiniProc runs about 3.5 source bytes per token; reserving one token
    // per two bytes keeps the vector from regrowing on real sources.
    Tokens.reserve(Source.size() / 2 + 1);
    while (true) {
      Token T = next();
      bool IsEof = T.is(TokenKind::Eof);
      Tokens.push_back(std::move(T));
      if (IsEof)
        break;
    }
    return Tokens;
  }

private:
  bool atEnd() const { return Pos >= Source.size(); }
  char peek() const { return atEnd() ? '\0' : Source[Pos]; }

  char advance() {
    char C = Source[Pos++];
    if (C == '\n') {
      ++Line;
      Col = 1;
    } else {
      ++Col;
    }
    return C;
  }

  void skipTrivia() {
    while (!atEnd()) {
      char C = peek();
      if (isSpace(C)) {
        advance();
        continue;
      }
      if (C == '/' && Pos + 1 < Source.size() && Source[Pos + 1] == '/') {
        while (!atEnd() && peek() != '\n')
          advance();
        continue;
      }
      if (C == '{') {
        SourceLoc Start{Line, Col};
        advance();
        while (!atEnd() && peek() != '}')
          advance();
        if (atEnd())
          Diags.report(Start, "unterminated '{' comment");
        else
          advance();
        continue;
      }
      break;
    }
  }

  /// A token spelled by the source from \p Begin to the current position.
  Token make(TokenKind Kind, SourceLoc Loc, std::size_t Begin) const {
    return Token{Kind, Source.substr(Begin, Pos - Begin), Loc};
  }

  Token next() {
    skipTrivia();
    SourceLoc Loc{Line, Col};
    if (atEnd())
      return make(TokenKind::Eof, Loc, Pos);

    const std::size_t Begin = Pos;
    char C = advance();
    if (isIdentStart(C)) {
      // Identifier characters never include '\n', so the column advances
      // by the token's length.
      while (!atEnd() && isIdentChar(Source[Pos]))
        ++Pos;
      Col += static_cast<unsigned>(Pos - Begin - 1);
      return make(keywordOrIdentifier(Source.substr(Begin, Pos - Begin)), Loc,
                  Begin);
    }

    if (isDigit(C)) {
      while (!atEnd() && isDigit(Source[Pos]))
        ++Pos;
      Col += static_cast<unsigned>(Pos - Begin - 1);
      return make(TokenKind::Number, Loc, Begin);
    }

    switch (C) {
    case ':':
      if (peek() == '=') {
        advance();
        return make(TokenKind::Assign, Loc, Begin);
      }
      Diags.report(Loc, "expected '=' after ':'");
      return make(TokenKind::Error, Loc, Begin);
    case ';':
      return make(TokenKind::Semicolon, Loc, Begin);
    case ',':
      return make(TokenKind::Comma, Loc, Begin);
    case '(':
      return make(TokenKind::LParen, Loc, Begin);
    case ')':
      return make(TokenKind::RParen, Loc, Begin);
    case '+':
      return make(TokenKind::Plus, Loc, Begin);
    case '-':
      return make(TokenKind::Minus, Loc, Begin);
    case '*':
      return make(TokenKind::Star, Loc, Begin);
    case '/':
      return make(TokenKind::Slash, Loc, Begin);
    case '.':
      return make(TokenKind::Dot, Loc, Begin);
    default:
      Diags.report(Loc, std::string("unexpected character '") + C + "'");
      return make(TokenKind::Error, Loc, Begin);
    }
  }

  std::string_view Source;
  DiagnosticEngine &Diags;
  std::size_t Pos = 0;
  unsigned Line = 1;
  unsigned Col = 1;
};

} // namespace

std::vector<Token> frontend::lex(std::string_view Source,
                                 DiagnosticEngine &Diags) {
  return LexerImpl(Source, Diags).run();
}
