//===- frontend/Frontend.cpp - One-call MiniProc driver -----------------------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"

#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "observe/Trace.h"

using namespace ipse;
using namespace ipse::frontend;

CompileResult frontend::compileMiniProc(std::string_view Source) {
  CompileResult Result;
  observe::ManualSpan LexSpan("lex");
  std::vector<Token> Tokens = lex(Source, Result.Diags);
  LexSpan.close();
  if (Result.Diags.hasErrors())
    return Result;
  observe::ManualSpan ParseSpan("parse");
  std::unique_ptr<ast::ProgramAst> Ast = parse(Tokens, Result.Diags);
  ParseSpan.close();
  if (!Ast)
    return Result;
  observe::TraceSpan SemaSpan("sema");
  Result.Program = lowerToIr(*Ast, Result.Diags);
  return Result;
}
