//===- ir/Program.h - Interprocedural program model -------------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program model the analyses run over.  It captures exactly what the
/// paper's problem needs and nothing more: procedures with reference formal
/// parameters and lexical nesting, variables (globals, locals, formals),
/// statements annotated with their local effects (LMOD / LUSE), and call
/// sites with actual-argument lists.
///
/// The main program is itself a procedure (at nesting level 0) whose locals
/// are the program's global variables; this matches the paper's footnote 3,
/// which allows GMOD(main) to be non-empty.  Main is never a callee.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_IR_PROGRAM_H
#define IPSE_IR_PROGRAM_H

#include "ir/Ids.h"
#include "support/StringInterner.h"

#include <cassert>
#include <string>
#include <vector>

namespace ipse {
namespace persist {
class ProgramCodec;
}
namespace ir {

/// What scope a variable belongs to.
enum class VarKind {
  Global, ///< Declared by the main program (nesting level 0).
  Local,  ///< Declared by a procedure.
  Formal  ///< A reference formal parameter of a procedure.
};

/// A scalar (or whole-array) variable.
struct Variable {
  SymbolId Name = InvalidSymbol;
  VarKind Kind = VarKind::Global;
  /// The procedure that declares this variable (main for globals).
  ProcId Owner;
  /// Zero-based ordinal among Owner's formals; only valid for formals.
  unsigned FormalPos = ~0u;
};

/// One actual argument at a call site: either a variable passed by
/// reference, or a non-variable expression (a literal or computed value),
/// which can be neither modified nor bound and generates no binding edge.
struct Actual {
  /// The variable passed, or an invalid id for a non-variable expression.
  VarId Var;

  static Actual variable(VarId V) { return Actual{V}; }
  static Actual expression() { return Actual{VarId()}; }
  bool isVariable() const { return Var.isValid(); }

  friend bool operator==(const Actual &, const Actual &) = default;
};

/// A call site e = (p, q): an invocation of Callee from a statement in
/// Caller's body, with an ordered list of actual arguments.
struct CallSite {
  ProcId Caller;
  ProcId Callee;
  StmtId Stmt; ///< The statement containing the call.
  std::vector<Actual> Actuals;
};

/// A statement, reduced to its analysis-relevant content: the variables it
/// may modify or use directly (LMOD(s) / LUSE(s), exclusive of calls) and
/// the call sites it contains.
struct Statement {
  ProcId Parent;
  std::vector<VarId> LMod;
  std::vector<VarId> LUse;
  std::vector<CallSiteId> Calls;
};

/// A procedure p: formals, locals, body statements, own call sites, and its
/// position in the lexical nesting tree.
struct Procedure {
  SymbolId Name = InvalidSymbol;
  /// The lexically enclosing procedure; invalid only for main.
  ProcId Parent;
  /// Nesting level: main is 0, a procedure declared at level k is k+1.
  unsigned Level = 0;
  /// Nest(p): procedures declared directly inside p.
  std::vector<ProcId> Nested;
  std::vector<VarId> Formals;
  std::vector<VarId> Locals;
  std::vector<StmtId> Stmts;
  /// Call sites appearing in p's own body (not in nested procedures).
  std::vector<CallSiteId> CallSites;
};

/// An immutable whole program.  Build one with ProgramBuilder.
///
/// Dense ids: procedures, variables, statements, and call sites are stored
/// in flat tables indexed by their ids, so analyses can allocate dense side
/// arrays.  Iteration in id order is deterministic.
class Program {
public:
  /// The main program; always procedure 0.
  ProcId main() const { return ProcId(0); }

  std::size_t numProcs() const { return Procs.size(); }
  std::size_t numVars() const { return Vars.size(); }
  std::size_t numStmts() const { return Stmts.size(); }
  std::size_t numCallSites() const { return Calls.size(); }

  const Procedure &proc(ProcId Id) const {
    assert(Id.index() < Procs.size() && "invalid ProcId");
    return Procs[Id.index()];
  }
  const Variable &var(VarId Id) const {
    assert(Id.index() < Vars.size() && "invalid VarId");
    return Vars[Id.index()];
  }
  const Statement &stmt(StmtId Id) const {
    assert(Id.index() < Stmts.size() && "invalid StmtId");
    return Stmts[Id.index()];
  }
  const CallSite &callSite(CallSiteId Id) const {
    assert(Id.index() < Calls.size() && "invalid CallSiteId");
    return Calls[Id.index()];
  }

  /// Returns the name of a procedure / variable.
  const std::string &name(ProcId Id) const {
    return Names.text(proc(Id).Name);
  }
  const std::string &name(VarId Id) const { return Names.text(var(Id).Name); }

  /// Returns the nesting level of a variable: 0 for globals, otherwise the
  /// level of the declaring procedure.
  unsigned varLevel(VarId Id) const { return proc(var(Id).Owner).Level; }

  /// The maximum procedure nesting level dP (1 for a two-level program).
  unsigned maxProcLevel() const { return MaxLevel; }

  /// Returns true if \p V is a global variable (declared by main).
  bool isGlobal(VarId V) const { return var(V).Kind == VarKind::Global; }

  /// Returns true if \p V belongs to LOCAL(p): p declares it as a local or
  /// a formal.  For main this is the set of globals.
  bool isLocalTo(VarId V, ProcId P) const { return var(V).Owner == P; }

  /// Returns true if \p V is visible inside \p P's body: declared by P or
  /// by one of its lexical ancestors.
  bool isVisibleIn(VarId V, ProcId P) const;

  /// Returns true if \p Ancestor is \p P or a lexical ancestor of \p P.
  bool isAncestorOrSelf(ProcId Ancestor, ProcId P) const;

  /// Checks all structural invariants; returns true and leaves \p ErrorOut
  /// empty on success, otherwise fills it with the first violation found.
  /// Invariants: id cross-references are consistent; main is procedure 0
  /// and is never a callee; every variable a statement touches is visible
  /// in its procedure; every callee is visible at the call site; actual
  /// counts match formal counts; levels match the nesting tree.
  bool verify(std::string &ErrorOut) const;

  /// The interner holding all names in this program.
  const StringInterner &names() const { return Names; }

private:
  friend class ProgramBuilder;
  friend class ProgramEditor;
  /// The snapshot serializer reads and reconstitutes the raw tables
  /// directly (persist/Snapshot.cpp); a decoded program is re-checked with
  /// verify() before anything consumes it.
  friend class persist::ProgramCodec;
  /// ir_test corrupts the tables directly to show verify() rejects them.
  friend struct ProgramTablesForTest;

  std::vector<Procedure> Procs;
  std::vector<Variable> Vars;
  std::vector<Statement> Stmts;
  std::vector<CallSite> Calls;
  StringInterner Names;
  unsigned MaxLevel = 0;
};

} // namespace ir
} // namespace ipse

#endif // IPSE_IR_PROGRAM_H
