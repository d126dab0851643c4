//===- ir/Printer.h - Human-readable program dumps --------------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders an ir::Program as indented text for debugging and examples, and
/// variable sets as the sorted "a, p.b, ..." lists reports and queries
/// print.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_IR_PRINTER_H
#define IPSE_IR_PRINTER_H

#include "ir/Program.h"
#include "support/EffectSet.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ipse {
namespace ir {

/// Returns a multi-line rendering of the whole program: the nesting tree,
/// each procedure's formals/locals, and each statement's LMOD/LUSE and
/// calls.
std::string printProgram(const Program &P);

/// Returns "name" for a variable, qualified as "proc.name" when the
/// variable is not global.
std::string qualifiedName(const Program &P, VarId V);

/// Renders \p Set as its members' qualified names in byte-wise order,
/// separated by ", " ("a, p.b, q.c").  Costs O(k log k) string work for a
/// k-member set and nothing per program, which suits single-set answers;
/// a renderer printing many sets of one program uses VarNameOrder.
std::string setToString(const Program &P, const EffectSet &Set);

/// Every variable's qualified name, computed once and ranked by a single
/// sort, so a set renders by sorting its members' integer ranks instead
/// of their names.  appendSet() yields exactly setToString()'s text.
/// Building costs O(V log V) string comparisons for V variables.
class VarNameOrder {
public:
  explicit VarNameOrder(const Program &P);

  /// Appends setToString(P, \p Set) to \p Out.  \p Ranks is scratch
  /// storage, reused across calls to avoid reallocating.
  void appendSet(std::string &Out, const EffectSet &Set,
                 std::vector<std::uint32_t> &Ranks) const;

private:
  /// RankOf[v] is v's position in the sorted order of qualified names;
  /// variables with equal names get adjacent ranks.
  std::vector<std::uint32_t> RankOf;
  std::vector<std::string> NameOfRank;
};

} // namespace ir
} // namespace ipse

#endif // IPSE_IR_PRINTER_H
