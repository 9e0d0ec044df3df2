// Boolean-algebra domains for the shared evaluation passes.
//
// The paper's partial evaluation runs the *same* query logic in two modes:
//  * over complete information  -> truth values (centralized evaluation, or
//    a fragment whose dependencies are already resolved), and
//  * over incomplete information -> Boolean formulas with variables standing
//    for missing parts (residual functions).
//
// We express that by templating the qualifier and selection passes over a
// Domain: BoolDomain computes with plain booleans, FormulaDomain with
// hash-consed formulas. Both expose the same tiny interface, so the passes
// are written once, and the distributed algorithms provably perform the same
// per-node work as the centralized evaluator (Section 3.4: total computation
// O(|Q| |T|)).
//
// Where every value is known to be a constant, a pass may leave the domains
// altogether: PaX2 keeps the qualifier rows of a subtree with no virtual
// node as bit sets (BitQualStep, core/pax2.cc) and turns them into the
// constant handles kFalseFormula / kTrueFormula only where a FormulaDomain
// step reads them.

#ifndef PAXML_EVAL_DOMAIN_H_
#define PAXML_EVAL_DOMAIN_H_

#include <cstdint>
#include <optional>

#include "boolexpr/formula.h"

namespace paxml {

/// Plain boolean computation; used when every input is known.
class BoolDomain {
 public:
  /// uint8_t (not bool) so that std::vector<Value> is a real byte array.
  using Value = uint8_t;

  Value False() const { return 0; }
  Value True() const { return 1; }
  Value FromBool(bool b) const { return b ? 1 : 0; }
  Value And(Value a, Value b) const { return a & b; }
  Value Or(Value a, Value b) const { return a | b; }
  Value Not(Value a) const { return a ^ 1; }

  bool IsTrue(Value v) const { return v != 0; }
  bool IsFalse(Value v) const { return v == 0; }
  std::optional<bool> ConstValue(Value v) const { return v != 0; }
};

/// Residual-formula computation over a FormulaArena.
class FormulaDomain {
 public:
  using Value = Formula;

  explicit FormulaDomain(FormulaArena* arena) : arena_(arena) {}

  Value False() const { return kFalseFormula; }
  Value True() const { return kTrueFormula; }
  Value FromBool(bool b) const { return b ? kTrueFormula : kFalseFormula; }
  Value And(Value a, Value b) const { return arena_->And(a, b); }
  Value Or(Value a, Value b) const { return arena_->Or(a, b); }
  Value Not(Value a) const { return arena_->Not(a); }

  bool IsTrue(Value v) const { return v == kTrueFormula; }
  bool IsFalse(Value v) const { return v == kFalseFormula; }
  std::optional<bool> ConstValue(Value v) const { return arena_->ConstValue(v); }

  FormulaArena* arena() const { return arena_; }

 private:
  FormulaArena* arena_;
};

}  // namespace paxml

#endif  // PAXML_EVAL_DOMAIN_H_
