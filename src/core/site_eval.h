// Site-side building blocks shared by ParBoX, PaX3 and PaX2.
//
// Each fragment evaluation owns a FormulaArena; unknowns are introduced as
// the provenance-encoded variables of core/vars.h. These helpers wire the
// generic passes of src/eval to the fragmented setting: variables for
// virtual nodes, z-variable (or concrete) stack initializations, resolution
// of residual vectors against values received from the coordinator, and
// answer-shipping byte accounting.

#ifndef PAXML_CORE_SITE_EVAL_H_
#define PAXML_CORE_SITE_EVAL_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "boolexpr/formula.h"
#include "core/distributed_result.h"
#include "core/messages.h"
#include "core/vars.h"
#include "eval/domain.h"
#include "eval/qualifier_pass.h"
#include "eval/selection_pass.h"
#include "fragment/fragment.h"
#include "xpath/query_plan.h"

namespace paxml {

/// Result of the qualifier stage over one fragment: residual vectors over
/// the fragment's virtual-child variables. Lives at the site between visits.
struct FragmentQualEval {
  std::unique_ptr<FormulaArena> arena;
  QualVectors<FormulaDomain> vectors;
  uint64_t ops = 0;
};

/// Runs the bottom-up qualifier pass over `frag` with fresh variables for
/// every virtual node (Stage 1 of PaX3 / the ParBoX stage).
FragmentQualEval RunFragmentQualifierStage(const Fragment& frag,
                                           const CompiledQuery& query);

/// Builds the stage-1 reply: the fragment root's (QV, QDV) residual rows.
/// When `include_root_qual` is set (root fragment of a Boolean query), the
/// query's root qualifier at the fragment root is attached.
QualUpMessage BuildQualUp(const Fragment& frag, const CompiledQuery& query,
                          const FragmentQualEval& eval);

/// Resolved boolean truth of the root qualifier at the (global) root
/// element, from resolved vectors.
bool RootQualifierValue(const Fragment& root_fragment,
                        const CompiledQuery& query,
                        const QualVectors<BoolDomain>& vectors);

/// Turns the residual qualifier vectors into concrete boolean vectors using
/// the resolved child rows received from the coordinator (Stage 2 of PaX3).
Result<QualVectors<BoolDomain>> ResolveQualVectors(
    const Fragment& frag, const CompiledQuery& query,
    const FragmentQualEval& eval, const QualDownMessage& resolved);

/// Stack initialization of fresh z variables for a non-root fragment
/// (entry 0, the document-node entry, is constant false at any real node).
std::vector<Formula> VariableStackInit(const CompiledQuery& query,
                                       FragmentId fragment,
                                       FormulaArena* arena);

/// Lifts a concrete boolean vector into constant formulas.
std::vector<Formula> ConstStackInit(const std::vector<uint8_t>& values);

/// Bytes needed to ship the given answer nodes of `tree` (see
/// AnswerShipMode). Additive per answer, so a chunked shipment
/// (core/answer_stream.h) accounts the same total as a monolithic one —
/// the subrange overload is what the chunks use. O(1) per answer: an
/// element's subtree size is a lookup in Tree::SerializedSizes, a text
/// answer costs its unescaped text.
uint64_t AnswerBytes(const Tree& tree, const std::vector<NodeId>& answers,
                     AnswerShipMode mode);
uint64_t AnswerBytes(const Tree& tree, const NodeId* answers, size_t count,
                     AnswerShipMode mode);

}  // namespace paxml

#endif  // PAXML_CORE_SITE_EVAL_H_
