// XmlMessageHandlers: the XML workload family's typed handler surface.
//
// The runtime's MessageHandlers seam (runtime/site_runtime.h) hands an
// algorithm raw wire parts; this base class decodes the XML message kinds
// of core/messages.h — requests, qual/sel down- and up-messages, answer
// ships — into the typed callbacks the PaX/ParBoX/naive algorithms
// override. The dispatch switch lives here, behind the workload seam, so
// the runtime never names a data model (DESIGN.md §11). The graph family (core/reach.h) implements
// its own MessageHandlers subclass the same way.

#ifndef PAXML_CORE_XML_HANDLERS_H_
#define PAXML_CORE_XML_HANDLERS_H_

#include <cstdint>

#include "common/result.h"
#include "core/messages.h"
#include "runtime/site_runtime.h"

namespace paxml {

/// Typed XML message handlers. Overriding algorithms keep the threading
/// contract documented on MessageHandlers: site-side callbacks confine
/// mutable state to per-fragment slots; coordinator-side callbacks run
/// single-threaded on the driver thread.
class XmlMessageHandlers : public MessageHandlers {
 public:
  /// Arena that decoded QualUp/SelUp formulas are interned into. Must be
  /// overridden by algorithms whose coordinator receives formula-bearing
  /// messages.
  virtual FormulaArena* DecodeArena() { return nullptr; }

  /// The query text arrived. Purely a cost-model event in the simulator
  /// (every handler object already knows its CompiledQuery), hence a no-op
  /// default.
  virtual Status OnQueryShip(SiteContext& ctx);

  // Control plane, coordinator -> site.
  virtual Status OnQualRequest(SiteContext& ctx, FragmentId fragment);
  virtual Status OnSelRequest(SiteContext& ctx, FragmentId fragment);
  virtual Status OnAnswerRequest(SiteContext& ctx, FragmentId fragment);
  virtual Status OnDataRequest(SiteContext& ctx, FragmentId fragment);

  // Resolved values, coordinator -> site.
  virtual Status OnQualDown(SiteContext& ctx, QualDownMessage message);
  virtual Status OnSelDown(SiteContext& ctx, SelDownMessage message);

  // Partial answers, site -> coordinator.
  virtual Status OnQualUp(SiteContext& ctx, QualUpMessage message);
  virtual Status OnSelUp(SiteContext& ctx, SelUpMessage message);
  virtual Status OnAnswerUp(SiteContext& ctx, AnswerUpMessage message);

  /// Raw tree data arrived (naive baseline; `bytes` is the modeled size).
  virtual Status OnDataShip(SiteContext& ctx, FragmentId fragment,
                            uint64_t bytes);

  /// Decodes `part` into the typed callback for its kind. Final: the XML
  /// family's wire surface is closed; algorithms extend the typed
  /// callbacks, not the decode switch.
  Status OnPart(SiteContext& ctx, const Envelope& env,
                const WirePart& part) final;
};

}  // namespace paxml

#endif  // PAXML_CORE_XML_HANDLERS_H_
