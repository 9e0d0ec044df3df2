// Streamed answer and data shipment: the O(|ans|) term of the paper's
// communication bound, emitted incrementally.
//
// Every algorithm used to ship a fragment's answers as one monolithic
// AnswerUpMessage envelope per round. These helpers emit the same payload
// as bounded chunks appended to the transport's open frame
// (runtime/site_runtime.h EnvelopeStream): the header chunk carries the
// AnswerUpMessage prefix (fragment id, total count) and each id chunk
// appends varint-encoded node ids, so the concatenation is byte-identical
// to the monolithic encoding — accounting, decoding and the receiving
// handlers are unchanged, while no site materializes an unbounded answer
// shipment. The modeled answer payload (AnswerBytes phantom bytes) is
// accounted additively per chunk.

#ifndef PAXML_CORE_ANSWER_STREAM_H_
#define PAXML_CORE_ANSWER_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/site_eval.h"
#include "runtime/site_runtime.h"
#include "xml/tree.h"

namespace paxml {

/// Node ids per answer chunk. Chunks extend the open frame and concatenate
/// to the exact AnswerUpMessage encoding, so the size never shows on the
/// wire; it only bounds what one append materializes.
inline constexpr size_t kAnswerChunkIds = 256;

/// Phantom bytes per chunk of a streamed raw-data shipment.
inline constexpr uint64_t kDataChunkBytes = 64 * 1024;

/// Ships `fragment`'s settled answers from `ctx`'s site to the
/// coordinator as a streamed AnswerUpMessage in chunks of kAnswerChunkIds
/// ids. `account_ids` mirrors the old per-algorithm flag — false when the
/// id list merely indexes answers that already travel as self-describing
/// phantom XML (the concrete-init single-visit paths), so only AnswerBytes
/// is accounted.
void ShipAnswersStreamed(SiteContext& ctx, const Tree& tree,
                         FragmentId fragment,
                         const std::vector<NodeId>& answers,
                         AnswerShipMode mode, bool account_ids);

/// Ships one fragment's raw serialized data (the naive baseline) as a
/// streamed kDataShip envelope: `total_bytes` modeled phantom bytes are
/// appended in chunks of kDataChunkBytes instead of one monolithic
/// shipment.
void ShipDataStreamed(SiteContext& ctx, FragmentId fragment,
                      uint64_t total_bytes);

}  // namespace paxml

#endif  // PAXML_CORE_ANSWER_STREAM_H_
