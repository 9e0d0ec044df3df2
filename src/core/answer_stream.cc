#include "core/answer_stream.h"

#include <algorithm>

#include "boolexpr/codec.h"
#include "core/messages.h"

namespace paxml {

void ShipAnswersStreamed(SiteContext& ctx, const Tree& tree,
                         FragmentId fragment,
                         const std::vector<NodeId>& answers,
                         AnswerShipMode mode, bool account_ids) {
  // Header chunk: the AnswerUpMessage prefix. The receiver decodes the
  // merged part as one ordinary AnswerUpMessage (core/messages.h).
  Envelope head;
  head.to = ctx.query_site();
  head.category = PayloadCategory::kAnswer;
  ByteWriter header;
  header.PutVarint(static_cast<uint64_t>(fragment));
  header.PutVarint(answers.size());
  WirePart head_part{MessageKind::kAnswerUp, fragment,
                     std::move(header).Take(), account_ids};
  // Pin the logical size explicitly (header bytes are identical in both
  // codings) so every delta-coded answer part carries a non-sentinel
  // logical size — the raw-vs-wire split in RunStats counts whole parts.
  head_part.logical_bytes = head_part.bytes.size();
  head.parts.push_back(std::move(head_part));

  // One delta encoder across all chunks: the chunk boundaries are
  // invisible on the wire, so the merged part still decodes as one
  // ordinary AnswerUpMessage. The *logical* size of each chunk is what
  // the absolute-varint coding would have cost — the paper-model counters
  // (per-edge bytes, visits) price that, bit-identical to the pre-delta
  // wire, while the frame ships the smaller delta bytes.
  EnvelopeStream stream(ctx, std::move(head));
  DeltaIdEncoder delta;
  for (size_t i = 0; i < answers.size(); i += kAnswerChunkIds) {
    const size_t n = std::min(kAnswerChunkIds, answers.size() - i);
    ByteWriter ids;
    uint64_t logical = 0;
    for (size_t j = 0; j < n; ++j) {
      const uint64_t id = static_cast<uint64_t>(answers[i + j]);
      delta.Append(id, &ids);
      logical += VarintSize(id);
    }
    stream.AppendRecoded(ids.bytes(), logical,
                         AnswerBytes(tree, &answers[i], n, mode));
  }
  stream.Close();
}

void ShipDataStreamed(SiteContext& ctx, FragmentId fragment,
                      uint64_t total_bytes) {
  Envelope head;
  head.to = ctx.query_site();
  head.category = PayloadCategory::kData;
  head.parts.push_back({MessageKind::kDataShip, fragment, {}, false});

  EnvelopeStream stream(ctx, std::move(head));
  for (uint64_t shipped = 0; shipped < total_bytes;
       shipped += kDataChunkBytes) {
    stream.Append({}, std::min(kDataChunkBytes, total_bytes - shipped));
  }
  stream.Close();
}

}  // namespace paxml
