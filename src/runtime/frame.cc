#include "runtime/frame.h"

#include "common/logging.h"

namespace paxml {

namespace {

// Sites and fragments are signed with -1 as the null sentinel; shift by one
// so the varint encoding stays single-byte for the common small ids.
uint64_t EncodeId(int32_t v) { return static_cast<uint64_t>(v + 1); }

// The decoder consumes untrusted wire input: reject anything that would
// wrap the int32 shift (a corrupt varint must surface as a parse error,
// never as a bogus id).
Result<int32_t> DecodeId(uint64_t v) {
  if (v > 0x7fffffff) return Status::ParseError("frame: id out of range");
  return static_cast<int32_t>(v) - 1;
}

// Envelope flag byte: bit 0 = accounted, bits 1-2 = payload category.
uint8_t EnvelopeFlags(const Envelope& env) {
  return static_cast<uint8_t>((env.accounted ? 1 : 0) |
                              (static_cast<uint8_t>(env.category) << 1));
}

// Part flag byte: bit 0 = accounted, bit 1 = an explicit logical size
// follows (delta-transcoded payloads whose accounted size differs from the
// shipped bytes).
uint8_t PartFlags(const WirePart& part) {
  return static_cast<uint8_t>((part.accounted ? 1 : 0) |
                              (part.logical_bytes != 0 ? 2 : 0));
}

}  // namespace

uint64_t Frame::AccountedBytes() const {
  uint64_t bytes = 0;
  for (const Envelope& env : envelopes) {
    if (env.accounted) bytes += env.WireBytes();
  }
  return bytes;
}

bool Frame::Accounted() const {
  for (const Envelope& env : envelopes) {
    if (env.accounted) return true;
  }
  return false;
}

void Frame::Encode(ByteWriter* out) const {
  out->PutVarint(run);
  out->PutVarint(EncodeId(from));
  out->PutVarint(EncodeId(to));
  out->PutVarint(sequence);
  out->PutVarint(envelopes.size());
  for (const Envelope& env : envelopes) {
    out->PutU8(EnvelopeFlags(env));
    out->PutVarint(env.phantom_bytes);
    out->PutVarint(env.parts.size());
    for (const WirePart& part : env.parts) {
      out->PutU8(static_cast<uint8_t>(part.kind));
      out->PutVarint(EncodeId(part.fragment));
      out->PutU8(PartFlags(part));
      if (part.logical_bytes != 0) out->PutVarint(part.logical_bytes);
      out->PutString(part.bytes);
    }
  }
}

uint64_t Frame::EncodedSize() const {
  uint64_t n = VarintSize(run) + VarintSize(EncodeId(from)) +
               VarintSize(EncodeId(to)) + VarintSize(sequence) +
               VarintSize(envelopes.size());
  for (const Envelope& env : envelopes) {
    n += 1 + VarintSize(env.phantom_bytes) + VarintSize(env.parts.size());
    for (const WirePart& part : env.parts) {
      n += 1 + VarintSize(EncodeId(part.fragment)) + 1 +
           (part.logical_bytes != 0 ? VarintSize(part.logical_bytes) : 0) +
           VarintSize(part.bytes.size()) + part.bytes.size();
    }
  }
  return n;
}

Result<Frame> Frame::Decode(ByteReader* in) {
  Frame frame;
  PAXML_ASSIGN_OR_RETURN(uint64_t run, in->GetVarint());
  frame.run = run;
  PAXML_ASSIGN_OR_RETURN(uint64_t from, in->GetVarint());
  PAXML_ASSIGN_OR_RETURN(frame.from, DecodeId(from));
  PAXML_ASSIGN_OR_RETURN(uint64_t to, in->GetVarint());
  PAXML_ASSIGN_OR_RETURN(frame.to, DecodeId(to));
  if (frame.to == kNullSite) {
    return Status::ParseError("frame: null destination");
  }
  PAXML_ASSIGN_OR_RETURN(frame.sequence, in->GetVarint());
  PAXML_ASSIGN_OR_RETURN(uint64_t envelope_count, in->GetVarint());
  // Counts come off the wire: bound them by what the remaining bytes could
  // possibly hold (>= 3 bytes per envelope, >= 4 per part) before any
  // reserve, so a corrupt header is a parse error, not an allocation blast.
  if (envelope_count > in->remaining() / 3) {
    return Status::ParseError("frame: envelope count past buffer end");
  }
  frame.envelopes.reserve(envelope_count);
  for (uint64_t i = 0; i < envelope_count; ++i) {
    Envelope env;
    env.run = frame.run;
    env.from = frame.from;
    env.to = frame.to;
    PAXML_ASSIGN_OR_RETURN(uint8_t flags, in->GetU8());
    if (flags >> 3) return Status::ParseError("frame: bad envelope flags");
    env.accounted = (flags & 1) != 0;
    const uint8_t category = flags >> 1;
    if (category > static_cast<uint8_t>(PayloadCategory::kData)) {
      return Status::ParseError("frame: bad payload category");
    }
    env.category = static_cast<PayloadCategory>(category);
    PAXML_ASSIGN_OR_RETURN(env.phantom_bytes, in->GetVarint());
    PAXML_ASSIGN_OR_RETURN(uint64_t part_count, in->GetVarint());
    if (part_count > in->remaining() / 4) {
      return Status::ParseError("frame: part count past buffer end");
    }
    env.parts.reserve(part_count);
    for (uint64_t p = 0; p < part_count; ++p) {
      WirePart part;
      PAXML_ASSIGN_OR_RETURN(uint8_t kind, in->GetU8());
      if (kind > static_cast<uint8_t>(MessageKind::kReachUp)) {
        return Status::ParseError("frame: bad message kind");
      }
      part.kind = static_cast<MessageKind>(kind);
      PAXML_ASSIGN_OR_RETURN(uint64_t fragment, in->GetVarint());
      PAXML_ASSIGN_OR_RETURN(part.fragment, DecodeId(fragment));
      PAXML_ASSIGN_OR_RETURN(uint8_t part_flags, in->GetU8());
      if (part_flags > 3) return Status::ParseError("frame: bad part flag");
      part.accounted = (part_flags & 1) != 0;
      if ((part_flags & 2) != 0) {
        PAXML_ASSIGN_OR_RETURN(part.logical_bytes, in->GetVarint());
        // 0 would re-encode without the flag bit, breaking the
        // re-encode-byte-identical property; reject it as corrupt.
        if (part.logical_bytes == 0) {
          return Status::ParseError("frame: zero logical size");
        }
      }
      PAXML_ASSIGN_OR_RETURN(part.bytes, in->GetString());
      env.parts.push_back(std::move(part));
    }
    frame.envelopes.push_back(std::move(env));
  }
  return frame;
}

void AccountEnvelopeBytes(const Envelope& env, RunStats* stats) {
  // Decoded frames may carry wire input: a site id outside the stats
  // vector is a caller bug (sockets must validate against the cluster
  // before accounting), caught here rather than written out of bounds.
  PAXML_CHECK_LT(static_cast<size_t>(env.to), stats->per_site.size());
  PAXML_CHECK(env.from == kNullSite ||
              static_cast<size_t>(env.from) < stats->per_site.size());
  const uint64_t bytes = env.WireBytes();
  ++stats->total_envelopes;
  stats->total_bytes += bytes;
  switch (env.category) {
    case PayloadCategory::kAnswer:
      stats->answer_bytes += bytes;
      break;
    case PayloadCategory::kData:
      stats->data_bytes_shipped += bytes;
      break;
    case PayloadCategory::kControl:
      break;
  }
  if (env.from != kNullSite) {
    stats->per_site[static_cast<size_t>(env.from)].bytes_sent += bytes;
  }
  stats->per_site[static_cast<size_t>(env.to)].bytes_received += bytes;
  stats->edges[{env.from, env.to}].bytes += bytes;
  ++stats->edges[{env.from, env.to}].envelopes;
  // Delta-codec visibility: parts whose shipped bytes were transcoded away
  // from their logical encoding report both sizes, accounted or not (the
  // phantom-answer mode delta-encodes its unaccounted id list too).
  for (const WirePart& p : env.parts) {
    if (p.logical_bytes != 0) {
      stats->delta_logical_bytes += p.logical_bytes;
      stats->delta_wire_bytes += p.bytes.size();
    }
  }
}

void AccountFrame(const Frame& frame, RunStats* stats) {
  AccountFrameWire(frame, stats, FrameWireInfo{frame.EncodedSize()});
}

void AccountFrameWire(const Frame& frame, RunStats* stats,
                      const FrameWireInfo& wire) {
  for (const Envelope& env : frame.envelopes) {
    if (env.accounted) AccountEnvelopeBytes(env, stats);
  }
  // Every frame is physically written, control-plane or not: wire_bytes is
  // what a socket moves, while the counters below follow the paper's model
  // (request frames are free, phantom bytes are counted).
  stats->wire_bytes += wire.bytes;
  stats->wire_raw_bytes += wire.bytes;
  if (!frame.Accounted()) return;
  PAXML_CHECK_LT(static_cast<size_t>(frame.to), stats->per_site.size());
  PAXML_CHECK(frame.from == kNullSite ||
              static_cast<size_t>(frame.from) < stats->per_site.size());
  ++stats->total_messages;
  if (frame.from != kNullSite) {
    ++stats->per_site[static_cast<size_t>(frame.from)].messages_sent;
  }
  ++stats->per_site[static_cast<size_t>(frame.to)].messages_received;
  ++stats->edges[{frame.from, frame.to}].messages;
}

}  // namespace paxml
