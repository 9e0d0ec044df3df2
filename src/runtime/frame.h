// Frame: the unit that actually goes on the wire.
//
// The algorithms think in Envelopes — one typed bundle of WireParts per
// logical message. The network (modeled today by NetworkCostModel, real
// once a socket Transport exists) thinks in *frames*: at each round
// boundary the transport coalesces every envelope staged for the same
// (run, destination edge) into one Frame, so a round's traffic on an edge
// pays per-message costs (latency, header overhead) once instead of once
// per envelope. Batching is per-run by construction — the staging key
// includes the RunId — so concurrent evaluations never share a frame
// (invariant 5, DESIGN.md §6).
//
// A Frame has a binary codec over the existing WirePart encodings
// (core/messages.h payloads travel as the same bytes the parts already
// hold). The codec round-trips *everything* accounting depends on —
// envelope `accounted` flags, part `accounted` flags, phantom byte counts,
// payload categories — so a re-decoded frame reproduces RunStats exactly
// (AccountFrame below; tested property). This is the wire format the
// ROADMAP's socket transport will write to a TCP stream: header metadata
// (run, edge, per-edge sequence number) is exactly what reassembly and
// ordering need on a real connection.

#ifndef PAXML_RUNTIME_FRAME_H_
#define PAXML_RUNTIME_FRAME_H_

#include <cstdint>
#include <vector>

#include "boolexpr/codec.h"
#include "common/result.h"
#include "runtime/transport.h"
#include "sim/stats.h"

namespace paxml {

/// One framed unit of (run, edge) traffic: every envelope the run staged
/// for this edge between two round boundaries, in send order.
struct Frame {
  RunId run = kNullRun;

  /// The directed edge. `from` may be kNullSite for coordinator-originated
  /// envelopes a test injects without stamping a sender.
  SiteId from = kNullSite;
  SiteId to = kNullSite;

  /// Position of this frame in the edge's stream (0, 1, 2, ... per
  /// (run, edge) for the transport's lifetime). Pure header metadata today;
  /// a socket transport uses it to detect loss and reordering.
  uint64_t sequence = 0;

  std::vector<Envelope> envelopes;

  /// Sum of the accounted envelopes' wire bytes (phantom included).
  uint64_t AccountedBytes() const;

  /// True if the frame carries at least one accounted envelope — only such
  /// frames count as messages (a frame of pure control-plane requests is
  /// free, exactly as the unbatched request envelopes were).
  bool Accounted() const;

  /// Serializes the frame: header (run, edge, sequence), then each
  /// envelope with its category, accounted flag, phantom bytes and parts
  /// (kind, fragment, a flags byte — bit 0 accounted, bit 1 "carries a
  /// logical size" — the optional logical byte count, payload bytes).
  /// Deterministic: re-encoding a decoded frame is byte-identical (tested
  /// property).
  void Encode(ByteWriter* out) const;

  /// Exactly Encode()'s output size (tested property), computed without
  /// materializing the buffer — what RunStats::wire_bytes accounts per
  /// sealed frame.
  uint64_t EncodedSize() const;

  /// Decodes one frame; rejects trailing garbage within the envelope
  /// structure but leaves the reader positioned after the frame, so frames
  /// can be concatenated on a stream.
  static Result<Frame> Decode(ByteReader* in);
};

/// Accounts one accounted, non-local envelope's bytes into `stats`
/// (category split, per-site and per-edge byte totals, total_envelopes) —
/// everything *except* the message count, which belongs to the frame (or,
/// unbatched, to the envelope itself). The caller has already checked
/// accounted/local.
void AccountEnvelopeBytes(const Envelope& env, RunStats* stats);

/// Accounts a delivered frame into `stats`: every accounted envelope's
/// bytes plus — if the frame is accounted at all — one message on the
/// frame's edge. Applying this to a Decode()d copy of a frame reproduces
/// the exact RunStats deltas of the original (tested property). The wire
/// counters grow by EncodedSize().
void AccountFrame(const Frame& frame, RunStats* stats);

/// Same, with the frame's wire size already known (`wire.bytes`, the
/// kFrame record payload a socket wrote or read).
void AccountFrameWire(const Frame& frame, RunStats* stats,
                      const FrameWireInfo& wire);

}  // namespace paxml

#endif  // PAXML_RUNTIME_FRAME_H_
