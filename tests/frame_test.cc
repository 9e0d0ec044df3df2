// Tests for the framed message plane (runtime/frame.h, DESIGN.md §8):
//
//  * the Frame codec round-trips randomized frames — decode(encode(f))
//    preserves every field and re-encodes byte-identically, and a decoded
//    frame reproduces the original's exact RunStats accounting (phantom
//    bytes and `accounted` flags included);
//  * streamed envelope chunks (EnvelopeStream) merge into one envelope
//    whose bytes equal the monolithic encoding, on both the staged
//    (batched) and buffered (unbatched / local) paths;
//  * sealed frames are what RunStats::wire_bytes counts. That batching
//    changes nothing but messages and wire bytes is checked by the
//    equivalence matrix (equivalence_matrix_test.cc).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/answer_stream.h"
#include "core/engine.h"
#include "core/messages.h"
#include "core/site_eval.h"
#include "fragment/fragmenter.h"
#include "runtime/frame.h"
#include "runtime/site_runtime.h"
#include "runtime/transport.h"
#include "runtime/wire.h"
#include "test_util.h"

namespace paxml {
namespace {

using testing::EvaluateOn;
constexpr TransportKind kSync = TransportKind::kSync;

std::shared_ptr<FragmentedDocument> MakeClienteleDoc() {
  Tree t = testing::BuildClienteleTree();
  auto doc = FragmentByCuts(t, testing::ClienteleCuts(t));
  PAXML_CHECK(doc.ok());
  return std::make_shared<FragmentedDocument>(std::move(doc).ValueOrDie());
}

// ---- Codec: randomized round-trip -------------------------------------------

constexpr int kSiteCount = 6;

Frame RandomFrame(Rng& rng) {
  Frame frame;
  frame.run = rng.NextBounded(1000) + 1;
  frame.from = rng.NextBool(0.1)
                   ? kNullSite
                   : static_cast<SiteId>(rng.NextBounded(kSiteCount));
  // A frame's destination is always a real site (Send checks it).
  do {
    frame.to = static_cast<SiteId>(rng.NextBounded(kSiteCount));
  } while (frame.to == frame.from);
  frame.sequence = rng.NextBounded(1 << 20);
  const size_t envelopes = rng.NextBounded(5) + 1;
  for (size_t i = 0; i < envelopes; ++i) {
    Envelope env;
    env.run = frame.run;
    env.from = frame.from;
    env.to = frame.to;
    env.accounted = rng.NextBool(0.8);
    env.category = static_cast<PayloadCategory>(rng.NextBounded(3));
    env.phantom_bytes = rng.NextBool(0.3) ? rng.NextBounded(100000) : 0;
    const size_t parts = rng.NextBounded(4) + 1;
    for (size_t p = 0; p < parts; ++p) {
      WirePart part;
      part.kind = static_cast<MessageKind>(
          rng.NextBounded(static_cast<uint64_t>(MessageKind::kReachUp) + 1));
      part.fragment = rng.NextBool(0.2)
                          ? kNullFragment
                          : static_cast<FragmentId>(rng.NextBounded(64));
      part.accounted = rng.NextBool(0.8);
      part.bytes = rng.NextString(rng.NextBounded(200));
      if (rng.NextBool(0.3)) {
        // A delta-transcoded part: the logical (accounted) size differs
        // from the shipped bytes. Always nonzero by construction.
        part.logical_bytes = part.bytes.size() + 1 + rng.NextBounded(64);
      }
      env.parts.push_back(std::move(part));
    }
    frame.envelopes.push_back(std::move(env));
  }
  return frame;
}

TEST(FrameCodecTest, RandomizedRoundTripIsByteIdentical) {
  Rng rng(2024);
  for (int iter = 0; iter < 200; ++iter) {
    Frame frame = RandomFrame(rng);
    ByteWriter encoded;
    frame.Encode(&encoded);

    ByteReader reader(encoded.bytes());
    auto decoded = Frame::Decode(&reader);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_TRUE(reader.AtEnd());

    // Every field survives.
    EXPECT_EQ(decoded->run, frame.run);
    EXPECT_EQ(decoded->from, frame.from);
    EXPECT_EQ(decoded->to, frame.to);
    EXPECT_EQ(decoded->sequence, frame.sequence);
    ASSERT_EQ(decoded->envelopes.size(), frame.envelopes.size());
    for (size_t i = 0; i < frame.envelopes.size(); ++i) {
      const Envelope& a = frame.envelopes[i];
      const Envelope& b = decoded->envelopes[i];
      EXPECT_EQ(b.accounted, a.accounted);
      EXPECT_EQ(b.category, a.category);
      EXPECT_EQ(b.phantom_bytes, a.phantom_bytes);
      ASSERT_EQ(b.parts.size(), a.parts.size());
      for (size_t p = 0; p < a.parts.size(); ++p) {
        EXPECT_EQ(b.parts[p].kind, a.parts[p].kind);
        EXPECT_EQ(b.parts[p].fragment, a.parts[p].fragment);
        EXPECT_EQ(b.parts[p].accounted, a.parts[p].accounted);
        EXPECT_EQ(b.parts[p].bytes, a.parts[p].bytes);
        EXPECT_EQ(b.parts[p].logical_bytes, a.parts[p].logical_bytes);
        EXPECT_EQ(b.parts[p].LogicalSize(), a.parts[p].LogicalSize());
      }
      EXPECT_EQ(b.WireBytes(), a.WireBytes());
    }
    EXPECT_EQ(decoded->AccountedBytes(), frame.AccountedBytes());
    EXPECT_EQ(decoded->Accounted(), frame.Accounted());

    // Re-encoding the decoded frame is byte-identical.
    ByteWriter reencoded;
    decoded->Encode(&reencoded);
    EXPECT_EQ(reencoded.bytes(), encoded.bytes());
  }
}

// A re-decoded frame accounts into RunStats exactly as the original: the
// property that lets a socket transport reproduce the simulator's numbers.
TEST(FrameCodecTest, DecodedFrameReproducesRunStatsExactly) {
  Rng rng(7);
  for (int iter = 0; iter < 100; ++iter) {
    Frame frame = RandomFrame(rng);

    RunStats original;
    original.per_site.resize(kSiteCount);
    AccountFrame(frame, &original);

    ByteWriter encoded;
    frame.Encode(&encoded);
    ByteReader reader(encoded.bytes());
    auto decoded = Frame::Decode(&reader);
    ASSERT_TRUE(decoded.ok()) << decoded.status();

    RunStats replayed;
    replayed.per_site.resize(kSiteCount);
    AccountFrame(*decoded, &replayed);

    EXPECT_EQ(replayed.total_messages, original.total_messages);
    EXPECT_EQ(replayed.total_envelopes, original.total_envelopes);
    EXPECT_EQ(replayed.total_bytes, original.total_bytes);
    EXPECT_EQ(replayed.answer_bytes, original.answer_bytes);
    EXPECT_EQ(replayed.data_bytes_shipped, original.data_bytes_shipped);
    EXPECT_EQ(replayed.wire_bytes, original.wire_bytes);
    EXPECT_EQ(replayed.wire_raw_bytes, original.wire_raw_bytes);
    EXPECT_EQ(replayed.delta_logical_bytes, original.delta_logical_bytes);
    EXPECT_EQ(replayed.delta_wire_bytes, original.delta_wire_bytes);
    EXPECT_EQ(replayed.edges, original.edges);
    for (size_t s = 0; s < kSiteCount; ++s) {
      EXPECT_EQ(replayed.per_site[s].bytes_sent, original.per_site[s].bytes_sent);
      EXPECT_EQ(replayed.per_site[s].bytes_received,
                original.per_site[s].bytes_received);
      EXPECT_EQ(replayed.per_site[s].messages_sent,
                original.per_site[s].messages_sent);
      EXPECT_EQ(replayed.per_site[s].messages_received,
                original.per_site[s].messages_received);
    }
  }
}

TEST(FrameCodecTest, DecodeRejectsCorruptInput) {
  Frame frame;
  frame.run = 1;
  frame.from = 0;
  frame.to = 1;
  Envelope env;
  env.parts.push_back({MessageKind::kQualUp, 0, "payload", true});
  frame.envelopes.push_back(env);
  ByteWriter encoded;
  frame.Encode(&encoded);

  // Truncations anywhere must fail cleanly, never crash.
  const std::string& bytes = encoded.bytes();
  for (size_t cut = 0; cut + 1 < bytes.size(); ++cut) {
    ByteReader reader(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(Frame::Decode(&reader).ok()) << "cut at " << cut;
  }

  // A corrupt message kind is rejected. Layout of this frame: 5 one-byte
  // header varints (run, from, to, sequence, envelope count), then the
  // envelope's flag byte, phantom varint and part-count varint — the part's
  // kind byte sits at offset 8.
  std::string corrupt = bytes;
  corrupt[8] = static_cast<char>(0x7f);
  ByteReader bad(corrupt);
  EXPECT_FALSE(Frame::Decode(&bad).ok());
}

// Wire counts and ids are untrusted: a header claiming more envelopes (or
// parts) than the remaining bytes could hold, or an id past int32 range,
// must be a parse error — never an allocation attempt or a wrapped id.
TEST(FrameCodecTest, DecodeRejectsOversizedCountsAndIds) {
  {
    ByteWriter w;
    w.PutVarint(1);                      // run
    w.PutVarint(1);                      // from = 0
    w.PutVarint(2);                      // to = 1
    w.PutVarint(0);                      // sequence
    w.PutVarint(0x3fffffffffffffffull);  // absurd envelope count
    ByteReader in(w.bytes());
    EXPECT_FALSE(Frame::Decode(&in).ok());
  }
  {
    ByteWriter w;
    w.PutVarint(1);
    w.PutVarint(1);
    w.PutVarint(2);
    w.PutVarint(0);
    w.PutVarint(1);                      // one envelope
    w.PutU8(1);                          // accounted, control
    w.PutVarint(0);                      // phantom
    w.PutVarint(0x3fffffffffffffffull);  // absurd part count
    ByteReader in(w.bytes());
    EXPECT_FALSE(Frame::Decode(&in).ok());
  }
  {
    ByteWriter w;
    w.PutVarint(1);
    w.PutVarint(0xffffffffffull);  // from id past int32 range
    w.PutVarint(2);
    w.PutVarint(0);
    w.PutVarint(0);
    ByteReader in(w.bytes());
    EXPECT_FALSE(Frame::Decode(&in).ok());
  }
  {
    ByteWriter w;
    w.PutVarint(1);
    w.PutVarint(1);
    w.PutVarint(0);  // to = kNullSite: no frame has a null destination
    w.PutVarint(0);
    w.PutVarint(0);
    ByteReader in(w.bytes());
    EXPECT_FALSE(Frame::Decode(&in).ok());
  }
}

// The part flag byte admits exactly bits 0 (accounted) and 1 (explicit
// logical size); anything else — and a declared logical size of zero,
// which would re-encode without the flag — is corrupt input.
TEST(FrameCodecTest, DecodeRejectsBadPartFlags) {
  Frame frame;
  frame.run = 1;
  frame.from = 0;
  frame.to = 1;
  Envelope env;
  env.parts.push_back({MessageKind::kQualUp, 0, "payload", true});
  frame.envelopes.push_back(env);
  ByteWriter encoded;
  frame.Encode(&encoded);
  // Layout: 5 header varints, env flag, phantom, part count, part kind,
  // fragment — the part flag byte sits at offset 10.
  const size_t flag_at = 10;

  for (int flags : {4, 5, 7, 0x80, 0xff}) {
    std::string corrupt = encoded.bytes();
    corrupt[flag_at] = static_cast<char>(flags);
    ByteReader in(corrupt);
    EXPECT_FALSE(Frame::Decode(&in).ok()) << flags;
  }

  // has-logical flag with a zero logical size.
  std::string zero_logical = encoded.bytes();
  zero_logical[flag_at] = static_cast<char>(zero_logical[flag_at] | 2);
  zero_logical.insert(flag_at + 1, 1, '\0');
  ByteReader in(zero_logical);
  EXPECT_FALSE(Frame::Decode(&in).ok());
}

// ---- Wire frame records (runtime/wire.h) ------------------------------------

/// Runs `bytes` through RecordBuffer and returns the single record inside.
WireRecord OneRecord(const std::string& bytes) {
  RecordBuffer buf;
  buf.Append(bytes);
  auto record = buf.Next();
  PAXML_CHECK(record.ok() && record->has_value());
  auto none = buf.Next();
  PAXML_CHECK(none.ok() && !none->has_value());
  return std::move(**record);
}

// A frame has one wire form: a kFrame record holding Frame::Encode, priced
// at EncodedSize() — the number in-process transports account without
// encoding — and decoding back to a byte-identical frame.
TEST(FrameWireTest, FrameRecordHoldsTheEncodingAndPricesEncodedSize) {
  Rng rng(31);
  for (int iter = 0; iter < 50; ++iter) {
    const Frame frame = RandomFrame(rng);
    std::string bytes;
    const FrameWireInfo wire = AppendFrameRecord(frame, &bytes);
    EXPECT_EQ(wire.bytes, frame.EncodedSize());
    // The record payload is exactly the priced wire bytes (+5-byte record
    // header, which wire_bytes has never counted).
    EXPECT_EQ(bytes.size(), wire.bytes + 5);

    const WireRecord record = OneRecord(bytes);
    ASSERT_EQ(record.type, RecordType::kFrame);
    auto decoded = DecodeFrameRecord(record);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ByteWriter reencoded;
    decoded->Encode(&reencoded);
    EXPECT_EQ(reencoded.bytes(), record.payload);
  }
}

TEST(FrameWireTest, FrameRecordCorruptionIsClean) {
  Rng rng(32);
  const Frame frame = RandomFrame(rng);
  std::string bytes;
  AppendFrameRecord(frame, &bytes);
  const WireRecord record = OneRecord(bytes);

  // Truncating the payload anywhere fails cleanly.
  for (size_t cut = 0; cut < record.payload.size(); ++cut) {
    WireRecord truncated{RecordType::kFrame, record.payload.substr(0, cut)};
    EXPECT_FALSE(DecodeFrameRecord(truncated).ok()) << cut;
  }
  // Trailing bytes after the frame are rejected.
  WireRecord padded{RecordType::kFrame, record.payload + "x"};
  EXPECT_FALSE(DecodeFrameRecord(padded).ok());
}

// ---- Hello negotiation records ----------------------------------------------

// Every message-plane knob that shapes a sealed frame must survive the
// Hello: the peer mirrors them so both sides seal identical frames. This
// pins the set — exactly three fields — so a new knob that skips the Hello
// fails here, not as a socket-vs-sync accounting drift in a four-process
// test. The byte layout is pinned too: there is one form, and any change
// to it must bump kWireProtocolVersion.
HelloRecord AllKnobsHello() {
  HelloRecord hello;
  hello.site = 3;
  hello.options.site_threads = 5;
  hello.options.split_threshold_pct = 7;
  hello.options.peer_concurrent_rounds = 2;
  return hello;
}

TEST(HelloRecordTest, RoundTripCarriesEveryMirroredKnob) {
  HelloRecord hello = AllKnobsHello();
  hello.options.remote_endpoints[1] = "127.0.0.1:1";  // never mirrored
  hello.options.batching = false;                     // likewise

  ByteWriter w;
  hello.Encode(&w);
  EXPECT_EQ(w.bytes(), std::string("\x09\x00\x00\x00"  // version 9, u32 LE
                                   "\x04"              // site 3, +1-biased
                                   "\x05"              // site_threads
                                   "\x07"              // split_threshold_pct
                                   "\x02",             // peer_concurrent_rounds
                                   8));
  ByteReader r(w.bytes());
  auto decoded = HelloRecord::Decode(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded->version, kWireProtocolVersion);
  EXPECT_EQ(decoded->site, 3);
  const TransportOptions& o = decoded->options;
  EXPECT_EQ(o.site_threads, 5u);
  EXPECT_EQ(o.split_threshold_pct, 7u);
  EXPECT_EQ(o.peer_concurrent_rounds, 2u);
  // Everything else decodes as the defaults.
  EXPECT_TRUE(o.batching);
  EXPECT_TRUE(o.remote_endpoints.empty());
  EXPECT_EQ(o.fragment_memo, nullptr);
}

TEST(HelloRecordTest, EveryOtherVersionIsRejected) {
  for (uint32_t version : {kWireProtocolVersion - 1, kWireProtocolVersion + 1,
                           0u, 6u}) {
    if (version == kWireProtocolVersion) continue;
    HelloRecord hello = AllKnobsHello();
    hello.version = version;
    ByteWriter w;
    hello.Encode(&w);
    ByteReader r(w.bytes());
    auto decoded = HelloRecord::Decode(&r);
    ASSERT_FALSE(decoded.ok()) << "v" << version;
    EXPECT_NE(decoded.status().message().find("version mismatch"),
              std::string::npos)
        << decoded.status();
  }
}

// A peer's whole DeliveryReport rides home in its RoundDone: every field
// gets a distinct value, so a field the codec drops or swaps fails here.
RoundDoneRecord FullRoundDone() {
  RoundDoneRecord done;
  done.run = 11;
  done.site = 3;
  done.status = Status::InvalidArgument("boom");
  done.report.seconds = 0.5;
  done.report.memo = MemoSavings{17, 4096, 0.125};
  done.report.pool = PoolStats{9, 4, 2};
  return done;
}

TEST(RoundDoneRecordTest, RoundTripCarriesEveryReportField) {
  const RoundDoneRecord done = FullRoundDone();
  ByteWriter w;
  done.Encode(&w);
  ByteReader r(w.bytes());
  auto decoded = RoundDoneRecord::Decode(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded->run, 11u);
  EXPECT_EQ(decoded->site, 3);
  EXPECT_EQ(decoded->status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoded->status.message(), "boom");
  const DeliveryReport& report = decoded->report;
  EXPECT_EQ(report.seconds, 0.5);
  EXPECT_EQ(report.memo.fragment_hits, 17u);
  EXPECT_EQ(report.memo.saved_bytes, 4096u);
  EXPECT_EQ(report.memo.saved_seconds, 0.125);
  EXPECT_EQ(report.pool.tasks, 9u);
  EXPECT_EQ(report.pool.busy_peak, 4u);
  EXPECT_EQ(report.pool.queue_peak, 2u);

  // AddTo is the one merge: memo fields and pool tasks sum, pool peaks
  // take the max, and the cost stays out (a round prices it as a max).
  RunStats stats;
  stats.memo_fragment_hits = 1;
  stats.pool_tasks = 1;
  stats.pool_busy_peak = 6;
  stats.pool_queue_peak = 1;
  report.AddTo(&stats);
  report.AddTo(&stats);
  EXPECT_EQ(stats.memo_fragment_hits, 35u);
  EXPECT_EQ(stats.memo_saved_bytes, 8192u);
  EXPECT_EQ(stats.memo_saved_seconds, 0.25);
  EXPECT_EQ(stats.pool_tasks, 19u);
  EXPECT_EQ(stats.pool_busy_peak, 6u);
  EXPECT_EQ(stats.pool_queue_peak, 2u);
  EXPECT_EQ(stats.parallel_seconds, 0.0);
  EXPECT_EQ(stats.total_compute_seconds, 0.0);
}

TEST(HelloAckRecordTest, RoundTripCarriesTheSite) {
  HelloAckRecord ack;
  ack.site = 2;
  ByteWriter w;
  ack.Encode(&w);
  EXPECT_EQ(w.bytes(), std::string("\x03", 1));
  ByteReader r(w.bytes());
  auto decoded = HelloAckRecord::Decode(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->site, 2);
}

// A control record is exactly its fields: every strict prefix (a peer that
// died mid-record, or an older, shorter form) and every padded encoding is
// a clean parse error, never a partially filled record.
template <typename R>
void ExpectStrictDecode(const R& record, const std::string& label) {
  ByteWriter w;
  record.Encode(&w);
  const std::string bytes = w.bytes();
  {
    ByteReader r(bytes);
    ASSERT_TRUE(R::Decode(&r).ok()) << label;
  }
  for (size_t n = 0; n < bytes.size(); ++n) {
    ByteReader r(std::string_view(bytes).substr(0, n));
    EXPECT_FALSE(R::Decode(&r).ok()) << label << " truncated to " << n;
  }
  const std::string padded = bytes + "x";
  ByteReader r(padded);
  EXPECT_FALSE(R::Decode(&r).ok()) << label << " with a trailing byte";
}

TEST(ControlRecordTest, TruncatedAndTrailingBytesAreRejected) {
  ExpectStrictDecode(AllKnobsHello(), "hello");
  HelloAckRecord ack;
  ack.site = 2;
  ExpectStrictDecode(ack, "hello-ack");
  ExpectStrictDecode(FullRoundDone(), "round-done");
}

// ---- Frame batching at the transport level ----------------------------------

Envelope PayloadEnvelope(RunId run, SiteId from, SiteId to, std::string bytes,
                         PayloadCategory category = PayloadCategory::kControl) {
  Envelope env;
  env.run = run;
  env.from = from;
  env.to = to;
  env.category = category;
  env.parts.push_back(
      {MessageKind::kAnswerUp, kNullFragment, std::move(bytes), true});
  return env;
}

// Staged envelopes account nothing until the round boundary seals their
// frame: then the edge pays one message for all of them while bytes and
// envelope counts are exactly the per-envelope sums.
TEST(FrameBatchingTest, RoundBoundaryCoalescesPerEdge) {
  auto doc = MakeClienteleDoc();
  Cluster c(doc, 3);
  SyncTransport transport;  // batching on by default
  ASSERT_TRUE(transport.batching());
  RunStats stats;
  stats.per_site.resize(3);
  const RunId run = transport.OpenRun(&c, &stats);

  transport.Send(PayloadEnvelope(run, 1, 0, std::string(100, 'x')));
  transport.Send(PayloadEnvelope(run, 1, 0, std::string(50, 'y'),
                                 PayloadCategory::kAnswer));
  transport.Send(PayloadEnvelope(run, 2, 0, std::string(30, 'z')));

  // Nothing on the wire yet — staged mail is pending but unaccounted.
  EXPECT_EQ(stats.total_messages, 0u);
  EXPECT_EQ(stats.total_bytes, 0u);
  EXPECT_TRUE(transport.HasMail(run, 0));
  EXPECT_TRUE(transport.HasPendingMail(run));

  // The drain is the round boundary: two frames seal (one per edge), all
  // three envelopes arrive, byte totals are the plain sums.
  std::vector<Envelope> mail = transport.Drain(run, 0);
  ASSERT_EQ(mail.size(), 3u);
  EXPECT_EQ(stats.total_messages, 2u);
  EXPECT_EQ(stats.total_envelopes, 3u);
  EXPECT_EQ(stats.total_bytes, 180u);
  EXPECT_EQ(stats.answer_bytes, 50u);
  EXPECT_EQ((stats.edges.at({1, 0})), (EdgeStats{1, 2, 150}));
  EXPECT_EQ((stats.edges.at({2, 0})), (EdgeStats{1, 1, 30}));
  EXPECT_EQ(stats.per_site[1].messages_sent, 1u);
  EXPECT_EQ(stats.per_site[0].messages_received, 2u);
  EXPECT_FALSE(transport.HasPendingMail(run));
  transport.CloseRun(run);
}

// A frame of pure control-plane envelopes is free, like the request
// envelopes it carries.
TEST(FrameBatchingTest, PureControlFrameIsFree) {
  auto doc = MakeClienteleDoc();
  Cluster c(doc, 2);
  SyncTransport transport;
  RunStats stats;
  stats.per_site.resize(2);
  const RunId run = transport.OpenRun(&c, &stats);

  Envelope req = MakeRequestEnvelope(MessageKind::kSelRequest, 1, 2);
  req.run = run;
  req.from = 0;
  transport.Send(std::move(req));
  EXPECT_EQ(transport.Drain(run, 1).size(), 1u);
  EXPECT_EQ(stats.total_messages, 0u);
  EXPECT_EQ(stats.total_envelopes, 0u);
  EXPECT_EQ(stats.total_bytes, 0u);
  EXPECT_TRUE(stats.edges.empty());
  transport.CloseRun(run);
}

// Two runs staging traffic on the same edges never share a frame
// (invariant 5): each run's flush seals its own frames into its own stats.
TEST(FrameBatchingTest, ConcurrentRunsNeverShareFrames) {
  auto doc = MakeClienteleDoc();
  Cluster c(doc, 2);
  SyncTransport transport;
  RunStats stats_a, stats_b;
  stats_a.per_site.resize(2);
  stats_b.per_site.resize(2);
  const RunId a = transport.OpenRun(&c, &stats_a);
  const RunId b = transport.OpenRun(&c, &stats_b);

  transport.Send(PayloadEnvelope(a, 1, 0, std::string(10, 'a')));
  transport.Send(PayloadEnvelope(b, 1, 0, std::string(20, 'b')));
  transport.Send(PayloadEnvelope(a, 1, 0, std::string(30, 'a')));

  EXPECT_EQ(transport.Drain(a, 0).size(), 2u);
  // Run a sealed one frame of two envelopes; run b's mail is untouched.
  EXPECT_EQ(stats_a.total_messages, 1u);
  EXPECT_EQ(stats_a.total_envelopes, 2u);
  EXPECT_EQ(stats_a.total_bytes, 40u);
  EXPECT_EQ(stats_b.total_messages, 0u);
  EXPECT_TRUE(transport.HasMail(b, 0));

  EXPECT_EQ(transport.Drain(b, 0).size(), 1u);
  EXPECT_EQ(stats_b.total_messages, 1u);
  EXPECT_EQ(stats_b.total_bytes, 20u);
  transport.CloseRun(a);
  transport.CloseRun(b);
}

// ---- EnvelopeStream: chunked emission, one wire envelope --------------------

// Chunks appended over time must be indistinguishable on arrival from one
// monolithic envelope: same single envelope, concatenated bytes, summed
// phantom — on both the staged (batched) and buffered (unbatched) paths.
void ExpectStreamedChunksMerge(bool batching) {
  auto doc = MakeClienteleDoc();
  Cluster c(doc, 2);
  SyncTransport transport(TransportOptions{.batching = batching});
  RunStats stats;
  stats.per_site.resize(2);
  const RunId run = transport.OpenRun(&c, &stats);
  SiteContext ctx(/*site=*/1, &c, &transport, run);

  Envelope head;
  head.to = 0;
  head.category = PayloadCategory::kAnswer;
  head.parts.push_back({MessageKind::kAnswerUp, 3, "head-", true});
  {
    EnvelopeStream stream(ctx, std::move(head));
    stream.Append("chunk1-", 10);
    stream.Append("chunk2", 7);
    stream.Close();
  }

  std::vector<Envelope> mail = transport.Drain(run, 0);
  ASSERT_EQ(mail.size(), 1u);
  const Envelope& env = mail[0];
  EXPECT_EQ(env.run, run);
  EXPECT_EQ(env.from, 1);
  ASSERT_EQ(env.parts.size(), 1u);
  EXPECT_EQ(env.parts[0].bytes, "head-chunk1-chunk2");
  EXPECT_EQ(env.phantom_bytes, 17u);
  EXPECT_EQ(stats.total_messages, 1u);
  EXPECT_EQ(stats.total_envelopes, 1u);
  EXPECT_EQ(stats.total_bytes, 18u + 17u);
  EXPECT_EQ(stats.answer_bytes, 18u + 17u);
  transport.CloseRun(run);
}

TEST(EnvelopeStreamTest, ChunksMergeWhenBatched) {
  ExpectStreamedChunksMerge(/*batching=*/true);
}

TEST(EnvelopeStreamTest, ChunksMergeWhenUnbatched) {
  ExpectStreamedChunksMerge(/*batching=*/false);
}

// A streamed envelope shares its frame with ordinary mail sent before it
// on the same edge — the answer-streaming wire layout.
TEST(EnvelopeStreamTest, StreamedEnvelopeJoinsTheOpenFrame) {
  auto doc = MakeClienteleDoc();
  Cluster c(doc, 2);
  SyncTransport transport;
  RunStats stats;
  stats.per_site.resize(2);
  const RunId run = transport.OpenRun(&c, &stats);
  SiteContext ctx(/*site=*/1, &c, &transport, run);

  ctx.Send(PayloadEnvelope(run, 1, 0, "reply"));
  Envelope head;
  head.to = 0;
  head.parts.push_back({MessageKind::kAnswerUp, 0, "a", true});
  EnvelopeStream stream(ctx, std::move(head));
  stream.Append("b", 0);
  stream.Close();

  EXPECT_EQ(transport.Drain(run, 0).size(), 2u);
  EXPECT_EQ(stats.total_messages, 1u);  // one frame carried both
  EXPECT_EQ(stats.total_envelopes, 2u);
  transport.CloseRun(run);
}

// ---- Streamed shipments at the fixed chunk sizes (core/answer_stream.h) ----

/// One run of a two-site cluster, shipping from site 1 to S_Q = site 0.
struct ShipRun {
  std::shared_ptr<FragmentedDocument> doc = MakeClienteleDoc();
  Cluster cluster{doc, 2};
  SyncTransport transport;
  RunStats stats;
  RunId run = kNullRun;

  ShipRun() {
    stats.per_site.resize(2);
    run = transport.OpenRun(&cluster, &stats);
  }
  ~ShipRun() { transport.CloseRun(run); }
  SiteContext Context() { return SiteContext(1, &cluster, &transport, run); }
};

// An answer list spanning several chunks of kAnswerChunkIds ids arrives as
// ONE part equal to the one-shot AnswerUpMessage encoding: the same bytes
// (one delta stream across the chunk boundaries), the same logical size
// and the same modeled answer payload.
TEST(AnswerStreamTest, LongAnswerListStreamsAsOneAnswerUpPart) {
  // Uneven id gaps (text children of varying count) so the delta coding
  // crossing each chunk boundary is exercised.
  Tree tree;
  const NodeId root = tree.AddElement(kNullNode, "r");
  std::vector<NodeId> answers;
  for (size_t i = 0; i < 3 * kAnswerChunkIds + 17; ++i) {
    const NodeId item = tree.AddElement(root, "item");
    for (size_t t = 0; t < i % 3; ++t) tree.AddText(item, "text");
    answers.push_back(item);
  }
  constexpr FragmentId kFragment = 1;

  ShipRun ship;
  SiteContext ctx = ship.Context();
  ShipAnswersStreamed(ctx, tree, kFragment, answers, AnswerShipMode::kSubtrees,
                      /*account_ids=*/true);
  std::vector<Envelope> mail = ship.transport.Drain(ship.run, 0);
  ASSERT_EQ(mail.size(), 1u);
  ASSERT_EQ(mail[0].parts.size(), 1u);
  const WirePart& part = mail[0].parts[0];

  const AnswerUpMessage one_shot{kFragment, answers};
  ByteWriter encoded;
  one_shot.Encode(&encoded);
  uint64_t logical = VarintSize(kFragment) + VarintSize(answers.size());
  for (NodeId v : answers) logical += VarintSize(static_cast<uint64_t>(v));

  EXPECT_EQ(part.kind, MessageKind::kAnswerUp);
  EXPECT_EQ(part.bytes, encoded.bytes());
  EXPECT_EQ(part.logical_bytes, logical);
  const uint64_t phantom =
      AnswerBytes(tree, answers, AnswerShipMode::kSubtrees);
  EXPECT_EQ(mail[0].phantom_bytes, phantom);
  EXPECT_EQ(ship.stats.total_messages, 1u);
  EXPECT_EQ(ship.stats.total_envelopes, 1u);
  EXPECT_EQ(ship.stats.answer_bytes, logical + phantom);
  ByteReader reader(part.bytes);
  auto decoded = AnswerUpMessage::Decode(&reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, one_shot);
}

// A naive data ship larger than kDataChunkBytes prices exactly what one
// unchunked ship of the same phantom bytes does.
TEST(AnswerStreamTest, ChunkedDataShipPricesLikeOneShip) {
  constexpr uint64_t kTotal = 3 * kDataChunkBytes + 123;
  constexpr FragmentId kFragment = 1;

  ShipRun streamed;
  SiteContext streamed_ctx = streamed.Context();
  ShipDataStreamed(streamed_ctx, kFragment, kTotal);
  std::vector<Envelope> mail = streamed.transport.Drain(streamed.run, 0);
  ASSERT_EQ(mail.size(), 1u);
  EXPECT_EQ(mail[0].phantom_bytes, kTotal);

  ShipRun whole;
  SiteContext whole_ctx = whole.Context();
  Envelope ship;
  ship.to = 0;
  ship.category = PayloadCategory::kData;
  ship.phantom_bytes = kTotal;
  ship.parts.push_back({MessageKind::kDataShip, kFragment, {}, false});
  whole_ctx.Send(std::move(ship));
  EXPECT_EQ(whole.transport.Drain(whole.run, 0).size(), 1u);

  EXPECT_EQ(streamed.stats.total_bytes, whole.stats.total_bytes);
  EXPECT_EQ(streamed.stats.data_bytes_shipped, whole.stats.data_bytes_shipped);
  EXPECT_EQ(streamed.stats.data_bytes_shipped, kTotal);
  EXPECT_EQ(streamed.stats.total_messages, whole.stats.total_messages);
  EXPECT_EQ(streamed.stats.total_envelopes, whole.stats.total_envelopes);
  EXPECT_EQ(streamed.stats.wire_bytes, whole.stats.wire_bytes);
  EXPECT_EQ(streamed.stats.edges, whole.stats.edges);
}

// ---- EncodedSize: the wire_bytes unit ---------------------------------------

TEST(FrameCodecTest, EncodedSizeMatchesEncodeExactly) {
  Rng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    Frame frame = RandomFrame(rng);
    ByteWriter encoded;
    frame.Encode(&encoded);
    EXPECT_EQ(frame.EncodedSize(), encoded.size());
  }
}

// RunStats::wire_bytes counts each sealed frame's encoding once — present
// exactly when frames exist (batching), identical across backends, and
// covering control frames too (they are written even though the model
// prices them at zero).
TEST(FrameCodecTest, WireBytesCountsSealedFrames) {
  // Clientele with two fragments on each of sites 1 and 2.
  Cluster cluster(MakeClienteleDoc(), 3);
  const SiteId placement[] = {0, 1, 1, 2, 2};
  for (FragmentId f = 0; f < 5; ++f) {
    ASSERT_TRUE(cluster.Place(f, placement[f]).ok());
  }
  const std::string query =
      "clientele/client[country/text() = \"US\"]/"
      "broker[market/name/text() = \"NASDAQ\"]/name";
  TransportOptions unbatched;
  unbatched.batching = false;

  auto b = EvaluateOn(cluster, query, {}, kSync);
  auto p = EvaluateOn(cluster, query, {}, TransportKind::kPooled);
  auto u = EvaluateOn(cluster, query, {}, kSync, unbatched);
  ASSERT_TRUE(b.ok() && p.ok() && u.ok());
  EXPECT_GT(b->stats.wire_bytes, 0u);
  EXPECT_EQ(b->stats.wire_bytes, p->stats.wire_bytes);
  EXPECT_EQ(u->stats.wire_bytes, 0u);
}

// ---- Socket reassembly layer (runtime/wire.h) -------------------------------

TEST(RecordBufferTest, TruncatedRecordsWaitForMoreBytes) {
  Frame frame;
  frame.run = 3;
  frame.from = 1;
  frame.to = 0;
  frame.sequence = 7;
  Envelope env;
  env.run = 3;
  env.parts.push_back({MessageKind::kQualUp, 2, "payload-bytes", true});
  frame.envelopes.push_back(env);
  std::string wire;
  AppendFrameRecord(frame, &wire);

  // Fed one byte at a time, the buffer yields nothing until the record is
  // complete — a truncated record is "need more", not an error.
  RecordBuffer buf;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    buf.Append(std::string_view(wire).substr(i, 1));
    auto r = buf.Next();
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->has_value()) << "at byte " << i;
  }
  buf.Append(std::string_view(wire).substr(wire.size() - 1));
  auto r = buf.Next();
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->has_value());
  EXPECT_EQ((*r)->type, RecordType::kFrame);

  // The payload is exactly the frame encoding.
  ByteReader reader((*r)->payload);
  auto decoded = Frame::Decode(&reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->sequence, frame.sequence);
  EXPECT_EQ(buf.pending_bytes(), 0u);
}

TEST(RecordBufferTest, CorruptFramingIsACleanParseError) {
  {
    // An unknown type byte.
    std::string wire;
    AppendRecord(RecordType::kFrame, "x", &wire);
    wire[4] = static_cast<char>(0xee);
    RecordBuffer buf;
    buf.Append(wire);
    EXPECT_FALSE(buf.Next().ok());
  }
  {
    // Type 9 was the compressed-frame record of wire versions 5-7; it is
    // an unknown type now, refused before any payload is looked at.
    std::string wire;
    AppendRecord(RecordType::kFrame, "x", &wire);
    wire[4] = static_cast<char>(9);
    RecordBuffer buf;
    buf.Append(wire);
    auto next = buf.Next();
    ASSERT_FALSE(next.ok());
    EXPECT_EQ(next.status().code(), StatusCode::kParseError);
    EXPECT_NE(next.status().message().find("unknown record type"),
              std::string::npos)
        << next.status();
  }
  {
    // A zero length field.
    std::string wire(4, '\0');
    RecordBuffer buf;
    buf.Append(wire);
    EXPECT_FALSE(buf.Next().ok());
  }
  {
    // An absurd length field must error before any allocation.
    const char wire[] = {'\xff', '\xff', '\xff', '\x7f', 1};
    RecordBuffer buf;
    buf.Append(std::string_view(wire, sizeof(wire)));
    EXPECT_FALSE(buf.Next().ok());
  }
}

TEST(ControlRecordTest, RoundTrip) {
  {
    OpenRunRecord r;
    r.run = 12;
    r.spec = {"PaX2", "//a[b]/c", true, 1};
    r.site_count = 4;
    r.placement = {0, 1, 2, 2, 3};
    ByteWriter w;
    r.Encode(&w);
    ByteReader reader(w.bytes());
    auto d = OpenRunRecord::Decode(&reader);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->run, r.run);
    EXPECT_EQ(d->spec.algorithm, r.spec.algorithm);
    EXPECT_EQ(d->spec.query, r.spec.query);
    EXPECT_EQ(d->spec.use_annotations, r.spec.use_annotations);
    EXPECT_EQ(d->spec.ship_mode, r.spec.ship_mode);
    EXPECT_EQ(d->spec.family, "xml");  // the default fingerprint
    EXPECT_EQ(d->site_count, r.site_count);
    EXPECT_EQ(d->placement, r.placement);
  }
  {
    // A graph-family run announces its workload in the fingerprint.
    OpenRunRecord r;
    r.run = 5;
    r.spec = {"Reach", "reach 0 7", false, 0, "graph"};
    r.site_count = 4;
    r.placement = {0, 1, 2, 3};
    ByteWriter w;
    r.Encode(&w);
    ByteReader reader(w.bytes());
    auto d = OpenRunRecord::Decode(&reader);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->spec.algorithm, "Reach");
    EXPECT_EQ(d->spec.query, "reach 0 7");
    EXPECT_EQ(d->spec.family, "graph");
  }
  {
    RoundDoneRecord r;
    r.run = 9;
    r.site = 2;
    r.report.seconds = 0.125;
    r.status = Status::Internal("handler failed");
    ByteWriter w;
    r.Encode(&w);
    ByteReader reader(w.bytes());
    auto d = RoundDoneRecord::Decode(&reader);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->run, r.run);
    EXPECT_EQ(d->site, r.site);
    EXPECT_EQ(d->report.seconds, r.report.seconds);
    EXPECT_EQ(d->status.code(), StatusCode::kInternal);
    EXPECT_EQ(d->status.message(), "handler failed");
  }
}

// ---- Graph message kinds on the shared wire ---------------------------------

// The reachability family reuses the frame plane unchanged; its kinds must
// be first-class citizens of the codec and the name table.
TEST(MessageKindTest, NamesCoverEveryKindThroughReachUp) {
  for (uint8_t k = 0; k <= static_cast<uint8_t>(MessageKind::kReachUp); ++k) {
    EXPECT_STRNE(MessageKindName(static_cast<MessageKind>(k)), "?")
        << "unnamed kind " << int(k);
  }
  EXPECT_STREQ(MessageKindName(MessageKind::kReachRequest), "reach-request");
  EXPECT_STREQ(MessageKindName(MessageKind::kReachUp), "reach-up");
}

Frame MakeReachFrame() {
  Frame frame;
  frame.run = 1;
  frame.from = 1;
  frame.to = 0;
  frame.sequence = 0;
  Envelope env;
  env.run = 1;
  env.from = 1;
  env.to = 0;
  env.accounted = true;
  env.parts.push_back({MessageKind::kReachUp, 0, "zz", true});
  frame.envelopes.push_back(std::move(env));
  return frame;
}

// A kind byte one past kReachUp is the first invalid value: the decoder
// must reject it (the bound moved when the reach kinds were added; this
// pins it to the new end of the enum).
TEST(FrameCodecTest, KindPastReachUpIsACleanParseError) {
  Frame frame = MakeReachFrame();
  ByteWriter encoded;
  frame.Encode(&encoded);

  // The payload "zz" and the small header values never collide with the
  // kReachUp byte, so it appears exactly once in the encoding.
  std::string wire(encoded.bytes());
  const char kind_byte = static_cast<char>(MessageKind::kReachUp);
  ASSERT_EQ(std::count(wire.begin(), wire.end(), kind_byte), 1);
  wire[wire.find(kind_byte)] = kind_byte + 1;

  ByteReader reader(wire);
  auto decoded = Frame::Decode(&reader);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

// Every strict prefix of a reach frame fails decode cleanly — truncation
// is an error, never a crash or a bogus frame.
TEST(FrameCodecTest, TruncatedReachFrameIsACleanParseError) {
  Frame frame = MakeReachFrame();
  ByteWriter encoded;
  frame.Encode(&encoded);
  const std::string_view wire = encoded.bytes();
  for (size_t len = 0; len < wire.size(); ++len) {
    ByteReader reader(wire.substr(0, len));
    auto decoded = Frame::Decode(&reader);
    // A prefix either fails outright or decodes short (trailing bytes of
    // the full frame unread); it never reproduces the original.
    if (decoded.ok()) {
      ByteWriter re;
      decoded->Encode(&re);
      EXPECT_NE(re.bytes(), wire) << "at length " << len;
    }
  }
}

// A replayed reach frame hits the same per-edge sequence guard as the XML
// kinds: duplicates are a network error, not a double delivery.
TEST(FrameReassemblerTest, DuplicateReachSequenceIsRejected) {
  FrameReassembler reasm;
  Frame frame = MakeReachFrame();
  ASSERT_TRUE(reasm.Accept(frame).ok());
  Status dup = reasm.Accept(frame);
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), StatusCode::kNetworkError);
}

TEST(FrameReassemblerTest, AcceptsConsecutivePerEdgeSequences) {
  FrameReassembler reasm;
  Frame frame;
  frame.run = 1;
  frame.from = 1;
  frame.to = 0;
  for (uint64_t seq = 0; seq < 5; ++seq) {
    frame.sequence = seq;
    EXPECT_TRUE(reasm.Accept(frame).ok()) << seq;
  }
  // Other edges and runs number independently.
  frame.from = 2;
  frame.sequence = 0;
  EXPECT_TRUE(reasm.Accept(frame).ok());
  frame.run = 2;
  frame.from = 1;
  frame.sequence = 0;
  EXPECT_TRUE(reasm.Accept(frame).ok());
}

TEST(FrameReassemblerTest, DuplicateSequenceIsRejected) {
  FrameReassembler reasm;
  Frame frame;
  frame.run = 1;
  frame.from = 1;
  frame.to = 0;
  frame.sequence = 0;
  ASSERT_TRUE(reasm.Accept(frame).ok());
  Status dup = reasm.Accept(frame);
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), StatusCode::kNetworkError);
}

TEST(FrameReassemblerTest, OutOfOrderSequenceIsRejected) {
  FrameReassembler reasm;
  Frame frame;
  frame.run = 1;
  frame.from = 1;
  frame.to = 0;
  frame.sequence = 1;  // 0 never arrived
  Status gap = reasm.Accept(frame);
  EXPECT_FALSE(gap.ok());
  EXPECT_EQ(gap.code(), StatusCode::kNetworkError);
}

TEST(FrameReassemblerTest, CloseRunResetsItsEdgesOnly) {
  FrameReassembler reasm;
  Frame frame;
  frame.from = 1;
  frame.to = 0;
  frame.sequence = 0;
  frame.run = 1;
  ASSERT_TRUE(reasm.Accept(frame).ok());
  frame.run = 2;
  ASSERT_TRUE(reasm.Accept(frame).ok());
  reasm.CloseRun(1);
  // Run 1's numbering restarts; run 2's continues.
  frame.run = 1;
  EXPECT_TRUE(reasm.Accept(frame).ok());
  frame.run = 2;
  EXPECT_FALSE(reasm.Accept(frame).ok());
}

}  // namespace
}  // namespace paxml
