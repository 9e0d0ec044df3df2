// The socket wire protocol under the framed message plane.
//
// A connection between the client (the process driving Coordinators over a
// SocketTransport) and a paxml_site peer carries length-delimited *records*:
// a little-endian u32 length, a type byte, then the typed payload. Data
// records (kFrame) carry exactly a Frame::Encode buffer — the unit PR 4
// built, whose header (run, edge, per-edge sequence) is what reassembly
// needs; control records implement the run lifecycle (kOpenRun/kCloseRun)
// and the round barrier (kRoundStart/kRoundDone), replacing the function
// calls an in-process transport makes (DESIGN.md §9).
//
// Everything here is testable without a socket: RecordBuffer decodes a byte
// stream incrementally (truncated and corrupt input surface as need-more /
// clean parse errors), FrameReassembler validates per-(run, edge) sequence
// numbers (duplicates and reordering are protocol violations), and each
// control record has an Encode/Decode pair over the shared ByteWriter /
// ByteReader primitives, whose Decode rejects truncated input and trailing
// bytes. The fd helpers at the bottom are the only code that touches the
// network.

#ifndef PAXML_RUNTIME_WIRE_H_
#define PAXML_RUNTIME_WIRE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "boolexpr/codec.h"
#include "common/result.h"
#include "runtime/frame.h"
#include "runtime/transport.h"

namespace paxml {

/// The one wire version (client and peer share a tree); others get kError.
inline constexpr uint32_t kWireProtocolVersion = 9;

/// Upper bound on one record's length field: a corrupt length must be a
/// parse error, not a gigabyte allocation.
inline constexpr uint64_t kMaxRecordBytes = 1ull << 30;

enum class RecordType : uint8_t {
  kHello = 1,      ///< client -> peer: version, site dialed, plane options
  kHelloAck,       ///< peer -> client: the site served
  kOpenRun,        ///< client -> peer: run id, RunSpec, placement fingerprint
  kCloseRun,       ///< client -> peer: drop the run's mail and program
  kFrame,          ///< either direction: one Frame::Encode buffer
  kRoundStart,     ///< client -> peer: deliver the site's pending mail now
  kRoundDone,      ///< peer -> client: round executed (status + report)
  kError,          ///< peer -> client: a run failed remotely
};

const char* RecordTypeName(RecordType type);

struct WireRecord {
  RecordType type;
  std::string payload;
};

/// Appends one length-delimited record to `out`.
void AppendRecord(RecordType type, std::string_view payload, std::string* out);

/// Incremental decoder over a received byte stream. Append() raw bytes as
/// they arrive; Next() pops complete records in order, returns nullopt when
/// the buffer holds only a record prefix (truncated input is not an error
/// until the stream ends), and a parse error for corrupt framing (unknown
/// type, oversized length).
class RecordBuffer {
 public:
  void Append(std::string_view bytes);

  Result<std::optional<WireRecord>> Next();

  /// Bytes buffered but not yet consumed — non-zero at connection EOF means
  /// the peer died mid-record.
  size_t pending_bytes() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  size_t pos_ = 0;
};

/// Validates the frame stream of one connection: within a (run, edge) the
/// sequence numbers minted by the sender's staging are consecutive from the
/// first one seen, so a duplicated, dropped or reordered record surfaces as
/// a clean protocol error instead of corrupt accounting.
class FrameReassembler {
 public:
  Status Accept(const Frame& frame);

  /// Forgets a closed run's edges (sequence numbering is per run lifetime).
  void CloseRun(RunId run);

 private:
  std::map<std::tuple<RunId, SiteId, SiteId>, uint64_t> next_;
};

// ---- Control record payloads ------------------------------------------------

struct HelloRecord {
  /// Decode rejects any version but kWireProtocolVersion; tests set others.
  uint32_t version = kWireProtocolVersion;
  SiteId site = kNullSite;  ///< the site the client expects this peer to be

  /// The client transport's options. The Hello carries the three mirrored
  /// ones — site_threads, split_threshold_pct and peer_concurrent_rounds,
  /// named once in Encode/Decode — and the rest decode as defaults. The peer seals its replies under them, so both
  /// sides seal byte-identical frames, after capping threads and rounds
  /// (paxml_site --threads, --rounds).
  TransportOptions options;

  void Encode(ByteWriter* out) const;
  static Result<HelloRecord> Decode(ByteReader* in);
};

struct HelloAckRecord {
  SiteId site = kNullSite;

  void Encode(ByteWriter* out) const;
  static Result<HelloAckRecord> Decode(ByteReader* in);
};

/// Announces one run to a peer. Carries the RunSpec (empty algorithm = no
/// remote delivery possible, frames only) plus a placement fingerprint so a
/// peer serving a *different* cluster fails loudly at open, not with
/// silently divergent answers.
struct OpenRunRecord {
  RunId run = kNullRun;
  RunSpec spec;
  uint32_t site_count = 0;
  std::vector<SiteId> placement;  ///< fragment -> site, in fragment order

  void Encode(ByteWriter* out) const;
  static Result<OpenRunRecord> Decode(ByteReader* in);
};

struct CloseRunRecord {
  RunId run = kNullRun;

  void Encode(ByteWriter* out) const;
  static Result<CloseRunRecord> Decode(ByteReader* in);
};

struct RoundStartRecord {
  RunId run = kNullRun;
  SiteId site = kNullSite;

  void Encode(ByteWriter* out) const;
  static Result<RoundStartRecord> Decode(ByteReader* in);
};

/// The peer's half of the round barrier: its reply frames were written
/// *before* this record on the same ordered connection, so receipt means
/// the round's traffic has fully arrived.
struct RoundDoneRecord {
  RunId run = kNullRun;
  SiteId site = kNullSite;
  Status status;  ///< the handlers' dispatch status

  /// The peer's SiteDriver::DeliverTimed report for this round: its
  /// parallel cost, memo savings and pool counters. The client's
  /// SocketTransport folds it into the run's RunStats once the round's
  /// barrier completes; a RoundDone arriving after that is dropped whole.
  DeliveryReport report;

  void Encode(ByteWriter* out) const;
  static Result<RoundDoneRecord> Decode(ByteReader* in);
};

struct ErrorRecord {
  RunId run = kNullRun;  ///< kNullRun: the whole connection is poisoned
  std::string message;

  void Encode(ByteWriter* out) const;
  static Result<ErrorRecord> Decode(ByteReader* in);
};

/// Encodes a payload struct into one complete record appended to `out`.
template <typename R>
void AppendControlRecord(RecordType type, const R& record, std::string* out) {
  ByteWriter w;
  record.Encode(&w);
  AppendRecord(type, w.bytes(), out);
}

/// THE frame-record encoder, shared by the client transport and the peer's
/// reply plane: appends one kFrame record holding `frame`'s Frame::Encode
/// buffer to `out`. The returned FrameWireInfo prices the record payload
/// (the unit wire_bytes has always counted; the 5-byte record header is
/// excluded). It is always Frame::EncodedSize(), the size in-process
/// transports account without materializing the encoding, so sync ==
/// pooled == socket wire accounting is exact.
FrameWireInfo AppendFrameRecord(const Frame& frame, std::string* out);

/// Decodes a kFrame record. A corrupt frame or trailing bytes after it are
/// clean parse errors.
Result<Frame> DecodeFrameRecord(const WireRecord& record);

// ---- Sockets ----------------------------------------------------------------
//
// Minimal blocking TCP plumbing (IPv4/IPv6 via getaddrinfo). All calls
// return Status/Result instead of aborting: a refused dial or a dead peer
// is an operational condition, not a bug.

/// Binds and listens on `host:port` (port 0 = ephemeral); returns the fd.
Result<int> ListenOn(const std::string& host, int port);

/// The locally bound port of a listening fd (resolves port 0).
Result<int> BoundPort(int fd);

/// Accepts one connection (blocking).
Result<int> AcceptOn(int fd);

/// Connects to "host:port" (blocking).
Result<int> DialEndpoint(const std::string& endpoint);

/// Writes all of `bytes` (send with SIGPIPE suppressed).
Status WriteAll(int fd, std::string_view bytes);

/// Reads up to `n` bytes; 0 means orderly EOF.
Result<size_t> ReadSome(int fd, char* buf, size_t n);

void CloseFd(int fd);

}  // namespace paxml

#endif  // PAXML_RUNTIME_WIRE_H_
