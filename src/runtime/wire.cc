#include "runtime/wire.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.h"
#include "common/string_util.h"
#include "runtime/frame.h"

namespace paxml {

namespace {

// Mirrors frame.cc: ids are signed with -1 as the null sentinel.
uint64_t EncodeId(int32_t v) { return static_cast<uint64_t>(v + 1); }

Result<int32_t> DecodeId(uint64_t v) {
  if (v > 0x7fffffff) return Status::ParseError("wire: id out of range");
  return static_cast<int32_t>(v) - 1;
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void EncodeStatus(const Status& status, ByteWriter* out) {
  out->PutU8(static_cast<uint8_t>(status.code()));
  out->PutString(status.message());
}

Status DecodeStatus(ByteReader* in, Status* out) {
  PAXML_ASSIGN_OR_RETURN(uint8_t code, in->GetU8());
  if (code > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
    return Status::ParseError("wire: bad status code");
  }
  PAXML_ASSIGN_OR_RETURN(std::string message, in->GetString());
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

/// A control record is exactly its fields: trailing bytes are corrupt.
Status ExpectEnd(const ByteReader* in) {
  if (!in->AtEnd()) return Status::ParseError("wire: trailing bytes in record");
  return Status::OK();
}

Status Errno(const char* what) {
  return Status::NetworkError(std::string(what) + ": " +
                              std::strerror(errno));
}

}  // namespace

const char* RecordTypeName(RecordType type) {
  switch (type) {
    case RecordType::kHello: return "hello";
    case RecordType::kHelloAck: return "hello-ack";
    case RecordType::kOpenRun: return "open-run";
    case RecordType::kCloseRun: return "close-run";
    case RecordType::kFrame: return "frame";
    case RecordType::kRoundStart: return "round-start";
    case RecordType::kRoundDone: return "round-done";
    case RecordType::kError: return "error";
  }
  return "?";
}

void AppendRecord(RecordType type, std::string_view payload,
                  std::string* out) {
  PAXML_CHECK(payload.size() + 1 <= kMaxRecordBytes);
  const uint32_t length = static_cast<uint32_t>(payload.size() + 1);
  char header[4];
  std::memcpy(header, &length, sizeof(length));  // little-endian hosts only,
  out->append(header, sizeof(header));           // as the ByteWriter already is
  out->push_back(static_cast<char>(type));
  out->append(payload);
}

void RecordBuffer::Append(std::string_view bytes) {
  // Compact lazily so long sessions do not grow the buffer unboundedly.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (1u << 16) && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(bytes);
}

Result<std::optional<WireRecord>> RecordBuffer::Next() {
  if (buf_.size() - pos_ < 4) return std::optional<WireRecord>();
  uint32_t length = 0;
  std::memcpy(&length, buf_.data() + pos_, sizeof(length));
  if (length == 0 || length > kMaxRecordBytes) {
    return Status::ParseError("wire: bad record length");
  }
  if (buf_.size() - pos_ - 4 < length) return std::optional<WireRecord>();
  const uint8_t type = static_cast<uint8_t>(buf_[pos_ + 4]);
  if (type < static_cast<uint8_t>(RecordType::kHello) ||
      type > static_cast<uint8_t>(RecordType::kError)) {
    return Status::ParseError("wire: unknown record type");
  }
  WireRecord record;
  record.type = static_cast<RecordType>(type);
  record.payload.assign(buf_, pos_ + 5, length - 1);
  pos_ += 4 + static_cast<size_t>(length);
  return std::optional<WireRecord>(std::move(record));
}

Status FrameReassembler::Accept(const Frame& frame) {
  // Staging numbers an edge's frames 0, 1, 2, ... for the run's lifetime
  // (runtime/transport.h), so the receiver expects exactly that.
  uint64_t& expected = next_[{frame.run, frame.from, frame.to}];
  if (frame.sequence < expected) {
    return Status::NetworkError("frame reassembly: duplicate sequence");
  }
  if (frame.sequence > expected) {
    return Status::NetworkError("frame reassembly: sequence gap");
  }
  ++expected;
  return Status::OK();
}

void FrameReassembler::CloseRun(RunId run) {
  for (auto it = next_.begin(); it != next_.end();) {
    if (std::get<0>(it->first) == run) {
      it = next_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---- Control payload codecs -------------------------------------------------

void HelloRecord::Encode(ByteWriter* out) const {
  out->PutU32(version);
  out->PutVarint(EncodeId(site));
  out->PutVarint(options.max_frame_bytes);
  out->PutVarint(options.site_threads);
  out->PutVarint(options.split_threshold_pct);
  out->PutVarint(options.peer_concurrent_rounds);
}

Result<HelloRecord> HelloRecord::Decode(ByteReader* in) {
  HelloRecord r;
  PAXML_ASSIGN_OR_RETURN(r.version, in->GetU32());
  if (r.version != kWireProtocolVersion) {
    return Status::NetworkError(StringFormat(
        "wire protocol version mismatch: hello speaks v%u, this build v%u",
        r.version, kWireProtocolVersion));
  }
  PAXML_ASSIGN_OR_RETURN(uint64_t site, in->GetVarint());
  PAXML_ASSIGN_OR_RETURN(r.site, DecodeId(site));
  PAXML_ASSIGN_OR_RETURN(r.options.max_frame_bytes, in->GetVarint());
  PAXML_ASSIGN_OR_RETURN(uint64_t site_threads, in->GetVarint());
  r.options.site_threads = static_cast<size_t>(site_threads);
  PAXML_ASSIGN_OR_RETURN(r.options.split_threshold_pct, in->GetVarint());
  PAXML_ASSIGN_OR_RETURN(r.options.peer_concurrent_rounds, in->GetVarint());
  PAXML_RETURN_NOT_OK(ExpectEnd(in));
  return r;
}

void HelloAckRecord::Encode(ByteWriter* out) const {
  out->PutVarint(EncodeId(site));
}

Result<HelloAckRecord> HelloAckRecord::Decode(ByteReader* in) {
  HelloAckRecord r;
  PAXML_ASSIGN_OR_RETURN(uint64_t site, in->GetVarint());
  PAXML_ASSIGN_OR_RETURN(r.site, DecodeId(site));
  PAXML_RETURN_NOT_OK(ExpectEnd(in));
  return r;
}

void OpenRunRecord::Encode(ByteWriter* out) const {
  out->PutVarint(run);
  out->PutString(spec.algorithm);
  out->PutString(spec.query);
  out->PutU8(spec.use_annotations ? 1 : 0);
  out->PutU8(spec.ship_mode);
  out->PutString(spec.family);
  out->PutU32(site_count);
  out->PutVarint(placement.size());
  for (SiteId s : placement) out->PutVarint(EncodeId(s));
}

Result<OpenRunRecord> OpenRunRecord::Decode(ByteReader* in) {
  OpenRunRecord r;
  PAXML_ASSIGN_OR_RETURN(r.run, in->GetVarint());
  PAXML_ASSIGN_OR_RETURN(r.spec.algorithm, in->GetString());
  PAXML_ASSIGN_OR_RETURN(r.spec.query, in->GetString());
  PAXML_ASSIGN_OR_RETURN(uint8_t annotations, in->GetU8());
  if (annotations > 1) return Status::ParseError("wire: bad annotation flag");
  r.spec.use_annotations = annotations != 0;
  PAXML_ASSIGN_OR_RETURN(r.spec.ship_mode, in->GetU8());
  PAXML_ASSIGN_OR_RETURN(r.spec.family, in->GetString());
  PAXML_ASSIGN_OR_RETURN(r.site_count, in->GetU32());
  PAXML_ASSIGN_OR_RETURN(uint64_t fragments, in->GetVarint());
  if (fragments > in->remaining()) {
    return Status::ParseError("wire: placement count past buffer end");
  }
  r.placement.reserve(fragments);
  for (uint64_t i = 0; i < fragments; ++i) {
    PAXML_ASSIGN_OR_RETURN(uint64_t site, in->GetVarint());
    PAXML_ASSIGN_OR_RETURN(SiteId s, DecodeId(site));
    r.placement.push_back(s);
  }
  PAXML_RETURN_NOT_OK(ExpectEnd(in));
  return r;
}

void CloseRunRecord::Encode(ByteWriter* out) const { out->PutVarint(run); }

Result<CloseRunRecord> CloseRunRecord::Decode(ByteReader* in) {
  CloseRunRecord r;
  PAXML_ASSIGN_OR_RETURN(r.run, in->GetVarint());
  PAXML_RETURN_NOT_OK(ExpectEnd(in));
  return r;
}

void RoundStartRecord::Encode(ByteWriter* out) const {
  out->PutVarint(run);
  out->PutVarint(EncodeId(site));
}

Result<RoundStartRecord> RoundStartRecord::Decode(ByteReader* in) {
  RoundStartRecord r;
  PAXML_ASSIGN_OR_RETURN(r.run, in->GetVarint());
  PAXML_ASSIGN_OR_RETURN(uint64_t site, in->GetVarint());
  PAXML_ASSIGN_OR_RETURN(r.site, DecodeId(site));
  PAXML_RETURN_NOT_OK(ExpectEnd(in));
  return r;
}

void RoundDoneRecord::Encode(ByteWriter* out) const {
  out->PutVarint(run);
  out->PutVarint(EncodeId(site));
  out->PutU64(DoubleBits(seconds));
  EncodeStatus(status, out);
  out->PutVarint(memo_fragment_hits);
  out->PutVarint(memo_saved_bytes);
  out->PutU64(DoubleBits(memo_saved_seconds));
  out->PutVarint(pool_tasks);
  out->PutVarint(pool_busy_peak);
  out->PutVarint(pool_queue_peak);
}

Result<RoundDoneRecord> RoundDoneRecord::Decode(ByteReader* in) {
  RoundDoneRecord r;
  PAXML_ASSIGN_OR_RETURN(r.run, in->GetVarint());
  PAXML_ASSIGN_OR_RETURN(uint64_t site, in->GetVarint());
  PAXML_ASSIGN_OR_RETURN(r.site, DecodeId(site));
  PAXML_ASSIGN_OR_RETURN(uint64_t bits, in->GetU64());
  r.seconds = BitsDouble(bits);
  PAXML_RETURN_NOT_OK(DecodeStatus(in, &r.status));
  PAXML_ASSIGN_OR_RETURN(r.memo_fragment_hits, in->GetVarint());
  PAXML_ASSIGN_OR_RETURN(r.memo_saved_bytes, in->GetVarint());
  PAXML_ASSIGN_OR_RETURN(uint64_t saved_bits, in->GetU64());
  r.memo_saved_seconds = BitsDouble(saved_bits);
  PAXML_ASSIGN_OR_RETURN(r.pool_tasks, in->GetVarint());
  PAXML_ASSIGN_OR_RETURN(r.pool_busy_peak, in->GetVarint());
  PAXML_ASSIGN_OR_RETURN(r.pool_queue_peak, in->GetVarint());
  PAXML_RETURN_NOT_OK(ExpectEnd(in));
  return r;
}

void ErrorRecord::Encode(ByteWriter* out) const {
  out->PutVarint(run);
  out->PutString(message);
}

Result<ErrorRecord> ErrorRecord::Decode(ByteReader* in) {
  ErrorRecord r;
  PAXML_ASSIGN_OR_RETURN(r.run, in->GetVarint());
  PAXML_ASSIGN_OR_RETURN(r.message, in->GetString());
  PAXML_RETURN_NOT_OK(ExpectEnd(in));
  return r;
}

FrameWireInfo AppendFrameRecord(const Frame& frame, std::string* out) {
  ByteWriter w;
  frame.Encode(&w);
  AppendRecord(RecordType::kFrame, w.bytes(), out);
  return FrameWireInfo{w.size()};
}

Result<Frame> DecodeFrameRecord(const WireRecord& record) {
  PAXML_CHECK(record.type == RecordType::kFrame);  // caller routes types
  ByteReader reader(record.payload);
  PAXML_ASSIGN_OR_RETURN(Frame frame, Frame::Decode(&reader));
  if (!reader.AtEnd()) {
    return Status::ParseError("wire: trailing bytes after frame");
  }
  return frame;
}

// ---- Sockets ----------------------------------------------------------------

Result<int> ListenOn(const std::string& host, int port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
  if (rc != 0) {
    return Status::NetworkError(std::string("getaddrinfo: ") +
                                ::gai_strerror(rc));
  }
  Status last = Status::NetworkError("listen: no usable address");
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 || ::listen(fd, 16) != 0) {
      last = Errno("bind/listen");
      ::close(fd);
      continue;
    }
    ::freeaddrinfo(res);
    return fd;
  }
  ::freeaddrinfo(res);
  return last;
}

Result<int> BoundPort(int fd) {
  sockaddr_storage addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  if (addr.ss_family == AF_INET) {
    return ntohs(reinterpret_cast<sockaddr_in*>(&addr)->sin_port);
  }
  if (addr.ss_family == AF_INET6) {
    return ntohs(reinterpret_cast<sockaddr_in6*>(&addr)->sin6_port);
  }
  return Status::NetworkError("getsockname: unexpected address family");
}

Result<int> AcceptOn(int fd) {
  const int conn = ::accept(fd, nullptr, nullptr);
  if (conn < 0) return Errno("accept");
  const int one = 1;
  ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return conn;
}

Result<int> DialEndpoint(const std::string& endpoint) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon + 1 == endpoint.size()) {
    return Status::InvalidArgument("endpoint must be host:port: " + endpoint);
  }
  std::string host = endpoint.substr(0, colon);
  const std::string service = endpoint.substr(colon + 1);
  // Allow bracketed IPv6 literals ("[::1]:7000").
  if (host.size() >= 2 && host.front() == '[' && host.back() == ']') {
    host = host.substr(1, host.size() - 2);
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
  if (rc != 0) {
    return Status::NetworkError(std::string("getaddrinfo: ") +
                                ::gai_strerror(rc));
  }
  Status last = Status::NetworkError("dial: no usable address");
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) != 0) {
      last = Errno("connect");
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::freeaddrinfo(res);
    return fd;
  }
  ::freeaddrinfo(res);
  return last;
}

Status WriteAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

Result<size_t> ReadSome(int fd, char* buf, size_t n) {
  while (true) {
    const ssize_t got = ::recv(fd, buf, n, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    return static_cast<size_t>(got);
  }
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace paxml
