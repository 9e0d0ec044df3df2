#include "runtime/site_runtime.h"

#include "sim/cluster.h"

namespace paxml {

SiteId SiteContext::query_site() const { return cluster_->query_site(); }

// ---- EnvelopeStream ---------------------------------------------------------

EnvelopeStream::EnvelopeStream(SiteContext& ctx, Envelope head)
    : transport_(&ctx.transport()) {
  PAXML_CHECK(!head.parts.empty());
  head.from = ctx.site();
  head.run = ctx.run();
  run_ = head.run;
  from_ = head.from;
  to_ = head.to;
  const bool local = head.from == head.to && head.from != kNullSite;
  if (transport_->batching() && !local) {
    transport_->StreamBegin(std::move(head));
    staged_ = true;
  } else {
    buffered_ = std::move(head);
  }
}

EnvelopeStream::~EnvelopeStream() { Close(); }

void EnvelopeStream::Append(std::string_view bytes, uint64_t phantom_bytes) {
  AppendRecoded(bytes, bytes.size(), phantom_bytes);
}

void EnvelopeStream::AppendRecoded(std::string_view bytes,
                                   uint64_t logical_bytes,
                                   uint64_t phantom_bytes) {
  PAXML_CHECK(!closed_);
  if (staged_) {
    transport_->StreamAppend(run_, from_, to_, bytes, logical_bytes,
                             phantom_bytes);
  } else {
    AppendPartBytes(buffered_.parts.back(), bytes, logical_bytes);
    buffered_.phantom_bytes += phantom_bytes;
  }
}

void EnvelopeStream::Close() {
  if (closed_) return;
  closed_ = true;
  if (staged_) {
    transport_->StreamEnd(run_, from_, to_);
  } else {
    transport_->Send(std::move(buffered_));
  }
}

}  // namespace paxml
