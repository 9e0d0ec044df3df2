#include "sim/cluster.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"
#include "runtime/worker_pool.h"

namespace paxml {

Cluster::Cluster(std::shared_ptr<const WorkloadData> data,
                 size_t site_count, ClusterOptions options)
    : data_(std::move(data)), site_count_(site_count), options_(options) {
  PAXML_CHECK_GT(site_count_, 0u);
  if (options_.simulated_network.has_value()) {
    PAXML_CHECK(options_.simulated_network->Valid());
  }
  placement_.assign(data_->fragment_count(), kNullSite);
  by_site_.assign(site_count_, {});
  PlaceRoundRobin();
}

const FragmentedDocument& Cluster::doc() const {
  // The downcast is safe exactly when the family tag says so; a graph
  // cluster reaching an XML-only code path is a caller bug, not wire input.
  PAXML_CHECK(data_->family() == kXmlFamily);
  return static_cast<const FragmentedDocument&>(*data_);
}

std::shared_ptr<const FragmentedDocument> Cluster::doc_ptr() const {
  PAXML_CHECK(data_->family() == kXmlFamily);
  return std::static_pointer_cast<const FragmentedDocument>(data_);
}

Status Cluster::Place(FragmentId f, SiteId s) {
  if (f < 0 || static_cast<size_t>(f) >= data_->fragment_count()) {
    return Status::InvalidArgument(StringFormat("bad fragment id %d", f));
  }
  if (s < 0 || static_cast<size_t>(s) >= site_count_) {
    return Status::InvalidArgument(StringFormat("bad site id %d", s));
  }
  const SiteId old = placement_[static_cast<size_t>(f)];
  if (old != kNullSite) {
    auto& v = by_site_[static_cast<size_t>(old)];
    v.erase(std::remove(v.begin(), v.end(), f), v.end());
  }
  placement_[static_cast<size_t>(f)] = s;
  by_site_[static_cast<size_t>(s)].push_back(f);
  // Re-placement invalidates serving-layer state (see data_epoch()). Bumps
  // during construction are harmless — caches are built against a cluster
  // that already exists.
  AdvanceDataEpoch();
  return Status::OK();
}

void Cluster::PlaceRoundRobin() {
  for (size_t f = 0; f < data_->fragment_count(); ++f) {
    PAXML_CHECK(Place(static_cast<FragmentId>(f),
                      static_cast<SiteId>(f % site_count_))
                    .ok());
  }
}

std::shared_ptr<WorkerPool> Cluster::worker_pool() const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (worker_pool_ == nullptr) worker_pool_ = std::make_shared<WorkerPool>();
  return worker_pool_;
}

std::shared_ptr<WorkerPool> Cluster::site_worker_pool() const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (site_worker_pool_ == nullptr) {
    site_worker_pool_ = std::make_shared<WorkerPool>();
  }
  return site_worker_pool_;
}

void Cluster::PlaceRootAndSpread() {
  PAXML_CHECK(Place(0, 0).ok());
  if (site_count_ == 1) {
    for (size_t f = 1; f < data_->fragment_count(); ++f) {
      PAXML_CHECK(Place(static_cast<FragmentId>(f), 0).ok());
    }
    return;
  }
  for (size_t f = 1; f < data_->fragment_count(); ++f) {
    const SiteId s = static_cast<SiteId>(1 + (f - 1) % (site_count_ - 1));
    PAXML_CHECK(Place(static_cast<FragmentId>(f), s).ok());
  }
}

}  // namespace paxml
