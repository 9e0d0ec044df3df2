// paxml_site: one deployed site of a multi-process paxml engine.
//
//   $ paxml_site DATADIR --site N --sites K --placement 0,1,1,2,...
//                [--host 127.0.0.1] [--port P] [--threads T] [--memo]
//                [--rounds R]
//
// Serves either workload family: a directory written by SaveDocument (XML
// fragments; every machine of a deployment holds the same directory;
// loading only a site's own fragments is a ROADMAP follow-on) or one
// written by SaveGraph (a partitioned digraph, detected by its graph.paxg
// store file). Reconstructs the cluster the client describes — K sites,
// the given fragment->site placement, which must match the client's bit
// for bit — and serves its site's share of every announced evaluation over
// TCP (runtime/socket_server.h); MakeSiteProgramFactory (core/workload.h)
// resolves each announced RunSpec to the right family's program, and a
// client evaluating the other family is rejected with a workload-mismatch
// error.
//
// After binding it prints one line to stdout:
//
//   PAXML_SITE LISTENING <port>
//
// so a parent that spawned it with --port 0 can read the ephemeral port.
// It then serves until killed; a client disconnect drops that client's
// runs and the next client is accepted.
//
// The client and this peer must speak the same wire version (both are
// built from one tree); a Hello of any other version is refused with an
// error record and the connection is closed. Every frame travels as one
// plain kFrame record in both directions.
//
// A client's Hello may ask for intra-site parallel delivery (the
// site_threads transport knob); the server then fans a round's
// per-fragment mail out on a worker pool — RunStats stay bit-identical to
// the serial order (runtime/site_driver.h). --threads T caps what a client
// may request on this machine (default: honor the client).
//
// --memo turns on the fragment-stage memo (serving/fragment_memo.h): the
// server keeps a process-wide store of per-fragment partial answers keyed
// by (query fingerprint, fragment, step), so repeated queries — across
// runs and client connections — replay recorded replies instead of
// re-evaluating, inside the same per-fragment lanes that --threads fans
// out. Answers and accounted RunStats are unchanged; each round's savings
// travel back in the RoundDone record.
//
// --rounds R caps how many independent runs' rounds one connection may
// deliver concurrently when a client's Hello asks for cross-run fan-out
// (the peer_concurrent_rounds transport knob; default: honor the client,
// bounded at 16). Each run's RunStats stay exactly its
// solo RunStats — only independent runs overlap.
//
// Numeric flags are strict: the whole value is decimal digits within the
// flag's range (--site below --sites, --sites 1..65536, --port 0..65535,
// --threads 0..64, --rounds 0..16). Anything else — and any unknown flag —
// prints the usage line and exits 2 before the server binds.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/workload_data.h"
#include "core/workload.h"
#include "fragment/storage.h"
#include "graph/store.h"
#include "runtime/socket_server.h"
#include "serving/fragment_memo.h"
#include "sim/cluster.h"

using namespace paxml;

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: paxml_site DATADIR --site N --sites K "
               "--placement 0,1,... [--host H] [--port P] [--threads T] "
               "[--memo] [--rounds R]\n");
}

/// A numeric flag value: the whole token is decimal digits and the value
/// lies in [lo, hi]. `hi` bounds every step, so the accumulator cannot
/// overflow.
bool ParseCount(const char* text, uint64_t lo, uint64_t hi, uint64_t* out) {
  if (*text == '\0') return false;
  uint64_t v = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    v = v * 10 + static_cast<uint64_t>(*p - '0');
    if (v > hi) return false;
  }
  if (v < lo) return false;
  *out = v;
  return true;
}

/// Loads whichever workload the directory holds: a graph store when its
/// marker file is present, XML fragments otherwise.
Result<std::shared_ptr<const WorkloadData>> LoadWorkload(
    const std::string& dir) {
  if (IsGraphStoreDir(dir)) {
    PAXML_ASSIGN_OR_RETURN(std::shared_ptr<const GraphFragmentStore> store,
                           LoadGraph(dir));
    return std::shared_ptr<const WorkloadData>(std::move(store));
  }
  PAXML_ASSIGN_OR_RETURN(FragmentedDocument doc, LoadDocument(dir));
  return std::shared_ptr<const WorkloadData>(
      std::make_shared<FragmentedDocument>(std::move(doc)));
}

bool ParsePlacement(const char* text, std::vector<SiteId>* out) {
  out->clear();
  const char* p = text;
  while (*p != '\0') {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p) return false;
    out->push_back(static_cast<SiteId>(v));
    p = end;
    if (*p == ',') ++p;
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string dir = argv[1];
  constexpr uint64_t kMaxSites = 1 << 16;
  uint64_t site = kMaxSites;  // required: out of range until given
  uint64_t site_count = 0;
  std::vector<SiteId> placement;
  std::string host = "127.0.0.1";
  uint64_t port = 0;
  uint64_t max_threads = 0;  // 0 = honor the client's Hello
  bool memo = false;
  uint64_t max_rounds = 0;  // 0 = honor the client's Hello

  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--memo") {
      memo = true;
      continue;
    }
    // Every other flag takes a value.
    if (i + 1 == argc) {
      Usage();
      return 2;
    }
    const char* value = argv[++i];
    bool ok = false;
    if (flag == "--placement") {
      ok = ParsePlacement(value, &placement);
    } else if (flag == "--host") {
      host = value;
      ok = true;
    } else if (flag == "--site") {
      ok = ParseCount(value, 0, kMaxSites - 1, &site);
    } else if (flag == "--sites") {
      ok = ParseCount(value, 1, kMaxSites, &site_count);
    } else if (flag == "--port") {
      ok = ParseCount(value, 0, 65535, &port);
    } else if (flag == "--threads") {
      ok = ParseCount(value, 0, 64, &max_threads);
    } else if (flag == "--rounds") {
      ok = ParseCount(value, 0, 16, &max_rounds);
    }
    if (!ok) {
      Usage();
      return 2;
    }
  }
  if (site_count == 0 || site >= site_count || placement.empty()) {
    Usage();
    return 2;
  }

  auto data_r = LoadWorkload(dir);
  if (!data_r.ok()) {
    std::fprintf(stderr, "paxml_site: load error: %s\n",
                 data_r.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<const WorkloadData> data = std::move(data_r).ValueOrDie();
  if (placement.size() != data->fragment_count()) {
    std::fprintf(stderr,
                 "paxml_site: placement names %zu fragments, directory holds "
                 "%zu\n",
                 placement.size(), data->fragment_count());
    return 1;
  }

  // The cluster here only describes placement; delivery happens on the
  // SiteServer's per-connection pool when a client's Hello asks for
  // site_threads > 1, so the cluster's own transport pool stays off.
  ClusterOptions cluster_options;
  cluster_options.parallel_execution = false;
  Cluster cluster(data, static_cast<size_t>(site_count), cluster_options);
  for (size_t f = 0; f < placement.size(); ++f) {
    Status st = cluster.Place(static_cast<FragmentId>(f), placement[f]);
    if (!st.ok()) {
      std::fprintf(stderr, "paxml_site: bad placement: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }

  SiteServer server(&cluster, static_cast<SiteId>(site),
                    MakeSiteProgramFactory(&cluster),
                    static_cast<size_t>(max_threads),
                    memo ? std::make_shared<FragmentMemo>() : nullptr,
                    static_cast<size_t>(max_rounds));
  auto bound = server.Listen(host, static_cast<int>(port));
  if (!bound.ok()) {
    std::fprintf(stderr, "paxml_site: %s\n", bound.status().ToString().c_str());
    return 1;
  }
  std::printf("PAXML_SITE LISTENING %d\n", *bound);
  std::fflush(stdout);

  Status status = server.Serve();
  if (!status.ok()) {
    std::fprintf(stderr, "paxml_site: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
