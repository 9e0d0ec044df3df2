// distributed_sockets: the engine as a real multi-process deployment.
//
// Everything the other examples do in one process here spans four: this
// client plays machine A (the query site, holding the root fragment), and
// three spawned `paxml_site` processes play machines B, C and D of the
// paper's FT2 experiment — each loads the shared fragment directory,
// serves its fragments, and exchanges sealed frames with the client over
// loopback TCP (DESIGN.md §9).
//
// The session API is unchanged: point the EngineConfig's
// transport_options.remote_endpoints at the site processes and Submit() as
// always. To show that the deployment is more than plumbing, every query
// also runs on an in-process reference Engine and the answers plus the
// full accounting (visits, messages, bytes) are compared — they match
// exactly. The spawned sites die with this process, however it exits.
//
// Run from the repository root after building:
//   $ ./build/examples/distributed_sockets

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "fragment/storage.h"
#include "harness.h"

using namespace paxml;

namespace {

std::string ExeDir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  PAXML_CHECK(n > 0);
  buf[n] = '\0';
  std::string path(buf);
  return path.substr(0, path.rfind('/'));
}

std::string SiteBinary() {
  if (const char* env = std::getenv("PAXML_SITE_BIN")) return env;
  // The example binary lives in <build>/examples; the tool in <build>/tools.
  const std::string candidate = ExeDir() + "/../tools/paxml_site";
  PAXML_CHECK(::access(candidate.c_str(), X_OK) == 0);
  return candidate;
}

struct SiteProcess {
  pid_t pid = -1;
  int port = 0;
};

SiteProcess SpawnSite(const std::string& binary, const std::string& doc_dir,
                      const Cluster& cluster, SiteId site) {
  std::string placement;
  for (size_t f = 0; f < cluster.doc().size(); ++f) {
    if (!placement.empty()) placement += ',';
    placement += std::to_string(cluster.site_of(static_cast<FragmentId>(f)));
  }
  const std::string site_arg = std::to_string(site);
  const std::string sites_arg = std::to_string(cluster.site_count());

  int out_pipe[2];
  PAXML_CHECK(::pipe(out_pipe) == 0);
  const pid_t spawner = ::getpid();
  const pid_t pid = ::fork();
  PAXML_CHECK(pid >= 0);
  if (pid == 0) {
    // Die with the spawner, even if it is gone before the signal is armed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != spawner) ::_exit(127);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::execl(binary.c_str(), binary.c_str(), doc_dir.c_str(), "--site",
            site_arg.c_str(), "--sites", sites_arg.c_str(), "--placement",
            placement.c_str(), "--port", "0", static_cast<char*>(nullptr));
    std::perror("execl paxml_site");
    ::_exit(127);
  }
  ::close(out_pipe[1]);
  std::string line;
  char c;
  while (line.find('\n') == std::string::npos && ::read(out_pipe[0], &c, 1) == 1) {
    line.push_back(c);
  }
  ::close(out_pipe[0]);
  SiteProcess proc;
  proc.pid = pid;
  std::sscanf(line.c_str(), "PAXML_SITE LISTENING %d", &proc.port);
  PAXML_CHECK(proc.port > 0);
  return proc;
}

}  // namespace

int main() {
  // The paper's FT2 layout: ten fragments over four machines (A = {F0},
  // B = {F1,F2,F3}, C = {F4..F8}, D = {F9}), scaled down to regenerate in
  // well under a second.
  bench::Workload w = bench::MakeFT2Paper(0.05);

  // Every machine of a deployment holds the fragment directory; here they
  // share one on /tmp.
  std::string dir = "/tmp/paxml_sockets_example_XXXXXX";
  PAXML_CHECK(::mkdtemp(dir.data()) != nullptr);
  PAXML_CHECK(SaveDocument(*w.doc, dir).ok());

  const std::string binary = SiteBinary();
  std::vector<SiteProcess> sites;
  std::map<SiteId, std::string> endpoints;
  for (SiteId s : {1, 2, 3}) {  // site 0 is this process
    sites.push_back(SpawnSite(binary, dir, *w.cluster, s));
    endpoints[s] = "127.0.0.1:" + std::to_string(sites.back().port);
    std::printf("machine %c: paxml_site pid %d on %s\n", 'A' + s,
                sites.back().pid, endpoints[s].c_str());
  }

  // The deployed session: same Engine, plus the endpoint map. The
  // reference session runs the same cluster on the in-process sequential
  // backend.
  EngineConfig config;
  config.depth = 4;
  config.transport_options.remote_endpoints = endpoints;
  Engine engine(*w.cluster, config);
  Engine reference(*w.cluster, {.transport = TransportKind::kSync});

  std::printf("\n%-4s %8s %8s %7s %10s  %s\n", "qry", "answers", "visits",
              "msgs", "bytes", "matches in-process run?");
  int failures = 0;
  for (const auto& q : xmark::ExperimentQueries()) {
    QueryHandle handle = engine.Submit(q.text);
    const QueryReport& report = handle.Wait();
    PAXML_CHECK(report.result.ok());

    auto baseline = reference.Submit(q.text).TakeReport().result;
    PAXML_CHECK(baseline.ok());

    const RunStats& s = report.result->stats;
    const bool match = report.result->answers == baseline->answers &&
                       s.total_visits() == baseline->stats.total_visits() &&
                       s.total_messages == baseline->stats.total_messages &&
                       s.total_bytes == baseline->stats.total_bytes;
    if (!match) ++failures;
    std::printf("%-4s %8zu %8llu %7llu %10llu  %s\n", q.name,
                report.result->answers.size(),
                static_cast<unsigned long long>(s.total_visits()),
                static_cast<unsigned long long>(s.total_messages),
                static_cast<unsigned long long>(s.total_bytes),
                match ? "yes — identical accounting" : "NO");
  }

  for (SiteProcess& proc : sites) {
    ::kill(proc.pid, SIGTERM);
    int status = 0;
    ::waitpid(proc.pid, &status, 0);
  }
  if (failures != 0) {
    std::fprintf(stderr, "mismatch between socket and in-process runs\n");
    return 1;
  }
  std::printf("\nfour processes, one engine, identical numbers.\n");
  return 0;
}
