// Spawning real paxml_site peers for the multi-process suites
// (socket_transport_test, reach_test).
//
// Each peer is fork/exec'd on an ephemeral loopback port and announces the
// bound port on its stdout. A peer dies with its spawner: the child arms
// PR_SET_PDEATHSIG before exec, so a test binary that crashes or is killed
// never leaves orphaned servers behind.

#ifndef PAXML_TESTS_SITE_PROCESS_H_
#define PAXML_TESTS_SITE_PROCESS_H_

#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/logging.h"
#include "fragment/storage.h"
#include "sim/cluster.h"

namespace paxml::testing {

inline std::string ExeDir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  PAXML_CHECK(n > 0);
  buf[n] = '\0';
  std::string path(buf);
  return path.substr(0, path.rfind('/'));
}

/// $PAXML_SITE_BIN, else the tools/ directory next to the test binary.
inline std::string SiteBinary() {
  if (const char* env = std::getenv("PAXML_SITE_BIN")) return env;
  for (const std::string& candidate :
       {ExeDir() + "/tools/paxml_site", ExeDir() + "/../tools/paxml_site"}) {
    if (::access(candidate.c_str(), X_OK) == 0) return candidate;
  }
  PAXML_CHECK(false);  // build the tool_paxml_site target first
  return "";
}

inline std::string MakeTempDir() {
  std::string tmpl = "/tmp/paxml_test_XXXXXX";
  PAXML_CHECK(::mkdtemp(tmpl.data()) != nullptr);
  return tmpl;
}

struct SiteProcess {
  pid_t pid = -1;
  int port = 0;
};

inline std::string PlacementString(const Cluster& cluster) {
  std::string out;
  for (size_t f = 0; f < cluster.fragment_count(); ++f) {
    if (!out.empty()) out += ',';
    out += std::to_string(cluster.site_of(static_cast<FragmentId>(f)));
  }
  return out;
}

/// fork/execs one paxml_site serving `data_dir` and reads the bound port
/// from its "PAXML_SITE LISTENING <port>" line.
inline SiteProcess SpawnSite(const std::string& data_dir,
                             const Cluster& cluster, SiteId site,
                             bool compress = false) {
  int out_pipe[2];
  PAXML_CHECK(::pipe(out_pipe) == 0);

  const std::string binary = SiteBinary();
  const std::string site_arg = std::to_string(site);
  const std::string sites_arg = std::to_string(cluster.site_count());
  const std::string placement = PlacementString(cluster);

  const pid_t spawner = ::getpid();
  const pid_t pid = ::fork();
  PAXML_CHECK(pid >= 0);
  if (pid == 0) {
    // Die with the spawner; if it is already gone, the signal was armed
    // too late to fire.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != spawner) ::_exit(127);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    std::vector<const char*> argv = {
        binary.c_str(),  data_dir.c_str(), "--site", site_arg.c_str(),
        "--sites",       sites_arg.c_str(), "--placement", placement.c_str(),
        "--port",        "0"};
    if (compress) argv.push_back("--compress");
    argv.push_back(nullptr);
    ::execv(binary.c_str(), const_cast<char* const*>(argv.data()));
    std::perror("execv paxml_site");
    ::_exit(127);
  }
  ::close(out_pipe[1]);

  std::string line;
  char c;
  while (line.find('\n') == std::string::npos) {
    const ssize_t n = ::read(out_pipe[0], &c, 1);
    if (n <= 0) break;
    line.push_back(c);
  }
  ::close(out_pipe[0]);
  SiteProcess proc;
  proc.pid = pid;
  std::sscanf(line.c_str(), "PAXML_SITE LISTENING %d", &proc.port);
  PAXML_CHECK(proc.port > 0);  // the site failed to start
  return proc;
}

inline void KillSite(SiteProcess& proc) {
  if (proc.pid <= 0) return;
  ::kill(proc.pid, SIGKILL);
  int status = 0;
  ::waitpid(proc.pid, &status, 0);
  proc.pid = -1;
}

/// One multi-process deployment over a saved data directory: one
/// paxml_site per non-query site, and the endpoint map that points a
/// client at them.
class Deployment {
 public:
  Deployment(const std::string& dir, const Cluster& cluster,
             bool compress = false) {
    for (size_t s = 0; s < cluster.site_count(); ++s) {
      const SiteId site = static_cast<SiteId>(s);
      if (site == cluster.query_site()) continue;
      sites_[site] = SpawnSite(dir, cluster, site, compress);
      endpoints_[site] = "127.0.0.1:" + std::to_string(sites_[site].port);
    }
  }

  /// Saves `doc` to a fresh scratch directory (left for post-mortems;
  /// /tmp is ephemeral) and deploys it.
  Deployment(const FragmentedDocument& doc, const Cluster& cluster,
             bool compress = false)
      : Deployment(SavedDocument(doc), cluster, compress) {}

  ~Deployment() {
    for (auto& [site, proc] : sites_) KillSite(proc);
  }

  const std::map<SiteId, std::string>& endpoints() const { return endpoints_; }

  void KillSiteProcess(SiteId site) { KillSite(sites_.at(site)); }

 private:
  static std::string SavedDocument(const FragmentedDocument& doc) {
    std::string dir = MakeTempDir();
    PAXML_CHECK(SaveDocument(doc, dir).ok());
    return dir;
  }

  std::map<SiteId, SiteProcess> sites_;
  std::map<SiteId, std::string> endpoints_;
};

}  // namespace paxml::testing

#endif  // PAXML_TESTS_SITE_PROCESS_H_
