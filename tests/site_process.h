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

/// fork/execs paxml_site with `args` (after the binary name) and returns
/// its pid; `*out_fd` is the read end of a pipe carrying the child's
/// stdout, and its stderr too when `merge_stderr`.
inline pid_t ExecSite(const std::vector<std::string>& args, bool merge_stderr,
                      int* out_fd) {
  int out_pipe[2];
  PAXML_CHECK(::pipe(out_pipe) == 0);
  // argv is built before fork, so the child allocates nothing.
  const std::string binary = SiteBinary();
  std::vector<const char*> argv = {binary.c_str()};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  argv.push_back(nullptr);

  const pid_t spawner = ::getpid();
  const pid_t pid = ::fork();
  PAXML_CHECK(pid >= 0);
  if (pid == 0) {
    // Die with the spawner; if it is already gone, the signal was armed
    // too late to fire.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != spawner) ::_exit(127);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    if (merge_stderr) ::dup2(out_pipe[1], STDERR_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::execv(binary.c_str(), const_cast<char* const*>(argv.data()));
    std::perror("execv paxml_site");
    ::_exit(127);
  }
  ::close(out_pipe[1]);
  *out_fd = out_pipe[0];
  return pid;
}

/// fork/execs one paxml_site serving `data_dir` and reads the bound port
/// from its "PAXML_SITE LISTENING <port>" line.
inline SiteProcess SpawnSite(const std::string& data_dir,
                             const Cluster& cluster, SiteId site) {
  int out_fd = -1;
  const pid_t pid = ExecSite(
      {data_dir, "--site", std::to_string(site), "--sites",
       std::to_string(cluster.site_count()), "--placement",
       PlacementString(cluster), "--port", "0"},
      /*merge_stderr=*/false, &out_fd);

  std::string line;
  char c;
  while (line.find('\n') == std::string::npos) {
    const ssize_t n = ::read(out_fd, &c, 1);
    if (n <= 0) break;
    line.push_back(c);
  }
  ::close(out_fd);
  SiteProcess proc;
  proc.pid = pid;
  std::sscanf(line.c_str(), "PAXML_SITE LISTENING %d", &proc.port);
  PAXML_CHECK(proc.port > 0);  // the site failed to start
  return proc;
}

/// How a paxml_site run on a command line it should refuse ended.
struct SiteExit {
  int exit_code = -1;  ///< -1: it started listening (and was killed)
  std::string output;  ///< stdout and stderr, interleaved
};

/// Runs paxml_site with `args` until it exits. A site that announces
/// "PAXML_SITE LISTENING" instead is killed at once and reported with
/// exit_code -1, so an argument check cannot hang on a serving process.
inline SiteExit RunSiteToExit(const std::vector<std::string>& args) {
  int out_fd = -1;
  const pid_t pid = ExecSite(args, /*merge_stderr=*/true, &out_fd);
  SiteExit result;
  bool listening = false;
  char chunk[256];
  while (!listening) {
    const ssize_t n = ::read(out_fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    result.output.append(chunk, static_cast<size_t>(n));
    listening = result.output.find("PAXML_SITE LISTENING") != std::string::npos;
  }
  if (listening) ::kill(pid, SIGKILL);
  ::close(out_fd);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!listening && WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

/// Saves `doc` to a fresh scratch directory (left for post-mortems; /tmp
/// is ephemeral) and returns its path.
inline std::string SaveToTempDir(const FragmentedDocument& doc) {
  std::string dir = MakeTempDir();
  PAXML_CHECK(SaveDocument(doc, dir).ok());
  return dir;
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
  Deployment(const std::string& dir, const Cluster& cluster) {
    for (size_t s = 0; s < cluster.site_count(); ++s) {
      const SiteId site = static_cast<SiteId>(s);
      if (site == cluster.query_site()) continue;
      sites_[site] = SpawnSite(dir, cluster, site);
      endpoints_[site] = "127.0.0.1:" + std::to_string(sites_[site].port);
    }
  }

  /// Saves `doc` to a fresh scratch directory and deploys it.
  Deployment(const FragmentedDocument& doc, const Cluster& cluster)
      : Deployment(SaveToTempDir(doc), cluster) {}

  ~Deployment() {
    for (auto& [site, proc] : sites_) KillSite(proc);
  }

  const std::map<SiteId, std::string>& endpoints() const { return endpoints_; }

  void KillSiteProcess(SiteId site) { KillSite(sites_.at(site)); }

 private:
  std::map<SiteId, SiteProcess> sites_;
  std::map<SiteId, std::string> endpoints_;
};

}  // namespace paxml::testing

#endif  // PAXML_TESTS_SITE_PROCESS_H_
