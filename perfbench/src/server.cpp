#include "server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <stdexcept>
#include <vector>

#include "common.hpp"

namespace perfbench {
namespace {

std::atomic<pid_t> g_live_child{-1};

void kill_child_and_exit(int sig) {
  const pid_t pid = g_live_child.load();
  if (pid > 0) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
  _exit(128 + sig);
}

}  // namespace

void install_child_cleanup_handlers() {
  struct sigaction sa {};
  sa.sa_handler = kill_child_and_exit;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGHUP, &sa, nullptr);
  sigaction(SIGALRM, &sa, nullptr);
  // A peer that closes mid-write must surface as an error, not kill us.
  signal(SIGPIPE, SIG_IGN);
}

ServerProcess::ServerProcess(const std::string& binary,
                             const std::string& snapshot, std::size_t shards,
                             double watchdog_s, double port_timeout_s) {
  std::vector<std::string> argv_s = {
      binary, "--load=" + snapshot, "--serve=0",
      "--shards=" + std::to_string(shards),
      "--serve-duration=" + std::to_string(watchdog_s)};
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0)
    throw std::runtime_error("pipe failed");
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec. Die with the parent.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(fds[1], STDOUT_FILENO);
    execv(argv[0], argv.data());
    _exit(127);
  }
  pid_ = pid;
  g_live_child.store(pid);
  close(fds[1]);
  stdout_fd_ = fds[0];

  // Read the child's stdout until the "listening on HOST:PORT" line.
  std::string text;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(port_timeout_s * 1e9);
  while (port_ == 0) {
    const std::int64_t left_ms = (deadline - now_ns()) / 1'000'000;
    if (left_ms <= 0) {
      stop();
      throw std::runtime_error("server reported no port in time");
    }
    pollfd p{stdout_fd_, POLLIN, 0};
    const int ready = poll(&p, 1, static_cast<int>(left_ms));
    if (ready < 0 && errno != EINTR) {
      stop();
      throw std::runtime_error("poll on server stdout failed");
    }
    if (ready <= 0) continue;
    char buf[512];
    const ssize_t got = read(stdout_fd_, buf, sizeof buf);
    if (got <= 0) {
      stop();
      throw std::runtime_error("server exited before reporting a port");
    }
    text.append(buf, static_cast<std::size_t>(got));
    const std::size_t at = text.find("listening on ");
    if (at == std::string::npos) continue;
    const std::size_t eol = text.find('\n', at);
    if (eol == std::string::npos) continue;
    const std::size_t colon = text.rfind(':', text.find(' ', at + 13));
    const long port = std::strtol(text.c_str() + colon + 1, nullptr, 10);
    if (colon == std::string::npos || port <= 0 || port > 65535) {
      stop();
      throw std::runtime_error("unparsable server report: " + text);
    }
    port_ = static_cast<std::uint16_t>(port);
  }
}

ServerProcess::~ServerProcess() { stop(); }

double ServerProcess::cpu_seconds() const {
  // The process CPU-time clock of the child: user + system time of all its
  // threads, in nanoseconds (/proc/<pid>/stat counts 10 ms ticks, too coarse
  // for one-second sub-windows).
  clockid_t clock;
  timespec ts{};
  if (clock_getcpuclockid(pid_, &clock) != 0 || clock_gettime(clock, &ts) != 0)
    throw std::runtime_error("cannot read the server's CPU clock");
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double ServerProcess::stop() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    rusage ru{};
    while (wait4(pid_, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    peak_rss_mb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
    g_live_child.store(-1);
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
  return peak_rss_mb_;
}

}  // namespace perfbench
