// The program's own query server (examples/query_server) as a child
// process: spawned on a snapshot, its port read from its first report line,
// its CPU time read from its process CPU clock, and killed and reaped on
// every exit path.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace perfbench {

class ServerProcess {
 public:
  /// Spawns `binary --load=<snapshot> --serve=0 --shards=<shards>
  /// --serve-duration=<watchdog_s>` and waits for its "listening on" line.
  /// Throws std::runtime_error if the child exits or prints no port within
  /// `port_timeout_s`. The watchdog only bounds the child's life should this
  /// process die without killing it; stop() normally ends it far earlier.
  ServerProcess(const std::string& binary, const std::string& snapshot,
                std::size_t shards, double watchdog_s, double port_timeout_s);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// User + system CPU seconds the server has used so far, all threads.
  double cpu_seconds() const;

  /// Kills and reaps the child; returns its peak RSS in MB (wait4 rusage).
  /// Idempotent: later calls return the first result.
  double stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
  double peak_rss_mb_ = 0;
};

/// Kills the live server child (if any) from a signal handler, so a
/// benchmark stopped by SIGTERM/SIGINT/SIGHUP, or by its own alarm(),
/// leaves no process behind.
void install_child_cleanup_handlers();

}  // namespace perfbench
