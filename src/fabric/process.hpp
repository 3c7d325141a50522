// lumen_fabric: POSIX worker-process management.
//
// The coordinator's view of one spawned worker: its pid, the read end of
// its stdout pipe (non-blocking, line-buffered here), and its exit status
// once reaped. Nothing in this file knows about leases — it is plain
// fork/exec + pipe plumbing, kept separate so the coordinator logic stays
// testable against the protocol layer alone.
#pragma once

#include <sys/types.h>

#include <optional>
#include <string>
#include <vector>

namespace lumen::fabric {

/// How a reaped child ended.
struct ExitStatus {
  bool signaled = false;  ///< Killed by a signal (crash, SIGKILL, ...).
  int code = 0;           ///< Exit code, or the signal number when signaled.
};

class ChildProcess {
 public:
  ChildProcess() = default;
  ~ChildProcess();

  ChildProcess(ChildProcess&& other) noexcept;
  ChildProcess& operator=(ChildProcess&& other) noexcept;
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// fork + exec argv with stdout piped back (stderr passes through).
  /// Returns a running child, or nullopt with *error set.
  static std::optional<ChildProcess> spawn(
      const std::vector<std::string>& argv, std::string* error);

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  [[nodiscard]] bool running() const noexcept { return pid_ > 0 && !exit_; }
  [[nodiscard]] const std::optional<ExitStatus>& exit_status() const noexcept {
    return exit_;
  }

  /// Drains whatever the pipe holds right now (non-blocking) and returns
  /// the COMPLETE lines received; a trailing partial line is buffered for
  /// the next call. Sets *closed when the child closed its end.
  std::vector<std::string> read_lines(bool* closed = nullptr);

  /// Non-blocking waitpid; fills exit_status() once the child is reaped.
  /// Safe to call repeatedly.
  void try_reap() noexcept;

  /// Sends `signal`; no-op once reaped.
  void kill(int signal) noexcept;

  /// Blocking reap with a SIGKILL escalation after `grace_ms` of waiting.
  void reap_with_timeout(int grace_ms) noexcept;

 private:
  void close_pipe() noexcept;

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
  std::optional<ExitStatus> exit_;
};

}  // namespace lumen::fabric
