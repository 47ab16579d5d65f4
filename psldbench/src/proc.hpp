// Process plumbing for psldbench: CPU sets, the psld child process, and the
// /proc counters the benchmark reads from outside the program.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace pb {

// --- CPU sets ------------------------------------------------------------------

/// The harness's allowed CPUs split into two disjoint sets: psld (and its
/// shards) on one, the load generator on the other. With one CPU both sets
/// are that CPU and `disjoint` is false.
struct CpuSplit {
  std::vector<int> all;
  std::vector<int> server;
  std::vector<int> generator;
  bool disjoint = false;
};
CpuSplit split_cpus();
/// Pin the calling thread to `cpus`. False when the kernel refuses.
bool pin_current_thread(const std::vector<int>& cpus);
/// "0-1", "2,3", ... for reports.
std::string cpu_list(const std::vector<int>& cpus);

// --- /proc readers ---------------------------------------------------------------

/// utime + stime + cutime + cstime of `pid` in seconds (/proc/<pid>/stat):
/// the process, all its threads, and its reaped children.
std::optional<double> proc_cpu_seconds(pid_t pid);
/// Peak resident set (VmHWM) of `pid` in MiB.
std::optional<double> proc_peak_rss_mib(pid_t pid);

/// Steal time (seconds the hypervisor ran something else) summed over
/// `cpus`, from /proc/stat.
std::optional<double> steal_seconds(const std::vector<int>& cpus);

struct ProcIo {
  std::uint64_t syscr = 0;  ///< read-class syscalls
  std::uint64_t syscw = 0;  ///< write-class syscalls
};
std::optional<ProcIo> proc_io(pid_t pid);
/// Voluntary + involuntary context switches summed over every thread of
/// `pid` (/proc/<pid>/task/*/status).
std::optional<std::uint64_t> proc_ctx_switches(pid_t pid);

// --- the psld child ----------------------------------------------------------------

/// A child process with stdout/stderr in a log file. The destructor stops
/// (terminate(5000)) and reaps it if it is still running, so no path leaves
/// it behind.
class Child {
 public:
  /// fork + exec argv[0] pinned to `cpus`. nullopt (with `error`) when the
  /// fork fails; an exec failure shows up as the child exiting 127.
  static std::optional<Child> spawn(const std::vector<std::string>& argv,
                                    const std::vector<int>& cpus, const std::string& log_path,
                                    std::string& error);

  Child(Child&& other) noexcept;
  Child& operator=(Child&& other) noexcept;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child();

  pid_t pid() const noexcept { return pid_; }
  /// Poll the log until a line contains `needle`; returns that line. nullopt
  /// after `timeout_ms` or when the child exits first.
  std::optional<std::string> wait_for_line(const std::string& needle, int timeout_ms);
  /// Every complete log line read so far, plus any still unread.
  std::vector<std::string> log_lines();
  /// SIGTERM, wait up to `timeout_ms`, then SIGKILL. True when the child
  /// exited 0 on its own.
  bool terminate(int timeout_ms);
  bool running();

 private:
  Child(pid_t pid, std::string log_path) : pid_(pid), log_path_(std::move(log_path)) {}
  void reap_blocking();

  pid_t pid_ = -1;
  std::string log_path_;
  int status_ = 0;
};

/// Run argv to completion (output to `log_path`), returning its exit code,
/// or -1 when it could not be started.
int run_to_completion(const std::vector<std::string>& argv, const std::string& log_path);

/// Parse the port from a psld banner ("... on 127.0.0.1:PORT, ...").
std::optional<std::uint16_t> banner_port(const std::string& line);

}  // namespace pb
