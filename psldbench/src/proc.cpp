#include "proc.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace pb {

CpuSplit split_cpus() {
  CpuSplit split;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) split.all.push_back(c);
    }
  }
  if (split.all.empty()) split.all.push_back(0);
  if (split.all.size() == 1) {
    split.server = split.generator = split.all;
    return split;
  }
  // psld gets the larger half: with the default two workers plus its loop
  // thread it has more runnable threads than the generator.
  const std::size_t server_count = (split.all.size() + 1) / 2;
  split.server.assign(split.all.begin(), split.all.begin() + static_cast<long>(server_count));
  split.generator.assign(split.all.begin() + static_cast<long>(server_count), split.all.end());
  split.disjoint = true;
  return split;
}

bool pin_current_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0;
}

std::string cpu_list(const std::vector<int>& cpus) {
  std::string out;
  for (std::size_t i = 0; i < cpus.size();) {
    std::size_t j = i;
    while (j + 1 < cpus.size() && cpus[j + 1] == cpus[j] + 1) ++j;
    if (!out.empty()) out += ',';
    out += std::to_string(cpus[i]);
    if (j > i) {
      out += '-';
      out += std::to_string(cpus[j]);
    }
    i = j + 1;
  }
  return out;
}

namespace {

std::optional<std::string> slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Value of a "Key:   123 ..." line in a /proc status-style file.
std::optional<std::uint64_t> field(const std::string& text, const std::string& key) {
  std::size_t at = 0;
  while ((at = text.find(key, at)) != std::string::npos) {
    if (at == 0 || text[at - 1] == '\n') {
      return std::strtoull(text.c_str() + at + key.size(), nullptr, 10);
    }
    at += key.size();
  }
  return std::nullopt;
}

}  // namespace

std::optional<double> proc_cpu_seconds(pid_t pid) {
  const auto text = slurp("/proc/" + std::to_string(pid) + "/stat");
  if (!text) return std::nullopt;
  // Fields after the parenthesised command name start at field 3 (state);
  // utime, stime, cutime and cstime are fields 14..17.
  const std::size_t close = text->rfind(')');
  if (close == std::string::npos) return std::nullopt;
  std::istringstream rest(text->substr(close + 1));
  std::string token;
  std::uint64_t ticks = 0;
  for (int field_no = 3; field_no <= 17 && (rest >> token); ++field_no) {
    if (field_no >= 14) ticks += std::strtoull(token.c_str(), nullptr, 10);
  }
  if (!rest) return std::nullopt;
  return static_cast<double>(ticks) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::optional<double> steal_seconds(const std::vector<int>& cpus) {
  const auto text = slurp("/proc/stat");
  if (!text) return std::nullopt;
  std::istringstream in(*text);
  std::uint64_t ticks = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 || line[3] == ' ') continue;
    std::istringstream fields(line.substr(3));
    int cpu = -1;
    std::uint64_t v[8] = {};  // user nice system idle iowait irq softirq steal
    fields >> cpu;
    for (auto& x : v) fields >> x;
    if (std::find(cpus.begin(), cpus.end(), cpu) != cpus.end()) ticks += v[7];
  }
  return static_cast<double>(ticks) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::optional<double> proc_peak_rss_mib(pid_t pid) {
  const auto text = slurp("/proc/" + std::to_string(pid) + "/status");
  if (!text) return std::nullopt;
  const auto kib = field(*text, "VmHWM:");
  if (!kib) return std::nullopt;
  return static_cast<double>(*kib) / 1024.0;
}

std::optional<ProcIo> proc_io(pid_t pid) {
  const auto text = slurp("/proc/" + std::to_string(pid) + "/io");
  if (!text) return std::nullopt;
  const auto r = field(*text, "syscr:");
  const auto w = field(*text, "syscw:");
  if (!r || !w) return std::nullopt;
  return ProcIo{*r, *w};
}

std::optional<std::uint64_t> proc_ctx_switches(pid_t pid) {
  const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = ::opendir(task_dir.c_str());
  if (dir == nullptr) return std::nullopt;
  std::uint64_t total = 0;
  bool any = false;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const auto text = slurp(task_dir + "/" + entry->d_name + "/status");
    if (!text) continue;  // the thread exited between readdir and open
    total += field(*text, "voluntary_ctxt_switches:").value_or(0) +
             field(*text, "nonvoluntary_ctxt_switches:").value_or(0);
    any = true;
  }
  ::closedir(dir);
  if (!any) return std::nullopt;
  return total;
}

// --- Child ---------------------------------------------------------------------

namespace {

pid_t fork_exec(const std::vector<std::string>& argv, const std::vector<int>* cpus,
                const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child: only async-signal-safe calls from here to exec.
  if (cpus != nullptr) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : *cpus) CPU_SET(c, &set);
    ::sched_setaffinity(0, sizeof(set), &set);
  }
  const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd >= 0) {
    ::dup2(fd, STDOUT_FILENO);
    ::dup2(fd, STDERR_FILENO);
  }
  const int null_in = ::open("/dev/null", O_RDONLY);
  if (null_in >= 0) ::dup2(null_in, STDIN_FILENO);
  ::execv(args[0], args.data());
  ::_exit(127);
}

}  // namespace

std::optional<Child> Child::spawn(const std::vector<std::string>& argv,
                                  const std::vector<int>& cpus, const std::string& log_path,
                                  std::string& error) {
  ::unlink(log_path.c_str());  // never read a previous child's banner
  const pid_t pid = fork_exec(argv, &cpus, log_path);
  if (pid < 0) {
    error = std::string("fork: ") + std::strerror(errno);
    return std::nullopt;
  }
  return Child(pid, log_path);
}

Child::Child(Child&& other) noexcept
    : pid_(other.pid_), log_path_(std::move(other.log_path_)), status_(other.status_) {
  other.pid_ = -1;
}

Child& Child::operator=(Child&& other) noexcept {
  if (this != &other) {
    if (pid_ > 0) terminate(2000);
    pid_ = other.pid_;
    log_path_ = std::move(other.log_path_);
    status_ = other.status_;
    other.pid_ = -1;
  }
  return *this;
}

Child::~Child() {
  // SIGTERM first: a psld --shards parent drains and reaps its shards.
  if (pid_ > 0) terminate(5000);
}

void Child::reap_blocking() {
  while (::waitpid(pid_, &status_, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

bool Child::running() {
  if (pid_ <= 0) return false;
  const pid_t r = ::waitpid(pid_, &status_, WNOHANG);
  if (r == pid_) {
    pid_ = -1;
    return false;
  }
  return true;
}

std::vector<std::string> Child::log_lines() {
  std::vector<std::string> lines;
  const auto text = slurp(log_path_);
  if (!text) return lines;
  std::istringstream in(*text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::optional<std::string> Child::wait_for_line(const std::string& needle, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  std::size_t offset = 0;
  std::string pending;
  for (;;) {
    {
      std::ifstream in(log_path_);
      if (in) {
        in.seekg(static_cast<std::streamoff>(offset));
        std::string chunk((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
        offset += chunk.size();
        pending += chunk;
      }
      std::size_t nl;
      while ((nl = pending.find('\n')) != std::string::npos) {
        std::string line = pending.substr(0, nl);
        pending.erase(0, nl + 1);
        if (line.find(needle) != std::string::npos) return line;
      }
    }
    if (!running() || std::chrono::steady_clock::now() >= deadline) return std::nullopt;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

bool Child::terminate(int timeout_ms) {
  if (pid_ <= 0) return WIFEXITED(status_) && WEXITSTATUS(status_) == 0;
  ::kill(pid_, SIGTERM);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (!running()) return WIFEXITED(status_) && WEXITSTATUS(status_) == 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::kill(pid_, SIGKILL);
  reap_blocking();
  return false;
}

int run_to_completion(const std::vector<std::string>& argv, const std::string& log_path) {
  const pid_t pid = fork_exec(argv, nullptr, log_path);
  if (pid < 0) return -1;
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::optional<std::uint16_t> banner_port(const std::string& line) {
  const std::size_t on = line.find(" on ");
  if (on == std::string::npos) return std::nullopt;
  const std::size_t colon = line.find(':', on);
  if (colon == std::string::npos) return std::nullopt;
  const long port = std::strtol(line.c_str() + colon + 1, nullptr, 10);
  if (port <= 0 || port > 65535) return std::nullopt;
  return static_cast<std::uint16_t>(port);
}

}  // namespace pb
