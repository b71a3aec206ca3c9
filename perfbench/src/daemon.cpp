// tuning_serverd as a child process, costed from outside through /proc.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace perfbench {

namespace {

constexpr double kStartTimeoutS = 20.0;
constexpr double kDrainTimeoutS = 60.0;

// Reads what the pipe has within `timeout_s`; false on EOF or timeout.
bool read_some(int fd, double timeout_s, std::string* out) {
  pollfd p{fd, POLLIN, 0};
  const int r = ::poll(&p, 1, static_cast<int>(timeout_s * 1e3));
  if (r <= 0) return false;
  char buf[4096];
  const ssize_t n = ::read(fd, buf, sizeof buf);
  if (n <= 0) return false;
  out->append(buf, static_cast<std::size_t>(n));
  return true;
}

long long status_field(const std::string& text, const char* key) {
  const auto at = text.find(key);
  return at == std::string::npos
             ? 0
             : std::atoll(text.c_str() + at + std::strlen(key));
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

}  // namespace

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

bool Daemon::start(std::string* err) {
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) {
    *err = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *err = std::string("fork: ") + std::strerror(errno);
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    return false;
  }
  if (pid == 0) {
    // Child: dies with perfbench, stdout into the pipe.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipefd[1], STDOUT_FILENO);
    const char* argv[] = {path_.c_str(), "--port", "0", nullptr};
    ::execv(path_.c_str(), const_cast<char* const*>(argv));
    ::_exit(127);
  }
  ::close(pipefd[1]);
  pid_ = pid;
  out_fd_ = pipefd[0];

  std::string out;
  const double deadline = now_s() + kStartTimeoutS;
  std::size_t eol = std::string::npos;
  while ((eol = out.find('\n')) == std::string::npos) {
    if (now_s() > deadline || !read_some(out_fd_, deadline - now_s(), &out)) {
      *err = "tuning_serverd did not report a listening port: " + out;
      return false;
    }
  }
  const std::string line = out.substr(0, eol);
  pending_ = out.substr(eol + 1);
  const auto at = line.find("listening on ");
  const auto colon = line.rfind(':', line.find(" (workers"));
  if (at == std::string::npos || colon == std::string::npos) {
    *err = "unexpected startup line: " + line;
    return false;
  }
  port_ = static_cast<std::uint16_t>(std::atoi(line.c_str() + colon + 1));
  if (port_ == 0) {
    *err = "no port in startup line: " + line;
    return false;
  }
  return true;
}

ProcSample Daemon::sample() const {
  ProcSample s;
  const std::string base = "/proc/" + std::to_string(pid_);
  // stat: fields 14/15 are utime/stime in clock ticks; the comm field
  // (2) is parenthesised and may hold spaces, so parse after its ')'.
  const std::string io = slurp(base + "/io");
  s.syscr = status_field(io, "syscr:");
  s.syscw = status_field(io, "syscw:");
  // CPU time and context switches summed over every thread.  The task
  // schedstat's first field is the thread's on-CPU time in ns: the clock
  // /proc/<pid>/stat reports in 10 ms ticks, too coarse for a ~15 ms
  // set-up.  The daemon's threads all live as long as it does, so the sum
  // over live tasks misses nothing.
  if (DIR* dir = ::opendir((base + "/task").c_str())) {
    while (const dirent* e = ::readdir(dir)) {
      if (e->d_name[0] == '.') continue;
      const std::string task = base + "/task/" + e->d_name;
      s.cpu_s += std::strtod(slurp(task + "/schedstat").c_str(), nullptr) * 1e-9;
      const std::string st = slurp(task + "/status");
      s.ctx_switches += status_field(st, "voluntary_ctxt_switches:") +
                        status_field(st, "nonvoluntary_ctxt_switches:");
    }
    ::closedir(dir);
  }
  const std::string status = slurp(base + "/status");
  s.vm_hwm_mb = static_cast<double>(status_field(status, "VmHWM:")) / 1024.0;
  return s;
}

std::string Daemon::stop(bool* clean) {
  *clean = false;
  if (pid_ <= 0) return {};
  ::kill(pid_, SIGTERM);
  std::string out = std::move(pending_);
  const double deadline = now_s() + kDrainTimeoutS;
  while (now_s() < deadline && read_some(out_fd_, deadline - now_s(), &out)) {
  }
  int status = 0;
  if (now_s() >= deadline) ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  ::close(out_fd_);
  out_fd_ = -1;
  *clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return out;
}

Dump parse_dump(const std::string& text) {
  Dump dump;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream tok(line);
    std::string name, kind;
    if (!(tok >> name >> kind)) continue;
    if (kind != "counter" && kind != "gauge" && kind != "hist") continue;
    std::vector<double>& cells = dump[name];
    for (std::string cell; tok >> cell;) {
      cells.push_back(std::strtod(cell.c_str(), nullptr));
    }
  }
  return dump;
}

}  // namespace perfbench
