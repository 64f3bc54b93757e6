#include "perfbench/src/util.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

namespace perfbench {

void SleepMs(double ms) {
  std::this_thread::sleep_for(std::chrono::microseconds(
      static_cast<int64_t>(ms * 1000.0)));
}

IdleSpinners::IdleSpinners(int n) {
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      // On Linux this applies to the calling thread only.
      if (::sched_setscheduler(0, SCHED_IDLE, &param) != 0) return;
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_ = true;
  for (auto& t : threads_) t.join();
}

void WriteU64File(const std::string& path, const std::vector<uint64_t>& v,
                  bool append) {
  std::FILE* f = std::fopen(path.c_str(), append ? "ab" : "wb");
  if (f == nullptr) Die("cannot write " + path);
  if (!v.empty() && std::fwrite(v.data(), sizeof(uint64_t), v.size(), f) !=
                        v.size()) {
    Die("short write to " + path);
  }
  std::fclose(f);
}

void WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) Die("cannot write " + path);
  if (std::fwrite(text.data(), 1, text.size(), f) != text.size()) {
    Die("short write to " + path);
  }
  std::fclose(f);
}

std::string JsonEscape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

void RawResult::Num(const std::string& key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  fields_[key] = buf;
}

void RawResult::Str(const std::string& key, const std::string& v) {
  fields_[key] = JsonEscape(v);
}

void RawResult::Samples(const std::string& name,
                        const std::vector<uint64_t>& v) {
  const std::string file = name + ".u64";
  WriteU64File(dir_ + "/" + file, v);
  samples_[name] = file;
}

void RawResult::AppendSamples(const std::string& name,
                              const std::vector<uint64_t>& v) {
  const std::string file = name + ".u64";
  WriteU64File(dir_ + "/" + file, v, samples_.count(name) > 0);
  samples_[name] = file;
}

void RawResult::File(const std::string& name, const std::string& text) {
  WriteTextFile(dir_ + "/" + name, text);
  files_[name] = name;
}

void RawResult::Check(const std::string& name, bool ok,
                      const std::string& detail) {
  checks_.push_back("{\"name\":" + JsonEscape(name) + ",\"ok\":" +
                    (ok ? "true" : "false") +
                    ",\"detail\":" + JsonEscape(detail) + "}");
}

void RawResult::Write() const {
  auto object = [](const std::map<std::string, std::string>& m, bool quote) {
    std::string out = "{";
    for (const auto& [k, v] : m) {
      if (out.size() > 1) out += ",";
      out += JsonEscape(k) + ":" + (quote ? JsonEscape(v) : v);
    }
    return out + "}";
  };
  std::string out = object(fields_, false);
  out.pop_back();
  if (out.size() > 1) out += ",";
  out += "\"samples\":" + object(samples_, true);
  out += ",\"files\":" + object(files_, true);
  out += ",\"checks\":[";
  for (size_t i = 0; i < checks_.size(); ++i) {
    out += (i ? "," : "") + checks_[i];
  }
  out += "]}\n";
  WriteTextFile(dir_ + "/raw.json", out);
}

// ---- Child processes --------------------------------------------------------

namespace {

std::mutex g_children_mu;
std::vector<pid_t> g_children;          // spawned, not yet reaped
std::vector<std::string> g_deaths;      // exited before we killed them

void Forget(pid_t pid) {
  for (auto it = g_children.begin(); it != g_children.end(); ++it) {
    if (*it == pid) {
      g_children.erase(it);
      return;
    }
  }
}

pid_t Spawn(const std::vector<std::string>& argv, const std::string& log_path,
            int* to_child, int* from_child) {
  int in_pipe[2] = {-1, -1};
  int out_pipe[2] = {-1, -1};
  if (to_child != nullptr &&
      (::pipe2(in_pipe, O_CLOEXEC) != 0 || ::pipe2(out_pipe, O_CLOEXEC) != 0)) {
    Die("pipe: " + std::string(std::strerror(errno)));
  }
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) Die("cannot open " + log_path);
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  std::lock_guard<std::mutex> lock(g_children_mu);
  const pid_t pid = ::fork();
  if (pid < 0) Die("fork: " + std::string(std::strerror(errno)));
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    if (to_child != nullptr) {
      ::dup2(in_pipe[0], 0);
      ::dup2(out_pipe[1], 1);
    } else {
      ::dup2(log_fd, 1);
    }
    ::dup2(log_fd, 2);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(log_fd);
  if (to_child != nullptr) {
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    *to_child = in_pipe[1];
    *from_child = out_pipe[0];
  }
  g_children.push_back(pid);
  return pid;
}

void KillAllOnSignal(int sig) {
  // Async-signal-safe subset: kill + waitpid on the recorded pids. The
  // table may be mid-update; a pid killed twice is harmless.
  for (pid_t pid : g_children) {
    ::kill(pid, SIGKILL);
  }
  for (pid_t pid : g_children) {
    ::waitpid(pid, nullptr, 0);
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

pid_t SpawnChild(const std::vector<std::string>& argv,
                 const std::string& log_path) {
  return Spawn(argv, log_path, nullptr, nullptr);
}

pid_t SpawnChildPiped(const std::vector<std::string>& argv,
                      const std::string& log_path, int* to_child,
                      int* from_child) {
  return Spawn(argv, log_path, to_child, from_child);
}

bool ChildAlive(pid_t pid) {
  std::lock_guard<std::mutex> lock(g_children_mu);
  int status = 0;
  const pid_t r = ::waitpid(pid, &status, WNOHANG);
  if (r == 0) return true;
  if (r == pid) {
    std::ostringstream why;
    why << "pid " << pid;
    if (WIFSIGNALED(status)) {
      why << " killed by signal " << WTERMSIG(status);
    } else {
      why << " exited with code " << WEXITSTATUS(status);
    }
    g_deaths.push_back(why.str());
    Forget(pid);
  }
  return false;
}

void KillChild(pid_t pid) {
  if (pid <= 0) return;
  if (!ChildAlive(pid)) return;
  std::lock_guard<std::mutex> lock(g_children_mu);
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  Forget(pid);
}

int ReapChild(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  std::lock_guard<std::mutex> lock(g_children_mu);
  Forget(pid);
  return status;
}

void KillAllChildren() {
  std::vector<pid_t> pids;
  {
    std::lock_guard<std::mutex> lock(g_children_mu);
    pids = g_children;
  }
  for (pid_t pid : pids) KillChild(pid);
}

std::vector<std::string> ChildDeaths() {
  std::lock_guard<std::mutex> lock(g_children_mu);
  return g_deaths;
}

void InstallExitHandlers() {
  std::signal(SIGTERM, KillAllOnSignal);
  std::signal(SIGINT, KillAllOnSignal);
  std::signal(SIGALRM, KillAllOnSignal);
  std::signal(SIGPIPE, SIG_IGN);
  std::atexit(KillAllChildren);
}

// ---- Probes -----------------------------------------------------------------

int FreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) Die("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Die("bind :0");
  }
  ::close(fd);
  return ntohs(addr.sin_port);
}

std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      !WriteAll(fd, "GET " + path + " HTTP/1.0\r\n\r\n")) {
    ::close(fd);
    return "";
  }
  std::string reply;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    reply.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (reply.compare(0, 12, "HTTP/1.0 200") != 0 &&
      reply.compare(0, 12, "HTTP/1.1 200") != 0) {
    return "";
  }
  const size_t body = reply.find("\r\n\r\n");
  return body == std::string::npos ? "" : reply.substr(body + 4);
}

uint64_t StatusKib(pid_t pid, const std::string& field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, field.size(), field) == 0 &&
        line.size() > field.size() && line[field.size()] == ':') {
      return std::strtoull(line.c_str() + field.size() + 1, nullptr, 10);
    }
  }
  return 0;
}

void Die(const std::string& why) {
  std::fprintf(stderr, "perfbench_harness: %s\n", why.c_str());
  KillAllChildren();
  std::_Exit(1);
}

bool ReadLine(int fd, std::string* line) {
  line->clear();
  char c = 0;
  for (;;) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    if (c == '\n') return true;
    line->push_back(c);
  }
}

bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace perfbench
