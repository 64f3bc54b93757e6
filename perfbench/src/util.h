// Shared plumbing for the benchmark harness: clocks, sample files, the
// raw-result record run.py reads, child processes, and tiny HTTP/RSS probes.

#ifndef PERFBENCH_SRC_UTIL_H_
#define PERFBENCH_SRC_UTIL_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SleepMs(double ms);

// Keeps `n` CPUs busy with spinning threads of the lowest priority
// (SCHED_IDLE) while alive. Any other thread that wakes preempts a spinner
// at once, so the spinners take no CPU time the system under test wants;
// what they change is that no CPU ever halts. On a virtual machine, a
// halted vCPU that is woken (a reply arriving for a thread that slept on
// it) waits for the host to run it again, and that wait - accounted as
// stolen time - varied with the host's load from one run to the next.
class IdleSpinners {
 public:
  explicit IdleSpinners(int n);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// Timing samples may carry a slice index (a stretch of the measured phase)
// above this bit; run.py splits them with analysis.split_slices.
constexpr int kSliceShift = 40;  // 2^40 ns is 18 minutes

// Raw little-endian uint64 array, read by run.py with array('Q').
void WriteU64File(const std::string& path, const std::vector<uint64_t>& v,
                  bool append = false);
void WriteTextFile(const std::string& path, const std::string& text);

std::string JsonEscape(const std::string& s);

// The record one harness invocation leaves in its output directory as
// raw.json. Values are pre-rendered JSON fragments so callers stay terse.
class RawResult {
 public:
  explicit RawResult(std::string dir) : dir_(std::move(dir)) {}

  void Set(const std::string& key, const std::string& json) {
    fields_[key] = json;
  }
  void Num(const std::string& key, double v);
  void Str(const std::string& key, const std::string& v);
  // Stores `v` as <name>.u64 and records the file under "samples".
  void Samples(const std::string& name, const std::vector<uint64_t>& v);
  // As Samples, but appends to the file of an earlier call for `name`, so
  // a caller can hand over samples round by round instead of holding them.
  void AppendSamples(const std::string& name, const std::vector<uint64_t>& v);
  // Stores `text` as <name> and records the file under "files".
  void File(const std::string& name, const std::string& text);
  // A correctness check; any failed check makes run.py report incorrect.
  void Check(const std::string& name, bool ok, const std::string& detail);

  // Writes raw.json. Call once at the end.
  void Write() const;

 private:
  std::string dir_;
  std::map<std::string, std::string> fields_;
  std::map<std::string, std::string> samples_;
  std::map<std::string, std::string> files_;
  std::vector<std::string> checks_;
};

// ---- Child processes --------------------------------------------------------
//
// Every child is recorded in a process-wide table so that any exit path of
// the harness — normal return, fatal error, SIGTERM/SIGINT/SIGALRM — can
// SIGKILL and reap it. Children also get PR_SET_PDEATHSIG so they die with
// the harness even if it is SIGKILLed itself.

// Forks and execs argv[0] with stdout+stderr appended to `log_path`.
pid_t SpawnChild(const std::vector<std::string>& argv,
                 const std::string& log_path);
// As SpawnChild, but the child's stdin/stdout are pipes returned through
// *to_child / *from_child (stderr goes to the log).
pid_t SpawnChildPiped(const std::vector<std::string>& argv,
                      const std::string& log_path, int* to_child,
                      int* from_child);
// True while the child has not exited. Records an unexpected exit.
bool ChildAlive(pid_t pid);
// SIGKILLs and reaps one child (no-op for pids already reaped).
void KillChild(pid_t pid);
// Waits for a child that was asked to exit; returns its wait status.
int ReapChild(pid_t pid);
void KillAllChildren();
// Children that exited on their own before KillChild, with their status.
std::vector<std::string> ChildDeaths();
// Installs the signal handlers that kill children on SIGTERM/INT/ALRM.
void InstallExitHandlers();

// Picks a free loopback TCP port (bind :0, read, close).
int FreePort();
// GET http://127.0.0.1:port/path; returns the body, or "" on failure.
std::string HttpGet(int port, const std::string& path);
// A KiB field of /proc/<pid>/status, e.g. "VmRSS" (0 if unreadable).
uint64_t StatusKib(pid_t pid, const std::string& field);

[[noreturn]] void Die(const std::string& why);

// Reads one '\n'-terminated line from fd (blocking, no buffering beyond
// the line). False on EOF/error.
bool ReadLine(int fd, std::string* line);
bool WriteAll(int fd, const std::string& data);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_UTIL_H_
