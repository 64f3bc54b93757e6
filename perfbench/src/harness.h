// Entry points of the benchmark harness. run.py invokes one mode per run and
// turns the raw.json it leaves behind into metrics; see perfbench/NOTES.md.

#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

struct Args {
  std::string mode;      // kv | churn | antagonist
  std::string workload;  // ycsb_b_quiet | ycsb_b_pressure | sma_churn
  uint64_t seed = 1;
  double seconds = 10;
  // Traced run: hosts the KV stack in this process behind the span
  // wrappers (kv), or samples alloc/free spans (churn).
  bool traced = false;
  int setup_reps = 3;
  std::string out;  // output directory, relative to the working directory
  std::string bin;  // directory holding softmemd, kv_server and this harness
  std::string socket;  // antagonist mode: softmemd's socket
};

// The pressure antagonist's episode: the soft heap it grows in 1 KiB
// SoftMallocs, and the budget chunk its allocator asks softmemd for.
constexpr size_t kAntagonistTargetKib = 5 * 1024;
constexpr size_t kAntagonistChunkPages = 16;  // 64 KiB budget chunks

int RunKv(const Args& args);
int RunChurn(const Args& args);
int RunAntagonist(const Args& args);

// Logical CPUs this process may run on.
int Nproc();

// Starts softmemd on `socket` with its /metrics and /journal on
// `metrics_port`, and waits until it serves them. Returns its pid, or -1.
pid_t StartSoftmemd(const Args& args, const std::string& socket,
                    int capacity_mib, int metrics_port);

// Sum of every series of `name` in a Prometheus text exposition.
double PromValue(const std::string& text, const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
