// perfbench_harness — the process run.py starts for each benchmark run.
//
//   perfbench_harness kv|churn --workload NAME --seed N --seconds S
//                    --trace 0|1 --setup-reps N --out DIR --bin DIR
//   perfbench_harness antagonist --socket PATH --out DIR --trace 0|1
//
// Writes raw.json and sample files into --out; run.py derives the metrics.

#include <sched.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>

#include "perfbench/src/harness.h"
#include "perfbench/src/util.h"

namespace perfbench {

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return CPU_COUNT(&set);
  }
  return static_cast<int>(std::thread::hardware_concurrency());
}

pid_t StartSoftmemd(const Args& args, const std::string& socket,
                    int capacity_mib, int metrics_port) {
  const pid_t pid =
      SpawnChild({args.bin + "/softmemd", "--socket", socket, "--capacity-mib",
                  std::to_string(capacity_mib), "--metrics-port",
                  std::to_string(metrics_port)},
                 args.out + "/softmemd.log");
  const uint64_t deadline = NowNs() + 10'000'000'000ULL;
  while (HttpGet(metrics_port, "/metrics").empty()) {
    if (NowNs() > deadline || !ChildAlive(pid)) return -1;
    SleepMs(0.2);  // fine-grained: a churn set-up takes a few ms in all
  }
  return pid;
}

double PromValue(const std::string& text, const std::string& name) {
  double sum = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, name.size(), name) != 0 || line.size() == name.size()) {
      continue;
    }
    const char next = line[name.size()];
    if (next != ' ' && next != '{') continue;
    const size_t space = line.rfind(' ');
    sum += std::strtod(line.c_str() + space + 1, nullptr);
  }
  return sum;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_harness kv|churn|antagonist ...\n");
    return 2;
  }
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return 2;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") args.traced = value == "1";
    else if (flag == "--setup-reps") args.setup_reps = std::atoi(value.c_str());
    else if (flag == "--out") args.out = value;
    else if (flag == "--bin") args.bin = value;
    else if (flag == "--socket") args.socket = value;
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.out.empty() || args.setup_reps < 1 || args.seconds <= 0) {
    std::fprintf(stderr, "--out, --setup-reps >= 1 and --seconds > 0 needed\n");
    return 2;
  }
  if (args.mode == "antagonist") {
    ::mkdir(args.out.c_str(), 0755);
    return RunAntagonist(args);
  }
  InstallExitHandlers();
  if (args.mode == "kv") return RunKv(args);
  if (args.mode == "churn") return RunChurn(args);
  std::fprintf(stderr, "unknown mode %s\n", args.mode.c_str());
  return 2;
}
