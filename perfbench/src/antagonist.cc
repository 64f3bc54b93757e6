// The pressure workload's antagonist: a separate process that registers
// with softmemd through DaemonClient and, on command from the harness, grows
// a soft heap in 1 KiB SoftMallocs (the paper's size) until softmemd has to
// reclaim from the KV, then frees it and hands the budget back.
//
// Protocol on stdin/stdout, one line each way:
//   grow -> "grew ms=<episode> allocs=<n> fails=<n> grants=<n>"
//   free -> "freed bad=<blocks with a wrong fill> trimmed=<pages>"
//   quit -> "bye" (after writing its samples to --out)
// Its /metrics text is written to --out at the start of each growth and at
// the end of each free, so run.py diffs the episodes only.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/util.h"
#include "src/ipc/daemon_client.h"
#include "src/ipc/unix_socket.h"
#include "src/sma/soft_memory_allocator.h"
#include "src/telemetry/metrics.h"

namespace perfbench {

int RunAntagonist(const Args& args) {
  using namespace softmem;
  constexpr size_t kBlock = 1024;
  telemetry::SetArmed(true);

  DaemonClientOptions copts;
  copts.tenant = "antagonist";
  const std::string socket = args.socket;
  auto registered = DaemonClient::Connect(
      [socket] { return ConnectUnixSocket(socket); }, "antagonist", copts);
  if (!registered.ok()) Die("antagonist: " + registered.status().ToString());
  std::unique_ptr<DaemonClient> client = std::move(registered).value();
  TracedChannel traced(client.get());
  SmdChannel* channel = args.traced ? static_cast<SmdChannel*>(&traced)
                                    : static_cast<SmdChannel*>(client.get());

  SmaOptions o;
  o.metrics = &telemetry::MetricsRegistry::Global();
  o.metrics_instance = "antagonist";
  o.region_pages = 64 * 256;  // 64 MiB virtual
  o.initial_budget_pages = client->initial_budget_pages();
  o.budget_chunk_pages = kAntagonistChunkPages;
  o.heap_retain_empty_pages = 0;
  auto created = SoftMemoryAllocator::Create(o, channel);
  if (!created.ok()) Die("antagonist allocator: " + created.status().ToString());
  std::unique_ptr<SoftMemoryAllocator> sma = std::move(created).value();
  client->AttachAllocator(sma.get());
  client->StartPoller();
  ContextOptions copt;
  copt.name = "antagonist";
  copt.mode = ReclaimMode::kNone;  // its live blocks are never revoked
  auto ctx = sma->CreateContext(copt);
  if (!ctx.ok()) Die("antagonist context: " + ctx.status().ToString());

  std::vector<uint64_t> grant_ns, episode_ns;
  std::vector<std::pair<unsigned char*, unsigned char>> blocks;
  uint64_t attempted = 0, failed = 0, bad = 0;
  int episodes = 0;
  auto scrape = [&](const char* when) {
    WriteTextFile(args.out + "/antagonist_" + when + "." +
                      std::to_string(episodes) + ".prom",
                  telemetry::MetricsRegistry::Global().RenderPrometheus());
  };
  std::printf("ready\n");
  std::fflush(stdout);

  std::string cmd;
  while (ReadLine(0, &cmd)) {
    char reply[256];
    if (cmd == "grow") {
      scrape("before");
      const size_t n = kAntagonistTargetKib * 1024 / kBlock;
      uint64_t fails = 0, grants = 0;
      size_t last_budget = sma->budget_pages();
      const uint64_t start = NowNs();
      for (size_t i = 0; i < n; ++i) {
        ++attempted;
        const uint64_t t0 = NowNs();
        auto* p = static_cast<unsigned char*>(sma->SoftMalloc(*ctx, kBlock));
        const uint64_t t1 = NowNs();
        if (p == nullptr) {
          ++fails;
          continue;
        }
        const auto fill = static_cast<unsigned char>(i * 131 + 7);
        std::memset(p, fill, kBlock);
        blocks.emplace_back(p, fill);
        // The call that crossed a budget chunk waited for a grant.
        const size_t budget = sma->budget_pages();
        if (budget > last_budget) {
          grant_ns.push_back(t1 - t0);
          ++grants;
        }
        last_budget = budget;
      }
      episode_ns.push_back(NowNs() - start);
      failed += fails;
      std::snprintf(reply, sizeof(reply),
                    "grew ms=%.3f allocs=%zu fails=%llu grants=%llu",
                    static_cast<double>(episode_ns.back()) / 1e6, n,
                    static_cast<unsigned long long>(fails),
                    static_cast<unsigned long long>(grants));
    } else if (cmd == "free") {
      uint64_t wrong = 0;
      for (auto [p, fill] : blocks) {
        if (p[0] != fill || p[kBlock - 1] != fill) ++wrong;
        sma->SoftFree(p);
      }
      blocks.clear();
      bad += wrong;
      const size_t trimmed = sma->TrimAndReleaseBudget();
      scrape("after");
      ++episodes;
      std::snprintf(reply, sizeof(reply), "freed bad=%llu trimmed=%zu",
                    static_cast<unsigned long long>(wrong), trimmed);
    } else if (cmd == "quit") {
      RawResult raw(args.out);
      raw.Samples("grant_ns", grant_ns);
      raw.Samples("episode_ns", episode_ns);
      raw.Num("attempted", static_cast<double>(attempted));
      raw.Num("failed", static_cast<double>(failed));
      raw.Num("phases", episodes);
      raw.Check("antagonist_fill_pattern", bad == 0,
                std::to_string(bad) + " blocks with a wrong fill");
      client.reset();  // stop the poller before reading spans
      if (args.traced) {
        WriteSpans(args.out + "/spans.csv", SpanLog::Collect());
        raw.Set("spans", JsonEscape("spans.csv"));
      }
      raw.Write();
      std::printf("bye\n");
      std::fflush(stdout);
      return 0;
    } else {
      std::snprintf(reply, sizeof(reply), "error unknown command");
    }
    std::printf("%s\n", reply);
    std::fflush(stdout);
  }
  return 1;  // the harness went away without "quit"
}

}  // namespace perfbench
