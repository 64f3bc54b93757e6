// sma_churn: SoftMemoryAllocator over DaemonClient against a real softmemd,
// as in the paper's CASE2. Each thread owns a context and churns 1 KiB
// allocations against a seeded live set; budget grows chunk by chunk from a
// trimmed start in every round. The 1-thread pattern is replayed against
// glibc malloc in the same run (the CASE1 ratio), then the pattern runs at
// nproc threads.

#include <malloc.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/util.h"
#include "src/common/rng.h"
#include "src/ipc/daemon_client.h"
#include "src/ipc/unix_socket.h"
#include "src/sma/soft_memory_allocator.h"
#include "src/telemetry/event_journal.h"
#include "src/telemetry/metrics.h"

namespace perfbench {
namespace {

// Workload shape. Changing any of these changes the benchmark.
constexpr size_t kBlock = 1024;
constexpr size_t kLive = 4096;      // live blocks per thread (4 MiB)
constexpr uint64_t kBatch = 64;     // churn steps per timed batch
constexpr uint64_t kSpanEvery = 64; // traced run: 1 in 64 ops gets a span
constexpr int kRounds1t = 15;
constexpr int kRoundsMt = 9;
constexpr int kCapacityMib = 1024;

struct SmaArm {
  softmem::SoftMemoryAllocator* sma;
  softmem::ContextId ctx;
  void* Alloc() { return sma->SoftMalloc(ctx, kBlock); }
  void Free(void* p) { sma->SoftFree(p); }
};

struct LibcArm {
  void* Alloc() { return std::malloc(kBlock); }
  void Free(void* p) { std::free(p); }
};

struct PatternResult {
  uint64_t ops = 0;    // allocs + frees
  uint64_t steps = 0;  // churn steps (one free + one alloc each)
  uint64_t fails = 0;
  uint64_t bad = 0;
  uint64_t ns = 0;
};

uint64_t Tag(uint64_t seed, uint64_t thread, uint64_t slot, uint64_t step) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (thread << 40) + (slot << 20) + step;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Stamp(void* p, uint64_t tag) {
  std::memcpy(p, &tag, sizeof(tag));
  std::memcpy(static_cast<char*>(p) + kBlock - sizeof(tag), &tag, sizeof(tag));
}

bool StampOk(const void* p, uint64_t tag) {
  uint64_t head = 0, tail = 0;
  std::memcpy(&head, p, sizeof(head));
  std::memcpy(&tail, static_cast<const char*>(p) + kBlock - sizeof(tail),
              sizeof(tail));
  return head == tag && tail == tag;
}

// Times one alloc or free as a span (traced runs only, 1 in kSpanEvery).
template <typename Fn>
auto Sampled(bool on, SpanKind kind, Fn fn) {
  if (!on) return fn();
  Span span;
  span.id = SpanLog::NextId();
  span.kind = kind;
  SpanLog::SetCurrent(span.id);
  span.start = NowNs();
  auto r = fn();
  span.end = NowNs();
  SpanLog::SetCurrent(0);
  SpanLog::Record(span);
  return r;
}

// Fill kLive blocks, churn (free a seeded slot, allocate it again) until
// `max_steps` steps or `deadline`, then free everything. Every block's
// stamp is checked before it is freed. The time of each kBatch churn steps
// goes to `batch_ns` (if set), tagged with `slice` in the top bits.
template <typename Arm>
PatternResult RunPattern(Arm arm, uint64_t seed, uint64_t thread,
                         uint64_t max_steps, uint64_t deadline, bool traced,
                         std::vector<uint64_t>* batch_ns, uint64_t slice) {
  PatternResult r;
  std::vector<void*> slots(kLive, nullptr);
  std::vector<uint64_t> tags(kLive, 0);
  softmem::Rng rng(seed * 31 + thread);
  // Separate counters, so allocs and frees are each sampled 1 in kSpanEvery
  // whatever their interleaving.
  uint64_t allocs = 0, frees = 0;
  auto alloc = [&](size_t j, uint64_t step) {
    const bool sample = traced && (allocs++ % kSpanEvery == 0);
    void* p = Sampled(sample, SpanKind::kMalloc, [&] { return arm.Alloc(); });
    ++r.ops;
    if (p == nullptr) {
      ++r.fails;
      return;
    }
    tags[j] = Tag(seed, thread, j, step);
    Stamp(p, tags[j]);
    slots[j] = p;
  };
  auto release = [&](size_t j) {
    void* p = slots[j];
    if (p == nullptr) return;
    if (!StampOk(p, tags[j])) ++r.bad;
    const bool sample = traced && (frees++ % kSpanEvery == 0);
    Sampled(sample, SpanKind::kFree, [&] {
      arm.Free(p);
      return 0;
    });
    slots[j] = nullptr;
    ++r.ops;
  };

  const uint64_t start = NowNs();
  for (size_t j = 0; j < kLive; ++j) alloc(j, 0);
  uint64_t batch_start = NowNs();
  for (;;) {
    if (r.steps % kBatch == 0) {
      const uint64_t now = NowNs();
      if (r.steps > 0 && batch_ns != nullptr) {
        batch_ns->push_back((slice << kSliceShift) | (now - batch_start));
      }
      batch_start = now;
      if (max_steps != 0 ? r.steps >= max_steps : now >= deadline) break;
    }
    const size_t j = rng.NextBounded(kLive);
    release(j);
    alloc(j, ++r.steps);
  }
  for (size_t j = 0; j < kLive; ++j) release(j);
  r.ns = NowNs() - start;
  return r;
}

struct ChurnStack {
  pid_t smd = -1;
  int smd_port = 0;
  std::unique_ptr<softmem::DaemonClient> client;
  std::unique_ptr<TracedChannel> channel;
  std::unique_ptr<softmem::SoftMemoryAllocator> sma;

  void Teardown() {
    client.reset();  // stops the poller before the allocator goes away
    sma.reset();
    channel.reset();
    KillChild(smd);
    smd = -1;
  }
};

void StartChurnStack(const Args& args, int rep, ChurnStack* s) {
  using namespace softmem;
  const std::string socket = args.out + "/s" + std::to_string(rep) + ".sock";
  s->smd_port = FreePort();
  s->smd = StartSoftmemd(args, socket, kCapacityMib, s->smd_port);
  if (s->smd < 0) Die("softmemd did not serve /metrics");
  DaemonClientOptions copts;
  copts.tenant = "churn";
  auto registered = DaemonClient::Connect(
      [socket] { return ConnectUnixSocket(socket); }, "churn", copts);
  if (!registered.ok()) Die("churn: " + registered.status().ToString());
  s->client = std::move(registered).value();
  s->channel = std::make_unique<TracedChannel>(s->client.get());
  SmaOptions o;
  o.metrics = &telemetry::MetricsRegistry::Global();
  o.metrics_instance = "churn";
  o.region_pages = 256 * 1024;  // 1 GiB virtual
  o.initial_budget_pages = s->client->initial_budget_pages();
  o.budget_chunk_pages = 256;
  o.heap_retain_empty_pages = 0;
  SmdChannel* channel = args.traced ? static_cast<SmdChannel*>(s->channel.get())
                                    : static_cast<SmdChannel*>(s->client.get());
  auto sma = SoftMemoryAllocator::Create(o, channel);
  if (!sma.ok()) Die("churn allocator: " + sma.status().ToString());
  s->sma = std::move(sma).value();
  s->client->AttachAllocator(s->sma.get());
  s->client->StartPoller();
}

softmem::ContextId NewContext(softmem::SoftMemoryAllocator* sma, int t) {
  softmem::ContextOptions o;
  o.name = "churn-" + std::to_string(t);
  o.mode = softmem::ReclaimMode::kNone;
  auto ctx = sma->CreateContext(o);
  if (!ctx.ok()) Die("churn context: " + ctx.status().ToString());
  return *ctx;
}

}  // namespace

int RunChurn(const Args& args) {
  softmem::telemetry::SetArmed(true);
  RawResult raw(args.out);
  raw.Str("workload", args.workload);
  raw.Num("seed", static_cast<double>(args.seed));
  const int threads = Nproc();
  raw.Num("threads_mt", threads);
  raw.Num("live_blocks_per_thread", kLive);
  raw.Num("block_bytes", kBlock);
  raw.Num("batch_steps", kBatch);

  std::vector<uint64_t> setup_ns;
  ChurnStack stack;
  {
    IdleSpinners spinners(std::getenv("PB_NOSPIN") ? 0 : Nproc());
    for (int rep = 0; rep < args.setup_reps; ++rep) {
      stack.Teardown();
      const uint64_t t0 = NowNs();
      StartChurnStack(args, rep, &stack);
      setup_ns.push_back(NowNs() - t0);
    }
  }
  raw.Samples("setup_ns", setup_ns);
  softmem::SoftMemoryAllocator* sma = stack.sma.get();
  auto& registry = softmem::telemetry::MetricsRegistry::Global();
  // One measured stretch, bracketed by /metrics scrapes (as in kv.cc).
  raw.Num("phases", 1);
  raw.File("churn_before.0.prom", registry.RenderPrometheus());
  raw.File("smd_before.0.prom", HttpGet(stack.smd_port, "/metrics"));
  raw.File("journal_before.jsonl", HttpGet(stack.smd_port, "/journal"));

  const uint64_t measure_start = NowNs();
  uint64_t attempted = 0, failed = 0, bad = 0;
  auto account = [&](const PatternResult& r) {
    attempted += r.ops;
    failed += r.fails;
    bad += r.bad;
  };

  // Phase 1: one thread, SMA then glibc on the same op sequence per round.
  const uint64_t round_ns =
      static_cast<uint64_t>(args.seconds * 0.45e9 / kRounds1t);
  std::vector<uint64_t> sma_round_ns, libc_round_ns, sma_round_ops;
  for (int round = 0; round < kRounds1t; ++round) {
    const uint64_t seed = args.seed * 101 + round;
    const softmem::ContextId ctx = NewContext(sma, 0);
    const PatternResult s = RunPattern(SmaArm{sma, ctx}, seed, 0, 0,
                                       NowNs() + round_ns, args.traced,
                                       nullptr, 0);
    sma->DestroyContext(ctx);
    sma->TrimAndReleaseBudget();
    account(s);
    const PatternResult g =
        RunPattern(LibcArm{}, seed, 0, s.steps, 0, false, nullptr, 0);
    ::malloc_trim(0);
    account(g);
    sma_round_ns.push_back(s.ns);
    sma_round_ops.push_back(s.ops);
    libc_round_ns.push_back(g.ns);
  }

  // Phase 2: nproc threads, one context each, time-bounded rounds. The
  // per-call times of the end-to-end metrics come from here: one thread's
  // calls ran in one of two host speed modes for seconds at a time, while
  // nproc threads cover every CPU (see NOTES.md).
  const uint64_t mt_ns =
      static_cast<uint64_t>(args.seconds * 0.4e9 / kRoundsMt);
  std::vector<uint64_t> mt_round_ns, mt_round_ops;
  std::vector<std::vector<uint64_t>> mt_batch_ns(threads);
  for (int round = 0; round < kRoundsMt; ++round) {
    std::vector<PatternResult> results(threads);
    std::vector<softmem::ContextId> ctxs;
    for (int t = 0; t < threads; ++t) ctxs.push_back(NewContext(sma, t));
    const uint64_t start = NowNs();
    const uint64_t deadline = start + mt_ns;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        results[t] = RunPattern(SmaArm{sma, ctxs[t]}, args.seed * 977 + round,
                                static_cast<uint64_t>(t + 1), 0, deadline,
                                args.traced, &mt_batch_ns[t], round);
      });
    }
    for (auto& th : pool) th.join();
    for (auto& batches : mt_batch_ns) {
      // Handed over round by round, so the peak RSS does not grow with the
      // number of batches a run records.
      raw.AppendSamples("mt_batch_ns", batches);
      batches.clear();
    }
    const uint64_t wall = NowNs() - start;
    uint64_t ops = 0;
    for (const auto& r : results) {
      account(r);
      ops += r.ops;
    }
    for (auto ctx : ctxs) sma->DestroyContext(ctx);
    sma->TrimAndReleaseBudget();
    mt_round_ns.push_back(wall);
    mt_round_ops.push_back(ops);
  }

  raw.Samples("windows_ns", {measure_start, NowNs()});
  raw.File("churn_after.0.prom", registry.RenderPrometheus());
  raw.File("smd_after.0.prom", HttpGet(stack.smd_port, "/metrics"));
  raw.File("journal_after.jsonl", HttpGet(stack.smd_port, "/journal"));
  raw.File("sma_journal.jsonl", softmem::telemetry::RenderJournalJsonl(
                                    sma->reclaim_journal().Snapshot()));
  const bool smd_alive = ChildAlive(stack.smd);
  raw.Check("zero_process_deaths", smd_alive, smd_alive ? "" : "softmemd died");
  stack.Teardown();
  if (args.traced) {
    WriteSpans(args.out + "/spans.csv", SpanLog::Collect());
    raw.Set("spans", JsonEscape("spans.csv"));
  }

  raw.Samples("sma_round_ns", sma_round_ns);
  raw.Samples("sma_round_ops", sma_round_ops);
  raw.Samples("libc_round_ns", libc_round_ns);
  raw.Samples("mt_round_ns", mt_round_ns);
  raw.Samples("mt_round_ops", mt_round_ops);
  // Peak RSS: the process's footprint at its largest live set.
  raw.Num("rss_kib", static_cast<double>(StatusKib(::getpid(), "VmHWM")));
  raw.Num("attempted", static_cast<double>(attempted));
  raw.Num("failed", static_cast<double>(failed));
  raw.Check("fill_pattern_intact", bad == 0,
            std::to_string(bad) + " blocks with a wrong stamp");
  raw.Write();
  return 0;
}

}  // namespace perfbench
