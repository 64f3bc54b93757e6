// Multi-process crash recovery: the headline proof that the SMA<->SMD
// control plane survives peer death in both directions.
//
//  * A SIGKILLed client's budget returns to the daemon's free pool (EOF
//    deregistration; the lease TTL bounds the worst case when no EOF is
//    seen — smd_lease_test covers that edge in-process).
//  * A silent client is reaped by ExpireLeasesTick within one TTL of
//    deterministic clock time, and recovers through the inline kReattach
//    path the moment it speaks again.
//  * A SIGKILLed *daemon* leaves clients in degraded mode (local denials,
//    no blocking); after a restart they reattach with their budgets intact
//    and their heaps pass the full ShadowHeap invariant sweep.
//
// No sleeps-as-synchronization: children rendezvous over pipes, the parent
// observes daemon ledger state via WaitUntil, and lease expiry is driven by
// an injected clock. See process_harness.h for the discipline.

#include <gtest/gtest.h>

#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/ipc/daemon_client.h"
#include "src/ipc/daemon_server.h"
#include "src/ipc/messages.h"
#include "src/ipc/unix_socket.h"
#include "src/sma/soft_memory_allocator.h"
#include "src/smd/soft_memory_daemon.h"
#include "src/testing/failpoint.h"
#include "src/testing/invariants.h"
#include "tests/process_harness.h"

namespace softmem {
namespace {

using testing::ChildIo;
using testing::ChildProcess;
using testing::ShadowHeap;
using testing::WaitUntil;

constexpr size_t kCapacityPages = 256;
constexpr size_t kInitialGrantPages = 16;
constexpr Nanos kLeaseTtl = 100 * kNanosPerMilli;
constexpr size_t kAllocBytes = 3000;

// SimClock with an atomic tick so the parent can advance lease time while
// server session threads concurrently timestamp client traffic.
class AtomicTestClock : public Clock {
 public:
  Nanos Now() const override { return now_.load(std::memory_order_relaxed); }
  void Advance(Nanos d) { now_.fetch_add(d, std::memory_order_relaxed); }

 private:
  std::atomic<Nanos> now_{0};
};

// ---- Child bodies ----------------------------------------------------------

struct ClientConfig {
  std::string path;
  std::string name;
  int heartbeat_ms = 50;  // 0 = silent client (lease-expiry fodder)
  uint64_t pattern_seed = 1;
  size_t grow_allocs = 32;  // soft allocations made at connect time
};

// One real client process. Commands:
//   'c' connect + allocate          -> 'r' + u64 ledger budget
//   'l' spin alloc/free forever     -> 'l' (then dies by SIGKILL)
//   'v' verify invariants+patterns  -> 'v'
//   'x' budget request after our lease was reaped (inline reattach)
//                                   -> 'x' + u64 new ledger
//   'd' daemon dead: deny locally, never block -> 'd'
//   'r' reconnect + reattach, budget intact    -> 'k' + u64 ledger
//   'q' orderly teardown            -> exit 0
int ClientChildBody(ChildIo& io, const ClientConfig& cfg) {
  std::unique_ptr<DaemonClient> client;
  std::unique_ptr<SoftMemoryAllocator> sma;
  std::vector<void*> live;
  ShadowHeap shadow;

  for (;;) {
    const char cmd = io.WaitCommand();
    switch (cmd) {
      case 'c': {
        DaemonClientOptions copts;
        copts.rpc_timeout_ms = 5000;
        copts.heartbeat_interval_ms = cfg.heartbeat_ms;
        copts.reconnect_backoff_initial_ms = 5;
        copts.reconnect_backoff_max_ms = 50;
        const std::string path = cfg.path;
        auto made = DaemonClient::Connect(
            [path] { return ConnectUnixSocket(path); }, cfg.name, copts);
        SOFTMEM_CHILD_CHECK(made.ok());
        client = std::move(made).value();
        SmaOptions o;
        o.region_pages = 4096;
        o.initial_budget_pages = client->initial_budget_pages();
        o.budget_chunk_pages = 8;
        o.heap_retain_empty_pages = 0;
        o.use_mmap = false;
        auto made_sma = SoftMemoryAllocator::Create(o, client.get());
        SOFTMEM_CHILD_CHECK(made_sma.ok());
        sma = std::move(made_sma).value();
        client->AttachAllocator(sma.get());
        client->StartPoller();
        for (size_t i = 0; i < cfg.grow_allocs; ++i) {
          void* p = sma->SoftMalloc(kAllocBytes);
          SOFTMEM_CHILD_CHECK(p != nullptr);
          testing::FillPattern(p, kAllocBytes, cfg.pattern_seed + i);
          SOFTMEM_CHILD_CHECK(
              shadow
                  .OnAlloc(p, kAllocBytes, sma->default_context(),
                           cfg.pattern_seed + i)
                  .ok());
          live.push_back(p);
        }
        client->ReportUsage(sma->GetStats().committed_pages, 1 << 20);
        SOFTMEM_CHILD_CHECK(
            testing::CheckSmaInvariants(sma.get(), shadow).ok());
        io.SendStatus('r');
        io.SendU64(client->ledger_budget_pages());
        break;
      }
      case 'l': {
        io.SendStatus('l');
        for (;;) {  // SIGKILL lands somewhere in here, mid-allocation
          void* p = sma->SoftMalloc(kAllocBytes);
          if (p != nullptr) {
            sma->SoftFree(p);
          }
        }
      }
      case 'v': {
        for (size_t i = 0; i < live.size(); ++i) {
          SOFTMEM_CHILD_CHECK(
              testing::CheckPattern(live[i], kAllocBytes, cfg.pattern_seed + i)
                  .ok());
        }
        SOFTMEM_CHILD_CHECK(
            testing::CheckSmaInvariants(sma.get(), shadow).ok());
        void* p = sma->SoftMalloc(kAllocBytes);
        SOFTMEM_CHILD_CHECK(p != nullptr);
        sma->SoftFree(p);
        io.SendStatus('v');
        break;
      }
      case 'x': {
        const size_t before = client->ledger_budget_pages();
        auto granted = client->RequestBudget(8);
        SOFTMEM_CHILD_CHECK(granted.ok());
        SOFTMEM_CHILD_CHECK(*granted == 8);
        SOFTMEM_CHILD_CHECK(client->ledger_budget_pages() == before + 8);
        SOFTMEM_CHILD_CHECK(
            testing::CheckSmaInvariants(sma.get(), shadow).ok());
        io.SendStatus('x');
        io.SendU64(client->ledger_budget_pages());
        break;
      }
      case 'd': {
        const size_t before = client->ledger_budget_pages();
        const auto t0 = std::chrono::steady_clock::now();
        auto res = client->RequestBudget(4);
        const auto ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        SOFTMEM_CHILD_CHECK(!res.ok());
        SOFTMEM_CHILD_CHECK(ms < 2000);  // denied locally, not via timeout
        SOFTMEM_CHILD_CHECK(client->degraded());
        auto res2 = client->RequestBudget(4);  // pure local fast-deny now
        SOFTMEM_CHILD_CHECK(!res2.ok());
        SOFTMEM_CHILD_CHECK(res2.status().code() == StatusCode::kDenied);
        SOFTMEM_CHILD_CHECK(client->ledger_budget_pages() == before);
        io.SendStatus('d');
        break;
      }
      case 'r': {
        const size_t before = client->ledger_budget_pages();
        // The daemon died at an arbitrary point relative to our poller's
        // Recv: wait until the client *observed* the death (degraded) or
        // already self-healed through the poller's own redial — otherwise
        // TryReconnectNow below succeeds trivially on a client still
        // attached to the dead socket and proves nothing.
        SOFTMEM_CHILD_CHECK(WaitUntil(
            [&] { return client->degraded() || client->reconnects() >= 1; },
            15000));
        SOFTMEM_CHILD_CHECK(WaitUntil(
            [&] { return client->TryReconnectNow().ok(); }, 15000));
        SOFTMEM_CHILD_CHECK(!client->degraded());
        SOFTMEM_CHILD_CHECK(client->ledger_budget_pages() == before);
        SOFTMEM_CHILD_CHECK(client->reconnects() >= 1);
        for (size_t i = 0; i < live.size(); ++i) {
          SOFTMEM_CHILD_CHECK(
              testing::CheckPattern(live[i], kAllocBytes, cfg.pattern_seed + i)
                  .ok());
        }
        SOFTMEM_CHILD_CHECK(
            testing::CheckSmaInvariants(sma.get(), shadow).ok());
        auto extra = client->RequestBudget(4);  // the rebuilt table serves us
        SOFTMEM_CHILD_CHECK(extra.ok());
        client->ReleaseBudget(4);
        SOFTMEM_CHILD_CHECK(client->ledger_budget_pages() == before);
        io.SendStatus('k');
        io.SendU64(client->ledger_budget_pages());
        break;
      }
      case 'q':
      case '\0': {
        for (void* p : live) {
          SOFTMEM_CHILD_CHECK(shadow.OnFree(p).ok());
          sma->SoftFree(p);
        }
        live.clear();
        if (sma != nullptr) {
          SOFTMEM_CHILD_CHECK(
              testing::CheckSmaInvariants(sma.get(), shadow).ok());
        }
        sma.reset();
        client.reset();  // sends kGoodbye
        return 0;
      }
      default:
        return 2;
    }
  }
}

// A real softmemd stand-in that can be SIGKILLed: binds the socket, serves,
// then parks until killed or commanded to exit.
struct DaemonConfig {
  std::string path;
};

int DaemonChildBody(ChildIo& io, const DaemonConfig& cfg) {
  SmdOptions o;
  o.capacity_pages = kCapacityPages;
  o.initial_grant_pages = kInitialGrantPages;
  o.over_reclaim_factor = 0.0;
  SoftMemoryDaemon daemon(o);
  DaemonServer server(&daemon);
  auto listener = UnixSocketListener::Bind(cfg.path);
  SOFTMEM_CHILD_CHECK(listener.ok());
  server.ServeListener(listener->get());
  io.SendStatus('b');
  io.WaitCommand();  // 'q' or EOF (parent died)
  server.Stop();
  return 0;
}

// Reads the daemon's free-page count over a raw stats connection.
uint64_t QueryFreePages(MessageChannel* ch, uint64_t seq) {
  Message q;
  q.type = MsgType::kStatsQuery;
  q.seq = seq;
  if (!ch->Send(q).ok()) {
    return UINT64_MAX;
  }
  auto r = ch->Recv(5000);
  if (!r.ok() || r->type != MsgType::kStatsReply) {
    return UINT64_MAX;
  }
  return r->pages;
}

uint64_t SeedForThisRun() {
  const uint64_t seed = fail::SeedFromEnv(0xC4A5411EC0DEULL);
  std::printf("crash_recovery seed: %llu (set SOFTMEM_FAULT_SEED to replay)\n",
              static_cast<unsigned long long>(seed));
  return seed;
}

// ---- Tests -----------------------------------------------------------------

TEST(CrashRecovery, SigkilledClientBudgetReturnsToPool) {
  const uint64_t seed = SeedForThisRun();
  const std::string path = testing::TestSocketPath("crash_kill");
  ClientConfig victim_cfg{path, "victim", /*heartbeat_ms=*/50, seed, 32};
  ClientConfig bystander_cfg{path, "bystander", /*heartbeat_ms=*/50,
                             seed ^ 0x9E3779B97F4A7C15ULL, 16};
  // Fork while the parent is still single-threaded; children park on the
  // command pipe until the daemon below is serving.
  auto victim = ChildProcess::Spawn(
      [&](ChildIo& io) { return ClientChildBody(io, victim_cfg); });
  auto bystander = ChildProcess::Spawn(
      [&](ChildIo& io) { return ClientChildBody(io, bystander_cfg); });

  AtomicTestClock clock;
  SmdOptions o;
  o.capacity_pages = kCapacityPages;
  o.initial_grant_pages = kInitialGrantPages;
  o.over_reclaim_factor = 0.0;
  o.lease_ttl_ns = kLeaseTtl;
  o.clock = &clock;
  SoftMemoryDaemon daemon(o);
  DaemonServer server(&daemon);
  auto listener = UnixSocketListener::Bind(path);
  ASSERT_TRUE(listener.ok()) << listener.status();
  server.ServeListener(listener->get());

  ASSERT_TRUE(victim.SendCommand('c'));
  ASSERT_EQ(victim.WaitStatus(), 'r');
  const uint64_t victim_budget = victim.WaitU64();
  ASSERT_NE(victim_budget, UINT64_MAX);
  ASSERT_TRUE(bystander.SendCommand('c'));
  ASSERT_EQ(bystander.WaitStatus(), 'r');
  const uint64_t bystander_budget = bystander.WaitU64();
  EXPECT_GT(victim_budget, kInitialGrantPages);  // the child really grew

  // The daemon ledger converges to exactly what the clients hold.
  EXPECT_TRUE(WaitUntil([&] {
    return daemon.GetStats().assigned_pages ==
           victim_budget + bystander_budget;
  }));

  // Crash the victim mid-allocation.
  ASSERT_TRUE(victim.SendCommand('l'));
  ASSERT_EQ(victim.WaitStatus(), 'l');
  victim.Kill(SIGKILL);
  victim.Wait();

  // EOF deregistration returns the budget without any lease tick.
  EXPECT_TRUE(WaitUntil(
      [&] { return daemon.GetStats().assigned_pages == bystander_budget; }));
  EXPECT_TRUE(
      WaitUntil([&] { return daemon.GetStats().processes.size() == 1; }));
  // Nothing else is stale: a lease sweep right now reaps nobody.
  EXPECT_EQ(daemon.ExpireLeasesTick(), 0u);

  // The bystander never noticed: invariants, patterns, and service intact.
  ASSERT_TRUE(bystander.SendCommand('v'));
  EXPECT_EQ(bystander.WaitStatus(), 'v');

  ASSERT_TRUE(bystander.SendCommand('q'));
  EXPECT_TRUE(bystander.ExitedCleanly());
  EXPECT_TRUE(WaitUntil([&] { return daemon.GetStats().processes.empty(); }));
  EXPECT_EQ(daemon.free_pages(), kCapacityPages);
  server.Stop();
}

TEST(CrashRecovery, SilentClientLeaseExpiresThenReattaches) {
  const uint64_t seed = SeedForThisRun();
  const std::string path = testing::TestSocketPath("crash_lease");
  ClientConfig cfg{path, "silent", /*heartbeat_ms=*/0, seed, 24};
  auto child = ChildProcess::Spawn(
      [&](ChildIo& io) { return ClientChildBody(io, cfg); });

  AtomicTestClock clock;
  SmdOptions o;
  o.capacity_pages = kCapacityPages;
  o.initial_grant_pages = kInitialGrantPages;
  o.over_reclaim_factor = 0.0;
  o.lease_ttl_ns = kLeaseTtl;
  o.clock = &clock;
  SoftMemoryDaemon daemon(o);
  DaemonServer server(&daemon);
  auto listener = UnixSocketListener::Bind(path);
  ASSERT_TRUE(listener.ok()) << listener.status();
  server.ServeListener(listener->get());

  ASSERT_TRUE(child.SendCommand('c'));
  ASSERT_EQ(child.WaitStatus(), 'r');
  const uint64_t budget = child.WaitU64();
  ASSERT_NE(budget, UINT64_MAX);
  EXPECT_TRUE(WaitUntil(
      [&] { return daemon.GetStats().assigned_pages == budget; }));

  // The client stays alive but silent (heartbeats disabled): deterministic
  // clock time, not wall time, ages its lease past the TTL.
  clock.Advance(kLeaseTtl + kNanosPerMilli);
  EXPECT_EQ(daemon.ExpireLeasesTick(), 1u);
  EXPECT_EQ(daemon.free_pages(), kCapacityPages);
  EXPECT_TRUE(daemon.GetStats().processes.empty());
  EXPECT_EQ(daemon.GetStats().lease_expirations, 1u);
  EXPECT_EQ(daemon.ExpireLeasesTick(), 0u);  // idempotent

  // The moment the client speaks again, the inline kReattach path restores
  // its identity and claimed budget, then the new request is granted.
  ASSERT_TRUE(child.SendCommand('x'));
  ASSERT_EQ(child.WaitStatus(), 'x');
  const uint64_t new_ledger = child.WaitU64();
  EXPECT_EQ(new_ledger, budget + 8);
  EXPECT_TRUE(WaitUntil(
      [&] { return daemon.GetStats().assigned_pages == new_ledger; }));
  const SmdStats stats = daemon.GetStats();
  EXPECT_EQ(stats.reattaches, 1u);
  ASSERT_EQ(stats.processes.size(), 1u);
  EXPECT_EQ(stats.processes[0].name, "silent");

  ASSERT_TRUE(child.SendCommand('q'));
  EXPECT_TRUE(child.ExitedCleanly());
  EXPECT_TRUE(WaitUntil([&] { return daemon.GetStats().processes.empty(); }));
  EXPECT_EQ(daemon.free_pages(), kCapacityPages);
  server.Stop();
}

TEST(CrashRecovery, DaemonCrashClientsReattachWithBudgetsIntact) {
  const uint64_t seed = SeedForThisRun();
  const std::string path = testing::TestSocketPath("crash_daemon");
  DaemonConfig dcfg{path};

  // The daemon lives in its own process so it can die for real. The parent
  // stays single-threaded throughout — it is purely an orchestrator.
  auto d1 = ChildProcess::Spawn(
      [&](ChildIo& io) { return DaemonChildBody(io, dcfg); });
  ASSERT_EQ(d1.WaitStatus(), 'b');

  ClientConfig acfg{path, "alpha", /*heartbeat_ms=*/20, seed, 32};
  ClientConfig bcfg{path, "beta", /*heartbeat_ms=*/20,
                    seed ^ 0x517CC1B727220A95ULL, 16};
  auto a = ChildProcess::Spawn(
      [&](ChildIo& io) { return ClientChildBody(io, acfg); });
  auto b = ChildProcess::Spawn(
      [&](ChildIo& io) { return ClientChildBody(io, bcfg); });

  ASSERT_TRUE(a.SendCommand('c'));
  ASSERT_EQ(a.WaitStatus(), 'r');
  const uint64_t budget_a = a.WaitU64();
  ASSERT_TRUE(b.SendCommand('c'));
  ASSERT_EQ(b.WaitStatus(), 'r');
  const uint64_t budget_b = b.WaitU64();
  ASSERT_NE(budget_a, UINT64_MAX);
  ASSERT_NE(budget_b, UINT64_MAX);

  // Kill the daemon. Wait() guarantees its sockets are torn down before the
  // clients probe.
  d1.Kill(SIGKILL);
  d1.Wait();

  // Degraded mode: local denial, bounded latency, no blocking.
  ASSERT_TRUE(a.SendCommand('d'));
  EXPECT_EQ(a.WaitStatus(), 'd');

  // Restart "softmemd" on the same path (fresh empty table).
  auto d2 = ChildProcess::Spawn(
      [&](ChildIo& io) { return DaemonChildBody(io, dcfg); });
  ASSERT_EQ(d2.WaitStatus(), 'b');

  // Both clients reattach with budgets intact and clean invariants.
  ASSERT_TRUE(a.SendCommand('r'));
  ASSERT_EQ(a.WaitStatus(), 'k');
  EXPECT_EQ(a.WaitU64(), budget_a);
  ASSERT_TRUE(b.SendCommand('r'));
  ASSERT_EQ(b.WaitStatus(), 'k');
  EXPECT_EQ(b.WaitU64(), budget_b);

  // The restarted daemon's ledger was rebuilt from the live clients.
  auto stats_ch = ConnectUnixSocket(path);
  ASSERT_TRUE(stats_ch.ok()) << stats_ch.status();
  uint64_t seq = 1;
  EXPECT_TRUE(WaitUntil([&] {
    return QueryFreePages(stats_ch->get(), seq++) ==
           kCapacityPages - budget_a - budget_b;
  }));

  ASSERT_TRUE(a.SendCommand('q'));
  EXPECT_TRUE(a.ExitedCleanly());
  ASSERT_TRUE(b.SendCommand('q'));
  EXPECT_TRUE(b.ExitedCleanly());
  EXPECT_TRUE(WaitUntil([&] {
    return QueryFreePages(stats_ch->get(), seq++) == kCapacityPages;
  }));
  ASSERT_TRUE(d2.SendCommand('q'));
  EXPECT_TRUE(d2.ExitedCleanly());
}

}  // namespace
}  // namespace softmem
