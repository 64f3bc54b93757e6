// Thread-safety tests. The SMA takes one plain central mutex behind
// per-thread magazine caches (the paper's §7 leaves fine-grained concurrency
// open); these tests pin down that concurrent use is *safe*: allocations
// from many threads, reclaim demands racing application work, and daemon
// traffic from parallel processes never corrupt state.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/ipc/channel.h"
#include "src/ipc/daemon_client.h"
#include "src/ipc/daemon_server.h"
#include "src/kv/event_loop.h"
#include "src/kv/kv_server.h"
#include "src/kv/striped_store.h"
#include "src/runtime/sim_machine.h"
#include "src/sma/soft_memory_allocator.h"
#include "src/smd/soft_memory_daemon.h"

namespace softmem {
namespace {

std::unique_ptr<SoftMemoryAllocator> MakeSma(size_t pages,
                                             SmdChannel* channel = nullptr) {
  SmaOptions o;
  o.region_pages = pages;
  o.initial_budget_pages = pages;
  o.heap_retain_empty_pages = 2;
  o.use_mmap = false;
  auto r = SoftMemoryAllocator::Create(o, channel);
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

// Daemon stand-in with a fixed capacity and one client: the pages a reclaim
// demand takes from the SMA go into the daemon's free pool, and budget
// requests are granted out of that pool (denied when it is empty). The
// SMA's budget plus the pool therefore stays at the SMA's initial budget,
// as it would against a real SMD with no other processes.
class RegrantingDaemon : public SmdChannel {
 public:
  using SmdChannel::ReportUsage;

  // Executes one reclaim demand and pools the pages it produced.
  size_t Reclaim(SoftMemoryAllocator* sma, size_t pages) {
    const size_t got = sma->HandleReclaimDemand(pages);
    free_.fetch_add(got);
    return got;
  }

  Result<size_t> RequestBudget(size_t pages) override {
    size_t have = free_.load();
    size_t grant = 0;
    do {
      grant = std::min(have, pages);
      if (grant == 0) {
        return DeniedError("stand-in daemon has no free pages");
      }
    } while (!free_.compare_exchange_weak(have, have - grant));
    return grant;
  }
  void ReleaseBudget(size_t pages) override { free_.fetch_add(pages); }
  void ReportUsage(size_t, size_t) override {}

  size_t free_pages() const { return free_.load(); }

 private:
  std::atomic<size_t> free_{0};
};

TEST(ConcurrencyTest, ParallelAllocFreeAcrossContexts) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 20000;
  auto sma = MakeSma(16 * 1024);

  // Each worker gets its own non-reclaimable context, so pointers cannot be
  // revoked under it; the lock is still shared and fully contended.
  std::vector<ContextId> contexts;
  for (int t = 0; t < kThreads; ++t) {
    ContextOptions co;
    co.name = "worker" + std::to_string(t);
    co.mode = ReclaimMode::kNone;
    auto ctx = sma->CreateContext(co);
    ASSERT_TRUE(ctx.ok());
    contexts.push_back(*ctx);
  }

  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      std::vector<std::pair<char*, size_t>> live;
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (live.empty() || rng.NextBool(0.6)) {
          const size_t size = 1 + rng.NextBounded(2048);
          auto* p = static_cast<char*>(sma->SoftMalloc(contexts[t], size));
          if (p == nullptr) {
            ++errors;
            continue;
          }
          std::memset(p, t + 1, size);
          live.emplace_back(p, size);
        } else {
          const size_t pick = rng.NextBounded(live.size());
          auto [p, size] = live[pick];
          // Pattern check: another thread scribbling here means races.
          for (size_t b = 0; b < size; b += 97) {
            if (p[b] != t + 1) {
              ++errors;
              break;
            }
          }
          sma->SoftFree(p);
          live[pick] = live.back();
          live.pop_back();
        }
      }
      for (auto [p, size] : live) {
        sma->SoftFree(p);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(sma->GetStats().live_allocations, 0u);
}

TEST(ConcurrencyTest, ReclaimRacesAllocation) {
  auto sma = MakeSma(8 * 1024);
  // A reclaimable cache context owned by "the application"...
  ContextOptions cache_opts;
  cache_opts.name = "cache";
  cache_opts.mode = ReclaimMode::kOldestFirst;
  std::atomic<size_t> dropped{0};
  cache_opts.callback = [&dropped](void*, size_t) { ++dropped; };
  auto cache_ctx = sma->CreateContext(cache_opts);
  ASSERT_TRUE(cache_ctx.ok());

  // ...a worker thread that keeps inserting into the cache (never freeing:
  // revocation is the only cleanup, like a true cache)...
  std::atomic<bool> stop{false};
  std::atomic<size_t> inserted{0};
  std::atomic<bool> exhausted{false};
  std::thread inserter([&] {
    while (!stop.load()) {
      if (sma->SoftMalloc(*cache_ctx, 512) != nullptr) {
        ++inserted;
      } else {
        exhausted.store(true);
      }
    }
  });

  // A demand is served from budget slack before any SDS is touched
  // (DESIGN.md "Two-tier reclamation"), so demands sent while the inserter
  // is still filling the budget never revoke a cache entry. Wait until the
  // budget is used up: with allow_self_reclaim off, the first nullptr from
  // SoftMalloc means exactly that. From then on the inserter allocates
  // into whatever the demands free, racing revocation.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!exhausted.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!exhausted.load()) {
    stop.store(true);
    inserter.join();
    FAIL() << "inserter never exhausted the budget";
  }

  // ...and a "daemon" thread firing reclaim demands concurrently.
  std::thread reclaimer([&] {
    for (int i = 0; i < 200; ++i) {
      sma->HandleReclaimDemand(8);
      std::this_thread::yield();
    }
  });
  reclaimer.join();
  stop.store(true);
  inserter.join();

  EXPECT_GT(dropped.load(), 0u);
  const SmaStats s = sma->GetStats();
  EXPECT_EQ(s.live_allocations, inserted.load() - dropped.load());
  EXPECT_LE(s.committed_pages, s.budget_pages);
  EXPECT_EQ(s.committed_pages, s.pooled_pages + s.in_use_pages);
}

// Producers allocate in a shared cacheable context and hand pointers to
// consumers, which free them — so magazine refills happen on the producer
// side while the same pages' slots are pushed on the consumer side, and
// every page transitions full->partial->empty across thread caches.
TEST(ConcurrencyTest, CrossThreadFreeThroughMagazines) {
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr int kPerProducer = 15000;
  auto sma = MakeSma(16 * 1024);

  ContextOptions co;
  co.name = "shared";
  co.mode = ReclaimMode::kNone;
  auto ctx = sma->CreateContext(co);
  ASSERT_TRUE(ctx.ok());

  std::mutex handoff_mu;
  std::vector<std::pair<char*, size_t>> handoff;
  std::atomic<int> producers_done{0};
  std::atomic<int> errors{0};
  std::atomic<size_t> consumed{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kProducers; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kPerProducer; ++i) {
        const size_t size = 1 + rng.NextBounded(1024);
        auto* p = static_cast<char*>(sma->SoftMalloc(*ctx, size));
        if (p == nullptr) {
          ++errors;
          continue;
        }
        std::memset(p, static_cast<int>(size % 251), size);
        std::lock_guard<std::mutex> g(handoff_mu);
        handoff.emplace_back(p, size);
      }
      ++producers_done;
    });
  }
  for (int t = 0; t < kConsumers; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        std::pair<char*, size_t> item{nullptr, 0};
        {
          std::lock_guard<std::mutex> g(handoff_mu);
          if (!handoff.empty()) {
            item = handoff.back();
            handoff.pop_back();
          }
        }
        if (item.first == nullptr) {
          if (producers_done.load() == kProducers) {
            std::lock_guard<std::mutex> g(handoff_mu);
            if (handoff.empty()) {
              return;
            }
          }
          std::this_thread::yield();
          continue;
        }
        auto [p, size] = item;
        for (size_t b = 0; b < size; b += 61) {
          if (static_cast<unsigned char>(p[b]) != size % 251) {
            ++errors;
            break;
          }
        }
        sma->SoftFree(p);
        ++consumed;
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(consumed.load(),
            static_cast<size_t>(kProducers) * kPerProducer);
  const SmaStats s = sma->GetStats();
  EXPECT_EQ(s.live_allocations, 0u);
  EXPECT_EQ(s.total_allocs, s.total_frees);
  EXPECT_EQ(s.committed_pages, s.pooled_pages + s.in_use_pages);
}

// The reclaim-vs-alloc stress: private cacheable contexts doing
// malloc/free/realloc with pattern checks, a shared oldest-first context
// being filled insert-only, a reclaim thread firing demands (each revoking
// all magazines), and a stats poller racing snapshot drains against owners.
TEST(ConcurrencyTest, ReclaimVsCacheStress) {
  constexpr int kPrivateThreads = 2;
  constexpr int kInserters = 2;
  constexpr int kOpsPerThread = 12000;
  auto sma = MakeSma(16 * 1024);

  std::vector<ContextId> priv;
  for (int t = 0; t < kPrivateThreads; ++t) {
    ContextOptions co;
    co.name = "priv" + std::to_string(t);
    co.mode = ReclaimMode::kNone;
    co.priority = 10;  // reclaimed last (nothing to take anyway)
    auto ctx = sma->CreateContext(co);
    ASSERT_TRUE(ctx.ok());
    priv.push_back(*ctx);
  }
  ContextOptions cache_opts;
  cache_opts.name = "cache";
  cache_opts.mode = ReclaimMode::kOldestFirst;
  cache_opts.priority = 0;  // reclaimed first
  std::atomic<size_t> dropped{0};
  cache_opts.callback = [&dropped](void*, size_t) { ++dropped; };
  auto cache_ctx = sma->CreateContext(cache_opts);
  ASSERT_TRUE(cache_ctx.ok());

  std::atomic<int> errors{0};
  std::atomic<size_t> inserted{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  for (int t = 0; t < kPrivateThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(7000 + static_cast<uint64_t>(t));
      const char tag = static_cast<char>(t + 1);
      std::vector<std::pair<char*, size_t>> live;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const double roll = 0.001 * rng.NextBounded(1000);
        if (live.empty() || roll < 0.5) {
          const size_t size = 1 + rng.NextBounded(2048);
          auto* p = static_cast<char*>(sma->SoftMalloc(priv[t], size));
          if (p == nullptr) {
            continue;  // budget may be tight mid-reclaim; not an error
          }
          std::memset(p, tag, size);
          live.emplace_back(p, size);
        } else if (roll < 0.8) {
          const size_t pick = rng.NextBounded(live.size());
          auto [p, size] = live[pick];
          for (size_t b = 0; b < size; b += 97) {
            if (p[b] != tag) {
              ++errors;
              break;
            }
          }
          sma->SoftFree(p);
          live[pick] = live.back();
          live.pop_back();
        } else {
          const size_t pick = rng.NextBounded(live.size());
          auto [p, size] = live[pick];
          const size_t new_size = 1 + rng.NextBounded(3 * kPageSize);
          auto* q = static_cast<char*>(sma->SoftRealloc(p, new_size));
          if (q == nullptr) {
            continue;  // p is still valid and patterned
          }
          for (size_t b = 0; b < std::min(size, new_size); b += 97) {
            if (q[b] != tag) {
              ++errors;
              break;
            }
          }
          std::memset(q, tag, new_size);
          live[pick] = {q, new_size};
        }
      }
      for (auto [p, size] : live) {
        sma->SoftFree(p);
      }
    });
  }
  for (int t = 0; t < kInserters; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (sma->SoftMalloc(*cache_ctx, 512) != nullptr) {
          ++inserted;
        }
      }
    });
  }
  std::thread reclaimer([&] {
    for (int i = 0; i < 150; ++i) {
      sma->HandleReclaimDemand(8);
      std::this_thread::yield();
    }
  });
  std::thread poller([&] {
    while (!stop.load()) {
      const SmaStats s = sma->GetStats();
      if (s.committed_pages > s.budget_pages ||
          s.committed_pages != s.pooled_pages + s.in_use_pages) {
        ++errors;
      }
      std::this_thread::yield();
    }
  });

  for (auto& th : threads) {
    th.join();
  }
  reclaimer.join();
  stop.store(true);
  poller.join();

  EXPECT_EQ(errors.load(), 0);
  const SmaStats s = sma->GetStats();
  EXPECT_EQ(s.live_allocations, inserted.load() - dropped.load())
      << "only the insert-only cache context holds live memory after join";
  EXPECT_LE(s.committed_pages, s.budget_pages);
  EXPECT_EQ(s.committed_pages, s.pooled_pages + s.in_use_pages);
}

TEST(ConcurrencyTest, ParallelProcessesOnOneDaemon) {
  SmdOptions smd;
  smd.capacity_pages = 2048;
  smd.initial_grant_pages = 64;
  SimMachine machine(smd);

  constexpr int kProcs = 4;
  std::vector<SimProcess*> procs;
  for (int i = 0; i < kProcs; ++i) {
    SmaOptions o;
    o.region_pages = 4096;
    o.budget_chunk_pages = 32;
    o.heap_retain_empty_pages = 0;
    o.use_mmap = false;
    auto p = machine.SpawnProcess("p" + std::to_string(i), o);
    ASSERT_TRUE(p.ok());
    procs.push_back(*p);
  }

  // All processes allocate and trim concurrently: budget requests, grants,
  // reclamation demands, and releases interleave freely.
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kProcs; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 99);
      for (int round = 0; round < 50; ++round) {
        std::vector<void*> blocks;
        const size_t want = 16 + rng.NextBounded(200);
        for (size_t i = 0; i < want; ++i) {
          void* b = procs[t]->SoftMalloc(kPageSize);
          if (b != nullptr) {
            blocks.push_back(b);
          }
        }
        for (void* b : blocks) {
          procs[t]->SoftFree(b);
        }
        procs[t]->sma()->TrimAndReleaseBudget();
      }
      (void)errors;
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  const SmdStats s = machine.daemon()->GetStats();
  EXPECT_LE(s.assigned_pages, s.capacity_pages);
  size_t sum = 0;
  for (const auto& p : s.processes) {
    sum += p.budget_pages;
  }
  EXPECT_EQ(sum, s.assigned_pages) << "daemon ledger must stay consistent";
}

// ---- Lock-striped KV serving path -------------------------------------------
// TSan-targeted (the CI TSan job selects suites matching "Concurrency"):
// reactor threads executing striped commands while an external thread drives
// daemon-style reclaim demands through the stripes' try-lock gates. The
// gates must serialize reclaim against command execution with no deadlock
// (reclaim never blocks on a stripe while holding the SMA lock) and no
// race on dict state.

TEST(KvStripedConcurrencyTest, CommandsRaceDaemonReclaimDemands) {
  constexpr size_t kCapacity = 4 * 1024;
  RegrantingDaemon daemon;
  auto sma = MakeSma(kCapacity, &daemon);
  StripedKvStoreOptions store_opts;
  store_opts.stripes = 4;
  StripedKvStore store(sma.get(), store_opts);

  constexpr int kWriters = 4;
  constexpr int kOpsPerThread = 1500;
  std::atomic<int> errors{0};
  std::atomic<bool> stop_reclaim{false};

  // Daemon stand-in: repeated external reclaim demands from a non-command
  // thread, racing every stripe's gate. The reclaimed pages are granted
  // back when the writers ask for budget, as a real daemon would.
  std::thread reclaimer([&] {
    while (!stop_reclaim.load()) {
      daemon.Reclaim(sma.get(), 64);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 7);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key =
            "k" + std::to_string(t) + ":" + std::to_string(rng.NextBounded(256));
        const uint64_t dice = rng.NextBounded(100);
        if (dice < 50) {
          // Reclaimed-under-pressure SETs may fail; that is the soft
          // contract, not an error.
          RespValue r = store.Handle({"SET", key, "value" + key});
          if (r.type == RespType::kError &&
              r.str.find("OOM") == std::string::npos) {
            ++errors;
          }
        } else if (dice < 85) {
          RespValue r = store.Handle({"GET", key});
          if (r.type == RespType::kError) {
            ++errors;
          }
        } else if (dice < 95) {
          RespValue r = store.Handle({"DEL", key});
          if (r.type != RespType::kInteger) {
            ++errors;
          }
        } else if (dice < 98) {
          RespValue r = store.Handle({"MGET", key, "k0:1", "k1:2"});
          if (r.type != RespType::kArray) {
            ++errors;
          }
        } else {
          // Aggregate: locks all stripes in order, racing everyone.
          RespValue r = store.Handle({"DBSIZE"});
          if (r.type != RespType::kInteger) {
            ++errors;
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  stop_reclaim.store(true);
  reclaimer.join();
  EXPECT_EQ(errors.load(), 0);
  // Budget is conserved between the SMA and the daemon's pool.
  EXPECT_EQ(sma->budget_pages() + daemon.free_pages(), kCapacity);
  // The store must still be coherent end to end.
  ASSERT_TRUE(store.Set("final", "check"));
  EXPECT_EQ(*store.Get("final"), "check");
}

TEST(KvStripedConcurrencyTest, ServedTrafficWithFlushallAndReclaim) {
  auto sma = MakeSma(4 * 1024);
  StripedKvStoreOptions store_opts;
  store_opts.stripes = 4;
  StripedKvStore store(sma.get(), store_opts);
  EventLoopOptions loop_opts;
  loop_opts.io_threads = 2;
  auto server = EventLoopServer::Listen(&store, loop_opts);
  ASSERT_TRUE(server.ok()) << server.status();

  constexpr int kClients = 4;
  constexpr int kRounds = 60;
  std::atomic<int> errors{0};
  std::atomic<bool> stop_reclaim{false};
  std::thread reclaimer([&] {
    while (!stop_reclaim.load()) {
      sma->HandleReclaimDemand(32);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = KvClient::Connect((*server)->port());
      if (!client.ok()) {
        ++errors;
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::vector<std::string>> batch;
        for (int i = 0; i < 16; ++i) {
          const std::string key =
              "c" + std::to_string(c) + ":" + std::to_string(i);
          batch.push_back(i % 2 == 0
                              ? std::vector<std::string>{"SET", key, "v"}
                              : std::vector<std::string>{"GET", key});
        }
        if (c == 0 && round % 20 == 19) {
          batch.push_back({"FLUSHALL"});
        }
        auto replies = (*client)->Pipeline(batch);
        if (!replies.ok() || replies->size() != batch.size()) {
          ++errors;
          break;
        }
      }
    });
  }
  for (auto& th : clients) {
    th.join();
  }
  stop_reclaim.store(true);
  reclaimer.join();
  (*server)->Stop();
  EXPECT_EQ(errors.load(), 0);
}

// kv_server runs its SMA with allow_self_reclaim: when the daemon denies
// growth, a SET evicts the oldest entries of *other* stripes (through their
// try-lock gates) instead of failing. These tests pin that down over a
// channel that denies every request, so the budget never grows.
std::unique_ptr<SoftMemoryAllocator> MakeSelfReclaimingSma(
    size_t budget_pages, SmdChannel* channel) {
  SmaOptions o;
  o.region_pages = 4 * 1024;
  o.initial_budget_pages = budget_pages;
  o.heap_retain_empty_pages = 0;
  o.use_mmap = false;
  o.allow_self_reclaim = true;
  auto r = SoftMemoryAllocator::Create(o, channel);
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

std::string ValueFor(const std::string& key, int version) {
  return "value:" + key + ":" + std::to_string(version);
}

TEST(KvStripedConcurrencyTest, SelfReclaimKeepsSetsSucceedingOnDeniedBudget) {
  constexpr size_t kBudget = 32;  // about 2700 dict entries
  NullSmdChannel deny_all;
  auto sma = MakeSelfReclaimingSma(kBudget, &deny_all);
  StripedKvStoreOptions store_opts;
  store_opts.stripes = 4;
  StripedKvStore store(sma.get(), store_opts);

  // Ten times what the budget holds: every key is new, and every tenth SET
  // also rewrites an earlier key, so "the value last stored" moves.
  constexpr int kKeys = 30000;
  std::vector<int> version(kKeys, -1);
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "k" + std::to_string(i);
    version[i] = 0;
    ASSERT_TRUE(store.Set(key, ValueFor(key, 0))) << "SET of new key " << i;
    if (i % 10 == 9) {
      const int old = i / 2;
      const std::string old_key = "k" + std::to_string(old);
      ++version[old];
      ASSERT_TRUE(store.Set(old_key, ValueFor(old_key, version[old])))
          << "SET of earlier key " << old;
    }
  }
  const SmaStats stats = sma->GetStats();
  EXPECT_EQ(stats.budget_pages, kBudget) << "the denying channel granted";
  EXPECT_GT(stats.self_reclaims, 0u);
  const KvStoreStats kv = store.GetStats();
  EXPECT_GT(kv.reclaimed, 0u);
  EXPECT_EQ(kv.set_failures, 0u);

  size_t hits = 0;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "k" + std::to_string(i);
    const auto got = store.Get(key);
    if (got.has_value()) {
      ASSERT_EQ(*got, ValueFor(key, version[i])) << key;
      ++hits;
    }
  }
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, static_cast<size_t>(kKeys)) << "nothing was evicted";
}

TEST(KvStripedConcurrencyTest, SelfReclaimingSetsRaceDaemonReclaimDemands) {
  constexpr size_t kBudget = 64;
  NullSmdChannel deny_all;
  auto sma = MakeSelfReclaimingSma(kBudget, &deny_all);
  StripedKvStoreOptions store_opts;
  store_opts.stripes = 8;
  StripedKvStore store(sma.get(), store_opts);

  // Demands take budget away for good (nothing grants it back), so they are
  // capped at a quarter of it; the writers' SETs must keep succeeding on
  // what is left.
  constexpr size_t kDemandCap = kBudget / 4;
  std::atomic<bool> stop{false};
  std::atomic<size_t> demanded{0};
  std::thread reclaimer([&] {
    while (!stop.load() && demanded.load() < kDemandCap) {
      demanded.fetch_add(sma->HandleReclaimDemand(1));
      std::this_thread::yield();
    }
  });

  constexpr int kWriters = 2;
  constexpr int kSetsPerWriter = 8000;
  std::atomic<int> failed_sets{0};
  std::atomic<int> wrong_values{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      // Each writer owns its keys, so the value it last stored is known.
      Rng rng(static_cast<uint64_t>(t) + 11);
      const std::string prefix = "w" + std::to_string(t) + ":";
      for (int i = 0; i < kSetsPerWriter; ++i) {
        const std::string key = prefix + std::to_string(i);
        if (!store.Set(key, ValueFor(key, 0))) {
          ++failed_sets;
        }
        const std::string probe =
            prefix + std::to_string(rng.NextBounded(static_cast<uint64_t>(i) + 1));
        const auto got = store.Get(probe);
        if (got.has_value() && *got != ValueFor(probe, 0)) {
          ++wrong_values;
        }
      }
    });
  }
  for (auto& th : writers) {
    th.join();
  }
  stop.store(true);
  reclaimer.join();
  EXPECT_EQ(failed_sets.load(), 0);
  EXPECT_EQ(wrong_values.load(), 0);
  EXPECT_GT(sma->GetStats().self_reclaims, 0u);
  // Self-reclaim moves pages between contexts; only the demands shrink the
  // budget, and the denying channel never grows it.
  EXPECT_EQ(sma->budget_pages() + demanded.load(), kBudget);
}


// kv_server's set-up over a real daemon that can free nothing: "hog" holds
// the rest of the machine and has no allocator, so every reclaim demand it
// gets yields 0. The first page-needing SET is denied and the denial
// stands; every later SET evicts through self-reclaim without asking the
// daemon, until hog releases memory and the notice lets the budget grow.
TEST(KvStripedConcurrencyTest, DeniedBudgetCostsAFewRpcsNotOnePerSet) {
  constexpr size_t kCapacity = 512;
  constexpr size_t kInitialPages = 64;
  constexpr int kHeartbeatMs = 1000;
  SmdOptions smd_opts;
  smd_opts.capacity_pages = kCapacity;
  smd_opts.initial_grant_pages = kInitialPages;
  smd_opts.over_reclaim_factor = 0.0;
  SoftMemoryDaemon daemon(smd_opts);
  DaemonServer server(&daemon);
  DaemonClientOptions copts;
  copts.heartbeat_interval_ms = kHeartbeatMs;
  auto join = [&](const std::string& name) {
    auto [client_end, daemon_end] = CreateLocalChannelPair();
    server.AddClient(std::move(daemon_end));
    auto client = DaemonClient::Register(std::move(client_end), name, copts);
    EXPECT_TRUE(client.ok()) << client.status();
    (*client)->StartPoller();
    return std::move(client).value();
  };
  auto kv = join("kv");
  auto hog = join("hog");
  ASSERT_TRUE(hog->RequestBudget(kCapacity - 2 * kInitialPages).ok());

  SmaOptions o;
  o.region_pages = 4 * 1024;
  o.initial_budget_pages = kv->initial_budget_pages();
  o.budget_chunk_pages = 16;
  o.heap_retain_empty_pages = 0;
  o.use_mmap = false;
  o.allow_self_reclaim = true;
  auto sma = SoftMemoryAllocator::Create(o, kv.get());
  ASSERT_TRUE(sma.ok()) << sma.status();
  kv->AttachAllocator(sma->get());
  StripedKvStoreOptions store_opts;
  store_opts.stripes = 4;
  StripedKvStore store(sma->get(), store_opts);

  // About ten times what 64 pages hold.
  constexpr int kWriters = 4;
  constexpr int kSetsPerWriter = 2000;
  auto write = [&](const std::string& round) {
    std::atomic<int> failed{0};
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t) {
      writers.emplace_back([&, t] {
        for (int i = 0; i < kSetsPerWriter; ++i) {
          const std::string key =
              round + ":" + std::to_string(t) + ":" + std::to_string(i);
          if (!store.Set(key, ValueFor(key, 0))) {
            ++failed;
          }
        }
      });
    }
    for (auto& th : writers) {
      th.join();
    }
    return failed.load();
  };
  const size_t requests_before = daemon.GetStats().total_requests;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(write("held"), 0);
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  // One denied request, plus one more each time the denial lapses.
  const size_t rpcs = daemon.GetStats().total_requests - requests_before;
  EXPECT_GE(rpcs, 1u);
  EXPECT_LE(rpcs, 2 + static_cast<size_t>(elapsed_ms / kHeartbeatMs))
      << "in " << elapsed_ms << " ms";
  EXPECT_GT((*sma)->GetStats().self_reclaims, 0u);
  EXPECT_GT(kv->local_denials(), 0u);
  const size_t held_budget = (*sma)->budget_pages();
  EXPECT_EQ(held_budget, kInitialPages);

  // Budget is conserved: the SMA, the client's ledger and the daemon agree,
  // and the machine is still fully assigned.
  auto conserved = [&] {
    EXPECT_EQ((*sma)->budget_pages(), kv->ledger_budget_pages());
    EXPECT_EQ(*daemon.GetBudget(kv->process_id()), kv->ledger_budget_pages());
    EXPECT_EQ(*daemon.GetBudget(hog->process_id()), hog->ledger_budget_pages());
    EXPECT_EQ(daemon.GetStats().assigned_pages + daemon.free_pages(),
              kCapacity);
  };
  conserved();
  EXPECT_EQ(daemon.free_pages(), 0u);

  // Memory frees: the notice lifts the denial and the next SETs grow.
  hog->ReleaseBudget(128);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (kv->denial_standing() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(kv->denial_standing());
  EXPECT_EQ(write("freed"), 0);
  EXPECT_GT((*sma)->budget_pages(), held_budget);
  conserved();
}

}  // namespace
}  // namespace softmem
