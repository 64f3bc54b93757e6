// Tests for the DAMON-style access monitor (DESIGN §12): the sampler's
// decay math under an injected clock, the SMA's cold-first victim
// selection, sweep survival across context destruction, runtime toggling
// under live reclaim, and the sma.monitor.sample failpoint.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/units.h"
#include "src/sma/access_monitor.h"
#include "src/sma/soft_memory_allocator.h"
#include "src/testing/failpoint.h"

namespace softmem {
namespace {

// ---- Sampler unit tests (raw AccessMonitor, SimClock) -----------------------

AccessMonitorOptions TinyMonitor() {
  AccessMonitorOptions mo;
  mo.pages_per_tick = 8;  // == page count below: every tick is a full sweep
  mo.decay_every_ticks = 2;
  return mo;
}

// An 8-page monitor over `clock` (the sampler's side arrays are mapped, so
// creation can fail; these tests treat that as fatal).
std::unique_ptr<AccessMonitor> NewTinyMonitor(const Clock* clock) {
  auto m = AccessMonitor::Create(8, TinyMonitor(), clock);
  EXPECT_TRUE(m.ok()) << m.status();
  return std::move(m).value();
}

void NoVisit(const AccessMonitor::SampleVisit&) {}

TEST(AccessMonitorTest, RecordThenSampleFoldsIntoFrequency) {
  SimClock sim(1000);
  auto owned = NewTinyMonitor(&sim);
  AccessMonitor& m = *owned;
  m.Record(3);
  EXPECT_TRUE(m.SampleTick(NoVisit)) << "8-page budget must wrap the sweep";
  EXPECT_EQ(m.frequency(3), 1u);
  EXPECT_EQ(m.frequency(2), 0u);
  EXPECT_EQ(m.ticks(), 1u);
  EXPECT_EQ(m.sweeps(), 1u);
}

TEST(AccessMonitorTest, DecayHalvesFrequencyEveryInterval) {
  SimClock sim;
  auto owned = NewTinyMonitor(&sim);
  AccessMonitor& m = *owned;
  // Two accessed ticks build freq to 2.
  m.Record(3);
  m.SampleTick(NoVisit);  // tick 0
  m.Record(3);
  m.SampleTick(NoVisit);  // tick 1: freq = 2
  EXPECT_EQ(m.frequency(3), 2u);
  // Idle ticks: with decay_every_ticks = 2 the counter halves at ticks 2
  // and 4 (lazy decay catches up on visit).
  m.SampleTick(NoVisit);  // tick 2: 2 >> 1 = 1
  EXPECT_EQ(m.frequency(3), 1u);
  m.SampleTick(NoVisit);  // tick 3: no full interval elapsed
  EXPECT_EQ(m.frequency(3), 1u);
  m.SampleTick(NoVisit);  // tick 4: 1 >> 1 = 0
  EXPECT_EQ(m.frequency(3), 0u);
}

TEST(AccessMonitorTest, IdleTracksInjectedClock) {
  SimClock sim(1000);
  auto owned = NewTinyMonitor(&sim);
  AccessMonitor& m = *owned;
  m.Record(5);
  m.SampleTick(NoVisit);  // consume the bit: last_access = now
  sim.Advance(3 * kNanosPerSecond);
  EXPECT_EQ(m.idle_ns(5, sim.Now()), 3 * kNanosPerSecond);
  // A pending (unconsumed) access bit pins idleness to 0: a just-touched
  // page must never be dropped on stale heat.
  m.Record(5);
  EXPECT_EQ(m.idle_ns(5, sim.Now()), 0);
}

TEST(AccessMonitorTest, UnseenPagesIdleSinceCreation) {
  SimClock sim(1000);
  auto owned = NewTinyMonitor(&sim);
  AccessMonitor& m = *owned;
  sim.Advance(7 * kNanosPerSecond);
  EXPECT_EQ(m.idle_ns(0, sim.Now()), 7 * kNanosPerSecond);
}

TEST(AccessMonitorTest, ResetPageForgetsHistory) {
  SimClock sim;
  auto owned = NewTinyMonitor(&sim);
  AccessMonitor& m = *owned;
  m.Record(2);
  m.SampleTick(NoVisit);
  sim.Advance(10 * kNanosPerSecond);
  ASSERT_GT(m.idle_ns(2, sim.Now()), 0);
  m.ResetPage(2);  // page reassigned: the fresh owner starts hot-ish
  EXPECT_EQ(m.frequency(2), 0u);
  EXPECT_EQ(m.idle_ns(2, sim.Now()), 0);
}

// ---- SMA integration --------------------------------------------------------

struct DropLog {
  std::set<void*> dropped;
  ContextOptions Options(const char* name) {
    ContextOptions co;
    co.name = name;
    co.mode = ReclaimMode::kOldestFirst;
    co.callback = [this](void* p, size_t) { dropped.insert(p); };
    return co;
  }
};

SmaOptions MonitoredOptions(const SimClock* sim, size_t budget_pages = 20) {
  SmaOptions o;
  o.region_pages = 1024;
  o.initial_budget_pages = budget_pages;
  o.use_mmap = false;
  o.heap_retain_empty_pages = 0;
  o.clock = sim;
  o.access_monitor.enabled = true;
  return o;
}

std::unique_ptr<SoftMemoryAllocator> MakeSma(const SmaOptions& o) {
  auto r = SoftMemoryAllocator::Create(o);
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).value();
}

// One full sweep of the monitored region (region_pages / pages_per_tick
// ticks), folding all pending access bits into heat.
void FullSweep(SoftMemoryAllocator* sma) {
  for (int i = 0; i < 4; ++i) {
    ASSERT_GT(sma->SampleAccessTick(), 0u);
  }
}

TEST(AccessAwareReclaimTest, ColdPagesDropBeforeHotOnes) {
  SimClock sim;
  auto sma = MakeSma(MonitoredOptions(&sim));
  DropLog log;
  auto ctx = sma->CreateContext(log.Options("cache"));
  ASSERT_TRUE(ctx.ok());

  // 80 x 1 KiB = 20 pages, 4 slots each, allocated oldest-first.
  std::vector<void*> ptrs;
  for (int i = 0; i < 80; ++i) {
    ptrs.push_back(sma->SoftMalloc(*ctx, 1024));
    ASSERT_NE(ptrs.back(), nullptr);
  }
  FullSweep(sma.get());
  sim.Advance(5 * kNanosPerSecond);  // everything ages past the 2 s default

  // Re-touch the OLDEST half. Age-only reclamation would drop exactly
  // these; the access-aware scheme must leave them alone.
  for (int i = 0; i < 40; ++i) {
    sma->RecordAccess(ptrs[i]);
  }

  EXPECT_EQ(sma->HandleReclaimDemand(5), 5u);
  EXPECT_EQ(log.dropped.size(), 20u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(log.dropped.count(ptrs[i]), 0u)
        << "hot (recently read) allocation " << i << " was dropped";
  }
  const SmaStats s = sma->GetStats();
  EXPECT_TRUE(s.access_monitor_enabled);
  EXPECT_EQ(s.scheme_cold_drops, 20u);
  EXPECT_EQ(s.scheme_hot_drops, 0u);
  EXPECT_GT(s.monitor_ticks, 0u);
}

TEST(AccessAwareReclaimTest, FallsBackToOldestFirstWhenColdRunsOut) {
  SimClock sim;
  auto sma = MakeSma(MonitoredOptions(&sim));
  DropLog log;
  auto ctx = sma->CreateContext(log.Options("cache"));
  ASSERT_TRUE(ctx.ok());

  std::vector<void*> ptrs;
  for (int i = 0; i < 80; ++i) {
    ptrs.push_back(sma->SoftMalloc(*ctx, 1024));
    ASSERT_NE(ptrs.back(), nullptr);
  }
  FullSweep(sma.get());
  sim.Advance(5 * kNanosPerSecond);
  // Only the newest quarter (pages 15..19, 5 pages) stays cold.
  for (int i = 0; i < 60; ++i) {
    sma->RecordAccess(ptrs[i]);
  }

  // Demand twice the cold supply: the scheme takes all 5 cold pages first,
  // then falls back to plain oldest-first among the hot ones.
  EXPECT_EQ(sma->HandleReclaimDemand(10), 10u);
  EXPECT_EQ(log.dropped.size(), 40u);
  for (int i = 60; i < 80; ++i) {
    EXPECT_EQ(log.dropped.count(ptrs[i]), 1u) << "cold allocation " << i;
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(log.dropped.count(ptrs[i]), 1u)
        << "fallback must drop the oldest hot allocations, starting at " << i;
  }
  const SmaStats s = sma->GetStats();
  EXPECT_EQ(s.scheme_cold_drops, 20u);
  EXPECT_EQ(s.scheme_hot_drops, 20u);
}

TEST(AccessAwareReclaimTest, SchemeThresholdIsRuntimeTunable) {
  SimClock sim;
  auto sma = MakeSma(MonitoredOptions(&sim));
  EXPECT_EQ(sma->scheme_min_idle(), 2 * kNanosPerSecond);
  sma->SetSchemeMinIdle(30 * kNanosPerSecond);
  EXPECT_EQ(sma->scheme_min_idle(), 30 * kNanosPerSecond);

  DropLog log;
  auto ctx = sma->CreateContext(log.Options("cache"));
  ASSERT_TRUE(ctx.ok());
  std::vector<void*> ptrs;
  for (int i = 0; i < 80; ++i) {
    ptrs.push_back(sma->SoftMalloc(*ctx, 1024));
    ASSERT_NE(ptrs.back(), nullptr);
  }
  FullSweep(sma.get());
  sim.Advance(5 * kNanosPerSecond);  // idle, but below the raised threshold

  // Nothing qualifies as cold: pure oldest-first drops the oldest 20.
  EXPECT_EQ(sma->HandleReclaimDemand(5), 5u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(log.dropped.count(ptrs[i]), 1u);
  }
  EXPECT_EQ(sma->GetStats().scheme_cold_drops, 0u);
}

TEST(AccessAwareReclaimTest, ContextDestroyedMidSweepIsHarmless) {
  SimClock sim;
  auto sma = MakeSma(MonitoredOptions(&sim, /*budget_pages=*/64));
  DropLog log;
  auto doomed = sma->CreateContext(log.Options("doomed"));
  auto stays = sma->CreateContext(log.Options("stays"));
  ASSERT_TRUE(doomed.ok() && stays.ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_NE(sma->SoftMalloc(*doomed, 1024), nullptr);
    ASSERT_NE(sma->SoftMalloc(*stays, 1024), nullptr);
  }
  // Start a sweep, kill a context with attributed pages mid-way, finish the
  // sweep plus a full follow-up one: the sampler must skip the dead owner's
  // pages and publish without touching the erased accumulator.
  ASSERT_GT(sma->SampleAccessTick(), 0u);
  ASSERT_TRUE(sma->DestroyContext(*doomed).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_GT(sma->SampleAccessTick(), 0u);
  }
  sim.Advance(5 * kNanosPerSecond);
  // Two full sweeps: the 9 ticks above leave the cursor mid-region, so the
  // first post-advance wrap still carries pre-advance (hot) observations of
  // the low pages; the second wrap publishes a sweep taken entirely after
  // the clock jump.
  FullSweep(sma.get());
  FullSweep(sma.get());
  auto cs = sma->GetContextStats(*stays);
  ASSERT_TRUE(cs.ok());
  EXPECT_GT(cs->cold_bytes, 0u) << "survivor's pages aged past the threshold";
  EXPECT_FALSE(sma->GetContextStats(*doomed).ok());
}

TEST(AccessAwareReclaimTest, HotColdSplitPublishesAtSweepWrap) {
  SimClock sim;
  auto sma = MakeSma(MonitoredOptions(&sim));
  DropLog log;
  auto ctx = sma->CreateContext(log.Options("cache"));
  ASSERT_TRUE(ctx.ok());
  std::vector<void*> ptrs;
  for (int i = 0; i < 80; ++i) {
    ptrs.push_back(sma->SoftMalloc(*ctx, 1024));
    ASSERT_NE(ptrs.back(), nullptr);
  }
  FullSweep(sma.get());
  sim.Advance(5 * kNanosPerSecond);
  for (int i = 0; i < 40; ++i) {  // pages 0..9 hot, 10..19 cold
    sma->RecordAccess(ptrs[i]);
  }
  FullSweep(sma.get());
  auto cs = sma->GetContextStats(*ctx);
  ASSERT_TRUE(cs.ok());
  EXPECT_EQ(cs->hot_bytes, 10 * kPageSize);
  EXPECT_EQ(cs->cold_bytes, 10 * kPageSize);
  EXPECT_EQ(sma->GetStats().monitor_idle_pages, 10u);
}

TEST(AccessAwareReclaimTest, DisableClearsPublishedHeat) {
  SimClock sim;
  auto sma = MakeSma(MonitoredOptions(&sim));
  DropLog log;
  auto ctx = sma->CreateContext(log.Options("cache"));
  ASSERT_TRUE(ctx.ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_NE(sma->SoftMalloc(*ctx, 1024), nullptr);
  }
  FullSweep(sma.get());  // consume the allocation-time access bits
  sim.Advance(5 * kNanosPerSecond);
  FullSweep(sma.get());  // now every owned page classifies as cold
  ASSERT_GT(sma->GetStats().monitor_idle_pages, 0u);

  ASSERT_TRUE(sma->SetAccessMonitorEnabled(false).ok());
  EXPECT_FALSE(sma->access_monitor_enabled());
  EXPECT_EQ(sma->GetStats().monitor_idle_pages, 0u);
  auto cs = sma->GetContextStats(*ctx);
  ASSERT_TRUE(cs.ok());
  EXPECT_EQ(cs->hot_bytes, 0u);
  EXPECT_EQ(cs->cold_bytes, 0u);
  EXPECT_EQ(sma->SampleAccessTick(), 0u) << "disabled monitor must not tick";

  // Re-enable: the side arrays (built on first enable) are reused.
  ASSERT_TRUE(sma->SetAccessMonitorEnabled(true).ok());
  EXPECT_GT(sma->SampleAccessTick(), 0u);
}

TEST(AccessAwareReclaimTest, ToggleUnderLiveReclaimStaysConsistent) {
  SmaOptions o;
  o.region_pages = 256;
  o.initial_budget_pages = 64;
  o.use_mmap = false;
  o.heap_retain_empty_pages = 0;
  auto sma = MakeSma(o);  // monitor off at birth; real clock
  ContextOptions co;
  co.name = "churn";
  co.mode = ReclaimMode::kOldestFirst;
  co.callback = [](void*, size_t) {};
  auto ctx = sma->CreateContext(co);
  ASSERT_TRUE(ctx.ok());

  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    for (int i = 0; i < 400 && !stop.load(); ++i) {
      EXPECT_TRUE(sma->SetAccessMonitorEnabled(i % 2 == 0).ok());
      std::this_thread::yield();
    }
  });
  std::thread mutator([&] {
    std::vector<void*> live;
    for (int i = 0; i < 2000 && !stop.load(); ++i) {
      if (void* p = sma->SoftMalloc(*ctx, 512)) {
        sma->RecordAccess(p);
        live.push_back(p);
      }
      if (live.size() > 64) {
        sma->SoftFree(live.front());
        live.erase(live.begin());
      }
    }
    for (void* p : live) {
      sma->SoftFree(p);
    }
  });
  for (int i = 0; i < 50; ++i) {
    sma->HandleReclaimDemand(1);
    sma->SampleAccessTick();
  }
  stop.store(true);
  toggler.join();
  mutator.join();

  // Whatever interleaving happened, the allocator is still coherent.
  ASSERT_TRUE(sma->SetAccessMonitorEnabled(true).ok());
  void* p = sma->SoftMalloc(*ctx, 512);
  ASSERT_NE(p, nullptr);
  sma->SoftFree(p);
  (void)sma->GetStats();
}

// ---- Failpoint --------------------------------------------------------------

TEST(AccessMonitorFaultTest, SampleFailpointDropsTheTick) {
  fail::Registry().DisarmAll();
  SimClock sim;
  auto sma = MakeSma(MonitoredOptions(&sim));
  {
    fail::FailSpec spec;
    spec.probability = 1.0;
    fail::ScopedFailpoint fp("sma.monitor.sample", spec);
    EXPECT_EQ(sma->SampleAccessTick(), 0u);
    EXPECT_EQ(sma->GetStats().monitor_ticks, 0u);
  }
  EXPECT_GT(sma->SampleAccessTick(), 0u);
  EXPECT_EQ(sma->GetStats().monitor_ticks, 1u);
}

TEST(AccessMonitorFaultTest, SeededFaultScheduleIsReproducible) {
  fail::Registry().DisarmAll();
  const auto run_schedule = [](uint64_t seed) {
    fail::Registry().Seed(seed);
    fail::FailSpec spec;
    spec.probability = 0.5;
    fail::ScopedFailpoint fp("sma.monitor.sample", spec);
    SimClock sim;
    auto sma = MakeSma(MonitoredOptions(&sim));
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(sma->SampleAccessTick() == 0);
    }
    return fired;
  };
  const auto a = run_schedule(1234);
  const auto b = run_schedule(1234);
  EXPECT_EQ(a, b) << "same seed must reproduce the same dropped-tick pattern";
  // The sampler survives a lossy schedule: roughly half the ticks ran.
  const size_t fires = std::count(a.begin(), a.end(), true);
  EXPECT_GT(fires, 0u);
  EXPECT_LT(fires, a.size());
  fail::Registry().DisarmAll();
}

}  // namespace
}  // namespace softmem
