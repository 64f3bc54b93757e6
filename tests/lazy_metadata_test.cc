// Lazily committed side metadata (DESIGN §5, "Lazy side tables"): the SMA's
// region-sized tables are anonymous MAP_NORESERVE mappings whose all-zero
// entry is the empty state, so an allocator costs resident memory only for
// the pages it actually hands out. These tests pin down the RSS claim, the
// error path of a mapping that cannot be made, and a seeded cycle that keeps
// moving pages between never-used, owned, pooled and decommitted states
// while the invariant checker and the byte patterns watch (run it under
// ASan via scripts/check.sh asan; replay a seed with SOFTMEM_FAULT_SEED).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/lazy_zero_array.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/sma/soft_memory_allocator.h"
#include "src/testing/failpoint.h"
#include "src/testing/invariants.h"

namespace softmem {
namespace {

namespace ft = ::softmem::testing;

// Resident set of this process in KiB, from /proc/self/status.
size_t VmRssKib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stoul(line.substr(6));
    }
  }
  return 0;
}

// ---- LazyZeroArray ----------------------------------------------------------

TEST(LazyZeroArrayTest, EntriesReadZeroAndCostNothingUntilWritten) {
  constexpr size_t kEntries = 8u << 20;  // 64 MiB of uint64_t
  const size_t before = VmRssKib();
  auto arr = LazyZeroArray<uint64_t>::Create(kEntries);
  ASSERT_TRUE(arr.ok()) << arr.status();
  uint64_t sum = 0;
  for (size_t i = 0; i < kEntries; i += 512) {  // one read per 4 KiB page
    sum += (*arr)[i];
  }
  EXPECT_EQ(sum, 0u);
  EXPECT_LT(VmRssKib(), before + 1024) << "reads must not commit the table";
  (*arr)[kEntries - 1] = 7;  // one write commits one page
  EXPECT_EQ((*arr)[kEntries - 1], 7u);
  EXPECT_LT(VmRssKib(), before + 1024);
}

TEST(LazyZeroArrayTest, UnmappableSizeIsAnErrorNotAnAbort) {
  // Overflowing n * sizeof(T).
  auto overflow = LazyZeroArray<uint64_t>::Create(SIZE_MAX / 4);
  EXPECT_FALSE(overflow.ok());
  // 512 TiB: larger than the user address space, so the mmap itself fails.
  auto huge = LazyZeroArray<uint64_t>::Create(size_t{1} << 46);
  EXPECT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kResourceExhausted);
}

TEST(LazyZeroArrayTest, MoveTransfersOwnership) {
  auto a = LazyZeroArray<uint32_t>::Create(1024);
  ASSERT_TRUE(a.ok());
  (*a)[3] = 42;
  LazyZeroArray<uint32_t> b = std::move(*a);
  EXPECT_EQ(b.size(), 1024u);
  EXPECT_EQ(b[3], 42u);
  EXPECT_EQ(a->size(), 0u);
}

// ---- SMA side tables --------------------------------------------------------

TEST(SmaLazyMetadataTest, OneGiBRegionCostsUnderOneMiBAtCreation) {
  SmaOptions o;
  o.initial_budget_pages = 256;
  o.use_mmap = true;
  // A 16-page allocator first, kept alive: the process-wide first-use costs
  // (heap arenas, sanitizer allocator regions, telemetry statics) land here,
  // so the measurement below is what one more allocator costs.
  o.region_pages = 16;
  auto warm = SoftMemoryAllocator::Create(o);
  ASSERT_TRUE(warm.ok()) << warm.status();
  o.region_pages = 256 * 1024;  // 1 GiB: 5 MiB of PageMeta, 1 MiB of descr
  const size_t before = VmRssKib();
  auto sma = SoftMemoryAllocator::Create(o);
  ASSERT_TRUE(sma.ok()) << sma.status();
  const size_t after = VmRssKib();
  EXPECT_LT(after, before + 1024)
      << "creation raised VmRSS by " << (after - before) << " KiB";
  void* p = (*sma)->SoftMalloc(4 * kPageSize);
  ASSERT_NE(p, nullptr);
  (*sma)->SoftFree(p);
}

TEST(SmaLazyMetadataTest, SamplerSweepLeavesUnusedPagesUnbacked) {
  SmaOptions o;
  o.initial_budget_pages = 256;
  o.use_mmap = true;
  o.region_pages = 16;
  auto warm = SoftMemoryAllocator::Create(o);
  ASSERT_TRUE(warm.ok()) << warm.status();
  o.region_pages = 256 * 1024;
  o.access_monitor.enabled = true;
  o.access_monitor.pages_per_tick = 64 * 1024;
  o.access_monitor.decay_every_ticks = 1;
  auto sma = SoftMemoryAllocator::Create(o);
  ASSERT_TRUE(sma.ok()) << sma.status();
  void* p = (*sma)->SoftMalloc(64);  // one recorded page keeps a heat entry
  ASSERT_NE(p, nullptr);
  // The window starts after creation and the first allocation (the test
  // above bounds creation), so it holds only the sweeps and not the
  // sanitizer allocator's own first-use growth.
  const size_t before = VmRssKib();
  // Two full sweeps: every page's access bit and heat entry is visited and
  // decayed, and only the pages in use may become resident (4 MiB of heat
  // and 256 KiB of access bits would otherwise be).
  for (int i = 0; i < 8; ++i) {
    (*sma)->SampleAccessTick();
  }
  const size_t after = VmRssKib();
  EXPECT_LT(after, before + 1024)
      << "sweeping raised VmRSS by " << (after - before) << " KiB";
  (*sma)->SoftFree(p);
}

// A page source that claims more pages than any side table can map. Its
// pages are never touched: creation must fail before the SMA exists.
class HugeRegionSource : public PageSource {
 public:
  size_t page_count() const override { return size_t{1} << 45; }
  size_t committed_pages() const override { return 0; }
  void* PageAddress(size_t index) const override {
    return reinterpret_cast<void*>(kPageSize * (index + 1));
  }
  Status Commit(PageRun) override { return ResourceExhaustedError("fake"); }
  Status Decommit(PageRun) override { return Status::Ok(); }
  bool IsCommitted(size_t) const override { return false; }
};

TEST(SmaLazyMetadataTest, UnmappableSideTablesFailCreate) {
  SmaOptions o;
  auto sma = SoftMemoryAllocator::CreateWithSource(
      o, nullptr, std::make_unique<HugeRegionSource>());
  ASSERT_FALSE(sma.ok());
  EXPECT_EQ(sma.status().code(), StatusCode::kResourceExhausted);
}

// Grants budget out of a fixed pool; released and reclaimed pages go back.
class PoolChannel : public SmdChannel {
 public:
  explicit PoolChannel(size_t pages) : free_(pages) {}
  using SmdChannel::ReportUsage;
  Result<size_t> RequestBudget(size_t pages) override {
    const size_t grant = std::min(pages, free_);
    if (grant == 0) {
      return DeniedError("pool empty");
    }
    free_ -= grant;
    return grant;
  }
  void ReleaseBudget(size_t pages) override { free_ += pages; }
  void ReportUsage(size_t, size_t) override {}

 private:
  size_t free_;
};

struct CycleOutcome {
  Status status = Status::Ok();
  // Pages handed out for the first time after some page had already been
  // decommitted: metadata nobody had written, reached mid-cycle.
  size_t first_use_after_decommit = 0;
  size_t steps = 0;
};

// One seeded schedule over a mostly never-used 64 Ki-page region: slab and
// large allocations (fresh pages enter use), frees (pages go back to
// unowned), reclaim demands (harvest + decommit), trims (decommit the
// pool), sampler ticks (sweeps read metadata of pages nobody owns) and
// context teardown (bulk reset to the all-zero state). Growth and shrink
// phases alternate so the live set repeatedly climbs toward the budget cap
// and falls back. Invariants and byte patterns are checked after every step.
CycleOutcome RunCycle(uint64_t seed, int steps) {
  CycleOutcome out;
  constexpr size_t kRegionPages = 64 * 1024;
  constexpr size_t kCapacity = 3072;  // budget the pool can ever hand out
  PoolChannel channel(kCapacity - 64);
  ft::ShadowHeap shadow;
  std::vector<void*> live;  // insertion order: deterministic victim picks
  auto forget = [&](void* p) {
    for (size_t i = 0; i < live.size(); ++i) {
      if (live[i] == p) {
        live[i] = live.back();
        live.pop_back();
        return;
      }
    }
  };
  SmaOptions o;
  o.region_pages = kRegionPages;
  o.initial_budget_pages = 64;
  o.budget_chunk_pages = 32;
  o.heap_retain_empty_pages = 1;
  o.use_mmap = true;
  o.access_monitor.enabled = true;
  o.access_monitor.pages_per_tick = 4096;
  auto created = SoftMemoryAllocator::Create(o, &channel);
  if (!created.ok()) {
    out.status = created.status();
    return out;
  }
  std::unique_ptr<SoftMemoryAllocator> sma = std::move(created).value();
  std::unordered_set<uintptr_t> used_pages;  // page numbers ever handed out
  bool decommitted = false;
  ContextOptions old_opts;
  old_opts.name = "lazy-old";
  old_opts.priority = 1;
  old_opts.mode = ReclaimMode::kOldestFirst;
  old_opts.callback = [&](void* p, size_t) {
    if (out.status.ok()) {
      out.status = shadow.OnFree(p);
    }
    forget(p);
  };
  ContextOptions none_opts;
  none_opts.name = "lazy-none";
  none_opts.priority = 2;
  none_opts.mode = ReclaimMode::kNone;
  auto ctx_old = sma->CreateContext(old_opts);
  auto ctx_none = sma->CreateContext(none_opts);
  if (!ctx_old.ok() || !ctx_none.ok()) {
    out.status = !ctx_old.ok() ? ctx_old.status() : ctx_none.status();
    return out;
  }
  ContextId none = *ctx_none;

  Rng rng(seed);
  uint64_t pattern = seed << 20;
  for (int step = 0; step < steps && out.status.ok(); ++step) {
    // Growth phases allocate 3:1 over frees, shrink phases the reverse.
    const bool growing = (step / 200) % 2 == 0;
    const uint64_t alloc_pct = growing ? 60 : 20;
    const uint64_t dice = rng.NextBounded(100);
    if (dice < alloc_pct || live.empty()) {
      // Slab or large allocation in either context.
      const bool large = rng.NextBounded(4) == 0;
      const size_t size = large ? kPageSize * (1 + rng.NextBounded(24)) +
                                      rng.NextBounded(kPageSize)
                                : 1 + rng.NextBounded(kMaxSmallSize);
      const ContextId ctx = rng.NextBounded(2) == 0 ? *ctx_old : none;
      void* p = sma->SoftMalloc(ctx, size);
      if (p != nullptr) {
        ft::FillPattern(p, size, ++pattern);
        out.status = shadow.OnAlloc(p, size, ctx, pattern);
        live.push_back(p);
        const uintptr_t first = reinterpret_cast<uintptr_t>(p) / kPageSize;
        const uintptr_t last =
            (reinterpret_cast<uintptr_t>(p) + size - 1) / kPageSize;
        for (uintptr_t pg = first; pg <= last; ++pg) {
          if (used_pages.insert(pg).second && decommitted) {
            ++out.first_use_after_decommit;
          }
        }
      }
    } else if (dice < 80) {
      void* p = live[rng.NextBounded(live.size())];
      forget(p);
      out.status = shadow.OnFree(p);
      sma->SoftFree(p);
    } else if (dice < 87) {
      channel.ReleaseBudget(sma->HandleReclaimDemand(1 + rng.NextBounded(96)));
      decommitted = decommitted || sma->GetStats().pages_decommitted > 0;
    } else if (dice < 90) {
      sma->TrimAndReleaseBudget();
      decommitted = decommitted || sma->GetStats().pages_decommitted > 0;
    } else if (dice < 97) {
      sma->SampleAccessTick();
    } else {
      // Tear the kNone context down (its pages reset to all-zero metadata)
      // and start a fresh one.
      std::vector<void*> keep;
      for (void* p : live) {
        const ft::ShadowAlloc* a = shadow.Find(p);
        if (a != nullptr && a->ctx == none) {
          if (out.status.ok()) {
            out.status = shadow.OnFree(p);
          }
        } else {
          keep.push_back(p);
        }
      }
      live.swap(keep);
      if (out.status.ok()) {
        out.status = sma->DestroyContext(none);
      }
      auto fresh = sma->CreateContext(none_opts);
      if (!fresh.ok()) {
        out.status = fresh.status();
        break;
      }
      none = *fresh;
    }
    if (out.status.ok()) {
      ft::InvariantOptions io;
      io.check_patterns = step % 64 == 0;
      out.status = ft::CheckSmaInvariants(sma.get(), shadow, io);
      if (!out.status.ok()) {
        out.status = InternalError("step " + std::to_string(step) + ": " +
                                   out.status.message());
      }
    }
    out.steps = static_cast<size_t>(step) + 1;
  }
  if (out.status.ok()) {
    ft::InvariantOptions io;
    io.check_patterns = true;
    out.status = ft::CheckSmaInvariants(sma.get(), shadow, io);
  }
  return out;
}

TEST(SmaLazyMetadataTest, SeededCycleOverNeverUsedPagesKeepsInvariants) {
  const uint64_t base = fail::SeedFromEnv(0x1A2E0000ULL);
  for (uint64_t i = 0; i < 4; ++i) {
    const uint64_t seed = base + i;
    const CycleOutcome out = RunCycle(seed, 1500);
    ASSERT_TRUE(out.status.ok())
        << "seed " << seed << " (replay: SOFTMEM_FAULT_SEED=" << seed
        << "): " << out.status;
    EXPECT_EQ(out.steps, 1500u);
    EXPECT_GT(out.first_use_after_decommit, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace softmem
