#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/units.h"
#include "src/smd/soft_memory_daemon.h"
#include "src/smd/weight_policy.h"

namespace softmem {
namespace {

// ---- Weight policies -----------------------------------------------------------

TEST(WeightPolicyTest, PaperPolicyIncreasesWithTraditional) {
  PaperWeightPolicy policy;
  // The paper's A-vs-B example: same soft usage, T_A < T_B  =>  w_A < w_B.
  ProcessUsage a{.soft_pages = 100, .budget_pages = 0, .traditional_pages = 50};
  ProcessUsage b{.soft_pages = 100, .budget_pages = 0, .traditional_pages = 200};
  EXPECT_LT(policy.Weight(a), policy.Weight(b));
}

TEST(WeightPolicyTest, PaperPolicyIncreasesWithSoft) {
  PaperWeightPolicy policy;
  ProcessUsage small{.soft_pages = 10, .budget_pages = 0, .traditional_pages = 100};
  ProcessUsage big{.soft_pages = 500, .budget_pages = 0, .traditional_pages = 100};
  EXPECT_LT(policy.Weight(small), policy.Weight(big));
}

TEST(WeightPolicyTest, PaperPolicyFavorsHighSoftRatio) {
  PaperWeightPolicy policy;
  // Same total footprint (300 pages); A put more into soft memory.
  ProcessUsage a{.soft_pages = 250, .budget_pages = 0, .traditional_pages = 50};
  ProcessUsage b{.soft_pages = 50, .budget_pages = 0, .traditional_pages = 250};
  EXPECT_LT(policy.Weight(a), policy.Weight(b))
      << "opting into soft memory must lower reclamation weight";
  // The footprint-only ablation cannot tell them apart.
  FootprintWeightPolicy footprint;
  EXPECT_EQ(footprint.Weight(a), footprint.Weight(b));
  // The soft-only ablation inverts the incentive.
  SoftOnlyWeightPolicy soft_only;
  EXPECT_GT(soft_only.Weight(a), soft_only.Weight(b));
}

TEST(WeightPolicyTest, ZeroFootprintIsZeroWeight) {
  PaperWeightPolicy policy;
  ProcessUsage idle{};
  EXPECT_EQ(policy.Weight(idle), 0.0);
}

// ---- Daemon fixtures -------------------------------------------------------------

// Scriptable sink: gives up to `available` pages per demand.
class FakeSink : public ReclaimSink {
 public:
  explicit FakeSink(size_t available) : available_(available) {}

  size_t DemandReclaim(size_t pages) override {
    ++demands_;
    const size_t give = std::min(pages, available_);
    available_ -= give;
    total_given_ += give;
    return give;
  }

  size_t demands() const { return demands_; }
  size_t total_given() const { return total_given_; }
  void set_available(size_t a) { available_ = a; }

 private:
  size_t available_;
  size_t demands_ = 0;
  size_t total_given_ = 0;
};

SmdOptions DaemonOptions(size_t capacity = 1000) {
  SmdOptions o;
  o.capacity_pages = capacity;
  o.max_reclaim_targets = 3;
  o.over_reclaim_factor = 0.0;  // exact accounting in unit tests
  return o;
}

// ---- Admission ------------------------------------------------------------------

TEST(SmdTest, GrantsFromFreeCapacity) {
  SoftMemoryDaemon smd(DaemonOptions(100));
  auto p = smd.RegisterProcess("a", nullptr);
  ASSERT_TRUE(p.ok());
  auto g = smd.HandleBudgetRequest(*p, 60);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(*g, 60u);
  EXPECT_EQ(smd.free_pages(), 40u);
}

TEST(SmdTest, UnknownProcessRejected) {
  SoftMemoryDaemon smd(DaemonOptions());
  EXPECT_EQ(smd.HandleBudgetRequest(999, 10).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(smd.DeregisterProcess(999).code(), StatusCode::kNotFound);
}

TEST(SmdTest, DeniesWhenNothingReclaimable) {
  SoftMemoryDaemon smd(DaemonOptions(100));
  auto a = smd.RegisterProcess("a", nullptr);
  auto b = smd.RegisterProcess("b", nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(smd.HandleBudgetRequest(*a, 100).ok());
  // b wants 50 but a has no sink: denial, and a keeps its budget.
  auto g = smd.HandleBudgetRequest(*b, 50);
  EXPECT_EQ(g.status().code(), StatusCode::kDenied);
  const SmdStats s = smd.GetStats();
  EXPECT_EQ(s.denied_requests, 1u);
  EXPECT_EQ(s.assigned_pages, 100u);
}

TEST(SmdTest, NoPartialGrants) {
  SoftMemoryDaemon smd(DaemonOptions(100));
  FakeSink sink(/*available=*/10);
  auto a = smd.RegisterProcess("a", &sink);
  auto b = smd.RegisterProcess("b", nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(smd.HandleBudgetRequest(*a, 100).ok());
  smd.HandleUsageReport(*a, 100, 0);
  // b needs 50; a can only give 10: the request must be denied outright,
  // not partially granted (§3.3).
  auto g = smd.HandleBudgetRequest(*b, 50);
  EXPECT_EQ(g.status().code(), StatusCode::kDenied);
  // The 10 reclaimed pages do return to the free pool for later requests.
  EXPECT_EQ(smd.free_pages(), 10u);
  auto small = smd.HandleBudgetRequest(*b, 10);
  EXPECT_TRUE(small.ok());
}

TEST(SmdTest, ReleaseReturnsBudget) {
  SoftMemoryDaemon smd(DaemonOptions(100));
  auto p = smd.RegisterProcess("a", nullptr);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(smd.HandleBudgetRequest(*p, 80).ok());
  ASSERT_TRUE(smd.HandleBudgetRelease(*p, 30).ok());
  EXPECT_EQ(smd.free_pages(), 50u);
  // Releasing more than held is clamped.
  ASSERT_TRUE(smd.HandleBudgetRelease(*p, 1000).ok());
  EXPECT_EQ(smd.free_pages(), 100u);
}

TEST(SmdTest, DeregisterFreesBudget) {
  SoftMemoryDaemon smd(DaemonOptions(100));
  auto p = smd.RegisterProcess("a", nullptr);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(smd.HandleBudgetRequest(*p, 70).ok());
  ASSERT_TRUE(smd.DeregisterProcess(*p).ok());
  EXPECT_EQ(smd.free_pages(), 100u);
}

TEST(SmdTest, InitialGrantRespectsCapacity) {
  SmdOptions o = DaemonOptions(10);
  o.initial_grant_pages = 8;
  SoftMemoryDaemon smd(o);
  auto a = smd.RegisterProcess("a", nullptr);
  auto b = smd.RegisterProcess("b", nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  const SmdStats s = smd.GetStats();
  EXPECT_EQ(s.processes[0].budget_pages, 8u);
  EXPECT_EQ(s.processes[1].budget_pages, 2u) << "clamped to remaining capacity";
}

// ---- Reclamation target selection ---------------------------------------------

TEST(SmdTest, ReclaimsFromHighestWeightFirst) {
  SoftMemoryDaemon smd(DaemonOptions(200));
  FakeSink heavy_sink(100);
  FakeSink light_sink(100);
  auto heavy = smd.RegisterProcess("heavy", &heavy_sink);
  auto light = smd.RegisterProcess("light", &light_sink);
  auto req = smd.RegisterProcess("requester", nullptr);
  ASSERT_TRUE(heavy.ok() && light.ok() && req.ok());
  ASSERT_TRUE(smd.HandleBudgetRequest(*heavy, 100).ok());
  ASSERT_TRUE(smd.HandleBudgetRequest(*light, 100).ok());
  // heavy has a much larger traditional footprint => higher weight.
  smd.HandleUsageReport(*heavy, 100, 400 * kPageSize);
  smd.HandleUsageReport(*light, 100, 10 * kPageSize);

  auto g = smd.HandleBudgetRequest(*req, 50);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(heavy_sink.total_given(), 50u);
  EXPECT_EQ(light_sink.total_given(), 0u);
}

TEST(SmdTest, PrefersFlexibleTargetsEvenAtLowerWeight) {
  SoftMemoryDaemon smd(DaemonOptions(200));
  FakeSink tight_sink(100);
  FakeSink flexible_sink(100);
  auto tight = smd.RegisterProcess("tight", &tight_sink);
  auto flexible = smd.RegisterProcess("flexible", &flexible_sink);
  auto req = smd.RegisterProcess("requester", nullptr);
  ASSERT_TRUE(tight.ok() && flexible.ok() && req.ok());
  ASSERT_TRUE(smd.HandleBudgetRequest(*tight, 100).ok());
  ASSERT_TRUE(smd.HandleBudgetRequest(*flexible, 100).ok());
  // tight uses every page of its budget (all allocated to SDSs) and has the
  // higher weight; flexible sits on 60 pages of slack.
  smd.HandleUsageReport(*tight, 100, 500 * kPageSize);
  smd.HandleUsageReport(*flexible, 40, 100 * kPageSize);

  auto g = smd.HandleBudgetRequest(*req, 30);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(flexible_sink.total_given(), 30u)
      << "the flexible process gives its slack without disturbance";
  EXPECT_EQ(tight_sink.total_given(), 0u);
}

TEST(SmdTest, FallsBackToTightTargetWhenFlexibleInsufficient) {
  SoftMemoryDaemon smd(DaemonOptions(200));
  FakeSink tight_sink(100);
  FakeSink flexible_sink(100);
  auto tight = smd.RegisterProcess("tight", &tight_sink);
  auto flexible = smd.RegisterProcess("flexible", &flexible_sink);
  auto req = smd.RegisterProcess("requester", nullptr);
  ASSERT_TRUE(smd.HandleBudgetRequest(*tight, 150).ok());
  ASSERT_TRUE(smd.HandleBudgetRequest(*flexible, 50).ok());
  smd.HandleUsageReport(*tight, 150, 500 * kPageSize);
  smd.HandleUsageReport(*flexible, 40, 100 * kPageSize);

  auto g = smd.HandleBudgetRequest(*req, 80);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(flexible_sink.total_given(), 50u) << "flexible drained first";
  EXPECT_EQ(tight_sink.total_given(), 30u) << "tight covers the remainder";
}

TEST(SmdTest, TargetCapLimitsDisturbance) {
  SmdOptions o = DaemonOptions(1000);
  o.max_reclaim_targets = 2;
  SoftMemoryDaemon smd(o);
  std::vector<std::unique_ptr<FakeSink>> sinks;
  std::vector<ProcessId> pids;
  for (int i = 0; i < 5; ++i) {
    sinks.push_back(std::make_unique<FakeSink>(10));
    auto p = smd.RegisterProcess("p" + std::to_string(i), sinks.back().get());
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(smd.HandleBudgetRequest(*p, 10).ok());
    smd.HandleUsageReport(*p, 10, 10 * kPageSize);
    pids.push_back(*p);
  }
  auto req = smd.RegisterProcess("requester", nullptr);
  ASSERT_TRUE(req.ok());
  // Needs 50 from five 10-page victims, but only 2 may be disturbed -> deny.
  auto g = smd.HandleBudgetRequest(*req, 1000);
  EXPECT_EQ(g.status().code(), StatusCode::kDenied);
  size_t disturbed = 0;
  for (const auto& s : sinks) {
    if (s->demands() > 0) {
      ++disturbed;
    }
  }
  EXPECT_LE(disturbed, 2u);
}

TEST(SmdTest, RequesterNeverSelfReclaimed) {
  SoftMemoryDaemon smd(DaemonOptions(100));
  FakeSink sink(100);
  auto p = smd.RegisterProcess("only", &sink);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(smd.HandleBudgetRequest(*p, 100).ok());
  smd.HandleUsageReport(*p, 100, 0);
  // The only reclaimable process is the requester itself: deny.
  EXPECT_FALSE(smd.HandleBudgetRequest(*p, 10).ok());
  EXPECT_EQ(sink.demands(), 0u);
}

// ---- Standing denials ------------------------------------------------------------
//
// A caller that passes `denial_stands` gets BudgetAvailable once the denied
// request would be admitted, judged by the same predicate as a request.

class NoticeSink : public FakeSink {
 public:
  NoticeSink() : FakeSink(0) {}
  void BudgetAvailable() override { ++notices_; }
  size_t notices() const { return notices_; }

 private:
  size_t notices_ = 0;
};

TEST(SmdStandingDenialTest, ReleaseThatAdmitsTheRequestSendsOneNotice) {
  SoftMemoryDaemon smd(DaemonOptions(100));
  NoticeSink hog_sink, needy_sink;
  auto hog = smd.RegisterProcess("hog", &hog_sink);
  auto needy = smd.RegisterProcess("needy", &needy_sink);
  ASSERT_TRUE(hog.ok() && needy.ok());
  ASSERT_TRUE(smd.HandleBudgetRequest(*hog, 100).ok());
  bool stands = false;
  EXPECT_FALSE(smd.HandleBudgetRequest(*needy, 30, &stands).ok());
  EXPECT_TRUE(stands);
  EXPECT_EQ(smd.GetStats().standing_denials, 1u);
  ASSERT_TRUE(smd.HandleBudgetRelease(*hog, 20).ok());
  EXPECT_EQ(needy_sink.notices(), 0u) << "20 free pages cannot admit 30";
  ASSERT_TRUE(smd.HandleBudgetRelease(*hog, 10).ok());
  EXPECT_EQ(needy_sink.notices(), 1u);
  ASSERT_TRUE(smd.HandleBudgetRelease(*hog, 10).ok());
  EXPECT_EQ(needy_sink.notices(), 1u) << "one notice per standing denial";
  const SmdStats s = smd.GetStats();
  EXPECT_EQ(s.standing_denials, 0u);
  EXPECT_EQ(s.budget_notices, 1u);
  EXPECT_EQ(hog_sink.notices(), 0u);
  EXPECT_TRUE(smd.HandleBudgetRequest(*needy, 30).ok());
}

TEST(SmdStandingDenialTest, PartialPassDenialDoesNotStand) {
  SoftMemoryDaemon smd(DaemonOptions(100));
  FakeSink victim_sink(5);  // gives up 5 of the 30 pages asked
  NoticeSink needy_sink;
  auto victim = smd.RegisterProcess("victim", &victim_sink);
  auto needy = smd.RegisterProcess("needy", &needy_sink);
  ASSERT_TRUE(victim.ok() && needy.ok());
  ASSERT_TRUE(smd.HandleBudgetRequest(*victim, 100).ok());
  smd.HandleUsageReport(*victim, 100, 0);
  bool stands = true;
  EXPECT_FALSE(smd.HandleBudgetRequest(*needy, 30, &stands).ok());
  ASSERT_EQ(victim_sink.total_given(), 5u);
  EXPECT_FALSE(stands) << "the next pass may recover more: ask again";
  EXPECT_EQ(smd.GetStats().standing_denials, 0u);

  // Once a pass recovers nothing, the denial stands.
  EXPECT_FALSE(smd.HandleBudgetRequest(*needy, 30, &stands).ok());
  ASSERT_EQ(victim_sink.total_given(), 5u);
  EXPECT_TRUE(stands);
  EXPECT_EQ(smd.GetStats().standing_denials, 1u);
}

TEST(SmdStandingDenialTest, CallersWithoutNoticesRecordNothing) {
  SoftMemoryDaemon smd(DaemonOptions(100));
  NoticeSink hog_sink, needy_sink;
  auto hog = smd.RegisterProcess("hog", &hog_sink);
  auto needy = smd.RegisterProcess("needy", &needy_sink);
  ASSERT_TRUE(hog.ok() && needy.ok());
  ASSERT_TRUE(smd.HandleBudgetRequest(*hog, 100).ok());
  EXPECT_FALSE(smd.HandleBudgetRequest(*needy, 30).ok());
  ASSERT_TRUE(smd.DeregisterProcess(*hog).ok());
  EXPECT_EQ(needy_sink.notices(), 0u);
  EXPECT_EQ(smd.GetStats().budget_notices, 0u);
}

TEST(SmdStandingDenialTest, BatchNoticeWaitsForTheLcReserve) {
  SmdOptions o = DaemonOptions(100);
  o.lc_reserve_fraction = 0.2;  // 20 pages batch requesters cannot use
  SoftMemoryDaemon smd(o);
  NoticeSink hog_sink, batch_sink;
  auto hog = smd.RegisterProcess("hog", &hog_sink, "lc",
                                 CritClass::kLatencyCritical);
  auto batch = smd.RegisterProcess("batch", &batch_sink);
  ASSERT_TRUE(hog.ok() && batch.ok());
  ASSERT_TRUE(smd.HandleBudgetRequest(*hog, 100).ok());
  bool stands = false;
  EXPECT_FALSE(smd.HandleBudgetRequest(*batch, 10, &stands).ok());
  ASSERT_TRUE(stands);
  ASSERT_TRUE(smd.HandleBudgetRelease(*hog, 25).ok());
  EXPECT_EQ(batch_sink.notices(), 0u) << "25 free, 20 of them reserved";
  ASSERT_TRUE(smd.HandleBudgetRelease(*hog, 5).ok());
  EXPECT_EQ(batch_sink.notices(), 1u);
  EXPECT_TRUE(smd.HandleBudgetRequest(*batch, 10).ok());
}

TEST(SmdStandingDenialTest, CapDenialsStandUntilTheCapAdmits) {
  SmdOptions o = DaemonOptions(1000);
  o.tenants.push_back({"t", CritClass::kBatch, 1.0, 100});
  SoftMemoryDaemon smd(o);
  NoticeSink a_sink, b_sink;
  auto a = smd.RegisterProcess("a", &a_sink, "t");
  auto b = smd.RegisterProcess("b", &b_sink, "t");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(smd.HandleBudgetRequest(*a, 90).ok());
  bool stands = false;
  EXPECT_FALSE(smd.HandleBudgetRequest(*b, 20, &stands).ok());
  ASSERT_TRUE(stands) << "the tenant cap denies";
  ASSERT_TRUE(smd.HandleBudgetRelease(*a, 10).ok());
  EXPECT_EQ(b_sink.notices(), 1u);
  ASSERT_TRUE(smd.HandleBudgetRequest(*b, 20).ok());

  ASSERT_TRUE(smd.SetProcessCap(*b, 20).ok());
  EXPECT_FALSE(smd.HandleBudgetRequest(*b, 5, &stands).ok());
  ASSERT_TRUE(stands) << "the process cap denies";
  ASSERT_TRUE(smd.HandleBudgetRelease(*a, 50).ok());
  EXPECT_EQ(b_sink.notices(), 1u) << "freed memory cannot lift a cap";
  ASSERT_TRUE(smd.SetProcessCap(*b, 25).ok());
  EXPECT_EQ(b_sink.notices(), 2u);
}

TEST(SmdStandingDenialTest, OverReclaimLeftoverAdmitsAStandingRequest) {
  SmdOptions o = DaemonOptions(100);
  o.over_reclaim_factor = 1.0;
  SoftMemoryDaemon smd(o);
  FakeSink victim_sink(0);  // complies only once set_available is called
  NoticeSink needy_sink;
  auto victim = smd.RegisterProcess("victim", &victim_sink);
  auto needy = smd.RegisterProcess("needy", &needy_sink);
  auto req = smd.RegisterProcess("req", nullptr);
  ASSERT_TRUE(victim.ok() && needy.ok() && req.ok());
  ASSERT_TRUE(smd.HandleBudgetRequest(*victim, 100).ok());
  smd.HandleUsageReport(*victim, 100, 0);
  bool stands = false;
  EXPECT_FALSE(smd.HandleBudgetRequest(*needy, 10, &stands).ok());
  ASSERT_TRUE(stands);
  // req needs 10, the pass takes 20: req gets 10 and the other 10 admit
  // the standing request.
  victim_sink.set_available(100);
  ASSERT_TRUE(smd.HandleBudgetRequest(*req, 10).ok());
  EXPECT_EQ(smd.free_pages(), 10u);
  EXPECT_EQ(needy_sink.notices(), 1u);
}

TEST(SmdTest, OverReclaimFactorFreesExtra) {
  SmdOptions o = DaemonOptions(100);
  o.over_reclaim_factor = 1.0;  // take 100% extra
  SoftMemoryDaemon smd(o);
  FakeSink sink(100);
  auto victim = smd.RegisterProcess("victim", &sink);
  auto req = smd.RegisterProcess("req", nullptr);
  ASSERT_TRUE(victim.ok() && req.ok());
  ASSERT_TRUE(smd.HandleBudgetRequest(*victim, 100).ok());
  smd.HandleUsageReport(*victim, 100, 0);

  ASSERT_TRUE(smd.HandleBudgetRequest(*req, 10).ok());
  // Needed 10, over-reclaimed 20: 10 granted, 10 still free. The next
  // request of 10 is served without another reclamation pass.
  EXPECT_EQ(smd.free_pages(), 10u);
  const size_t demands_before = sink.demands();
  ASSERT_TRUE(smd.HandleBudgetRequest(*req, 10).ok());
  EXPECT_EQ(sink.demands(), demands_before) << "amortization must kick in";
}

TEST(SmdTest, StatsReflectLedger) {
  SoftMemoryDaemon smd(DaemonOptions(500));
  FakeSink sink(50);
  auto a = smd.RegisterProcess("a", &sink);
  auto b = smd.RegisterProcess("b", nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(smd.HandleBudgetRequest(*a, 400).ok());
  smd.HandleUsageReport(*a, 300, 100 * kPageSize);
  ASSERT_TRUE(smd.HandleBudgetRequest(*b, 150).ok());  // forces reclaim of 50

  const SmdStats s = smd.GetStats();
  EXPECT_EQ(s.capacity_pages, 500u);
  EXPECT_EQ(s.assigned_pages, 350u + 150u);
  EXPECT_EQ(s.total_requests, 2u);
  EXPECT_EQ(s.granted_requests, 2u);
  EXPECT_EQ(s.reclamations, 1u);
  EXPECT_EQ(s.reclaimed_pages, 50u);
  ASSERT_EQ(s.processes.size(), 2u);
  EXPECT_EQ(s.processes[0].pages_reclaimed, 50u);
  EXPECT_EQ(s.processes[0].times_targeted, 1u);
  EXPECT_GT(s.processes[0].weight, 0.0);
}

// Parameterized sweep: whatever the capacity and request mix, the daemon's
// ledger invariants hold (budgets sum to assigned; assigned <= capacity).
class SmdPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SmdPropertyTest, LedgerInvariantsUnderRandomTraffic) {
  const size_t capacity = GetParam();
  SmdOptions o = DaemonOptions(capacity);
  o.over_reclaim_factor = 0.25;
  SoftMemoryDaemon smd(o);

  struct Proc {
    ProcessId id;
    std::unique_ptr<FakeSink> sink;
    size_t budget = 0;
  };
  std::vector<Proc> procs;
  for (int i = 0; i < 4; ++i) {
    auto sink = std::make_unique<FakeSink>(0);
    auto id = smd.RegisterProcess("p" + std::to_string(i), sink.get());
    ASSERT_TRUE(id.ok());
    procs.push_back(Proc{*id, std::move(sink), 0});
  }

  uint64_t x = 88172645463325252ULL;  // xorshift
  auto rnd = [&x](uint64_t bound) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x % bound;
  };

  for (int step = 0; step < 5000; ++step) {
    Proc& p = procs[rnd(procs.size())];
    const uint64_t op = rnd(10);
    if (op < 6) {
      const size_t want = 1 + rnd(capacity / 4);
      auto g = smd.HandleBudgetRequest(p.id, want);
      if (g.ok()) {
        p.budget += *g;
      }
    } else if (op < 8 && p.budget > 0) {
      const size_t give = 1 + rnd(p.budget);
      ASSERT_TRUE(smd.HandleBudgetRelease(p.id, give).ok());
      p.budget -= give;
    } else {
      // Report usage <= budget; sink can surrender everything above half.
      const size_t used = p.budget == 0 ? 0 : rnd(p.budget + 1);
      smd.HandleUsageReport(p.id, used, rnd(1000) * kPageSize);
      p.sink->set_available(p.budget);
    }
    // Mirror daemon-initiated reclamation into our local budgets.
    const SmdStats s = smd.GetStats();
    size_t sum = 0;
    for (size_t i = 0; i < procs.size(); ++i) {
      procs[i].budget = s.processes[i].budget_pages;
      sum += s.processes[i].budget_pages;
    }
    ASSERT_EQ(sum, s.assigned_pages);
    ASSERT_LE(s.assigned_pages, s.capacity_pages);
    ASSERT_EQ(s.free_pages, s.capacity_pages - s.assigned_pages);
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, SmdPropertyTest,
                         ::testing::Values(64, 1000, 100000));

}  // namespace
}  // namespace softmem
