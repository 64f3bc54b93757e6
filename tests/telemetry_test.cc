// Tests for the telemetry layer: registry semantics, exposition-format
// goldens, histogram bucket boundaries, the reclaim journal, the HTTP
// endpoint, and end-to-end family coverage across SMA/SMD/IPC/KV. The
// concurrency suites run under TSan via scripts/check.sh tsan.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/ipc/daemon_client.h"
#include "src/ipc/daemon_server.h"
#include "src/ipc/unix_socket.h"
#include "src/kv/kv_store.h"
#include "src/sma/soft_memory_allocator.h"
#include "src/smd/soft_memory_daemon.h"
#include "src/telemetry/event_journal.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/metrics_http.h"
#include "src/testing/failpoint.h"
#include "src/testing/invariants.h"

namespace softmem {
namespace telemetry {
namespace {

// ---- Registry semantics -----------------------------------------------------

TEST(TelemetryRegistryTest, SameSeriesReturnsSamePointer) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("ops_total", "Ops.");
  Counter* b = reg.GetCounter("ops_total", "Ops.");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
  a->Inc(3);
  EXPECT_EQ(b->Value(), 3u);
  EXPECT_EQ(reg.SeriesCount(), 1u);
}

TEST(TelemetryRegistryTest, DistinctLabelsAreDistinctSeries) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("ops_total", "Ops.", {{"op", "get"}});
  Counter* b = reg.GetCounter("ops_total", "Ops.", {{"op", "set"}});
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.SeriesCount(), 2u);
}

TEST(TelemetryRegistryTest, KindClashReturnsNull) {
  MetricsRegistry reg;
  ASSERT_NE(reg.GetCounter("thing", "A thing."), nullptr);
  EXPECT_EQ(reg.GetGauge("thing", "A thing."), nullptr);
  EXPECT_EQ(reg.GetHistogram("thing", "A thing.", {1, 2}), nullptr);
  // The original series is unharmed.
  EXPECT_NE(reg.GetCounter("thing", "A thing."), nullptr);
  EXPECT_EQ(reg.SeriesCount(), 1u);
}

TEST(TelemetryRegistryTest, GaugeIsSigned) {
  MetricsRegistry reg;
  Gauge* g = reg.GetGauge("level", "Level.");
  g->Set(10);
  g->Add(-25);
  EXPECT_EQ(g->Value(), -15);
}

// ---- Histogram bucket boundaries --------------------------------------------

TEST(TelemetryHistogramTest, BoundsAreInclusiveUpper) {
  Histogram h({10, 100});
  h.Observe(0);    // -> le=10
  h.Observe(10);   // boundary: inclusive -> le=10
  h.Observe(11);   // -> le=100
  h.Observe(100);  // boundary -> le=100
  h.Observe(101);  // -> +Inf
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 2u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_EQ(h.Sum(), 0u + 10 + 11 + 100 + 101);
}

TEST(TelemetryHistogramTest, EmptyBoundsMeansSingleInfBucket) {
  Histogram h({});
  h.Observe(0);
  h.Observe(1ull << 62);
  EXPECT_EQ(h.bucket_count(), 1u);
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.Count(), 2u);
}

TEST(TelemetryHistogramTest, DefaultBoundSetsAreAscending) {
  for (const auto& bounds :
       {Histogram::LatencyBoundsNs(), Histogram::PageCountBounds()}) {
    for (size_t i = 1; i < bounds.size(); ++i) {
      EXPECT_LT(bounds[i - 1], bounds[i]);
    }
  }
}

// ---- Exposition format golden -----------------------------------------------

TEST(TelemetryExpositionTest, GoldenPrometheusOutput) {
  MetricsRegistry reg;
  reg.GetGauge("test_bytes", "Bytes held.")->Set(-5);
  reg.GetCounter("test_ops_total", "Ops executed.", {{"kind", "a"}})->Inc(2);
  reg.GetCounter("test_ops_total", "Ops executed.", {{"kind", "b"}})->Inc();
  Histogram* h = reg.GetHistogram("test_lat", "Latency.", {10, 20});
  h->Observe(5);
  h->Observe(10);
  h->Observe(11);
  h->Observe(25);

  const std::string expected =
      "# HELP test_bytes Bytes held.\n"
      "# TYPE test_bytes gauge\n"
      "test_bytes -5\n"
      "# HELP test_lat Latency.\n"
      "# TYPE test_lat histogram\n"
      "test_lat_bucket{le=\"10\"} 2\n"
      "test_lat_bucket{le=\"20\"} 3\n"
      "test_lat_bucket{le=\"+Inf\"} 4\n"
      "test_lat_sum 51\n"
      "test_lat_count 4\n"
      "# HELP test_ops_total Ops executed.\n"
      "# TYPE test_ops_total counter\n"
      "test_ops_total{kind=\"a\"} 2\n"
      "test_ops_total{kind=\"b\"} 1\n";
  EXPECT_EQ(reg.RenderPrometheus(), expected);
}

TEST(TelemetryExpositionTest, LabelValuesAreEscaped) {
  MetricsRegistry reg;
  reg.GetCounter("esc_total", "Esc.", {{"v", "a\"b\\c\nd"}})->Inc();
  const std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("esc_total{v=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos)
      << text;
}

TEST(TelemetryExpositionTest, CollectorSamplesRenderLikeSeries) {
  MetricsRegistry reg;
  const uint64_t id = reg.AddCollector([](std::vector<Sample>* out) {
    Sample s;
    s.name = "collected_pages";
    s.help = "From a collector.";
    s.kind = MetricKind::kGauge;
    s.labels = {{"ctx", "x"}};
    s.value = 7;
    out->push_back(std::move(s));
  });
  EXPECT_NE(reg.RenderPrometheus().find("collected_pages{ctx=\"x\"} 7"),
            std::string::npos);
  reg.RemoveCollector(id);
  EXPECT_EQ(reg.RenderPrometheus().find("collected_pages"),
            std::string::npos);
}

TEST(TelemetryExpositionTest, RenderJsonContainsHistogramShape) {
  MetricsRegistry reg;
  reg.GetCounter("j_total", "J.")->Inc(4);
  Histogram* h = reg.GetHistogram("j_lat", "JL.", {10});
  h->Observe(3);
  h->Observe(30);
  const std::string json = reg.RenderJson();
  EXPECT_NE(json.find("\"j_total\": 4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"j_lat\": {\"count\": 2, \"sum\": 33, \"buckets\": "
                      "{\"10\": 1, \"+Inf\": 2}}"),
            std::string::npos)
      << json;
}

// ---- Arming gate ------------------------------------------------------------

TEST(TelemetryTimerTest, UnarmedTimerNeverObserves) {
  ASSERT_FALSE(Armed());  // tests run unarmed by default
  Histogram h({1000});
  { ScopedLatencyTimer t(&h); }
  EXPECT_EQ(h.Count(), 0u);
}

TEST(TelemetryTimerTest, ArmedTimerObservesOnce) {
  Histogram h(Histogram::LatencyBoundsNs());
  SetArmed(true);
  { ScopedLatencyTimer t(&h); }
  { ScopedLatencyTimer t(nullptr); }  // null histogram stays a no-op
  SetArmed(false);
  EXPECT_EQ(h.Count(), 1u);
}

// ---- Reclaim journal --------------------------------------------------------

TEST(TelemetryJournalTest, RingEvictsOldestAndStampsSeq) {
  ReclaimJournal<ReclaimDemandTrace> journal(3);
  for (size_t i = 0; i < 5; ++i) {
    ReclaimDemandTrace t;
    t.demanded_pages = 100 + i;
    journal.Append(t);
  }
  EXPECT_EQ(journal.size(), 3u);
  EXPECT_EQ(journal.total_appended(), 5u);
  const auto snap = journal.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].seq, 2u);  // oldest two evicted
  EXPECT_EQ(snap[2].seq, 4u);
  EXPECT_EQ(snap[2].demanded_pages, 104u);
}

TEST(TelemetryJournalTest, JsonlRendersOneObjectPerRecord) {
  ReclaimJournal<ReclaimPassTrace> journal(8);
  ReclaimPassTrace t;
  t.need_pages = 64;
  t.quota_pages = 80;
  t.recovered_pages = 70;
  t.targets.push_back({42, "kv_server", 80, 70});
  journal.Append(t);
  const std::string jsonl = RenderJournalJsonl(journal.Snapshot());
  EXPECT_NE(jsonl.find("\"need_pages\":64"), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"kv_server\""), std::string::npos) << jsonl;
  EXPECT_EQ(jsonl.find("\n"), jsonl.size() - 1);  // one line, one record
  EXPECT_FALSE(RenderJournalText(journal.Snapshot()).empty());
}

// ---- SMA integration --------------------------------------------------------

std::unique_ptr<SoftMemoryAllocator> MakeSma(MetricsRegistry* reg,
                                             const std::string& instance,
                                             size_t pages = 2048) {
  SmaOptions o;
  o.metrics = reg;
  o.metrics_instance = instance;
  o.region_pages = 16 * 1024;
  o.initial_budget_pages = pages;
  o.heap_retain_empty_pages = 0;
  auto r = SoftMemoryAllocator::Create(o);
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).value();
}

TEST(TelemetrySmaTest, CountersFlowIntoRegistryAndStats) {
  MetricsRegistry reg;
  auto sma = MakeSma(&reg, "t");
  void* p = sma->SoftMalloc(1024);
  ASSERT_NE(p, nullptr);
  sma->SoftFree(p);
  // Registry series and GetStats read the same atomics.
  Counter* allocs = reg.GetCounter("softmem_sma_allocs_total", "",
                                   {{"instance", "t"}});
  ASSERT_NE(allocs, nullptr);
  EXPECT_EQ(allocs->Value(), 1u);
  const SmaStats s = sma->GetStats();
  EXPECT_EQ(s.total_allocs, 1u);
  EXPECT_EQ(s.total_frees, 1u);
  EXPECT_GE(s.pages_committed, 1u);
  // Collector-backed gauges appear in the exposition.
  const std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("softmem_sma_budget_pages{instance=\"t\"}"),
            std::string::npos)
      << text;
}

TEST(TelemetrySmaTest, ReclaimDemandAppendsJournalTrace) {
  MetricsRegistry reg;
  auto sma = MakeSma(&reg, "j");
  std::vector<void*> ptrs;
  for (int i = 0; i < 64; ++i) {
    ptrs.push_back(sma->SoftMalloc(4096));
    ASSERT_NE(ptrs.back(), nullptr);
  }
  for (void* p : ptrs) {
    sma->SoftFree(p);
  }
  const size_t got = sma->HandleReclaimDemand(32);
  EXPECT_GT(got, 0u);
  ASSERT_GE(sma->reclaim_journal().size(), 1u);
  const auto snap = sma->reclaim_journal().Snapshot();
  const auto& trace = snap.back();
  EXPECT_EQ(trace.demanded_pages, 32u);
  EXPECT_EQ(trace.produced_pages, got);
  EXPECT_GE(trace.total_ns, 0);
  // Reclaim is the slow path: its histograms record even unarmed (only
  // per-operation latency timers are gated on arming).
  Histogram* h = reg.GetHistogram("softmem_sma_reclaim_duration_ns", "",
                                  Histogram::LatencyBoundsNs(),
                                  {{"instance", "j"}});
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->Count(), 1u);
  Histogram* pages = reg.GetHistogram("softmem_sma_reclaim_pages", "",
                                      Histogram::PageCountBounds(),
                                      {{"instance", "j"}});
  ASSERT_NE(pages, nullptr);
  EXPECT_EQ(pages->Count(), 1u);
  EXPECT_EQ(pages->Sum(), got);
}

// Conservation under randomized churn with injected faults: the registry's
// alloc/free counters and the ShadowHeap must agree at every checkpoint
// (invariant I4 read through telemetry instead of GetStats).
TEST(TelemetryFaultStressTest, CounterConservationUnderFaultyChurn) {
  MetricsRegistry reg;
  auto sma = MakeSma(&reg, "stress", /*pages=*/512);
  Counter* allocs = reg.GetCounter("softmem_sma_allocs_total", "",
                                   {{"instance", "stress"}});
  Counter* frees = reg.GetCounter("softmem_sma_frees_total", "",
                                  {{"instance", "stress"}});
  ASSERT_NE(allocs, nullptr);
  ASSERT_NE(frees, nullptr);

  fail::FailSpec spec;
  spec.probability = 0.2;
  spec.code = StatusCode::kResourceExhausted;
  fail::ScopedFailpoint fp("sma.budget.request", spec);
  fail::Registry().Seed(fail::SeedFromEnv(0x7E1E));

  testing::ShadowHeap shadow;
  Rng rng(0x7E1E);
  std::vector<void*> live;
  for (int step = 0; step < 4000; ++step) {
    if (live.size() < 400 && (live.empty() || rng.NextBool(0.6))) {
      const size_t size = 16 + rng.NextBounded(6000);
      void* p = sma->SoftMalloc(size);
      if (p != nullptr) {  // budget failpoint may legitimately starve us
        ASSERT_TRUE(shadow.OnAlloc(p, size, 0, 0).ok());
        live.push_back(p);
      }
    } else {
      const size_t pick = rng.NextBounded(live.size());
      sma->SoftFree(live[pick]);
      ASSERT_TRUE(shadow.OnFree(live[pick]).ok());
      live[pick] = live.back();
      live.pop_back();
    }
    if (step % 500 == 0) {
      const Status inv = testing::CheckSmaInvariants(sma.get(), shadow);
      ASSERT_TRUE(inv.ok()) << "step " << step << ": " << inv;
      ASSERT_EQ(allocs->Value() - frees->Value(), shadow.live_count())
          << "step " << step;
    }
  }
  sma->GetStats();  // drains thread caches so the final counts are exact
  EXPECT_EQ(allocs->Value() - frees->Value(), live.size());
  for (void* p : live) {
    sma->SoftFree(p);
  }
  EXPECT_EQ(allocs->Value(), frees->Value());
}

// ---- Striped counter (runs under TSan via check.sh) -------------------------

// `threads` writers each Inc `c` `incs` times; returns once all joined.
void HammerCounter(Counter* c, int threads, int incs) {
  std::vector<std::thread> writers;
  writers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    writers.emplace_back([c, incs] {
      for (int i = 0; i < incs; ++i) {
        c->Inc();
      }
    });
  }
  for (auto& th : writers) {
    th.join();
  }
}

TEST(StripedCounterTest, ExactTotalWithFourThreads) {
  Counter c;
  HammerCounter(&c, 4, 100000);
  EXPECT_EQ(c.Value(), 4u * 100000u);
}

TEST(StripedCounterTest, ExactTotalWithMoreThreadsThanCells) {
  // 32 threads over 16 cells: every cell is shared by at least two threads.
  static_assert(Counter::kCells < 32);
  Counter c;
  HammerCounter(&c, 32, 100000);
  EXPECT_EQ(c.Value(), 32u * 100000u);
}

TEST(StripedCounterTest, ValueNeverDecreasesWhileWritersRun) {
  Counter c;
  std::atomic<bool> done{false};
  uint64_t decreases = 0;
  uint64_t reads = 0;
  std::thread reader([&] {
    uint64_t last = 0;
    while (!done.load()) {
      const uint64_t v = c.Value();
      decreases += v < last ? 1 : 0;
      last = v;
      ++reads;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&c, t] {
      for (int i = 0; i < 100000; ++i) {
        c.Inc(static_cast<uint64_t>(t + 1));
      }
    });
  }
  for (auto& th : writers) {
    th.join();
  }
  done.store(true);
  reader.join();
  EXPECT_GT(reads, 0u);
  EXPECT_EQ(decreases, 0u);
  EXPECT_EQ(c.Value(), (1u + 2u + 3u + 4u) * 100000u);
}

// ---- Concurrency (runs under TSan via check.sh) -----------------------------

TEST(TelemetryConcurrencyTest, ConcurrentRegistrationConvergesPerSeries) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIncsPerThread = 2000;
  constexpr int kSeries = 17;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kIncsPerThread; ++i) {
        const std::string series = std::to_string((t + i) % kSeries);
        Counter* c = reg.GetCounter("conc_total", "Conc.",
                                    {{"series", series}});
        ASSERT_NE(c, nullptr);
        c->Inc();
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(reg.SeriesCount(), static_cast<size_t>(kSeries));
  uint64_t total = 0;
  for (int s = 0; s < kSeries; ++s) {
    total += reg.GetCounter("conc_total", "Conc.",
                            {{"series", std::to_string(s)}})
                 ->Value();
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * kIncsPerThread);
}

TEST(TelemetryConcurrencyTest, RenderRacesUpdatesSafely) {
  MetricsRegistry reg;
  std::atomic<bool> stop{false};
  std::thread renderer([&] {
    while (!stop.load()) {
      reg.RenderPrometheus();
      reg.RenderJson();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&reg, t] {
      Histogram* h = reg.GetHistogram("rr_lat", "RR.", {100, 10000});
      for (int i = 0; i < 5000; ++i) {
        reg.GetCounter("rr_total", "RR.", {{"t", std::to_string(t)}})->Inc();
        h->Observe(static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& th : writers) {
    th.join();
  }
  stop.store(true);
  renderer.join();
  Histogram* h = reg.GetHistogram("rr_lat", "RR.", {100, 10000});
  EXPECT_EQ(h->Count(), 4u * 5000u);
}

TEST(TelemetryConcurrencyTest, CollectorsAddRemoveDuringRender) {
  MetricsRegistry reg;
  std::atomic<bool> stop{false};
  std::thread renderer([&] {
    while (!stop.load()) {
      reg.RenderPrometheus();
    }
  });
  for (int i = 0; i < 200; ++i) {
    const uint64_t id = reg.AddCollector([](std::vector<Sample>* out) {
      Sample s;
      s.name = "flicker";
      s.help = "F.";
      s.value = 1;
      out->push_back(std::move(s));
    });
    reg.RemoveCollector(id);
  }
  stop.store(true);
  renderer.join();
}

// ---- HTTP endpoint ----------------------------------------------------------

std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(TelemetryHttpTest, ServesExpositionAnd404) {
  MetricsRegistry reg;
  reg.GetCounter("http_total", "H.")->Inc(9);
  auto server = MetricsHttpServer::ServeRegistry(0, &reg);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();
  const std::string ok = HttpGet(port, "/metrics");
  EXPECT_NE(ok.find("200 OK"), std::string::npos) << ok;
  EXPECT_NE(ok.find("text/plain; version=0.0.4"), std::string::npos) << ok;
  EXPECT_NE(ok.find("http_total 9"), std::string::npos) << ok;
  const std::string missing = HttpGet(port, "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;
  EXPECT_GE((*server)->requests_served(), 2u);
  (*server)->Stop();
}

// ---- End-to-end family coverage ---------------------------------------------

// One daemon + one registered client over a real Unix socket + a KvStore:
// after light traffic, a single exposition must cover the SMA, SMD, IPC,
// and KV metric families — the acceptance bar for the scrape endpoints.
TEST(TelemetryE2ETest, ExpositionCoversSmaSmdIpcKvFamilies) {
  // IPC counters are hardwired to the global registry, so the test threads
  // everything through it (labels keep instances distinguishable).
  MetricsRegistry& reg = MetricsRegistry::Global();

  SmdOptions smd_opts;
  smd_opts.capacity_pages = 2048;
  smd_opts.initial_grant_pages = 128;
  smd_opts.metrics = &reg;
  smd_opts.metrics_instance = "e2e_smd";
  SoftMemoryDaemon daemon(smd_opts);
  DaemonServer server(&daemon);
  auto listener = UnixSocketListener::Bind(
      "/tmp/softmem_telemetry_e2e_" + std::to_string(::getpid()) + ".sock");
  ASSERT_TRUE(listener.ok()) << listener.status();
  server.ServeListener(listener->get());

  auto channel = ConnectUnixSocket((*listener)->path());
  ASSERT_TRUE(channel.ok()) << channel.status();
  auto client = DaemonClient::Register(std::move(channel).value(), "e2e_kv");
  ASSERT_TRUE(client.ok()) << client.status();

  SmaOptions sma_opts;
  sma_opts.metrics = &reg;
  sma_opts.metrics_instance = "e2e_sma";
  sma_opts.region_pages = 16 * 1024;
  sma_opts.initial_budget_pages = (*client)->initial_budget_pages();
  auto sma = SoftMemoryAllocator::Create(sma_opts, client->get());
  ASSERT_TRUE(sma.ok()) << sma.status();
  (*client)->AttachAllocator(sma->get());

  KvStore store(sma->get(), {}, MonotonicClock::Get(), &reg);
  EXPECT_EQ(store.Execute({"SET", "k", "v"}).type, RespType::kSimpleString);
  EXPECT_EQ(store.Execute({"GET", "k"}).type, RespType::kBulkString);

  // Both surfaces — the daemon-side endpoint text and the RESP METRICS
  // reply — carry all four families.
  const RespValue metrics_reply = store.Execute({"METRICS"});
  ASSERT_EQ(metrics_reply.type, RespType::kBulkString);
  for (const std::string& text : {reg.RenderPrometheus(), metrics_reply.str}) {
    EXPECT_NE(text.find("softmem_sma_allocs_total"), std::string::npos);
    EXPECT_NE(text.find("softmem_smd_requests_total"), std::string::npos);
    EXPECT_NE(text.find("softmem_ipc_messages_sent_total"),
              std::string::npos);
    EXPECT_NE(text.find("softmem_kv_commands_total"), std::string::npos);
    EXPECT_NE(text.find("instance=\"e2e_smd\""), std::string::npos);
  }

  server.Stop();
}

// METRICS with a null registry degrades to an error, not a crash.
TEST(TelemetryE2ETest, KvMetricsCommandWithoutRegistryErrors) {
  SmaOptions o;
  o.region_pages = 1024;
  o.initial_budget_pages = 256;
  auto sma = SoftMemoryAllocator::Create(o);
  ASSERT_TRUE(sma.ok());
  KvStore store(sma->get(), {}, MonotonicClock::Get(), nullptr);
  EXPECT_EQ(store.Execute({"METRICS"}).type, RespType::kError);
  EXPECT_EQ(store.Execute({"PING"}).type, RespType::kSimpleString);
}

}  // namespace
}  // namespace telemetry
}  // namespace softmem
