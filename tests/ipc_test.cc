#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/ipc/channel.h"
#include "src/ipc/daemon_client.h"
#include "src/ipc/daemon_server.h"
#include "src/ipc/messages.h"
#include "src/ipc/unix_socket.h"
#include "src/ipc/wire.h"
#include "src/sma/soft_memory_allocator.h"
#include "src/smd/soft_memory_daemon.h"
#include "src/telemetry/metrics.h"
#include "src/testing/failpoint.h"

namespace softmem {
namespace {

// ---- Wire codec ------------------------------------------------------------------

TEST(WireTest, RoundTripsScalars) {
  WireWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFULL);
  w.PutString("hello");
  WireReader r(w.bytes());
  EXPECT_EQ(*r.ReadU8(), 0xAB);
  EXPECT_EQ(*r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.ReadU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, TruncatedReadsFail) {
  WireWriter w;
  w.PutU32(42);
  WireReader r(w.bytes());
  EXPECT_TRUE(r.ReadU32().ok());
  EXPECT_FALSE(r.ReadU8().ok());
  EXPECT_FALSE(r.ReadU64().ok());
  EXPECT_FALSE(r.ReadString().ok());
}

TEST(WireTest, StringLengthIsValidated) {
  WireWriter w;
  w.PutU32(1000);  // claims 1000 bytes follow; none do
  WireReader r(w.bytes());
  EXPECT_FALSE(r.ReadString().ok());
}

// ---- Message codec -----------------------------------------------------------------

TEST(MessageTest, RoundTripsAllFields) {
  Message m;
  m.type = MsgType::kBudgetReply;
  m.seq = 77;
  m.pid = 12;
  m.pages = 1 << 20;
  m.bytes = 42 * kMiB;
  m.status = static_cast<uint32_t>(StatusCode::kDenied);
  m.text = "machine full";
  auto decoded = DecodeMessage(EncodeMessage(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, m.type);
  EXPECT_EQ(decoded->seq, m.seq);
  EXPECT_EQ(decoded->pid, m.pid);
  EXPECT_EQ(decoded->pages, m.pages);
  EXPECT_EQ(decoded->bytes, m.bytes);
  EXPECT_EQ(decoded->status_code(), StatusCode::kDenied);
  EXPECT_EQ(decoded->text, m.text);
}

TEST(MessageTest, RejectsGarbage) {
  std::vector<uint8_t> garbage = {1, 2, 3, 4, 5};
  EXPECT_FALSE(DecodeMessage(garbage).ok());
  EXPECT_FALSE(DecodeMessage(nullptr, 0).ok());
}

TEST(MessageTest, RejectsBadMagicAndType) {
  Message m;
  m.type = MsgType::kRegister;
  auto bytes = EncodeMessage(m);
  auto corrupted = bytes;
  corrupted[0] ^= 0xFF;  // magic
  EXPECT_FALSE(DecodeMessage(corrupted).ok());
  corrupted = bytes;
  corrupted[4] = 200;  // type out of range
  EXPECT_FALSE(DecodeMessage(corrupted).ok());
}

TEST(MessageTest, RejectsTrailingBytes) {
  Message m;
  m.type = MsgType::kGoodbye;
  auto bytes = EncodeMessage(m);
  bytes.push_back(0);
  EXPECT_FALSE(DecodeMessage(bytes).ok());
}

TEST(MessageTest, FuzzDecodeNeverCrashes) {
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    std::vector<uint8_t> buf(rng.NextBounded(200));
    for (auto& b : buf) {
      b = static_cast<uint8_t>(rng.NextBounded(256));
    }
    DecodeMessage(buf);  // must not crash; result may be anything
  }
}

// ---- Channels (parameterized over both transports) ----------------------------------

enum class ChannelKind { kLocal, kUnix };

struct ChannelPair {
  std::unique_ptr<MessageChannel> a;
  std::unique_ptr<MessageChannel> b;
  std::unique_ptr<UnixSocketListener> listener;  // keeps socket alive
};

ChannelPair MakePair(ChannelKind kind) {
  ChannelPair pair;
  if (kind == ChannelKind::kLocal) {
    auto [a, b] = CreateLocalChannelPair();
    pair.a = std::move(a);
    pair.b = std::move(b);
    return pair;
  }
  const std::string path =
      "/tmp/softmem_test_" + std::to_string(::getpid()) + "_" +
      std::to_string(reinterpret_cast<uintptr_t>(&pair) & 0xFFFF) + ".sock";
  auto listener = UnixSocketListener::Bind(path);
  EXPECT_TRUE(listener.ok()) << listener.status();
  pair.listener = std::move(listener).value();
  auto client = ConnectUnixSocket(path);
  EXPECT_TRUE(client.ok()) << client.status();
  pair.a = std::move(client).value();
  auto accepted = pair.listener->Accept(1000);
  EXPECT_TRUE(accepted.ok()) << accepted.status();
  pair.b = std::move(accepted).value();
  return pair;
}

class ChannelTest : public ::testing::TestWithParam<ChannelKind> {};

TEST_P(ChannelTest, SendRecvBothDirections) {
  auto pair = MakePair(GetParam());
  Message m;
  m.type = MsgType::kRequestBudget;
  m.pages = 7;
  ASSERT_TRUE(pair.a->Send(m).ok());
  auto got = pair.b->Recv(1000);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->pages, 7u);

  m.type = MsgType::kBudgetReply;
  m.pages = 9;
  ASSERT_TRUE(pair.b->Send(m).ok());
  got = pair.a->Recv(1000);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->type, MsgType::kBudgetReply);
  EXPECT_EQ(got->pages, 9u);
}

TEST_P(ChannelTest, PreservesMessageBoundariesAndOrder) {
  auto pair = MakePair(GetParam());
  for (uint64_t i = 0; i < 100; ++i) {
    Message m;
    m.type = MsgType::kUsageReport;
    m.seq = i;
    m.text = std::string(static_cast<size_t>(i % 50), 'x');
    ASSERT_TRUE(pair.a->Send(m).ok());
  }
  for (uint64_t i = 0; i < 100; ++i) {
    auto got = pair.b->Recv(1000);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->seq, i);
    EXPECT_EQ(got->text.size(), static_cast<size_t>(i % 50));
  }
}

TEST_P(ChannelTest, RecvTimesOut) {
  auto pair = MakePair(GetParam());
  auto got = pair.a->Recv(10);
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
}

TEST_P(ChannelTest, CloseUnblocksPeer) {
  auto pair = MakePair(GetParam());
  std::atomic<bool> unblocked{false};
  std::thread t([&] {
    auto got = pair.b->Recv(-1);
    EXPECT_FALSE(got.ok());
    unblocked.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pair.a->Close();
  t.join();
  EXPECT_TRUE(unblocked.load());
}

INSTANTIATE_TEST_SUITE_P(Transports, ChannelTest,
                         ::testing::Values(ChannelKind::kLocal,
                                           ChannelKind::kUnix),
                         [](const auto& info) {
                           return info.param == ChannelKind::kLocal ? "Local"
                                                                    : "Unix";
                         });

// ---- Client/server integration -------------------------------------------------------

SmaOptions ClientSmaOptions(size_t budget) {
  SmaOptions o;
  o.region_pages = 16 * 1024;
  o.initial_budget_pages = budget;
  o.budget_chunk_pages = 64;
  o.heap_retain_empty_pages = 0;
  o.use_mmap = false;
  return o;
}

struct ClientProcess {
  std::unique_ptr<DaemonClient> client;
  std::unique_ptr<SoftMemoryAllocator> sma;
};

// Registers one simulated "process" against the server over the transport.
ClientProcess MakeProcess(DaemonServer* server, ChannelKind kind,
                          UnixSocketListener* listener,
                          const std::string& name) {
  std::unique_ptr<MessageChannel> client_end;
  if (kind == ChannelKind::kLocal) {
    auto [a, b] = CreateLocalChannelPair();
    client_end = std::move(a);
    server->AddClient(std::move(b));
  } else {
    auto connected = ConnectUnixSocket(listener->path());
    EXPECT_TRUE(connected.ok());
    client_end = std::move(connected).value();
  }
  auto client = DaemonClient::Register(std::move(client_end), name);
  EXPECT_TRUE(client.ok()) << client.status();
  auto options = ClientSmaOptions((*client)->initial_budget_pages());
  auto sma = SoftMemoryAllocator::Create(options, client->get());
  EXPECT_TRUE(sma.ok());
  (*client)->AttachAllocator(sma->get());
  (*client)->StartPoller();
  return ClientProcess{std::move(client).value(), std::move(sma).value()};
}

class EndToEndTest : public ::testing::TestWithParam<ChannelKind> {
 protected:
  void SetUp() override {
    SmdOptions o;
    o.capacity_pages = 512;  // 2 MiB machine-wide
    o.initial_grant_pages = 64;
    o.over_reclaim_factor = 0.0;
    daemon_ = std::make_unique<SoftMemoryDaemon>(o);
    server_ = std::make_unique<DaemonServer>(daemon_.get());
    if (GetParam() == ChannelKind::kUnix) {
      auto listener = UnixSocketListener::Bind(
          "/tmp/softmem_e2e_" + std::to_string(::getpid()) + ".sock");
      ASSERT_TRUE(listener.ok());
      listener_ = std::move(listener).value();
      server_->ServeListener(listener_.get());
    }
  }

  void TearDown() override {
    server_->Stop();
  }

  ClientProcess Spawn(const std::string& name) {
    return MakeProcess(server_.get(), GetParam(), listener_.get(), name);
  }

  std::unique_ptr<SoftMemoryDaemon> daemon_;
  std::unique_ptr<DaemonServer> server_;
  std::unique_ptr<UnixSocketListener> listener_;
};

TEST_P(EndToEndTest, RegistrationGrantsInitialBudget) {
  auto p = Spawn("proc-a");
  EXPECT_GT(p.client->process_id(), 0u);
  EXPECT_EQ(p.client->initial_budget_pages(), 64u);
  EXPECT_EQ(p.sma->budget_pages(), 64u);
}

TEST_P(EndToEndTest, BudgetGrowsOnDemandThroughDaemon) {
  auto p = Spawn("proc-a");
  // 300 pages of 1 KiB allocations: needs several budget round-trips.
  std::vector<void*> ptrs;
  for (int i = 0; i < 1200; ++i) {
    void* ptr = p.sma->SoftMalloc(1024);
    ASSERT_NE(ptr, nullptr) << "allocation " << i;
    ptrs.push_back(ptr);
  }
  EXPECT_GE(p.sma->budget_pages(), 300u);
  const SmdStats s = daemon_->GetStats();
  EXPECT_GE(s.granted_requests, 1u);
  for (void* ptr : ptrs) {
    p.sma->SoftFree(ptr);
  }
}

TEST_P(EndToEndTest, CrossProcessReclamationMovesMemory) {
  auto victim = Spawn("victim");
  auto needy = Spawn("needy");

  // Victim allocates most of the machine's 512-page capacity.
  std::vector<void*> ptrs;
  for (int i = 0; i < 1600; ++i) {  // 400 pages
    void* ptr = victim.sma->SoftMalloc(1024);
    ASSERT_NE(ptr, nullptr) << "victim allocation " << i;
    ptrs.push_back(ptr);
  }
  const size_t victim_before = victim.sma->committed_pages();

  // Needy's allocations force the daemon to reclaim from victim.
  std::vector<void*> needy_ptrs;
  for (int i = 0; i < 1200; ++i) {  // 300 pages demanded
    void* ptr = needy.sma->SoftMalloc(1024);
    ASSERT_NE(ptr, nullptr) << "needy allocation " << i;
    needy_ptrs.push_back(ptr);
  }

  EXPECT_LT(victim.sma->committed_pages(), victim_before)
      << "victim must have relinquished pages";
  EXPECT_GT(victim.sma->GetStats().reclaim_demands, 0u);
  EXPECT_GE(victim.client->demands_served(), 1u);
  const SmdStats s = daemon_->GetStats();
  EXPECT_GE(s.reclamations, 1u);
  EXPECT_LE(s.assigned_pages, s.capacity_pages);

  // Both processes remain fully functional (the paper's headline claim:
  // nobody crashed).
  for (void* ptr : needy_ptrs) {
    needy.sma->SoftFree(ptr);
  }
  void* check = victim.sma->SoftMalloc(64);
  EXPECT_NE(check, nullptr);
}

TEST_P(EndToEndTest, DenialWhenMachineExhaustedAndVictimUnreclaimable) {
  auto pinned = Spawn("pinned");
  auto needy = Spawn("needy");

  // Pinned fills capacity with kNone-context memory (not revocable).
  ContextOptions co;
  co.name = "pinned-data";
  co.mode = ReclaimMode::kNone;
  auto ctx = pinned.sma->CreateContext(co);
  ASSERT_TRUE(ctx.ok());
  std::vector<void*> ptrs;
  for (int i = 0; i < 1790; ++i) {  // ~448 pages
    void* ptr = pinned.sma->SoftMalloc(*ctx, 1024);
    ASSERT_NE(ptr, nullptr) << i;
    ptrs.push_back(ptr);
  }
  // Needy wants more than the leftover capacity; the daemon demands, pinned
  // can't comply, the request is denied -> allocation returns nullptr
  // instead of crashing anything.
  void* big = needy.sma->SoftMalloc(100 * kPageSize);
  EXPECT_EQ(big, nullptr);
  const SmdStats s = daemon_->GetStats();
  EXPECT_GE(s.denied_requests, 1u);
}

TEST_P(EndToEndTest, ClientDisconnectFreesItsBudget) {
  auto a = Spawn("a");
  {
    auto transient = Spawn("transient");
    std::vector<void*> ptrs;
    for (int i = 0; i < 800; ++i) {  // 200 pages
      void* ptr = transient.sma->SoftMalloc(1024);
      ASSERT_NE(ptr, nullptr);
      ptrs.push_back(ptr);
    }
    EXPECT_GE(daemon_->GetStats().assigned_pages, 200u);
    // transient's client (and its goodbye) goes out of scope here.
  }
  // The daemon must reap the budget so others can use it.
  for (int i = 0; i < 100 && daemon_->GetStats().processes.size() > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const SmdStats s = daemon_->GetStats();
  ASSERT_EQ(s.processes.size(), 1u);
  EXPECT_LE(s.assigned_pages, 128u);
}

INSTANTIATE_TEST_SUITE_P(Transports, EndToEndTest,
                         ::testing::Values(ChannelKind::kLocal,
                                           ChannelKind::kUnix),
                         [](const auto& info) {
                           return info.param == ChannelKind::kLocal ? "Local"
                                                                    : "Unix";
                         });

// ---- DaemonClient poller ---------------------------------------------------------
//
// The poller waits for traffic without io_mu_ and never sleeps, so an idle
// client answers a reclaim demand, and another thread's budget RPC gets the
// channel, within a wake-up. A poller that held io_mu_ through a 20 ms
// receive and then slept 20 ms delayed both by up to 20 ms: the 25 ms gaps
// below make every request land in such a window.

constexpr auto kRequestGap = std::chrono::milliseconds(25);
constexpr int kTimedRequests = 50;
constexpr double kMedianBoundUs = 2000;

double MedianUs(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// Scripted daemon behind LocalChannel pairs. It acks kRegister/kReattach
// (accepting the claimed budget), grants every kRequestBudget in full (or,
// after SetDenyBudget(true), denies it as a standing denial and never sends
// kBudgetAvailable) and records kReclaimResults. Each channel it is handed gets a reader thread;
// the channel that carried the latest (re)registration is the live one.
class StubDaemon {
 public:
  static constexpr uint64_t kInitialPages = 64;

  StubDaemon() = default;
  StubDaemon(const StubDaemon&) = delete;
  StubDaemon& operator=(const StubDaemon&) = delete;

  ~StubDaemon() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& end : ends_) {
        end->Close();
      }
    }
    for (auto& t : readers_) {
      t.join();
    }
  }

  // Dials a fresh pair; the stub serves the daemon end.
  ChannelFactory Factory() {
    return [this]() -> Result<std::unique_ptr<MessageChannel>> {
      auto [client_end, daemon_end] = CreateLocalChannelPair();
      Serve(std::move(daemon_end));
      return std::move(client_end);
    };
  }

  size_t dials() {
    std::lock_guard<std::mutex> lock(mu_);
    return dials_;
  }

  void SetDenyBudget(bool deny) { deny_budget_.store(deny); }
  size_t budget_requests() const { return budget_requests_.load(); }

  // Sends a one-page reclaim demand on the live channel and waits for its
  // result. Returns the round trip in microseconds, or -1 after 5 s.
  double DemandRoundTripUs() {
    std::unique_lock<std::mutex> lock(mu_);
    Message demand;
    demand.type = MsgType::kReclaimDemand;
    demand.seq = ++demand_seq_;
    demand.pages = 1;
    const auto start = std::chrono::steady_clock::now();
    if (live_ == nullptr || !live_->Send(demand).ok()) {
      return -1;
    }
    const bool answered =
        cv_.wait_for(lock, std::chrono::seconds(5),
                     [&] { return last_result_seq_ == demand.seq; });
    if (!answered) {
      return -1;
    }
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start)
        .count();
  }

  // The daemon end of the live channel dies: the client sees EOF.
  void DropLive() {
    std::lock_guard<std::mutex> lock(mu_);
    if (live_ != nullptr) {
      live_->Close();
      live_ = nullptr;
    }
  }

 private:
  void Serve(std::unique_ptr<MessageChannel> end) {
    std::lock_guard<std::mutex> lock(mu_);
    MessageChannel* raw = end.get();
    ends_.push_back(std::move(end));
    ++dials_;
    readers_.emplace_back([this, raw] { ReaderLoop(raw); });
  }

  void ReaderLoop(MessageChannel* end) {
    for (;;) {
      auto m = end->Recv(-1);
      if (!m.ok()) {
        return;
      }
      Message reply;
      reply.seq = m->seq;
      switch (m->type) {
        case MsgType::kRegister:
        case MsgType::kReattach: {
          reply.type = MsgType::kRegisterAck;
          reply.pid = 1;
          reply.pages =
              m->type == MsgType::kRegister ? kInitialPages : m->pages;
          std::lock_guard<std::mutex> lock(mu_);
          live_ = end;  // set before the ack: the client then un-degrades
          end->Send(reply);
          break;
        }
        case MsgType::kRequestBudget:
          budget_requests_.fetch_add(1);
          reply.type = MsgType::kBudgetReply;
          reply.pages = m->pages;  // the grant, or the standing request
          if (deny_budget_.load()) {
            reply.status = static_cast<uint32_t>(StatusCode::kDenied);
          }
          end->Send(reply);
          break;
        case MsgType::kReclaimResult: {
          std::lock_guard<std::mutex> lock(mu_);
          last_result_seq_ = m->seq;
          cv_.notify_all();
          break;
        }
        default:
          break;  // usage reports, heartbeats, releases, goodbye
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<MessageChannel>> ends_;
  MessageChannel* live_ = nullptr;
  size_t dials_ = 0;
  uint64_t demand_seq_ = 0;
  uint64_t last_result_seq_ = 0;
  std::atomic<bool> deny_budget_{false};
  std::atomic<size_t> budget_requests_{0};
  std::vector<std::thread> readers_;  // last: they use the members above
};

TEST(DaemonClientPollerTest, IdleClientAnswersDemandsWithinAWakeup) {
  StubDaemon stub;
  auto client = DaemonClient::Connect(stub.Factory(), "idle");
  ASSERT_TRUE(client.ok()) << client.status();
  auto sma = SoftMemoryAllocator::Create(
      ClientSmaOptions((*client)->initial_budget_pages()), client->get());
  ASSERT_TRUE(sma.ok());
  (*client)->AttachAllocator(sma->get());
  (*client)->StartPoller();

  std::vector<double> rtt_us;
  for (int i = 0; i < kTimedRequests; ++i) {
    std::this_thread::sleep_for(kRequestGap);
    const double us = stub.DemandRoundTripUs();
    ASSERT_GE(us, 0) << "demand " << i << " was never answered";
    rtt_us.push_back(us);
  }
  EXPECT_LT(MedianUs(rtt_us), kMedianBoundUs);
  EXPECT_EQ((*client)->demands_served(), static_cast<size_t>(kTimedRequests));
  // One page of slack per demand.
  EXPECT_EQ((*sma)->budget_pages(),
            StubDaemon::kInitialPages - kTimedRequests);
}

TEST(DaemonClientPollerTest, BudgetRpcDoesNotQueueBehindThePoller) {
  StubDaemon stub;
  auto client = DaemonClient::Connect(stub.Factory(), "rpc");
  ASSERT_TRUE(client.ok()) << client.status();
  (*client)->StartPoller();

  // The test thread is the RPC thread; the poller runs beside it.
  std::vector<double> rtt_us;
  for (int i = 0; i < kTimedRequests; ++i) {
    std::this_thread::sleep_for(kRequestGap);
    const auto start = std::chrono::steady_clock::now();
    auto granted = (*client)->RequestBudget(2);
    const auto end = std::chrono::steady_clock::now();
    ASSERT_TRUE(granted.ok()) << granted.status();
    EXPECT_EQ(*granted, 2u);
    rtt_us.push_back(
        std::chrono::duration<double, std::micro>(end - start).count());
  }
  EXPECT_LT(MedianUs(rtt_us), kMedianBoundUs);
  EXPECT_EQ((*client)->ledger_budget_pages(),
            StubDaemon::kInitialPages + 2 * kTimedRequests);
}

// The poller waits on its own reference to the channel. Here the transport
// dies over and over while an RPC thread races the poller to notice, and
// the test thread swaps in a fresh channel with TryReconnectNow, so swaps
// land while the poller waits on the old channel. Under ASan/TSan this
// checks that the old channel outlives that wait; after every swap the
// poller must follow the new channel and answer a demand on it.
TEST(DaemonClientPollerTest, ReconnectSwapsTheChannelUnderAWaitingPoller) {
  StubDaemon stub;
  DaemonClientOptions copts;
  copts.heartbeat_interval_ms = 0;  // the poller waits with no timeout
  copts.rpc_timeout_ms = 5000;
  copts.reconnect_backoff_initial_ms = 1;
  copts.reconnect_backoff_max_ms = 4;
  auto client = DaemonClient::Connect(stub.Factory(), "swapped", copts);
  ASSERT_TRUE(client.ok()) << client.status();
  (*client)->StartPoller();

  std::atomic<bool> stop{false};
  std::thread rpc([&] {
    while (!stop.load()) {
      (*client)->RequestBudget(1);  // denied locally while degraded
      (*client)->ReportUsage(1, 0);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // Failures break out of the loop rather than return, so the RPC thread
  // is always joined.
  constexpr int kCycles = 100;
  int cycle = 0;
  for (; cycle < kCycles; ++cycle) {
    const size_t dials_before = stub.dials();
    stub.DropLive();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((stub.dials() == dials_before || (*client)->degraded()) &&
           std::chrono::steady_clock::now() < deadline) {
      (*client)->TryReconnectNow();
      std::this_thread::yield();
    }
    if ((*client)->degraded()) {
      ADD_FAILURE() << "client never reconnected in cycle " << cycle;
      break;
    }
    if (stub.DemandRoundTripUs() < 0) {
      ADD_FAILURE() << "poller did not follow the new channel in cycle "
                    << cycle;
      break;
    }
  }
  stop.store(true);
  rpc.join();
  EXPECT_EQ(cycle, kCycles);
  EXPECT_GE((*client)->reconnects(), static_cast<size_t>(kCycles));
  EXPECT_EQ((*client)->demands_served(), static_cast<size_t>(kCycles));
}


// ---- Standing denials ------------------------------------------------------------
//
// After the daemon denies a request, the client answers further requests
// itself until the daemon's kBudgetAvailable notice (or a grant, a
// reconnect, or one heartbeat interval), instead of paying a round trip
// and a daemon pass that recovers nothing.

double ElapsedUs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

// A real daemon behind DaemonServer. "hog" holds the whole machine and has
// no allocator attached, so every reclaim demand it gets yields nothing:
// any other process's request is denied after an empty pass.
class StandingDenialTest : public ::testing::Test {
 protected:
  static constexpr size_t kCapacity = 256;

  StandingDenialTest() {
    SmdOptions o;
    o.capacity_pages = kCapacity;
    o.initial_grant_pages = 0;
    o.over_reclaim_factor = 0.0;
    o.metrics = &registry_;
    daemon_ = std::make_unique<SoftMemoryDaemon>(o);
    server_ = std::make_unique<DaemonServer>(daemon_.get());
  }

  ~StandingDenialTest() override {
    // Clients first: their goodbyes reach a live server.
    needy_.reset();
    hog_.reset();
    server_->Stop();
  }

  std::unique_ptr<DaemonClient> Join(const std::string& name,
                                     DaemonClientOptions copts) {
    auto [client_end, daemon_end] = CreateLocalChannelPair();
    server_->AddClient(std::move(daemon_end));
    auto client = DaemonClient::Register(std::move(client_end), name, copts);
    EXPECT_TRUE(client.ok()) << client.status();
    (*client)->StartPoller();
    return std::move(client).value();
  }

  // Joins hog and needy and gives the whole machine to hog.
  void FillMachine(DaemonClientOptions copts = {}) {
    hog_ = Join("hog", copts);
    needy_ = Join("needy", copts);
    ASSERT_TRUE(hog_->RequestBudget(kCapacity).ok());
  }

  // A release has no reply: wait for the daemon to apply it.
  void WaitForFreePages(size_t pages) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (daemon_->free_pages() < pages &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    ASSERT_GE(daemon_->free_pages(), pages);
  }

  uint64_t SmdRequests() {
    return registry_
        .GetCounter("softmem_smd_requests_total", "", {{"instance", "smd"}})
        ->Value();
  }

  telemetry::MetricsRegistry registry_;
  std::unique_ptr<SoftMemoryDaemon> daemon_;
  std::unique_ptr<DaemonServer> server_;
  std::unique_ptr<DaemonClient> hog_;
  std::unique_ptr<DaemonClient> needy_;
};

TEST_F(StandingDenialTest, RequestsDuringADenialNeverReachTheDaemon) {
  DaemonClientOptions copts;
  copts.heartbeat_interval_ms = 60000;  // no lapse within the test
  FillMachine(copts);
  const auto start = std::chrono::steady_clock::now();
  auto denied = needy_->RequestBudget(8);
  const double rpc_us = ElapsedUs(start);
  ASSERT_EQ(denied.status().code(), StatusCode::kDenied);
  ASSERT_TRUE(needy_->denial_standing());

  const uint64_t requests_before = SmdRequests();
  std::vector<double> local_us;
  for (int i = 0; i < 100; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    auto again = needy_->RequestBudget(8);
    local_us.push_back(ElapsedUs(t0));
    EXPECT_EQ(again.status().code(), StatusCode::kDenied);
  }
  EXPECT_EQ(SmdRequests(), requests_before);
  EXPECT_EQ(needy_->local_denials(), 100u);
  EXPECT_LT(MedianUs(local_us), rpc_us / 10)
      << "the denied round trip took " << rpc_us << " us";
  const SmdStats s = daemon_->GetStats();
  EXPECT_EQ(s.standing_denials, 1u);
  EXPECT_EQ(s.denied_requests, 1u);
}

TEST_F(StandingDenialTest, SmallerRequestStillReachesTheDaemon) {
  DaemonClientOptions copts;
  copts.heartbeat_interval_ms = 60000;  // no lapse within the test
  FillMachine(copts);
  ASSERT_EQ(needy_->RequestBudget(64).status().code(), StatusCode::kDenied);
  ASSERT_TRUE(needy_->denial_standing());
  hog_->ReleaseBudget(8);  // admits 8 pages, not the standing 64
  WaitForFreePages(8);
  EXPECT_EQ(daemon_->GetStats().budget_notices, 0u);

  const uint64_t requests_before = SmdRequests();
  EXPECT_EQ(needy_->RequestBudget(64).status().code(), StatusCode::kDenied);
  EXPECT_EQ(SmdRequests(), requests_before) << "64 pages: denied locally";
  auto granted = needy_->RequestBudget(8);
  ASSERT_TRUE(granted.ok()) << granted.status();
  EXPECT_EQ(*granted, 8u);
  EXPECT_EQ(SmdRequests(), requests_before + 1);
  EXPECT_FALSE(needy_->denial_standing());
  EXPECT_EQ(needy_->local_denials(), 1u);
}

TEST_F(StandingDenialTest, ReleaseByAnotherClientLiftsTheDenial) {
  FillMachine();
  constexpr int kRounds = 20;
  std::vector<double> grant_us;
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_EQ(needy_->RequestBudget(8).status().code(), StatusCode::kDenied)
        << "round " << round;
    ASSERT_TRUE(needy_->denial_standing());
    const auto release = std::chrono::steady_clock::now();
    hog_->ReleaseBudget(8);
    const auto deadline = release + std::chrono::seconds(5);
    Result<size_t> granted = DeniedError("not asked yet");
    while (!(granted = needy_->RequestBudget(8)).ok() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(granted.ok()) << "round " << round << ": " << granted.status();
    grant_us.push_back(ElapsedUs(release));
    EXPECT_FALSE(needy_->denial_standing());
    // Back to the full machine for the next round.
    needy_->ReleaseBudget(8);
    WaitForFreePages(8);
    ASSERT_TRUE(hog_->RequestBudget(8).ok()) << "round " << round;
  }
  EXPECT_LT(MedianUs(grant_us), kMedianBoundUs);
  const SmdStats s = daemon_->GetStats();
  EXPECT_EQ(s.budget_notices, static_cast<size_t>(kRounds));
  EXPECT_EQ(s.standing_denials, 0u);
  EXPECT_EQ(s.assigned_pages, kCapacity);
}

TEST_F(StandingDenialTest, InjectedDenialDoesNotStand) {
  FillMachine();
  hog_->ReleaseBudget(8);  // the request would be granted but for the fault
  WaitForFreePages(8);
  {
    fail::FailSpec spec;
    spec.code = StatusCode::kDenied;
    fail::ScopedFailpoint fp("smd.grant.deny", spec);
    EXPECT_EQ(needy_->RequestBudget(8).status().code(), StatusCode::kDenied);
  }
  EXPECT_FALSE(needy_->denial_standing());
  EXPECT_EQ(daemon_->GetStats().standing_denials, 0u);
  EXPECT_TRUE(needy_->RequestBudget(8).ok());
}

TEST(StandingDenialStubTest, LostNoticeCostsOneRequestPerHeartbeat) {
  StubDaemon stub;
  DaemonClientOptions copts;
  copts.heartbeat_interval_ms = 200;
  auto client = DaemonClient::Connect(stub.Factory(), "unnoticed", copts);
  ASSERT_TRUE(client.ok()) << client.status();
  (*client)->StartPoller();
  stub.SetDenyBudget(true);

  EXPECT_FALSE((*client)->RequestBudget(4).ok());
  EXPECT_TRUE((*client)->denial_standing());
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE((*client)->RequestBudget(4).ok());
  }
  EXPECT_EQ(stub.budget_requests(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_FALSE((*client)->RequestBudget(4).ok());
  EXPECT_EQ(stub.budget_requests(), 2u) << "the denial did not lapse";
  EXPECT_EQ((*client)->local_denials(), 10u);
}

TEST(StandingDenialStubTest, ReconnectClearsTheDenial) {
  StubDaemon stub;
  DaemonClientOptions copts;
  copts.heartbeat_interval_ms = 60000;  // no lapse within the test
  copts.reconnect_backoff_initial_ms = 1;
  copts.reconnect_backoff_max_ms = 4;
  auto client = DaemonClient::Connect(stub.Factory(), "reconnected", copts);
  ASSERT_TRUE(client.ok()) << client.status();
  (*client)->StartPoller();
  stub.SetDenyBudget(true);
  EXPECT_FALSE((*client)->RequestBudget(4).ok());
  ASSERT_TRUE((*client)->denial_standing());

  const size_t dials_before = stub.dials();
  stub.DropLive();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((stub.dials() == dials_before || (*client)->degraded()) &&
         std::chrono::steady_clock::now() < deadline) {
    (*client)->TryReconnectNow();
    std::this_thread::yield();
  }
  ASSERT_FALSE((*client)->degraded()) << "client never reconnected";
  EXPECT_FALSE((*client)->denial_standing());
  stub.SetDenyBudget(false);
  auto granted = (*client)->RequestBudget(4);
  ASSERT_TRUE(granted.ok()) << granted.status();
  EXPECT_EQ(stub.budget_requests(), 2u);
}

}  // namespace
}  // namespace softmem
