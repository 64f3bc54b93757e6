// ycsb_b_quiet and ycsb_b_pressure: a closed-loop YCSB-B client against a
// kv_server registered with softmemd, plus (pressure) an antagonist process
// that repeatedly grows a soft heap until softmemd reclaims from the server.

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/resp_conn.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/util.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/ipc/daemon_client.h"
#include "src/ipc/unix_socket.h"
#include "src/kv/event_loop.h"
#include "src/kv/striped_store.h"
#include "src/sma/soft_memory_allocator.h"
#include "src/telemetry/event_journal.h"
#include "src/telemetry/metrics.h"
#include "src/workload/generators.h"

namespace perfbench {
namespace {

// Workload shape. Changing any of these changes the benchmark.
constexpr uint64_t kKeys = 100000;
constexpr size_t kValueBytes = 256;
constexpr int kConns = 4;              // closed loop, pipeline depth 1
constexpr int kClientThreads = 2;      // each drives kConns / kClientThreads
constexpr int kGetPermille = 950;      // YCSB-B: 95% GET / 5% SET
constexpr double kZipfTheta = 0.99;
constexpr int kReactors = 2;           // steady on 4 vCPUs; see NOTES.md
constexpr int kStripes = 16;
constexpr int kQuietCapacityMib = 1024;
constexpr int kPressureCapacityMib = 8;
constexpr double kHoldMs = 250;
constexpr int kPreloadBatch = 128;
constexpr int kLoadTries = 50;
constexpr double kLoadRetryMs = 5;

enum TrafficState { kPaused = 0, kRunning = 1, kStopped = 2 };

// A SET refused with -OOM is sent again after this pause, as a client that
// must store the value would, until it is accepted or kSetGiveUpMs have
// passed since it was first sent; only then does the SET count as failed.
constexpr double kOomRetryMs = 5;
constexpr uint64_t kSetGiveUpMs = 10000;

// Latency samples carry the slice of the measured phase they fell in (a
// fixed interval when quiet, an episode under pressure) in their top bits
// (kSliceShift), so run.py can take per-slice percentiles and report their
// median across slices: one burst of interference on a shared host then
// moves one slice, not the run.
constexpr double kQuietSliceMs = 250;

struct Traffic {
  std::atomic<int> state{kPaused};
  std::atomic<uint64_t> slice{0};
  std::atomic<int> parked{0};  // client threads with nothing in flight
  std::atomic<bool> broken{false};
};

struct ClientStats {
  std::vector<uint64_t> get_ns;
  std::vector<uint64_t> set_ns;
  uint64_t gets = 0, hits = 0, nils = 0, bad_values = 0;
  uint64_t sets = 0, set_ok = 0, set_failed = 0, oom = 0, errors = 0;
  uint64_t commands = 0;  // sent, refused SETs' retries included

  void Add(const ClientStats& o) {
    get_ns.insert(get_ns.end(), o.get_ns.begin(), o.get_ns.end());
    set_ns.insert(set_ns.end(), o.set_ns.begin(), o.set_ns.end());
    gets += o.gets;
    hits += o.hits;
    nils += o.nils;
    bad_values += o.bad_values;
    sets += o.sets;
    set_ok += o.set_ok;
    set_failed += o.set_failed;
    oom += o.oom;
    errors += o.errors;
    commands += o.commands;
  }
};

// Fixed bijection from zipf rank to key id (YCSB scrambles ranks the same
// way on every run). The seed drives the request streams, not which keys
// are hot: which stripe holds the hottest keys moves the pressure tail by
// a third, and that would be seed noise rather than a property of the
// code. 100000 = 2^5 * 5^5, and 38231 is odd and not a multiple of 5, so
// the map is a bijection.
uint64_t KeyOfRank(uint64_t rank) { return (rank * 38231 + 17) % kKeys; }

// One connection of the closed loop and the command it has in flight.
struct ClientConn {
  RespConn conn;
  softmem::ZipfianGenerator zipf;
  softmem::Rng mix;
  bool waiting = false;   // a command is in flight
  bool is_get = false;
  uint64_t id = 0;
  uint64_t slice = 0;     // tag of the slice the operation started in
  uint64_t first_ns = 0;  // first send of the operation
  uint64_t sent_ns = 0;   // send of the command in flight
  uint64_t retry_at = 0;  // refused SET: when to send it again (0 = none)

  ClientConn(uint64_t seed, int c)
      : zipf(kKeys, kZipfTheta, seed * 1000003 + c), mix(seed * 7919 + c) {}
};

// One thread of the load generator: it drives connections [first, first +
// count), each at pipeline depth 1. With kClientThreads threads and the
// server's kReactors reactors, no more threads are busy than the 4 vCPUs
// the benchmark was tuned on. While traffic is paused it finishes what is
// in flight (refused SETs included) and then parks.
void ClientLoop(int first, int count, int port, uint64_t seed, bool allow_nil,
                bool traced, const std::vector<std::string>* keys,
                Traffic* traffic, ClientStats* st) {
  std::vector<std::unique_ptr<ClientConn>> conns;
  for (int c = first; c < first + count; ++c) {
    conns.push_back(std::make_unique<ClientConn>(seed, c));
    if (!conns.back()->conn.Connect(port)) {
      traffic->broken = true;
      return;
    }
  }
  st->get_ns.reserve(1 << 20);
  auto send = [&](ClientConn* c, uint64_t now) {
    if (c->is_get) {
      c->conn.Add("GET", (*keys)[c->id]);
    } else {
      c->conn.Add("SET", (*keys)[c->id], softmem::MakeValue(c->id, kValueBytes));
    }
    c->sent_ns = now;
    c->waiting = true;
    ++st->commands;
    c->retry_at = 0;
    return c->conn.Flush();
  };
  std::vector<pollfd> fds;
  std::vector<ClientConn*> polled;
  Reply reply;
  bool parked = false;
  auto park = [&](bool on) {
    if (on != parked) traffic->parked.fetch_add(on ? 1 : -1);
    parked = on;
  };
  for (;;) {
    const int state = traffic->state.load(std::memory_order_acquire);
    uint64_t now = NowNs();
    uint64_t next_retry = 0;
    bool busy = false;
    for (auto& cp : conns) {
      ClientConn* c = cp.get();
      if (!c->waiting && c->retry_at != 0 && now >= c->retry_at) {
        if (!send(c, now)) traffic->broken = true;
      } else if (!c->waiting && c->retry_at == 0 && state == kRunning) {
        c->id = KeyOfRank(c->zipf.Next());
        c->is_get = c->mix.NextBounded(1000) < kGetPermille;
        c->slice = traffic->slice.load(std::memory_order_relaxed) << kSliceShift;
        c->first_ns = now;
        if (!send(c, now)) traffic->broken = true;
      }
      if (c->retry_at != 0 && (next_retry == 0 || c->retry_at < next_retry)) {
        next_retry = c->retry_at;
      }
      busy = busy || c->waiting || c->retry_at != 0;
    }
    if (traffic->broken) return;
    if (!busy) {
      if (state == kStopped) break;
      park(true);
      SleepMs(0.2);
      continue;
    }
    park(false);
    fds.clear();
    polled.clear();
    for (auto& cp : conns) {
      if (cp->waiting) {
        fds.push_back({cp->conn.fd(), POLLIN, 0});
        polled.push_back(cp.get());
      }
    }
    int timeout_ms = 20000;  // as the connections' receive timeout
    if (next_retry != 0) {
      timeout_ms = next_retry > now
                       ? static_cast<int>((next_retry - now) / 1000000) + 1
                       : 0;
    }
    if (fds.empty()) {
      SleepMs(static_cast<double>(next_retry - std::min(now, next_retry)) / 1e6);
      continue;
    }
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0 && errno != EINTR) {
      traffic->broken = true;
      return;
    }
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      ClientConn* c = polled[i];
      if (!c->conn.Read(&reply)) {
        traffic->broken = true;
        return;
      }
      const uint64_t t1 = NowNs();
      c->waiting = false;
      if (traced) {
        Span span;
        span.id = SpanLog::NextId();
        span.req = span.id;
        span.key = c->id + 1;
        span.kind = SpanKind::kRequest;
        span.start = c->sent_ns;
        span.end = t1;
        SpanLog::Record(span);
      }
      if (c->is_get) {
        ++st->gets;
        st->get_ns.push_back(c->slice | (t1 - c->sent_ns));
        if (reply.type == '$') {
          ++st->hits;
          if (reply.text != softmem::MakeValue(c->id, kValueBytes)) ++st->bad_values;
        } else if (reply.type == 0) {
          ++st->nils;
          if (!allow_nil) ++st->bad_values;
        } else {
          ++st->errors;
        }
        continue;
      }
      if (reply.type == '-' && reply.text.compare(0, 3, "OOM") == 0) {
        ++st->oom;
        if (t1 - c->first_ns < kSetGiveUpMs * 1000000) {
          c->retry_at = t1 + static_cast<uint64_t>(kOomRetryMs * 1e6);
          continue;
        }
        ++st->set_failed;
      } else if (reply.type == '+') {
        ++st->set_ok;
        // The stall the client saw: first send to acceptance.
        st->set_ns.push_back(c->slice | (t1 - c->first_ns));
      } else {
        ++st->errors;
      }
      ++st->sets;
    }
  }
}

// SETs every key, in id order, over kConns pipelined connections. A SET
// refused with -OOM is sent again after a pause, up to kLoadTries times in
// all: the budget it needs can come late (a grant RPC that timed out while
// the host stole the CPU). Any other reply than OK fails the load. Adds
// the refusals to *refused.
bool LoadAll(int port, const std::vector<std::string>& keys,
             std::atomic<uint64_t>* refused) {
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < kConns; ++t) {
    threads.emplace_back([&, t] {
      RespConn conn;
      if (!conn.Connect(port)) {
        ok = false;
        return;
      }
      std::vector<uint64_t> pending;
      for (uint64_t id = t; id < kKeys; id += kConns) pending.push_back(id);
      Reply reply;
      for (int attempt = 0; !pending.empty() && ok; ++attempt) {
        if (attempt == kLoadTries) {
          ok = false;
          break;
        }
        if (attempt > 0) SleepMs(kLoadRetryMs);
        std::vector<uint64_t> again;
        for (size_t i = 0; i < pending.size() && ok; i += kPreloadBatch) {
          const size_t n = std::min<size_t>(kPreloadBatch, pending.size() - i);
          for (size_t j = i; j < i + n; ++j) {
            conn.Add("SET", keys[pending[j]],
                     softmem::MakeValue(pending[j], kValueBytes));
          }
          if (!conn.Flush()) ok = false;
          for (size_t j = i; j < i + n && ok; ++j) {
            if (!conn.Read(&reply)) {
              ok = false;
            } else if (reply.type == '-' &&
                       reply.text.compare(0, 3, "OOM") == 0) {
              again.push_back(pending[j]);
            } else if (reply.type != '+') {
              ok = false;
            }
          }
        }
        refused->fetch_add(again.size());
        pending.swap(again);
      }
    });
  }
  for (auto& th : threads) th.join();
  return ok;
}

bool Ping(int port) {
  RespConn conn;
  if (!conn.Connect(port)) return false;
  conn.Add("PING");
  Reply reply;
  return conn.Flush() && conn.Read(&reply) && reply.type == '+' &&
         reply.text == "PONG";
}

// Polls `ready` every 2 ms for up to 10 s.
template <typename Pred>
bool WaitFor(Pred ready) {
  const uint64_t deadline = NowNs() + 10'000'000'000ULL;
  while (NowNs() < deadline) {
    if (ready()) return true;
    SleepMs(2);
  }
  return false;
}

// The KV stack hosted in this process for the traced run, wired with the
// same objects and options as examples/kv_server.cpp, plus the span
// wrappers at the handler, channel and reclaim-callback seams.
struct InProcessKv {
  std::unique_ptr<softmem::DaemonClient> client;
  std::unique_ptr<TracedChannel> channel;
  std::unique_ptr<softmem::SoftMemoryAllocator> sma;
  std::unique_ptr<softmem::StripedKvStore> store;
  std::unique_ptr<TracedHandler> handler;
  std::unique_ptr<softmem::EventLoopServer> server;

  ~InProcessKv() {
    if (server) server->Stop();
    server.reset();
    client.reset();  // stops the poller before the allocator goes away
  }
};

std::unique_ptr<InProcessKv> HostKv(const std::string& socket, int port) {
  using namespace softmem;
  auto kv = std::make_unique<InProcessKv>();
  DaemonClientOptions copts;
  copts.reconnect_backoff_initial_ms = 50;
  copts.reconnect_backoff_max_ms = 50 * 40;
  copts.tenant = "kv";
  auto registered = DaemonClient::Connect(
      [socket] { return ConnectUnixSocket(socket); }, "kv_server", copts);
  if (!registered.ok()) Die("in-process kv: " + registered.status().ToString());
  kv->client = std::move(registered).value();
  kv->channel = std::make_unique<TracedChannel>(kv->client.get());

  SmaOptions o;
  o.metrics = &telemetry::MetricsRegistry::Global();
  o.metrics_instance = "kv_server";
  o.region_pages = 256 * 1024;
  o.initial_budget_pages = kv->client->initial_budget_pages();
  o.budget_chunk_pages = 256;
  o.heap_retain_empty_pages = 0;
  // Observability only: room for every demand of a run, not just the last
  // 256, so per-layer reclaim numbers cover the whole measured phase.
  o.reclaim_journal_capacity = 1 << 14;
  auto sma = SoftMemoryAllocator::Create(o, kv->channel.get());
  if (!sma.ok()) Die("in-process kv allocator: " + sma.status().ToString());
  kv->sma = std::move(sma).value();
  kv->client->AttachAllocator(kv->sma.get());
  kv->client->StartPoller();

  StripedKvStoreOptions store_opts;
  store_opts.stripes = kStripes;
  store_opts.metrics = &telemetry::MetricsRegistry::Global();
  store_opts.dict_options.on_reclaim = [](std::string_view, std::string_view) {
    Span span;
    span.start = NowNs();
    span.id = SpanLog::NextId();
    span.parent = SpanLog::Current();
    span.kind = SpanKind::kReclaimCallback;
    span.end = NowNs();
    SpanLog::Record(span);
  };
  kv->store = std::make_unique<StripedKvStore>(kv->sma.get(), store_opts);
  kv->handler = std::make_unique<TracedHandler>(kv->store.get());

  EventLoopOptions loop_opts;
  loop_opts.port = static_cast<uint16_t>(port);
  loop_opts.backend = EventLoopBackend::kAuto;
  loop_opts.io_threads = kReactors;
  loop_opts.metrics = &telemetry::MetricsRegistry::Global();
  auto server = EventLoopServer::Listen(kv->handler.get(), loop_opts);
  if (!server.ok()) Die("in-process kv: " + server.status().ToString());
  kv->server = std::move(server).value();
  return kv;
}

// One instance of the system under test: softmemd, the KV (child process
// or in-process host) and, under pressure, the antagonist.
struct Stack {
  std::string socket;
  int smd_port = 0, kv_port = 0, kv_metrics_port = 0;
  pid_t smd = -1, kv = -1, antagonist = -1;
  int to_antagonist = -1, from_antagonist = -1;
  std::unique_ptr<InProcessKv> host;
  std::atomic<uint64_t> load_refused{0};  // -OOM replies to preload SETs

  std::string KvMetrics() const {
    return host ? softmem::telemetry::MetricsRegistry::Global().RenderPrometheus()
                : HttpGet(kv_metrics_port, "/metrics");
  }
  std::string SmdMetrics() const { return HttpGet(smd_port, "/metrics"); }
  std::string Journal() const { return HttpGet(smd_port, "/journal"); }

  std::string Ask(const std::string& cmd) {
    std::string line;
    if (!WriteAll(to_antagonist, cmd + "\n") || !ReadLine(from_antagonist, &line)) {
      Die("antagonist did not answer '" + cmd + "'");
    }
    return line;
  }

  void Teardown() {
    host.reset();
    KillChild(antagonist);
    KillChild(kv);
    KillChild(smd);
    if (to_antagonist >= 0) ::close(to_antagonist);
    if (from_antagonist >= 0) ::close(from_antagonist);
    to_antagonist = from_antagonist = -1;
    antagonist = kv = smd = -1;
  }
};

int Registered(const Stack& s) {
  return static_cast<int>(PromValue(s.SmdMetrics(), "softmem_smd_processes"));
}

// Starts everything and preloads the keys. Returns the step that failed,
// or "" on success.
std::string StartStack(const Args& args, bool pressure, int rep,
                       const std::vector<std::string>& keys, Stack* s) {
  s->socket = args.out + "/s" + std::to_string(rep) + ".sock";
  s->smd_port = FreePort();
  do {
    s->kv_port = FreePort();
  } while (s->kv_port == s->smd_port);
  do {
    s->kv_metrics_port = FreePort();
  } while (s->kv_metrics_port == s->smd_port ||
           s->kv_metrics_port == s->kv_port);
  s->smd = StartSoftmemd(args, s->socket,
                         pressure ? kPressureCapacityMib : kQuietCapacityMib,
                         s->smd_port);
  if (s->smd < 0) return "softmemd did not serve /metrics";
  if (args.traced) {
    s->host = HostKv(s->socket, s->kv_port);
  } else {
    s->kv = SpawnChild(
        {args.bin + "/kv_server", "--port", std::to_string(s->kv_port),
         "--daemon-socket", s->socket, "--metrics-port",
         std::to_string(s->kv_metrics_port), "--io-threads",
         std::to_string(kReactors), "--stripes", std::to_string(kStripes),
         "--tenant", "kv"},
        args.out + "/kv_server.log");
  }
  // Readiness: the server answers PING and softmemd lists it as registered
  // (kv_server's startup line is block-buffered, so stdout is no signal).
  if (!WaitFor([&] { return Ping(s->kv_port) && Registered(*s) >= 1; })) {
    return "kv did not answer PING or register";
  }
  if (!LoadAll(s->kv_port, keys, &s->load_refused)) return "preload failed";
  if (pressure) {
    s->antagonist = SpawnChildPiped(
        {args.bin + "/perfbench_harness", "antagonist", "--socket", s->socket,
         "--out", args.out + "/antagonist" + std::to_string(rep), "--trace",
         args.traced ? "1" : "0"},
        args.out + "/antagonist.log", &s->to_antagonist, &s->from_antagonist);
    std::string line;
    if (!ReadLine(s->from_antagonist, &line) || line != "ready") {
      return "antagonist did not start";
    }
    if (!WaitFor([&] { return Registered(*s) >= 2; })) {
      return "antagonist did not register";
    }
  }
  return "";
}

// The measured phase, accumulated over the measured stacks.
struct Measurement {
  ClientStats stats;
  // [start, end) pairs of the measured phase, one per slice; spans and
  // journal records are attributed to it by their start time.
  std::vector<uint64_t> windows;
  std::vector<uint64_t> refill_ns, free_ns, rss_kib;
  std::vector<uint64_t> reps, episodes;  // per measured stack
  uint64_t measured_ns = 0;
  int phases = 0;  // stretches bracketed by /metrics scrapes
  std::atomic<uint64_t> load_refused{0};  // -OOM replies to refill SETs
  bool deaths = false;
  std::string antagonist_exits;
};

// Measures `seconds` of traffic on one stack: the closed loop alone
// (quiet), or antagonist episodes with a timed refill between them
// (pressure). Journal files are prefixed with the stack's set-up rep.
void Measure(const Args& args, bool pressure, int rep, double seconds,
             const std::vector<std::string>& keys, Stack* stack,
             RawResult* raw, Measurement* m) {
  const std::string prefix = "r" + std::to_string(rep) + "_";
  Traffic traffic;
  std::vector<ClientStats> stats(kClientThreads);
  std::vector<std::thread> clients;
  constexpr int kPerThread = kConns / kClientThreads;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back(ClientLoop, t * kPerThread, kPerThread, stack->kv_port,
                         args.seed * 16 + rep, pressure, args.traced, &keys,
                         &traffic, &stats[t]);
  }
  auto all_parked = [&] {
    return WaitFor([&] {
      return traffic.parked.load() == kClientThreads || traffic.broken.load();
    });
  };
  if (!all_parked() || traffic.broken) Die("clients failed to connect");

  // /metrics is diffed over the measured phase only. Each measured stretch
  // (a quiet stack's run, or one pressure episode) is bracketed by scrapes
  // taken while the clients are parked, so neither the preload nor the
  // refills between episodes are counted; run.py sums the per-stretch diffs.
  auto scrape = [&](const std::string& when) {
    const std::string tag = when + "." + std::to_string(m->phases);
    raw->File("kv_" + tag + ".prom", stack->KvMetrics());
    raw->File("smd_" + tag + ".prom", stack->SmdMetrics());
    if (when == "after") ++m->phases;
  };
  auto children_alive = [&] {
    for (pid_t pid : {stack->smd, stack->kv, stack->antagonist}) {
      if (pid > 0 && !ChildAlive(pid)) m->deaths = true;
    }
    return !m->deaths;
  };
  raw->File(prefix + "journal_before.jsonl", stack->Journal());
  const uint64_t budget_ns = static_cast<uint64_t>(seconds * 1e9);
  // Refills are not measured time; this caps the stack's run if they crawl.
  const uint64_t hard_stop = NowNs() + 3 * budget_ns + 2'000'000'000ULL;
  uint64_t slice = m->windows.size() / 2;  // slices count on across stacks
  uint64_t measured_ns = 0;
  int episodes = 0;

  if (!pressure) {
    scrape("before");
    const uint64_t t0 = NowNs();
    traffic.slice = slice;
    traffic.state = kRunning;
    uint64_t slice_start = t0;
    for (; NowNs() - t0 < budget_ns; ++slice) {
      traffic.slice = slice;
      SleepMs(kQuietSliceMs);
      const uint64_t now = NowNs();
      m->windows.insert(m->windows.end(), {slice_start, now});
      slice_start = now;
    }
    traffic.state = kPaused;
    all_parked();
    measured_ns = NowNs() - t0;
    scrape("after");
  } else {
    while (measured_ns < budget_ns && NowNs() < hard_stop && !traffic.broken) {
      scrape("before");
      const uint64_t t0 = NowNs();
      traffic.slice = slice++;
      traffic.state = kRunning;
      // Episode: grow until softmemd reclaims from the KV, hold, free.
      const std::string grew = stack->Ask("grow");
      // The ring keeps 256 passes; the hold can fill it with zero-yield
      // passes, so the passes of the growth are read before it.
      const std::string ep = prefix + "journal_ep" + std::to_string(episodes);
      raw->File(ep + "_grow.jsonl", stack->Journal());
      SleepMs(kHoldMs);
      const uint64_t t2 = NowNs();
      const std::string freed = stack->Ask("free");
      const uint64_t t3 = NowNs();
      traffic.state = kPaused;
      all_parked();
      measured_ns += NowNs() - t0;
      m->windows.insert(m->windows.end(), {t0, NowNs()});
      scrape("after");
      m->free_ns.push_back(t3 - t2);
      raw->File(ep + "_free.jsonl", stack->Journal());
      raw->Set("antagonist_r" + std::to_string(rep) + "_ep" +
                   std::to_string(episodes),
               JsonEscape(grew + " | " + freed));
      ++episodes;
      if (!children_alive()) break;
      // Refill the keys reclaim dropped, as its own timed phase, so the
      // next episode reclaims from a full KV again.
      const uint64_t r0 = NowNs();
      if (!LoadAll(stack->kv_port, keys, &m->load_refused)) {
        Die("refill failed");
      }
      m->refill_ns.push_back(NowNs() - r0);
    }
  }
  traffic.state = kStopped;
  for (auto& th : clients) th.join();
  for (const auto& st : stats) m->stats.Add(st);
  if (traffic.broken) Die("a client connection broke");

  raw->File(prefix + "journal_after.jsonl", stack->Journal());
  m->rss_kib.push_back(
      StatusKib(stack->host ? ::getpid() : stack->kv, "VmRSS"));
  children_alive();
  if (pressure && !m->deaths) {
    const std::string bye = stack->Ask("quit");
    const int status = ReapChild(stack->antagonist);
    stack->antagonist = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || bye != "bye") {
      m->antagonist_exits += "set-up " + std::to_string(rep) + ": " + bye + "; ";
    }
  }
  if (stack->host) {
    raw->File("sma_journal.jsonl",
              softmem::telemetry::RenderJournalJsonl(
                  stack->host->sma->reclaim_journal().Snapshot()));
  }
  m->measured_ns += measured_ns;
  m->reps.push_back(rep);
  m->episodes.push_back(episodes);
}

}  // namespace

int RunKv(const Args& args) {
  // kv_server arms the clock-reading metric sites at startup; so does the
  // in-process host.
  softmem::telemetry::SetArmed(true);
  const bool pressure = args.workload == "ycsb_b_pressure";
  IdleSpinners spinners(Nproc());
  RawResult raw(args.out);
  raw.Str("workload", args.workload);
  raw.Num("seed", static_cast<double>(args.seed));
  raw.Num("reactors", kReactors);
  raw.Num("stripes", kStripes);
  raw.Num("conns", kConns);
  raw.Num("keys", kKeys);
  raw.Num("value_bytes", kValueBytes);
  raw.Num("capacity_mib", pressure ? kPressureCapacityMib : kQuietCapacityMib);
  raw.Str("host", args.traced ? "in-process (traced)" : "kv_server binary");

  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (uint64_t id = 0; id < kKeys; ++id) keys.push_back(softmem::MakeKey(id));

  // Set-up, repeated. Each stack then carries an equal share of the
  // measured phase, so what differs from one stack to the next (thread
  // placement, heap layout, the phase between the daemon clients' pollers)
  // is averaged within a run instead of showing between runs.
  std::vector<uint64_t> setup_ns;
  Measurement m;
  Stack stack;
  for (int rep = 0; rep < args.setup_reps; ++rep) {
    stack.Teardown();
    const uint64_t t0 = NowNs();
    const std::string failed = StartStack(args, pressure, rep, keys, &stack);
    if (!failed.empty()) {
      std::string deaths;
      for (const auto& d : ChildDeaths()) deaths += "; " + d;
      Die("set-up " + std::to_string(rep) + ": " + failed + deaths +
          " (logs in " + args.out + ")");
    }
    setup_ns.push_back(NowNs() - t0);
    if (m.deaths) break;
    Measure(args, pressure, rep, args.seconds / args.setup_reps, keys, &stack,
            &raw, &m);
  }
  raw.Samples("setup_ns", setup_ns);
  if (pressure) {
    raw.Check("antagonist_clean_exit", m.antagonist_exits.empty(),
              m.antagonist_exits);
  }
  std::string death_text;
  for (const auto& d : ChildDeaths()) death_text += d + "; ";
  raw.Check("zero_process_deaths", !m.deaths && death_text.empty(), death_text);

  stack.Teardown();  // stops the in-process reactors before spans are read
  if (args.traced) {
    std::vector<Span> spans = SpanLog::Collect();
    LinkHandleSpans(&spans);
    WriteSpans(args.out + "/spans.csv", spans);
    raw.Set("spans", JsonEscape("spans.csv"));
  }

  const ClientStats& total = m.stats;
  raw.Samples("windows_ns", m.windows);
  raw.Samples("get_ns", total.get_ns);
  raw.Samples("set_ns", total.set_ns);
  raw.Samples("refill_ns", m.refill_ns);
  raw.Samples("free_ns", m.free_ns);
  raw.Samples("kv_rss_kib", m.rss_kib);
  raw.Samples("measured_reps", m.reps);
  raw.Samples("episodes", m.episodes);
  raw.Num("measured_s", static_cast<double>(m.measured_ns) / 1e9);
  raw.Num("phases", m.phases);
  raw.Num("preload_oom", static_cast<double>(stack.load_refused));
  raw.Num("refill_oom", static_cast<double>(m.load_refused));
  raw.Num("gets", static_cast<double>(total.gets));
  raw.Num("hits", static_cast<double>(total.hits));
  raw.Num("nils", static_cast<double>(total.nils));
  raw.Num("sets", static_cast<double>(total.sets));
  raw.Num("set_ok", static_cast<double>(total.set_ok));
  raw.Num("commands", static_cast<double>(total.commands));
  raw.Num("set_failed", static_cast<double>(total.set_failed));
  raw.Num("oom", static_cast<double>(total.oom));
  raw.Num("errors", static_cast<double>(total.errors));
  raw.Check("get_values_match", total.bad_values == 0,
            std::to_string(total.bad_values) + " GETs returned a wrong value" +
                (pressure ? "" : " or nil"));
  raw.Check("no_command_errors", total.errors == 0,
            std::to_string(total.errors) + " non-OOM error replies");
  if (!pressure) {
    raw.Check("quiet_hit_rate_is_1", total.hits == total.gets,
              std::to_string(total.gets - total.hits) + " misses");
    raw.Check("quiet_no_failures", total.oom == 0,
              std::to_string(total.oom) + " OOM replies");
  }
  raw.Write();
  return 0;
}

}  // namespace perfbench
