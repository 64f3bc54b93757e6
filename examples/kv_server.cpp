// kv_server — the mini-Redis as a real network binary.
//
// Usage:
//   kv_server [--port N] [--backend epoll|uring|auto] [--daemon-socket PATH]
//             [--budget-mib N] [--reconnect-backoff MS] [--metrics-port N]
//             [--io-threads N] [--stripes N] [--max-connections N]
//             [--idle-timeout-ms N] [--reuse-port] [--access-monitor]
//             [--scheme-min-idle-ms N] [--tenant NAME] [--tenant-class lc|batch]
//
// Speaks RESP2 on 127.0.0.1:<port> (try it with `redis-cli -p <port>`:
// SET/GET/DEL/EXISTS/DBSIZE/FLUSHALL/INFO/PING, and METRICS for the
// Prometheus text exposition). Serving uses the multi-reactor event loop
// over a lock-striped store: --backend picks the reactor implementation
// (default auto: io_uring where the kernel supports it, epoll otherwise),
// --io-threads sets the reactor count (default: one per hardware thread)
// and --stripes the store partition count (default 16). --max-connections
// caps concurrent clients (excess accepts get a RESP error and a close),
// --idle-timeout-ms reaps connections with no traffic for that long, and
// --reuse-port lets several kv_server processes share one port via
// SO_REUSEPORT. With --daemon-socket it registers with a running
// softmemd and its hash-table entries become revocable soft memory — the
// full §5 deployment; without it, it runs on a fixed stand-alone soft
// budget. --metrics-port additionally serves /metrics over HTTP.
// --access-monitor turns on DAMON-style page sampling so reclaim drops the
// coldest entries first (tunable at runtime with the SCHEME command);
// --scheme-min-idle-ms sets how long a page must go untouched to count as
// cold (default 2000). --tenant/--tenant-class name the QoS tenant and
// criticality class presented to softmemd at registration (DESIGN §14);
// with a daemon attached, the TENANTS command returns the daemon's
// per-tenant table.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "src/common/units.h"
#include "src/ipc/daemon_client.h"
#include "src/ipc/unix_socket.h"
#include "src/kv/event_loop.h"
#include "src/kv/striped_store.h"
#include "src/sma/soft_memory_allocator.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/metrics_http.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace softmem;

  uint16_t port = 6380;
  std::string daemon_socket;
  size_t budget_mib = 64;
  int reconnect_backoff_ms = 50;  // initial redial delay after daemon loss
  int metrics_port = -1;  // -1 = disabled; 0 = kernel-assigned
  size_t io_threads = 0;  // 0 = hardware concurrency
  size_t stripes = 16;
  EventLoopBackend backend = EventLoopBackend::kAuto;
  size_t max_connections = 0;  // 0 = unbounded
  long idle_timeout_ms = 0;    // 0 = never reap
  bool reuse_port = false;
  bool access_monitor = false;
  long scheme_min_idle_ms = -1;  // -1 = library default
  std::string tenant = "default";
  uint8_t tenant_class = kWireClassBatch;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      port = static_cast<uint16_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--daemon-socket") {
      daemon_socket = next();
    } else if (arg == "--budget-mib") {
      budget_mib = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--reconnect-backoff") {
      reconnect_backoff_ms = static_cast<int>(std::strtol(next(), nullptr, 10));
    } else if (arg == "--metrics-port") {
      metrics_port = static_cast<int>(std::strtol(next(), nullptr, 10));
    } else if (arg == "--io-threads") {
      io_threads = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--stripes") {
      stripes = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--backend") {
      const char* name = next();
      if (!ParseEventLoopBackend(name, &backend)) {
        std::fprintf(stderr, "unknown --backend %s (epoll|uring|auto)\n",
                     name);
        return 2;
      }
    } else if (arg == "--max-connections") {
      max_connections = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--idle-timeout-ms") {
      idle_timeout_ms = std::strtol(next(), nullptr, 10);
    } else if (arg == "--reuse-port") {
      reuse_port = true;
    } else if (arg == "--access-monitor") {
      access_monitor = true;
    } else if (arg == "--scheme-min-idle-ms") {
      scheme_min_idle_ms = std::strtol(next(), nullptr, 10);
    } else if (arg == "--tenant") {
      tenant = next();
    } else if (arg == "--tenant-class") {
      const std::string name = next();
      if (name == "lc" || name == "latency_critical") {
        tenant_class = kWireClassLatencyCritical;
      } else if (name == "batch") {
        tenant_class = kWireClassBatch;
      } else {
        std::fprintf(stderr, "unknown --tenant-class %s (lc|batch)\n",
                     name.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: kv_server [--port N] [--backend epoll|uring|auto]"
                   " [--daemon-socket PATH]"
                   " [--budget-mib N] [--reconnect-backoff MS]"
                   " [--metrics-port N] [--io-threads N] [--stripes N]"
                   " [--max-connections N] [--idle-timeout-ms N]"
                   " [--reuse-port]"
                   " [--access-monitor] [--scheme-min-idle-ms N]"
                   " [--tenant NAME] [--tenant-class lc|batch]\n");
      return 2;
    }
  }

  // Production binaries arm the expensive (clock-reading) metric sites.
  telemetry::SetArmed(true);
  telemetry::MetricsRegistry* registry = &telemetry::MetricsRegistry::Global();

  // Optionally join a softmemd-managed machine. Connect() keeps the dial
  // factory, so a softmemd restart is survived: the client degrades (denying
  // budget growth locally, never blocking serving), redials with exponential
  // backoff, and replays its identity and budget through kReattach.
  std::unique_ptr<DaemonClient> client;
  if (!daemon_socket.empty()) {
    DaemonClientOptions copts;
    copts.reconnect_backoff_initial_ms = reconnect_backoff_ms;
    copts.reconnect_backoff_max_ms = reconnect_backoff_ms * 40;
    copts.tenant = tenant;
    copts.tenant_class = tenant_class;
    const std::string path = daemon_socket;
    auto registered = DaemonClient::Connect(
        [path] { return ConnectUnixSocket(path); }, "kv_server", copts);
    if (!registered.ok()) {
      std::fprintf(stderr, "kv_server: registration failed: %s\n",
                   registered.status().ToString().c_str());
      return 1;
    }
    client = std::move(registered).value();
  }

  SmaOptions o;
  o.metrics = registry;
  o.metrics_instance = "kv_server";
  o.region_pages = 256 * 1024;  // 1 GiB virtual
  o.initial_budget_pages = client != nullptr
                               ? client->initial_budget_pages()
                               : budget_mib * kMiB / kPageSize;
  o.budget_chunk_pages = 256;
  o.heap_retain_empty_pages = 0;
  // A cache keeps serving when the daemon denies growth: a SET evicts the
  // oldest entries of other stripes (through their try-lock gates) instead
  // of failing with -OOM until a neighbour frees memory.
  o.allow_self_reclaim = true;
  o.access_monitor.enabled = access_monitor;
  if (scheme_min_idle_ms >= 0) {
    o.access_monitor.idle_threshold_ns =
        static_cast<Nanos>(scheme_min_idle_ms) * kNanosPerMilli;
  }
  auto sma = SoftMemoryAllocator::Create(o, client.get());
  if (!sma.ok()) {
    std::fprintf(stderr, "kv_server: allocator: %s\n",
                 sma.status().ToString().c_str());
    return 1;
  }
  if (client != nullptr) {
    client->AttachAllocator(sma->get());
    client->StartPoller();
  }

  StripedKvStoreOptions store_opts;
  store_opts.stripes = stripes;
  store_opts.metrics = registry;
  // Reclaim callbacks fire on whichever thread triggered the pressure
  // (any reactor, or the daemon poller), so the counter must be atomic.
  store_opts.dict_options.on_reclaim = [](std::string_view key,
                                          std::string_view) {
    static std::atomic<size_t> count{0};
    const size_t n = count.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n % 10000 == 0) {
      std::fprintf(stderr, "kv_server: %zu entries reclaimed so far"
                   " (latest: %.*s)\n",
                   n, static_cast<int>(key.size()), key.data());
    }
  };
  StripedKvStore store(sma->get(), store_opts);
  if (client != nullptr) {
    // `client` outlives `store` (both live to the end of main; the event
    // loop is stopped before either is destroyed).
    DaemonClient* c = client.get();
    store.SetTenantStatsProvider([c] { return c->QueryStats("tenants"); });
  }

  EventLoopOptions loop_opts;
  loop_opts.port = port;
  loop_opts.backend = backend;
  loop_opts.io_threads = io_threads;
  loop_opts.max_connections = max_connections;
  loop_opts.idle_timeout_ms = idle_timeout_ms;
  loop_opts.reuse_port = reuse_port;
  loop_opts.metrics = registry;
  auto server = EventLoopServer::Listen(&store, loop_opts);
  if (!server.ok()) {
    std::fprintf(stderr, "kv_server: %s\n", server.status().ToString().c_str());
    return 1;
  }
  std::printf("kv_server: RESP on 127.0.0.1:%u (%s backend, %s mode,"
              " budget %s, %zu io threads, %zu stripes)\n",
              (*server)->port(), EventLoopBackendName((*server)->backend()),
              client != nullptr ? "daemon-managed" : "stand-alone",
              FormatBytes((*sma)->budget_pages() * kPageSize).c_str(),
              (*server)->io_threads(), store.stripes());

  std::unique_ptr<telemetry::MetricsHttpServer> metrics_server;
  if (metrics_port >= 0) {
    auto listening = telemetry::MetricsHttpServer::ServeRegistry(
        static_cast<uint16_t>(metrics_port), registry);
    if (!listening.ok()) {
      std::fprintf(stderr, "kv_server: metrics endpoint: %s\n",
                   listening.status().ToString().c_str());
      return 1;
    }
    metrics_server = std::move(listening).value();
    std::printf("kv_server: metrics on http://127.0.0.1:%u/metrics\n",
                metrics_server->port());
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    ::usleep(200 * 1000);
  }

  (*server)->Stop();
  const KvStoreStats s = store.GetStats();
  std::printf("\nkv_server: %zu keys, %zu sets, %zu gets (%zu hits),"
              " %zu reclaimed by pressure\n",
              s.keys, s.sets, s.gets, s.hits, s.reclaimed);
  return 0;
}
