// Low-overhead machine-readable metrics (§ "observability layer").
//
// The paper's pitch — stranded DRAM recovered at acceptable cost — is only
// checkable in production if operators can *see* soft usage, budget churn,
// and reclamation latency. This registry provides the machine-readable
// counterpart to the human-readable stats_text dumps:
//
//  * Three instrument kinds. `Counter` (monotonic), `Gauge` (set/add), and
//    `Histogram` (fixed upper-bound buckets, cumulative like Prometheus's
//    `le` semantics). All updates are relaxed atomics and there is no lock
//    anywhere on the update path. A counter is striped: each thread adds
//    into its own cache-line-padded cell and reads sum the cells, so a
//    counter bumped on every allocation by every thread never bounces one
//    line between cores. Gauges and histograms are single atomics.
//  * Lock-free registration. Series live in an append-only intrusive list;
//    `GetCounter`/`GetGauge`/`GetHistogram` walk it and CAS-push a new node
//    on miss. A lost race (two threads registering the same series) is
//    resolved by tombstoning the younger duplicate, so callers always
//    converge on one live node per (name, labels) and renderers can walk
//    the list without taking any lock. Nodes are never freed: a registry
//    hands out stable pointers for the life of the process.
//  * Collectors. Components whose values live behind their own locks (the
//    SMA's page accounting, the SMD's per-process table) register a
//    collector callback instead of pushing gauges on every change; it runs
//    only at render time. Collectors are the one mutex-guarded piece —
//    registration and rendering are cold paths.
//  * Rendering. `RenderPrometheus()` emits the text exposition format
//    (HELP/TYPE per family, `_bucket{le=...}`/`_sum`/`_count` for
//    histograms); `RenderJson()` emits a flat object for embedding in
//    benchmark output (see bench/bench_util.h).
//
// Arming. Sites that need a clock read (latency histograms) are gated on a
// process-global armed flag, mirroring the failpoint design: unarmed sites
// cost one relaxed load and a branch. Counters are not gated — they are
// cheaper than the gate. Binaries arm at startup (softmemd, kv_server);
// benchmarks measuring the allocator hot path run unarmed by default.

#ifndef SOFTMEM_SRC_TELEMETRY_METRICS_H_
#define SOFTMEM_SRC_TELEMETRY_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/clock.h"

namespace softmem {
namespace telemetry {

// ---- Arming -----------------------------------------------------------------

// True when expensive metric sites (clock reads for latency histograms)
// should record. Default off: production binaries arm at startup.
bool Armed();
void SetArmed(bool armed);

// ---- Instruments ------------------------------------------------------------

// Monotonic counter, striped across kCells cache-line-padded cells. Each
// thread is given a cell index round-robin on its first Inc (one index per
// thread, shared by every counter in the process) and adds into that cell,
// so concurrent writers rarely share a line; threads beyond kCells share
// cells, which costs contention, never correctness. Inc is wait-free (one
// relaxed fetch_add). Value() sums the cells: exact once writers are
// quiescent, and while they run it never decreases between two calls from
// the same thread (each cell is monotonic and read-read coherent). Cost:
// kCells * 64 bytes per counter.
class Counter {
 public:
  static constexpr size_t kCells = 16;

  void Inc(uint64_t n = 1) {
    cells_[ThreadCell()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Cell& c : cells_) {
      sum += c.v.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };

  // The calling thread's cell index, assigned on first use.
  static size_t ThreadCell() {
    thread_local const size_t cell = NextCell();
    return cell;
  }
  static size_t NextCell();

  std::array<Cell, kCells> cells_;
};

// Last-value gauge (signed: budgets can be drawn down below a prior level).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Fixed-bucket histogram. `bounds` are inclusive upper bounds in ascending
// order; one implicit +Inf bucket follows. Observe is wait-free: a linear
// scan over a handful of bounds plus two relaxed fetch_adds.
class Histogram {
 public:
  explicit Histogram(std::vector<uint64_t> bounds);

  void Observe(uint64_t value);

  size_t bucket_count() const { return bounds_.size() + 1; }
  const std::vector<uint64_t>& bounds() const { return bounds_; }
  // Count of observations in bucket `i` (not cumulative).
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }

  // Default bound sets (nanosecond latencies / page counts).
  static std::vector<uint64_t> LatencyBoundsNs();
  static std::vector<uint64_t> PageCountBounds();

 private:
  const std::vector<uint64_t> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// Observes the wall-clock nanoseconds between construction and destruction
// into `h` — but only when telemetry is armed and `h` is non-null; an
// unarmed site never reads the clock.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram* h)
      : h_(h != nullptr && Armed() ? h : nullptr),
        start_(h_ != nullptr ? MonotonicClock::Get()->Now() : 0) {}
  ~ScopedLatencyTimer() {
    if (h_ != nullptr) {
      const Nanos d = MonotonicClock::Get()->Now() - start_;
      h_->Observe(d > 0 ? static_cast<uint64_t>(d) : 0);
    }
  }
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  Histogram* h_;
  Nanos start_;
};

// ---- Registry ---------------------------------------------------------------

using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge, kHistogram };

// A point-in-time sample emitted by a collector: rendered exactly like a
// registered series but owned by nobody (rebuilt every render).
struct Sample {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kGauge;
  Labels labels;
  double value = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Shared process-wide registry: what binaries expose on their endpoints.
  static MetricsRegistry& Global();

  // Returns the series for (name, labels), creating it on first use. The
  // pointer is stable for the registry's lifetime. `help` is taken from the
  // first registration of the family. A histogram's bounds likewise; asking
  // for an existing series with a different kind returns nullptr (a
  // programming error surfaced loudly in tests, tolerated in production).
  Counter* GetCounter(const std::string& name, const std::string& help,
                      const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          std::vector<uint64_t> bounds,
                          const Labels& labels = {});

  // Collector: invoked at render time to contribute snapshot samples (for
  // values that live behind component locks). Remove before the component
  // dies. Registration/removal/render serialize on a mutex.
  using CollectorFn = std::function<void(std::vector<Sample>*)>;
  uint64_t AddCollector(CollectorFn fn);
  void RemoveCollector(uint64_t id);

  // Prometheus text exposition format (version 0.0.4).
  std::string RenderPrometheus() const;

  // Flat JSON object: {"name{label=\"v\"}": value, ...}; histograms render
  // as {"count": n, "sum": s, "buckets": {"le": count, ...}}.
  std::string RenderJson() const;

  // Number of live (non-tombstoned) registered series. For tests.
  size_t SeriesCount() const;

 private:
  struct Node {
    std::string name;
    std::string help;
    MetricKind kind;
    Labels labels;
    std::string label_key;  // canonical rendered label string, for dedup
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::atomic<bool> tombstone{false};
    Node* next = nullptr;
  };

  // Walks the list for a live (name, label_key) node.
  Node* FindLocked(const std::string& name, const std::string& key) const;
  // CAS-pushes `node`, then resolves duplicate races by tombstoning the
  // younger node. Returns the surviving node for the key.
  Node* Publish(std::unique_ptr<Node> node);

  Node* NewNode(const std::string& name, const std::string& help,
                MetricKind kind, const Labels& labels);

  std::atomic<Node*> head_{nullptr};

  mutable std::mutex collectors_mu_;
  std::vector<std::pair<uint64_t, CollectorFn>> collectors_;
  uint64_t next_collector_id_ = 1;
};

// Canonical `{k="v",...}` rendering of a label set ("" when empty).
std::string RenderLabels(const Labels& labels);

}  // namespace telemetry
}  // namespace softmem

#endif  // SOFTMEM_SRC_TELEMETRY_METRICS_H_
