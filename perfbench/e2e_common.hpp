// Shared plumbing of the end-to-end benchmark: clocks, sample
// distributions, process statistics, the metric report, and the span
// tracer that gives the per-layer numbers.
//
// Spans are recorded only from the benchmark's own files, around its calls
// into each layer's public functions (one span per call), so the program
// under test is never instrumented: the traced run measures the same code
// the untraced run does, plus the cost of recording.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// A bag of samples. Quantiles interpolate linearly between order
/// statistics (ct::percentile_sorted).
class Dist {
 public:
  void add(double x) { v_.push_back(x); }
  void append(const Dist& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double sum() const;
  /// Quantile, q in [0, 1]; 0 for an empty bag.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  /// Samples strictly above the q-quantile (the tail a percentile rests on).
  std::size_t beyond(double q) const;
  /// Prints `label: n=… median … [x0 x1 …]` (samples in insertion order).
  void print(const char* label, double scale = 1.0) const;

 private:
  std::vector<double> v_;
};

// --- process statistics ----------------------------------------------------

double vm_hwm_mb();  ///< peak resident set (VmHWM) of this process
double vm_rss_mb();  ///< current resident set (VmRSS)
struct PageFaults {
  long minor = 0;
  long major = 0;
};
PageFaults page_faults();  ///< getrusage(RUSAGE_SELF) fault counters
unsigned online_cpus();    ///< CPUs this process may run on

/// Bytes of every regular file under `dir`, recursively.
std::uint64_t directory_bytes(const std::string& dir);

// --- report ----------------------------------------------------------------

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The result line: every metric by name with its unit, plus the operation
/// accounting. Printed as one JSON object, the last line of stdout.
class Report {
 public:
  void set(const std::string& name, double value) { metrics_[name] = value; }
  bool has(const std::string& name) const { return metrics_.count(name); }
  double get(const std::string& name) const;

  /// Operation accounting: `fail` counts an operation that did not
  /// complete, `wrong` one that completed with a wrong answer, which also
  /// makes the run incorrect.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n = 1) { failed_ += n; }
  void wrong(std::uint64_t n = 1) {
    failed_ += n;
    wrong_ += n;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return wrong_ == 0 && check_errors_.empty(); }
  /// A correctness violation that is not a single wrong answer (digest or
  /// accounting mismatch); fails the run.
  void check_error(const std::string& what);
  const std::vector<std::string>& check_errors() const {
    return check_errors_;
  }

  /// Prints `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`
  /// with exactly the metrics of `specs`, in that order and their units.
  void print_json(const std::vector<MetricSpec>& specs) const;

 private:
  std::map<std::string, double> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t wrong_ = 0;
  std::vector<std::string> check_errors_;
};

// --- tracing ---------------------------------------------------------------

/// The layer boundaries spans are recorded at.
enum class Layer : std::uint8_t {
  kMonitorIngest,    ///< MonitoringEntity::ingest
  kWalAppend,        ///< DurableLog::append, inside the delivery tap
  kWalCheckpoint,    ///< DurableLog::checkpoint / ShardRouter::checkpoint_tenant
  kStorePublish,     ///< publish_columnar
  kStoreRecover,     ///< recover_with_ladder
  kShardIngest,      ///< ShardRouter::ingest
  kShardOpenEpoch,   ///< ShardRouter::open_epoch
  kShardCloseEpoch,  ///< ShardRouter::close_epoch
  kShardQuery,       ///< ShardRouter::{precedence,batch,frontier}
  kBrokerQuery,      ///< QueryBroker::submit_* until the future is ready
  kMonitorQuery,     ///< MonitoringEntity precedence / batch / frontier
  kCount
};

const char* layer_name(Layer layer);

struct Span {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint64_t request = 0;  ///< event sequence or query index
  std::uint32_t parent = 0;   ///< index+1 of the enclosing span, 0 = root
  Layer layer = Layer::kMonitorIngest;
  std::uint8_t kind = 0;      ///< query kind for query spans
};

/// Per-thread span buffers, kept in memory until written out at exit.
class Tracer {
 public:
  static void enable(bool on);
  static bool enabled();
  /// One buffer per recording thread (call after workers have joined).
  static std::vector<const std::vector<Span>*> buffers();
  /// Writes every span as a tab-separated line:
  /// thread, index, parent, layer, kind, request, start_ns, end_ns.
  static void write(const std::string& path);
};

/// Records one span on the calling thread while it is in scope; nested
/// spans on the same thread become its children.
class ScopedSpan {
 public:
  ScopedSpan(Layer layer, std::uint64_t request, std::uint8_t kind = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::vector<Span>* buffer_ = nullptr;
  std::size_t index_ = 0;
};

/// Self time of every span: its duration minus its direct children's.
struct LayerTimes {
  Dist self_ns[static_cast<int>(Layer::kCount)];
  Dist total_ns[static_cast<int>(Layer::kCount)];
};
LayerTimes layer_times();

// --- digests ---------------------------------------------------------------

inline std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

}  // namespace e2e
