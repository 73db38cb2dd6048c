// Shared plumbing of the pdtstore benchmark: command-line arguments, the
// result line, order statistics, process counters (RSS, bytes written),
// the span tracer and the pass-through timing wrappers the traced runs
// insert between operators. Nothing here calls into the program beyond
// the public BatchSource / PipelineOp / MorselPlan interfaces.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "columnstore/batch.h"
#include "db/table.h"
#include "exec/parallel_scan.h"
#include "exec/pipeline.h"

namespace perfbench {

using pdtstore::Batch;
using pdtstore::BatchSource;
using pdtstore::Status;
using pdtstore::StatusOr;

// ---------------------------------------------------------------------
// Run configuration and result.
// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;     ///< toy sizes, every check still runs
  std::string out_dir;    ///< trace files and the workloads' working files
  int nproc = 1;          ///< hardware threads the workloads may use
};

/// What one run reports: the verdict of its output checks, the counts
/// of operations attempted and failed in the timed phase, and metrics.
/// Every workload reports the same metric names (the end-to-end set
/// untraced, the per-layer set traced); a traced run also records
/// workload-specific details, written to a file of their own.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Detail(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check (the run is then not correct).
  void Fail(const std::string& what);
  /// Checks `cond`; on false records `what`.
  bool Check(bool cond, const std::string& what);
  bool correct() const { return failures_.empty(); }
  std::string ToJson() const;
  /// The details as one JSON object of {"value", "unit"} entries.
  std::string DetailsJson() const;
  bool has_details() const { return !details_.empty(); }

  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  using Entries =
      std::vector<std::pair<std::string, std::pair<double, std::string>>>;
  Entries metrics_;
  Entries details_;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------
// Clocks, statistics and process counters.
// ---------------------------------------------------------------------

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds since `start_ns`.
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// Median (mean of the two middle values for an even count); 0 if empty.
double Median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 1]; 0 if empty.
double Percentile(std::vector<double> v, double p);

/// Mean of what is left once the lowest and the highest `trim` share of
/// the values are dropped; 0 if empty. The host switches between a fast
/// and a slow speed for seconds at a time (a 4M-row scan runs at about
/// 40 or about 60 ms within one run), so the median of a run's
/// repetitions jumps between the two speeds from run to run, while the
/// trimmed mean moves only with their mix, and no single stall moves it.
double TrimmedMean(std::vector<double> v, double trim = 0.2);

/// p99 latency that one stall of the host cannot move: every series (one
/// client's latencies, in the order they happened) is cut into `slices`
/// consecutive parts, part i of all series (about the same stretch of
/// time) gives one p99, and the trimmed mean of those p99s is returned.
/// Each part should hold well over a thousand samples.
double SliceP99(const std::vector<const std::vector<double>*>& series,
                int slices);

/// Peak resident set size of this process so far, in MB (getrusage).
double PeakRssMb();
/// Bytes this process has passed to write-type system calls
/// (`wchar` of /proc/self/io); 0 where the file is unavailable.
uint64_t WrittenBytes();

/// Pins the calling thread to CPU `i` modulo the CPUs online for the
/// scope's lifetime, then lets it run anywhere again. Serial
/// repetitions rotate through the CPUs this way: left alone, the
/// scheduler keeps a thread on one CPU for a whole run, and a CPU slowed
/// by a neighbour on the host then slows that run's every repetition.
class ScopedPin {
 public:
  explicit ScopedPin(int i);
  ~ScopedPin();
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;
};

/// Relative agreement |a - b| <= tol * (1 + max(|a|, |b|)).
bool Near(double a, double b, double tol);

/// splitmix64: the deterministic mixer behind the benchmark's models.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A readers-writer gate that favours the exclusive side: once a
/// quiet point is requested no new shared holder enters, so a
/// workload-induced checkpoint cannot be starved by a stream of
/// readers (glibc's rwlock prefers readers).
class Gate {
 public:
  void lock_shared();
  void unlock_shared();
  /// Blocks until every shared holder has left; returns the wait in ns.
  int64_t lock();
  void unlock();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int shared_ = 0;
  bool exclusive_ = false;
  bool pending_ = false;
};

// ---------------------------------------------------------------------
// Tracing: spans kept in memory, written as Chrome trace_event JSON when
// the run ends. Spans carry their parent (the span open on the same
// thread when they started).
// ---------------------------------------------------------------------

class Tracer {
 public:
  static Tracer& Get();
  /// Reserves room for `capacity` spans and starts recording.
  void Enable(size_t capacity);
  /// Pauses or resumes recording (call between phases, not during one).
  void SetRecording(bool on) { enabled_.store(on); }
  /// Opens a span on this thread; returns its id (0 when disabled).
  uint64_t Begin(const char* name);
  void End(uint64_t id);
  /// Writes every recorded span; returns false on I/O failure.
  bool Dump(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    uint64_t id;
    uint64_t parent;
    uint32_t tid;
  };
  std::atomic<bool> enabled_{false};
  size_t capacity_ = 0;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<size_t> dropped_{0};
};

/// RAII span; records nothing when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : id_(Tracer::Get().Begin(name)) {}
  ~ScopedSpan() { Tracer::Get().End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint64_t id_;
};

// ---------------------------------------------------------------------
// Pass-through timing wrappers for the traced runs.
// ---------------------------------------------------------------------

/// Time one wrapper accumulates (atomic: morsel sources run on several
/// workers at once).
struct TimeCounter {
  std::atomic<int64_t> ns{0};
  double ms() const { return static_cast<double>(ns.load()) / 1e6; }
};

/// Forwards Next() to its input and charges the time spent inside it
/// (the input's inclusive time) to a counter.
class TimedSource : public BatchSource {
 public:
  TimedSource(std::unique_ptr<BatchSource> input, TimeCounter* counter)
      : input_(std::move(input)), counter_(counter) {}
  StatusOr<bool> Next(Batch* out, size_t max_rows) override;

 private:
  std::unique_ptr<BatchSource> input_;
  TimeCounter* counter_;
};

/// Pipeline fragment marker: a `Start` op stamps the worker's clock as
/// a batch enters the op chain; each later `Lap` op charges the time
/// since the previous stamp to its counter (the self time of the ops
/// between the two markers) and stamps again. The batch is untouched.
std::unique_ptr<pdtstore::PipelineOp> MakeStartOp();
std::unique_ptr<pdtstore::PipelineOp> MakeLapOp(TimeCounter* counter);

/// Per-morsel accounting of a wrapped MorselPlan factory.
struct MorselCounters {
  std::atomic<uint64_t> morsels{0};
  std::atomic<uint64_t> sids{0};
  TimeCounter merge;  ///< time inside the merge cursors' Next()
};

/// Replaces plan->factory by one that wraps every per-morsel source in a
/// TimedSource charging `counters`.
void WrapMorselFactory(pdtstore::MorselPlan* plan, MorselCounters* counters);

/// Drains a source; returns its row count (or the error).
StatusOr<uint64_t> DrainRows(BatchSource* src);

/// Time of one serial scan of `projection` drained without touching the
/// data, in ms, recorded as span `span`.
StatusOr<double> SerialScanMs(const pdtstore::Table& table,
                              std::vector<pdtstore::ColumnId> projection,
                              const char* span);

// ---------------------------------------------------------------------
// Content digests for the output checks.
// ---------------------------------------------------------------------

/// Order-independent digest of a set of rows: the row count and, per
/// column, the wrapping sum of int64 values, the sum of doubles and the
/// wrapping sum of string hashes. Rows can be added from scanned batches
/// or removed/added one tuple at a time, so a reference can be built as
/// "base rows + inserted - deleted".
struct ColumnDigest {
  explicit ColumnDigest(size_t num_columns = 0)
      : ints(num_columns, 0), doubles(num_columns, 0.0),
        hashes(num_columns, 0) {}
  void AddBatch(const Batch& b);
  void AddTuple(const pdtstore::Tuple& t, int sign);
  /// Exact on counts, ints and hashes; doubles within relative `tol`.
  /// On mismatch names the first differing quantity in *why.
  bool Matches(const ColumnDigest& o, double tol, std::string* why) const;

  int64_t rows = 0;
  std::vector<uint64_t> ints;
  std::vector<double> doubles;
  std::vector<uint64_t> hashes;
};

/// Digest of a full serial scan of every column of `table`.
StatusOr<ColumnDigest> DigestTable(const pdtstore::Table& table);

// ---------------------------------------------------------------------
// The per-layer metrics every workload reports.
// ---------------------------------------------------------------------

/// A workload's main table at the end of its timed phase, with its
/// updates in its delta, and a copy of it that holds no updates.
struct ProbeTables {
  const pdtstore::Table* live = nullptr;
  const pdtstore::Table* clean = nullptr;
  std::vector<pdtstore::ColumnId> projection;
};

/// Scans the probe tables (the workload's clients stopped) and reports
/// the storage, pdt and exec layers' metrics, each the median of a few
/// repetitions:
///   storage.clean_scan_ms  hot serial scan of the clean copy
///   pdt.merge_scan_ms      the same scan of the live table (its PDT merge)
///   storage.cold_decode_ms a serial scan of the live table after its
///                          buffer pool is emptied, minus the hot one
///   storage.cold_read_mb   encoded bytes that cold scan fetched
///   exec.scan_tn_ms        nproc-worker unordered scan of the live table
///   exec.morsels           morsels of that scan
///   exec.worker_busy_share its workers' time inside their morsel sources
///                          over nproc x wall time
///   exec.consumer_wait_ms  its consumer's time waiting on the exchange
///   pdt.entries, pdt.delta_mb  the live table's delta
void ReportLayerProbe(const Args& a, const ProbeTables& p, Result* r);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
