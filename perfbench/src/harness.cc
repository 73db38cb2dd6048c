#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "storage/buffer_pool.h"

namespace perfbench {

// ---------------------------------------------------------------------
// Result.
// ---------------------------------------------------------------------

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Result::Detail(const std::string& name, double value,
                    const std::string& unit) {
  details_.push_back({name, {value, unit}});
}

void Result::Fail(const std::string& what) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  failures_.push_back(what);
}

bool Result::Check(bool cond, const std::string& what) {
  if (!cond) Fail(what);
  return cond;
}

namespace {
std::string EntriesJson(
    const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
        entries) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, vu] : entries) {
    char num[64];
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << num
       << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  os << "}";
  return os.str();
}
}  // namespace

std::string Result::ToJson() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": " << EntriesJson(metrics_) << "}";
  return os.str();
}

std::string Result::DetailsJson() const { return EntriesJson(details_); }

// ---------------------------------------------------------------------
// Statistics and process counters.
// ---------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double TrimmedMean(std::vector<double> v, double trim) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t drop =
      static_cast<size_t>(trim * static_cast<double>(v.size()));
  double sum = 0;
  for (size_t i = drop; i < v.size() - drop; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * drop);
}

double SliceP99(const std::vector<const std::vector<double>*>& series,
                int slices) {
  std::vector<double> p99s;
  for (int c = 0; c < slices; ++c) {
    std::vector<double> part;
    for (const std::vector<double>* s : series) {
      const size_t n = s->size();
      part.insert(part.end(), s->begin() + n * c / slices,
                  s->begin() + n * (c + 1) / slices);
    }
    p99s.push_back(Percentile(part, 0.99));
  }
  return TrimmedMean(p99s);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t WrittenBytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

namespace {
void SetAffinity(long first, long count) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (long c = first; c < first + count; ++c) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

long CpusOnline() {
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  return cpus > 0 ? cpus : 1;
}
}  // namespace

ScopedPin::ScopedPin(int i) { SetAffinity(i % CpusOnline(), 1); }

ScopedPin::~ScopedPin() { SetAffinity(0, CpusOnline()); }

bool Near(double a, double b, double tol) {
  return std::abs(a - b) <= tol * (1.0 + std::max(std::abs(a), std::abs(b)));
}

// ---------------------------------------------------------------------
// Gate.
// ---------------------------------------------------------------------

void Gate::lock_shared() {
  std::unique_lock<std::mutex> l(mu_);
  cv_.wait(l, [&] { return !exclusive_ && !pending_; });
  ++shared_;
}

void Gate::unlock_shared() {
  std::lock_guard<std::mutex> l(mu_);
  if (--shared_ == 0) cv_.notify_all();
}

int64_t Gate::lock() {
  const int64_t t0 = NowNs();
  std::unique_lock<std::mutex> l(mu_);
  cv_.wait(l, [&] { return !exclusive_ && !pending_; });
  pending_ = true;
  cv_.wait(l, [&] { return shared_ == 0; });
  pending_ = false;
  exclusive_ = true;
  return NowNs() - t0;
}

void Gate::unlock() {
  std::lock_guard<std::mutex> l(mu_);
  exclusive_ = false;
  cv_.notify_all();
}

// ---------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------

namespace {
thread_local std::vector<uint64_t> tls_open_spans;
thread_local int64_t tls_lap_stamp = 0;

uint32_t ThreadTag() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t tag = next.fetch_add(1);
  return tag;
}
}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Enable(size_t capacity) {
  capacity_ = capacity;
  spans_.reserve(capacity);
  enabled_.store(true);
}

uint64_t Tracer::Begin(const char* name) {
  if (!enabled_.load(std::memory_order_relaxed)) return 0;
  const uint64_t id = next_id_.fetch_add(1);
  const uint64_t parent = tls_open_spans.empty() ? 0 : tls_open_spans.back();
  tls_open_spans.push_back(id);
  std::lock_guard<std::mutex> l(mu_);
  if (spans_.size() >= capacity_) {
    dropped_.fetch_add(1);
    return id;
  }
  spans_.push_back({name, NowNs(), 0, id, parent, ThreadTag()});
  return id;
}

void Tracer::End(uint64_t id) {
  if (id == 0) return;
  const int64_t now = NowNs();
  if (!tls_open_spans.empty() && tls_open_spans.back() == id) {
    tls_open_spans.pop_back();
  }
  std::lock_guard<std::mutex> l(mu_);
  // Open spans are recent: search from the back.
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->end_ns = now;
      return;
    }
  }
}

bool Tracer::Dump(const std::string& path) const {
  std::lock_guard<std::mutex> l(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  for (const Span& s : spans_) {
    if (s.end_ns == 0) continue;
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu, \"parent\": %llu}}",
                 first ? "" : ",\n", s.name, s.tid,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
    first = false;
  }
  std::fprintf(f, "\n], \"dropped_spans\": %zu}\n", dropped_.load());
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------
// Timing wrappers.
// ---------------------------------------------------------------------

StatusOr<bool> TimedSource::Next(Batch* out, size_t max_rows) {
  const int64_t t0 = NowNs();
  auto more = input_->Next(out, max_rows);
  counter_->ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
  return more;
}

namespace {

class NoState : public pdtstore::PipelineOpState {};

class StartOp : public pdtstore::PipelineOp {
 public:
  std::unique_ptr<pdtstore::PipelineOpState> MakeState() const override {
    return std::make_unique<NoState>();
  }
  Status Execute(Batch*, pdtstore::PipelineOpState*) const override {
    tls_lap_stamp = NowNs();
    return Status::OK();
  }
};

class LapOp : public pdtstore::PipelineOp {
 public:
  explicit LapOp(TimeCounter* counter) : counter_(counter) {}
  std::unique_ptr<pdtstore::PipelineOpState> MakeState() const override {
    return std::make_unique<NoState>();
  }
  Status Execute(Batch*, pdtstore::PipelineOpState*) const override {
    const int64_t now = NowNs();
    counter_->ns.fetch_add(now - tls_lap_stamp, std::memory_order_relaxed);
    tls_lap_stamp = now;
    return Status::OK();
  }

 private:
  TimeCounter* counter_;
};

}  // namespace

std::unique_ptr<pdtstore::PipelineOp> MakeStartOp() {
  return std::make_unique<StartOp>();
}

std::unique_ptr<pdtstore::PipelineOp> MakeLapOp(TimeCounter* counter) {
  return std::make_unique<LapOp>(counter);
}

void WrapMorselFactory(pdtstore::MorselPlan* plan, MorselCounters* counters) {
  pdtstore::MorselSourceFactory inner = std::move(plan->factory);
  plan->factory = [inner, counters](size_t idx, const pdtstore::SidRange& m,
                                    bool final_morsel)
      -> std::unique_ptr<BatchSource> {
    counters->morsels.fetch_add(1, std::memory_order_relaxed);
    counters->sids.fetch_add(m.end - m.begin, std::memory_order_relaxed);
    return std::make_unique<TimedSource>(inner(idx, m, final_morsel),
                                         &counters->merge);
  };
}

StatusOr<double> SerialScanMs(const pdtstore::Table& table,
                              std::vector<pdtstore::ColumnId> projection,
                              const char* span) {
  ScopedSpan s(span);
  const int64_t t0 = NowNs();
  auto src = table.Scan(std::move(projection));
  PDT_RETURN_NOT_OK(DrainRows(src.get()).status());
  return static_cast<double>(NowNs() - t0) / 1e6;
}

StatusOr<uint64_t> DrainRows(BatchSource* src) {
  Batch batch;
  uint64_t rows = 0;
  while (true) {
    PDT_ASSIGN_OR_RETURN(bool more,
                         src->Next(&batch, pdtstore::kDefaultBatchSize));
    if (!more) return rows;
    rows += batch.num_rows();
  }
}

// ---------------------------------------------------------------------
// Digests.
// ---------------------------------------------------------------------

namespace {
uint64_t HashString(const std::string& s) {
  return Mix(std::hash<std::string>{}(s));
}
}  // namespace

void ColumnDigest::AddBatch(const Batch& b) {
  rows += static_cast<int64_t>(b.num_rows());
  for (size_t c = 0; c < b.num_columns(); ++c) {
    const pdtstore::ColumnVector& col = b.column(c);
    const size_t n = col.size();
    switch (col.type()) {
      case pdtstore::TypeId::kInt64: {
        const int64_t* v = col.ints_data();
        uint64_t s = 0;
        for (size_t i = 0; i < n; ++i) s += static_cast<uint64_t>(v[i]);
        ints[c] += s;
        break;
      }
      case pdtstore::TypeId::kDouble: {
        const double* v = col.doubles_data();
        double s = 0;
        for (size_t i = 0; i < n; ++i) s += v[i];
        doubles[c] += s;
        break;
      }
      default: {
        uint64_t s = 0;
        for (size_t i = 0; i < n; ++i) s += HashString(col.StringAt(i));
        hashes[c] += s;
        break;
      }
    }
  }
}

void ColumnDigest::AddTuple(const pdtstore::Tuple& t, int sign) {
  rows += sign;
  const uint64_t usign = static_cast<uint64_t>(static_cast<int64_t>(sign));
  for (size_t c = 0; c < t.size(); ++c) {
    switch (t[c].type()) {
      case pdtstore::TypeId::kInt64:
        ints[c] += usign * static_cast<uint64_t>(t[c].AsInt64());
        break;
      case pdtstore::TypeId::kDouble:
        doubles[c] += sign * t[c].AsDouble();
        break;
      default:
        hashes[c] += usign * HashString(t[c].AsString());
        break;
    }
  }
}

bool ColumnDigest::Matches(const ColumnDigest& o, double tol,
                           std::string* why) const {
  if (rows != o.rows) {
    *why = "rows " + std::to_string(rows) + " vs " + std::to_string(o.rows);
    return false;
  }
  for (size_t c = 0; c < ints.size(); ++c) {
    if (ints[c] != o.ints[c] || hashes[c] != o.hashes[c] ||
        !Near(doubles[c], o.doubles[c], tol)) {
      *why = "column " + std::to_string(c) + " sums differ";
      return false;
    }
  }
  return true;
}

StatusOr<ColumnDigest> DigestTable(const pdtstore::Table& table) {
  std::vector<pdtstore::ColumnId> all;
  for (size_t c = 0; c < table.schema().num_columns(); ++c) {
    all.push_back(static_cast<pdtstore::ColumnId>(c));
  }
  ColumnDigest d(all.size());
  auto src = table.Scan(all);
  Batch batch;
  while (true) {
    PDT_ASSIGN_OR_RETURN(bool more,
                         src->Next(&batch, pdtstore::kDefaultBatchSize));
    if (!more) return d;
    d.AddBatch(batch);
  }
}

// ---------------------------------------------------------------------
// Layer probe.
// ---------------------------------------------------------------------

void ReportLayerProbe(const Args& a, const ProbeTables& p, Result* r) {
  ScopedSpan probe_span("layer_probe");
  pdtstore::BufferPool* pool = p.live->buffer_pool();
  // Warm both tables' decoded-chunk caches.
  (void)SerialScanMs(*p.clean, p.projection, "warm_scan");
  (void)SerialScanMs(*p.live, p.projection, "warm_scan");
  const int reps = a.quick ? 1 : 7;
  std::vector<double> clean_ms, live_ms, cold_ms, cold_mb, tn_ms, morsels,
      busy_share, wait_ms;
  for (int i = 0; i < reps; ++i) {
    StatusOr<double> c = 0.0, h = 0.0, cold = 0.0;
    {
      ScopedPin pin(i);  // rotate through the CPUs (see ScopedPin)
      c = SerialScanMs(*p.clean, p.projection, "storage.clean_scan");
      h = SerialScanMs(*p.live, p.projection, "pdt.merge_scan");
      pool->EvictAll();
      pool->ResetStats();
      cold = SerialScanMs(*p.live, p.projection, "storage.cold_scan");
    }
    if (!r->Check(c.ok() && h.ok() && cold.ok(), "probe scan failed")) return;
    clean_ms.push_back(*c);
    live_ms.push_back(*h);
    cold_ms.push_back(*cold);
    cold_mb.push_back(static_cast<double>(pool->stats().bytes_read) / 1e6);

    ScopedSpan span("exec.parallel_scan");
    pdtstore::ScanOptions so;
    so.num_threads = a.nproc;
    so.ordered = false;
    pdtstore::MorselPlan plan = p.live->PlanMorsels(p.projection, nullptr, so);
    MorselCounters mc;
    WrapMorselFactory(&plan, &mc);
    TimeCounter wait;
    const int64_t t0 = NowNs();
    TimedSource src(pdtstore::MakeScanSource(std::move(plan)), &wait);
    auto rows = DrainRows(&src);
    const double wall_ms = static_cast<double>(NowNs() - t0) / 1e6;
    if (!r->Check(rows.ok() && *rows == p.live->RowCount(),
                  "probe parallel scan lost or added rows")) {
      return;
    }
    tn_ms.push_back(wall_ms);
    morsels.push_back(static_cast<double>(mc.morsels.load()));
    busy_share.push_back(mc.merge.ms() / (a.nproc * wall_ms));
    wait_ms.push_back(wait.ms());
  }
  const double hot = Median(live_ms);
  r->Metric("storage.clean_scan_ms", Median(clean_ms), "ms");
  r->Metric("pdt.merge_scan_ms", hot, "ms");
  r->Metric("storage.cold_decode_ms", Median(cold_ms) - hot, "ms");
  r->Metric("storage.cold_read_mb", Median(cold_mb), "MB");
  r->Metric("exec.scan_tn_ms", Median(tn_ms), "ms");
  r->Metric("exec.morsels", Median(morsels), "count");
  r->Metric("exec.worker_busy_share", Median(busy_share), "share");
  r->Metric("exec.consumer_wait_ms", Median(wait_ms), "ms");
  const auto pdt = p.live->SharedPdt();
  r->Metric("pdt.entries",
            pdt ? static_cast<double>(pdt->EntryCount()) : 0.0, "count");
  r->Metric("pdt.delta_mb",
            static_cast<double>(p.live->DeltaMemoryBytes()) / 1e6, "MB");
}

}  // namespace perfbench
