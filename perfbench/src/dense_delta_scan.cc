// dense_delta_scan: a synthetic table (int key, 4 int payload columns,
// several million rows) holding 2.5 updates per 100 tuples in its PDT
// (the top rate of the paper's Fig. 17), read by full-projection
// Table::Scans: serial ordered, and nproc-worker unordered.
//
// End-to-end metrics: op_ms is the hot serial scan, slow_op_ms the
// serial scan after the table's buffer pool is emptied, rate_per_s the
// rows per second of the nproc-worker scan (each time the trimmed mean
// of the run's scans), io_bytes the encoded bytes a cold scan fetches.
//
// Check: every scan's row count, column sums and order-independent row
// hash equal the benchmark's own model of the base rows plus the
// updates (computed from the generating formulas, never from a scan),
// and the serial scans return strictly increasing keys; so does a scan
// after the table is checkpointed at the end of the traced run.
#include <array>
#include <limits>
#include <map>
#include <optional>
#include <unordered_set>
#include <vector>

#include "db/table.h"
#include "storage/buffer_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace pdtstore;

constexpr int kPayload = 4;
constexpr int64_t kKeyGap = 4;  // base keys are multiples of 4
constexpr double kUpdatesPerTuple = 0.025;

using Row = std::array<int64_t, kPayload>;

int64_t BasePayload(uint64_t seed, int64_t key, int c) {
  return static_cast<int64_t>(
      Mix(seed * 0x9e3779b97f4a7c15ULL ^ static_cast<uint64_t>(key) * 8 ^
          static_cast<uint64_t>(c)) &
      0xffffff);
}

Row BaseRow(uint64_t seed, int64_t key) {
  Row r;
  for (int c = 0; c < kPayload; ++c) r[c] = BasePayload(seed, key, c);
  return r;
}

uint64_t RowHash(int64_t key, const int64_t* v) {
  uint64_t h = static_cast<uint64_t>(key);
  for (int c = 0; c < kPayload; ++c) {
    h = h * 0x100000001b3ULL + static_cast<uint64_t>(v[c]);
  }
  return h ^ (h >> 29);
}

// What a scan returned (or what the model says it must return).
struct ScanDigest {
  uint64_t rows = 0;
  std::array<uint64_t, kPayload + 1> sums{};
  uint64_t row_hash = 0;
  bool increasing = true;

  void Add(int64_t key, const int64_t* v, int sign) {
    const uint64_t s = static_cast<uint64_t>(static_cast<int64_t>(sign));
    rows += s;
    sums[0] += s * static_cast<uint64_t>(key);
    for (int c = 0; c < kPayload; ++c) {
      sums[c + 1] += s * static_cast<uint64_t>(v[c]);
    }
    row_hash += s * RowHash(key, v);
  }
  bool operator==(const ScanDigest& o) const {
    return rows == o.rows && sums == o.sums && row_hash == o.row_hash;
  }
};

struct Update {
  enum Kind { kInsert, kDelete, kModify } kind;
  int64_t key;
  Row row;      // kInsert: the payload
  int col = 0;  // kModify: payload column and its new value
  int64_t value = 0;
};

struct Model {
  uint64_t base_rows = 0;
  std::vector<Update> updates;
  // Final state of every key an update touched; nullopt = deleted.
  std::map<int64_t, std::optional<Row>> touched;
};

Model MakeModel(uint64_t seed, uint64_t rows) {
  Model m;
  m.base_rows = rows;
  const uint64_t count = static_cast<uint64_t>(rows * kUpdatesPerTuple);
  std::unordered_set<int64_t> used;
  uint64_t state = seed ^ 0x5eedULL;
  auto next = [&] { return Mix(state++); };
  while (m.updates.size() < count) {
    const uint64_t r = next();
    const int64_t slot = static_cast<int64_t>(next() % rows);
    Update u;
    u.kind = static_cast<Update::Kind>(r % 3);
    u.key = slot * kKeyGap +
            (u.kind == Update::kInsert
                 ? 1 + static_cast<int64_t>((r >> 8) % (kKeyGap - 1))
                 : 0);
    if (!used.insert(u.key).second) continue;  // one update per key
    if (u.kind == Update::kInsert) {
      for (int c = 0; c < kPayload; ++c) {
        u.row[c] = static_cast<int64_t>(next() & 0xffffff);
      }
      m.touched[u.key] = u.row;
    } else if (u.kind == Update::kDelete) {
      m.touched[u.key] = std::nullopt;
    } else {
      u.col = static_cast<int>((r >> 16) % kPayload);
      u.value = static_cast<int64_t>(next() & 0xffffff);
      Row row = BaseRow(seed, u.key);
      row[u.col] = u.value;
      m.touched[u.key] = row;
    }
    m.updates.push_back(u);
  }
  return m;
}

// The digest every scan must reproduce: base rows, minus the base rows
// updates replaced, plus their final states.
ScanDigest Expected(uint64_t seed, const Model& m) {
  ScanDigest d;
  for (uint64_t i = 0; i < m.base_rows; ++i) {
    const int64_t key = static_cast<int64_t>(i) * kKeyGap;
    const Row r = BaseRow(seed, key);
    d.Add(key, r.data(), +1);
  }
  for (const auto& [key, final_row] : m.touched) {
    if (key % kKeyGap == 0) {
      const Row r = BaseRow(seed, key);
      d.Add(key, r.data(), -1);
    }
    if (final_row) d.Add(key, final_row->data(), +1);
  }
  return d;
}

std::shared_ptr<const Schema> DenseSchema() {
  std::vector<ColumnDef> cols = {{"k", TypeId::kInt64}};
  for (int c = 0; c < kPayload; ++c) {
    cols.push_back({"v" + std::to_string(c), TypeId::kInt64});
  }
  return std::make_shared<const Schema>(std::move(*Schema::Make(cols, {0})));
}

StatusOr<std::unique_ptr<Table>> BuildTable(uint64_t seed, const Model& m,
                                            DeltaBackend backend,
                                            bool apply_updates) {
  TableOptions opts;
  opts.backend = backend;
  auto table = std::make_unique<Table>("dense", DenseSchema(), opts);
  std::vector<ColumnVector> cols(kPayload + 1, ColumnVector(TypeId::kInt64));
  for (auto& c : cols) c.ints().resize(m.base_rows);
  for (uint64_t i = 0; i < m.base_rows; ++i) {
    const int64_t key = static_cast<int64_t>(i) * kKeyGap;
    cols[0].ints()[i] = key;
    for (int c = 0; c < kPayload; ++c) {
      cols[c + 1].ints()[i] = BasePayload(seed, key, c);
    }
  }
  PDT_RETURN_NOT_OK(table->LoadColumns(std::move(cols)));
  if (!apply_updates) return table;
  for (const Update& u : m.updates) {
    switch (u.kind) {
      case Update::kInsert: {
        Tuple t = {Value(u.key)};
        for (int c = 0; c < kPayload; ++c) t.emplace_back(u.row[c]);
        PDT_RETURN_NOT_OK(table->Insert(t));
        break;
      }
      case Update::kDelete:
        PDT_RETURN_NOT_OK(table->DeleteByKey({Value(u.key)}));
        break;
      case Update::kModify:
        PDT_RETURN_NOT_OK(table->ModifyByKey(
            {Value(u.key)}, static_cast<ColumnId>(u.col + 1),
            Value(u.value)));
        break;
    }
  }
  return table;
}

std::vector<ColumnId> AllColumns() {
  std::vector<ColumnId> cols;
  for (int c = 0; c <= kPayload; ++c) cols.push_back(static_cast<ColumnId>(c));
  return cols;
}

// Drains `src` into a digest; the consumer work every scan pays.
StatusOr<ScanDigest> DigestScan(BatchSource* src) {
  ScanDigest d;
  Batch b;
  int64_t last = std::numeric_limits<int64_t>::min();
  while (true) {
    PDT_ASSIGN_OR_RETURN(bool more, src->Next(&b, kDefaultBatchSize));
    if (!more) return d;
    const size_t n = b.num_rows();
    const int64_t* k = b.column(0).ints_data();
    std::array<const int64_t*, kPayload> v;
    for (int c = 0; c < kPayload; ++c) v[c] = b.column(c + 1).ints_data();
    for (size_t i = 0; i < n; ++i) {
      const int64_t row[kPayload] = {v[0][i], v[1][i], v[2][i], v[3][i]};
      d.Add(k[i], row, +1);
      d.increasing = d.increasing && k[i] > last;
      last = k[i];
    }
  }
}

ScanOptions ParallelOptions(int workers) {
  ScanOptions so;
  so.num_threads = workers;
  so.ordered = false;
  return so;
}

// One timed, checked scan; returns its wall time in seconds (<0 on a
// failed scan).
double TimedScan(const Table& t, const ScanOptions& so,
                 const ScanDigest& expect, bool ordered, Result* r) {
  ScopedSpan span(so.num_threads > 1 ? "scan.tn" : "scan.t1");
  const int64_t t0 = NowNs();
  auto src = t.Scan(AllColumns(), nullptr, so);
  auto d = DigestScan(src.get());
  const double secs = SecondsSince(t0);
  ++r->attempted;
  if (!d.ok()) {
    ++r->failed;
    r->Fail("scan failed: " + d.status().ToString());
    return -1;
  }
  r->Check(*d == expect, "scan result differs from the model");
  if (ordered) r->Check(d->increasing, "serial scan keys not increasing");
  return secs;
}

// The scan times of a phase, in seconds, and the encoded bytes each
// cold scan fetched.
struct ScanTimes {
  std::vector<double> t1, tn, cold, cold_bytes;
};

// Repeats rounds of a hot serial scan, an nproc-worker scan and a cold
// serial scan (the table's buffer pool emptied first), so that every
// kind samples the whole run, for `budget_s` seconds and at least
// `min_rounds` rounds. The serial scans rotate through the CPUs (see
// ScopedPin).
ScanTimes ScanPhase(const Table& t, int nproc, const ScanDigest& expect,
                    double budget_s, int min_rounds, Result* r) {
  ScanTimes times;
  const ScanOptions serial;
  const ScanOptions parallel = ParallelOptions(nproc);
  BufferPool* pool = t.buffer_pool();
  const int64_t start = NowNs();
  for (int round = 0; round < min_rounds || SecondsSince(start) < budget_s;
       ++round) {
    double s1 = 0, cold = 0;
    {
      ScopedPin pin(2 * round);
      s1 = TimedScan(t, serial, expect, true, r);
    }
    const double sn = TimedScan(t, parallel, expect, false, r);
    {
      ScopedPin pin(2 * round + 1);
      pool->EvictAll();
      pool->ResetStats();
      cold = TimedScan(t, serial, expect, true, r);
    }
    if (s1 < 0 || sn < 0 || cold < 0) break;
    times.t1.push_back(s1);
    times.tn.push_back(sn);
    times.cold.push_back(cold);
    times.cold_bytes.push_back(static_cast<double>(pool->stats().bytes_read));
  }
  return times;
}

// The dense-specific layer details (the VDT copy's scan, the paper's
// reference, and the morsels of a traced nproc-worker scan that digests
// its rows, whose time against the untraced one gives the tracing
// overhead), then the layer probe.
void RunLayerExperiments(const Args& a, uint64_t seed, const Model& m,
                         const Table& pdt, const ScanDigest& expect,
                         double untraced_tn_s, Result* r) {
  auto clean = BuildTable(seed, m, DeltaBackend::kPdt, false);
  auto vdt = BuildTable(seed, m, DeltaBackend::kVdt, true);
  if (!r->Check(clean.ok() && vdt.ok(), "building reference copies failed")) {
    return;
  }
  (void)SerialScanMs(**vdt, AllColumns(), "warm_scan");
  const int reps = a.quick ? 1 : 9;
  std::vector<double> vdt_ms, morsel_rows, busy_ms, traced_tn_s;
  for (int i = 0; i < reps; ++i) {
    auto v = SerialScanMs(**vdt, AllColumns(), "vdt.merge_scan");
    if (!r->Check(v.ok(), "reference scan failed")) return;
    vdt_ms.push_back(*v);

    ScopedSpan span("exec.parallel_scan");
    MorselPlan plan = pdt.PlanMorsels(AllColumns(), nullptr,
                                      ParallelOptions(a.nproc));
    MorselCounters mc;
    WrapMorselFactory(&plan, &mc);
    const int64_t t0 = NowNs();
    auto src = MakeScanSource(std::move(plan));
    auto d = DigestScan(src.get());
    const double wall_s = SecondsSince(t0);
    if (!r->Check(d.ok() && *d == expect, "traced scan differs from model")) {
      return;
    }
    traced_tn_s.push_back(wall_s);
    const double n = static_cast<double>(mc.morsels.load());
    morsel_rows.push_back(n > 0 ? static_cast<double>(mc.sids.load()) / n : 0);
    busy_ms.push_back(mc.merge.ms());
  }
  const double traced = TrimmedMean(traced_tn_s);
  r->Metric("trace.overhead_share", (traced - untraced_tn_s) / untraced_tn_s,
            "share");
  r->Detail("vdt.merge_scan_ms", Median(vdt_ms), "ms");
  r->Detail("exec.morsel_rows", Median(morsel_rows), "rows");
  r->Detail("exec.morsel_busy_ms", Median(busy_ms), "ms");
  ReportLayerProbe(a, {&pdt, clean->get(), AllColumns()}, r);
}

}  // namespace

void RunDenseDeltaScan(const Args& a, int64_t start_ns, Result* r) {
  const uint64_t rows = a.quick ? 100'000 : 4'000'000;
  const Model model = MakeModel(a.seed, rows);
  auto table = BuildTable(a.seed, model, DeltaBackend::kPdt, true);
  if (!r->Check(table.ok(), "building the table failed: " +
                                table.status().ToString())) {
    return;
  }
  const double setup_s = SecondsSince(start_ns);
  const ScanDigest expect = Expected(a.seed, model);
  const Table& t = **table;

  // Warm the decoded-chunk cache (one round of scans, not counted).
  (void)ScanPhase(t, a.nproc, expect, 0, 1, r);
  r->attempted = 0;

  // The traced run measures half as long untraced, as the reference for
  // the tracing overhead, then runs its layer experiments.
  Tracer::Get().SetRecording(false);
  const ScanTimes times = ScanPhase(t, a.nproc, expect,
                                    (a.trace ? 0.5 : 1.0) * a.seconds,
                                    a.quick ? 1 : 5, r);
  const double peak_rss = PeakRssMb();
  const double visible = static_cast<double>(expect.rows);
  r->Check(t.RowCount() == expect.rows, "RowCount differs from the model");
  if (!a.trace) {
    r->Metric("setup_s", setup_s, "s");
    r->Metric("peak_rss_mb", peak_rss, "MB");
    r->Metric("op_ms", TrimmedMean(times.t1) * 1e3, "ms");
    r->Metric("slow_op_ms", TrimmedMean(times.cold) * 1e3, "ms");
    r->Metric("rate_per_s", visible / TrimmedMean(times.tn), "1/s");
    r->Metric("io_bytes", Median(times.cold_bytes), "B");
    return;
  }
  Tracer::Get().SetRecording(true);
  RunLayerExperiments(a, a.seed, model, t, expect, TrimmedMean(times.tn),
                      r);

  // Checkpoint the table (the run's last use of its delta); it must
  // read the same afterwards.
  const int64_t c0 = NowNs();
  const Status st = (*table)->Checkpoint();
  const double checkpoint_ms = static_cast<double>(NowNs() - c0) / 1e6;
  if (r->Check(st.ok(), "checkpoint failed: " + st.ToString())) {
    (void)TimedScan(t, ScanOptions{}, expect, true, r);
  }
  r->Metric("db.checkpoint_ms", checkpoint_ms, "ms");
}

}  // namespace perfbench
