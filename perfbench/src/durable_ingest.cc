// durable_ingest: a persistent Database::Open directory on disk; nproc
// writers commit 8-operation insert/delete/modify transactions through
// Database::Txn on disjoint key ranges (closed loops, group commit). A
// Database::Save runs at a quiet point every N commits. After the timed
// phase a fixed number of further commits leaves a WAL suffix, and the
// directory is closed and reopened (recovery replays that suffix).
//
// End-to-end metrics: op_ms and slow_op_ms are the p50 and p99
// transaction latency (Begin to commit acknowledgement), rate_per_s the
// commits per second, io_bytes the bytes written per row changed.
//
// Check: after reopen the table equals the union of the writers' own
// per-range models (std::map), so every acknowledged commit is present
// and nothing else is.
#include <unistd.h>

#include <array>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace pdtstore;

constexpr int kPayload = 4;
constexpr int kOpsPerTxn = 8;
constexpr int64_t kRangeSpan = int64_t{1} << 40;  // keys per writer range
const char kTable[] = "ingest";
constexpr int kReopens = 10;

using Row = std::array<int64_t, kPayload>;

std::shared_ptr<const Schema> IngestSchema() {
  std::vector<ColumnDef> cols = {{"k", TypeId::kInt64}};
  for (int c = 0; c < kPayload; ++c) {
    cols.push_back({"v" + std::to_string(c), TypeId::kInt64});
  }
  return std::make_shared<const Schema>(std::move(*Schema::Make(cols, {0})));
}

struct Op {
  enum Kind { kInsert, kDelete, kModify } kind;
  int64_t key;
  Row row;      // kInsert
  int col = 0;  // kModify
  int64_t value = 0;
};

// One writer: its key range, its model of that range and its timings.
struct Writer {
  int64_t base = 0;
  int64_t span = 0;  // keys [base, base + span)
  uint64_t rng = 0;
  std::map<int64_t, Row> model;
  uint64_t commits = 0;
  uint64_t failed = 0;
  std::vector<double> latency_ms, begin_us, build_us, commit_us;

  uint64_t Next() { return Mix(rng++); }

  // Eight operations on distinct keys, valid against the model.
  std::vector<Op> MakeTxn() {
    std::vector<Op> ops;
    auto used = [&](int64_t k) {
      for (const Op& o : ops) {
        if (o.key == k) return true;
      }
      return false;
    };
    while (ops.size() < kOpsPerTxn) {
      const uint64_t r = Next();
      const int64_t probe = base + static_cast<int64_t>(Next() % span);
      Op op;
      op.kind = static_cast<Op::Kind>(r % 3);
      if (op.kind == Op::kInsert) {
        if (model.count(probe) || used(probe)) continue;
        op.key = probe;
        for (int c = 0; c < kPayload; ++c) {
          op.row[c] = static_cast<int64_t>(Next() & 0xffffff);
        }
      } else {
        auto it = model.lower_bound(probe);
        if (it == model.end()) it = model.begin();
        if (it == model.end() || used(it->first)) continue;
        op.key = it->first;
        op.col = static_cast<int>((r >> 8) % kPayload);
        op.value = static_cast<int64_t>(Next() & 0xffffff);
      }
      ops.push_back(op);
    }
    return ops;
  }

  void Apply(const std::vector<Op>& ops) {
    for (const Op& o : ops) {
      if (o.kind == Op::kInsert) {
        model[o.key] = o.row;
      } else if (o.kind == Op::kDelete) {
        model.erase(o.key);
      } else {
        model[o.key][o.col] = o.value;
      }
    }
  }
};

struct Shared {
  std::string dir;
  std::unique_ptr<Database> db;
  TxnManager* mgr = nullptr;
  Gate gate;
  std::atomic<uint64_t> commits{0};
  uint64_t save_every = 0;
  std::mutex save_mu;  // guards the Save accounting below
  std::vector<double> save_s, save_written_mb, quiesce_ms;
  // (commits so far, time) at the end of every Save: the chunks between
  // them give the commit rates whose median is reported.
  std::vector<std::pair<uint64_t, int64_t>> save_marks;
  uint64_t save_pool_fetches = 0;
  uint64_t retired_syncs = 0;  // fsyncs of WAL segments Save replaced
  Status save_error = Status::OK();
};

uint64_t PoolFetches(const Database& db) {
  const IoStats io = db.io_stats();
  return io.hits + io.chunks_read;
}

// The quiet point: wait until no transaction is in flight, then Save.
void QuietPointSave(Shared* s, uint64_t commits_so_far) {
  ScopedSpan span("db.save");
  const int64_t wait_ns = s->gate.lock();
  const uint64_t written0 = WrittenBytes();
  const uint64_t fetches0 = PoolFetches(*s->db);
  const uint64_t syncs = s->mgr->GetStats().wal_syncs;
  const int64_t t0 = NowNs();
  Status st = s->db->Save();
  const double secs = SecondsSince(t0);
  const uint64_t written = WrittenBytes() - written0;
  const uint64_t fetches = PoolFetches(*s->db) - fetches0;
  s->gate.unlock();
  std::lock_guard<std::mutex> l(s->save_mu);
  if (!st.ok() && s->save_error.ok()) s->save_error = st;
  s->save_s.push_back(secs);
  s->save_written_mb.push_back(static_cast<double>(written) / 1e6);
  s->quiesce_ms.push_back(static_cast<double>(wait_ns) / 1e6);
  s->save_pool_fetches += fetches;
  s->retired_syncs += syncs;
  s->save_marks.push_back({commits_so_far, NowNs()});
}

// WAL fsyncs so far, across the segments Save replaced.
uint64_t WalSyncs(Shared* s) {
  const uint64_t current = s->mgr->GetStats().wal_syncs;
  std::lock_guard<std::mutex> l(s->save_mu);
  return s->retired_syncs + current;
}

Status RunTxn(Shared* s, Writer* w, const std::vector<Op>& ops) {
  ScopedSpan span("txn");
  const int64_t t0 = NowNs();
  s->gate.lock_shared();
  const int64_t tb = NowNs();
  auto txn = s->mgr->Begin();
  const int64_t tc = NowNs();
  Status st = Status::OK();
  for (const Op& o : ops) {
    if (o.kind == Op::kInsert) {
      Tuple t = {Value(o.key)};
      for (int c = 0; c < kPayload; ++c) t.emplace_back(o.row[c]);
      st = txn->Insert(t);
    } else if (o.kind == Op::kDelete) {
      st = txn->DeleteByKey({Value(o.key)});
    } else {
      st = txn->ModifyByKey({Value(o.key)},
                            static_cast<ColumnId>(o.col + 1), Value(o.value));
    }
    if (!st.ok()) break;
  }
  const int64_t td = NowNs();
  if (st.ok()) {
    st = txn->Commit();
  } else {
    txn->Abort();
  }
  const int64_t te = NowNs();
  s->gate.unlock_shared();
  if (!st.ok()) return st;
  w->latency_ms.push_back(static_cast<double>(te - t0) / 1e6);
  w->begin_us.push_back(static_cast<double>(tc - tb) / 1e3);
  w->build_us.push_back(static_cast<double>(td - tc) / 1e3);
  w->commit_us.push_back(static_cast<double>(te - td) / 1e3);
  return Status::OK();
}

// Runs every writer on its own thread for exactly `txns_each`
// transactions; with `saves`, every save_every-th commit overall runs a
// quiet-point Save.
void RunWriters(Shared* s, std::vector<Writer>* writers, uint64_t txns_each,
                bool saves) {
  std::vector<std::thread> threads;
  for (Writer& w : *writers) {
    threads.emplace_back([s, &w, txns_each, saves] {
      for (uint64_t i = 0; i < txns_each; ++i) {
        const std::vector<Op> ops = w.MakeTxn();
        Status st = RunTxn(s, &w, ops);
        if (!st.ok()) {
          std::fprintf(stderr, "commit failed: %s\n", st.ToString().c_str());
          ++w.failed;
          continue;
        }
        w.Apply(ops);
        ++w.commits;
        const uint64_t n = s->commits.fetch_add(1) + 1;
        if (saves && n % s->save_every == 0) QuietPointSave(s, n);
      }
    });
  }
  for (auto& t : threads) t.join();
}

std::vector<double> Gather(const std::vector<Writer>& ws,
                           std::vector<double> Writer::*field) {
  std::vector<double> all;
  for (const Writer& w : ws) {
    all.insert(all.end(), (w.*field).begin(), (w.*field).end());
  }
  return all;
}

void ClearTimings(std::vector<Writer>* ws) {
  for (Writer& w : *ws) {
    w.commits = 0;
    w.latency_ms.clear();
    w.begin_us.clear();
    w.build_us.clear();
    w.commit_us.clear();
  }
}

uint64_t Commits(const std::vector<Writer>& ws) {
  uint64_t n = 0;
  for (const Writer& w : ws) n += w.commits;
  return n;
}

// Trimmed mean commit rate of the chunks between consecutive Saves since
// save_marks[marks0], the first chunk starting at (commits0, t0).
double ChunkRate(const Shared& s, size_t marks0, uint64_t commits0,
                       int64_t t0) {
  std::vector<double> rates;
  std::pair<uint64_t, int64_t> prev = {commits0, t0};
  for (size_t i = marks0; i < s.save_marks.size(); ++i) {
    const auto& m = s.save_marks[i];
    rates.push_back(static_cast<double>(m.first - prev.first) /
                    (static_cast<double>(m.second - prev.second) / 1e9));
    prev = m;
  }
  return TrimmedMean(rates);
}

uint64_t WalFileBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.path().filename().string().rfind("wal.", 0) == 0) {
      bytes += e.file_size(ec);
    }
  }
  return bytes;
}

// A table holding the writers' models as loaded rows (no delta): the
// layer probe's clean copy.
StatusOr<std::unique_ptr<Table>> ModelTable(const std::vector<Writer>& ws) {
  std::vector<ColumnVector> cols(kPayload + 1, ColumnVector(TypeId::kInt64));
  std::map<int64_t, Row> all;
  for (const Writer& w : ws) all.insert(w.model.begin(), w.model.end());
  for (const auto& [key, row] : all) {
    cols[0].ints().push_back(key);
    for (int c = 0; c < kPayload; ++c) cols[c + 1].ints().push_back(row[c]);
  }
  auto t = std::make_unique<Table>("clean", IngestSchema(), TableOptions{});
  PDT_RETURN_NOT_OK(t->LoadColumns(std::move(cols)));
  return t;
}

// The reopened table must hold exactly the union of the writers' models.
void CheckAgainstModels(const Table& t, const std::vector<Writer>& ws,
                        Result* r) {
  std::map<int64_t, Row> expect;
  for (const Writer& w : ws) expect.insert(w.model.begin(), w.model.end());
  auto src = t.Scan({0, 1, 2, 3, 4});
  Batch b;
  auto it = expect.begin();
  uint64_t rows = 0, wrong = 0;
  while (true) {
    auto more = src->Next(&b, kDefaultBatchSize);
    if (!r->Check(more.ok(), "scan after reopen failed")) return;
    if (!*more) break;
    for (size_t i = 0; i < b.num_rows(); ++i, ++rows) {
      const int64_t key = b.column(0).ints_data()[i];
      bool same = it != expect.end() && it->first == key;
      for (int c = 0; same && c < kPayload; ++c) {
        same = b.column(c + 1).ints_data()[i] == it->second[c];
      }
      if (!same) ++wrong;
      if (it != expect.end()) ++it;
    }
  }
  r->Check(rows == expect.size() && wrong == 0,
           "reopened table differs from the writers' models (" +
               std::to_string(wrong) + " wrong rows, " +
               std::to_string(rows) + " vs " +
               std::to_string(expect.size()) + ")");
}

}  // namespace

void RunDurableIngest(const Args& a, int64_t start_ns, Result* r) {
  Shared s;
  s.dir = a.out_dir + "/durable-" + std::to_string(a.seed) + "-" +
          std::to_string(getpid());
  std::filesystem::remove_all(s.dir);
  const int64_t rows_per_writer = a.quick ? 2'000 : 50'000;
  s.save_every = a.quick ? 100 : 4'000;
  const uint64_t suffix_txns = a.quick ? 50 : 500;  // per writer
  // The timed phase is a fixed amount of work, sized to last about
  // --seconds on a 4-core box (~1250 commits/s per writer), so the count
  // of Saves, and with it the memory they leave behind, is the same in
  // every run.
  const uint64_t txns_each =
      static_cast<uint64_t>(a.seconds * (a.quick ? 250 : 1250));

  // Set-up: open, create, bulk-load every writer's starting rows, Save.
  std::vector<Writer> writers(a.nproc);
  std::vector<ColumnVector> cols(kPayload + 1, ColumnVector(TypeId::kInt64));
  for (int i = 0; i < a.nproc; ++i) {
    Writer& w = writers[i];
    w.base = i * kRangeSpan;
    w.span = 4 * rows_per_writer;
    w.rng = Mix(a.seed) ^ static_cast<uint64_t>(i) << 48;
    for (int64_t j = 0; j < rows_per_writer; ++j) {
      Row row;
      for (int c = 0; c < kPayload; ++c) {
        row[c] = static_cast<int64_t>(w.Next() & 0xffffff);
      }
      const int64_t key = w.base + 4 * j;
      w.model[key] = row;
      cols[0].ints().push_back(key);
      for (int c = 0; c < kPayload; ++c) cols[c + 1].ints().push_back(row[c]);
    }
  }
  auto db = Database::Open(s.dir);
  if (!r->Check(db.ok(), "cannot open " + s.dir)) return;
  s.db = std::move(*db);
  auto table = s.db->CreateTable(kTable, IngestSchema());
  if (!r->Check(table.ok() && (*table)->LoadColumns(std::move(cols)).ok() &&
                    s.db->Save().ok(),
                "creating the table failed")) {
    return;
  }
  auto mgr = s.db->Txn(kTable);
  if (!r->Check(mgr.ok(), "no transaction manager")) return;
  s.mgr = *mgr;
  const double setup_s = SecondsSince(start_ns);

  // Timed phase (the traced run first runs half of it untraced, as the
  // reference for the tracing overhead, then the other half traced).
  double untraced_commits_per_s = 0;
  if (a.trace) {
    Tracer::Get().SetRecording(false);
    const size_t marks0 = s.save_marks.size();
    const int64_t t0 = NowNs();
    RunWriters(&s, &writers, txns_each / 2, true);
    untraced_commits_per_s = ChunkRate(s, marks0, 0, t0);
    r->attempted += Commits(writers);
    ClearTimings(&writers);
    Tracer::Get().SetRecording(true);
  }
  const TxnManagerStats stats0 = s.mgr->GetStats();
  const uint64_t syncs0 = WalSyncs(&s);
  const uint64_t written0 = WrittenBytes();
  const uint64_t fetches0 = PoolFetches(*s.db);
  const uint64_t save_fetches0 = s.save_pool_fetches;
  const size_t saves0 = s.save_s.size();
  const size_t marks0 = s.save_marks.size();
  const uint64_t commits0 = s.commits.load();
  const int64_t t0 = NowNs();
  RunWriters(&s, &writers, a.trace ? txns_each / 2 : txns_each, true);
  const double commits_per_s = ChunkRate(s, marks0, commits0, t0);
  const uint64_t written = WrittenBytes() - written0;
  const uint64_t fetches = PoolFetches(*s.db) - fetches0 -
                           (s.save_pool_fetches - save_fetches0);
  const TxnManagerStats stats1 = s.mgr->GetStats();
  const uint64_t syncs = WalSyncs(&s) - syncs0;
  const double peak_rss = PeakRssMb();
  const uint64_t commits = Commits(writers);
  r->attempted += commits;
  for (const Writer& w : writers) r->failed += w.failed;
  r->attempted += r->failed;
  r->Check(r->failed == 0, "a commit failed");
  r->Check(s.save_error.ok(), "Save failed: " + s.save_error.ToString());
  r->Check(s.save_s.size() > saves0 || a.quick,
           "no Save ran in the timed phase");
  const std::vector<double> begin_us = Gather(writers, &Writer::begin_us);
  const std::vector<double> build_us = Gather(writers, &Writer::build_us);
  const std::vector<double> commit_us = Gather(writers, &Writer::commit_us);

  // A checkpoint, then a fixed WAL suffix, then close and reopen.
  QuietPointSave(&s, s.commits.load());
  RunWriters(&s, &writers, suffix_txns, false);
  for (const Writer& w : writers) {
    r->Check(w.failed == 0, "a commit of the WAL suffix failed");
  }
  const uint64_t wal_bytes = WalFileBytes(s.dir);
  s.mgr = nullptr;
  s.db.reset();
  // Reopening changes nothing on disk (no commit in between), so every
  // reopen replays the same suffix; the median of a few is reported.
  std::vector<double> recovery_s;
  for (int i = 0; i < (a.quick ? 1 : kReopens); ++i) {
    ScopedPin pin(i);  // rotate through the CPUs (see ScopedPin)
    const int64_t open0 = NowNs();
    auto reopened = Database::Open(s.dir);
    recovery_s.push_back(SecondsSince(open0));
    if (!r->Check(reopened.ok() && !(*reopened)->read_only(),
                  "reopen failed or degraded to read-only")) {
      break;
    }
    if (i > 0) continue;
    auto t = (*reopened)->GetTable(kTable);
    if (r->Check(t.ok(), "table missing after reopen")) {
      CheckAgainstModels(**t, writers, r);
    }
  }

  const double ops = static_cast<double>(commits) * kOpsPerTxn;
  if (!a.trace) {
    std::filesystem::remove_all(s.dir);
    r->Metric("setup_s", setup_s, "s");
    r->Metric("peak_rss_mb", peak_rss, "MB");
    std::vector<const std::vector<double>*> latency;
    for (const Writer& w : writers) latency.push_back(&w.latency_ms);
    r->Metric("op_ms", Percentile(Gather(writers, &Writer::latency_ms), 0.5),
              "ms");
    // Slices of ~6000 commits: a disk hiccup moves one of ten.
    r->Metric("slow_op_ms", SliceP99(latency, 10), "ms");
    r->Metric("rate_per_s", commits_per_s, "1/s");
    r->Metric("io_bytes", static_cast<double>(written) / ops, "B");
    return;
  }
  r->Metric("trace.overhead_share",
            untraced_commits_per_s / commits_per_s - 1.0, "share");
  r->Metric("db.checkpoint_ms", Median(s.save_s) * 1e3, "ms");
  {
    // The probe reads the table as recovery left it: the last Save's
    // image with the WAL suffix replayed into its delta.
    auto reopened = Database::Open(s.dir);
    auto live = reopened.ok() ? (*reopened)->GetTable(kTable)
                              : StatusOr<Table*>(reopened.status());
    auto clean = ModelTable(writers);
    if (r->Check(live.ok() && clean.ok(), "probe tables failed")) {
      ReportLayerProbe(a, {*live, clean->get(), {0, 1, 2, 3, 4}}, r);
    }
  }
  std::filesystem::remove_all(s.dir);
  r->Detail("db.recovery_ms", Median(recovery_s) * 1e3, "ms");
  r->Detail("txn.begin_us", Median(begin_us), "us");
  r->Detail("txn.build_us", Median(build_us), "us");
  r->Detail("txn.commit_us", Median(commit_us), "us");
  r->Detail("storage.pool_fetches_per_op", static_cast<double>(fetches) / ops,
            "count");
  const double batches =
      static_cast<double>(stats1.fold_batches - stats0.fold_batches);
  const double folded =
      static_cast<double>(stats1.folded_records - stats0.folded_records);
  const double committed =
      static_cast<double>(stats1.committed - stats0.committed);
  r->Detail("txn.fold_batch_records", batches > 0 ? folded / batches : 0,
            "count");
  r->Detail("txn.lock_us_per_commit",
            static_cast<double>(stats1.commit_lock_ns - stats0.commit_lock_ns) /
                1e3 / committed,
            "us");
  r->Detail("txn.wal_syncs_per_commit",
            static_cast<double>(syncs) / committed,
            "count");
  r->Detail("db.save_written_mb", Median(s.save_written_mb), "MB");
  r->Detail("db.quiesce_wait_ms", Median(s.quiesce_ms), "ms");
  r->Detail("txn.wal_replay_mb", static_cast<double>(wal_bytes) / 1e6, "MB");
}

}  // namespace perfbench
