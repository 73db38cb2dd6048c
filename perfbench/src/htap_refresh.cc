// htap_refresh: one writer applies TPC-H refresh groups as cross-table
// transactions (orders + lineitem through one MultiTxnManager, on-disk
// WAL, group commit) while nproc-1 readers cycle Q1/Q6/Q12/Q14 at 1
// worker each over the same tables. Every K committed groups the writer
// induces a quiet point and checkpoints both tables (no timer starts
// background work). Closed loops: the writer commits a group, then the
// next; each reader runs a query, then the next.
//
// The refresh streams are applied forward, then in reverse (inserting
// what the forward pass deleted and deleting what it inserted), and so
// on, so the load never runs out and every stream boundary is balanced.
//
// End-to-end metrics: op_ms and slow_op_ms are the readers' p50
// and p99 query latency, rate_per_s the rows the writer changes per
// second, io_bytes the bytes written per row changed.
//
// Checks: orders returns to its starting count; lineitem equals its
// start plus inserted lines minus deleted lines (the line counts come
// from a scan of the starting table and the applied streams, kept in a
// std::map); every key a stream touched is visible exactly when the
// model says so; both PDTs pass CheckInvariants; replaying the WAL into
// freshly generated tables gives the live tables' digests.
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "db/database.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_schema.h"
#include "tpch/update_stream.h"
#include "txn/multi_txn.h"
#include "txn/wal.h"
#include "util/file.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace pdtstore;
using tpch::GeneratedOrder;
using tpch::RefreshGroup;
using tpch::UpdateStream;

const int kReaderQueries[] = {1, 6, 12, 14};
constexpr size_t kOrdersPerGroup = 4;

// The lineitem columns the readers' queries read, the projection the
// layer probe scans.
std::vector<ColumnId> ReaderColumns() {
  return {tpch::kLOrderkey,     tpch::kLPartkey,     tpch::kLQuantity,
          tpch::kLExtendedprice, tpch::kLDiscount,    tpch::kLTax,
          tpch::kLReturnflag,    tpch::kLLinestatus,  tpch::kLShipdate,
          tpch::kLCommitdate,    tpch::kLReceiptdate, tpch::kLShipmode};
}

// One refresh group ready to apply: its stream and its slice.
struct Job {
  const UpdateStream* stream;
  RefreshGroup group;
  bool last_of_stream;
};

// What the writer side measured.
struct WriterStats {
  uint64_t groups = 0;
  uint64_t rows = 0;
  uint64_t conflict_retries = 0;
  // Writer time for the whole fixed load, checkpoint stalls included.
  // (The rate swings between checkpoints as the Read-PDT grows, so the
  // whole-load rate is steadier than a median over stretches.)
  double wall_s = 0;
  std::vector<double> build_ms, commit_ms, checkpoint_s, stall_ms;
  size_t write_peak = 0, read_peak = 0;
};

struct Shared {
  std::unique_ptr<Database> db;
  tpch::TpchTables t;
  Wal wal;
  std::unique_ptr<WalWriter> writer;
  std::unique_ptr<MultiTxnManager> mgr;
  Gate gate;
  std::vector<Job> jobs;  // one forward and one reverse cycle
  size_t next_job = 0;
  uint64_t groups_total = 0;
  uint64_t checkpoint_every = 0;
  // Model: line count of every order present (start + applied groups).
  std::unordered_map<int64_t, int64_t> lines_of;
  std::map<int64_t, bool> touched;  // orderkey -> present
  int64_t expect_lineitem = 0;
  uint64_t start_orders = 0;
};

Status ApplyGroup(Shared* s, const Job& job, WriterStats* w) {
  const UpdateStream& stream = *job.stream;
  const RefreshGroup& g = job.group;
  const std::string orders = s->t.orders->name();
  const std::string lineitem = s->t.lineitem->name();
  for (int attempt = 0;; ++attempt) {
    ScopedSpan span("txn.group");
    const int64_t t0 = NowNs();
    auto txn = s->mgr->Begin();
    uint64_t rows = 0;
    for (size_t i = g.begin; i < g.end; ++i) {
      const GeneratedOrder& o = g.inserts ? stream.inserts[i]
                                          : stream.deletes[i];
      if (g.inserts) {
        PDT_RETURN_NOT_OK(txn->Insert(orders, o.order));
        for (const Tuple& l : o.lineitems) {
          PDT_RETURN_NOT_OK(txn->Insert(lineitem, l));
        }
      } else {
        PDT_RETURN_NOT_OK(txn->DeleteByKey(
            orders, {o.order[tpch::kOOrderdate], o.order[tpch::kOOrderkey]}));
        for (const Tuple& l : o.lineitems) {
          PDT_RETURN_NOT_OK(txn->DeleteByKey(
              lineitem, {l[tpch::kLOrderkey], l[tpch::kLLinenumber]}));
        }
      }
      rows += 1 + o.lineitems.size();
    }
    const int64_t t1 = NowNs();
    Status st = txn->Commit();
    const int64_t t2 = NowNs();
    if (st.code() == StatusCode::kConflict && attempt < 8) {
      ++w->conflict_retries;
      continue;
    }
    PDT_RETURN_NOT_OK(st);
    w->build_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    w->commit_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    w->rows += rows;
    ++w->groups;
    break;
  }
  // Model update (the writer is the only mutator).
  for (size_t i = g.begin; i < g.end; ++i) {
    const GeneratedOrder& o = g.inserts ? stream.inserts[i]
                                        : stream.deletes[i];
    const int64_t key = o.order[tpch::kOOrderkey].AsInt64();
    if (g.inserts) {
      s->lines_of[key] = static_cast<int64_t>(o.lineitems.size());
      s->expect_lineitem += static_cast<int64_t>(o.lineitems.size());
    } else {
      s->expect_lineitem -= s->lines_of[key];
      s->lines_of.erase(key);
    }
    s->touched[key] = g.inserts;
  }
  return Status::OK();
}

// The quiet point the writer induces every K groups: wait for the
// readers to leave, fold the Write-PDTs, checkpoint both tables.
Status QuietPointCheckpoint(Shared* s, WriterStats* w) {
  ScopedSpan span("db.checkpoint");
  const int64_t t0 = NowNs();
  s->gate.lock();
  Status st = s->mgr->PropagateAndMaybeCheckpoint();
  double checkpoint_s = 0;
  for (Table* t : {s->t.orders, s->t.lineitem}) {
    if (!st.ok()) break;
    const int64_t c0 = NowNs();
    st = t->Checkpoint();
    checkpoint_s += SecondsSince(c0);
    if (st.ok()) s->wal.LogCheckpoint(t->name());
  }
  s->gate.unlock();
  w->checkpoint_s.push_back(checkpoint_s);
  w->stall_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  return st;
}

struct ReaderStats {
  std::vector<double> ms;                 // in the order they ran
  std::map<int, std::vector<double>> by_query;
  uint64_t failed = 0;
};

// One mixed phase: the writer applies whole streams until it has
// committed `groups` groups and the readers have run `min_queries`
// queries; readers run until the writer stops.
Status RunMixed(Shared* s, int readers, uint64_t groups, uint64_t min_queries,
                bool sample_peaks, WriterStats* w,
                std::vector<ReaderStats>* rs) {
  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> queries{0};
  rs->assign(readers, ReaderStats{});
  std::vector<std::thread> threads;
  for (int i = 0; i < readers; ++i) {
    threads.emplace_back([&, i] {
      tpch::QueryOptions qo;
      size_t qi = static_cast<size_t>(i);
      while (!writer_done.load()) {
        const int q = kReaderQueries[qi++ % 4];
        ScopedSpan span("tpch.reader_query");
        const int64_t t0 = NowNs();
        s->gate.lock_shared();
        auto res = tpch::RunTpchQuery(q, s->t, qo);
        s->gate.unlock_shared();
        if (!res.ok()) {
          ++(*rs)[i].failed;
          continue;
        }
        const double ms = static_cast<double>(NowNs() - t0) / 1e6;
        (*rs)[i].ms.push_back(ms);
        (*rs)[i].by_query[q].push_back(ms);
        queries.fetch_add(1);
      }
    });
  }
  Status err = Status::OK();
  const int64_t start = NowNs();
  while (true) {
    const Job& job = s->jobs[s->next_job];
    s->next_job = (s->next_job + 1) % s->jobs.size();
    s->gate.lock_shared();
    err = ApplyGroup(s, job, w);
    s->gate.unlock_shared();
    if (!err.ok()) break;
    if (sample_peaks) {
      const MultiTxnStats st = s->mgr->GetStats();
      for (const MultiTxnTableStats& t : st.tables) {
        w->write_peak = std::max(w->write_peak, t.write_pdt_entries);
        w->read_peak = std::max(w->read_peak, t.read_pdt_entries);
      }
    }
    if (++s->groups_total % s->checkpoint_every == 0) {
      err = QuietPointCheckpoint(s, w);
      if (!err.ok()) break;
    }
    if (job.last_of_stream && w->groups >= groups &&
        queries.load() >= min_queries) {
      break;
    }
  }
  w->wall_s = SecondsSince(start);
  writer_done.store(true);
  for (auto& t : threads) t.join();
  return err;
}

// Count of lineitem rows per orderkey, from a scan.
StatusOr<std::unordered_map<int64_t, int64_t>> LinesPerOrder(
    const Table& lineitem) {
  std::unordered_map<int64_t, int64_t> lines;
  auto src = lineitem.Scan({tpch::kLOrderkey});
  Batch b;
  while (true) {
    PDT_ASSIGN_OR_RETURN(bool more, src->Next(&b, kDefaultBatchSize));
    if (!more) return lines;
    const int64_t* k = b.column(0).ints_data();
    for (size_t i = 0; i < b.num_rows(); ++i) ++lines[k[i]];
  }
}

void CheckFinalState(Shared* s, const tpch::GenOptions& gen, Result* r) {
  if (!r->Check(s->mgr->PropagateAndMaybeCheckpoint().ok(),
                "final propagate failed")) {
    return;
  }
  for (const Table* t : {s->t.orders, s->t.lineitem}) {
    Status inv = t->pdt()->CheckInvariants();
    r->Check(inv.ok(), t->name() + " PDT invariants: " + inv.ToString());
  }
  r->Check(s->t.orders->RowCount() == s->start_orders,
           "orders did not return to its starting count");
  r->Check(static_cast<int64_t>(s->t.lineitem->RowCount()) ==
               s->expect_lineitem,
           "lineitem differs from start + inserted - deleted lines");
  auto live_lines = LinesPerOrder(*s->t.lineitem);
  if (!r->Check(live_lines.ok(), "lineitem scan failed")) return;
  std::unordered_map<int64_t, bool> live_orders;
  {
    auto src = s->t.orders->Scan({tpch::kOOrderkey});
    Batch b;
    while (true) {
      auto more = src->Next(&b, kDefaultBatchSize);
      if (!r->Check(more.ok(), "orders scan failed") || !*more) break;
      const int64_t* k = b.column(0).ints_data();
      for (size_t i = 0; i < b.num_rows(); ++i) live_orders[k[i]] = true;
    }
  }
  size_t wrong = 0;
  for (const auto& [key, present] : s->touched) {
    const bool order_seen = live_orders.count(key) > 0;
    auto it = live_lines->find(key);
    const int64_t lines = it == live_lines->end() ? 0 : it->second;
    const int64_t expect_lines = present ? s->lines_of[key] : 0;
    if (order_seen != present || lines != expect_lines) ++wrong;
  }
  r->Check(wrong == 0, std::to_string(wrong) +
                           " refreshed keys visible when deleted or missing "
                           "when inserted");

  // Replay the WAL into freshly generated tables.
  Database db2;
  auto t2 = tpch::GenerateInto(&db2, gen, TableOptions{});
  if (!r->Check(t2.ok(), "regenerating tables for replay failed")) return;
  MultiTxnManager mgr2({t2->orders, t2->lineitem}, nullptr);
  if (!r->Check(mgr2.Recover(s->wal).ok() &&
                    mgr2.PropagateAndMaybeCheckpoint().ok(),
                "WAL replay failed")) {
    return;
  }
  for (auto [live, replayed] : {std::pair{s->t.orders, t2->orders},
                                std::pair{s->t.lineitem, t2->lineitem}}) {
    auto a = DigestTable(*live);
    auto b = DigestTable(*replayed);
    std::string why = "scan failed";
    const bool same = a.ok() && b.ok() && a->Matches(*b, 1e-9, &why);
    r->Check(same, live->name() + " differs from its WAL replay: " + why);
  }
}

}  // namespace

void RunHtapRefresh(const Args& a, int64_t start_ns, Result* r) {
  Shared s;
  tpch::GenOptions gen;
  gen.scale_factor = a.quick ? 0.005 : 0.02;
  gen.seed = a.seed;
  const int num_streams = a.quick ? 4 : 24;
  auto streams = tpch::MakeUpdateStreams(gen, num_streams, 0.001);
  s.db = std::make_unique<Database>();
  auto tables = tpch::GenerateInto(s.db.get(), gen, TableOptions{});
  if (!r->Check(streams.ok() && tables.ok(), "TPC-H set-up failed")) return;
  s.t = *tables;
  // Forward and reverse cycles of every stream.
  std::vector<UpdateStream> reversed;
  for (const UpdateStream& st : *streams) {
    reversed.push_back(UpdateStream{st.deletes, st.inserts});
  }
  for (const auto* list : {&*streams, &reversed}) {
    for (const UpdateStream& st : *list) {
      auto groups = tpch::PlanRefreshGroups(st, kOrdersPerGroup);
      for (size_t i = 0; i < groups.size(); ++i) {
        s.jobs.push_back({&st, groups[i], i + 1 == groups.size()});
      }
    }
  }
  const std::string wal_path = a.out_dir + "/htap-" +
                               std::to_string(a.seed) + "-" +
                               std::to_string(getpid()) + ".wal";
  auto writer = WalWriter::Open(FileSystem::Default(), wal_path, true);
  if (!r->Check(writer.ok(), "cannot open " + wal_path)) return;
  s.writer = std::move(*writer);
  TxnManagerOptions topts;
  topts.write_pdt_max_entries = 1024;
  topts.merge_chunk_entries = 2048;
  topts.group_commit = true;
  s.mgr = std::make_unique<MultiTxnManager>(
      std::vector<Table*>{s.t.orders, s.t.lineitem}, &s.wal, topts);
  s.mgr->SetWalWriter(s.writer.get());
  // Three checkpoints in a 12 s run: each stalls every reader once, and
  // those few queries stay above the p99 of the ~5000 a run holds.
  s.checkpoint_every = a.quick ? 40 : 8000;
  s.start_orders = s.t.orders->RowCount();
  s.expect_lineitem = static_cast<int64_t>(s.t.lineitem->RowCount());
  auto lines = LinesPerOrder(*s.t.lineitem);
  if (!r->Check(lines.ok(), "lineitem scan failed")) return;
  s.lines_of = std::move(*lines);
  const double setup_s = SecondsSince(start_ns);

  // Warm the readers' chunk cache.
  for (int q : kReaderQueries) (void)tpch::RunTpchQuery(q, s.t);

  const int readers = std::max(1, a.nproc - 1);
  const uint64_t min_queries = a.quick ? 8 : 1000;
  // The timed phase is a fixed amount of work, sized to last about
  // --seconds on a 4-core box (~2000 groups/s), so every run induces the
  // same number of checkpoints.
  const uint64_t groups =
      static_cast<uint64_t>(a.seconds * (a.quick ? 100 : 2000));
  WriterStats w, wu;
  std::vector<ReaderStats> rs, rsu;
  Status st = Status::OK();
  if (a.trace) {
    Tracer::Get().SetRecording(false);
    st = RunMixed(&s, readers, groups / 2, min_queries / 2, false, &wu,
                  &rsu);
    Tracer::Get().SetRecording(true);
    if (st.ok()) {
      st = RunMixed(&s, readers, groups / 2, min_queries / 2, true, &w,
                    &rs);
    }
  }
  if (a.trace && st.ok()) {
    // The timed phase ends right after a quiet-point checkpoint; a few
    // more refresh groups (whole streams, no readers, not timed) leave
    // a delta for the layer probe to read through.
    WriterStats extra;
    std::vector<ReaderStats> none;
    st = RunMixed(&s, 0, a.quick ? 10 : 1000, 0, false, &extra, &none);
  }
  uint64_t written = 0;
  if (!a.trace) {
    const uint64_t written0 = WrittenBytes();
    st = RunMixed(&s, readers, groups, min_queries, false, &w, &rs);
    written = WrittenBytes() - written0;
  }
  const double peak_rss = PeakRssMb();
  std::vector<double> all;
  std::vector<const std::vector<double>*> series;
  for (const auto* list : {&rs, &rsu}) {
    for (const ReaderStats& x : *list) {
      r->failed += x.failed;
      r->attempted += x.failed + x.ms.size();
      if (list != &rs) continue;
      all.insert(all.end(), x.ms.begin(), x.ms.end());
      series.push_back(&x.ms);
    }
  }
  r->attempted += w.groups + wu.groups;
  r->Check(st.ok(), "writer failed: " + st.ToString());
  r->Check(r->failed == 0, "a reader query failed");
  r->Check(w.groups + wu.groups < s.checkpoint_every ||
               !w.checkpoint_s.empty() || !wu.checkpoint_s.empty(),
           "no checkpoint ran in the timed phase");
  const MultiTxnStats fin = s.mgr->GetStats();
  CheckFinalState(&s, gen, r);
  std::error_code ec;
  std::filesystem::remove(wal_path, ec);

  const double rows_per_s = static_cast<double>(w.rows) / w.wall_s;
  if (!a.trace) {
    r->Metric("setup_s", setup_s, "s");
    r->Metric("peak_rss_mb", peak_rss, "MB");
    r->Metric("op_ms", Percentile(all, 0.5), "ms");
    // Five slices of ~1000 queries; each holds at most one checkpoint.
    r->Metric("slow_op_ms", SliceP99(series, 5), "ms");
    r->Metric("rate_per_s", rows_per_s, "1/s");
    r->Metric("io_bytes",
              static_cast<double>(written) / static_cast<double>(w.rows),
              "B");
    return;
  }
  const double untraced_rows_per_s = static_cast<double>(wu.rows) / wu.wall_s;
  r->Metric("trace.overhead_share", untraced_rows_per_s / rows_per_s - 1.0,
            "share");
  std::vector<double> checkpoint_s = w.checkpoint_s;
  checkpoint_s.insert(checkpoint_s.end(), wu.checkpoint_s.begin(),
                      wu.checkpoint_s.end());
  r->Metric("db.checkpoint_ms", Median(checkpoint_s) * 1e3, "ms");
  {
    // A copy of the starting tables (generated again from the same
    // seed), holding no updates, for the probe's clean scan.
    Database clean_db;
    auto clean = tpch::GenerateInto(&clean_db, gen, TableOptions{});
    if (r->Check(clean.ok(), "generating the clean copy failed")) {
      ReportLayerProbe(a, {s.t.lineitem, clean->lineitem, ReaderColumns()},
                       r);
    }
  }
  r->Detail("txn.group_build_ms", Median(w.build_ms), "ms");
  r->Detail("txn.group_commit_ms", Median(w.commit_ms), "ms");
  r->Detail("txn.wal_syncs_per_commit",
            static_cast<double>(s.writer->sync_count()) /
                static_cast<double>(w.groups + wu.groups),
            "count");
  r->Detail("txn.wal_bytes_per_row",
            static_cast<double>(s.wal.SizeBytes()) /
                static_cast<double>(w.rows + wu.rows),
            "B");
  r->Detail("txn.conflict_retries",
            static_cast<double>(w.conflict_retries + wu.conflict_retries),
            "count");
  r->Detail("pdt.write_peak_entries", static_cast<double>(w.write_peak),
            "count");
  r->Detail("pdt.read_peak_entries", static_cast<double>(w.read_peak),
            "count");
  double merges = 0;
  for (const MultiTxnTableStats& t : fin.tables) {
    merges += static_cast<double>(t.background_merges);
  }
  r->Detail("txn.background_merges", merges, "count");
  for (int q : kReaderQueries) {
    std::vector<double> v;
    for (const ReaderStats& x : rs) {
      auto it = x.by_query.find(q);
      if (it != x.by_query.end()) {
        v.insert(v.end(), it->second.begin(), it->second.end());
      }
    }
    char name[40];
    std::snprintf(name, sizeof(name), "tpch.reader_q%02d_p50_ms", q);
    r->Detail(name, Percentile(v, 0.5), "ms");
  }
  std::vector<double> stalls = w.stall_ms;
  stalls.insert(stalls.end(), wu.stall_ms.begin(), wu.stall_ms.end());
  r->Detail("db.checkpoint_stall_ms", Median(stalls), "ms");
}

}  // namespace perfbench
