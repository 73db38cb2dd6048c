// tpch_refreshed: the 22 TPC-H kernels on tables refreshed through the
// PDT by two 0.1% refresh streams (the paper's Fig. 19 load). One
// client runs them hot at 1 worker and at nproc workers, then cold at
// 1 worker with Database::DropCaches before each query.
//
// End-to-end metrics: op_ms is the hot query set at 1 worker,
// slow_op_ms the cold one, rate_per_s the queries per second of the hot
// set at nproc workers (each set timed as the sum of its per-query
// trimmed means), io_bytes the encoded bytes one cold set fetches.
//
// Checks, computed apart from the merge they check:
//  * lineitem and orders on the PDT and VDT copies equal a reference
//    digest built from the clean copy's rows plus the streams' inserts
//    minus their deletes (the deleted rows are found through a std::map
//    keyed by sort key while scanning the clean copy);
//  * every query digest agrees between PDT and VDT, between 1 and
//    nproc workers and between hot and cold runs; Q2, Q11 and Q16
//    (which read no updated table) also agree with the clean copy;
//  * per query, the PDT copy fetches no more cold bytes than the VDT.
#include <array>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "exec/filter.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/project.h"
#include "exec/sort.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_schema.h"
#include "tpch/update_stream.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace pdtstore;
using tpch::QueryResult;

constexpr int kQueries = 22;

struct Copy {
  std::unique_ptr<Database> db;
  tpch::TpchTables t;
};

StatusOr<Copy> BuildCopy(const tpch::GenOptions& gen, DeltaBackend backend,
                         const std::vector<tpch::UpdateStream>* streams) {
  Copy c;
  c.db = std::make_unique<Database>();
  TableOptions opts;
  opts.backend = backend;
  PDT_ASSIGN_OR_RETURN(c.t, tpch::GenerateInto(c.db.get(), gen, opts));
  if (streams != nullptr) {
    for (const tpch::UpdateStream& s : *streams) {
      PDT_RETURN_NOT_OK(tpch::ApplyUpdateStream(s, &c.t));
    }
  }
  return c;
}

const char* QuerySpanName(int q) {
  static const std::array<std::string, kQueries + 1> names = [] {
    std::array<std::string, kQueries + 1> n;
    for (int i = 1; i <= kQueries; ++i) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "tpch.q%02d", i);
      n[i] = buf;
    }
    return n;
  }();
  return names[q].c_str();
}

// One pass over the 22 queries.
struct Pass {
  double seconds = 0;
  std::array<double, kQueries + 1> ms{};
  std::array<QueryResult, kQueries + 1> res{};
  std::array<uint64_t, kQueries + 1> bytes_read{};
  uint64_t bytes_skipped = 0;
  int failed = 0;
};

Pass RunPass(Copy* c, int threads, bool cold) {
  ScopedSpan pass_span(cold ? "tpch.cold_pass" : "tpch.hot_pass");
  Pass p;
  tpch::QueryOptions qo;
  qo.num_threads = threads;
  const int64_t pass_start = NowNs();
  for (int q = 1; q <= kQueries; ++q) {
    if (cold) {
      c->db->DropCaches();
      c->db->ResetIoStats();
    }
    ScopedSpan span(QuerySpanName(q));
    const int64_t t0 = NowNs();
    auto r = tpch::RunTpchQuery(q, c->t, qo);
    p.ms[q] = static_cast<double>(NowNs() - t0) / 1e6;
    if (r.ok()) {
      p.res[q] = *r;
    } else {
      std::fprintf(stderr, "q%d failed: %s\n", q,
                   r.status().ToString().c_str());
      ++p.failed;
    }
    if (cold) {
      const IoStats io = c->db->io_stats();
      p.bytes_read[q] = io.bytes_read;
      p.bytes_skipped += io.bytes_skipped;
    }
  }
  p.seconds = SecondsSince(pass_start);
  return p;
}

// The passes of the timed phase, by kind.
struct Passes {
  std::vector<Pass> t1, tn, cold;
};

// Repeats rounds of hot 1-worker, hot nproc-worker and cold passes,
// interleaved so that every kind samples the whole run (a slow stretch
// of the host then weighs on all three alike), for `budget_s` seconds
// and at least `min_rounds` rounds. A round is t1, tn, cold; the serial
// passes rotate through the CPUs (see ScopedPin).
Passes RunRounds(Copy* c, int nproc, double budget_s, int min_rounds,
                 Result* r) {
  Passes p;
  const int64_t start = NowNs();
  for (int round = 0; round < min_rounds || SecondsSince(start) < budget_s;
       ++round) {
    {
      ScopedPin pin(2 * round);
      p.t1.push_back(RunPass(c, 1, false));
    }
    p.tn.push_back(RunPass(c, nproc, false));
    ScopedPin pin(2 * round + 1);
    p.cold.push_back(RunPass(c, 1, true));
  }
  for (const auto* kind : {&p.t1, &p.tn, &p.cold}) {
    for (const Pass& pass : *kind) {
      r->attempted += kQueries;
      r->failed += pass.failed;
    }
  }
  return p;
}

double MedianSeconds(const std::vector<Pass>& passes) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(p.seconds);
  return Median(v);
}

// Time of the 22-query set as the sum of each query's trimmed mean over
// the passes (see TrimmedMean): a stall of the host that covers part of
// a pass then moves no query's figure.
double SetMs(const std::vector<Pass>& passes) {
  double sum = 0;
  for (int q = 1; q <= kQueries; ++q) {
    std::vector<double> v;
    for (const Pass& p : passes) v.push_back(p.ms[q]);
    sum += TrimmedMean(v);
  }
  return sum;
}

bool SameResult(const QueryResult& a, const QueryResult& b) {
  return a.rows == b.rows && Near(a.checksum, b.checksum, 1e-6);
}

// Reference digest of `clean_table` + inserted - deleted rows. `key_of`
// maps a full tuple to the sort-key pair the std::map is keyed by.
template <typename KeyOf>
StatusOr<ColumnDigest> ReferenceDigest(const Table& clean_table,
                                       const std::vector<Tuple>& inserted,
                                       const std::vector<Tuple>& deleted,
                                       KeyOf key_of, Result* r,
                                       const std::string& label) {
  std::map<std::pair<int64_t, int64_t>, bool> gone;
  for (const Tuple& t : deleted) gone[key_of(t)] = false;
  ColumnDigest ref(clean_table.schema().num_columns());
  std::vector<ColumnId> all;
  for (size_t c = 0; c < clean_table.schema().num_columns(); ++c) {
    all.push_back(static_cast<ColumnId>(c));
  }
  auto src = clean_table.Scan(all);
  Batch b;
  while (true) {
    PDT_ASSIGN_OR_RETURN(bool more, src->Next(&b, kDefaultBatchSize));
    if (!more) break;
    ref.AddBatch(b);
    for (size_t i = 0; i < b.num_rows(); ++i) {
      Tuple row = b.RowAsTuple(i);
      auto it = gone.find(key_of(row));
      if (it == gone.end()) continue;
      ref.AddTuple(row, -1);
      it->second = true;
    }
  }
  for (const auto& [key, found] : gone) {
    r->Check(found, label + ": a refresh delete names a row the clean "
                            "copy does not hold");
  }
  for (const Tuple& t : inserted) ref.AddTuple(t, +1);
  return ref;
}

void CheckTables(const Copy& clean, const Copy& pdt, const Copy& vdt,
                 const std::vector<tpch::UpdateStream>& streams, Result* r) {
  std::vector<Tuple> ins_l, del_l, ins_o, del_o;
  for (const tpch::UpdateStream& s : streams) {
    for (const tpch::GeneratedOrder& o : s.inserts) {
      ins_o.push_back(o.order);
      ins_l.insert(ins_l.end(), o.lineitems.begin(), o.lineitems.end());
    }
    for (const tpch::GeneratedOrder& o : s.deletes) {
      del_o.push_back(o.order);
      del_l.insert(del_l.end(), o.lineitems.begin(), o.lineitems.end());
    }
  }
  auto line_key = [](const Tuple& t) {
    return std::make_pair(t[tpch::kLOrderkey].AsInt64(),
                          t[tpch::kLLinenumber].AsInt64());
  };
  auto order_key = [](const Tuple& t) {
    return std::make_pair(t[tpch::kOOrderkey].AsInt64(), int64_t{0});
  };
  struct Case {
    const char* label;
    const Table* clean;
    const Table* pdt;
    const Table* vdt;
    const std::vector<Tuple>* ins;
    const std::vector<Tuple>* del;
    bool lineitem;
  };
  for (const Case& c :
       {Case{"lineitem", clean.t.lineitem, pdt.t.lineitem, vdt.t.lineitem,
             &ins_l, &del_l, true},
        Case{"orders", clean.t.orders, pdt.t.orders, vdt.t.orders, &ins_o,
             &del_o, false}}) {
    auto ref = c.lineitem
                   ? ReferenceDigest(*c.clean, *c.ins, *c.del, line_key, r,
                                     c.label)
                   : ReferenceDigest(*c.clean, *c.ins, *c.del, order_key, r,
                                     c.label);
    if (!r->Check(ref.ok(), std::string(c.label) + ": clean scan failed")) {
      continue;
    }
    for (const Table* t : {c.pdt, c.vdt}) {
      auto got = DigestTable(*t);
      std::string why;
      const std::string what =
          std::string(c.label) +
          (t == c.pdt ? " (PDT)" : " (VDT)") + " differs from reference: ";
      if (!r->Check(got.ok(), what + "scan failed")) continue;
      const bool same = got->Matches(*ref, 1e-9, &why);
      r->Check(same, what + why);
    }
  }
}

// ---------------------------------------------------------------------
// Traced-run layer experiments.
// ---------------------------------------------------------------------

using Src = std::unique_ptr<BatchSource>;

Src Timed(Src s, TimeCounter* c) {
  return std::make_unique<TimedSource>(std::move(s), c);
}

const std::vector<ColumnId>& Q1Columns() {
  static const std::vector<ColumnId> cols = {
      tpch::kLReturnflag, tpch::kLLinestatus, tpch::kLQuantity,
      tpch::kLExtendedprice, tpch::kLDiscount, tpch::kLTax,
      tpch::kLShipdate};
  return cols;
}

VecPredicate Q1Filter() {
  return Int64Between(6, tpch::kMinDate, tpch::DayNumber(1998, 9, 2));
}

std::vector<ColumnExpr> Q1Exprs() {
  return {ColumnRef(0),    ColumnRef(1),       ColumnRef(2), ColumnRef(3),
          Revenue(3, 4),   Charge(3, 4, 5),    ColumnRef(4)};
}

std::vector<AggSpec> Q1Aggs() {
  return {{AggKind::kSum, 2}, {AggKind::kSum, 3}, {AggKind::kSum, 4},
          {AggKind::kSum, 5}, {AggKind::kAvg, 2}, {AggKind::kAvg, 3},
          {AggKind::kAvg, 6}, {AggKind::kCount, 0}};
}

struct SelfTimes {
  double filter = 0, agg = 0, join_build = 0, join_probe = 0, sort = 0;
};

Status DrainStatus(BatchSource* s) { return DrainRows(s).status(); }

// Q1-, Q12- and Q18-shaped serial plans with a timing wrapper on every
// operator edge; an operator's self time is its inclusive time minus
// its inputs'. The join build is resolved explicitly so its time is
// separated from the probe's.
StatusOr<SelfTimes> MeasureSelfTimes(const tpch::TpchTables& t) {
  ScopedSpan span("exec.self_time_plans");
  SelfTimes st;
  {  // Q1 shape: scan -> filter -> project -> agg -> sort.
    TimeCounter scan, filt, proj, agg, sort;
    Src s = Timed(t.lineitem->Scan(Q1Columns()), &scan);
    s = Timed(std::make_unique<FilterNode>(std::move(s), Q1Filter()), &filt);
    s = Timed(std::make_unique<ProjectNode>(std::move(s), Q1Exprs()), &proj);
    s = Timed(std::make_unique<HashAggNode>(std::move(s),
                                            std::vector<size_t>{0, 1},
                                            Q1Aggs()),
              &agg);
    s = Timed(std::make_unique<SortNode>(std::move(s),
                                         std::vector<SortKey>{{0}, {1}}),
              &sort);
    PDT_RETURN_NOT_OK(DrainStatus(s.get()));
    st.filter += filt.ms() - scan.ms();
    st.agg += agg.ms() - proj.ms();
    st.sort += sort.ms() - agg.ms();
  }
  {  // Q12 shape: filtered lineitem probes an orders build, then agg.
    const int64_t lo = tpch::DayNumber(1994, 1, 1);
    const int64_t hi = tpch::DayNumber(1995, 1, 1) - 1;
    TimeCounter ls, lf, os, join, proj, agg;
    Src line = Timed(t.lineitem->Scan({tpch::kLOrderkey, tpch::kLShipmode,
                                       tpch::kLCommitdate,
                                       tpch::kLReceiptdate,
                                       tpch::kLShipdate}),
                     &ls);
    line = Timed(
        std::make_unique<FilterNode>(
            std::move(line),
            And({Or({StringEquals(1, "MAIL"), StringEquals(1, "SHIP")}),
                 [lo, hi](const Batch& b, KeepBitmap* keep) {
                   const int64_t* commit = b.column(2).ints_data();
                   const int64_t* receipt = b.column(3).ints_data();
                   const int64_t* ship = b.column(4).ints_data();
                   keep->FillFrom([&](size_t i) {
                     return commit[i] < receipt[i] && ship[i] < commit[i] &&
                            receipt[i] >= lo && receipt[i] <= hi;
                   });
                 }})),
        &lf);
    Src ord = Timed(t.orders->Scan({tpch::kOOrderkey, tpch::kOOrderpriority}),
                    &os);
    auto handle = std::make_shared<JoinBuildHandle>(std::move(ord),
                                                    std::vector<size_t>{0});
    const int64_t b0 = NowNs();
    PDT_RETURN_NOT_OK(handle->Resolve().status());
    st.join_build += static_cast<double>(NowNs() - b0) / 1e6 - os.ms();
    Src s = Timed(std::make_unique<HashJoinNode>(std::move(line), handle,
                                                 std::vector<size_t>{0}),
                  &join);
    s = Timed(std::make_unique<ProjectNode>(
                  std::move(s), std::vector<ColumnExpr>{ColumnRef(1),
                                                        ColumnRef(0)}),
              &proj);
    s = Timed(std::make_unique<HashAggNode>(
                  std::move(s), std::vector<size_t>{0},
                  std::vector<AggSpec>{{AggKind::kCount, 1}}),
              &agg);
    PDT_RETURN_NOT_OK(DrainStatus(s.get()));
    st.filter += lf.ms() - ls.ms();
    st.join_probe += join.ms() - lf.ms();
    st.agg += agg.ms() - proj.ms();
  }
  {  // Q18 shape: per-order agg -> filter -> build; orders probe -> sort.
    TimeCounter ls, per, big, os, join, sort;
    Src line = Timed(t.lineitem->Scan({tpch::kLOrderkey, tpch::kLQuantity}),
                     &ls);
    Src s = Timed(std::make_unique<HashAggNode>(
                      std::move(line), std::vector<size_t>{0},
                      std::vector<AggSpec>{{AggKind::kSum, 1}}),
                  &per);
    s = Timed(std::make_unique<FilterNode>(std::move(s),
                                           DoubleInRange(1, 250.0, 1e18)),
              &big);
    auto handle = std::make_shared<JoinBuildHandle>(std::move(s),
                                                    std::vector<size_t>{0});
    const int64_t b0 = NowNs();
    PDT_RETURN_NOT_OK(handle->Resolve().status());
    st.join_build += static_cast<double>(NowNs() - b0) / 1e6 - big.ms();
    Src ord = Timed(t.orders->Scan({tpch::kOOrderkey, tpch::kOCustkey,
                                    tpch::kOOrderdate, tpch::kOTotalprice}),
                    &os);
    Src j = Timed(std::make_unique<HashJoinNode>(std::move(ord), handle,
                                                 std::vector<size_t>{0}),
                  &join);
    j = Timed(std::make_unique<SortNode>(
                  std::move(j), std::vector<SortKey>{{3, true}, {2}}, 100),
              &sort);
    PDT_RETURN_NOT_OK(DrainStatus(j.get()));
    st.agg += per.ms() - ls.ms();
    st.filter += big.ms() - per.ms();
    st.join_probe += join.ms() - os.ms();
    st.sort += sort.ms() - join.ms();
  }
  return st;
}

struct ExchangeTimes {
  double consumer_wait_ms = 0;
  double busy_share = 0;
};

// Q1 fragment (scan -> filter -> project) as an nproc-worker pipeline
// ending in the exchange, with the aggregation on the consumer. Worker
// busy time is the merge time plus the fragment ops' time.
StatusOr<ExchangeTimes> MeasureExchange(const tpch::TpchTables& t,
                                        int workers) {
  ScopedSpan span("exec.q1_fragment_pipeline");
  ScanOptions so;
  so.num_threads = workers;
  so.ordered = false;
  MorselPlan plan = t.lineitem->PlanMorsels(Q1Columns(), nullptr, so);
  MorselCounters mc;
  WrapMorselFactory(&plan, &mc);
  TimeCounter ops, wait;
  Pipeline pipe(std::move(plan));
  pipe.Add(MakeStartOp());
  pipe.Filter(Q1Filter());
  pipe.Project(Q1Exprs());
  pipe.Add(MakeLapOp(&ops));
  const int64_t t0 = NowNs();
  Src ex = Timed(std::move(pipe).Exchange(), &wait);
  HashAggNode agg(std::move(ex), {0, 1}, Q1Aggs());
  PDT_RETURN_NOT_OK(DrainStatus(&agg));
  const double wall_ms = static_cast<double>(NowNs() - t0) / 1e6;
  ExchangeTimes e;
  e.consumer_wait_ms = wait.ms();
  e.busy_share = (mc.merge.ms() + ops.ms()) / (workers * wall_ms);
  return e;
}

// The tpch-specific layer details: the VDT copy's scan of the probe's
// lineitem projection (the paper's reference), operator self times and
// the exchange of a Q1 fragment at nproc workers.
void RunLayerExperiments(const Args& a, Copy* pdt, Copy* vdt, Result* r) {
  (void)SerialScanMs(*vdt->t.lineitem, Q1Columns(), "warm_scan");
  const int reps = a.quick ? 1 : 7;
  std::vector<double> vdt_ms, filt, agg, jb, jp, sort, wait, busy;
  bool ok = true;
  for (int i = 0; i < reps && ok; ++i) {
    auto v = SerialScanMs(*vdt->t.lineitem, Q1Columns(), "vdt.merge_scan");
    auto st = MeasureSelfTimes(pdt->t);
    auto ex = MeasureExchange(pdt->t, a.nproc);
    ok = v.ok() && st.ok() && ex.ok();
    if (!ok) break;
    vdt_ms.push_back(*v);
    filt.push_back(st->filter);
    agg.push_back(st->agg);
    jb.push_back(st->join_build);
    jp.push_back(st->join_probe);
    sort.push_back(st->sort);
    wait.push_back(ex->consumer_wait_ms);
    busy.push_back(ex->busy_share);
  }
  if (!r->Check(ok, "traced layer experiment failed")) return;
  r->Detail("vdt.merge_scan_ms", Median(vdt_ms), "ms");
  r->Detail("exec.filter_self_ms", Median(filt), "ms");
  r->Detail("exec.agg_self_ms", Median(agg), "ms");
  r->Detail("exec.join_build_self_ms", Median(jb), "ms");
  r->Detail("exec.join_probe_self_ms", Median(jp), "ms");
  r->Detail("exec.sort_self_ms", Median(sort), "ms");
  r->Detail("exec.q1_exchange_wait_ms", Median(wait), "ms");
  r->Detail("exec.q1_worker_busy_share", Median(busy), "share");
}

// Checkpoints the PDT copy's lineitem and orders (the run's last use of
// their deltas); the tables must read the same afterwards. Returns the
// checkpoint time in ms (<0 on failure).
double CheckpointMs(Copy* pdt, Result* r) {
  std::vector<StatusOr<ColumnDigest>> before;
  for (const Table* t : {pdt->t.lineitem, pdt->t.orders}) {
    before.push_back(DigestTable(*t));
  }
  ScopedSpan span("db.checkpoint");
  const int64_t t0 = NowNs();
  Status st = pdt->t.lineitem->Checkpoint();
  if (st.ok()) st = pdt->t.orders->Checkpoint();
  const double ms = static_cast<double>(NowNs() - t0) / 1e6;
  if (!r->Check(st.ok(), "checkpoint failed: " + st.ToString())) return -1;
  size_t i = 0;
  for (const Table* t : {pdt->t.lineitem, pdt->t.orders}) {
    auto after = DigestTable(*t);
    std::string why = "scan failed";
    r->Check(before[i].ok() && after.ok() &&
                 after->Matches(*before[i], 1e-9, &why),
             t->name() + " differs after its checkpoint: " + why);
    ++i;
  }
  return ms;
}

void PerQueryMedians(const std::vector<Pass>& passes, const char* suffix,
                     Result* r) {
  for (int q = 1; q <= kQueries; ++q) {
    std::vector<double> v;
    for (const Pass& p : passes) v.push_back(p.ms[q]);
    char name[32];
    std::snprintf(name, sizeof(name), "tpch.q%02d_%s_ms", q, suffix);
    r->Detail(name, Median(v), "ms");
  }
}

}  // namespace

void RunTpchRefreshed(const Args& a, int64_t start_ns, Result* r) {
  tpch::GenOptions gen;
  gen.scale_factor = a.quick ? 0.005 : 0.1;
  gen.seed = a.seed;
  auto streams = tpch::MakeUpdateStreams(gen, 2, 0.001);
  if (!r->Check(streams.ok(), "refresh streams: " +
                                  streams.status().ToString())) {
    return;
  }
  auto clean = BuildCopy(gen, DeltaBackend::kPdt, nullptr);
  auto pdt = BuildCopy(gen, DeltaBackend::kPdt, &*streams);
  auto vdt = BuildCopy(gen, DeltaBackend::kVdt, &*streams);
  if (!r->Check(clean.ok() && pdt.ok() && vdt.ok(),
                "building the TPC-H copies failed")) {
    return;
  }
  const double setup_s = SecondsSince(start_ns);
  const int min_rounds = a.quick ? 1 : 2;

  // Warm the decoded-chunk cache at both worker counts.
  (void)RunPass(&*pdt, 1, false);
  (void)RunPass(&*pdt, a.nproc, false);

  double untraced_t1_ms = 0;
  if (a.trace) {
    // Untraced reference for the tracing overhead.
    Tracer::Get().SetRecording(false);
    untraced_t1_ms =
        SetMs(RunRounds(&*pdt, a.nproc, 0.3 * a.seconds, 1, r).t1);
    Tracer::Get().SetRecording(true);
  }
  const Passes passes = RunRounds(
      &*pdt, a.nproc, (a.trace ? 0.5 : 1.0) * a.seconds, min_rounds, r);
  const std::vector<Pass>& t1 = passes.t1;
  const std::vector<Pass>& tn = passes.tn;
  const std::vector<Pass>& cold = passes.cold;
  const double peak_rss = PeakRssMb();
  uint64_t cold_bytes = 0;
  for (int q = 1; q <= kQueries; ++q) cold_bytes += cold[0].bytes_read[q];

  // --- checks ---
  CheckTables(*clean, *pdt, *vdt, *streams, r);
  const Pass vdt_hot = RunPass(&*vdt, 1, false);
  const Pass vdt_cold = RunPass(&*vdt, 1, true);
  const Pass clean_hot = RunPass(&*clean, 1, false);
  r->Check(vdt_hot.failed == 0 && vdt_cold.failed == 0 &&
               clean_hot.failed == 0,
           "a query failed on the VDT or clean copy");
  const QueryResult* ref = t1[0].res.data();
  for (int q = 1; q <= kQueries; ++q) {
    const std::string qs = "q" + std::to_string(q);
    for (const auto* phase : {&t1, &tn, &cold}) {
      for (const Pass& p : *phase) {
        // Q11 ends in ORDER BY value DESC LIMIT 50 over many tied values:
        // which tied parts survive the limit depends on the parallel
        // aggregation's group order, so at nproc workers only its row
        // count is defined (a fault of the kernel; see README.md).
        const bool ties = q == 11 && phase == &tn;
        r->Check(ties ? p.res[q].rows == ref[q].rows
                      : SameResult(p.res[q], ref[q]),
                 qs + ": PDT result differs between runs or worker counts");
      }
    }
    r->Check(SameResult(vdt_hot.res[q], ref[q]), qs + ": PDT and VDT differ");
    if (q == 2 || q == 11 || q == 16) {
      r->Check(SameResult(clean_hot.res[q], ref[q]),
               qs + ": differs from the clean copy");
    }
    r->Check(cold[0].bytes_read[q] <= vdt_cold.bytes_read[q],
             qs + ": PDT fetched more cold bytes than VDT");
  }

  if (!a.trace) {
    r->Metric("setup_s", setup_s, "s");
    r->Metric("peak_rss_mb", peak_rss, "MB");
    r->Metric("op_ms", SetMs(t1), "ms");
    r->Metric("slow_op_ms", SetMs(cold), "ms");
    r->Metric("rate_per_s", kQueries / (SetMs(tn) / 1e3), "1/s");
    r->Metric("io_bytes", static_cast<double>(cold_bytes), "B");
    return;
  }
  const double traced_t1_ms = SetMs(t1);
  r->Metric("trace.overhead_share",
            (traced_t1_ms - untraced_t1_ms) / untraced_t1_ms, "share");
  ReportLayerProbe(a, {pdt->t.lineitem, clean->t.lineitem, Q1Columns()}, r);
  PerQueryMedians(t1, "t1", r);
  PerQueryMedians(tn, "tn", r);
  r->Detail("storage.cold_set_decode_ms", SetMs(cold) - traced_t1_ms, "ms");
  r->Detail("storage.zone_skipped_mb",
            static_cast<double>(cold[0].bytes_skipped) / 1e6, "MB");
  RunLayerExperiments(a, &*pdt, &*vdt, r);

  // The paper's Fig. 19 floor, for the README's reference figures: cold
  // bytes and time of the clean, PDT and VDT copies.
  const Pass clean_cold = RunPass(&*clean, 1, true);
  auto mb = [](const Pass& p) {
    uint64_t b = 0;
    for (int q = 1; q <= kQueries; ++q) b += p.bytes_read[q];
    return static_cast<double>(b) / 1e6;
  };
  std::fprintf(stderr,
               "reference: cold MB clean %.1f PDT %.1f VDT %.1f; cold s "
               "clean %.3f PDT %.3f VDT %.3f\n",
               mb(clean_cold), mb(cold[0]), mb(vdt_cold), clean_cold.seconds,
               MedianSeconds(cold), vdt_cold.seconds);
  r->Metric("db.checkpoint_ms", CheckpointMs(&*pdt, r), "ms");
}

}  // namespace perfbench
