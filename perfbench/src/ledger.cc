// Layer ledger: the unit cost of three public calls every recovery method
// leans on, timed on the recovered image, and a reconciliation of those
// costs × RecoveryStats counts against the measured recovery wall time.
#include <cstdio>

#include "workloads.h"

namespace perfbench {

using deutero::Engine;

namespace {

struct LedgerCosts {
  double decode_ns_per_record = 0;
  double find_leaf_ns = 0;
  double get_hit_ns = 0;
};

template <typename F>
double BestOfThreeNs(F&& pass, uint64_t* units) {
  std::vector<double> per_unit;
  for (int i = 0; i < 3; i++) {
    const int64_t t0 = NowNs();
    const uint64_t n = pass();
    const int64_t t1 = NowNs();
    if (n == 0) return 0;
    *units = n;
    per_unit.push_back(static_cast<double>(t1 - t0) / static_cast<double>(n));
  }
  return Median(per_unit);
}

LedgerCosts MeasureLedger(Engine* engine, deutero::Lsn window_start,
                          deutero::Lsn window_end, SpanBuffer* spans) {
  LedgerCosts c;
  deutero::LogManager& log = engine->wal();
  std::vector<std::pair<deutero::TableId, Key>> keys;
  uint64_t n = 0;
  {
    ScopedSpan span(spans, "ledger.decode");
    c.decode_ns_per_record = BestOfThreeNs(
        [&] {
          uint64_t records = 0;
          keys.clear();
          for (auto it = log.NewIterator(window_start, /*charge_io=*/false);
               it.Valid() && it.lsn() < window_end; it.Next()) {
            const auto& rec = it.record();
            if (rec.IsRedoableDataOp()) keys.emplace_back(rec.table_id, rec.key);
            records++;
          }
          return records;
        },
        &n);
  }
  deutero::DataComponent& dc = engine->dc();
  deutero::PageId pid = deutero::kInvalidPageId;
  {
    ScopedSpan span(spans, "ledger.find_leaf");
    c.find_leaf_ns = BestOfThreeNs(
        [&] {
          for (const auto& [table, key] : keys) {
            if (!dc.FindLeaf(table, key, &pid).ok()) return uint64_t{0};
          }
          return static_cast<uint64_t>(keys.size());
        },
        &n);
  }
  if (pid == deutero::kInvalidPageId) return c;
  deutero::BufferPool& pool = dc.pool();
  {
    ScopedSpan span(spans, "ledger.pool_get");
    c.get_hit_ns = BestOfThreeNs(
        [&] {
          constexpr uint64_t kGets = 200'000;
          for (uint64_t i = 0; i < kGets; i++) {
            deutero::PageHandle h;
            if (!pool.Get(pid, deutero::PageClass::kData, &h).ok()) return uint64_t{0};
          }
          return kGets;
        },
        &n);
  }
  return c;
}

void PrintLedgerReconciliation(const LedgerCosts& c, const RecoveryOutcome& out) {
  std::fprintf(stderr,
               "ledger: decode %.1f ns/record, find_leaf %.1f ns, pool get hit %.1f ns\n",
               c.decode_ns_per_record, c.find_leaf_ns, c.get_hit_ns);
  std::fprintf(stderr, "ledger  method  wall_ms  predicted_ms  residual_share\n");
  for (int i = 0; i < 5; i++) {
    if (out.stats[i].empty()) continue;
    const deutero::RecoveryStats& st = out.stats[i].front();
    const bool logical = kMethods[i] == RecoveryMethod::kLog0 ||
                         kMethods[i] == RecoveryMethod::kLog1 ||
                         kMethods[i] == RecoveryMethod::kLog2;
    // Every pass decodes its window; logical redo traverses the index for
    // each record the leaf memo misses; every fetched record pins a page.
    const double records = static_cast<double>(st.dc_pass.records + st.analysis.records +
                                               st.redo.records + st.undo.records);
    const double traversals =
        logical ? static_cast<double>(st.redo_examined - st.redo_leaf_memo_hits) : 0;
    const double pins = static_cast<double>(st.redo_applied + st.redo_skipped_plsn);
    const double predicted_ms = (records * c.decode_ns_per_record +
                                 traversals * c.find_leaf_ns + pins * c.get_hit_ns) /
                                1e6;
    const double wall = Median(out.wall_ms[i]);
    std::fprintf(stderr, "ledger  %-6s %8.2f  %12.2f  %14.3f\n", MethodKey(kMethods[i]),
                 wall, predicted_ms, wall > 0 ? (wall - predicted_ms) / wall : 0.0);
  }
}

}  // namespace

void ReportLedger(Engine* engine, const Engine::StableSnapshot& snap,
                  const RecoveryOutcome& out, SpanBuffer* spans, Report* report) {
  const LedgerCosts c = MeasureLedger(engine, snap.log.master.bckpt_lsn,
                                      snap.log.stable_log.size(), spans);
  report->Metric("wal.decode_ns_per_record", c.decode_ns_per_record, "ns", 3);
  report->Metric("btree.find_leaf_ns", c.find_leaf_ns, "ns", 3);
  report->Metric("storage.get_hit_ns", c.get_hit_ns, "ns", 3);
  PrintLedgerReconciliation(c, out);
}

void ReportEngineCounters(Engine* engine, Report* report) {
  const deutero::EngineStats es = engine->Stats();
  const auto log = engine->wal().StatsSnapshot();
  report->Metric("wal.flushes_per_commit",
                 static_cast<double>(log.flushes) / static_cast<double>(es.committed),
                 "ratio");
  report->Metric("concurrency.lock_waits", static_cast<double>(es.lock_waits), "count");
  report->Metric("concurrency.lock_shard_collisions",
                 static_cast<double>(es.lock_shard_collisions), "count");
  report->Metric("concurrency.wait_die_aborts", static_cast<double>(es.wait_die_aborts),
                 "count");
  // Without the batcher every commit forces the log itself: batches of one.
  report->Metric("concurrency.commit_batch_mean",
                 es.commit_batches > 0 ? static_cast<double>(es.commits_enqueued) /
                                             static_cast<double>(es.commit_batches)
                                       : 1.0,
                 "count");
  const deutero::DirtyPageMonitor::Stats ms = engine->dc().monitor().stats();
  report->Metric("dc.delta_records", static_cast<double>(ms.delta_records), "count");
  report->Metric("dc.bw_records", static_cast<double>(ms.bw_records), "count");
}

}  // namespace perfbench
