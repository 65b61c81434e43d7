// Crash workloads (paper §5.1/§5.2): one client drives update transactions
// through the controlled crash protocol, the crash image is captured once,
// and every recovery method recovers it side by side, repeatedly.
//
//   1. Warm up until the cache is full, then run that long again.
//   2. Take `checkpoints` checkpoints, `interval` updates apart.
//   3. Run one more interval, forcing the last Δ/BW-records `tail` updates
//      before its end; optionally leave a loser transaction open and force
//      its records to the log; crash just before the next checkpoint.
#include <cstdio>

#include "workloads.h"

namespace perfbench {

using deutero::Engine;
using deutero::Status;
using deutero::Table;
using deutero::Txn;

namespace {

struct CrashConfig {
  uint64_t rows;
  uint64_t cache_pages;
  uint64_t interval;       ///< Updates between checkpoints.
  uint64_t checkpoints;    ///< Completed before the crash interval.
  uint64_t tail;           ///< Updates after the last forced Δ/BW-records.
  double insert_fraction;  ///< Fresh keys past the loaded range.
  double delete_fraction;
  uint64_t loser_ops;      ///< Updates of the transaction left open.
  uint32_t threads;        ///< recovery_threads
  uint32_t channels;       ///< io_channels
};

bool ConfigFor(const Args& args, CrashConfig* c) {
  if (args.workload == "paper-512mb") {
    *c = {10'000'000, 6552, 4000, 10, 10, 0.0, 0.0, 0, 1, 1};
    if (args.small) *c = {50'000, 64, 400, 3, 10, 0.0, 0.0, 0, 1, 1};
    return true;
  }
  if (args.workload == "window-100k-parallel") {
    *c = {10'000'000, 6552, 100'000, 2, 10, 0.05, 0.05, 1000, 4, 8};
    if (args.small) *c = {50'000, 64, 4000, 2, 10, 0.05, 0.05, 50, 4, 8};
    return true;
  }
  return false;
}

/// The single client of the crash protocol. Applies each operation to the
/// oracle as it goes (every transaction but the loser commits).
class Client {
 public:
  Client(Engine* engine, const CrashConfig& cfg, uint64_t seed,
         TableOracle* oracle, SpanBuffer* spans)
      : engine_(engine),
        cfg_(cfg),
        rng_(seed),
        oracle_(oracle),
        spans_(spans),
        next_fresh_(cfg.rows) {}

  Status Init() { return engine_->OpenDefaultTable(&table_); }

  /// Run `n` operations in committed transactions of 10.
  Status Run(uint64_t n) {
    while (n > 0) {
      const uint64_t ops = std::min<uint64_t>(n, kOpsPerTxn);
      DEUTERO_RETURN_NOT_OK(RunTxn(ops, /*commit=*/true));
      n -= ops;
    }
    return Status::OK();
  }

  /// Leave one transaction of `n` updates open (the loser).
  Status RunLoser(uint64_t n) { return RunTxn(n, /*commit=*/false); }

  Txn& loser() { return txn_; }
  const std::vector<Key>& loser_keys() const { return loser_keys_; }
  std::vector<Key>& written_since_mark() { return window_; }

 private:
  static constexpr uint64_t kOpsPerTxn = 10;

  Status RunTxn(uint64_t ops, bool commit) {
    const uint64_t trace = ++txn_seq_;
    ScopedSpan txn_span(spans_, "txn", trace);
    {
      ScopedSpan span(spans_, "txn.begin", trace);
      DEUTERO_RETURN_NOT_OK(engine_->Begin(&txn_));
    }
    for (uint64_t i = 0; i < ops; i++) {
      DEUTERO_RETURN_NOT_OK(commit ? OneOp(trace) : LoserOp(trace));
    }
    if (!commit) return Status::OK();
    {
      ScopedSpan span(spans_, "txn.commit", trace);
      DEUTERO_RETURN_NOT_OK(txn_.Commit());
    }
    for (const auto& [k, v] : pending_) oracle_->Set(k, v);
    pending_.clear();
    return Status::OK();
  }

  /// One operation: an update of a uniform loaded key (re-inserting it if
  /// deleted), an insert of a fresh key, or a delete of a uniform key.
  Status OneOp(uint64_t trace) {
    const double r = rng_.Unit();
    Key k;
    Status s;
    if (r < cfg_.insert_fraction) {
      k = next_fresh_++;
      ScopedSpan span(spans_, "txn.insert", trace);
      s = txn_.Insert(table_, k, Write(k));
    } else if (r < cfg_.insert_fraction + cfg_.delete_fraction) {
      k = rng_.Uniform(cfg_.rows);
      ScopedSpan span(spans_, "txn.delete", trace);
      const bool live = Live(k);
      s = txn_.Delete(table_, k);
      if (!live) {
        // Deleting an absent key must report NotFound and change nothing.
        s = s.IsNotFound() ? Status::OK()
                           : Status::Corruption("delete of an absent key: " +
                                                s.ToString());
      } else {
        pending_[k] = kDeleted;
      }
    } else {
      k = rng_.Uniform(cfg_.rows);
      const bool live = Live(k);
      ScopedSpan span(spans_, live ? "txn.update" : "txn.insert", trace);
      s = live ? txn_.Update(table_, k, Write(k)) : txn_.Insert(table_, k, Write(k));
    }
    window_.push_back(k);
    return s;
  }

  Status LoserOp(uint64_t trace) {
    Key k = rng_.Uniform(cfg_.rows);
    while (!Live(k)) k = rng_.Uniform(cfg_.rows);
    ScopedSpan span(spans_, "txn.update", trace);
    loser_keys_.push_back(k);
    return txn_.Update(table_, k, ValueString(k, ++versions_issued_, oracle_->salt(),
                                              oracle_->value_size()));
  }

  bool Live(Key k) const {
    auto it = pending_.find(k);
    if (it != pending_.end()) return it->second != kDeleted;
    return oracle_->Live(k);
  }

  /// Payload for the next write of `k`, recorded as pending.
  std::string Write(Key k) {
    const uint32_t v = ++versions_issued_;
    pending_[k] = v;
    return ValueString(k, v, oracle_->salt(), oracle_->value_size());
  }

  Engine* engine_;
  CrashConfig cfg_;
  Rng rng_;
  TableOracle* oracle_;
  SpanBuffer* spans_;
  Table table_;
  Txn txn_;
  Key next_fresh_;
  uint32_t versions_issued_ = 0;  ///< Versions are unique per write.
  uint64_t txn_seq_ = 0;
  std::unordered_map<Key, uint32_t> pending_;
  std::vector<Key> window_;
  std::vector<Key> loser_keys_;
};

/// The forward path right after a restart: one client's update-only
/// transactions of 10 on the freshly recovered image (its cache holds only
/// what recovery left). Writes go to keys the oracle holds live; the next
/// method restores the crash image, so they need no oracle of their own.
/// Returns the batch's commits per second.
double PostRecoveryBatch(Engine* engine, const TableOracle& oracle, Rng* rng,
                         uint64_t txns, SpanBuffer* spans, bool time_calls,
                         LatencySample* lat, Report* report) {
  Table table;
  if (!engine->OpenDefaultTable(&table).ok()) {
    report->Fail("post-recovery client: no default table");
    return 0;
  }
  const int64_t batch0 = NowNs();
  for (uint64_t t = 0; t < txns; t++) {
    const uint64_t trace = rng->Next();
    ScopedSpan txn_span(spans, "txn", trace);
    const int64_t t0 = NowNs();
    Txn txn;
    Status s;
    {
      ScopedSpan span(spans, "txn.begin", trace);
      s = engine->Begin(&txn);
    }
    for (int i = 0; s.ok() && i < 10; i++) {
      Key k = rng->Uniform(oracle.loaded_rows());
      while (!oracle.Live(k)) k = rng->Uniform(oracle.loaded_rows());
      // A version no crash-protocol write uses: the batch's own payload.
      const std::string v =
          ValueString(k, kDeleted - 1, oracle.salt(), oracle.value_size());
      const int64_t u0 = time_calls ? NowNs() : 0;
      {
        ScopedSpan span(spans, "txn.update", trace);
        s = txn.Update(table, k, v);
      }
      if (time_calls) lat->update_us.push_back((NowNs() - u0) / 1e3);
    }
    const int64_t c0 = NowNs();
    if (s.ok()) {
      ScopedSpan span(spans, "txn.commit", trace);
      s = txn.Commit();
    }
    const int64_t end = NowNs();
    report->attempted++;
    if (!s.ok()) {
      report->failed++;
      report->Fail("post-recovery transaction failed: " + s.ToString());
      continue;
    }
    if (time_calls) lat->commit_us.push_back((end - c0) / 1e3);
    lat->txn_us.push_back((end - t0) / 1e3);
  }
  return static_cast<double>(txns) / ((NowNs() - batch0) / 1e9);
}

}  // namespace

bool RunCrashWorkload(const Args& args, Tracer* tracer, Report* report) {
  CrashConfig cfg;
  if (!ConfigFor(args, &cfg)) return false;
  if (args.recovery_threads != 0) cfg.threads = args.recovery_threads;
  SpanBuffer* spans = tracer->NewBuffer(1 << 18);

  deutero::EngineOptions opts;
  opts.num_rows = cfg.rows;
  opts.cache_pages = cfg.cache_pages;
  opts.checkpoint_interval_updates = cfg.interval;
  opts.lazy_writer_reference_cache_pages = args.small ? 64 : 819;
  opts.lazy_writer_reference_interval = args.small ? 400 : 4000;
  opts.recovery_threads = cfg.threads;
  opts.io.io_channels = cfg.channels;
  opts.seed = args.seed;

  const uint64_t salt = Rng(args.seed ^ 0x5eed5eed).Next();
  TableOracle oracle(cfg.rows, opts.value_size, salt);
  std::unique_ptr<Engine> engine;
  const int64_t open0 = NowNs();
  {
    ScopedSpan span(spans, "engine.open");
    const Status s = Engine::Open(opts, &engine);
    if (!s.ok()) {
      report->Fail("Engine::Open failed: " + s.ToString());
      return true;
    }
  }
  const int64_t protocol0 = NowNs();
  report->Metric("core.open_s", (protocol0 - open0) / 1e9, "s");

  Client client(engine.get(), cfg, Rng(args.seed).Next(), &oracle, spans);
  Status s = client.Init();
  // 1. Warm-up: fill the cache, then run as long again.
  auto& pool = engine->dc().pool();
  const uint64_t total_pages = engine->dc().allocator().next_page_id();
  const uint64_t fill_target = std::min<uint64_t>(pool.capacity(), total_pages) * 99 / 100;
  uint64_t fill_updates = 0;
  while (s.ok() && pool.resident_pages() < fill_target &&
         fill_updates < 6 * pool.capacity() + 10000) {
    s = client.Run(10);
    fill_updates += 10;
  }
  if (s.ok()) s = client.Run(fill_updates);
  // 2. Checkpoints.
  for (uint64_t c = 0; s.ok() && c < cfg.checkpoints; c++) {
    s = client.Run(cfg.interval);
    ScopedSpan span(spans, "engine.checkpoint");
    if (s.ok()) s = engine->Checkpoint();
  }
  // 3. The crash interval: its writes are the redo window.
  client.written_since_mark().clear();
  if (s.ok()) s = client.Run(cfg.interval - cfg.tail);
  engine->dc().monitor().ForceEmit();
  if (s.ok()) s = client.Run(cfg.tail);
  if (s.ok() && cfg.loser_ops > 0) {
    s = client.RunLoser(cfg.loser_ops);
    engine->tc().ForceLog();
  }
  if (!s.ok()) {
    report->Fail("crash protocol failed: " + s.ToString());
    return true;
  }
  {
    ScopedSpan span(spans, "engine.crash");
    engine->SimulateCrash();
  }
  client.loser().Release();  // the crash discarded it
  ReportEngineCounters(engine.get(), report);

  Engine::StableSnapshot snap;
  {
    ScopedSpan span(spans, "engine.snapshot");
    s = engine->TakeStableSnapshot(&snap);
  }
  if (!s.ok()) {
    report->Fail("snapshot failed: " + s.ToString());
    return true;
  }
  if (args.inject == Inject::kDropAck &&
      !DropLastAckedCommit(engine.get(), &snap, [](deutero::TxnId) { return true; })) {
    report->Fail("drop-ack control: no commit record to cut");
  }
  const int64_t setup_end = NowNs();
  report->Metric("core.crash_protocol_s", (setup_end - protocol0) / 1e9, "s");
  report->Metric("setup_s", (setup_end - ProcessStartNs()) / 1e9, "s");

  RecoveryPlan plan;
  plan.seconds = args.seconds;
  plan.expected_undo_ops = static_cast<int64_t>(cfg.loser_ops);
  plan.point_keys = client.written_since_mark();
  plan.point_keys.insert(plan.point_keys.end(), client.loser_keys().begin(),
                         client.loser_keys().end());
  std::sort(plan.point_keys.begin(), plan.point_keys.end());
  plan.point_keys.erase(std::unique(plan.point_keys.begin(), plan.point_keys.end()),
                        plan.point_keys.end());
  LatencySample lat;
  std::vector<double> batch_tps;
  Rng batch_rng(Rng(args.seed ^ 0xba7c4).Next());
  plan.after_check = [&](Engine* e) {
    batch_tps.push_back(PostRecoveryBatch(e, oracle, &batch_rng, args.small ? 50 : 500,
                                          spans, args.trace, &lat, report));
  };
  RecoveryOutcome out;
  RecoverAndCheck(engine.get(), snap, &oracle, plan, args, spans, report, &out);
  ReportRecovery(out, report);
  report->Metric("commit_tps", Median(batch_tps), "1/s", batch_tps.size());
  report->Metric("txn_latency_p50_us", Quantile(lat.txn_us, 0.50), "us", lat.txn_us.size());
  report->Metric("txn_latency_p99_us", Quantile(lat.txn_us, 0.99), "us", lat.txn_us.size());
  lat.read_us = out.read_us;
  ReportClientLatency(lat, report);

  if (args.trace && engine->running()) {
    ReportLedger(engine.get(), snap, out, spans, report);
  }
  return true;
}

}  // namespace perfbench
