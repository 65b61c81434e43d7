// Commit workloads: closed-loop clients on a table that fits in the cache,
// each on its own key slice, committing small transactions until the run
// time is up; then a crash while they are mid-flight, and recovery of that
// crash image with every method.
//
// Outcome of each transaction, as the client sees it:
//   * Commit() returned OK          -> acknowledged: must survive recovery.
//   * an operation failed before
//     Commit() because of the crash -> loser: none of its writes survive.
//   * Commit() itself was cut off   -> unacknowledged: after recovery it is
//                                      all there or not there at all.
#include <cmath>
#include <cstdio>
#include <thread>

#include "workloads.h"

namespace perfbench {

using deutero::Engine;
using deutero::Status;
using deutero::Table;
using deutero::Txn;

namespace {

struct CommitConfig {
  uint64_t rows;
  uint64_t cache_pages;
  uint32_t clients;
  uint32_t writes_per_txn;
  double insert_fraction;
  double delete_fraction;
  double read_fraction;  ///< Chance of a locking read before each write.
  bool group_commit;
  uint64_t crash_after;  ///< Commits acknowledged between checkpoint and crash.
};

bool ConfigFor(const Args& args, CommitConfig* c) {
  bool grouped;
  if (args.workload == "commit-4clients") {
    grouped = false;
  } else if (args.workload == "commit-4clients-grouped") {
    grouped = true;
  } else {
    return false;
  }
  *c = {args.small ? 20'000u : 1'000'000u, args.small ? 256u : 6552u, 4, 4,
        0.10, 0.10, 0.15, grouped, args.small ? 2'000u : 20'000u};
  return true;
}

/// A write of the open transaction: the key's version before and after.
struct PendingWrite {
  Key key;
  uint32_t before;
  uint32_t after;
};

struct ClientResult {
  TableOracle acked;                  ///< Acknowledged state of the slice.
  std::vector<deutero::TxnId> acked_txns;
  std::vector<PendingWrite> cut_at_commit;  ///< Unacknowledged commit.
  std::vector<PendingWrite> cut_before_commit;  ///< Loser writes.
  LatencySample latency;
  std::vector<int64_t> ack_ns;  ///< When each acknowledgement arrived.
  uint64_t committed = 0;
  uint64_t failed = 0;
  std::string failure;  ///< First failure not caused by the crash.
  explicit ClientResult(const TableOracle& base) : acked(base) {}
};

class Client {
 public:
  Client(Engine* engine, const CommitConfig& cfg, uint32_t id, uint64_t seed,
         const std::atomic<bool>* crashing, std::atomic<uint64_t>* acks,
         SpanBuffer* spans, bool time_calls, ClientResult* out)
      : engine_(engine),
        cfg_(cfg),
        id_(id),
        rng_(seed),
        crashing_(crashing),
        acks_(acks),
        spans_(spans),
        time_calls_(time_calls),
        out_(out),
        lo_(cfg.rows / cfg.clients * id),
        hi_(cfg.rows / cfg.clients * (id + 1)),
        next_fresh_(cfg.rows + id) {}

  void Run() {
    if (!engine_->OpenDefaultTable(&table_).ok()) {
      out_->failure = "client could not open the table";
      return;
    }
    while (true) {
      if (RunTxn()) continue;
      if (crashing_->load(std::memory_order_acquire)) return;
    }
  }

 private:
  /// One transaction. False when it failed (the crash, or a fault).
  bool RunTxn() {
    const uint64_t trace = (uint64_t{id_} << 48) | ++txn_seq_;
    ScopedSpan txn_span(spans_, "txn", trace);
    const int64_t t0 = NowNs();
    writes_.clear();
    Txn txn;
    Status s;
    {
      ScopedSpan span(spans_, "txn.begin", trace);
      s = engine_->Begin(&txn);
    }
    for (uint32_t i = 0; s.ok() && i < cfg_.writes_per_txn; i++) {
      if (rng_.Unit() < cfg_.read_fraction) s = LockingRead(&txn, trace);
      if (s.ok()) s = Write(&txn, trace);
    }
    if (!s.ok()) return Fail(&txn, s, /*at_commit=*/false);
    const deutero::TxnId id = txn.id();  // Commit() clears the handle
    const int64_t c0 = NowNs();
    {
      ScopedSpan span(spans_, "txn.commit", trace);
      s = txn.Commit();
    }
    const int64_t end = NowNs();
    if (!s.ok()) return Fail(&txn, s, /*at_commit=*/true);
    if (time_calls_) out_->latency.commit_us.push_back((end - c0) / 1e3);
    out_->latency.txn_us.push_back((end - t0) / 1e3);
    out_->ack_ns.push_back(end);
    out_->acked_txns.push_back(id);
    out_->committed++;
    acks_->fetch_add(1, std::memory_order_relaxed);
    for (const PendingWrite& w : writes_) out_->acked.Set(w.key, w.after);
    return true;
  }

  bool Fail(Txn* txn, const Status& s, bool at_commit) {
    if (crashing_->load(std::memory_order_acquire)) {
      auto& into = at_commit ? out_->cut_at_commit : out_->cut_before_commit;
      into.insert(into.end(), writes_.begin(), writes_.end());
      txn->Release();  // the crash discarded the transaction
      return false;
    }
    out_->failed++;
    if (out_->failure.empty()) out_->failure = s.ToString();
    if (txn->active()) (void)txn->Abort();
    return false;
  }

  /// Version of `k` as this transaction sees it.
  uint32_t Current(Key k) const {
    for (auto it = writes_.rbegin(); it != writes_.rend(); ++it) {
      if (it->key == k) return it->after;
    }
    return out_->acked.VersionOf(k);
  }

  Status LockingRead(Txn* txn, uint64_t trace) {
    const Key k = lo_ + rng_.Uniform(hi_ - lo_);
    std::string got;
    Status s;
    const int64_t t0 = time_calls_ ? NowNs() : 0;
    {
      ScopedSpan span(spans_, "txn.read", trace);
      s = txn->Read(table_, k, &got);
    }
    if (time_calls_) out_->latency.read_us.push_back((NowNs() - t0) / 1e3);
    const uint32_t v = Current(k);
    if (v == kDeleted) {
      if (s.IsNotFound()) return Status::OK();
      if (!s.ok()) return s;
      return Status::Corruption("locking read of a deleted key found a row");
    }
    if (!s.ok()) return s;
    if (got != ValueString(k, v, out_->acked.salt(), out_->acked.value_size())) {
      return Status::Corruption("locking read of key " + std::to_string(k) +
                                " returned a wrong value");
    }
    return Status::OK();
  }

  Status Write(Txn* txn, uint64_t trace) {
    const double r = rng_.Unit();
    Key k;
    bool fresh = false;
    if (r < cfg_.insert_fraction) {
      k = next_fresh_;
      fresh = true;
    } else {
      k = lo_ + rng_.Uniform(hi_ - lo_);
    }
    const uint32_t before = fresh ? kDeleted : Current(k);
    const bool del = !fresh && before != kDeleted &&
                     r < cfg_.insert_fraction + cfg_.delete_fraction;
    const uint32_t after = del ? kDeleted : ++versions_issued_;
    Status s;
    const int64_t t0 = time_calls_ ? NowNs() : 0;
    if (del) {
      ScopedSpan span(spans_, "txn.delete", trace);
      s = txn->Delete(table_, k);
    } else {
      const std::string v =
          ValueString(k, after, out_->acked.salt(), out_->acked.value_size());
      ScopedSpan span(spans_, before == kDeleted ? "txn.insert" : "txn.update", trace);
      s = before == kDeleted ? txn->Insert(table_, k, v) : txn->Update(table_, k, v);
    }
    if (time_calls_) out_->latency.update_us.push_back((NowNs() - t0) / 1e3);
    if (!s.ok()) return s;
    if (fresh) next_fresh_ += cfg_.clients;
    writes_.push_back({k, before, after});
    return Status::OK();
  }

  Engine* engine_;
  CommitConfig cfg_;
  uint32_t id_;
  Rng rng_;
  const std::atomic<bool>* crashing_;
  std::atomic<uint64_t>* acks_;
  SpanBuffer* spans_;
  bool time_calls_;
  ClientResult* out_;
  Key lo_, hi_;
  Key next_fresh_;
  Table table_;
  uint32_t versions_issued_ = 0;
  uint64_t txn_seq_ = 0;
  std::vector<PendingWrite> writes_;
};

/// After the first recovery: an unacknowledged commit must be all there or
/// not there at all; fold whichever it is into the oracle. `writes` are one
/// transaction's, in order (a key written twice counts by its last write).
void SettleCutCommit(const std::vector<PendingWrite>& writes, Engine* engine,
                     TableOracle* oracle, Report* report) {
  std::vector<PendingWrite> net;  // first `before`, last `after` per key
  for (const PendingWrite& w : writes) {
    auto it = std::find_if(net.begin(), net.end(),
                           [&](const PendingWrite& n) { return n.key == w.key; });
    if (it == net.end()) {
      net.push_back(w);
    } else {
      it->after = w.after;
    }
  }
  Table t;
  if (!engine->OpenDefaultTable(&t).ok()) return;
  size_t landed = 0;
  std::string got;
  for (const PendingWrite& w : net) {
    const Status s = t.Read(w.key, &got);
    const bool is_after =
        w.after == kDeleted
            ? s.IsNotFound()
            : s.ok() && got == ValueString(w.key, w.after, oracle->salt(),
                                           oracle->value_size());
    if (is_after) landed++;
  }
  if (landed != 0 && landed != net.size()) {
    report->Fail("an unacknowledged commit survived in part (" +
                 std::to_string(landed) + " of " + std::to_string(net.size()) +
                 " keys)");
    return;
  }
  for (const PendingWrite& w : net) {
    oracle->Set(w.key, landed != 0 ? w.after : w.before);
  }
}

}  // namespace

bool RunCommitWorkload(const Args& args, Tracer* tracer, Report* report) {
  CommitConfig cfg;
  if (!ConfigFor(args, &cfg)) return false;
  SpanBuffer* main_spans = tracer->NewBuffer(1 << 16);

  deutero::EngineOptions opts;
  opts.num_rows = cfg.rows;
  opts.cache_pages = cfg.cache_pages;
  opts.seed = args.seed;
  if (cfg.group_commit) {
    // fig_group_commit's batcher settings.
    opts.group_commit_window_us = 200;
    opts.group_commit_max_batch = 64;
  }
  const uint64_t salt = Rng(args.seed ^ 0x5eed5eed).Next();
  const TableOracle base(cfg.rows, opts.value_size, salt);

  std::unique_ptr<Engine> engine;
  const int64_t open0 = NowNs();
  {
    ScopedSpan span(main_spans, "engine.open");
    const Status s = Engine::Open(opts, &engine);
    if (!s.ok()) {
      report->Fail("Engine::Open failed: " + s.ToString());
      return true;
    }
  }
  const int64_t start = NowNs();
  report->Metric("core.open_s", (start - open0) / 1e9, "s");
  report->Metric("setup_s", (start - ProcessStartNs()) / 1e9, "s");

  std::atomic<bool> crashing{false};
  std::atomic<uint64_t> acks{0};
  std::vector<std::unique_ptr<ClientResult>> results;
  std::vector<std::thread> threads;
  Rng seeds(args.seed);
  const size_t expect_txns = static_cast<size_t>(40'000 * args.seconds) + cfg.crash_after;
  for (uint32_t c = 0; c < cfg.clients; c++) {
    results.push_back(std::make_unique<ClientResult>(base));
    ClientResult& r = *results.back();
    r.acked.Reserve(cfg.rows / cfg.clients * 2);
    r.latency.txn_us.reserve(expect_txns);
    r.ack_ns.reserve(expect_txns);
    r.acked_txns.reserve(expect_txns);
    SpanBuffer* spans = tracer->NewBuffer(1 << 16);
    threads.emplace_back([&, c, spans, seed = seeds.Next()] {
      Client client(engine.get(), cfg, c, seed, &crashing, &acks, spans,
                    args.trace, results[c].get());
      client.Run();
    });
  }
  // The clients' first `seconds` are the measured window. Then one
  // checkpoint, and the crash once `crash_after` more commits have been
  // acknowledged: every run recovers the same amount of work, whatever the
  // throughput, and the clients are mid-flight when it comes.
  std::this_thread::sleep_for(std::chrono::duration<double>(args.seconds));
  const int64_t end = NowNs();
  {
    ScopedSpan span(main_spans, "engine.checkpoint");
    const Status s = engine->Checkpoint();
    if (!s.ok()) report->Fail("checkpoint failed: " + s.ToString());
  }
  const uint64_t mark = acks.load();
  while (acks.load() < mark + cfg.crash_after) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  crashing.store(true, std::memory_order_release);
  {
    ScopedSpan span(main_spans, "engine.crash");
    engine->SimulateCrash();
  }
  for (std::thread& t : threads) t.join();

  TableOracle oracle = base;
  oracle.Reserve(cfg.rows * 2);
  LatencySample latency;
  std::vector<std::vector<PendingWrite>> cut_at_commit;  // one txn per client
  std::vector<PendingWrite> losers;
  std::vector<deutero::TxnId> acked;
  // Throughput and latency are taken per slice of the measured window and
  // reported as the median over the slices, so that a short stall of the
  // shared machine does not decide the run.
  std::vector<double> per_half_second(static_cast<size_t>(args.seconds * 2), 0);
  std::vector<std::vector<double>> latency_per_second(
      static_cast<size_t>(std::ceil(args.seconds)));
  uint64_t committed = 0;
  for (auto& r : results) {
    oracle.Merge(r->acked);
    // Latency counts the transactions acknowledged in the measured window.
    const size_t n = std::lower_bound(r->ack_ns.begin(), r->ack_ns.end(), end) -
                     r->ack_ns.begin();
    for (size_t i = 0; i < n; i++) {
      const int64_t since = r->ack_ns[i] - start;
      const size_t half = static_cast<size_t>(since / 500'000'000);
      if (half < per_half_second.size()) per_half_second[half] += 2;
      const size_t sec = static_cast<size_t>(since / 1'000'000'000);
      if (sec < latency_per_second.size()) {
        latency_per_second[sec].push_back(r->latency.txn_us[i]);
      }
    }
    r->latency.txn_us.resize(n);
    if (r->latency.commit_us.size() > n) r->latency.commit_us.resize(n);
    latency.Append(r->latency);
    if (!r->cut_at_commit.empty()) cut_at_commit.push_back(r->cut_at_commit);
    losers.insert(losers.end(), r->cut_before_commit.begin(),
                  r->cut_before_commit.end());
    acked.insert(acked.end(), r->acked_txns.begin(), r->acked_txns.end());
    committed += r->committed;
    report->failed += r->failed;
    if (!r->failure.empty()) report->Fail("client operation failed: " + r->failure);
  }
  report->attempted += committed + report->failed;
  report->Metric("commit_tps", Median(per_half_second), "1/s", per_half_second.size());
  std::vector<double> p50s, p99s;
  for (const auto& sec : latency_per_second) {
    p50s.push_back(Quantile(sec, 0.50));
    p99s.push_back(Quantile(sec, 0.99));
  }
  std::string trail;
  for (size_t i = 0; i < p99s.size(); i++) {
    trail += " " + std::to_string(static_cast<int>(per_half_second[2 * i])) + "/" +
             std::to_string(static_cast<int>(p99s[i]));
  }
  std::fprintf(stderr, "per second (commits/s / p99 us):%s\n", trail.c_str());
  report->Metric("txn_latency_p50_us", Median(p50s), "us", latency.txn_us.size());
  report->Metric("txn_latency_p99_us", Median(p99s), "us", latency.txn_us.size());

  ReportEngineCounters(engine.get(), report);

  Engine::StableSnapshot snap;
  Status s;
  {
    ScopedSpan span(main_spans, "engine.snapshot");
    s = engine->TakeStableSnapshot(&snap);
  }
  report->Metric("core.crash_protocol_s", (NowNs() - end) / 1e9, "s");
  if (!s.ok()) {
    report->Fail("snapshot failed: " + s.ToString());
    return true;
  }
  if (args.inject == Inject::kDropAck) {
    std::sort(acked.begin(), acked.end());
    const bool cut = DropLastAckedCommit(engine.get(), &snap, [&](deutero::TxnId id) {
      return std::binary_search(acked.begin(), acked.end(), id);
    });
    if (!cut) report->Fail("drop-ack control: no acknowledged commit to cut");
  }

  RecoveryPlan plan;
  plan.seconds = args.seconds / 4;
  plan.min_rounds = 3;
  plan.expected_undo_ops = -1;
  plan.max_undo_ops = losers.size();
  for (const auto& txn : cut_at_commit) {
    plan.max_undo_ops += txn.size();
    for (const PendingWrite& w : txn) plan.point_keys.push_back(w.key);
  }
  for (const PendingWrite& w : losers) plan.point_keys.push_back(w.key);
  plan.settle = [&cut_at_commit](Engine* e, TableOracle* o, Report* r) {
    for (const auto& txn : cut_at_commit) SettleCutCommit(txn, e, o, r);
  };
  std::sort(plan.point_keys.begin(), plan.point_keys.end());
  plan.point_keys.erase(std::unique(plan.point_keys.begin(), plan.point_keys.end()),
                        plan.point_keys.end());
  RecoveryOutcome out;
  RecoverAndCheck(engine.get(), snap, &oracle, plan, args, main_spans, report, &out);
  ReportRecovery(out, report);
  ReportClientLatency(latency, report);

  if (args.trace && engine->running()) {
    ReportLedger(engine.get(), snap, out, main_spans, report);
  }
  std::fprintf(stderr, "commit: %llu acknowledged, %zu cut at commit, %zu loser writes\n",
               static_cast<unsigned long long>(committed), cut_at_commit.size(),
               losers.size());
  return true;
}

}  // namespace perfbench
