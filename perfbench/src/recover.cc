#include <cstdio>
#include <limits>

#include "workloads.h"

namespace perfbench {

using deutero::Engine;
using deutero::RecoveryStats;
using deutero::ScanCursor;
using deutero::Status;
using deutero::Table;

void TableOracle::ExpectedDigest(uint64_t* digest, uint64_t* rows) const {
  std::vector<std::pair<Key, uint32_t>> written(versions_.begin(), versions_.end());
  std::sort(written.begin(), written.end());
  RowDigest d;
  std::vector<uint8_t> buf(value_size_);
  size_t w = 0;
  auto add = [&](Key k, uint32_t version) {
    if (version == kDeleted) return;
    ValueOf(k, version, salt_, value_size_, buf.data());
    d.Add(k, buf.data(), buf.size());
  };
  for (Key k = 0; k < loaded_rows_; k++) {
    if (w < written.size() && written[w].first == k) {
      add(k, written[w++].second);
    } else {
      add(k, 0);
    }
  }
  for (; w < written.size(); w++) add(written[w].first, written[w].second);
  *digest = d.digest();
  *rows = d.rows();
}

namespace {

int MethodIndex(deutero::RecoveryMethod m) {
  for (int i = 0; i < 5; i++) {
    if (kMethods[i] == m) return i;
  }
  return 0;
}

/// Find the first row where the engine and the oracle part (called only
/// after a digest mismatch, to say what went wrong).
std::string DescribeDivergence(const Table& t, const TableOracle& o) {
  ScanCursor c;
  if (!t.Scan(0, std::numeric_limits<Key>::max(), &c).ok()) return "scan failed";
  Key expect = 0;
  while (c.Valid()) {
    const Key k = c.key();
    for (; expect < k && expect < o.loaded_rows(); expect++) {
      if (o.Live(expect)) return "live key " + std::to_string(expect) + " missing";
    }
    if (!o.Live(k)) return "absent key " + std::to_string(k) + " present";
    if (o.Expected(k) != std::string(c.value().data(), c.value().size())) {
      return "key " + std::to_string(k) + " has a wrong value";
    }
    expect = k + 1;
    if (!c.Next().ok()) return "scan cursor failed";
  }
  for (; expect < o.loaded_rows(); expect++) {
    if (o.Live(expect)) return "live key " + std::to_string(expect) + " missing";
  }
  return "a fresh key past the loaded range is missing";
}

/// The oracle checks of one recovered image: with `scan`, a full scan must
/// return exactly the expected live rows in order (digest and count); every
/// point key must read back its committed value or NotFound.
void VerifyImage(Engine* engine, const TableOracle& oracle, bool scan,
                 uint64_t want_digest, uint64_t want_rows,
                 const std::vector<Key>& point_keys, const std::string& label,
                 SpanBuffer* spans, Report* report, std::vector<double>* read_us) {
  Table t;
  if (!engine->OpenDefaultTable(&t).ok()) {
    report->Fail(label + ": default table missing after recovery");
    return;
  }
  if (scan) {
    ScopedSpan span(spans, "check.scan");
    ScanCursor c;
    Status s = t.Scan(0, std::numeric_limits<Key>::max(), &c);
    RowDigest d;
    bool ordered = true;
    Key prev = 0;
    while (s.ok() && c.Valid()) {
      const Key k = c.key();
      if (d.rows() > 0 && k <= prev) ordered = false;
      prev = k;
      const deutero::Slice v = c.value();
      d.Add(k, reinterpret_cast<const uint8_t*>(v.data()), v.size());
      s = c.Next();
    }
    if (!s.ok()) {
      report->Fail(label + ": scan failed: " + s.ToString());
    } else if (!ordered) {
      report->Fail(label + ": scan returned keys out of order");
    } else if (d.rows() != want_rows || d.digest() != want_digest) {
      report->Fail(label + ": scan returned " + std::to_string(d.rows()) +
                   " rows, expected " + std::to_string(want_rows) +
                   " (digest " + (d.digest() == want_digest ? "equal" : "differs") +
                   "); first divergence: " + DescribeDivergence(t, oracle));
    }
  }
  ScopedSpan span(spans, "check.point_reads");
  std::string got;
  for (Key k : point_keys) {
    const int64_t t0 = read_us != nullptr ? NowNs() : 0;
    const Status s = t.Read(k, &got);
    if (read_us != nullptr) read_us->push_back((NowNs() - t0) / 1e3);
    if (oracle.Live(k)) {
      if (!s.ok() || got != oracle.Expected(k)) {
        report->Fail(label + ": key " + std::to_string(k) +
                     " does not read back its committed value (" + s.ToString() + ")");
        return;
      }
    } else if (!s.IsNotFound()) {
      report->Fail(label + ": key " + std::to_string(k) +
                   " should be absent but reads " + s.ToString());
      return;
    }
  }
}

}  // namespace

void RecoverAndCheck(Engine* engine, const Engine::StableSnapshot& snap,
                     TableOracle* oracle, const RecoveryPlan& plan,
                     const Args& args, SpanBuffer* spans, Report* report,
                     RecoveryOutcome* out) {
  uint64_t want_digest = 0;
  uint64_t want_rows = 0;
  bool settled = false;
  const int64_t begin_ns = NowNs();
  for (uint64_t round = 0;; round++) {
    if (round >= plan.min_rounds && (NowNs() - begin_ns) / 1e9 >= plan.seconds) break;
    ScopedSpan round_span(spans, "round");
    uint64_t applied[5] = {};
    for (deutero::RecoveryMethod m : kMethods) {
      const int mi = MethodIndex(m);
      const std::string label = std::string(deutero::RecoveryMethodName(m)) +
                                " round " + std::to_string(round);
      if (engine->running()) {
        ScopedSpan span(spans, "engine.crash");
        engine->SimulateCrash();
      }
      {
        ScopedSpan span(spans, "engine.restore");
        const int64_t t0 = NowNs();
        const Status s = engine->RestoreStableSnapshot(snap);
        out->restore_ms.push_back((NowNs() - t0) / 1e6);
        if (!s.ok()) {
          report->Fail(label + ": restore failed: " + s.ToString());
          return;
        }
      }
      RecoveryStats st;
      Status s;
      {
        ScopedSpan span(spans, "engine.recover");
        const int64_t t0 = NowNs();
        s = engine->Recover(m, &st);
        out->wall_ms[mi].push_back((NowNs() - t0) / 1e6);
      }
      report->attempted++;
      if (!s.ok()) {
        report->failed++;
        report->Fail(label + ": Recover failed: " + s.ToString());
        continue;
      }
      if (args.inject == Inject::kRedoIdentity && round == 0 &&
          m == deutero::RecoveryMethod::kLog1) {
        st.redo_applied++;
      }
      const std::string identity = CheckRedoIdentity(st);
      if (!identity.empty()) report->Fail(label + ": " + identity);
      if (plan.expected_undo_ops >= 0 &&
          st.undo_ops != static_cast<uint64_t>(plan.expected_undo_ops)) {
        report->Fail(label + ": undid " + std::to_string(st.undo_ops) +
                     " operations, the loser has " +
                     std::to_string(plan.expected_undo_ops));
      }
      if (plan.expected_undo_ops < 0 && st.undo_ops > plan.max_undo_ops) {
        report->Fail(label + ": undid " + std::to_string(st.undo_ops) +
                     " operations, more than the crash cut off (" +
                     std::to_string(plan.max_undo_ops) + ")");
      }
      applied[mi] = st.redo_applied;
      out->stats[mi].push_back(st);

      if (!settled) {
        if (plan.settle) plan.settle(engine, oracle, report);
        if (args.inject == Inject::kOracle) {
          // Perturb the expectation of one written key (or key 0).
          Key k = plan.point_keys.empty() ? 0 : plan.point_keys.front();
          const uint32_t v = oracle->VersionOf(k);
          oracle->Set(k, v == kDeleted ? 0 : v + 1);
        }
        ScopedSpan span(spans, "oracle.digest");
        oracle->ExpectedDigest(&want_digest, &want_rows);
        settled = true;
      }
      VerifyImage(engine, *oracle, round == 0, want_digest, want_rows, plan.point_keys,
                  label, spans, report, args.trace ? &out->read_us : nullptr);
      if (plan.after_check) plan.after_check(engine);
    }
    // Methods of one family must re-execute exactly the same operations.
    const auto idx = [](deutero::RecoveryMethod m) { return MethodIndex(m); };
    using deutero::RecoveryMethod;
    if (applied[idx(RecoveryMethod::kLog0)] != applied[idx(RecoveryMethod::kLog1)] ||
        applied[idx(RecoveryMethod::kLog1)] != applied[idx(RecoveryMethod::kLog2)]) {
      report->Fail("round " + std::to_string(round) +
                   ": redo_applied differs across Log0/Log1/Log2 (" +
                   std::to_string(applied[idx(RecoveryMethod::kLog0)]) + "/" +
                   std::to_string(applied[idx(RecoveryMethod::kLog1)]) + "/" +
                   std::to_string(applied[idx(RecoveryMethod::kLog2)]) + ")");
    }
    if (applied[idx(RecoveryMethod::kSql1)] != applied[idx(RecoveryMethod::kSql2)]) {
      report->Fail("round " + std::to_string(round) +
                   ": redo_applied differs across Sql1/Sql2 (" +
                   std::to_string(applied[idx(RecoveryMethod::kSql1)]) + "/" +
                   std::to_string(applied[idx(RecoveryMethod::kSql2)]) + ")");
    }
    out->rounds = round + 1;
  }
}

void ReportRecovery(const RecoveryOutcome& out, Report* report) {
  for (int i = 0; i < 5; i++) {
    const std::string k = MethodKey(kMethods[i]);
    std::vector<double> sim;
    for (const RecoveryStats& st : out.stats[i]) sim.push_back(st.total_ms);
    report->Metric("recover_sim_ms." + k, Median(sim), "ms", sim.size());
    report->Metric("recover_wall_ms." + k, Median(out.wall_ms[i]), "ms",
                   out.wall_ms[i].size());
    ReportRecoveryLayers(out.stats[i], kMethods[i], report);
  }
  report->Metric("core.snapshot_restore_ms", Median(out.restore_ms), "ms",
                 out.restore_ms.size());

  std::fprintf(stderr, "recovery: %llu round(s) of 5 methods\n",
               static_cast<unsigned long long>(out.rounds));
  for (int i = 0; i < 5; i++) {
    if (out.stats[i].empty()) continue;
    double lo = out.stats[i].front().total_ms, hi = lo;
    uint64_t pf_lo = out.stats[i].front().prefetch_issued, pf_hi = pf_lo;
    for (const RecoveryStats& st : out.stats[i]) {
      lo = std::min(lo, st.total_ms);
      hi = std::max(hi, st.total_ms);
      pf_lo = std::min(pf_lo, st.prefetch_issued);
      pf_hi = std::max(pf_hi, st.prefetch_issued);
    }
    std::fprintf(stderr,
                 "  %s: simulated %.3f..%.3f ms, prefetch %llu..%llu, wall median "
                 "%.2f ms, undo %.3f sim ms\n",
                 MethodKey(kMethods[i]), lo, hi, static_cast<unsigned long long>(pf_lo),
                 static_cast<unsigned long long>(pf_hi), Median(out.wall_ms[i]),
                 out.stats[i].front().undo.ms);
  }
}

bool DropLastAckedCommit(Engine* engine, Engine::StableSnapshot* snap,
                         const std::function<bool(deutero::TxnId)>& acked) {
  if (!engine->RestoreStableSnapshot(*snap).ok()) return false;
  deutero::Lsn cut = deutero::kInvalidLsn;
  auto it = engine->wal().NewIterator(deutero::kFirstLsn, /*charge_io=*/false);
  for (; it.Valid(); it.Next()) {
    const auto& rec = it.record();
    if (rec.type == deutero::LogRecordType::kTxnCommit && acked(rec.txn_id)) {
      cut = it.lsn();
    }
  }
  if (cut == deutero::kInvalidLsn || cut >= snap->log.stable_log.size()) return false;
  snap->log.stable_log.resize(cut);
  return true;
}

void ReportClientLatency(const LatencySample& s, Report* report) {
  report->Metric("tc.update_us.p50", Quantile(s.update_us, 0.50), "us", s.update_us.size());
  report->Metric("tc.read_us.p50", Quantile(s.read_us, 0.50), "us", s.read_us.size());
  report->Metric("tc.commit_call_us.p50", Quantile(s.commit_us, 0.50), "us",
                 s.commit_us.size());
  report->Metric("tc.commit_call_us.p99", Quantile(s.commit_us, 0.99), "us",
                 s.commit_us.size());
}

}  // namespace perfbench
