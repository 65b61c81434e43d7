// The benchmark's oracle and the recovery round every workload shares:
// restore one crash image, recover it with each of the five methods, and
// check the result against the oracle and against the properties every
// method must have.
#pragma once

#include <functional>
#include <unordered_map>

#include "bench.h"
#include "core/engine.h"

namespace perfbench {

/// Expected committed state of the default table: the version of every key
/// the benchmark wrote (kDeleted for a committed delete). Keys below
/// `loaded_rows` that were never written hold their load payload; keys past
/// it exist only if written.
class TableOracle {
 public:
  TableOracle(uint64_t loaded_rows, uint32_t value_size, uint64_t salt)
      : loaded_rows_(loaded_rows), value_size_(value_size), salt_(salt) {}

  void Set(Key k, uint32_t version) { versions_[k] = version; }
  void Reserve(size_t keys) { versions_.reserve(keys); }
  uint32_t VersionOf(Key k) const {
    auto it = versions_.find(k);
    if (it != versions_.end()) return it->second;
    return k < loaded_rows_ ? 0 : kDeleted;
  }
  bool Live(Key k) const { return VersionOf(k) != kDeleted; }
  std::string Expected(Key k) const {
    return ValueString(k, VersionOf(k), salt_, value_size_);
  }
  void Merge(const TableOracle& other) {
    for (const auto& [k, v] : other.versions_) versions_[k] = v;
  }

  /// Digest and count of every live row in key order (see RowDigest).
  void ExpectedDigest(uint64_t* digest, uint64_t* rows) const;

  uint64_t loaded_rows() const { return loaded_rows_; }
  uint32_t value_size() const { return value_size_; }
  uint64_t salt() const { return salt_; }

 private:
  uint64_t loaded_rows_;
  uint32_t value_size_;
  uint64_t salt_;
  std::unordered_map<Key, uint32_t> versions_;
};

/// How one workload wants its crash image recovered and checked.
struct RecoveryPlan {
  /// Keep running whole rounds (each method once) until at least
  /// `min_rounds` have run and `seconds` have passed since the first began.
  double seconds = 0;
  uint64_t min_rounds = 1;
  /// Required RecoveryStats::undo_ops, or -1 when the crash cut off an
  /// unknown number of operations (then undo_ops is only bounded above).
  int64_t expected_undo_ops = -1;
  uint64_t max_undo_ops = 0;
  /// Keys read back point-wise, through the index, after every recovery.
  /// The full scan, which covers every row, runs after each method's first
  /// recovery: one scan costs far more than the recovery it checks.
  std::vector<Key> point_keys;
  /// Run once, right after the first recovery and before its checks: the
  /// commit workloads settle commits whose acknowledgement the crash cut
  /// off by reading them back, and fold the outcome into the oracle.
  std::function<void(deutero::Engine*, TableOracle*, Report*)> settle;
  /// Run on the recovered engine after every recovery's checks.
  std::function<void(deutero::Engine*)> after_check;
};

struct RecoveryOutcome {
  std::vector<deutero::RecoveryStats> stats[5];  ///< Per method, per round.
  std::vector<double> wall_ms[5];
  std::vector<double> restore_ms;
  std::vector<double> read_us;  ///< Point-read call latencies (traced runs).
  uint64_t rounds = 0;
};

/// Restore `snap` and recover it with every method, for as many rounds as
/// `plan` asks; check each recovery. The engine ends recovered (running)
/// after the last method. Counts one attempted operation per recovery.
void RecoverAndCheck(deutero::Engine* engine,
                     const deutero::Engine::StableSnapshot& snap,
                     TableOracle* oracle, const RecoveryPlan& plan,
                     const Args& args, SpanBuffer* spans, Report* report,
                     RecoveryOutcome* out);

/// The end-to-end recover_* metrics and the per-layer recovery, storage and
/// wal metrics of `out`, plus core.snapshot_restore_ms.
void ReportRecovery(const RecoveryOutcome& out, Report* report);

/// Cut the crash image's log just before the last commit record of a
/// transaction `acked` accepts (the dropped-acknowledged-commit control).
/// The engine must be crashed; it is left holding the cut image.
bool DropLastAckedCommit(deutero::Engine* engine,
                         deutero::Engine::StableSnapshot* snap,
                         const std::function<bool(deutero::TxnId)>& acked);

/// Layer ledger: time three public calls on the recovered image (a log
/// iterator over the crash image's redo window, FindLeaf on each redo key,
/// a pool Get of a resident page), report their unit costs, and print them
/// times RecoveryStats counts against the measured recovery wall time (the
/// residual is reported, not checked). The engine must be running.
void ReportLedger(deutero::Engine* engine, const deutero::Engine::StableSnapshot& snap,
                  const RecoveryOutcome& out, SpanBuffer* spans, Report* report);

/// The wal, concurrency and dc counters the engine kept since Open.
void ReportEngineCounters(deutero::Engine* engine, Report* report);

/// Distribution helpers for client-side latencies (µs).
struct LatencySample {
  std::vector<double> txn_us, update_us, read_us, commit_us;
  void Append(const LatencySample& o) {
    txn_us.insert(txn_us.end(), o.txn_us.begin(), o.txn_us.end());
    update_us.insert(update_us.end(), o.update_us.begin(), o.update_us.end());
    read_us.insert(read_us.end(), o.read_us.begin(), o.read_us.end());
    commit_us.insert(commit_us.end(), o.commit_us.begin(), o.commit_us.end());
  }
};
/// The tc.* per-layer metrics from client call samples.
void ReportClientLatency(const LatencySample& s, Report* report);

/// Workload entry points; both return false for an unknown workload name.
bool RunCrashWorkload(const Args& args, Tracer* tracer, Report* report);
bool RunCommitWorkload(const Args& args, Tracer* tracer, Report* report);

}  // namespace perfbench
