// Shared pieces of the benchmark program: arguments, the seeded generator,
// the benchmark's own value oracle and row digest, timing helpers, the
// result report and the in-memory span recorder.
//
// Nothing here comes from src/workload/: the inputs and the checks are the
// benchmark's own, so a change under src/ cannot change what is generated or
// what counts as correct. The engine is driven only through its public API
// (Engine, Txn, Table, StableSnapshot and the component accessors).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/options.h"
#include "common/types.h"
#include "recovery/stats.h"

namespace perfbench {

using deutero::Key;
using deutero::RecoveryMethod;

// ---------------------------------------------------------------- arguments

/// Deliberate faults for the negative controls: each one must turn a clean
/// run into `correct: false`.
enum class Inject {
  kNone,
  kOracle,         ///< Perturb one expected value in the oracle.
  kDropAck,        ///< Cut the last acknowledged commit out of the crash image.
  kRedoIdentity,   ///< Break the redo-outcome sum of one recovery.
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;  ///< Reduced geometry (negative-control tests).
  Inject inject = Inject::kNone;
  /// Overrides a crash workload's recovery_threads (0 keeps the workload's
  /// own). The forward phase does not depend on it, so a seed gives the
  /// same crash image either way: used for the reference figures only.
  uint32_t recovery_threads = 0;
  std::string out_dir = ".bench_out";
};

// ---------------------------------------------------------------- random

/// splitmix64: tiny, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

// ---------------------------------------------------------------- oracle

/// Version marking a committed delete.
inline constexpr uint32_t kDeleted = 0xffffffffu;

/// Expected payload of `key` at `version`. Version 0 is the row the engine
/// bulk-loads at Engine::Open (its documented load payload, restated here
/// so the check does not borrow the engine's code); later versions are the
/// benchmark's own writes and depend on `salt`, which comes from the seed.
inline void ValueOf(Key key, uint32_t version, uint64_t salt, uint32_t size,
                    uint8_t* out) {
  uint64_t state;
  if (version == 0) {
    state = key * 0x9e3779b97f4a7c15ULL + 1;
    for (uint32_t i = 0; i < size; i++) {
      state ^= state >> 12;
      state ^= state << 25;
      state ^= state >> 27;
      out[i] = static_cast<uint8_t>((state * 0x2545f4914f6cdd1dULL) >> 56);
    }
    return;
  }
  Rng r(salt ^ (key * 0xd6e8feb86659fd93ULL) ^
        (uint64_t{version} << 32 | version));
  for (uint32_t i = 0; i < size; i += 8) {
    const uint64_t w = r.Next();
    std::memcpy(out + i, &w, std::min<uint32_t>(8, size - i));
  }
}

inline std::string ValueString(Key key, uint32_t version, uint64_t salt,
                               uint32_t size) {
  std::string s(size, '\0');
  ValueOf(key, version, salt, size, reinterpret_cast<uint8_t*>(s.data()));
  return s;
}

/// Order-sensitive digest of a row sequence: equal digests and counts mean
/// the same rows, with the same payloads, in the same order.
class RowDigest {
 public:
  void Add(Key key, const uint8_t* value, size_t n) {
    uint64_t h = Mix(key ^ 0x2d358dccaa6c78a5ULL);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      uint64_t w;
      std::memcpy(&w, value + i, 8);
      h = Mix(h ^ w);
    }
    uint64_t tail = 0;
    std::memcpy(&tail, value + i, n - i);
    h = Mix(h ^ tail ^ (uint64_t{n} << 56));
    digest_ = Mix(digest_ * 0x100000001b3ULL ^ h);
    rows_++;
  }
  uint64_t digest() const { return digest_; }
  uint64_t rows() const { return rows_; }

 private:
  static uint64_t Mix(uint64_t z) {
    z = (z ^ (z >> 33)) * 0xff51afd7ed558ccdULL;
    z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53ULL;
    return z ^ (z >> 33);
  }
  uint64_t digest_ = 0xcbf29ce484222325ULL;
  uint64_t rows_ = 0;
};

// ---------------------------------------------------------------- timing

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Start of the process's measured life: setup_s counts from here.
int64_t ProcessStartNs();

/// q-quantile (0..1) by nearest rank of a sample; 0 for an empty one.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// ---------------------------------------------------------------- methods

inline constexpr RecoveryMethod kMethods[] = {
    RecoveryMethod::kLog0, RecoveryMethod::kLog1, RecoveryMethod::kSql1,
    RecoveryMethod::kLog2, RecoveryMethod::kSql2};

/// Metric-name suffix of a method ("log0", "sql2", ...).
const char* MethodKey(RecoveryMethod m);

// ---------------------------------------------------------------- spans

/// One span around a call the benchmark makes into a layer. Spans of one
/// client transaction share `trace`; `parent` is the enclosing span.
struct Span {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t trace;
  int64_t start_ns;
  int64_t end_ns;
};

/// Per-thread span store, kept in memory and written out at the end. A
/// buffer keeps its first `capacity` spans and counts the rest, so a long
/// traced run cannot exhaust memory.
class SpanBuffer {
 public:
  void Reserve(size_t capacity) {
    capacity_ = capacity;
    spans_.reserve(capacity);
  }
  void Add(const Span& s) {
    if (spans_.size() < capacity_) {
      spans_.push_back(s);
    } else {
      dropped_++;
    }
  }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  size_t capacity_ = 0;
  uint64_t dropped_ = 0;
};

/// RAII span around one call; a null buffer (tracing off) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buf, const char* name, uint64_t trace = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buf_;
  Span span_{};
  uint64_t saved_parent_ = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// A new buffer for one thread (owned by the tracer, stable address),
  /// or null when tracing is off.
  SpanBuffer* NewBuffer(size_t capacity);
  /// Write every buffer, plus per-name count / total / self time, as JSON.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

// ---------------------------------------------------------------- report

/// Collected outcome of one run: metrics by name, operation counts, and the
/// correctness verdict (the first failures, with their reasons).
class Report {
 public:
  /// Record a metric; `samples` is how many measurements it summarises.
  void Metric(const std::string& name, double value, const char* unit,
              uint64_t samples = 1) {
    metrics_[name] = {value, unit, samples};
  }
  void Fail(const std::string& what);
  bool correct() const { return failures_ == 0; }
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// The result line: end-to-end metrics untraced, per-layer when traced.
  std::string ResultJson(bool trace) const;
  /// Every metric with its sample count, for the side channel (stderr).
  std::string AllMetricsText() const;

 private:
  struct Value {
    double value;
    const char* unit;
    uint64_t samples;
  };
  std::map<std::string, Value> metrics_;
  uint64_t failures_ = 0;
};

/// Names of the end-to-end metrics (everything else is per-layer).
bool IsEndToEnd(const std::string& name);

// ---------------------------------------------------------------- shared

/// Per-recovery counters every workload turns into the `recovery.*` and
/// `storage.*` per-layer metrics.
void ReportRecoveryLayers(const std::vector<deutero::RecoveryStats>& runs,
                          RecoveryMethod m, Report* report);

/// The recovery accounting checks that need no oracle: the redo outcomes
/// sum to the records examined. Returns an empty string when they hold.
std::string CheckRedoIdentity(const deutero::RecoveryStats& st);

/// Parse the command line; returns false (after printing why) on bad input.
bool ParseArgs(int argc, char** argv, Args* out);

}  // namespace perfbench
