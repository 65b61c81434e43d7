#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "bench.h"

namespace perfbench {

namespace {
// Initialised before main(): the cold set-up is timed from here.
const int64_t g_process_start_ns = NowNs();

thread_local uint64_t t_current_span = 0;
thread_local uint64_t t_span_prefix = 0;
thread_local uint64_t t_span_seq = 0;
std::atomic<uint64_t> g_span_threads{0};

uint64_t NextSpanId() {
  if (t_span_prefix == 0) {
    t_span_prefix = (g_span_threads.fetch_add(1) + 1) << 40;
  }
  return t_span_prefix | ++t_span_seq;
}
}  // namespace

int64_t ProcessStartNs() { return g_process_start_ns; }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

const char* MethodKey(RecoveryMethod m) {
  switch (m) {
    case RecoveryMethod::kLog0: return "log0";
    case RecoveryMethod::kLog1: return "log1";
    case RecoveryMethod::kLog2: return "log2";
    case RecoveryMethod::kSql1: return "sql1";
    case RecoveryMethod::kSql2: return "sql2";
  }
  return "unknown";
}

// ---------------------------------------------------------------- spans

ScopedSpan::ScopedSpan(SpanBuffer* buf, const char* name, uint64_t trace)
    : buf_(buf) {
  if (buf_ == nullptr) return;
  span_.name = name;
  span_.id = NextSpanId();
  span_.parent = t_current_span;
  span_.trace = trace;
  saved_parent_ = t_current_span;
  t_current_span = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (buf_ == nullptr) return;
  span_.end_ns = NowNs();
  t_current_span = saved_parent_;
  buf_->Add(span_);
}

SpanBuffer* Tracer::NewBuffer(size_t capacity) {
  if (!enabled_) return nullptr;
  buffers_.push_back(std::make_unique<SpanBuffer>());
  buffers_.back()->Reserve(capacity);
  return buffers_.back().get();
}

bool Tracer::WriteJson(const std::string& path) const {
  if (!enabled_) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Per-name aggregates: a span's self time is its duration minus the part
  // covered by its direct children (children never outlive their parent).
  struct Agg {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Agg> agg;
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans()) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  uint64_t dropped = 0;
  std::fprintf(f, "{\"spans\": [\n");
  bool first = true;
  for (const auto& b : buffers_) {
    dropped += b->dropped();
    for (const Span& s : b->spans()) {
      Agg& a = agg[s.name];
      a.count++;
      a.total_ns += s.end_ns - s.start_ns;
      auto it = child_ns.find(s.id);
      a.self_ns += s.end_ns - s.start_ns - (it == child_ns.end() ? 0 : it->second);
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                   ",\"trace\":%" PRIu64 ",\"start_ns\":%" PRId64
                   ",\"end_ns\":%" PRId64 "}",
                   first ? "" : ",\n", s.name, s.id, s.parent, s.trace,
                   s.start_ns - g_process_start_ns,
                   s.end_ns - g_process_start_ns);
      first = false;
    }
  }
  std::fprintf(f, "\n], \"dropped_spans\": %" PRIu64 ", \"by_name\": {", dropped);
  first = true;
  for (const auto& [name, a] : agg) {
    std::fprintf(f,
                 "%s\n\"%s\": {\"count\": %" PRIu64 ", \"total_ms\": %.6f, "
                 "\"self_ms\": %.6f}",
                 first ? "" : ",", name.c_str(), a.count, a.total_ns / 1e6,
                 a.self_ns / 1e6);
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------- report

void Report::Fail(const std::string& what) {
  if (failures_ < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  failures_++;
}

bool IsEndToEnd(const std::string& name) {
  return name.rfind("recover_sim_ms.", 0) == 0 ||
         name.rfind("recover_wall_ms.", 0) == 0 || name == "commit_tps" ||
         name == "txn_latency_p50_us" || name == "txn_latency_p99_us" ||
         name == "setup_s";
}

std::string Report::ResultJson(bool trace) const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[256];
  for (const auto& [name, v] : metrics_) {
    if (IsEndToEnd(name) == trace) continue;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(),
                  std::isfinite(v.value) ? v.value : 0.0, v.unit);
    out += buf;
    first = false;
  }
  out += "}}";
  return out;
}

std::string Report::AllMetricsText() const {
  std::string out;
  char buf[256];
  for (const auto& [name, v] : metrics_) {
    std::snprintf(buf, sizeof(buf), "  %-44s %16.6f %-6s n=%llu\n", name.c_str(),
                  v.value, v.unit, static_cast<unsigned long long>(v.samples));
    out += buf;
  }
  return out;
}

// ---------------------------------------------------------------- shared

void ReportRecoveryLayers(const std::vector<deutero::RecoveryStats>& runs,
                          RecoveryMethod m, Report* report) {
  const std::string k = MethodKey(m);
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const auto& st : runs) v.push_back(static_cast<double>(field(st)));
    return Median(std::move(v));
  };
  using S = deutero::RecoveryStats;
  report->Metric("recovery.analysis_sim_ms." + k,
                 med([](const S& s) { return s.dc_pass.ms + s.analysis.ms; }), "ms");
  report->Metric("recovery.redo_sim_ms." + k, med([](const S& s) { return s.redo.ms; }), "ms");
  report->Metric("recovery.undo_sim_ms." + k, med([](const S& s) { return s.undo.ms; }), "ms");
  report->Metric("recovery.redo_applied." + k,
                 med([](const S& s) { return s.redo_applied; }), "count");
  report->Metric("recovery.redo_skipped_dpt." + k,
                 med([](const S& s) { return s.redo_skipped_dpt; }), "count");
  report->Metric("recovery.redo_skipped_rlsn." + k,
                 med([](const S& s) { return s.redo_skipped_rlsn; }), "count");
  report->Metric("recovery.redo_skipped_plsn." + k,
                 med([](const S& s) { return s.redo_skipped_plsn; }), "count");
  report->Metric("recovery.dpt_size." + k, med([](const S& s) { return s.dpt_size; }), "count");
  report->Metric("recovery.leaf_memo_hits." + k,
                 med([](const S& s) { return s.redo_leaf_memo_hits; }), "count");
  report->Metric("recovery.prefetch_issued." + k,
                 med([](const S& s) { return s.prefetch_issued; }), "count");
  report->Metric("recovery.prefetch_used_ratio." + k, med([](const S& s) {
                   return s.prefetch_issued == 0
                              ? 0.0
                              : static_cast<double>(s.prefetch_used) /
                                    static_cast<double>(s.prefetch_issued);
                 }),
                 "ratio");
  report->Metric("recovery.dispatch_cpu_sim_ms." + k,
                 med([](const S& s) { return s.redo_dispatch_cpu_ms; }), "ms");
  report->Metric("recovery.worker_cpu_max_sim_ms." + k,
                 med([](const S& s) { return s.redo_worker_cpu_ms_max; }), "ms");
  report->Metric("recovery.worker_cpu_total_sim_ms." + k,
                 med([](const S& s) { return s.redo_worker_cpu_ms_total; }), "ms");
  report->Metric("recovery.undo_ops." + k, med([](const S& s) { return s.undo_ops; }), "count");
  report->Metric("storage.data_fetches." + k,
                 med([](const S& s) { return s.data_page_fetches; }), "count");
  report->Metric("storage.index_fetches." + k,
                 med([](const S& s) { return s.index_page_fetches; }), "count");
  report->Metric("storage.stalls." + k, med([](const S& s) { return s.stall_count; }), "count");
  report->Metric("storage.stall_sim_ms." + k, med([](const S& s) { return s.stall_ms; }), "ms");
  report->Metric("storage.index_stall_sim_ms." + k,
                 med([](const S& s) { return s.index_stall_ms; }), "ms");
  report->Metric("wal.log_pages_read." + k, med([](const S& s) {
                   return s.dc_pass.log_pages + s.analysis.log_pages +
                          s.redo.log_pages + s.undo.log_pages;
                 }),
                 "count");
}

std::string CheckRedoIdentity(const deutero::RecoveryStats& st) {
  const uint64_t outcomes = st.redo_applied + st.redo_skipped_dpt +
                            st.redo_skipped_rlsn + st.redo_skipped_plsn;
  if (outcomes != st.redo_examined) {
    return std::string(deutero::RecoveryMethodName(st.method)) +
           ": redo outcomes sum to " + std::to_string(outcomes) +
           " but " + std::to_string(st.redo_examined) + " records were examined";
  }
  return std::string();
}

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    const char* v = nullptr;
    if (a == "--small") {
      out->small = true;
      continue;
    }
    if ((v = value()) == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return false;
    }
    if (a == "--workload") {
      out->workload = v;
    } else if (a == "--seed") {
      out->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      out->seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      out->trace = std::string(v) == "1";
    } else if (a == "--recovery-threads") {
      out->recovery_threads = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (a == "--out-dir") {
      out->out_dir = v;
    } else if (a == "--inject") {
      const std::string s = v;
      if (s == "oracle") {
        out->inject = Inject::kOracle;
      } else if (s == "drop-ack") {
        out->inject = Inject::kDropAck;
      } else if (s == "redo-identity") {
        out->inject = Inject::kRedoIdentity;
      } else {
        std::fprintf(stderr, "unknown --inject %s\n", v);
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return false;
    }
  }
  if (out->workload.empty() || !(out->seconds > 0)) {
    std::fprintf(stderr, "usage: perfbench --workload <name> --seed <n> "
                         "--seconds <s> --trace <0|1> [--small] [--inject <fault>]\n"
                         "       [--recovery-threads <n>] [--out-dir <dir>]\n");
    return false;
  }
  return true;
}

}  // namespace perfbench
