// Shared pieces of the tgbench driver: clocks, exact percentiles, the
// in-memory span recorder, the metric sheet printed at exit, and the
// seeded request generators both serving workloads draw from.

#ifndef TGBENCH_COMMON_H_
#define TGBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/tg/graph.h"
#include "src/util/prng.h"

namespace tgbench {

// ---- Clocks and process figures. ----

uint64_t NowNs();                 // steady_clock, nanoseconds
double ProcessCpuSeconds();       // CPU time of every thread of this process
double PeakRssMb();               // getrusage max resident set, MiB
double Median(std::vector<double> v);
// Exact percentile of raw samples, linear interpolation between closest
// ranks (the same rule as numpy's default); 0 for an empty set.
double Percentile(std::vector<double> v, double q);

// ---- Run description and the metric sheet. ----

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Everything a workload reports.  `values` holds metric values by name
// (the printed sheet and its units come from the tables in workloads.h).
// A sheet metric the workload leaves unset prints as 0 only when it is
// listed in `not_applicable` (the layer does no work there); any other
// unset metric fails the run, so a renamed counter cannot pass as "no
// work".  `notes` are context fields (seed, nproc, sample counts, ...)
// printed on the line before the result.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // first few correctness failures
  std::map<std::string, double> values;
  std::set<std::string> not_applicable;
  std::vector<std::pair<std::string, std::string>> notes;  // raw JSON values

  void Note(const std::string& name, double value);
  void Note(const std::string& name, const std::string& text);
  // Records a failed check (keeps the first few messages).
  void Fail(const std::string& message);
};

// ---- Spans. ----

// One bench-side span around a call into a layer's public function.
struct Span {
  const char* name = "";  // "<layer>.<what>", e.g. "analysis.can_share"
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t id = 0;        // 1-based, unique within its SpanLog
  uint32_t parent = 0;    // 0 = root
  uint64_t request = 0;   // request (or audit) id shared by a span tree
};

// Single-threaded span log: Begin/End nest like a stack.  Each thread that
// records owns its own log; logs are merged only after the threads joined.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Opens a span under the innermost open span; returns its index (or
  // SIZE_MAX when disabled).
  size_t Begin(const char* name, uint64_t request);
  // Closes the span Begin returned; returns its duration in ns (0 when
  // disabled).
  uint64_t End(size_t index);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

// RAII wrapper: times one call whether or not the log records it, so the
// caller always gets the duration.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, uint64_t request)
      : log_(log), index_(log.Begin(name, request)), start_(NowNs()) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  // Ends the span now; returns its duration in ns.  Idempotent.
  uint64_t Close();

 private:
  SpanLog& log_;
  size_t index_;
  uint64_t start_;
  uint64_t elapsed_ = 0;
  bool closed_ = false;
};

// Self time (duration minus the summed durations of direct children) per
// layer, where a span's layer is its name up to the first '.'.  Children
// of one parent never overlap: every log is single-threaded.
std::vector<std::pair<std::string, double>> SelfNsByLayer(const std::vector<Span>& spans);

// Writes spans as JSON lines (name, start_ns, end_ns, id, parent, request,
// thread) to `path`, creating parent directories.  Returns false on error.
bool WriteSpans(const std::string& path, const std::vector<std::vector<Span>>& logs);

// ---- Seeded request streams. ----

// Zipf(s=1) sampler over [0, n): rank 0 is the hottest key.
class Zipf {
 public:
  Zipf(size_t n, uint64_t seed);
  size_t Next();
  tg_util::Prng& prng() { return prng_; }

 private:
  tg_util::Prng prng_;
  std::vector<double> cdf_;
};

// The serving read mix: uniform over can_know / can_knowf / can_share r /
// knowable, Zipf endpoints over `names`.
std::string MakeReadLine(Zipf& zipf, const std::vector<std::string>& names);

// What the admit mix draws from: the initial graph, every vertex name by
// id, its subjects, and the actors a planted cross-level bridge exposes.
struct AdmitPool {
  const tg::ProtectionGraph* graph = nullptr;
  std::vector<std::string> names;
  std::vector<tg::VertexId> subjects;
  std::vector<tg::VertexId> exposed;
};

// The serving admit mix (bench_server's, extended so the gate's Theorem 5.5
// check runs): half guaranteed-acceptable creates (fresh object names
// bx<seq>); a quarter bench_server's take/grant rules between Zipf
// endpoints, whose preconditions almost never hold, so the gate rejects
// them; a quarter take/grant rules whose preconditions hold on the initial
// graph (and so on every later one: the mix never removes an edge), which
// reach the connection check and are accepted or vetoed.  Half of the
// latter have an exposed actor.
std::string MakeAdmitLine(Zipf& zipf, const AdmitPool& pool, size_t* create_seq);

// Value of `"key":<number>` anywhere in a flat or nested JSON text;
// nullopt when absent.  Keys in the server's responses and registry dump
// are unique.
std::optional<double> JsonNumber(std::string_view json, std::string_view key);

}  // namespace tgbench

#endif  // TGBENCH_COMMON_H_
