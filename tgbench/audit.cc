// audit_leaky: repeated offline audits of a leaky hierarchy.
//
// The graph is a HierarchicalGraph of 8 levels x 1024 clusters x (24
// subjects + 8 objects) = 262,144 vertices with kPlanted planted
// adjacent-level take/grant channels, handed over as the .tgg / .lvl text
// audit_tool loads (set-up is parsing it).  One audit is what audit_tool does:
// a fresh AnalysisCache, then CheckSecure and FindCrossLevelChannels with
// a bounded report.  Audits repeat until the window ends; each is checked
// (insecure, secure == channels.empty() per Theorem 5.2, every violation
// and channel level-ordered, the same report every time), and the typed
// channels are replay-verified once outside the window.  Through set-up
// and the window the auditing thread is moved round every allowed CPU
// (CpuRotor), so each audit sees the average speed of the machine's vCPUs.
//
// With tracing on, audits alternate untraced / traced in ABBA order.  A
// traced audit builds the snapshot explicitly first (cache.Snapshot), so
// CheckSecure and FindCrossLevelChannels are each timed on a warm
// snapshot, and samples process CPU time around CheckSecure for the pool
// utilization.

#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/take_grant.h"
#include "src/util/metrics.h"
#include "src/util/thread_pool.h"
#include "tgbench/workloads.h"

namespace tgbench {
namespace {

constexpr size_t kPlanted = 4;
constexpr size_t kMaxReport = 16;  // bounded report, as audit_tool's
constexpr int kSetupReps = 5;
constexpr auto kRotatePeriod = std::chrono::milliseconds(50);

// Moves one thread round every CPU it may run on, to the next one each
// kRotatePeriod, until Stop.  The audit runs on one thread, and on a shared
// host each vCPU's speed moves on its own (one-second medians of a fixed
// loop pinned to each of four vCPUs at once ranged 41-76 ms, correlated
// -0.21 to 0.23 between vCPUs), so an audit that stays on one vCPU for a
// whole run measures that vCPU's neighbours.  Rotating gives every audit
// the average of all of them; a move every 50 ms costs at most an L2
// refill.
class CpuRotor {
 public:
  CpuRotor() : tid_(static_cast<pid_t>(::syscall(SYS_gettid))) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(tid_, sizeof(allowed), &allowed) != 0) {
      return;
    }
    original_ = allowed;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) {
        cpus_.push_back(cpu);
      }
    }
    if (cpus_.size() > 1) {
      thread_ = std::thread([this] { Run(); });
    }
  }
  ~CpuRotor() { Stop(); }
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;

  // Stops rotating and restores the thread's original CPU set.
  void Stop() {
    if (!thread_.joinable()) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
    ::sched_setaffinity(tid_, sizeof(original_), &original_);
  }

  size_t cpu_count() const { return cpus_.size(); }

 private:
  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    for (size_t i = 0; !stop_; ++i) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[i % cpus_.size()], &one);
      ::sched_setaffinity(tid_, sizeof(one), &one);
      cv_.wait_for(lock, kRotatePeriod, [this] { return stop_; });
    }
  }

  pid_t tid_;
  cpu_set_t original_{};
  std::vector<int> cpus_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

// The generator's own planting puts each channel at a random pair of
// adjacent levels, with a random right and direction, and its lower
// endpoint in a uniformly random cluster.  CheckSecure scans candidates in
// vertex order and stops at the report bound, so those draws alone moved
// one audit between 3.3 s and 42 s by seed.  Here the bench plants the
// same kind of adjacent-level take/grant bridge itself from a fixed plan:
// channel i joins levels hi - 1 and hi with the plan's right and
// direction, both endpoints in cluster 256 + i of their level, and the
// seed picks only the two subjects inside those clusters (and the rest of
// the graph).  Every seed then does the same scan work:
// bridge_enum.pivot_scans agreed to 0.01% over seeds 1, 99, 4242 and
// 1234567.  The context line names the plan as "<hi><t|g><u|d>" per
// channel (u: lower -> higher endpoint, d: higher -> lower).
struct Planted {
  size_t hi;
  tg::RightSet right;
  bool downward;
};
const Planted kPlan[kPlanted] = {
    {1, tg::kTake, false}, {3, tg::kGrant, true}, {5, tg::kTake, true}, {7, tg::kGrant, false}};

tg_sim::GeneratedHierarchy BuildLeaky(uint64_t seed, std::string* planted_note) {
  tg_sim::HierarchicalGraphOptions options;
  options.levels = 8;
  options.clusters_per_level = 1024;
  options.subjects_per_cluster = 24;
  options.objects_per_cluster = 8;
  options.planted_channels = 0;
  tg_util::Prng prng(seed);
  tg_sim::GeneratedHierarchy h = tg_sim::HierarchicalGraph(options, prng);
  const size_t spc = options.subjects_per_cluster;
  for (size_t planted = 0; planted < kPlanted;) {
    const size_t hi = kPlan[planted].hi;
    const size_t cluster = options.clusters_per_level / 4 + planted;
    const tg::VertexId low = h.level_subjects[hi - 1][cluster * spc + prng.NextBelow(spc)];
    const tg::VertexId high = h.level_subjects[hi][cluster * spc + prng.NextBelow(spc)];
    const tg::RightSet right = kPlan[planted].right;
    const bool downward = kPlan[planted].downward;
    if ((downward ? h.graph.AddExplicit(high, low, right) : h.graph.AddExplicit(low, high, right))
            .ok()) {
      ++planted;
      if (!planted_note->empty()) {
        planted_note->push_back(' ');
      }
      planted_note->append(std::to_string(hi));
      planted_note->push_back(right == tg::kTake ? 't' : 'g');
      planted_note->push_back(downward ? 'd' : 'u');
    }
  }
  return h;
}

// A loaded audit input.
struct Leaky {
  tg::ProtectionGraph graph;
  tg_hier::LevelAssignment levels;
};

struct Audit {
  uint64_t total_ns = 0, snapshot_ns = 0, check_ns = 0, channels_ns = 0;
  double cpu_util = 0.0;
  tg_hier::SecurityReport report;
  std::vector<tg_hier::CrossLevelChannel> channels;
};

Audit RunOneAudit(const Leaky& h, SpanLog& log, uint64_t id) {
  Audit a;
  tg_analysis::AnalysisCache cache;
  ScopedSpan root(log, "bench.audit", id);
  if (log.enabled()) {
    ScopedSpan snap(log, "snapshot.build", id);
    (void)cache.Snapshot(h.graph);
    a.snapshot_ns = snap.Close();
  }
  {
    ScopedSpan check(log, "audit.check_secure", id);
    const double cpu0 = ProcessCpuSeconds();
    a.report = tg_hier::CheckSecure(h.graph, h.levels, cache, kMaxReport);
    const double cpu = ProcessCpuSeconds() - cpu0;
    a.check_ns = check.Close();
    a.cpu_util = cpu / (static_cast<double>(a.check_ns) / 1e9 *
                        static_cast<double>(std::thread::hardware_concurrency()));
  }
  {
    ScopedSpan channels(log, "audit.channels", id);
    a.channels = tg_hier::FindCrossLevelChannels(h.graph, h.levels, cache, kMaxReport);
    a.channels_ns = channels.Close();
  }
  a.total_ns = root.Close();
  return a;
}

// Theorem 5.2 and level-order checks on one audit; "" when it passes.
std::string CheckAudit(const Leaky& h, const Audit& a, const Audit* first) {
  if (a.report.secure) {
    return "planted channels but the graph was reported secure";
  }
  if (a.report.secure != a.channels.empty()) {
    return "secure != channels.empty() (Theorem 5.2)";
  }
  for (const tg_hier::SecurityViolation& v : a.report.violations) {
    if (!h.levels.HigherVertex(v.higher, v.lower)) {
      return "violation not level-ordered";
    }
  }
  for (const tg_hier::CrossLevelChannel& c : a.channels) {
    if (!h.levels.HigherVertex(c.to, c.from)) {
      return "channel not level-ordered";
    }
  }
  if (first != nullptr) {
    bool same = first->report.violations.size() == a.report.violations.size() &&
                first->channels.size() == a.channels.size();
    for (size_t i = 0; same && i < a.report.violations.size(); ++i) {
      same = first->report.violations[i].lower == a.report.violations[i].lower &&
             first->report.violations[i].higher == a.report.violations[i].higher;
    }
    for (size_t i = 0; same && i < a.channels.size(); ++i) {
      same = first->channels[i].from == a.channels[i].from &&
             first->channels[i].to == a.channels[i].to;
    }
    if (!same) {
      return "audit report differs from the first audit's";
    }
  }
  return "";
}

uint64_t Counter(const char* name) {
  return tg_util::MetricsRegistry::Instance().CounterValue(name);
}

}  // namespace

RunResult RunAudit(const RunArgs& args) {
  RunResult r;
  // The audit's inputs are the .tgg / .lvl text audit_tool loads; set-up is
  // loading them.
  std::string graph_text, levels_text, planted_note;
  {
    const tg_sim::GeneratedHierarchy generated = BuildLeaky(args.seed, &planted_note);
    graph_text = tg::PrintGraph(generated.graph);
    levels_text = tg_hier::PrintLevels(generated.levels, generated.graph);
  }
  // The pool's workers take the CPU set of the thread that starts them, so
  // they start before this thread is moved round the CPUs.
  r.Note("pool_threads", static_cast<double>(tg_util::ThreadPool::Shared().thread_count()));
  CpuRotor rotor;
  r.Note("rotated_cpus", static_cast<double>(rotor.cpu_count()));
  std::vector<double> setup_s;
  Leaky h;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    h = {};
    const uint64_t t0 = NowNs();
    auto graph = tg::ParseGraph(graph_text);
    auto levels = graph.ok() ? tg_hier::ParseLevels(levels_text, *graph)
                             : tg_util::StatusOr<tg_hier::LevelAssignment>(graph.status());
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!levels.ok()) {
      r.Fail("cannot load the generated graph: " + levels.status().ToString());
      r.attempted = r.failed = 1;
      return r;
    }
    h.graph = std::move(graph).value();
    h.levels = std::move(levels).value();
  }
  r.values["setup_s"] = Median(setup_s);
  r.Note("vertices", static_cast<double>(h.graph.VertexCount()));
  r.Note("planted_channels", static_cast<double>(kPlanted));
  r.Note("planted", planted_note);
  const tg_hier::AuditEngine engine = tg_hier::ResolveAuditEngine(h.graph, h.levels);
  r.Note("audit_engine", static_cast<double>(engine));

  // Counter deltas over the traced audits only.
  const char* kCounters[] = {"condense.shards", "condense.shards_dirty",
                             "bridge_enum.pivot_scans", "snapshot.builds",
                             "cache.hits", "cache.misses", "cache.evictions",
                             "incremental.rows_reused", "incremental.slices_repaired"};
  std::vector<double> counted(std::size(kCounters), 0.0);

  SpanLog log(false);
  std::vector<double> total_ms, traced_ms, untraced_ms, snapshot_s, check_s, channels_s, util;
  Audit first;
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(args.seconds * 1e9);
  // At least one audit, and with tracing on at least one traced one.
  const uint64_t min_audits = args.trace ? 2 : 1;
  for (uint64_t i = 0; i < min_audits || NowNs() < end; ++i) {
    const bool traced = args.trace && (i % 4 == 1 || i % 4 == 2);
    log.set_enabled(traced);
    std::vector<uint64_t> before;
    for (const char* c : kCounters) before.push_back(Counter(c));
    Audit a = RunOneAudit(h, log, i);
    const double ms = static_cast<double>(a.total_ns) / 1e6;
    total_ms.push_back(ms);
    (traced ? traced_ms : untraced_ms).push_back(ms);
    if (traced) {
      for (size_t c = 0; c < std::size(kCounters); ++c) {
        counted[c] += static_cast<double>(Counter(kCounters[c]) - before[c]);
      }
      snapshot_s.push_back(static_cast<double>(a.snapshot_ns) / 1e9);
      check_s.push_back(static_cast<double>(a.check_ns) / 1e9);
      channels_s.push_back(static_cast<double>(a.channels_ns) / 1e9);
      util.push_back(a.cpu_util);
    }
    ++r.attempted;
    const std::string problem = CheckAudit(h, a, i == 0 ? nullptr : &first);
    if (!problem.empty()) {
      ++r.failed;
      r.Fail("audit " + std::to_string(i) + ": " + problem);
    }
    if (i == 0) {
      first = std::move(a);
    }
  }
  const double window_s = static_cast<double>(NowNs() - start) / 1e9;
  rotor.Stop();
  r.values["ops_per_s"] = static_cast<double>(total_ms.size()) / window_s;
  r.values["op_p50_ms"] = Percentile(total_ms, 0.5);
  r.values["op_p99_ms"] = Percentile(total_ms, 0.99);
  r.Note("window_s", window_s);
  r.Note("op_samples", static_cast<double>(total_ms.size()));
  r.Note("audit_s", Percentile(total_ms, 0.5) / 1e3);
  std::string each;
  for (double ms : total_ms) {
    if (!each.empty()) {
      each += ' ';
    }
    each += std::to_string(static_cast<int>(ms));
  }
  r.Note("audit_ms_each", each);
  r.Note("violations", static_cast<double>(first.report.violations.size()));
  r.Note("channels", static_cast<double>(first.channels.size()));

  // Typed channels, outside the window: every reported channel must carry a
  // typed witness that replays.  (FindTypedCrossLevelChannels scans sources
  // x vertices and took ~53 s on this graph, so the witnesses are described
  // from the bridge-enum index for exactly the reported pairs instead.)
  {
    ++r.attempted;
    tg_analysis::AnalysisCache cache;
    const tg::AnalysisSnapshot& snap = cache.Snapshot(h.graph);
    const tg_analysis::BridgeEnumIndex index(snap);
    bool ok = !first.channels.empty();
    for (const tg_hier::CrossLevelChannel& c : first.channels) {
      const std::optional<tg_analysis::TypedChannel> typed =
          index.DescribeChannel(h.graph, c.from, c.to, &snap);
      ok = ok && typed.has_value() && typed->replay_verified &&
           tg_analysis::VerifyChannelPath(h.graph, *typed);
    }
    r.Note("typed_channels_verified", static_cast<double>(first.channels.size()));
    if (!ok) {
      ++r.failed;
      r.Fail("a reported channel has no typed witness that replays");
    }
  }

  // The serving layers do no work offline.
  r.not_applicable.insert(
      {"analysis.can_share_us_p50", "analysis.can_share_us_p99", "analysis.can_knowf_us_p50",
       "analysis.can_knowf_us_p99", "analysis.can_know_us_p50", "analysis.can_know_us_p99",
       "analysis.knowable_us_p50", "analysis.knowable_us_p99", "engine.publish_ms_p50",
       "engine.publish_ms_p99", "engine.publishes", "engine.read_batch_ms_p50",
       "engine.read_batch_ms_p99", "engine.pool_efficiency", "admission.admit_us_p50",
       "admission.admit_us_p99", "admission.accepted", "admission.vetoed", "admission.rejected",
       "admission.state_rebuilds", "server.decode_us_per_frame", "server.encode_us_per_frame",
       "server.lines_per_batch", "server.unattributed_ms", "bench.writer_lag_ms_p99",
       "serve.read_p50_ms", "serve.read_p99_ms", "serve.write_p50_ms", "serve.write_p99_ms",
       "self.server_ms_per_op", "self.engine_ms_per_op", "self.analysis_ms_per_op",
       "self.admission_ms_per_op"});

  if (args.trace) {
    // Condensation shards exist only on the sharded engine and pivot scans
    // only on bridge-enum; every other counter read here must be registered,
    // so a renamed one fails the run instead of reading 0.
    const bool sharded = engine == tg_hier::AuditEngine::kSharded;
    const bool bridge_enum = engine == tg_hier::AuditEngine::kBridgeEnum;
    const std::string registry = tg_util::MetricsRegistry::Instance().RenderJson();
    for (const char* c : kCounters) {
      const std::string_view name(c);
      if ((!sharded && name.rfind("condense.", 0) == 0) ||
          (!bridge_enum && name.rfind("bridge_enum.", 0) == 0)) {
        continue;
      }
      if (!JsonNumber(registry, name).has_value()) {
        r.Fail("metrics registry lacks counter " + std::string(name));
      }
    }
    const double traced_audits = static_cast<double>(std::max<size_t>(traced_ms.size(), 1));
    r.values["trace.op_p50_ms"] = Percentile(traced_ms, 0.5);
    r.values["trace.overhead_ms"] =
        Percentile(traced_ms, 0.5) - Percentile(untraced_ms, 0.5);
    r.values["snapshot.build_s"] = Median(snapshot_s);
    r.values["audit.check_secure_s"] = Median(check_s);
    r.values["audit.channels_s"] = Median(channels_s);
    r.values["pool.cpu_util"] = Median(util);
    if (sharded) {
      r.values["condense.dirty_shard_ratio"] = counted[0] > 0 ? counted[1] / counted[0] : 0.0;
    } else {
      r.not_applicable.insert("condense.dirty_shard_ratio");
    }
    if (bridge_enum) {
      r.values["bridge_enum.pivot_scans"] = counted[2] / traced_audits;
    } else {
      r.not_applicable.insert("bridge_enum.pivot_scans");
    }
    r.values["snapshot.builds"] = counted[3] / traced_audits;
    const double lookups = counted[4] + counted[5];
    r.values["cache.hit_ratio"] = lookups > 0 ? counted[4] / lookups : 0.0;
    r.values["cache.evictions"] = counted[6] / traced_audits;
    r.values["incremental.rows_reused"] = counted[7] / traced_audits;
    r.values["incremental.slices_repaired"] = counted[8] / traced_audits;
    for (const auto& [layer, ns] : SelfNsByLayer(log.spans())) {
      r.values["self." + layer + "_ms_per_op"] = ns / 1e6 / traced_audits;
    }
    r.Note("traced_audits", static_cast<double>(traced_ms.size()));
    const std::string path = ".tgbench_out/spans-" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".jsonl";
    if (!WriteSpans(path, {log.spans()})) {
      r.Fail("cannot write " + path);
    }
    r.Note("spans_file", path);
  }
  r.values["peak_rss_mb"] = PeakRssMb();
  return r;
}

}  // namespace tgbench
