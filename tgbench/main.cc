// tgbench driver binary.
//
//   tgbench_driver --workload serve_read|serve_mixed|audit_leaky
//                  --seed N --seconds S --trace 0|1
//
// Prints one context line ({"context": {...}}: seed, nproc, build type,
// sample counts, per-class latencies, first errors) and then, as the last
// line, the result: {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end sheet, with --trace 1 the
// per-layer sheet (spans go to .tgbench_out/spans-<workload>-seed<N>.jsonl).
// Exits 2 on bad arguments, without printing a result.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "src/util/strings.h"
#include "tgbench/workloads.h"

#ifndef TGBENCH_BUILD_TYPE
#define TGBENCH_BUILD_TYPE "unknown"
#endif

namespace tgbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},         {"peak_rss_mb", "MB"}, {"ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},      {"op_p99_ms", "ms"},
};

const std::vector<MetricDef> kPerLayer = {
    // analysis: predicates replayed on the pinned epoch, cache, repair.
    {"analysis.can_share_us_p50", "us"},
    {"analysis.can_share_us_p99", "us"},
    {"analysis.can_knowf_us_p50", "us"},
    {"analysis.can_knowf_us_p99", "us"},
    {"analysis.can_know_us_p50", "us"},
    {"analysis.can_know_us_p99", "us"},
    {"analysis.knowable_us_p50", "us"},
    {"analysis.knowable_us_p99", "us"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions", "count"},
    {"incremental.rows_reused", "count"},
    {"incremental.slices_repaired", "count"},
    // engine
    {"engine.publish_ms_p50", "ms"},
    {"engine.publish_ms_p99", "ms"},
    {"engine.publishes", "count"},
    {"engine.read_batch_ms_p50", "ms"},
    {"engine.read_batch_ms_p99", "ms"},
    {"engine.pool_efficiency", "ratio"},
    // admission
    {"admission.admit_us_p50", "us"},
    {"admission.admit_us_p99", "us"},
    {"admission.accepted", "count"},
    {"admission.vetoed", "count"},
    {"admission.rejected", "count"},
    {"admission.state_rebuilds", "count"},
    // server: codec, batching, the unattributed rest, the load generator
    {"server.decode_us_per_frame", "us"},
    {"server.encode_us_per_frame", "us"},
    {"server.lines_per_batch", "count"},
    {"server.unattributed_ms", "ms"},
    {"bench.writer_lag_ms_p99", "ms"},
    {"serve.read_p50_ms", "ms"},
    {"serve.read_p99_ms", "ms"},
    {"serve.write_p50_ms", "ms"},
    {"serve.write_p99_ms", "ms"},
    // snapshot
    {"snapshot.build_s", "s"},
    {"snapshot.builds", "count"},
    // audit
    {"audit.check_secure_s", "s"},
    {"audit.channels_s", "s"},
    {"condense.dirty_shard_ratio", "ratio"},
    {"bridge_enum.pivot_scans", "count"},
    // pool
    {"pool.cpu_util", "ratio"},
    // self time per layer (from the spans) and the tracing overhead
    {"self.bench_ms_per_op", "ms"},
    {"self.server_ms_per_op", "ms"},
    {"self.engine_ms_per_op", "ms"},
    {"self.analysis_ms_per_op", "ms"},
    {"self.admission_ms_per_op", "ms"},
    {"self.snapshot_ms_per_op", "ms"},
    {"self.audit_ms_per_op", "ms"},
    {"trace.op_p50_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

}  // namespace tgbench

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "tgbench_driver: %s\nusage: tgbench_driver --workload "
               "serve_read|serve_mixed|audit_leaky --seed N --seconds S --trace 0|1\n",
               why);
  return 2;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  tgbench::RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
        return Usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Usage("--trace must be 0 or 1");
      }
      args.trace = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad number for " + flag).c_str());
    }
  }
  if (!have_workload) {
    return Usage("--workload is required");
  }

  std::error_code ec;
  std::filesystem::create_directories(".tgbench_out", ec);
  tgbench::RunResult r;
  if (args.workload == "serve_read") {
    r = tgbench::RunServe(args, /*mixed=*/false);
  } else if (args.workload == "serve_mixed") {
    r = tgbench::RunServe(args, /*mixed=*/true);
  } else if (args.workload == "audit_leaky") {
    r = tgbench::RunAudit(args);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }

  // The sheet.  A metric the workload did not set prints as 0 only when the
  // workload declared it not applicable; otherwise the run fails.
  const std::vector<tgbench::MetricDef>& sheet =
      args.trace ? tgbench::kPerLayer : tgbench::kEndToEnd;
  std::string metrics;
  for (const tgbench::MetricDef& def : sheet) {
    auto it = r.values.find(def.name);
    if (it == r.values.end() && r.not_applicable.count(def.name) == 0) {
      r.Fail(std::string("metric ") + def.name + " was not measured");
    }
    const double value = it == r.values.end() ? 0.0 : it->second;
    metrics += std::string(metrics.empty() ? "" : ",") + "\"" + def.name +
               "\":{\"value\":" + Num(value) + ",\"unit\":\"" + def.unit + "\"}";
  }

  // Context line: everything a reader needs to interpret the numbers.
  std::string context = "{\"context\":{\"workload\":\"" + args.workload +
                        "\",\"seed\":" + std::to_string(args.seed) +
                        ",\"seconds\":" + Num(args.seconds) +
                        ",\"trace\":" + (args.trace ? "1" : "0") +
                        ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
                        ",\"build_type\":\"" TGBENCH_BUILD_TYPE "\"";
  for (const auto& [name, value] : r.notes) {
    context += ",\"" + name + "\":" + value;
  }
  context += ",\"errors\":[";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    context += (i == 0 ? "\"" : ",\"") + tg_util::JsonEscape(r.errors[i]) + "\"";
  }
  context += "]}}";
  std::printf("%s\n", context.c_str());

  if (r.attempted == 0) {
    r.attempted = 1;
    r.failed = 1;
    r.correct = false;
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              r.correct && r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}
