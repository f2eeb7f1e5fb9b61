// The tgbench workloads and the one metric sheet they all print.
//
// Every run prints every end-to-end metric (tracing off) or every
// per-layer metric (tracing on), in the order of the tables below, which
// mirror BENCHMARK.json; run.py refuses a sheet whose names differ from it.
// README.md maps each per-layer metric to the end-to-end metric and
// workload it should move.

#ifndef TGBENCH_WORKLOADS_H_
#define TGBENCH_WORKLOADS_H_

#include <vector>

#include "tgbench/common.h"

namespace tgbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kPerLayer;

// serve_read / serve_mixed: the policy server in-process on a unix socket,
// closed-loop readers, and (mixed) one open-loop admit writer.
RunResult RunServe(const RunArgs& args, bool mixed);

// audit_leaky: repeated offline audits of a 2^18-vertex leaky hierarchy.
RunResult RunAudit(const RunArgs& args);

}  // namespace tgbench

#endif  // TGBENCH_WORKLOADS_H_
