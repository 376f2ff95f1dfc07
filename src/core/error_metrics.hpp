// Accuracy metrics: how close a trace-replay run comes to execution-driven
// ground truth on the same target network.
//
// Per-message comparison across *different executions* is ill-posed (timing
// feedback perturbs the message stream), so accuracy is judged on the
// aggregates the paper reports: mean/percentile packet latency and
// application runtime.
#pragma once

#include <cstdint>

#include "common/histogram.hpp"
#include "core/replay.hpp"
#include "trace/record.hpp"

namespace sctm::core {

struct RunSummary {
  std::uint64_t messages = 0;
  double mean_latency = 0.0;
  Cycle p50_latency = 0;
  Cycle p99_latency = 0;
  Cycle runtime = 0;
};

/// Summary of an execution-driven run (from its capture trace).
RunSummary summarize(const trace::Trace& trace);

/// Summary of a replay run.
RunSummary summarize(const ReplayResult& replayed);

struct ErrorReport {
  // Each component is |model - truth| / truth, except when truth == 0:
  // relative error is then undefined, and the component holds the *absolute*
  // error |model| instead (exact match still scores 0). The fallback keeps
  // worst() monotone in the size of the miss — a degenerate zero-truth
  // metric can no longer hide an arbitrarily large regression behind a
  // constant score.
  double mean_latency_err = 0.0;
  double p50_latency_err = 0.0;
  double p99_latency_err = 0.0;
  double runtime_err = 0.0;

  /// Largest of the component errors (headline number for R-F1).
  double worst() const;
};

/// Relative errors of `model` against `truth` (both on the target network).
ErrorReport compare(const RunSummary& truth, const RunSummary& model);

}  // namespace sctm::core
