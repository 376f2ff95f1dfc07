#include "core/error_metrics.hpp"

#include <algorithm>
#include <cmath>

namespace sctm::core {
namespace {

double rel_err(double model, double truth) {
  // Zero truth has no relative scale; fall back to the absolute error so a
  // 1-cycle miss and a 10^6-cycle miss stop scoring identically (the old
  // flat 1.0 let ErrorReport::worst() mask real regressions). See the
  // ErrorReport contract in error_metrics.hpp.
  if (truth == 0.0) return std::abs(model);
  return std::abs(model - truth) / truth;
}

}  // namespace

RunSummary summarize(const trace::Trace& trace) {
  RunSummary s;
  Histogram h;
  for (const auto& r : trace.records) h.add(r.latency());
  s.messages = h.count();
  s.mean_latency = h.mean();
  s.p50_latency = h.percentile(0.5);
  s.p99_latency = h.percentile(0.99);
  s.runtime = trace.capture_runtime;
  return s;
}

RunSummary summarize(const ReplayResult& replayed) {
  RunSummary s;
  const Histogram h = replayed.latency_histogram();
  s.messages = h.count();
  s.mean_latency = h.mean();
  s.p50_latency = h.percentile(0.5);
  s.p99_latency = h.percentile(0.99);
  s.runtime = replayed.runtime;
  return s;
}

double ErrorReport::worst() const {
  return std::max({mean_latency_err, p50_latency_err, p99_latency_err,
                   runtime_err});
}

ErrorReport compare(const RunSummary& truth, const RunSummary& model) {
  ErrorReport e;
  e.mean_latency_err = rel_err(model.mean_latency, truth.mean_latency);
  e.p50_latency_err = rel_err(static_cast<double>(model.p50_latency),
                              static_cast<double>(truth.p50_latency));
  e.p99_latency_err = rel_err(static_cast<double>(model.p99_latency),
                              static_cast<double>(truth.p99_latency));
  e.runtime_err = rel_err(static_cast<double>(model.runtime),
                          static_cast<double>(truth.runtime));
  return e;
}

}  // namespace sctm::core
