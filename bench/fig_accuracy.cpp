// R-F1: accuracy of the trace models per application.
//
// Pipeline per app: capture on the electrical mesh; replay naively and
// self-correctingly on the optical NoC; compare both against execution-
// driven ground truth on that same ONOC. The paper's claim: SCTM achieves
// "high precision" where the frozen-timestamp trace does not.
#include "bench/bench_util.hpp"

#include "common/parallel.hpp"

int main() {
  using namespace sctm;
  using namespace sctm::bench;

  Table t("R-F1: trace-model error vs execution-driven truth "
          "(capture: enoc mesh -> target: onoc token crossbar)");
  t.set_header({"app", "truth runtime", "naive rt err", "sctm rt err",
                "naive lat err", "sctm lat err", "naive p99 err",
                "sctm p99 err"});

  // Apps are independent studies: evaluate them in parallel and emit rows
  // in app order afterwards (thread-count invariant results).
  const auto apps = standard_apps();
  struct Row {
    core::RunSummary truth;
    core::ErrorReport naive;
    core::ErrorReport sctm;
  };
  std::vector<Row> rows(apps.size());
  parallel_for(apps.size(), [&](std::size_t i) {
    const auto& app = apps[i];
    const auto capture = core::run_execution(app, enoc_spec(), {});
    const auto truth_run = core::run_execution(app, onoc_token_spec(), {});

    core::ReplayConfig naive_cfg;
    naive_cfg.mode = core::ReplayMode::kNaive;
    const core::ReplayTrace rt(capture.trace);
    const auto naive = core::run_replay(rt, onoc_token_spec(), naive_cfg);
    const auto sctm = core::run_replay(rt, onoc_token_spec(), {});

    rows[i].truth = core::summarize(truth_run.trace);
    rows[i].naive = core::compare(rows[i].truth, core::summarize(naive.result));
    rows[i].sctm = core::compare(rows[i].truth, core::summarize(sctm.result));
  });

  double naive_rt_sum = 0, sctm_rt_sum = 0;
  double naive_lat_sum = 0, sctm_lat_sum = 0;
  int n = 0;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const auto& [truth, en, es] = rows[i];
    t.add_row({apps[i].name,
               Table::fmt(static_cast<std::uint64_t>(truth.runtime)),
               Table::pct(en.runtime_err), Table::pct(es.runtime_err),
               Table::pct(en.mean_latency_err), Table::pct(es.mean_latency_err),
               Table::pct(en.p99_latency_err), Table::pct(es.p99_latency_err)});
    naive_rt_sum += en.runtime_err;
    sctm_rt_sum += es.runtime_err;
    naive_lat_sum += en.mean_latency_err;
    sctm_lat_sum += es.mean_latency_err;
    ++n;
  }
  emit(t, "rf1_accuracy");
  std::printf("mean error: runtime naive %.1f%% / sctm %.1f%%; "
              "packet latency naive %.1f%% / sctm %.1f%%\n",
              100 * naive_rt_sum / n, 100 * sctm_rt_sum / n,
              100 * naive_lat_sum / n, 100 * sctm_lat_sum / n);
  std::puts("note: hotspot kernels (lu) expose the model's documented limit: "
            "endpoint-contention waits are frozen in the captured slacks "
            "(DESIGN.md sec. 4); self-correction still roughly halves the "
            "naive error there.");

  // Shape check: SCTM clearly more accurate on the packet-latency metric
  // (the quantity an NoC study reads off the simulator).
  const bool ok = sctm_lat_sum < 0.6 * naive_lat_sum;
  return verdict(ok, "R-F1 self-correction beats the naive trace on packet "
                     "latency accuracy");
}
