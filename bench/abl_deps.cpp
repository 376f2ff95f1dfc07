// R-A1 ablation: what each ingredient of the self-correction model buys.
//
// Modes compared (same captured trace, same slow target, ground truth
// re-executed on the target):
//   naive                frozen timestamps (no deps at all)
//   W=1, single pass     only the tightest dependency, no iteration
//   W=1, iterative       tightest dependency + fixed-point iteration
//   full                 complete dependency lists, one pass
#include "bench/bench_util.hpp"

int main() {
  using namespace sctm;
  using namespace sctm::bench;

  Table t("R-A1: dependency-model ablation (capture ideal 2 cyc/hop -> "
          "target ideal 16 cyc/hop)");
  t.set_header({"app", "naive err", "W=1 1-pass err", "W=1 iter err",
                "full err"});

  bool ok = true;
  for (const char* name : {"fft", "jacobi", "sort"}) {
    fullsys::AppParams app;
    app.name = name;
    app.cores = 16;
    app.lines_per_core = 16;
    app.iterations = 2;
    const auto capture = core::run_execution(app, ideal_spec(2), {});
    const core::ReplayTrace rt(capture.trace);
    const auto truth_run = core::run_execution(app, ideal_spec(16), {});
    const auto truth = core::summarize(truth_run.trace);

    auto err_of = [&](const core::ReplayConfig& cfg) {
      const auto rep = core::run_replay(rt, ideal_spec(16), cfg);
      return core::compare(truth, core::summarize(rep.result)).runtime_err;
    };

    core::ReplayConfig naive;
    naive.mode = core::ReplayMode::kNaive;
    core::ReplayConfig w1_single;
    w1_single.dependency_window = 1;
    w1_single.max_iterations = 1;
    core::ReplayConfig w1_iter;
    w1_iter.dependency_window = 1;
    w1_iter.max_iterations = 16;

    const double e_naive = err_of(naive);
    const double e_w1s = err_of(w1_single);
    const double e_w1i = err_of(w1_iter);
    const double e_full = err_of({});
    t.add_row({name, Table::pct(e_naive), Table::pct(e_w1s),
               Table::pct(e_w1i), Table::pct(e_full)});
    // Monotone story: each ingredient helps (allow small noise margins).
    ok = ok && e_full <= e_naive + 0.01 && e_w1i <= e_w1s + 0.01 &&
         e_full < 0.15;
  }
  emit(t, "ra1_dep_ablation");
  return verdict(ok, "R-A1 dependencies and iteration each reduce error");
}
