// R-F3: total simulation time per mode.
//
// The abstract's second claim: the self-correction trace model achieves its
// precision "while not substantially extend[ing] the total simulation time"
// relative to plain trace simulation — and both are far faster than
// execution-driven full-system simulation. Wall-clock seconds on this host;
// the paper-relevant quantity is the *ratio* structure.
//
// Rows: the six apps at ~4x the standard size on 4x4 meshes, plus fft on 256
// cores captured on a 16x16 ENoC and replayed onto a 16x16 token ring — the
// scale where the replay engine's per-delivery dependency scan and the
// optical flush dominate a pass, so it carries the "SCTM replay beats `exec`
// on the target" gate. `--smoke` runs only that row. Both modes write
// bench_results/BENCH_simtime.json (with the host's hardware-thread count);
// the full run also writes rf3_simtime.{csv,json}.
#include <chrono>
#include <cstring>
#include <thread>

#include "bench/bench_util.hpp"

namespace sctm {
namespace {

struct Row {
  std::string name;
  double exec_s = 0;
  double exec_run_s = 0;  // execute phase only (no build, no trace finalize)
  double exec_detailed_s = 0;
  double capture_s = 0;
  double naive_s = 0;
  double sctm_s = 0;
  double sctm_pass_s = 0;  // replay passes only (no ingestion, no build)
  double ev_per_msg = 0;

  double sctm_over_naive() const { return sctm_s / std::max(1e-9, naive_s); }
  double run_exec_over_sctm() const {
    return exec_run_s / std::max(1e-9, sctm_pass_s);
  }
  double exec_detailed_over_sctm() const {
    return exec_detailed_s / std::max(1e-9, sctm_s);
  }
};

double median3(double a, double b, double c) {
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

// Captures `app` on an ENoC over `topo`, runs it execution-driven on the
// token-ring target (and once more with the per-cycle front end), and times
// naive and SCTM replay of the capture onto the target. The totals include
// set-up (network and CMP build; trace ingestion and session build); the
// run times leave it out on both sides: the execute phase against the
// replay passes. Exec and the two replays are medians of 3 to de-noise wall
// clock.
Row measure(std::string name, const fullsys::AppParams& app,
            const noc::Topology& topo) {
  using namespace sctm::bench;
  Row row;
  row.name = std::move(name);
  const auto capture = core::run_execution(app, enoc_spec(topo), {});
  row.capture_s = capture.wall_seconds;
  double exec[3], exec_run[3];
  for (int i = 0; i < 3; ++i) {
    const auto run = core::run_execution(app, onoc_token_spec(topo), {});
    exec[i] = run.wall_seconds;
    exec_run[i] = run.phases.at(1).wall_seconds;  // "execute"
  }
  row.exec_s = median3(exec[0], exec[1], exec[2]);
  row.exec_run_s = median3(exec_run[0], exec_run[1], exec_run[2]);
  // The same run with an instruction-interpreting front end (per-cycle
  // core events): the cost profile of the paper's Simics/GEMS class.
  fullsys::FullSysParams detailed_sys;
  detailed_sys.core_detail = fullsys::CoreDetail::kPerCycle;
  row.exec_detailed_s =
      core::run_execution(app, onoc_token_spec(topo), detailed_sys)
          .wall_seconds;

  // Median-of-3 replay: total wall, summed pass wall, events.
  auto replay = [&](const core::ReplayConfig& cfg, double* pass_s,
                    std::uint64_t* events) {
    double w[3], p[3];
    for (int i = 0; i < 3; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      const core::ReplayTrace rt(capture.trace);  // ingestion is in the total
      const auto run = core::run_replay(rt, onoc_token_spec(topo), cfg);
      const std::chrono::duration<double> total =
          std::chrono::steady_clock::now() - t0;
      w[i] = total.count();
      p[i] = 0;
      for (const auto& it : run.result.iteration_log) p[i] += it.wall_seconds;
      *events = run.result.events;
    }
    *pass_s = median3(p[0], p[1], p[2]);
    return median3(w[0], w[1], w[2]);
  };
  core::ReplayConfig naive_cfg;
  naive_cfg.mode = core::ReplayMode::kNaive;
  double naive_pass_s = 0;
  std::uint64_t events = 0;
  row.naive_s = replay(naive_cfg, &naive_pass_s, &events);
  row.sctm_s = replay({}, &row.sctm_pass_s, &events);
  // Kernel events per replayed message: the quiescence observable. With
  // the activity scoreboard the event count tracks flit activity, so this
  // stays flat as the workload's idle fraction grows.
  row.ev_per_msg =
      static_cast<double>(events) /
      static_cast<double>(std::max<std::size_t>(1, capture.trace.records.size()));
  return row;
}

int run(bool smoke) {
  using namespace sctm::bench;
  std::vector<Row> rows;
  if (!smoke) {
    for (const auto& app : standard_apps(16, 32, 4)) {  // ~4x standard size
      rows.push_back(measure(app.name, app, noc::Topology::mesh(4, 4)));
    }
  }
  fullsys::AppParams fft;
  fft.name = "fft";
  fft.cores = 256;
  fft.lines_per_core = 16;
  fft.iterations = 2;
  rows.push_back(measure("fft 16x16", fft, noc::Topology::mesh(16, 16)));
  const Row& gated = rows.back();

  Table t("R-F3: simulation wall time per mode (target: onoc token), "
          "larger workloads");
  t.set_header({"app", "exec (s)", "exec detailed (s)", "capture (s)",
                "naive replay (s)", "sctm replay (s)", "sctm/naive",
                "exec-det/sctm", "exec run (s)", "sctm pass (s)",
                "exec run/sctm pass", "sctm ev/msg"});
  double worst_ratio = 0;
  double speedup_sum = 0;
  for (const Row& r : rows) {
    worst_ratio = std::max(worst_ratio, r.sctm_over_naive());
    speedup_sum += r.exec_detailed_over_sctm();
    t.add_row({r.name, Table::fmt(r.exec_s, 3),
               Table::fmt(r.exec_detailed_s, 3), Table::fmt(r.capture_s, 3),
               Table::fmt(r.naive_s, 4), Table::fmt(r.sctm_s, 4),
               Table::fmt(r.sctm_over_naive(), 2) + "x",
               Table::fmt(r.exec_detailed_over_sctm(), 1) + "x",
               Table::fmt(r.exec_run_s, 3), Table::fmt(r.sctm_pass_s, 4),
               Table::fmt(r.run_exec_over_sctm(), 2) + "x",
               Table::fmt(r.ev_per_msg, 1)});
  }
  if (!smoke) emit(t, "rf3_simtime");

  const unsigned hw = std::thread::hardware_concurrency();
  RunMetrics m = bench_metrics(t, "BENCH_simtime");
  m.manifest.set("hardware_threads", static_cast<std::int64_t>(hw));
  m.manifest.set("smoke", smoke);
  {
    JsonWriter j;
    j.begin_object();
    j.key("table");
    write_table_json(j, t);
    j.key("bars");
    j.begin_array();
    // `bound` is "floor" (value must reach it) or "ceiling" (stay below).
    auto bar = [&j](const std::string& name, double value, const char* bound,
                    double limit) {
      j.begin_object();
      j.key("name");
      j.value(name);
      j.key("value");
      j.value(value);
      j.key(bound);
      j.value(limit);
      j.end_object();
    };
    bar("worst_sctm_over_naive", worst_ratio, "ceiling", 2.0);
    bar("fft16x16_exec_run_over_sctm_pass", gated.run_exec_over_sctm(),
        "floor", 1.0);
    j.end_array();
    j.end_object();
    m.set_results_json(std::move(j).str());
  }
  if (smoke) {
    std::fputs(t.to_ascii().c_str(), stdout);
    std::fflush(stdout);
  }
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (!ec) m.write_file("bench_results/BENCH_simtime.json");

  std::printf("worst sctm/naive overhead: %.2fx; mean exec-detailed/sctm "
              "speedup: %.1fx; host has %u hardware thread(s)\n",
              worst_ratio, speedup_sum / static_cast<double>(rows.size()), hw);
  std::puts("note: 'exec detailed' runs the identical schedule with a "
            "per-cycle (instruction-interpreting) front end — the cost "
            "profile of the paper's Simics/GEMS class. The timing results "
            "are bit-identical to 'exec'; only the simulation cost differs. "
            "The abstract's speed claim is the sctm/naive column.");

  // The abstract's (testable) claim: self-correction does not substantially
  // extend the total simulation time over plain trace simulation. On the
  // 4x4 rows the exec-vs-replay gap is informational (the network model
  // dominates both); on the 16x16 fft row an SCTM replay run must beat the
  // `exec` run on the target outright.
  int rc = verdict(worst_ratio < 2.0,
                   "R-F3 sctm replay stays within 2x of naive trace replay");
  rc |= verdict(gated.run_exec_over_sctm() >= 1.0,
                "R-F3 fft 16x16: sctm replay beats exec on the target "
                "(exec run / sctm passes >= 1.0)");
  return rc;
}

}  // namespace
}  // namespace sctm

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return sctm::run(smoke);
}
