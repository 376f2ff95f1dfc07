// Input generator of the repository benchmark.
//
//   perfbench_gen --seed N --out DIR [--small]
//
// Writes, from the seed alone, everything the timed runner reads:
//   capture.cfg / replay.cfg / explore.cfg  workload parameters in the
//                                          experiment-config vocabulary
//   randacc.sctm, fft.sctm                  v2 traces (randacc is seeded,
//                                          fft ignores the seed)
//   truth.json                              execution-driven ground truth on
//                                          every target, and the full-replay
//                                          ranking of the explore space
// --small shrinks every workload for the benchmark's self-test.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/config.hpp"
#include "common/parallel.hpp"
#include "core/driver.hpp"
#include "core/error_metrics.hpp"
#include "core/experiment.hpp"
#include "core/explore.hpp"
#include "tracestore/trace_store.hpp"

using namespace sctm;

namespace {

struct Sizes {
  int randacc_side, randacc_lines, randacc_iters;
  int fft_side, fft_lines, fft_iters;
};

constexpr Sizes kFull{8, 16, 4, 16, 16, 2};
constexpr Sizes kSmall{4, 8, 2, 8, 8, 1};

// Explore confirms this many analytically screened candidates.
constexpr int kTopK = 4;

std::string mesh_keys(const std::string& prefix, int side) {
  return prefix + "net.topology = mesh\n" + prefix +
         "net.mesh_width = " + std::to_string(side) + "\n" + prefix +
         "net.mesh_height = " + std::to_string(side) + "\n";
}

std::string app_keys(const char* name, int side, int lines, int iters,
                     std::uint64_t seed) {
  return std::string("app.name = ") + name +
         "\napp.cores = " + std::to_string(side * side) +
         "\napp.lines_per_core = " + std::to_string(lines) +
         "\napp.iterations = " + std::to_string(iters) +
         "\napp.seed = " + std::to_string(seed) + "\n";
}

// The explore design space (61 candidates on the capture mesh), owned by
// the benchmark rather than shared with configs/: every candidate names its
// topology explicitly, so none relies on inheriting the trace's.
std::string explore_cfg(int side) {
  std::string out = "explore.screen.top_k = " + std::to_string(kTopK) + "\n";
  auto add = [&](const std::string& name, const std::string& kind,
                 const std::string& params) {
    const std::string p = "candidate." + name + ".";
    out += p + "net.kind = " + kind + "\n" + mesh_keys(p, side) + params;
  };
  add("ideal", "ideal", "");
  for (int flit : {8, 16, 32}) {
    for (int vcs : {2, 4}) {
      for (int link : {1, 2}) {
        const std::string name = "enoc-f" + std::to_string(flit) + "-v" +
                                 std::to_string(vcs) + "-l" +
                                 std::to_string(link);
        const std::string p = "candidate." + name + ".";
        add(name, "enoc",
            p + "enoc.flit_bytes = " + std::to_string(flit) + "\n" + p +
                "enoc.vcs_per_vnet = " + std::to_string(vcs) + "\n" + p +
                "enoc.link_latency = " + std::to_string(link) + "\n");
      }
    }
  }
  for (const char* kind : {"onoc-token", "onoc-setup", "onoc-swmr", "hybrid"}) {
    for (int wl : {4, 8, 16, 32}) {
      for (int gbps : {5, 10, 20}) {
        const std::string name = std::string(kind) + "-w" + std::to_string(wl) +
                                 "-g" + std::to_string(gbps);
        const std::string p = "candidate." + name + ".";
        add(name, kind,
            p + "onoc.wavelengths = " + std::to_string(wl) + "\n" + p +
                "onoc.gbps_per_wavelength = " + std::to_string(gbps) + "\n");
      }
    }
  }
  return out;
}

void write_text(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) throw std::runtime_error(path.string() + ": write failed");
}

void truth_entry(JsonWriter& w, const core::ExecutionRun& run) {
  const core::RunSummary s = core::summarize(run.trace);
  w.key("runtime");
  w.value(std::uint64_t{run.runtime});
  w.key("mean_latency");
  w.value(s.mean_latency);
  w.key("exec_s");
  w.value(run.phases.at(1).wall_seconds);
}

void generate(std::uint64_t seed, const std::filesystem::path& dir,
              const Sizes& z) {
  std::filesystem::create_directories(dir);
  const fullsys::FullSysParams sys;

  write_text(dir / perfbench::kCaptureCfg,
             app_keys("randacc", z.randacc_side, z.randacc_lines,
                      z.randacc_iters, seed) +
                 "capture.kind = enoc\n" + mesh_keys("", z.randacc_side));
  write_text(dir / perfbench::kReplayCfg,
             app_keys("fft", z.fft_side, z.fft_lines, z.fft_iters, seed) +
                 "capture.kind = enoc\ntarget.kind = onoc-token\n" +
                 mesh_keys("", z.fft_side));
  write_text(dir / perfbench::kExploreCfg, explore_cfg(z.randacc_side));

  const Config capture_cfg = Config::from_file(dir / perfbench::kCaptureCfg);
  const Config replay_cfg = Config::from_file(dir / perfbench::kReplayCfg);
  const Config explore_cfg_parsed =
      Config::from_file(dir / perfbench::kExploreCfg);

  JsonWriter w;
  w.begin_object();
  w.key("seed");
  w.value(seed);

  // capture-randacc: the execution-driven run is both the trace and its own
  // ground truth.
  const fullsys::AppParams randacc = core::app_from_config(capture_cfg);
  const core::NetSpec randacc_net =
      core::netspec_from_config(capture_cfg, "capture");
  {
    const core::ExecutionRun run =
        core::run_execution(randacc, randacc_net, sys);
    tracestore::write_v2_file(run.trace, dir / perfbench::kRandaccTrace);
    w.key("capture");
    w.begin_object();
    truth_entry(w, run);
    w.key("messages");
    w.value(static_cast<std::uint64_t>(run.trace.records.size()));
    w.key("content_hash");
    w.value(perfbench::hex64(tracestore::content_hash(run.trace)));
    w.end_object();
  }

  // replay-fft: captured on the ENoC, ground truth executed on the target.
  {
    const fullsys::AppParams fft = core::app_from_config(replay_cfg);
    const core::ExecutionRun cap = core::run_execution(
        fft, core::netspec_from_config(replay_cfg, "capture"), sys);
    tracestore::write_v2_file(cap.trace, dir / perfbench::kFftTrace);
    const core::ExecutionRun exec = core::run_execution(
        fft, core::netspec_from_config(replay_cfg, "target"), sys);
    w.key("replay");
    w.begin_object();
    truth_entry(w, exec);
    w.key("messages");
    w.value(static_cast<std::uint64_t>(cap.trace.records.size()));
    w.key("content_hash");
    w.value(perfbench::hex64(tracestore::content_hash(cap.trace)));
    w.end_object();
  }

  // explore-randacc: full self-correcting replay of every candidate (the
  // reference ranking) and its execution-driven run.
  {
    const core::ReplayTrace rt =
        core::load_replay_trace(dir / perfbench::kRandaccTrace);
    const std::vector<core::Candidate> cands =
        core::candidates_from_config(explore_cfg_parsed, perfbench::kExploreCfg);
    core::ExploreConfig ecfg;
    ecfg.threads = perfbench::workers();
    const std::vector<core::ExploreResult> full = core::explore(rt, cands, ecfg);
    std::vector<core::ExecutionRun> exec(cands.size());
    parallel_for(
        cands.size(),
        [&](std::size_t i) {
          exec[i] = core::run_execution(randacc, cands[i].spec, sys);
        },
        perfbench::workers());
    w.key("explore");
    w.begin_object();
    for (std::size_t i = 0; i < cands.size(); ++i) {
      const core::ExploreResult* r = nullptr;
      for (const auto& f : full) {
        if (f.name == cands[i].name) r = &f;
      }
      w.key(cands[i].name);
      w.begin_object();
      w.key("replay_runtime");
      w.value(std::uint64_t{r->runtime});
      w.key("replay_mean_latency");
      w.value(r->mean_latency);
      truth_entry(w, exec[i]);
      w.end_object();
    }
    w.end_object();
  }
  w.end_object();
  write_text(dir / perfbench::kTruth, std::move(w).str() + "\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::require_release("perfbench_gen");
  std::uint64_t seed = 0;
  bool have_seed = false;
  std::string out;
  Sizes sizes = kFull;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (a == "--small") {
      sizes = kSmall;
    } else {
      std::fprintf(stderr, "perfbench_gen: unknown argument '%s'\n", a.c_str());
      return 2;
    }
  }
  if (!have_seed || out.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_gen --seed N --out DIR [--small]\n");
    return 2;
  }
  try {
    const auto t0 = std::chrono::steady_clock::now();
    generate(seed, out, sizes);
    std::printf("generated inputs for seed %llu in %.2f s\n",
                static_cast<unsigned long long>(seed),
                std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              t0)
                    .count());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_gen: %s\n", e.what());
    return 1;
  }
  return 0;
}
