// sctm_cli — command-line front end for the capture/replay workflow.
//
//   sctm_cli capture  --app fft --net enoc --out /tmp/t.trc2 [--cores 16]
//                     [--lines 16] [--iters 2] [--mesh 4x4] [--format v1|v2]
//   sctm_cli replay   --trace /tmp/t.trc2 --net onoc-token [--mode sctm]
//                     [--window W] [--iters-max 8] [--csv out.csv]
//   sctm_cli explore  --trace /tmp/t.trc2 --candidates cands.cfg
//                     [--screen-top K] [--threads N]
//                     [--mode sctm] [--window W] [--csv out.csv]
//   sctm_cli inspect  --trace /tmp/t.trc2 [--text]
//   sctm_cli exec     --app fft --net onoc-setup [...]   (execution-driven)
//   sctm_cli run      --config configs/accuracy_fft_onoc.cfg
//                     (config-file experiment: exec, replay or accuracy)
//   sctm_cli validate --json metrics.json     (schema-check a metrics doc)
//
// Container tooling (the v2 trace store):
//
//   sctm_cli trace info    --trace <file> [--chunks]
//   sctm_cli trace convert --in <file> --out <file> [--format v1|v2]
//                          [--chunk N]
//   sctm_cli trace verify  --trace <file> [--quick]
//   sctm_cli trace hash    --trace <file>
//   sctm_cli trace add     --trace <file> --dir <catalog>
//   sctm_cli trace list    --dir <catalog>
//
// Fabric tooling (the graph-backed topology layer):
//
//   sctm_cli topo info   <file|spec>     (counts, radix histogram, diameter)
//   sctm_cli topo verify <file|spec>     (routes + channel-dependency audit)
//
// Run subcommands take --topo <spec> (mesh:WxH, torus:WxH, ring:N,
// mesh3d:XxYxZ, torus3d:XxYxZ, file:<path>) in addition to the legacy
// --mesh WxH shorthand. Without either, the fabric is the square mesh that
// fits the trace's node count (replay, explore) or --cores (capture, exec);
// when given, the fabric must have exactly that many nodes.
//
// explore's --threads sets the candidate workers (0 = one per hardware
// thread); a single replay always runs on one thread. Each subcommand (and
// trace/topo verb) accepts only the flags it reads: anything else is a usage
// error, so a misspelled flag never runs silently with its default.
//
// Every run subcommand accepts --stats-json <path> to emit the machine-
// readable run-metrics document (schema sctm.run_metrics.v1: manifest +
// per-phase timing + stat-registry snapshot + results); `validate` is the
// matching schema checker, used by CI as the emission gate.
//
// Networks: ideal | enoc | onoc-token | onoc-setup | onoc-swmr | hybrid.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "common/run_metrics.hpp"
#include "common/table.hpp"
#include "analytic/screen.hpp"
#include "analytic/trace_profile.hpp"
#include "core/driver.hpp"
#include "core/error_metrics.hpp"
#include "core/experiment.hpp"
#include "core/explore.hpp"
#include "fault/fault_spec.hpp"
#include "noc/route_table.hpp"
#include "noc/routing.hpp"
#include "trace/trace_io.hpp"
#include "tracestore/catalog.hpp"
#include "tracestore/trace_store.hpp"

namespace {

using namespace sctm;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "error: %s\n", why);
  std::fprintf(
      stderr,
      "usage:\n"
      "  sctm_cli capture --app <name> --net <kind> --out <file> "
      "[--cores N] [--lines N] [--iters N] [--mesh WxH] [--seed S] "
      "[--format v1|v2] [--faults <cfg>]\n"
      "  sctm_cli replay  --trace <file> --net <kind> [--mode naive|sctm] "
      "[--window W] [--iters-max N] [--csv <file>] "
      "[--mesh WxH] [--faults <cfg>]\n"
      "  sctm_cli explore --trace <file> --candidates <config> "
      "[--screen-top K] [--threads N] "
      "[--mode naive|sctm] [--window W] "
      "[--iters-max N] [--csv <file>] [--mesh WxH] [--faults <cfg>]\n"
      "  sctm_cli inspect --trace <file> [--text]\n"
      "  sctm_cli exec    --app <name> --net <kind> [--cores N] [--lines N] "
      "[--iters N] [--mesh WxH] [--stats <file>] [--faults <cfg>]\n"
      "  sctm_cli run     --config <experiment.cfg>\n"
      "  sctm_cli validate --json <file>\n"
      "  sctm_cli trace info    --trace <file> [--chunks]\n"
      "  sctm_cli trace convert --in <file> --out <file> [--format v1|v2] "
      "[--chunk N]\n"
      "  sctm_cli trace verify  --trace <file> [--quick]\n"
      "  sctm_cli trace hash    --trace <file>\n"
      "  sctm_cli trace add     --trace <file> --dir <catalog>\n"
      "  sctm_cli trace list    --dir <catalog>\n"
      "  sctm_cli topo info     <file|spec>\n"
      "  sctm_cli topo verify   <file|spec> [--algo <routing>]\n"
      "run subcommands also accept --topo <spec>; a spec is mesh:WxH, "
      "torus:WxH, ring:N, mesh3d:XxYxZ, torus3d:XxYxZ or file:<path>\n"
      "without --mesh/--topo the fabric is the square mesh that fits the "
      "trace (replay, explore) or --cores (capture, exec); with one, its "
      "node count must match; explore candidates without net.topology/"
      "net.mesh_* keys inherit it\n"
      "explore --threads N sets candidate workers (0 = hardware)\n"
      "all run subcommands accept --stats-json <file> (machine-readable "
      "run metrics)\n"
      "--faults reads a config of fault.* keys (rates, timeouts, seed) and "
      "runs the network with deterministic fault injection\n"
      "--screen-top K ranks every candidate with the tier-0 analytic model "
      "and replays only the top K (explore.screen.top_k in the config does "
      "the same)\n"
      "networks: ideal enoc onoc-token onoc-setup onoc-swmr hybrid\n"
      "apps: jacobi fft lu sort barnes stream\n");
  std::exit(2);
}

std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int first) {
  std::map<std::string, std::string> out;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage(("unexpected token " + key).c_str());
    key = key.substr(2);
    if (key == "text" || key == "chunks" || key == "quick") {  // booleans
      out[key] = "1";
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for --" + key).c_str());
    out[key] = argv[++i];
  }
  return out;
}

/// The flags each subcommand, or "trace"/"topo" verb, reads. Anything else
/// is a usage error: a misspelled flag must not run with its default.
const std::map<std::string, std::vector<std::string>>& known_flags() {
  static const std::map<std::string, std::vector<std::string>> known = {
      {"capture", {"app", "net", "out", "cores", "lines", "iters", "seed",
                   "mesh", "topo", "format", "faults", "stats-json"}},
      {"replay", {"trace", "net", "mode", "window", "iters-max", "csv",
                  "mesh", "topo", "faults", "stats-json"}},
      {"explore", {"trace", "candidates", "screen-top", "threads", "mode",
                   "window", "iters-max", "csv", "mesh", "topo", "faults",
                   "stats-json"}},
      {"inspect", {"trace", "text", "stats-json"}},
      {"exec", {"app", "net", "cores", "lines", "iters", "seed", "mesh",
                "topo", "stats", "faults", "stats-json"}},
      {"run", {"config", "stats-json"}},
      {"validate", {"json"}},
      {"trace info", {"trace", "chunks"}},
      {"trace convert", {"in", "out", "format", "chunk"}},
      {"trace verify", {"trace", "quick"}},
      {"trace hash", {"trace"}},
      {"trace add", {"trace", "dir"}},
      {"trace list", {"dir"}},
      {"topo info", {}},
      {"topo verify", {"algo"}},
  };
  return known;
}

/// Rejects any flag `command` does not read. An unknown command passes
/// through, so dispatch reports it as such.
void check_flags(const std::string& command,
                 const std::map<std::string, std::string>& f) {
  const auto it = known_flags().find(command);
  if (it == known_flags().end()) return;
  for (const auto& [key, value] : f) {
    if (std::find(it->second.begin(), it->second.end(), key) ==
        it->second.end()) {
      usage(("unknown flag --" + key).c_str());
    }
  }
}

/// `v` as a non-negative integer of type T: digits only, the whole string,
/// in T's range. Anything else (a sign, junk, overflow) is nullopt.
template <typename T>
std::optional<T> to_count(const std::string& v) {
  T out{};
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, out);
  if (v.empty() || v.front() == '-' || ec != std::errc{} || ptr != end) {
    return std::nullopt;
  }
  return out;
}

/// The value `v` of flag --`key` as a non-negative integer, or a usage
/// error naming the flag: a "-1" must not wrap to a huge worker count.
template <typename T>
T count_flag(const std::string& key, const std::string& v) {
  if (const auto n = to_count<T>(v)) return *n;
  usage(("--" + key + " expects a non-negative integer, got '" + v + "'")
            .c_str());
}

core::NetKind net_kind(const std::string& s) {
  if (s == "ideal") return core::NetKind::kIdeal;
  if (s == "enoc") return core::NetKind::kEnoc;
  if (s == "onoc-token") return core::NetKind::kOnocToken;
  if (s == "onoc-setup") return core::NetKind::kOnocSetup;
  if (s == "onoc-swmr") return core::NetKind::kOnocSwmr;
  if (s == "hybrid") return core::NetKind::kHybrid;
  usage(("unknown network " + s).c_str());
}

/// "AxB[xC]" -> dims; pads with 1 up to `want`, errors past it.
std::vector<int> parse_dims(const std::string& s, std::size_t want,
                            const char* what) {
  std::vector<int> dims;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const auto x = s.find('x', pos);
    const std::string tok =
        s.substr(pos, x == std::string::npos ? std::string::npos : x - pos);
    const auto d = to_count<int>(tok);
    if (!d) {
      usage((std::string(what) + ": bad dimension '" + tok + "' in " + s)
                .c_str());
    }
    dims.push_back(*d);
    if (x == std::string::npos) break;
    pos = x + 1;
  }
  if (dims.size() > want) {
    usage((std::string(what) + ": too many dimensions in " + s).c_str());
  }
  dims.resize(want, 1);
  return dims;
}

noc::Topology parse_mesh(const std::string& s) {
  if (s.find('x') == std::string::npos) usage("--mesh expects WxH");
  const auto d = parse_dims(s, 2, "mesh");
  return noc::Topology::mesh(d[0], d[1]);
}

/// Topology spec: mesh:WxH | torus:WxH | ring:N | mesh3d:XxYxZ |
/// torus3d:XxYxZ | file:<path>; bare WxH means mesh (the --mesh shorthand),
/// anything else is tried as a topology file path.
noc::Topology parse_topo_spec(const std::string& s) {
  const auto colon = s.find(':');
  if (colon == std::string::npos) {
    if (s.find('x') != std::string::npos) return parse_mesh(s);
    return noc::Topology::from_file(s);
  }
  const std::string kind = s.substr(0, colon);
  const std::string rest = s.substr(colon + 1);
  if (kind == "file") return noc::Topology::from_file(rest);
  if (kind == "ring") {
    const auto d = parse_dims(rest, 1, "ring");
    return noc::Topology::ring(d[0]);
  }
  if (kind == "mesh" || kind == "torus") {
    const auto d = parse_dims(rest, 2, kind.c_str());
    return kind == "mesh" ? noc::Topology::mesh(d[0], d[1])
                          : noc::Topology::torus(d[0], d[1]);
  }
  if (kind == "mesh3d" || kind == "torus3d") {
    const auto d = parse_dims(rest, 3, kind.c_str());
    return kind == "mesh3d" ? noc::Topology::mesh3d(d[0], d[1], d[2])
                            : noc::Topology::torus3d(d[0], d[1], d[2]);
  }
  usage(("unknown topology kind '" + kind +
         "' (known: mesh, torus, ring, mesh3d, torus3d, file)")
            .c_str());
}

/// Applies --faults <cfg>: the file uses the ordinary "fault.*" config
/// vocabulary (see fault/fault_spec.hpp); unknown fault.* keys hard-error.
void apply_faults_flag(const std::map<std::string, std::string>& f,
                       core::NetSpec& spec) {
  const auto it = f.find("faults");
  if (it == f.end()) return;
  spec.fault = fault::FaultSpec::from_config(Config::from_file(it->second));
}

/// The fabric named by --topo (or its --mesh shorthand; --topo wins when
/// both are given), with the flag as typed for error messages.
std::optional<std::pair<noc::Topology, std::string>> fabric_flag(
    const std::map<std::string, std::string>& f) {
  if (const auto t = f.find("topo"); t != f.end()) {
    return std::pair{parse_topo_spec(t->second), "--topo " + t->second};
  }
  if (const auto m = f.find("mesh"); m != f.end()) {
    return std::pair{parse_mesh(m->second), "--mesh " + m->second};
  }
  return std::nullopt;
}

/// The one fabric rule of every run subcommand: `nodes` tiles (a trace's
/// node count, or --cores) run on the --mesh/--topo fabric, which must have
/// exactly that many nodes, or — when neither flag is given — on the square
/// sqrt(N) x sqrt(N) mesh. `what` names the node-count source in errors.
noc::Topology fabric_for(const std::map<std::string, std::string>& f,
                         int nodes, const std::string& what) {
  const std::string n = std::to_string(nodes);
  if (auto flag = fabric_flag(f)) {
    const int have = flag->first.node_count();
    if (have != nodes) {
      usage((what + " disagrees with " + flag->second + " (" + n +
             " nodes vs " + std::to_string(have) + ")")
                .c_str());
    }
    return flag->first;
  }
  long long side = 1;  // 64-bit: side * side must not overflow near INT_MAX
  while (side * side < nodes) ++side;
  if (side * side != nodes) {
    usage((what + ": " + n + " nodes is not a square mesh; pass --mesh WxH "
           "or --topo <spec>").c_str());
  }
  return noc::Topology::mesh(static_cast<int>(side), static_cast<int>(side));
}

/// Fabric for capture/exec: --cores picks the square mesh (or must agree
/// with --mesh/--topo); without --cores the fabric flags, else mesh 4x4.
noc::Topology exec_fabric(const std::map<std::string, std::string>& f) {
  if (const auto c = f.find("cores"); c != f.end()) {
    return fabric_for(f, count_flag<int>("cores", c->second),
                      "--cores " + c->second);
  }
  if (auto flag = fabric_flag(f)) return flag->first;
  return core::NetSpec{}.topo;
}

core::NetSpec spec_from(const std::map<std::string, std::string>& f,
                        const noc::Topology& topo) {
  core::NetSpec spec;
  const auto net = f.find("net");
  if (net == f.end()) usage("--net required");
  spec.kind = net_kind(net->second);
  spec.topo = topo;
  // The flags carry no routing algorithm: every fabric gets its natural one
  // (kXY for a 2D mesh, exactly as before --topo existed).
  spec.enoc.routing = noc::default_algo(spec.topo);
  spec.hybrid.electrical.routing = spec.enoc.routing;
  apply_faults_flag(f, spec);
  return spec;
}

fullsys::AppParams app_from(const std::map<std::string, std::string>& f,
                            const core::NetSpec& spec) {
  fullsys::AppParams app;
  const auto a = f.find("app");
  if (a == f.end()) usage("--app required");
  app.name = a->second;
  app.cores = spec.topo.node_count();  // exec_fabric checked --cores
  app.lines_per_core = 16;
  app.iterations = 2;
  if (const auto it = f.find("lines"); it != f.end()) {
    app.lines_per_core = count_flag<int>("lines", it->second);
  }
  if (const auto it = f.find("iters"); it != f.end()) {
    app.iterations = count_flag<int>("iters", it->second);
  }
  if (const auto it = f.find("seed"); it != f.end()) {
    app.seed = count_flag<std::uint64_t>("seed", it->second);
  }
  return app;
}

trace::TraceFormat format_from(const std::map<std::string, std::string>& f,
                               trace::TraceFormat fallback) {
  const auto it = f.find("format");
  if (it == f.end()) return fallback;
  if (it->second == "v1") return trace::TraceFormat::kV1;
  if (it->second == "v2") return trace::TraceFormat::kV2;
  usage("--format must be v1 or v2");
}

/// Writes `m` when --stats-json was given; reports the path on stdout.
void maybe_emit_stats_json(const std::map<std::string, std::string>& f,
                           const sctm::RunMetrics& m) {
  const auto it = f.find("stats-json");
  if (it == f.end()) return;
  m.write_file(it->second);
  std::printf("run metrics json -> %s\n", it->second.c_str());
}

int cmd_capture(const std::map<std::string, std::string>& f) {
  const auto spec = spec_from(f, exec_fabric(f));
  const auto app = app_from(f, spec);
  const auto out = f.find("out");
  if (out == f.end()) usage("--out required");
  const auto format = format_from(f, trace::TraceFormat::kV2);
  const auto exec = core::run_execution(app, spec, {});
  trace::write_file(exec.trace, out->second, format);
  std::printf("captured %zu messages (%s on %s), runtime %llu cycles, "
              "%.3f s wall -> %s (%s)\n",
              exec.trace.records.size(), app.name.c_str(),
              spec.describe().c_str(),
              static_cast<unsigned long long>(exec.runtime),
              exec.wall_seconds, out->second.c_str(),
              trace::to_string(format));
  auto metrics = core::metrics_for_execution(app, spec, exec,
                                             "sctm_cli capture",
                                             now_iso8601());
  metrics.manifest.set("trace_out", out->second);
  maybe_emit_stats_json(f, metrics);
  return 0;
}

const std::string& require_flag(const std::map<std::string, std::string>& f,
                                const char* key) {
  const auto it = f.find(key);
  if (it == f.end()) usage(("--" + std::string(key) + " required").c_str());
  return it->second;
}

/// Replay engine knobs shared by `replay` and `explore`.
core::ReplayConfig replay_cfg_from(const std::map<std::string, std::string>& f) {
  core::ReplayConfig cfg;
  if (const auto m = f.find("mode"); m != f.end()) {
    if (m->second == "naive") cfg.mode = core::ReplayMode::kNaive;
    else if (m->second == "sctm") cfg.mode = core::ReplayMode::kSelfCorrecting;
    else usage("--mode must be naive or sctm");
  }
  if (const auto w = f.find("window"); w != f.end()) {
    cfg.dependency_window = count_flag<std::uint32_t>("window", w->second);
  }
  if (const auto it = f.find("iters-max"); it != f.end()) {
    cfg.max_iterations = count_flag<int>("iters-max", it->second);
  }
  return cfg;
}

int cmd_replay(const std::map<std::string, std::string>& f) {
  const auto tr = f.find("trace");
  if (tr == f.end()) usage("--trace required");
  // v2 containers stream chunk-at-a-time into the replay representation; a
  // whole record vector-of-vectors is never materialized.
  const auto loaded = core::load_replay_trace(tr->second);
  const auto spec = spec_from(f, fabric_for(f, loaded.nodes(), "trace"));

  const core::ReplayConfig cfg = replay_cfg_from(f);

  const auto rep = core::run_replay(loaded, spec, cfg);
  const auto h = rep.result.latency_histogram();
  std::printf("replayed %u messages on %s (%s): runtime %llu cycles, "
              "latency mean %.1f p50 %llu p99 %llu, %d iteration(s), "
              "%.4f s wall\n",
              loaded.size(), spec.describe().c_str(),
              core::to_string(cfg.mode),
              static_cast<unsigned long long>(rep.result.runtime), h.mean(),
              static_cast<unsigned long long>(h.percentile(0.5)),
              static_cast<unsigned long long>(h.percentile(0.99)),
              rep.result.iterations, rep.wall_seconds);
  if (const auto csv = f.find("csv"); csv != f.end()) {
    Table t("replay");
    t.set_header({"id", "inject", "arrive", "latency"});
    for (std::uint32_t i = 0; i < loaded.size(); ++i) {
      t.add_row({Table::fmt(loaded.id(i)),
                 Table::fmt(rep.result.inject_time[i]),
                 Table::fmt(rep.result.arrive_time[i]),
                 Table::fmt(rep.result.arrive_time[i] -
                            rep.result.inject_time[i])});
    }
    t.write_csv(csv->second);
    std::printf("per-message csv -> %s\n", csv->second.c_str());
  }
  maybe_emit_stats_json(
      f, core::metrics_for_replay(loaded, spec, cfg, rep, "sctm_cli replay",
                                  now_iso8601()));
  return 0;
}

int cmd_explore(const std::map<std::string, std::string>& f) {
  const auto& tr = require_flag(f, "trace");
  const auto& cand_path = require_flag(f, "candidates");
  // v2 containers stream chunk-at-a-time into the replay representation.
  const auto rt = core::load_replay_trace(tr);
  // The candidates config carries both the design space
  // (candidate.<name>.<param> in the experiment vocabulary) and, optionally,
  // the screen setting (explore.screen.top_k); parse errors come back with
  // file:line anchors.
  const Config cand_cfg = Config::from_file(cand_path);
  auto candidates = core::candidates_from_config(cand_cfg, cand_path);
  // Candidates that name no fabric inherit the trace's (the same rule as
  // `replay`); one that names a fabric must fit the trace.
  const noc::Topology fabric = fabric_for(f, rt.nodes(), "trace");
  const auto keys = cand_cfg.keys();
  for (auto& c : candidates) {
    const std::string key = "candidate." + c.name + ".";
    const bool names_fabric =
        std::any_of(keys.begin(), keys.end(), [&](const std::string& k) {
          return k.rfind(key + "net.topology", 0) == 0 ||
                 k.rfind(key + "net.mesh_", 0) == 0;
        });
    if (!names_fabric) {
      c.spec.topo = fabric;
      if (!cand_cfg.contains(key + "enoc.routing")) {
        c.spec.enoc.routing = noc::default_algo(fabric);
        c.spec.hybrid.electrical.routing = c.spec.enoc.routing;
      }
    } else if (c.spec.topo.node_count() != rt.nodes()) {
      throw std::runtime_error(
          cand_path + ": candidate '" + c.name + "': fabric " +
          c.spec.topo.describe() + " has " +
          std::to_string(c.spec.topo.node_count()) +
          " nodes but the trace has " + std::to_string(rt.nodes()));
    }
  }
  // --faults supplies the shared fault regime; a candidate's own fault.*
  // keys (if any) win over it.
  if (const auto it = f.find("faults"); it != f.end()) {
    const auto shared =
        fault::FaultSpec::from_config(Config::from_file(it->second));
    for (auto& c : candidates) {
      if (c.spec.fault == fault::FaultSpec{}) c.spec.fault = shared;
    }
  }
  core::ExploreConfig base;
  base.replay = replay_cfg_from(f);
  if (const auto it = f.find("threads"); it != f.end()) {
    base.threads = count_flag<unsigned>("threads", it->second);
  }
  core::ExploreConfig cfg = core::explore_config_from(cand_cfg, base);
  if (const auto it = f.find("screen-top"); it != f.end()) {
    const auto k = count_flag<std::size_t>("screen-top", it->second);
    if (k < 1) {
      usage("--screen-top must be >= 1 (a screen that confirms no candidate "
            "is a config bug; omit the flag to replay everything)");
    }
    cfg.screen_top_k = k;
  }

  const auto results = analytic::explore_screened(rt, candidates, cfg);
  const bool screened = cfg.screen_top_k != 0;

  Table t("explore");
  t.set_header({"rank", "candidate", "tier", "est_runtime", "runtime",
                "latency_mean", "latency_p99", "iterations", "wall_s"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    t.add_row({Table::fmt(static_cast<std::uint64_t>(i + 1)), r.name,
               r.replayed ? (screened ? "replay" : "full") : "analytic",
               r.analytic_rank != 0 ? Table::fmt(r.est_runtime, 0) : "-",
               r.replayed ? Table::fmt(std::uint64_t{r.runtime}) : "-",
               r.replayed ? Table::fmt(r.mean_latency, 1) : "-",
               r.replayed ? Table::fmt(std::uint64_t{r.p99_latency}) : "-",
               r.replayed ? Table::fmt(static_cast<std::int64_t>(r.iterations))
                          : "-",
               r.replayed ? Table::fmt(r.wall_seconds, 4) : "-"});
  }
  std::fputs(t.to_ascii().c_str(), stdout);
  std::printf("explored %zu candidate(s) over %u records (%s%s), best: %s\n",
              results.size(), rt.size(), core::to_string(cfg.replay.mode),
              screened ? ", screened" : "",
              results.empty() ? "-" : results.front().name.c_str());
  if (const auto csv = f.find("csv"); csv != f.end()) {
    t.write_csv(csv->second);
    std::printf("results csv -> %s\n", csv->second.c_str());
  }

  if (f.count("stats-json")) {
    RunMetrics m = core::metrics_for_explore(rt, candidates, cfg, results,
                                             "sctm_cli explore",
                                             now_iso8601());
    // `0 = hardware` resolves through the one resolve_threads() convention,
    // so the manifest records the worker count the run actually used.
    m.manifest.set("explore_workers",
                   static_cast<std::int64_t>(resolve_threads(cfg.threads)));
    maybe_emit_stats_json(f, m);
  }
  return 0;
}

int cmd_inspect(const std::map<std::string, std::string>& f) {
  const auto tr = f.find("trace");
  if (tr == f.end()) usage("--trace required");
  const auto loaded = trace::read_binary_file(tr->second);
  const core::ReplayTrace rt(loaded);  // validates the dependency annotations
  const auto prof = analytic::profile_trace(rt);
  const auto s = core::summarize(loaded);
  std::printf("app=%s capture-net='%s' nodes=%d seed=%llu\n",
              loaded.app.c_str(), loaded.capture_network.c_str(), loaded.nodes,
              static_cast<unsigned long long>(loaded.seed));
  std::printf("records=%zu runtime=%llu latency mean=%.1f p99=%llu\n",
              loaded.records.size(),
              static_cast<unsigned long long>(loaded.capture_runtime),
              s.mean_latency, static_cast<unsigned long long>(s.p99_latency));
  std::printf("deps/record=%.2f roots=%llu critical-path=%u records\n",
              prof.mean_fanin, static_cast<unsigned long long>(prof.roots),
              prof.critical_depth);
  if (f.count("text")) std::fputs(trace::to_text(loaded).c_str(), stdout);

  if (f.count("stats-json")) {
    RunMetrics m;
    m.manifest.tool = "sctm_cli inspect";
    m.manifest.created = now_iso8601();
    m.manifest.set("trace", core::trace_id(rt));
    m.manifest.set("app", loaded.app);
    m.manifest.set("capture_net", loaded.capture_network);
    m.manifest.set("nodes", loaded.nodes);
    m.manifest.set("seed", loaded.seed);
    Histogram lat;
    for (const auto& r : loaded.records) lat.add(r.latency());
    m.add_histogram("latency", lat, /*with_buckets=*/true);
    JsonWriter results;
    results.begin_object();
    results.key("records");
    results.value(static_cast<std::uint64_t>(loaded.records.size()));
    results.key("capture_runtime_cycles");
    results.value(std::uint64_t{loaded.capture_runtime});
    results.key("mean_deps_per_record");
    results.value(prof.mean_fanin);
    results.key("roots");
    results.value(prof.roots);
    results.key("critical_path_records");
    results.value(std::uint64_t{prof.critical_depth});
    results.end_object();
    m.set_results_json(std::move(results).str());
    maybe_emit_stats_json(f, m);
  }
  return 0;
}

int cmd_exec(const std::map<std::string, std::string>& f) {
  const auto spec = spec_from(f, exec_fabric(f));
  const auto app = app_from(f, spec);
  const auto exec = core::run_execution(app, spec, {});
  const auto s = core::summarize(exec.trace);
  std::printf("%s on %s: runtime %llu cycles, %zu messages, latency mean "
              "%.1f p99 %llu, %.3f s wall\n",
              app.name.c_str(), spec.describe().c_str(),
              static_cast<unsigned long long>(exec.runtime),
              exec.trace.records.size(), s.mean_latency,
              static_cast<unsigned long long>(s.p99_latency),
              exec.wall_seconds);
  if (const auto it = f.find("stats"); it != f.end()) {
    std::FILE* out = std::fopen(it->second.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", it->second.c_str());
      return 1;
    }
    std::fputs(exec.stats_report.c_str(), out);
    std::fclose(out);
    std::printf("full stats dump -> %s\n", it->second.c_str());
  }
  maybe_emit_stats_json(f, core::metrics_for_execution(app, spec, exec,
                                                       "sctm_cli exec",
                                                       now_iso8601()));
  return 0;
}

/// Config-file experiment (experiment.mode exec | replay | accuracy, see
/// core/experiment.hpp): prints the result table and echoes the consumed
/// keys for provenance; --stats-json puts both in a run-metrics document.
int cmd_run(const std::map<std::string, std::string>& f) {
  const auto& path = require_flag(f, "config");
  const auto cfg = Config::from_file(path);
  const auto table = core::run_experiment(cfg);
  std::fputs(table.to_ascii().c_str(), stdout);
  std::puts("-- consumed configuration --");
  std::fputs(cfg.consumed_dump().c_str(), stdout);
  if (f.count("stats-json")) {
    RunMetrics m;
    m.manifest.tool = "sctm_cli run";
    m.manifest.created = now_iso8601();
    m.manifest.set("config_file", path);
    JsonWriter results;
    results.begin_object();
    results.key("table");
    write_table_json(results, table);
    results.key("consumed_config");
    results.value(cfg.consumed_dump());
    results.end_object();
    m.set_results_json(std::move(results).str());
    maybe_emit_stats_json(f, m);
  }
  return 0;
}

int cmd_validate(const std::map<std::string, std::string>& f) {
  const auto it = f.find("json");
  if (it == f.end()) usage("--json required");
  std::ifstream in(it->second, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", it->second.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string err;
  if (!validate_metrics_json(buf.str(), &err)) {
    std::fprintf(stderr, "invalid metrics document %s: %s\n",
                 it->second.c_str(), err.c_str());
    return 1;
  }
  std::printf("%s: valid %s document\n", it->second.c_str(),
              std::string(kMetricsSchema).c_str());
  return 0;
}

int cmd_trace_info(const std::map<std::string, std::string>& f) {
  const auto& path = require_flag(f, "trace");
  const auto fmt = trace::sniff_format(path);
  if (fmt == trace::TraceFormat::kV1) {
    const auto t = trace::read_binary_file(path);
    std::printf("%s: format=v1 app=%s capture-net='%s' nodes=%d seed=%llu "
                "records=%zu content-hash=%s\n",
                path.c_str(), t.app.c_str(), t.capture_network.c_str(),
                t.nodes, static_cast<unsigned long long>(t.seed),
                t.records.size(),
                tracestore::hash_hex(tracestore::content_hash(t)).c_str());
    return 0;
  }
  const auto reader = tracestore::TraceReader::open_file(path);
  const auto& m = reader.meta();
  std::printf("%s: format=v2 app=%s capture-net='%s' nodes=%d seed=%llu\n",
              path.c_str(), m.app.c_str(), m.capture_network.c_str(), m.nodes,
              static_cast<unsigned long long>(m.seed));
  std::printf("records=%llu chunks=%zu chunk-target=%u bytes=%llu "
              "content-hash=%s\n",
              static_cast<unsigned long long>(reader.record_count()),
              reader.chunk_count(), reader.chunk_target(),
              static_cast<unsigned long long>(reader.file_bytes()),
              tracestore::hash_hex(reader.stored_content_hash()).c_str());
  if (f.count("chunks")) {
    for (std::size_t i = 0; i < reader.chunk_count(); ++i) {
      const auto& c = reader.chunk_info(i);
      std::printf("  chunk %zu: records [%llu, %llu) bytes=%u cycles "
                  "[%llu, %llu]\n",
                  i, static_cast<unsigned long long>(c.first_record),
                  static_cast<unsigned long long>(c.first_record +
                                                  c.record_count),
                  c.payload_len,
                  static_cast<unsigned long long>(c.min_cycle),
                  static_cast<unsigned long long>(c.max_cycle));
    }
  }
  return 0;
}

int cmd_trace_convert(const std::map<std::string, std::string>& f) {
  const auto& in = require_flag(f, "in");
  const auto& out = require_flag(f, "out");
  const auto format = format_from(f, trace::TraceFormat::kV2);
  const auto t = trace::read_binary_file(in);
  if (format == trace::TraceFormat::kV2 && f.count("chunk")) {
    tracestore::write_v2_file(
        t, out, count_flag<std::uint32_t>("chunk", f.at("chunk")));
  } else {
    trace::write_file(t, out, format);
  }
  const auto in_bytes = std::ifstream(in, std::ios::binary | std::ios::ate)
                            .tellg();
  const auto out_bytes = std::ifstream(out, std::ios::binary | std::ios::ate)
                             .tellg();
  std::printf("%s (%s, %lld bytes) -> %s (%s, %lld bytes), ratio %.2fx\n",
              in.c_str(), trace::to_string(trace::sniff_format(in)),
              static_cast<long long>(in_bytes), out.c_str(),
              trace::to_string(format), static_cast<long long>(out_bytes),
              out_bytes > 0 ? static_cast<double>(in_bytes) /
                                  static_cast<double>(out_bytes)
                            : 0.0);
  return 0;
}

int cmd_trace_verify(const std::map<std::string, std::string>& f) {
  const auto& path = require_flag(f, "trace");
  if (trace::sniff_format(path) == trace::TraceFormat::kV1) {
    // v1 has no checksums: "verify" = the strict reader accepts every byte.
    try {
      const auto t = trace::read_binary_file(path);
      std::printf("%s: OK (v1, %zu records; no checksums in v1)\n",
                  path.c_str(), t.records.size());
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: CORRUPT (v1): %s\n", path.c_str(), e.what());
      return 1;
    }
  }
  const auto rep = tracestore::verify_v2_file(path, /*deep=*/!f.count("quick"));
  if (rep.ok) {
    std::printf("%s: OK (v2, %llu records in %llu chunks%s)\n", path.c_str(),
                static_cast<unsigned long long>(rep.records),
                static_cast<unsigned long long>(rep.chunks),
                rep.hash_checked ? ", content hash verified" : "");
    return 0;
  }
  if (rep.bad_chunk >= 0) {
    std::fprintf(stderr, "%s: CORRUPT in chunk %lld: %s\n", path.c_str(),
                 static_cast<long long>(rep.bad_chunk), rep.error.c_str());
  } else {
    std::fprintf(stderr, "%s: CORRUPT (header/index/footer): %s\n",
                 path.c_str(), rep.error.c_str());
  }
  return 1;
}

int cmd_trace_hash(const std::map<std::string, std::string>& f) {
  const auto& path = require_flag(f, "trace");
  // Recomputed over the logical content, so the hash is format-independent:
  // a v1 file and its v2 conversion print the same address.
  const auto t = trace::read_binary_file(path);
  std::printf("%s  %s\n", tracestore::hash_hex(tracestore::content_hash(t)).c_str(),
              path.c_str());
  return 0;
}

int cmd_trace_add(const std::map<std::string, std::string>& f) {
  const auto& path = require_flag(f, "trace");
  const auto& dir = require_flag(f, "dir");
  tracestore::TraceCatalog catalog(dir);
  const auto entry = catalog.add(trace::read_binary_file(path), now_iso8601());
  std::printf("%s -> %s (%llu records, %llu chunks)\n", path.c_str(),
              catalog.container_path(entry).c_str(),
              static_cast<unsigned long long>(entry.records),
              static_cast<unsigned long long>(entry.chunks));
  return 0;
}

int cmd_trace_list(const std::map<std::string, std::string>& f) {
  const auto& dir = require_flag(f, "dir");
  const tracestore::TraceCatalog catalog(dir);
  const auto entries = catalog.list();
  for (const auto& e : entries) {
    std::printf("%s  app=%s net='%s' nodes=%d seed=%llu records=%llu "
                "bytes=%llu created=%s\n",
                e.hash.c_str(), e.app.c_str(), e.capture_network.c_str(),
                e.nodes, static_cast<unsigned long long>(e.seed),
                static_cast<unsigned long long>(e.records),
                static_cast<unsigned long long>(e.file_bytes),
                e.created.empty() ? "-" : e.created.c_str());
  }
  std::printf("%zu trace(s) in %s\n", entries.size(), catalog.dir().c_str());
  return 0;
}

// --------------------------------------------------------------------------
// topo — fabric tooling over the graph-backed topology layer.
//
//   sctm_cli topo info   <file|spec>
//   sctm_cli topo verify <file|spec> [--algo <routing>]
//
// <file|spec> is a topology file path or a mesh:WxH / torus:WxH / ring:N /
// mesh3d:XxYxZ / torus3d:XxYxZ / file:<path> spec. File errors are anchored
// "<path>:<line>: ..." by the parser.

noc::Topology topo_arg(const std::string& arg) {
  if (arg.find(':') == std::string::npos &&
      arg.find('x') == std::string::npos) {
    return noc::Topology::from_file(arg);
  }
  return parse_topo_spec(arg);
}

int cmd_topo_info(const noc::Topology& topo) {
  std::printf("topology: %s\n", topo.describe().c_str());
  std::printf("nodes: %d\n", topo.node_count());
  std::printf("edges: %d\n", topo.link_count() / 2);
  std::map<int, int> hist;  // degree -> node count
  for (NodeId n = 0; n < topo.node_count(); ++n) {
    int deg = 0;
    for (int p = 0; p < topo.radix(n); ++p) {
      if (topo.neighbor(n, p) != kInvalidNode) ++deg;
    }
    ++hist[deg];
  }
  std::string h;
  for (const auto& [deg, cnt] : hist) {
    if (!h.empty()) h += " ";
    h += std::to_string(deg) + ":" + std::to_string(cnt);
  }
  std::printf("radix histogram: %s\n", h.c_str());
  std::printf("diameter: %d\n", topo.diameter());
  std::printf("mean distance: %.4f\n", topo.mean_distance());
  return 0;
}

noc::RoutingAlgo algo_from(const std::map<std::string, std::string>& f,
                           const noc::Topology& topo) {
  const auto it = f.find("algo");
  if (it == f.end()) return noc::default_algo(topo);
  const std::string& a = it->second;
  if (a == "xy") return noc::RoutingAlgo::kXY;
  if (a == "yx") return noc::RoutingAlgo::kYX;
  if (a == "odd-even") return noc::RoutingAlgo::kOddEven;
  if (a == "ring-shortest") return noc::RoutingAlgo::kRingShortest;
  if (a == "torus-dor") return noc::RoutingAlgo::kTorusDor;
  if (a == "xyz") return noc::RoutingAlgo::kXyz;
  if (a == "table") return noc::RoutingAlgo::kTable;
  usage(("unknown routing algorithm " + a).c_str());
}

int cmd_topo_verify(const noc::Topology& topo,
                    const std::map<std::string, std::string>& f) {
  const auto algo = algo_from(f, topo);
  if (!noc::compatible(topo, algo)) {
    std::fprintf(stderr, "%s: FAIL: %s routing is incompatible with this "
                 "topology kind\n",
                 topo.describe().c_str(), noc::to_string(algo));
    return 1;
  }
  // Connectivity: the file parser and the table builder both reject
  // disconnected fabrics; regular kinds are connected by construction.
  const noc::RoutingTable rt(topo, algo);
  const auto audit = noc::audit_routes(rt);
  if (audit.ok) {
    std::printf("%s: OK (%s routing: %d routes terminate at the right "
                "length, max %d hops, channel-dependency graph acyclic)\n",
                topo.describe().c_str(), noc::to_string(algo),
                audit.routes_checked, audit.max_hops);
    return 0;
  }
  std::fprintf(stderr, "%s: FAIL (%s routing): %s\n", topo.describe().c_str(),
               noc::to_string(algo), audit.error.c_str());
  return 1;
}

int cmd_topo(int argc, char** argv) {
  if (argc < 3) usage("topo: missing verb (info|verify)");
  const std::string verb = argv[2];
  if (argc < 4) usage("topo: missing <file|spec> argument");
  const std::string arg = argv[3];
  const auto flags = parse_flags(argc, argv, 4);
  check_flags("topo " + verb, flags);
  const auto topo = topo_arg(arg);
  if (verb == "info") return cmd_topo_info(topo);
  if (verb == "verify") return cmd_topo_verify(topo, flags);
  usage(("unknown topo verb " + verb).c_str());
}

int cmd_trace(int argc, char** argv) {
  if (argc < 3) usage("trace: missing verb (info|convert|verify|hash|add|list)");
  const std::string verb = argv[2];
  const auto flags = parse_flags(argc, argv, 3);
  check_flags("trace " + verb, flags);
  if (verb == "info") return cmd_trace_info(flags);
  if (verb == "convert") return cmd_trace_convert(flags);
  if (verb == "verify") return cmd_trace_verify(flags);
  if (verb == "hash") return cmd_trace_hash(flags);
  if (verb == "add") return cmd_trace_add(flags);
  if (verb == "list") return cmd_trace_list(flags);
  usage(("unknown trace verb " + verb).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing subcommand");
  const std::string cmd = argv[1];
  try {
    if (cmd == "trace") return cmd_trace(argc, argv);
    if (cmd == "topo") return cmd_topo(argc, argv);
    const auto flags = parse_flags(argc, argv, 2);
    check_flags(cmd, flags);
    if (cmd == "capture") return cmd_capture(flags);
    if (cmd == "replay") return cmd_replay(flags);
    if (cmd == "explore") return cmd_explore(flags);
    if (cmd == "inspect") return cmd_inspect(flags);
    if (cmd == "exec") return cmd_exec(flags);
    if (cmd == "run") return cmd_run(flags);
    if (cmd == "validate") return cmd_validate(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage(("unknown subcommand " + cmd).c_str());
}
