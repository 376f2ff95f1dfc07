// Timed runner of the repository benchmark.
//
//   perfbench_run --workload W --inputs DIR --seconds S --trace 0|1
//                 [--commit C] [--spans FILE]
//
// Reads only the files perfbench_gen wrote into DIR, runs workload W in
// passes for S seconds through the library's public API, checks every
// pass's output, and prints a report followed, as its last line, by one
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
// --trace 0 measures the end-to-end metrics; their times are in "ref" units
// (see reference_s()), with the raw seconds printed beside them. --trace 1
// spends half the time untraced and half recording spans around every call
// into a layer, then reports the per-layer metrics, per-span self time and
// the tracing overhead (traced median pass minus untraced median pass).
// Spans are kept in memory and written to --spans at exit. Everything timed
// is timed from here, outside the library; nothing in src/ is instrumented
// for this.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <queue>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analytic/screen.hpp"
#include "analytic/trace_profile.hpp"
#include "common.hpp"
#include "common/config.hpp"
#include "common/histogram.hpp"
#include "core/driver.hpp"
#include "core/experiment.hpp"
#include "core/explore.hpp"
#include "core/replay_session.hpp"
#include "tracestore/trace_store.hpp"

using namespace sctm;
using perfbench::accuracy;
using perfbench::err_pct;
using perfbench::member;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------- spans --

struct Span {
  std::string name;
  double start = 0;  // seconds since the tracer was created
  double end = 0;
  int parent = -1;   // index into the span list, -1 for a root
  int pass = -1;     // pass id, -1 for set-up and reference calls
};

/// In-memory span recorder. When off, begin() returns -1 and records
/// nothing, so the untraced passes run the same code without the cost.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  int begin(const char* name, int parent, int pass) {
    if (!on_) return -1;
    spans_.push_back({name, now(), 0, parent, pass});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = now();
  }
  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations of every span called `name`.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const auto& s : spans_) {
      if (s.name == name) out.push_back(s.end - s.start);
    }
    return out;
  }

 private:
  double now() const { return seconds_between(origin_, Clock::now()); }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Span for the enclosing scope.
class Scope {
 public:
  Scope(Tracer& t, const char* name, int parent, int pass)
      : t_(t), id_(t.begin(name, parent, pass)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// ------------------------------------------------------------- results --

struct Metric {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (the self-test checks it).
constexpr Metric kEndToEnd[] = {
    {"msgs_per_ref", "1/ref"}, {"pass_ref_p50", "ref"},  {"pass_ref_tail", "ref"},
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},    {"runtime_acc", "ratio"},
    {"latency_acc", "ratio"},  {"pick_acc", "ratio"},
};

constexpr Metric kPerLayer[] = {
    {"sim.events_per_msg", "events/msg"},
    {"fullsys.build_s", "s"},
    {"fullsys.execute_s", "s"},
    {"fullsys.cmp_only_s", "s"},
    {"fullsys.l2_requests", "count"},
    {"fullsys.mc_queue_wait_cycles", "cycles"},
    {"enoc.router_s", "s"},
    {"enoc.flit_hops", "count"},
    {"enoc.sa_grants", "count"},
    {"trace.finalize_s", "s"},
    {"trace.deps_per_msg", "deps/msg"},
    {"tracestore.encode_s", "s"},
    {"tracestore.decode_s", "s"},
    {"tracestore.bytes_per_msg", "B/msg"},
    {"core.session_build_s", "s"},
    {"core.pass_s", "s"},
    {"core.engine_pass_s", "s"},
    {"core.iterations", "count"},
    {"core.residual", "cycles"},
    {"core.naive_runtime_err_pct", "%"},
    {"core.slowest_candidate_s", "s"},
    {"onoc.arb_s", "s"},
    {"onoc.arb_wait_cycles", "cycles"},
    {"onoc.transmissions", "count"},
    {"analytic.profile_s", "s"},
    {"analytic.score_us_per_candidate", "us"},
    {"analytic.est_err_pct", "%"},
    {"common.lane_busy_frac", "ratio"},
    {"common.sharded_speedup", "ratio"},
    {"perfbench.trace_overhead_s", "s"},
};

struct Args {
  std::string workload;
  std::filesystem::path inputs;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string spans;
};

/// Everything one workload run produces. Timings are host seconds;
/// runtimes and latencies are simulated cycles.
struct Outcome {
  std::vector<double> setup_s;       // one sample per set-up repetition
  std::vector<double> setup_ref;     // the same in ref units
  std::vector<double> untraced_s;    // pass times with tracing off
  std::vector<double> traced_s;      // pass times with tracing on
  std::vector<double> untraced_ref;  // untraced pass times in ref units
  std::vector<double> untraced_unit; // reference_s() after each untraced pass
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double msgs_per_pass = 0;
  double peak_rss_mb = 0;
  double runtime_err = 0;            // %, against run_execution
  double latency_err = 0;            // %, mean packet latency
  double regret = 0;                 // %, explore only
  std::map<std::string, double> layer;  // per-layer metrics (traced run)
  std::vector<std::string> derived;     // derived report lines (never gated)
  std::map<std::string, std::string> digest;  // deterministic values
};

/// Records one output check; failures print what went wrong.
void check(Outcome& o, bool ok, const std::string& what) {
  ++o.attempted;
  if (!ok) {
    ++o.failed;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
}

/// Resident memory of this process now, in MB.
double resident_mb() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

/// Memory the reference loops keep resident. reference_s() is first called
/// before any set-up, and its buffers stay resident from then on, so the
/// peak below leaves exactly this much out.
double g_reference_mb = 0;

/// Peak resident memory of the simulator's work, in MB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0 - g_reference_mb;
}

/// Host seconds of a fixed discrete-event loop: a binary-heap event queue
/// driving 100k updates of a table, either a hash map over 2^key_bits keys
/// or (flat) an array of 2^key_bits counters. It has the simulator's mix of
/// heap, hash, branch and scattered memory work but none of its code, so no
/// change to the simulator moves it. It allocates only from buffers that
/// every call reuses, so it leaves the process's heap as it found it.
double event_loop_s(unsigned key_bits, bool flat) {
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  constexpr std::size_t kArena = std::size_t{16} << 20;
  constexpr unsigned kFlatBits = 23;  // 64 MiB of counters
  static const std::unique_ptr<std::byte[]> arena(new std::byte[kArena]);
  static const std::unique_ptr<std::uint64_t[]> counters(
      new std::uint64_t[std::size_t{1} << kFlatBits]());
  if (flat && key_bits > kFlatBits) throw std::logic_error("event loop table");
  const auto t0 = Clock::now();
  std::pmr::monotonic_buffer_resource mem(arena.get(), kArena,
                                          std::pmr::null_memory_resource());
  std::priority_queue<Event, std::pmr::vector<Event>, std::greater<>> queue(
      std::greater<>{}, std::pmr::vector<Event>(&mem));
  std::pmr::unordered_map<std::uint32_t, std::uint64_t> table(&mem);
  for (std::uint32_t i = 0; i < 4096; ++i) queue.push({i, i});
  const std::uint64_t mask = (std::uint64_t{1} << key_bits) - 1;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 100000; ++i) {
    const auto [at, id] = queue.top();
    queue.pop();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    if (flat) {
      counters[x & mask] += at;
    } else {
      table[static_cast<std::uint32_t>(x & mask)] += at;
    }
    queue.push({at + (x >> 58) + 1, id});
  }
  const double t = seconds_between(t0, Clock::now());
  if (table.size() > mask + 1) throw std::logic_error("event loop");
  return t;
}

/// The benchmark's unit of host speed, "ref": the geometric mean of the
/// event loop over an L1-sized, an L2-sized and a larger-than-L2 hash map
/// and over a 64 MiB flat table, which competes for the shared L3 and
/// memory as the replay of a large trace does. The host's cores are shared,
/// and contention slows a pass by a factor of up to 1.7 from one minute to
/// the next; it slows these loops by a similar factor, so a pass's time
/// divided by reference_s() right after it (the pass in ref units) holds
/// far stiller than its raw seconds.
double reference_s() {
  return std::sqrt(std::sqrt(event_loop_s(10, false) * event_loop_s(14, false) *
                             event_loop_s(20, false) * event_loop_s(23, true)));
}

/// Nominal seconds per ref unit, a round figure near reference_s() on a
/// 4-vCPU Xeon host; it turns set-up time in ref units back into seconds
/// for setup_s.
constexpr double kRefSeconds = 0.02;

/// Runs `pass` repeatedly: the first half of the time untraced and, when
/// tracing, the second half traced (all of it untraced otherwise). `pass`
/// does the timed work under a root span; `verify` checks its output
/// outside the timed interval and returns an empty string or an error.
/// Pass 0 warms caches and buffers up: it is checked (and is the reference
/// later passes are compared with) but its time is not recorded. Every
/// timed pass is followed by reference_s(), outside the pass; the k-th
/// untraced sample is pass k + 1.
void run_passes(const Args& args, Tracer& tr, Outcome& o,
                const std::function<void(int root, int pass)>& pass,
                const std::function<std::string(int pass)>& verify) {
  int id = 0;
  for (int half = 0; half < (args.trace ? 2 : 1); ++half) {
    tr.set_on(half == 1);
    const double budget = args.trace ? args.seconds / 2 : args.seconds;
    const auto stop = Clock::now() + std::chrono::duration<double>(budget);
    auto& times = half == 1 ? o.traced_s : o.untraced_s;
    do {
      const int root = tr.begin("pass", -1, id);
      const auto t0 = Clock::now();
      std::string err;
      try {
        pass(root, id);
      } catch (const std::exception& e) {
        err = std::string("pass threw: ") + e.what();
      }
      const auto t1 = Clock::now();
      tr.end(root);
      if (err.empty()) {
        try {
          err = verify(id);
        } catch (const std::exception& e) {
          err = std::string("check threw: ") + e.what();
        }
      }
      if (id > 0) {
        times.push_back(seconds_between(t0, t1));
        const double unit = reference_s();  // traced passes too, so both halves match
        if (half == 0) {
          o.untraced_unit.push_back(unit);
          o.untraced_ref.push_back(times.back() / unit);
        }
      }
      check(o, err.empty(), "pass " + std::to_string(id) + ": " + err);
      ++id;
    } while (Clock::now() < stop || times.empty());
  }
  tr.set_on(args.trace);
}

/// Median of `reps` timed calls of `fn`, each under a root span `name`.
double timed_median(Tracer& tr, const char* name, int reps,
                    const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const int id = tr.begin(name, -1, -1);
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_between(t0, Clock::now()));
    tr.end(id);
  }
  return median(t);
}

constexpr int kSetupReps = 15;  // set-up repetitions (setup_s is their median)
constexpr int kRefReps = 3;    // repetitions of each reference measurement

/// Sum of the counters (or accumulator sums) whose name ends in `suffix`.
double stat_sum(const StatRegistry& reg, const std::string& suffix,
                bool accumulators) {
  StatRegistry copy = reg;  // accumulator() is non-const
  double sum = 0;
  for (const auto& n : copy.names()) {
    if (n.size() < suffix.size() ||
        n.compare(n.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    if (accumulators && copy.has_accumulator(n)) {
      sum += copy.accumulator(n).sum();
    } else if (!accumulators && copy.has_counter(n)) {
      sum += static_cast<double>(copy.counter_value(n));
    }
  }
  return sum;
}

double mean_latency(const core::ReplayResult& r) {
  return r.latency_histogram().mean();
}

double deps_per_msg(const core::ReplayTrace& rt) {
  std::uint64_t deps = 0;
  for (std::uint32_t i = 0; i < rt.size(); ++i) deps += rt.dep_count(i);
  return static_cast<double>(deps) / rt.size();
}

/// Decode of every chunk of a v2 file, on this thread, into one reused
/// record buffer: the tracestore share of load_replay_trace.
double decode_median(Tracer& tr, const std::string& path) {
  const tracestore::TraceReader reader = tracestore::TraceReader::open_file(path);
  std::vector<trace::TraceRecord> buf;
  return timed_median(tr, "tracestore::ChunkCursor::next", kRefReps, [&] {
    tracestore::ChunkCursor cursor(reader, false);
    while (cursor.next(buf)) {
    }
  });
}

/// Median of `reps` ReplaySession::run() calls on a fresh session.
double session_median(Tracer& tr, const char* name, const core::ReplayTrace& rt,
                      const core::NetSpec& spec, const core::ReplayConfig& cfg,
                      core::ReplayResult* out = nullptr) {
  core::ReplaySession s(rt, spec, cfg);
  const double t = timed_median(tr, name, kRefReps, [&] { s.run(); });
  if (out != nullptr) *out = s.take_result();
  return t;
}

std::string fmt(double v) { return JsonWriter::format_double(v); }

std::string fmt_pct(double v) {
  char b[64];
  std::snprintf(b, sizeof b, "%.3f%%", v);
  return b;
}

std::string fmt_x(double v) {
  char b[64];
  std::snprintf(b, sizeof b, "%.2fx", v);
  return b;
}

// ------------------------------------------------------------ workloads --

const core::NetSpec& spec_of(const std::vector<core::Candidate>& cands,
                             const std::string& name) {
  for (const auto& c : cands) {
    if (c.name == name) return c.spec;
  }
  throw std::runtime_error("unknown candidate " + name);
}

struct Inputs {
  std::filesystem::path dir;
  JsonValue truth;
  std::string path(const char* f) const { return (dir / f).string(); }
};

// capture-randacc: run_execution of randacc on the capture ENoC, then a v2
// encode of its trace — the step every user runs first.
void capture_workload(const Args& args, const Inputs& in, Tracer& tr,
                      Outcome& o) {
  const Config cfg = Config::from_file(in.path(perfbench::kCaptureCfg));
  const fullsys::AppParams app = core::app_from_config(cfg);
  const core::NetSpec net = core::netspec_from_config(cfg, "capture");
  const fullsys::FullSysParams sys;
  const JsonValue& truth = member(in.truth, "capture");
  const std::string want_hash = member(truth, "content_hash").string;
  const auto want_runtime = static_cast<Cycle>(member(truth, "runtime").number);
  const double want_latency = member(truth, "mean_latency").number;

  core::ExecutionRun run;
  std::size_t encoded_bytes = 0;
  std::vector<double> execute_s, finalize_s;
  std::map<int, double> build_s;  // by pass id
  run_passes(
      args, tr, o,
      [&](int root, int pass) {
        run = core::ExecutionRun{};  // peak memory is one capture, not two
        {
          Scope s(tr, "core::run_execution", root, pass);
          run = core::run_execution(app, net, sys);
        }
        Scope s(tr, "tracestore::write_v2", root, pass);
        std::ostringstream os;
        tracestore::write_v2(run.trace, os);
        encoded_bytes = static_cast<std::size_t>(os.tellp());
      },
      [&](int pass) -> std::string {
        build_s[pass] = run.phases.at(0).wall_seconds;
        execute_s.push_back(run.phases.at(1).wall_seconds);
        finalize_s.push_back(run.phases.at(2).wall_seconds);
        const std::string h =
            perfbench::hex64(tracestore::content_hash(run.trace));
        if (h != want_hash) return "trace hash " + h + " != generated " + want_hash;
        if (run.runtime != want_runtime) return "runtime differs from generated";
        return "";
      });
  o.peak_rss_mb = peak_rss_mb();
  // Set-up of a capture is its build phase.
  for (std::size_t k = 0; k < o.untraced_unit.size(); ++k) {
    const double b = build_s.at(static_cast<int>(k) + 1);
    o.setup_s.push_back(b);
    o.setup_ref.push_back(b / o.untraced_unit[k]);
  }
  o.msgs_per_pass = static_cast<double>(run.trace.records.size());

  // Once per run: SCTM replay on the capture network reproduces every
  // captured arrival bit-exactly.
  const core::ReplayTrace rt(run.trace);
  core::ReplaySession session(rt, net, core::ReplayConfig{});
  const auto t0 = Clock::now();
  const core::ReplayResult& sctm = session.run();
  const double sctm_s = seconds_between(t0, Clock::now());
  bool exact = sctm.runtime == run.runtime;
  for (std::size_t i = 0; exact && i < run.trace.records.size(); ++i) {
    exact = sctm.inject_time[i] == run.trace.records[i].inject_time &&
            sctm.arrive_time[i] == run.trace.records[i].arrive_time;
  }
  check(o, exact, "SCTM replay on the capture network is not bit-exact");
  o.runtime_err = err_pct(static_cast<double>(sctm.runtime),
                          static_cast<double>(want_runtime));
  o.latency_err = err_pct(mean_latency(sctm), want_latency);
  check(o, o.runtime_err == 0 && o.latency_err == 0,
        "capture-network replay error is not exactly 0");

  core::ReplayConfig naive_cfg;
  naive_cfg.mode = core::ReplayMode::kNaive;
  const core::ReplayResult naive = core::replay(rt, core::make_factory(net), naive_cfg);
  const double naive_err = err_pct(static_cast<double>(naive.runtime),
                                   static_cast<double>(want_runtime));

  // Reference: the same application on the ideal network isolates the CMP
  // model's share of the execute phase.
  core::NetSpec ideal = net;
  ideal.kind = core::NetKind::kIdeal;
  std::vector<double> cmp_only;
  for (int i = 0; i < kRefReps; ++i) {
    const int id = tr.begin("core::run_execution[ideal]", -1, -1);
    cmp_only.push_back(core::run_execution(app, ideal, sys).phases.at(1).wall_seconds);
    tr.end(id);
  }

  const double exec_s = median(execute_s);
  o.derived.push_back("sctm_speedup_vs_exec " + fmt_x(exec_s / sctm_s) +
                      " (capture network; sctm runtime_err_pct " +
                      fmt_pct(o.runtime_err) + ")");
  o.derived.push_back("sctm_err_vs_naive_err runtime " + fmt_pct(o.runtime_err) +
                      " vs naive " + fmt_pct(naive_err));

  const double msgs = o.msgs_per_pass;
  o.layer["sim.events_per_msg"] = static_cast<double>(run.events) / msgs;
  std::vector<double> builds;
  for (const auto& [pass, b] : build_s) builds.push_back(b);
  o.layer["fullsys.build_s"] = median(builds);
  o.layer["fullsys.execute_s"] = exec_s;
  o.layer["fullsys.cmp_only_s"] = median(cmp_only);
  o.layer["fullsys.l2_requests"] = stat_sum(run.stats, ".requests", false);
  o.layer["fullsys.mc_queue_wait_cycles"] = stat_sum(run.stats, ".queue_wait", true);
  o.layer["enoc.router_s"] = exec_s - median(cmp_only);
  o.layer["enoc.flit_hops"] = stat_sum(run.stats, ".link_traversals", false);
  o.layer["enoc.sa_grants"] = stat_sum(run.stats, ".sa_grants", false);
  o.layer["trace.finalize_s"] = median(finalize_s);
  o.layer["trace.deps_per_msg"] = deps_per_msg(rt);
  o.layer["tracestore.encode_s"] = median(tr.durations("tracestore::write_v2"));
  o.layer["tracestore.bytes_per_msg"] = static_cast<double>(encoded_bytes) / msgs;
  o.layer["core.naive_runtime_err_pct"] = naive_err;

  o.digest["runtime_cycles"] = std::to_string(run.runtime);
  o.digest["events"] = std::to_string(run.events);
  o.digest["trace_hash"] = want_hash;
  o.digest["encoded_bytes"] = std::to_string(encoded_bytes);
}

// replay-fft: SCTM replay of the fft trace onto the 16x16 ONoC token ring.
void replay_workload(const Args& args, const Inputs& in, Tracer& tr,
                     Outcome& o) {
  const Config cfg = Config::from_file(in.path(perfbench::kReplayCfg));
  const core::NetSpec target = core::netspec_from_config(cfg, "target");
  const core::ReplayConfig rcfg;  // self-correcting, full window, serial
  const std::string path = in.path(perfbench::kFftTrace);
  const JsonValue& truth = member(in.truth, "replay");
  const auto want_runtime = member(truth, "runtime").number;
  const double want_latency = member(truth, "mean_latency").number;

  std::unique_ptr<core::ReplayTrace> rt;
  std::unique_ptr<core::ReplaySession> session;
  for (int i = 0; i < kSetupReps; ++i) {
    session.reset();
    rt.reset();
    const auto t0 = Clock::now();
    {
      Scope s(tr, "core::load_replay_trace", -1, -1);
      rt = std::make_unique<core::ReplayTrace>(core::load_replay_trace(path));
    }
    Scope s(tr, "core::ReplaySession::ReplaySession", -1, -1);
    session = std::make_unique<core::ReplaySession>(*rt, target, rcfg);
    o.setup_s.push_back(seconds_between(t0, Clock::now()));
    o.setup_ref.push_back(o.setup_s.back() / reference_s());
  }
  check(o, perfbench::hex64(rt->content_hash()) ==
               member(truth, "content_hash").string,
        "decoded fft trace hash differs from the generated one");

  std::vector<Cycle> first_inject, first_arrive;
  run_passes(
      args, tr, o,
      [&](int root, int pass) {
        Scope s(tr, "core::ReplaySession::run", root, pass);
        session->run();
      },
      [&](int pass) -> std::string {
        const core::ReplayResult& r = session->result();
        if (pass == 0) {
          first_inject = r.inject_time;
          first_arrive = r.arrive_time;
          return "";
        }
        if (r.inject_time != first_inject || r.arrive_time != first_arrive) {
          return "schedule differs from the first pass";
        }
        return "";
      });
  o.peak_rss_mb = peak_rss_mb();
  o.msgs_per_pass = rt->size();
  const core::ReplayResult result = session->take_result();
  session.reset();
  o.runtime_err = err_pct(static_cast<double>(result.runtime), want_runtime);
  o.latency_err = err_pct(mean_latency(result), want_latency);

  // References, outside the timed passes.
  core::ReplayConfig naive_cfg;
  naive_cfg.mode = core::ReplayMode::kNaive;
  core::ReplayResult naive;
  session_median(tr, "core::ReplaySession::run[naive]", *rt, target, naive_cfg,
                 &naive);
  const double naive_err = err_pct(static_cast<double>(naive.runtime), want_runtime);
  core::NetSpec ideal = target;
  ideal.kind = core::NetKind::kIdeal;
  const double engine_s =
      session_median(tr, "core::ReplaySession::run[ideal]", *rt, ideal, rcfg);
  core::ReplayConfig sharded_cfg = rcfg;
  sharded_cfg.threads = perfbench::workers();
  core::ReplayResult sharded;
  const double serial_s =
      session_median(tr, "core::ReplaySession::run[lanes=1]", *rt, target, rcfg);
  const double sharded_s = session_median(
      tr, "core::ReplaySession::run[lanes=W]", *rt, target, sharded_cfg, &sharded);
  check(o, sharded.inject_time == first_inject && sharded.arrive_time == first_arrive,
        "sharded replay schedule differs from serial");
  const double pass_s = median(args.trace ? o.traced_s : o.untraced_s);
  const double exec_s = member(truth, "exec_s").number;

  o.derived.push_back("sctm_speedup_vs_exec " + fmt_x(exec_s / median(o.untraced_s)) +
                      " (exec on the target: " + fmt(exec_s) +
                      " s; sctm runtime_err_pct " + fmt_pct(o.runtime_err) +
                      ", latency_err_pct " + fmt_pct(o.latency_err) + ")");
  o.derived.push_back("sctm_err_vs_naive_err runtime " + fmt_pct(o.runtime_err) +
                      " vs naive " + fmt_pct(naive_err));
  o.derived.push_back("sharded_lane_scaling " + fmt_x(serial_s / sharded_s) +
                      " at " + std::to_string(perfbench::workers()) +
                      " lanes (schedules identical; runtime_err_pct " +
                      fmt_pct(o.runtime_err) + ")");

  o.layer["sim.events_per_msg"] = static_cast<double>(result.events) / rt->size();
  o.layer["trace.deps_per_msg"] = deps_per_msg(*rt);
  o.layer["tracestore.decode_s"] = decode_median(tr, path);
  o.layer["tracestore.bytes_per_msg"] =
      static_cast<double>(std::filesystem::file_size(path)) / rt->size();
  o.layer["core.session_build_s"] =
      median(tr.durations("core::ReplaySession::ReplaySession"));
  o.layer["core.pass_s"] = pass_s;
  o.layer["core.engine_pass_s"] = engine_s;
  o.layer["core.iterations"] = result.iterations;
  o.layer["core.residual"] = result.residual;
  o.layer["core.naive_runtime_err_pct"] = naive_err;
  o.layer["onoc.arb_s"] = pass_s - engine_s;
  o.layer["onoc.arb_wait_cycles"] = stat_sum(result.stats, "arb_wait", true);
  o.layer["onoc.transmissions"] = stat_sum(result.stats, "transmissions", false);
  o.layer["common.sharded_speedup"] = serial_s / sharded_s;

  o.digest["runtime_cycles"] = std::to_string(result.runtime);
  o.digest["events"] = std::to_string(result.events);
  o.digest["trace_hash"] = perfbench::hex64(rt->content_hash());
  o.digest["naive_runtime_cycles"] = std::to_string(naive.runtime);
}

// explore-randacc: one analytically screened sweep of the benchmark's
// design space per pass over the capture-randacc trace.
void explore_workload(const Args& args, const Inputs& in, Tracer& tr,
                      Outcome& o) {
  const Config cfg = Config::from_file(in.path(perfbench::kExploreCfg));
  const std::vector<core::Candidate> cands =
      core::candidates_from_config(cfg, perfbench::kExploreCfg);
  core::ExploreConfig ecfg = core::explore_config_from(cfg);
  ecfg.threads = perfbench::workers();
  const std::size_t k = ecfg.screen_top_k;
  const std::string path = in.path(perfbench::kRandaccTrace);
  const JsonValue& truth = member(in.truth, "explore");

  std::unique_ptr<core::ReplayTrace> rt;
  for (int i = 0; i < kSetupReps; ++i) {
    rt.reset();
    const auto t0 = Clock::now();
    Scope s(tr, "core::load_replay_trace", -1, -1);
    rt = std::make_unique<core::ReplayTrace>(core::load_replay_trace(path));
    o.setup_s.push_back(seconds_between(t0, Clock::now()));
    o.setup_ref.push_back(o.setup_s.back() / reference_s());
  }

  // A pass is one explore_screened() call, traced or not. Its per-layer
  // shares come from what the call returns: each candidate's analytic
  // scoring time and each confirmed candidate's replay wall time.
  std::vector<core::ExploreResult> first, ranking;
  std::vector<double> slowest, busy_sum, analytic_sum, score_s;
  run_passes(
      args, tr, o,
      [&](int root, int pass) {
        Scope s(tr, "analytic::explore_screened", root, pass);
        ranking = analytic::explore_screened(*rt, cands, ecfg);
      },
      [&](int pass) -> std::string {
        if (pass == 0) {  // warm-up: the reference, not a timed sample
          first = ranking;
          return "";
        }
        double worst = 0, wall = 0, scoring = 0;
        for (const auto& r : ranking) {
          if (r.replayed) {
            worst = std::max(worst, r.wall_seconds);
            wall += r.wall_seconds;
          }
          scoring += r.analytic_seconds;
          score_s.push_back(r.analytic_seconds);
        }
        slowest.push_back(worst);
        busy_sum.push_back(wall);
        analytic_sum.push_back(scoring);
        if (ranking.size() != first.size()) return "ranking length differs from the first pass";
        for (std::size_t r = 0; r < ranking.size(); ++r) {
          const auto& a = ranking[r];
          const auto& b = first[r];
          if (a.name != b.name || a.replayed != b.replayed || a.runtime != b.runtime ||
              a.mean_latency != b.mean_latency || a.p99_latency != b.p99_latency ||
              a.iterations != b.iterations || a.est_runtime != b.est_runtime ||
              a.analytic_rank != b.analytic_rank) {
            return "ranking entry " + std::to_string(r) + " differs from the first pass";
          }
        }
        return "";
      });
  o.peak_rss_mb = peak_rss_mb();
  o.msgs_per_pass = static_cast<double>(k) * rt->size();

  // Once per run: every confirmed number equals a standalone run_replay and
  // the generator's full-replay ranking.
  std::uint64_t events = 0;
  for (std::size_t r = 0; r < k; ++r) {
    const auto& c = first[r];
    const core::ReplayRun run =
        core::run_replay(*rt, spec_of(cands, c.name), ecfg.replay);
    events += run.result.events;
    const JsonValue& t = member(truth, c.name);
    check(o,
          c.replayed && run.result.runtime == c.runtime &&
              mean_latency(run.result) == c.mean_latency &&
              run.result.iterations == c.iterations &&
              static_cast<double>(c.runtime) == member(t, "replay_runtime").number,
          "confirmed candidate " + c.name +
              " differs from standalone run_replay or the generated ranking");
  }

  const core::ExploreResult& pick = first.at(0);
  const JsonValue& pick_truth = member(truth, pick.name);
  o.runtime_err = err_pct(static_cast<double>(pick.runtime),
                          member(pick_truth, "runtime").number);
  o.latency_err = err_pct(pick.mean_latency, member(pick_truth, "mean_latency").number);
  double best = INFINITY, exec_all_s = 0;
  std::string best_name;
  std::vector<double> est_err;  // per candidate, against its full replay
  for (const auto& r : first) {
    const JsonValue& t = member(truth, r.name);
    const double replayed = member(t, "replay_runtime").number;
    if (replayed < best) {
      best = replayed;
      best_name = r.name;
    }
    est_err.push_back(err_pct(r.est_runtime, replayed));
    exec_all_s += member(t, "exec_s").number;
  }
  o.regret = 100.0 * (static_cast<double>(pick.runtime) - best) / best;

  core::NetSpec ideal = spec_of(cands, pick.name);
  ideal.kind = core::NetKind::kIdeal;
  const double engine_s =
      session_median(tr, "core::ReplaySession::run[ideal]", *rt, ideal, ecfg.replay);
  // Reference: the screen's one profile of the trace, timed on its own.
  analytic::TraceProfile profile;
  const double profile_s = timed_median(tr, "analytic::profile_trace", kRefReps,
                                        [&] { profile = analytic::profile_trace(*rt); });
  // explore_screened does not time its confirm tier, so its wall is the
  // pass less the profile and the summed scoring (ranking is negligible).
  const double pass_s = median(args.trace ? o.traced_s : o.untraced_s);
  const double confirm_s = pass_s - profile_s - median(analytic_sum);
  const unsigned lanes = static_cast<unsigned>(std::min<std::size_t>(ecfg.threads, k));

  o.derived.push_back("explore_speedup_vs_exec_all " +
                      fmt_x(exec_all_s / median(o.untraced_s)) + " (exec of all " +
                      std::to_string(cands.size()) + " candidates: " + fmt(exec_all_s) +
                      " s; pick " + pick.name + " runtime_err_pct " +
                      fmt_pct(o.runtime_err) + ", best_regret_pct " +
                      fmt_pct(o.regret) + " against " + best_name + ")");

  o.layer["sim.events_per_msg"] = static_cast<double>(events) / o.msgs_per_pass;
  o.layer["trace.deps_per_msg"] = deps_per_msg(*rt);
  o.layer["tracestore.decode_s"] = decode_median(tr, path);
  o.layer["tracestore.bytes_per_msg"] =
      static_cast<double>(std::filesystem::file_size(path)) / rt->size();
  o.layer["core.pass_s"] = confirm_s;
  o.layer["core.engine_pass_s"] = engine_s;
  o.layer["core.iterations"] = pick.iterations;
  o.layer["core.slowest_candidate_s"] = median(slowest);
  o.layer["analytic.profile_s"] = profile_s;
  o.layer["analytic.score_us_per_candidate"] = 1e6 * median(score_s);
  // Median, not mean: saturated candidates' estimates miss by orders of
  // magnitude and would swamp the rest.
  o.layer["analytic.est_err_pct"] = median(est_err);
  o.layer["common.lane_busy_frac"] = median(busy_sum) / (lanes * confirm_s);

  std::string names;
  for (std::size_t r = 0; r < k; ++r) {
    names += first[r].name + "=" + std::to_string(first[r].runtime) + ";";
  }
  o.digest["confirmed"] = names;
  o.digest["events"] = std::to_string(events);
  o.digest["trace_hash"] = perfbench::hex64(rt->content_hash());
}

/// Highest percentile of `times` with at least ten passes beyond it (the
/// maximum when there are ten or fewer passes).
std::pair<double, double> tail(std::vector<double> times) {
  std::sort(times.begin(), times.end());
  const std::size_t n = times.size();
  if (n <= 10) return {times.back(), 100.0};
  return {times[n - 11], 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)};
}

/// Per span name: calls, median duration and median self time (duration
/// minus the part covered by its direct children).
void print_self_times(const Tracer& tr) {
  const auto& spans = tr.spans();
  std::vector<double> child(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>> by;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double d = spans[i].end - spans[i].start;
    by[spans[i].name].first.push_back(d);
    by[spans[i].name].second.push_back(d - child[i]);
  }
  std::printf("%-40s %6s %14s %14s\n", "span", "calls", "median_s", "median_self_s");
  for (const auto& [name, v] : by) {
    std::printf("%-40s %6zu %14.6f %14.6f\n", name.c_str(), v.first.size(),
                median(v.first), median(v.second));
  }
}

void write_spans(const Tracer& tr, const std::string& path) {
  JsonWriter w;
  w.begin_array();
  for (const auto& s : tr.spans()) {
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("start");
    w.value(s.start);
    w.key("end");
    w.value(s.end);
    w.key("parent");
    w.value(s.parent);
    w.key("pass");
    w.value(s.pass);
    w.end_object();
  }
  w.end_array();
  std::ofstream out(path);
  out << std::move(w).str() << "\n";
  if (!out) throw std::runtime_error(path + ": write failed");
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--inputs") a.inputs = v;
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--commit") a.commit = v;
    else if (k == "--spans") a.spans = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if ((argc - 1) % 2 != 0 || a.workload.empty() || a.inputs.empty() ||
      !(a.seconds > 0)) {
    throw std::invalid_argument(
        "usage: perfbench_run --workload W --inputs DIR --seconds S "
        "--trace 0|1 [--commit C] [--spans FILE]");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::require_release("perfbench_run");
  Args args;
  Inputs in;
  std::uint64_t seed = 0;
  try {
    args = parse_args(argc, argv);
    in.dir = args.inputs;
    in.truth = perfbench::load_json(in.path(perfbench::kTruth));
    seed = static_cast<std::uint64_t>(member(in.truth, "seed").number);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_run: %s\n", e.what());
    return 2;
  }

  JsonWriter m;
  m.begin_object();
  m.key("workload");
  m.value(args.workload);
  m.key("seed");
  m.value(seed);
  m.key("hardware_threads");
  m.value(std::thread::hardware_concurrency());
  m.key("workers");
  m.value(perfbench::workers());
  m.key("build_type");
  m.value(perfbench::build_type());
  m.key("compiler");
  m.value(perfbench::compiler());
  m.key("commit");
  m.value(args.commit);
  m.key("trace");
  m.value(args.trace);
  m.end_object();
  std::printf("manifest %s\n", std::move(m).str().c_str());

  // The first reference_s() call allocates and touches its buffers; making
  // it before any set-up keeps them resident throughout, so peak_rss_mb()
  // can leave them out.
  const double before = resident_mb();
  reference_s();
  g_reference_mb = resident_mb() - before;
  std::printf("reference buffers %s MB resident, left out of peak_rss_mb\n",
              fmt(g_reference_mb).c_str());

  Tracer tr(args.trace);
  Outcome o;
  bool pick = false;
  try {
    if (args.workload == "capture-randacc-8x8") {
      capture_workload(args, in, tr, o);
    } else if (args.workload == "replay-fft-16x16") {
      replay_workload(args, in, tr, o);
    } else if (args.workload == "explore-randacc-8x8") {
      explore_workload(args, in, tr, o);
      pick = true;
    } else {
      std::fprintf(stderr, "perfbench_run: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_run: %s\n", e.what());
    return 1;
  }

  const std::vector<double>& timed = o.untraced_s;
  const double p50 = median(timed);
  const auto [tail_s, tail_pct] = tail(timed);
  const double ref_p50 = median(o.untraced_ref);
  std::printf("passes %zu untraced, %zu traced; pass_ref_tail and pass_s_tail are "
              "p%.2f of %zu passes\n",
              o.untraced_s.size(), o.traced_s.size(), tail_pct, timed.size());
  std::printf("host seconds (not gated): msgs_per_s %s 1/s, pass_s_p50 %s s, "
              "pass_s_tail %s s, setup_s %s s, ref %s s\n",
              fmt(o.msgs_per_pass / p50).c_str(), fmt(p50).c_str(), fmt(tail_s).c_str(),
              fmt(median(o.setup_s)).c_str(), fmt(median(o.untraced_unit)).c_str());
  std::printf("failed_ops_frac %s (%llu of %llu checked operations)\n",
              fmt(static_cast<double>(o.failed) / static_cast<double>(o.attempted)).c_str(),
              static_cast<unsigned long long>(o.failed),
              static_cast<unsigned long long>(o.attempted));
  std::printf("error runtime_err_pct %s latency_err_pct %s best_regret_pct %s\n",
              fmt(o.runtime_err).c_str(), fmt(o.latency_err).c_str(),
              pick ? fmt(o.regret).c_str() : "n/a");
  for (const auto& d : o.derived) std::printf("derived %s\n", d.c_str());

  std::map<std::string, double> values;
  if (!args.trace) {
    values["msgs_per_ref"] = o.msgs_per_pass / ref_p50;
    values["pass_ref_p50"] = ref_p50;
    values["pass_ref_tail"] = tail(o.untraced_ref).first;
    values["setup_s"] = kRefSeconds * median(o.setup_ref);
    values["peak_rss_mb"] = o.peak_rss_mb;
    values["runtime_acc"] = accuracy(o.runtime_err);
    values["latency_acc"] = accuracy(o.latency_err);
    // Only explore chooses among candidates; the other workloads have one
    // network, so their pick is the best by definition.
    values["pick_acc"] = pick ? accuracy(o.regret) : 1.0;
  } else {
    print_self_times(tr);
    o.layer["perfbench.trace_overhead_s"] = median(o.traced_s) - p50;
    std::printf("tracing overhead %s s (traced median %s s, untraced median %s s)\n",
                fmt(median(o.traced_s) - p50).c_str(), fmt(median(o.traced_s)).c_str(),
                fmt(p50).c_str());
    for (const auto& mt : kPerLayer) {
      const auto it = o.layer.find(mt.name);
      if (it == o.layer.end()) {
        std::printf("absent %s: layer idle in %s, reported as 0\n", mt.name,
                    args.workload.c_str());
      }
      values[mt.name] = it == o.layer.end() ? 0.0 : it->second;
    }
  }

  // Deterministic values: identical across runs of one seed and between the
  // traced and untraced runs (the self-test compares them).
  JsonWriter d;
  d.begin_object();
  for (const auto& [k, v] : o.digest) {
    d.key(k);
    d.value(v);
  }
  d.key("runtime_err_pct");
  d.value(o.runtime_err);
  d.key("latency_err_pct");
  d.value(o.latency_err);
  d.key("best_regret_pct");
  d.value(o.regret);
  d.end_object();
  std::printf("digest %s\n", std::move(d).str().c_str());

  JsonWriter out;
  out.begin_object();
  out.key("correct");
  out.value(o.failed == 0);
  out.key("attempted");
  out.value(o.attempted);
  out.key("failed");
  out.value(o.failed);
  out.key("metrics");
  out.begin_object();
  const std::span<const Metric> emitted =
      args.trace ? std::span<const Metric>(kPerLayer) : std::span<const Metric>(kEndToEnd);
  for (const auto& mt : emitted) {
    std::printf("metric %-34s %-22s %s\n", mt.name, fmt(values.at(mt.name)).c_str(), mt.unit);
    out.key(mt.name);
    out.begin_object();
    out.key("value");
    out.value(values.at(mt.name));
    out.key("unit");
    out.value(mt.unit);
    out.end_object();
  }
  out.end_object();
  out.end_object();

  if (args.trace && !args.spans.empty()) {
    try {
      write_spans(tr, args.spans);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench_run: %s\n", e.what());
      return 1;
    }
  }
  std::printf("%s\n", std::move(out).str().c_str());
  std::fflush(stdout);
  return o.failed == 0 ? 0 : 1;
}
