// Microbenchmarks (google-benchmark) for the simulator's hot kernels:
// event queue, RNG, cache lookups, router cycle under load, ONOC token
// arbitration, and end-to-end replay cost per message. These guard the
// performance that makes trace replay worthwhile in the first place.
//
// In addition to the google-benchmark suite, main() first runs two
// controlled before/after comparisons and writes machine-readable results
// under bench_results/ so future PRs can track the perf trajectory:
//
//  * event kernel (BENCH_micro_kernels.json): the banded calendar queue with
//    InlineFn callables against the seed implementation (std::function
//    closures in a single std::priority_queue), on a uniform and a
//    same-cycle-heavy (bursty) schedule. Bar: >= 1.5x on the bursty one.
//  * data plane (BENCH_data_plane.json): the quiescence-aware activity
//    scoreboard (tick only routers holding flits) against the seed policy of
//    ticking every router every cycle, on a sparse low-load workload and at
//    saturation. The workloads are deterministic pre-computed injection
//    schedules — not the open-loop TrafficGenerator, whose per-node-per-
//    cycle generator events would mask the network-advance cost being
//    measured. The two modes are timed alternately, one run each per rep,
//    and each keeps its best rep, so a slow spell on a shared host hits
//    both sides alike. Bars: >= 2.0x sparse, >= 0.95x saturated; both modes
//    must also produce identical activity hashes (bit-exact datapath).
//
// The binary exits non-zero if any bar fails. Pass --smoke to run only the
// two comparisons (reduced reps, same bars) and skip the google-benchmark
// suite — the Release CI job uses this as a perf regression gate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <queue>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/driver.hpp"
#include "enoc/enoc_network.hpp"
#include "fullsys/cache.hpp"
#include "noc/traffic.hpp"
#include "onoc/token.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace sctm;

// ---------------------------------------------------------------------------
// Event-kernel before/after harness
// ---------------------------------------------------------------------------

/// The seed event queue, verbatim: heap-allocating std::function closures in
/// one (time, band, seq)-keyed std::priority_queue. Kept here as the
/// reference point the banded calendar queue is measured against.
class LegacyEventQueue {
 public:
  using Fn = std::function<void()>;
  enum Band : int { kNormal = 0, kLate = 1 };

  std::uint64_t push(Cycle t, Fn fn, Band band = kNormal) {
    const std::uint64_t seq = next_seq_++;
    heap_.push(Entry{t, band, seq, std::move(fn)});
    return seq;
  }
  bool empty() const { return heap_.empty(); }
  Cycle next_time() const { return heap_.empty() ? kNoCycle : heap_.top().time; }
  struct Popped {
    Cycle time;
    Fn fn;
  };
  Popped pop() {
    Entry& top = const_cast<Entry&>(heap_.top());
    Popped out{top.time, std::move(top.fn)};
    heap_.pop();
    return out;
  }

 private:
  struct Entry {
    Cycle time;
    int band;
    std::uint64_t seq;
    Fn fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.band != b.band) return a.band > b.band;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::uint64_t next_seq_ = 0;
};

/// Message-sized payload: the shape the networks capture on every delivery
/// event ([this, noc::Message] = 56 bytes with the queue's SBO budget; the
/// same closure forces a heap allocation under std::function).
struct Payload {
  std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5;
  std::uint32_t f = 6, g = 7;
};

struct KernelWorkload {
  const char* name;
  int cycles;
  int events_per_cycle;
  Cycle horizon;  // 0: all events land on the current cycle (bursty);
                  // else: uniform in [1, horizon] ahead
};

constexpr KernelWorkload kWorkloads[] = {
    // The replay/router pattern the tentpole optimizes for: bursts of
    // same-cycle work (schedule_in(0)) plus short hops.
    {"bursty_same_cycle", 8000, 48, 0},
    // Uniformly spread near/far mixture crossing the wheel horizon.
    {"uniform_spread", 30000, 12, 96},
};

/// Drives one workload through the banded EventQueue using the shipped
/// batch-dispatch path (drain_cycle). Returns checksum to defeat DCE.
std::uint64_t run_banded(const KernelWorkload& w, std::uint64_t& sink) {
  EventQueue q;
  Rng rng(42);
  const bool stop = false;
  std::uint64_t executed = 0;
  for (int c = 0; c < w.cycles; ++c) {
    const auto t = static_cast<Cycle>(c);
    for (int k = 0; k < w.events_per_cycle; ++k) {
      const Cycle at =
          w.horizon == 0 ? t : t + 1 + rng.next_below(w.horizon);
      Payload p;
      p.a = static_cast<std::uint64_t>(k);
      q.push(at, [p, &sink] { sink += p.a + p.g; });
    }
    while (!q.empty() && q.next_time() == t) {
      executed += q.drain_cycle(t, stop);
    }
  }
  // Drain the tail beyond the last generator cycle.
  while (!q.empty()) {
    const Cycle t = q.next_time();
    executed += q.drain_cycle(t, stop);
  }
  return executed;
}

/// Same workload through the seed kernel's per-event pop loop.
std::uint64_t run_legacy(const KernelWorkload& w, std::uint64_t& sink) {
  LegacyEventQueue q;
  Rng rng(42);
  std::uint64_t executed = 0;
  for (int c = 0; c < w.cycles; ++c) {
    const auto t = static_cast<Cycle>(c);
    for (int k = 0; k < w.events_per_cycle; ++k) {
      const Cycle at =
          w.horizon == 0 ? t : t + 1 + rng.next_below(w.horizon);
      Payload p;
      p.a = static_cast<std::uint64_t>(k);
      q.push(at, [p, &sink] { sink += p.a + p.g; });
    }
    while (!q.empty() && q.next_time() == t) {
      auto e = q.pop();
      e.fn();
      ++executed;
    }
  }
  while (!q.empty()) {
    auto e = q.pop();
    e.fn();
    ++executed;
  }
  return executed;
}

struct KernelResult {
  std::string name;
  std::uint64_t events = 0;
  double legacy_meps = 0;  // million events/second
  double banded_meps = 0;
  double speedup = 0;
};

template <typename F>
double best_of_meps(F&& run, std::uint64_t events, int reps) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const auto t1 = std::chrono::steady_clock::now();
    const double sec = std::chrono::duration<double>(t1 - t0).count();
    const double meps = static_cast<double>(events) / sec / 1e6;
    if (meps > best) best = meps;
  }
  return best;
}

/// Times `a` and `b` alternately, one run each per rep, and returns the best
/// rate of each side.
template <typename A, typename B>
std::pair<double, double> best_of_meps_interleaved(A&& a, B&& b,
                                                   std::uint64_t events,
                                                   int reps) {
  double best_a = 0;
  double best_b = 0;
  for (int r = 0; r < reps; ++r) {
    best_a = std::max(best_a, best_of_meps(a, events, 1));
    best_b = std::max(best_b, best_of_meps(b, events, 1));
  }
  return {best_a, best_b};
}

int run_event_kernel_comparison(int reps) {
  std::vector<KernelResult> results;
  std::uint64_t sink = 0;
  for (const auto& w : kWorkloads) {
    // Warmup + event-count agreement check.
    const std::uint64_t n_banded = run_banded(w, sink);
    const std::uint64_t n_legacy = run_legacy(w, sink);
    if (n_banded != n_legacy) {
      std::fprintf(stderr,
                   "event-kernel bench: %s executed %llu (banded) vs %llu "
                   "(legacy) events\n",
                   w.name, static_cast<unsigned long long>(n_banded),
                   static_cast<unsigned long long>(n_legacy));
      return 1;
    }
    KernelResult r;
    r.name = w.name;
    r.events = n_banded;
    r.banded_meps = best_of_meps([&] { run_banded(w, sink); }, r.events, reps);
    r.legacy_meps = best_of_meps([&] { run_legacy(w, sink); }, r.events, reps);
    r.speedup = r.banded_meps / r.legacy_meps;
    results.push_back(r);
  }
  benchmark::DoNotOptimize(sink);

  std::printf("\nevent kernel: banded calendar queue vs seed priority queue\n");
  std::printf("%-20s %12s %14s %14s %9s\n", "workload", "events",
              "legacy Mev/s", "banded Mev/s", "speedup");
  for (const auto& r : results) {
    std::printf("%-20s %12llu %14.2f %14.2f %8.2fx\n", r.name.c_str(),
                static_cast<unsigned long long>(r.events), r.legacy_meps,
                r.banded_meps, r.speedup);
  }

  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (!ec) {
    RunMetrics m;
    m.manifest.tool = "bench/micro_kernels event_kernel";
    m.manifest.created = now_iso8601();
    m.manifest.set("kernel",
                   std::string("banded calendar wheel + InlineFn vs "
                               "std::priority_queue + std::function"));
    JsonWriter jw;
    jw.begin_object();
    jw.key("workloads");
    jw.begin_array();
    for (const auto& r : results) {
      jw.begin_object();
      jw.key("name");
      jw.value(r.name);
      jw.key("events");
      jw.value(r.events);
      jw.key("legacy_meps");
      jw.value(r.legacy_meps);
      jw.key("banded_meps");
      jw.value(r.banded_meps);
      jw.key("speedup");
      jw.value(r.speedup);
      jw.end_object();
    }
    jw.end_array();
    jw.key("bar");
    jw.begin_object();
    jw.key("workload");
    jw.value("bursty_same_cycle");
    jw.key("required_speedup");
    jw.value(1.5);
    jw.end_object();
    jw.end_object();
    m.set_results_json(std::move(jw).str());
    m.write_file("bench_results/BENCH_micro_kernels.json");
  }

  const double bursty = results.front().speedup;
  const bool ok = bursty >= 1.5;
  std::printf("[%s] event kernel speedup on same-cycle-heavy workload: "
              "%.2fx (bar: 1.50x)\n\n",
              ok ? "OK" : "FAIL", bursty);
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Data-plane (activity scoreboard) before/after harness
// ---------------------------------------------------------------------------

struct ScheduledMsg {
  Cycle at;
  NodeId src;
  NodeId dst;
  std::uint32_t bytes;
};

struct DataPlaneWorkload {
  const char* name;
  int width;
  int height;
  std::vector<ScheduledMsg> msgs;
};

/// Sparse: a 256-router mesh where at most a handful of routers ever hold
/// flits at once — one short message every ~30 cycles over a long horizon.
/// This is the trace-replay shape the scoreboard targets: the clock runs,
/// but almost every router is idle on almost every cycle.
DataPlaneWorkload sparse_workload(int scale) {
  DataPlaneWorkload w{"sparse_low_load", 16, 16, {}};
  Rng rng(101);
  const int n = w.width * w.height;
  const int count = 1500 * scale;
  Cycle t = 0;
  for (int i = 0; i < count; ++i) {
    const auto src = static_cast<NodeId>(rng.next_below(n));
    auto dst = static_cast<NodeId>(rng.next_below(n));
    if (dst == src) dst = (dst + 1) % n;
    w.msgs.push_back({t, src, dst, 64});
    t += 25 + static_cast<Cycle>(rng.next_below(10));
  }
  return w;
}

/// Saturated: every cycle, a quarter of a 64-router mesh injects — the
/// active set is essentially the whole fabric, so the scoreboard's win is
/// gone and the bench guards that its bookkeeping costs (nearly) nothing.
DataPlaneWorkload saturated_workload(int scale) {
  DataPlaneWorkload w{"saturated", 8, 8, {}};
  Rng rng(202);
  const int n = w.width * w.height;
  const Cycle horizon = static_cast<Cycle>(1500) * scale;
  for (Cycle t = 0; t < horizon; ++t) {
    for (int k = 0; k < 16; ++k) {
      const auto src = static_cast<NodeId>(rng.next_below(n));
      auto dst = static_cast<NodeId>(rng.next_below(n));
      if (dst == src) dst = (dst + 1) % n;
      w.msgs.push_back({t, src, dst, 64});
    }
  }
  return w;
}

struct DataPlaneRun {
  std::uint64_t activity_hash = 0;
  std::uint64_t active_cycles = 0;
  std::uint64_t router_ticks = 0;
  std::uint64_t delivered = 0;
};

DataPlaneRun run_data_plane(const DataPlaneWorkload& w, bool exhaustive) {
  Simulator sim;
  const auto topo = noc::Topology::mesh(w.width, w.height);
  enoc::EnocNetwork net(sim, "enoc", topo, enoc::EnocParams{});
  net.set_exhaustive_tick_for_test(exhaustive);
  MsgId next_id = 1;
  for (const auto& m : w.msgs) {
    sim.schedule_at(m.at, [&net, &next_id, &m] {
      noc::Message msg;
      msg.id = next_id++;
      msg.src = m.src;
      msg.dst = m.dst;
      msg.size_bytes = m.bytes;
      msg.cls = noc::MsgClass::kData;
      net.inject(msg);
    });
  }
  sim.run();
  DataPlaneRun out;
  out.activity_hash = net.activity_hash();
  out.active_cycles = net.active_cycles();
  out.router_ticks = net.router_ticks();
  out.delivered = net.delivered_count();
  return out;
}

struct DataPlaneResult {
  std::string name;
  std::uint64_t active_cycles = 0;
  std::uint64_t delivered = 0;
  std::uint64_t ticks_exhaustive = 0;
  std::uint64_t ticks_scoreboard = 0;
  double exhaustive_mcps = 0;  // million simulated network cycles/second
  double scoreboard_mcps = 0;
  double speedup = 0;
};

int run_data_plane_comparison(int reps, int scale) {
  struct Case {
    DataPlaneWorkload workload;
    double bar;
  };
  const Case cases[] = {
      {sparse_workload(scale), 2.0},
      {saturated_workload(scale), 0.95},
  };

  std::vector<DataPlaneResult> results;
  bool all_ok = true;
  for (const auto& c : cases) {
    const auto& w = c.workload;
    // Correctness cross-check doubles as warmup: both scheduling policies
    // must move every flit identically.
    const DataPlaneRun sb = run_data_plane(w, /*exhaustive=*/false);
    const DataPlaneRun ex = run_data_plane(w, /*exhaustive=*/true);
    if (sb.activity_hash != ex.activity_hash ||
        sb.active_cycles != ex.active_cycles ||
        sb.delivered != ex.delivered) {
      std::fprintf(stderr,
                   "data-plane bench: %s diverged between scoreboard and "
                   "exhaustive ticking\n",
                   w.name);
      return 1;
    }
    DataPlaneResult r;
    r.name = w.name;
    r.active_cycles = sb.active_cycles;
    r.delivered = sb.delivered;
    r.ticks_exhaustive = ex.router_ticks;
    r.ticks_scoreboard = sb.router_ticks;
    std::tie(r.scoreboard_mcps, r.exhaustive_mcps) = best_of_meps_interleaved(
        [&] { run_data_plane(w, false); }, [&] { run_data_plane(w, true); },
        r.active_cycles, reps);
    r.speedup = r.scoreboard_mcps / r.exhaustive_mcps;
    if (r.speedup < c.bar) all_ok = false;
    results.push_back(r);
  }

  std::printf("\ndata plane: activity scoreboard vs tick-all-routers\n");
  std::printf("%-18s %10s %9s %13s %13s %12s %12s %9s\n", "workload",
              "cycles", "msgs", "ticks(all)", "ticks(sb)", "all Mcyc/s",
              "sb Mcyc/s", "speedup");
  for (const auto& r : results) {
    std::printf("%-18s %10llu %9llu %13llu %13llu %12.2f %12.2f %8.2fx\n",
                r.name.c_str(),
                static_cast<unsigned long long>(r.active_cycles),
                static_cast<unsigned long long>(r.delivered),
                static_cast<unsigned long long>(r.ticks_exhaustive),
                static_cast<unsigned long long>(r.ticks_scoreboard),
                r.exhaustive_mcps, r.scoreboard_mcps, r.speedup);
  }

  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (!ec) {
    RunMetrics m;
    m.manifest.tool = "bench/micro_kernels data_plane";
    m.manifest.created = now_iso8601();
    m.manifest.set("kernel",
                   std::string("quiescence-aware activity scoreboard vs "
                               "exhaustive per-cycle router ticking"));
    JsonWriter jw;
    jw.begin_object();
    jw.key("workloads");
    jw.begin_array();
    for (const auto& r : results) {
      jw.begin_object();
      jw.key("name");
      jw.value(r.name);
      jw.key("active_cycles");
      jw.value(r.active_cycles);
      jw.key("messages");
      jw.value(r.delivered);
      jw.key("router_ticks_exhaustive");
      jw.value(r.ticks_exhaustive);
      jw.key("router_ticks_scoreboard");
      jw.value(r.ticks_scoreboard);
      jw.key("exhaustive_mcps");
      jw.value(r.exhaustive_mcps);
      jw.key("scoreboard_mcps");
      jw.value(r.scoreboard_mcps);
      jw.key("speedup");
      jw.value(r.speedup);
      jw.end_object();
    }
    jw.end_array();
    jw.key("bars");
    jw.begin_array();
    for (const auto& [workload, bar] :
         {std::pair{"sparse_low_load", 2.0}, std::pair{"saturated", 0.95}}) {
      jw.begin_object();
      jw.key("workload");
      jw.value(workload);
      jw.key("required_speedup");
      jw.value(bar);
      jw.end_object();
    }
    jw.end_array();
    jw.end_object();
    m.set_results_json(std::move(jw).str());
    m.write_file("bench_results/BENCH_data_plane.json");
  }

  for (std::size_t i = 0; i < results.size(); ++i) {
    const double bar = cases[i].bar;
    const bool ok = results[i].speedup >= bar;
    std::printf("[%s] data-plane speedup on %s: %.2fx (bar: %.2fx)\n",
                ok ? "OK" : "FAIL", results[i].name.c_str(),
                results[i].speedup, bar);
  }
  std::printf("\n");
  return all_ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// google-benchmark suite
// ---------------------------------------------------------------------------

void BM_EventQueuePushPop(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  EventQueue q;
  Rng rng(1);
  Cycle base = 0;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      q.push(base + rng.next_below(1000), [] {});
    }
    while (!q.empty()) base = q.pop().time;
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(64)->Arg(1024);

void BM_EventQueueSameCycleDrain(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  EventQueue q;
  const bool stop = false;
  Cycle t = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      Payload p;
      q.push(t, [p, &sink] { sink += p.a; });
    }
    q.drain_cycle(t, stop);
    ++t;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueSameCycleDrain)->Arg(64)->Arg(1024);

void BM_RngU64(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngU64);

void BM_CacheLookup(benchmark::State& state) {
  fullsys::Cache cache(64, 4);
  Rng rng(3);
  for (int i = 0; i < 256; ++i) {
    cache.insert(rng.next_below(512), fullsys::LineState::kS);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(rng.next_below(512)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLookup);

void BM_TokenAcquire(benchmark::State& state) {
  onoc::TokenRing ring(64, 1);
  Cycle t = 0;
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ring.acquire(static_cast<NodeId>(rng.next_below(64)), t, 4));
    t += 8;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TokenAcquire);

void BM_EnocSaturatedCycle(benchmark::State& state) {
  // Cost of one simulated network-cycle at moderate load, amortized:
  // run a fixed traffic experiment per iteration.
  for (auto _ : state) {
    Simulator sim;
    const auto topo = noc::Topology::mesh(4, 4);
    enoc::EnocNetwork net(sim, "enoc", topo, enoc::EnocParams{});
    noc::TrafficGenerator::Params tp;
    tp.injection_rate = 0.15;
    tp.warmup = 0;
    tp.measure = 500;
    tp.seed = 11;
    noc::TrafficGenerator gen(sim, "gen", net, topo, tp);
    gen.run_to_completion();
    benchmark::DoNotOptimize(net.delivered_count());
  }
}
BENCHMARK(BM_EnocSaturatedCycle)->Unit(benchmark::kMillisecond);

// fft on 16 cores, captured on the ENoC and ingested once for replay.
struct ReplayFixture {
  core::ReplayTrace rt;
  ReplayFixture() {
    fullsys::AppParams app;
    app.name = "fft";
    app.cores = 16;
    app.lines_per_core = 16;
    app.iterations = 2;
    core::NetSpec spec;
    spec.kind = core::NetKind::kEnoc;
    rt = core::ReplayTrace(core::run_execution(app, spec, {}).trace);
  }
};

void BM_SctmReplayPerMessage(benchmark::State& state) {
  static const ReplayFixture fx;
  core::NetSpec target;
  target.kind = core::NetKind::kOnocToken;
  for (auto _ : state) {
    const auto rep = core::run_replay(fx.rt, target, {});
    benchmark::DoNotOptimize(rep.result.runtime);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.rt.size()));
}
BENCHMARK(BM_SctmReplayPerMessage)->Unit(benchmark::kMillisecond);

void BM_NaiveReplayPerMessage(benchmark::State& state) {
  static const ReplayFixture fx;
  core::NetSpec target;
  target.kind = core::NetKind::kOnocToken;
  core::ReplayConfig cfg;
  cfg.mode = core::ReplayMode::kNaive;
  for (auto _ : state) {
    const auto rep = core::run_replay(fx.rt, target, cfg);
    benchmark::DoNotOptimize(rep.result.runtime);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.rt.size()));
}
BENCHMARK(BM_NaiveReplayPerMessage)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  const int reps = smoke ? 3 : 5;
  const int scale = smoke ? 1 : 2;
  const int kernel_rc = run_event_kernel_comparison(reps);
  const int data_plane_rc = run_data_plane_comparison(reps, scale);
  if (smoke) return kernel_rc != 0 || data_plane_rc != 0 ? 1 : 0;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return kernel_rc != 0 || data_plane_rc != 0 ? 1 : 0;
}
