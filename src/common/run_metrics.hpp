// Machine-readable run metrics: the one document schema every producer in
// the repo emits (sctm_cli --stats-json and the bench_results/*.json files
// written by bench/).
//
// Document layout (schema "sctm.run_metrics.v1"):
//   {
//     "schema":   "sctm.run_metrics.v1",
//     "manifest": { "tool": "...", "created": "...", "config": {k: v, ...} },
//     "phases":   [ {"name": "...", "wall_seconds": s, "events": n}, ... ],
//     "stats":    { "counters": {...}, "accumulators": {...},
//                   "histograms": {...} },
//     "results":  { ... tool-specific payload ... }
//   }
// `manifest.config` is an ordered echo of whatever identifies the run (app,
// net spec, trace id, replay mode/window, seed). `created` is a timestamp
// string passed in by the caller (now_iso8601() for a live run) — the
// document never reads the clock, so documents stay reproducible under
// test. `phases` carries per-phase wall time and kernel event counts;
// `stats` is a full StatRegistry snapshot plus named latency histograms;
// `results` is a free-form object each tool builds with the same
// JsonWriter.
//
// validate_metrics_json() is the schema checker the unit tests and the CI
// gate (`sctm_cli validate`) share.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/histogram.hpp"
#include "common/stats.hpp"

namespace sctm {

class JsonWriter;
struct JsonValue;
class Table;

inline constexpr std::string_view kMetricsSchema = "sctm.run_metrics.v1";

/// One pipeline phase: capture, replay iteration, bench stage, ...
struct PhaseMetrics {
  std::string name;
  double wall_seconds = 0.0;
  /// Kernel events executed during the phase; 0 when not applicable.
  std::uint64_t events = 0;
};

/// Provenance header of a metrics document.
struct RunManifest {
  std::string tool;     // producing binary / subcommand, e.g. "sctm_cli replay"
  std::string created;  // caller-supplied timestamp string (may be empty)
  /// Ordered config echo (app, net, trace id, mode, window, seed, ...).
  std::vector<std::pair<std::string, std::string>> config;

  /// Appends or overwrites a config entry, preserving first-set order.
  void set(std::string_view key, std::string value);
  void set(std::string_view key, std::uint64_t value);
  void set(std::string_view key, std::int64_t value);
  void set(std::string_view key, int value) {
    set(key, static_cast<std::int64_t>(value));
  }
};

/// Builder for one metrics document.
class RunMetrics {
 public:
  RunManifest manifest;

  void add_phase(std::string name, double wall_seconds,
                 std::uint64_t events = 0);
  void add_phases(const std::vector<PhaseMetrics>& phases);

  /// Snapshots `reg` into the document's "stats" section.
  void set_stats(const StatRegistry& reg) { stats_ = reg; }

  /// Adds a named histogram under "stats.histograms". With `with_buckets`,
  /// the exact (value, count) pairs are dumped alongside the summary.
  void add_histogram(std::string name, const Histogram& h,
                     bool with_buckets = false);

  /// Installs the tool-specific "results" object: a serialized JSON object
  /// built with JsonWriter (spliced verbatim).
  void set_results_json(std::string fragment) {
    results_json_ = std::move(fragment);
  }

  /// Serializes the full document.
  std::string to_json() const;

  /// Writes to_json() to `path`; throws std::runtime_error on I/O failure.
  void write_file(const std::string& path) const;

 private:
  std::vector<PhaseMetrics> phases_;
  StatRegistry stats_;
  struct NamedHistogram {
    std::string name;
    Histogram hist;
    bool with_buckets = false;
  };
  std::vector<NamedHistogram> histograms_;
  std::string results_json_;
};

/// Current UTC time as ISO-8601 ("2026-01-31T12:00:00Z"), the `created`
/// stamp of live runs' manifests.
std::string now_iso8601();

/// Appends a Table as a JSON object value
/// ({"title": ..., "header": [...], "rows": [[...], ...]}) — the shared
/// rendering the bench harness uses inside its "results" objects.
void write_table_json(JsonWriter& w, const Table& t);

/// Schema check over an already-parsed document.
bool validate_metrics_doc(const JsonValue& doc, std::string* err);

/// Parses + schema-checks `text` (the CI entry point).
bool validate_metrics_json(std::string_view text, std::string* err);

}  // namespace sctm
