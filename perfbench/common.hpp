// Pieces shared by the benchmark's input generator (gen.cpp) and its timed
// runner (run.cpp): the names of the generated input files, the worker
// count, the build-type guard and the accuracy arithmetic.
#pragma once

#include <cstdint>
#include <string>

#include "common/json.hpp"

namespace perfbench {

// Files the generator writes into its output directory. The runner reads
// nothing else.
inline constexpr const char* kCaptureCfg = "capture.cfg";  // app + net
inline constexpr const char* kReplayCfg = "replay.cfg";    // app + target net
inline constexpr const char* kExploreCfg = "explore.cfg";  // candidates
inline constexpr const char* kRandaccTrace = "randacc.sctm";  // v2 trace
inline constexpr const char* kFftTrace = "fft.sctm";          // v2 trace
inline constexpr const char* kTruth = "truth.json";

/// min(hardware threads, 4): explore workers and the sharded-replay lanes.
unsigned workers();

/// Exits with status 2 and a message on stderr unless this binary was built
/// with CMAKE_BUILD_TYPE=Release: timings from other builds are not
/// comparable with the recorded baseline.
void require_release(const char* program);

/// Build type and compiler this binary was built with.
const char* build_type();
const char* compiler();

/// |model - truth| / truth in percent (truth > 0 in every use here).
double err_pct(double model, double truth);

/// Accuracy in (0, 1]: 1 / (1 + err_pct / 100). Exactly 1 at zero error and
/// never 0, so it can be gated as a relative bound; the raw error is printed
/// beside it.
double accuracy(double err_pct);

std::string hex64(std::uint64_t v);

/// Parses a JSON file; throws std::runtime_error naming the file on failure.
sctm::JsonValue load_json(const std::string& path);

/// Member `key` of object `v`; throws naming the key when absent.
const sctm::JsonValue& member(const sctm::JsonValue& v, const std::string& key);

}  // namespace perfbench
