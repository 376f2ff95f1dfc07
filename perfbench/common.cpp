#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

unsigned workers() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

const char* build_type() { return PERFBENCH_BUILD_TYPE; }
const char* compiler() { return PERFBENCH_COMPILER; }

void require_release(const char* program) {
  if (std::strcmp(build_type(), "Release") != 0) {
    std::fprintf(stderr,
                 "%s: refusing to run: built as '%s', not 'Release'. Timings "
                 "from unoptimised or debug-info builds are not comparable; "
                 "configure with -DCMAKE_BUILD_TYPE=Release.\n",
                 program, build_type());
    std::exit(2);
  }
}

double err_pct(double model, double truth) {
  return 100.0 * std::fabs(model - truth) / truth;
}

double accuracy(double err_pct) { return 1.0 / (1.0 + err_pct / 100.0); }

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

sctm::JsonValue load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(path + ": cannot open");
  std::stringstream ss;
  ss << in.rdbuf();
  sctm::JsonValue v;
  std::string err;
  if (!sctm::json_parse(ss.str(), &v, &err)) {
    throw std::runtime_error(path + ": " + err);
  }
  return v;
}

const sctm::JsonValue& member(const sctm::JsonValue& v,
                              const std::string& key) {
  const sctm::JsonValue* m = v.find(key);
  if (m == nullptr) throw std::runtime_error("missing JSON key '" + key + "'");
  return *m;
}

}  // namespace perfbench
