#include "core/replay_input.hpp"

#include <stdexcept>
#include <unordered_map>

#include "tracestore/trace_store.hpp"

namespace sctm::core {

ReplayTrace::ReplayTrace(const trace::Trace& t) {
  set_meta(t.app, t.capture_network, t.nodes, t.capture_runtime, t.seed);
  reserve(t.records.size());
  for (const auto& r : t.records) append(r);
  finalize();
}

ReplayTrace ReplayTrace::from_store(const tracestore::TraceReader& reader,
                                    bool prefetch) {
  ReplayTrace rt;
  const tracestore::TraceMeta& m = reader.meta();
  rt.set_meta(m.app, m.capture_network, m.nodes, m.capture_runtime, m.seed);
  rt.reserve(reader.record_count());
  tracestore::ChunkCursor cursor(reader, prefetch);
  std::vector<trace::TraceRecord> chunk;
  while (cursor.next(chunk)) {
    for (const auto& r : chunk) rt.append(r);
  }
  rt.finalize();
  return rt;
}

void ReplayTrace::set_meta(std::string app, std::string capture_network,
                           std::int32_t nodes, Cycle capture_runtime,
                           std::uint64_t seed) {
  tracestore::Fnv1a64 h(hash_state_);
  tracestore::hash_meta(h, app, capture_network, nodes, capture_runtime, seed);
  hash_state_ = h.value();
  app_ = std::move(app);
  capture_network_ = std::move(capture_network);
  nodes_ = nodes;
  capture_runtime_ = capture_runtime;
  seed_ = seed;
}

void ReplayTrace::reserve(std::uint64_t records) {
  const auto n = static_cast<std::size_t>(records);
  id_.reserve(n);
  src_.reserve(n);
  dst_.reserve(n);
  size_bytes_.reserve(n);
  cls_.reserve(n);
  inject_.reserve(n);
  arrive_.reserve(n);
  dep_offset_.reserve(n + 1);
}

void ReplayTrace::append(const trace::TraceRecord& r) {
  if (finalized_) {
    throw std::logic_error("ReplayTrace: append after finalize");
  }
  if (dep_offset_.empty()) dep_offset_.push_back(0);
  tracestore::Fnv1a64 h(hash_state_);
  tracestore::hash_record(h, r);
  hash_state_ = h.value();
  id_.push_back(r.id);
  src_.push_back(r.src);
  dst_.push_back(r.dst);
  size_bytes_.push_back(r.size_bytes);
  cls_.push_back(r.cls);
  inject_.push_back(r.inject_time);
  arrive_.push_back(r.arrive_time);
  deps_.insert(deps_.end(), r.deps.begin(), r.deps.end());
  dep_offset_.push_back(static_cast<std::uint32_t>(deps_.size()));
}

void ReplayTrace::finalize() {
  if (finalized_) throw std::logic_error("ReplayTrace: finalize called twice");
  if (dep_offset_.empty()) dep_offset_.push_back(0);
  const std::uint32_t n = size();

  // The id index is transient: dependencies are resolved to record indices
  // here, so no per-id lookup structure outlives the build.
  std::unordered_map<MsgId, std::uint32_t> index;
  index.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!index.emplace(id_[i], i).second) {
      throw std::invalid_argument("ReplayTrace: duplicate message id");
    }
  }

  dep_parent_idx_.resize(deps_.size());
  has_dependents_.assign(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t k = dep_offset_[i]; k < dep_offset_[i + 1]; ++k) {
      const trace::TraceDep& d = deps_[k];
      const auto it = index.find(d.parent);
      if (it == index.end()) {
        throw std::invalid_argument("ReplayTrace: unknown parent");
      }
      const std::uint32_t p = it->second;
      if (id_[p] >= id_[i]) {
        throw std::invalid_argument(
            "ReplayTrace: dependency does not precede dependent");
      }
      if (arrive_[p] + d.slack != inject_[i]) {
        throw std::invalid_argument(
            "ReplayTrace: slack inconsistent with capture times");
      }
      dep_parent_idx_[k] = p;
      has_dependents_[p] = 1;
    }
  }
  finalized_ = true;
}

}  // namespace sctm::core
