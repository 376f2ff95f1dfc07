// Replay-side trace representation: a flat structure-of-arrays plus a
// dependency CSR, built either from an in-memory trace::Trace or streamed
// chunk-at-a-time out of a v2 container (src/tracestore).
//
// The replay engine used to walk trace.records directly, which forced the
// whole Trace — one heap-allocated deps vector per record — to live next to
// the engine's own per-record state. ReplayTrace replaces that with seven
// POD arrays, the full-dependency CSR (parents pre-resolved to record
// indices) and a per-record has-dependents flag, so streamed ingestion decodes
// one chunk at a time into the flat arrays and the decoded chunk buffer is
// recycled: peak memory is the SoA plus a single chunk, independent of how
// the trace reached us.
//
// finalize() is the one validator of a trace's dependency annotations: ids
// must be unique, and parents must exist, precede their dependents in id
// order, and carry slacks consistent with the capture times (violations
// throw std::invalid_argument).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/record.hpp"

namespace sctm::tracestore {
class TraceReader;
}

namespace sctm::core {

class ReplayTrace {
 public:
  ReplayTrace() = default;

  /// One-shot construction from an in-memory trace (meta + every record +
  /// finalize()).
  explicit ReplayTrace(const trace::Trace& t);

  /// Streams every chunk of `reader` through append(); with `prefetch`, a
  /// background thread decodes the next chunk while this one is ingested.
  static ReplayTrace from_store(const tracestore::TraceReader& reader,
                                bool prefetch = true);

  // -- streaming builder --------------------------------------------------
  void set_meta(std::string app, std::string capture_network,
                std::int32_t nodes, Cycle capture_runtime,
                std::uint64_t seed);
  void reserve(std::uint64_t records);
  void append(const trace::TraceRecord& r);
  /// Validates and resolves the dependency CSR; append() is invalid after.
  void finalize();
  bool finalized() const { return finalized_; }

  /// Canonical trace identity: identical to tracestore::content_hash() of
  /// the trace these records came from, folded incrementally as set_meta()
  /// and append() stream by (so the streaming path never materializes a
  /// trace::Trace just to hash it). Run manifests record it so a ranking is
  /// attributable to an exact trace, and it keys the tracestore catalog.
  std::uint64_t content_hash() const { return hash_state_; }

  // -- meta ---------------------------------------------------------------
  const std::string& app() const { return app_; }
  const std::string& capture_network() const { return capture_network_; }
  std::int32_t nodes() const { return nodes_; }
  Cycle capture_runtime() const { return capture_runtime_; }
  std::uint64_t seed() const { return seed_; }

  // -- per-record fields --------------------------------------------------
  std::uint32_t size() const { return static_cast<std::uint32_t>(id_.size()); }
  bool empty() const { return id_.empty(); }
  MsgId id(std::uint32_t i) const { return id_[i]; }
  NodeId src(std::uint32_t i) const { return src_[i]; }
  NodeId dst(std::uint32_t i) const { return dst_[i]; }
  std::uint32_t size_bytes(std::uint32_t i) const { return size_bytes_[i]; }
  noc::MsgClass cls(std::uint32_t i) const { return cls_[i]; }
  Cycle inject_time(std::uint32_t i) const { return inject_[i]; }
  Cycle arrive_time(std::uint32_t i) const { return arrive_[i]; }

  // -- full dependencies (CSR; parent_index parallels deps) ---------------
  std::uint32_t dep_count(std::uint32_t i) const {
    return dep_offset_[i + 1] - dep_offset_[i];
  }
  const trace::TraceDep* deps_begin(std::uint32_t i) const {
    return deps_.data() + dep_offset_[i];
  }
  const trace::TraceDep* deps_end(std::uint32_t i) const {
    return deps_.data() + dep_offset_[i + 1];
  }
  /// Record index of deps_begin(i)[k]'s parent (resolved in finalize()).
  std::uint32_t dep_parent_index(std::uint32_t i, std::uint32_t k) const {
    return dep_parent_idx_[dep_offset_[i] + k];
  }

  /// Whether any record lists record i in its full dependency list.
  bool has_dependents(std::uint32_t i) const { return has_dependents_[i] != 0; }

 private:
  std::string app_;
  std::string capture_network_;
  std::int32_t nodes_ = 0;
  Cycle capture_runtime_ = 0;
  std::uint64_t seed_ = 0;

  std::vector<MsgId> id_;
  std::vector<NodeId> src_;
  std::vector<NodeId> dst_;
  std::vector<std::uint32_t> size_bytes_;
  std::vector<noc::MsgClass> cls_;
  std::vector<Cycle> inject_;
  std::vector<Cycle> arrive_;

  std::vector<std::uint32_t> dep_offset_;  // size()+1 after finalize
  std::vector<trace::TraceDep> deps_;
  std::vector<std::uint32_t> dep_parent_idx_;

  std::vector<std::uint8_t> has_dependents_;  // size() after finalize

  /// FNV-1a/64 state (offset basis before any update), advanced by
  /// set_meta()/append() through the tracestore canonical-hash helpers.
  std::uint64_t hash_state_ = 0xcbf29ce484222325ull;

  bool finalized_ = false;
};

}  // namespace sctm::core
