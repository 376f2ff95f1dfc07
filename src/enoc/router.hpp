// Input-queued virtual-channel wormhole router.
//
// Three-stage pipeline, enforced by intra-tick phase ordering (SA/ST first,
// then VA, then RC): a head flit that arrives in cycle t computes its route
// in t, wins an output VC no earlier than t+1 and traverses the switch no
// earlier than t+2 — a 3-cycle router, plus link latency per hop. Body flits
// stream at one per cycle per port through switch allocation only.
//
// Flow control is credit-based: one credit == one flit slot in the
// downstream input VC. Separable switch allocation (input-first then
// output arbitration) with per-port round-robin or matrix arbiters.
//
// The tick is a fused single pass over *occupied* VCs: an occupancy bitmap
// (bit per (port, vc), maintained on every fifo push/pop) is scanned once in
// ascending index order — the exact lexicographic (port, vc) order the
// original phase loops used — classifying each occupied VC as an SA request
// (routed + allocated, with a lazy downstream-credit check), a VA candidate
// (routed, unallocated) or an RC candidate (unrouted). Arbiters are only
// consulted for ports that actually have requests. VA and RC then evaluate
// their gathered candidates against live post-SA state (busy bits freed by a
// departing tail, credits consumed by this cycle's sends), which is exactly
// what the phase-ordered full scans observed. Cost per tick is O(occupied
// VCs), not O(ports * vcs).
//
// Side effects leave through a RouterOutbox instead of mutating the network
// directly: forwarded flits, ejections and upstream credits are recorded in
// emission order and the owning network drains them after every router has
// ticked, in ascending router-id order (the tick itself touches only
// router-local state).
//
// The datapath is allocation-free in steady state: input VCs are
// fixed-capacity rings sized to buffer_depth, injection staging is a
// capacity-retaining ring, allocator request/grant scratch and the gather
// lists live in member vectors sized at construction, and route computation
// uses the fixed RoutePorts set. Ticking an idle router (has_work() ==
// false) is a no-op — the owning network exploits this with an activity
// scoreboard and only ticks routers that hold flits.
//
// Deadlock discipline:
//  * protocol: message classes are split across virtual networks,
//  * routing: XY/YX/odd-even are turn-restricted on meshes; torus DOR and
//    ring shortest use dateline VC subclasses — a packet moves to subclass 1
//    when it traverses a wrap link and resets on a dimension change.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "enoc/arbiter.hpp"
#include "enoc/flit.hpp"
#include "enoc/params.hpp"
#include "noc/message.hpp"
#include "noc/route_table.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"
#include "sim/component.hpp"

namespace sctm::enoc {

/// Deferred router side effects for one cycle, recorded in emission order.
/// The network owns one outbox; routers append in ascending-id order, so the
/// drain replays per-router emission order at router granularity. The entry
/// vector retains capacity across cycles.
struct RouterOutbox {
  struct Entry {
    enum class Kind : std::uint8_t { kForward, kEject, kCredit };
    Kind kind = Kind::kForward;
    std::uint8_t port = 0;  // kForward: out_dir; kCredit: input port
    std::int16_t vc = -1;   // kCredit: the freed VC
    NodeId node = kInvalidNode;  // emitting router
    Flit flit;              // kForward / kEject payload
  };

  std::vector<Entry> entries;

  void forward(NodeId node, int out_dir, const Flit& f) {
    entries.push_back({Entry::Kind::kForward, static_cast<std::uint8_t>(out_dir),
                       -1, node, f});
  }
  void eject(NodeId node, const Flit& f) {
    entries.push_back({Entry::Kind::kEject, 0, -1, node, f});
  }
  void credit(NodeId node, int in_dir, int vc) {
    entries.push_back({Entry::Kind::kCredit, static_cast<std::uint8_t>(in_dir),
                       static_cast<std::int16_t>(vc), node, Flit{}});
  }
  void clear() { entries.clear(); }
};

/// Growable FIFO ring of flits. Capacity is retained across drain/fill
/// cycles, so a warmed-up queue never touches the heap again — unlike
/// std::deque, which releases its blocks whenever it empties.
class FlitRing {
 public:
  void reserve(std::size_t cap) {
    if (cap > buf_.size()) regrow(cap);
  }
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  Flit& front() {
    assert(count_ > 0);
    return buf_[head_];
  }
  const Flit& front() const {
    assert(count_ > 0);
    return buf_[head_];
  }
  void push_back(const Flit& f) {
    if (count_ == buf_.size()) regrow(buf_.empty() ? 8 : buf_.size() * 2);
    buf_[(head_ + count_) % buf_.size()] = f;
    ++count_;
  }
  void pop_front() {
    assert(count_ > 0);
    head_ = (head_ + 1) % buf_.size();
    --count_;
  }
  /// Empties the ring, retaining its buffer (session reset path).
  void clear() {
    head_ = 0;
    count_ = 0;
  }

 private:
  void regrow(std::size_t cap) {
    std::vector<Flit> next(cap);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = buf_[(head_ + i) % buf_.size()];
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<Flit> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

class Router : public Component {
 public:
  /// `routes` is the network-owned routing table (stable address; rebuilt in
  /// place on reparameterize). Route computation goes through it, which is a
  /// transparent dispatch to the stateless functions for the coordinate
  /// algorithms and a table lookup for kTable.
  Router(Simulator& sim, std::string name, NodeId id,
         const noc::Topology& topo, const noc::RoutingTable& routes,
         const EnocParams& params);

  /// One clock cycle of the pipeline. Side effects (forwards, ejections,
  /// credits) are appended to `out` in emission order; nothing outside this
  /// router is touched, so ticks of distinct routers may run concurrently.
  /// Returns true when the router still holds any flit afterwards (activity
  /// hint; false means every further tick is a no-op until new work
  /// arrives).
  bool tick(RouterOutbox& out);

  /// Flit arrives on input port `in_port` in VC flit.vc (link delivery or,
  /// for the local port, injection placement by inject_*).
  void receive_flit(int in_port, Flit flit);

  /// Credit arrives for output (out_port, vc).
  void receive_credit(int out_port, int vc);

  /// Stages a packet's flits for injection (unbounded source queue; the
  /// router moves them into local-port VCs as space frees). Flits are
  /// synthesized straight into the staging ring — no intermediate container.
  void inject(const noc::Message& msg, std::uint32_t nflits);

  /// Session reset: restores freshly-constructed datapath state (VC fifos,
  /// RC/VA results, credits, arbiter pointers, injection staging, occupancy
  /// bitmap) without releasing any buffer capacity. Cached stat references
  /// stay valid — the owning simulator zeroes values via
  /// StatRegistry::zero().
  void reset();

  /// In-place re-parameterization (the rebind fast path): rebuilds the
  /// datapath for `params` — VC count, buffer depth, arbiter kind, routing —
  /// without reconstructing the Router, so its identity, topology binding
  /// and registered stat entries survive. Ends in the reset() state; only
  /// call on an idle router. May allocate (it is a reconfiguration, not a
  /// steady-state path).
  void reparameterize(const EnocParams& params);

  NodeId id() const { return id_; }
  bool has_work() const;
  std::size_t injection_backlog() const { return inj_queue_.size(); }

  /// Free credits on output port `port` across all VCs (adaptive metric).
  int free_credits(int port) const;

 private:
  struct InputVc {
    FlitRing fifo;           // fixed capacity == params.buffer_depth
    int out_port = -1;       // RC result; -1 = unrouted
    int out_vc = -1;         // VA result; -1 = unallocated
    std::uint8_t next_dateline = 0;  // subclass the packet occupies downstream
  };
  struct OutputVc {
    int credits = 0;
    bool busy = false;       // held by a packet until its tail is sent
  };

  int vc_index(int port, int vc) const { return port * vcount_ + vc; }
  InputVc& in_vc(int port, int vc) { return inputs_[vc_index(port, vc)]; }
  const InputVc& in_vc(int port, int vc) const {
    return inputs_[vc_index(port, vc)];
  }
  OutputVc& out_vc(int port, int vc) { return outputs_[vc_index(port, vc)]; }

  void mark_occupied(int idx) {
    occ_[static_cast<std::size_t>(idx) >> 6] |=
        std::uint64_t{1} << (idx & 63);
  }
  void mark_vacant(int idx) {
    occ_[static_cast<std::size_t>(idx) >> 6] &=
        ~(std::uint64_t{1} << (idx & 63));
  }

  /// (Re)builds every size-dependent structure for the current params_ and
  /// leaves the router in the reset() state. Shared by the constructor and
  /// reparameterize().
  void configure();

  /// Allowed VC range [first, last) for a packet of class `cls` whose
  /// dateline subclass will be `dateline` at the downstream buffer.
  std::pair<int, int> allowed_vcs(noc::MsgClass cls, std::uint8_t dateline) const;

  int vnet_of(noc::MsgClass cls) const;

  /// The fused gather-plus-SA pass: one scan over occupied VCs builds the
  /// per-port SA request vectors (nominating via the input arbiters as each
  /// port's bits end) and collects VA/RC candidates, then runs SA output
  /// arbitration and the winning switch traversals.
  void phase_fused_gather_sa();
  void phase_vc_allocation();    // over va_list_, live post-SA busy state
  void phase_route_compute();    // over rc_list_ + VCs re-exposed by SA tails
  void phase_injection();
  void route_one(int idx);

  void send_flit(int in_port, int in_vc_idx);

  NodeId id_;
  noc::Topology topo_;  // cheap copy: the graph tables are shared
  const noc::RoutingTable* routes_;
  EnocParams params_;

  int ports_;    // radix + 1 (local last)
  int local_;    // local port index (== topo.local_port())
  int vcount_;   // VCs per port
  bool needs_dateline_;

  std::vector<InputVc> inputs_;    // [port][vc]
  std::vector<OutputVc> outputs_;  // [port][vc]

  /// Occupancy bitmap over vc_index: bit set iff that input VC holds flits.
  /// The tick scans set bits instead of all (port, vc) pairs.
  std::vector<std::uint64_t> occ_;

  // Switch-allocation arbiters: one per input port (VC selection) and one
  // per output port (input selection).
  std::vector<std::unique_ptr<Arbiter>> sa_input_arb_;
  std::vector<std::unique_ptr<Arbiter>> sa_output_arb_;
  // VC-allocation arbiters: one per output port.
  std::vector<std::unique_ptr<Arbiter>> va_arb_;

  // Allocator scratch, reused every tick (capacity fixed at construction).
  std::vector<bool> req_vc_;       // [vcount]
  std::vector<bool> req_port_;     // [ports]
  std::vector<bool> req_pv_;       // [ports * vcount]
  std::vector<int> sa_nominee_;    // per input port: nominated VC
  std::vector<int> sa_winner_;     // per output port: granted input port

  // Gather lists filled by the fused scan (ascending vc_index order) and a
  // list of VCs whose tail left in SA this cycle, re-exposing the next
  // packet's head to RC — the one candidate set SA can grow.
  std::vector<int> va_list_;
  std::vector<int> rc_list_;
  std::vector<int> sa_reexposed_;

  /// Outbox of the in-progress tick (valid only inside tick()).
  RouterOutbox* out_ = nullptr;

  // Injection source queue + which local VC each in-progress packet streams
  // into (msg -> vc), to keep wormhole continuity at the local port.
  FlitRing inj_queue_;
  int inj_active_vc_ = -1;     // local VC of the packet currently streaming
  MsgId inj_active_msg_ = kInvalidMsg;

  // Hot-path stat counters, cached once (StatRegistry nodes are stable).
  std::uint64_t& stat_buffer_writes_;
  std::uint64_t& stat_buffer_reads_;
  std::uint64_t& stat_xbar_;
  std::uint64_t& stat_link_;
  std::uint64_t& stat_sa_grants_;
  std::uint64_t& stat_va_grants_;
  std::uint64_t& stat_rc_;
};

}  // namespace sctm::enoc
