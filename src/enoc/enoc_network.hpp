// Electrical NoC: routers + links + message segmentation/reassembly.
//
// This is the "baseline NOC simulator" of the paper's case study: a
// cycle-accurate VC wormhole mesh/torus/ring. The network self-clocks: it
// ticks only while any message is in flight, so an idle network costs no
// events (crucial for trace replay speed).
//
// Quiescence-aware scheduling: within a running clock, only *active* routers
// are ticked. A router is active while it holds flits (injection backlog or
// occupied input VCs); it is marked active when a message is injected at it
// or a flit arrives over a link, and drops out of the active set the moment
// its tick reports no remaining work. The active set is a bitmap drained in
// ascending router-id order every cycle — exactly the order the seed's
// tick-everything loop used — so datapath timing, arbitration history and
// the activity hash are bit-identical to ticking all routers, at O(active)
// instead of O(N) cost per cycle. Idle-router ticks are provably no-ops
// (every pipeline phase early-outs on empty buffers), which the exhaustive
// tick mode (set_exhaustive_tick_for_test) lets tests verify directly.
//
// Two-phase tick: routers compute, the network applies. Router ticks are
// pure per-router — forwards, ejections and credits go to one RouterOutbox,
// never to the network — and the network drains the outbox after the scan,
// in ascending router-id order. Both modes (scoreboard and the exhaustive
// oracle) route through the same outbox + drain path. Parallel ticking was
// measured and deleted; DESIGN.md §10 records why.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/flat_map.hpp"
#include "enoc/params.hpp"
#include "enoc/router.hpp"
#include "noc/network.hpp"
#include "noc/topology.hpp"

namespace sctm::enoc {

class EnocNetwork final : public noc::Network {
 public:
  EnocNetwork(Simulator& sim, std::string name, const noc::Topology& topo,
              const EnocParams& params);

  void inject(noc::Message msg) override;
  bool idle() const override { return in_flight_ == 0; }

  /// Session reset: routers, in-flight table, activity scoreboard and
  /// datapath counters return to freshly-constructed state with all
  /// capacity retained. Test/debug configuration (exhaustive tick mode, the
  /// activity probe) survives. The owning Simulator must be reset first —
  /// the self-clocking tick event lives in its queue.
  void reset() override;

  /// In-place re-parameterization (the rebind fast path): swaps router
  /// datapath parameters — VC counts, buffer depth, arbiter kind, routing —
  /// without reconstructing the network, so registered stat entries and the
  /// topology binding survive. Ends in the reset() state (the owning
  /// Simulator must be reset alongside, as for reset()).
  void reparameterize(const EnocParams& params);

  /// Fault injection (DESIGN.md §11): link-level faults — payload
  /// corruption, flit drop, stuck-at episodes — are drawn per link traversal
  /// at the outbox drain, in drain order. Faults corrupt *payloads*, never
  /// flow control: the wire symbol still traverses (wormhole/credit state
  /// untouched), detection happens at tail reassembly, recovery is a NACK +
  /// source re-injection bounded by the spec's retry budget.
  void install_fault_model(const fault::FaultSpec& spec) override;

  const noc::Topology& topology() const { return topo_; }
  /// The network-owned routing table (built once here, shared by every
  /// router; rebuilt in place on reparameterize()).
  const noc::RoutingTable& routes() const { return routes_; }
  const EnocParams& params() const { return params_; }
  Router& router(NodeId n) { return *routers_[static_cast<std::size_t>(n)]; }

  /// Cycles during which the network clock was running (power accounting).
  std::uint64_t active_cycles() const { return active_cycles_; }

  /// Individual router ticks executed (quiescence metric: with the activity
  /// scoreboard this scales with flit occupancy, not node_count() *
  /// active_cycles()).
  std::uint64_t router_ticks() const { return router_ticks_; }

  /// Test hook: tick every router each cycle (the seed scheduling policy)
  /// instead of draining the active set. Behaviour must be bit-identical;
  /// the quiescence regression test asserts it. Drains through the same
  /// outbox as the scoreboard scan.
  void set_exhaustive_tick_for_test(bool on) { exhaustive_tick_ = on; }

  /// Order-sensitive hash over every flit hop and ejection (msg, seq, node,
  /// port, cycle). Two runs with identical datapath behaviour produce
  /// identical hashes — the determinism and replay-fixed-point tests compare
  /// these to catch divergence that aggregate stats would mask.
  std::uint64_t activity_hash() const { return activity_hash_; }

  /// Calls `fn(cycle, event_code, msg, node)` for every forwarded/ejected
  /// flit when set (debugging aid; adds overhead only when installed).
  using ActivityProbe =
      std::function<void(Cycle, int, MsgId, NodeId)>;
  void set_activity_probe(ActivityProbe fn) { probe_ = std::move(fn); }

 private:
  // Outbox drain handlers, applied by tick() after every router has ticked.
  void apply_forward(NodeId node, int out_dir, const Flit& flit);
  void apply_eject(NodeId node, const Flit& flit);
  void apply_credit(NodeId node, int in_dir, int vc);

  // Fault path (drain handlers and event dispatch).
  void apply_link_faults(NodeId node, int out_dir, const Flit& flit);
  void handle_corrupt_message(const noc::Message& msg);
  void reinject_for_retry(const noc::Message& msg);

  void tick();
  void ensure_ticking();
  void mark_active(NodeId n);

  struct PendingMsg {
    noc::Message msg;
    std::uint32_t flits_remaining = 0;
    /// Any flit of this message hit a fault in transit; the reassembly check
    /// at tail ejection sees it and triggers recovery.
    bool fault_bad = false;
  };

  noc::Topology topo_;
  EnocParams params_;
  noc::RoutingTable routes_;
  std::vector<std::unique_ptr<Router>> routers_;
  /// In-flight message table. Open-addressing with retained capacity: the
  /// per-message insert/erase pair stops hitting the heap once the table has
  /// grown to the run's peak concurrency.
  FlatMap<MsgId, PendingMsg> pending_;
  /// Activity scoreboard: bit n set == router n has (or may have) work.
  std::vector<std::uint64_t> active_bits_;
  /// Stuck-at fault state, indexed node * link_stride_ + out_dir: the cycle
  /// until which the link garbles every crossing flit. Empty unless a fault
  /// model is installed. The stride is the topology's max directional port
  /// count (file fabrics may exceed the lattice kinds' fixed radix).
  std::size_t link_stride_ = 0;
  std::vector<Cycle> link_stuck_until_;
  /// Side effects of the current cycle's router ticks, in ascending
  /// router-id order; drained and cleared at the end of tick().
  RouterOutbox outbox_;
  std::uint64_t in_flight_ = 0;
  bool ticking_ = false;
  bool exhaustive_tick_ = false;
  std::uint64_t active_cycles_ = 0;
  std::uint64_t router_ticks_ = 0;
  std::uint64_t activity_hash_ = 0;
  ActivityProbe probe_;
};

}  // namespace sctm::enoc
