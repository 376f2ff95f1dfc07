#include "enoc/enoc_network.hpp"

#include <bit>
#include <stdexcept>

#include "sim/simulator.hpp"

namespace sctm::enoc {

EnocNetwork::EnocNetwork(Simulator& sim, std::string name,
                         const noc::Topology& topo, const EnocParams& params)
    : Network(sim, std::move(name), topo.node_count()),
      topo_(topo),
      params_(params),
      routes_(topo, params.routing),
      link_stride_(static_cast<std::size_t>(topo.radix())) {
  if (!noc::compatible(topo_, params_.routing)) {
    throw std::invalid_argument(this->name() +
                                ": routing algorithm incompatible with " +
                                topo_.describe());
  }
  routers_.reserve(static_cast<std::size_t>(topo_.node_count()));
  for (NodeId n = 0; n < topo_.node_count(); ++n) {
    routers_.push_back(std::make_unique<Router>(
        sim, this->name() + ".r" + std::to_string(n), n, topo_, routes_,
        params_));
  }
  active_bits_.assign((static_cast<std::size_t>(topo_.node_count()) + 63) / 64,
                      0);
  pending_.reserve(64);
}

void EnocNetwork::install_fault_model(const fault::FaultSpec& spec) {
  Network::install_fault_model(spec);
  link_stuck_until_.assign(routers_.size() * link_stride_, 0);
}

void EnocNetwork::reset() {
  Network::reset();
  for (auto& r : routers_) r->reset();
  pending_.clear();
  for (auto& w : active_bits_) w = 0;
  for (auto& c : link_stuck_until_) c = 0;
  outbox_.clear();
  in_flight_ = 0;
  // The tick event (if any) died with the simulator's queue reset; the next
  // inject re-arms the clock.
  ticking_ = false;
  active_cycles_ = 0;
  router_ticks_ = 0;
  activity_hash_ = 0;
}

void EnocNetwork::reparameterize(const EnocParams& params) {
  if (!noc::compatible(topo_, params.routing)) {
    throw std::invalid_argument(name() +
                                ": routing algorithm incompatible with " +
                                topo_.describe());
  }
  params.validate(topo_.has_wrap_links());
  routes_.rebuild(topo_, params.routing);
  for (auto& r : routers_) r->reparameterize(params);
  params_ = params;
  reset();
}

void EnocNetwork::mark_active(NodeId n) {
  active_bits_[static_cast<std::size_t>(n) >> 6] |=
      std::uint64_t{1} << (static_cast<std::size_t>(n) & 63);
}

void EnocNetwork::inject(noc::Message msg) {
  note_injected(msg);
  const std::uint32_t nflits = params_.flits_for(msg.size_bytes);
  pending_.insert(msg.id, PendingMsg{msg, nflits});
  routers_[static_cast<std::size_t>(msg.src)]->inject(msg, nflits);
  mark_active(msg.src);
  ++in_flight_;
  ensure_ticking();
}

namespace {
// FNV-1a style mixing for the activity hash.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}
}  // namespace

void EnocNetwork::apply_forward(NodeId node, int out_dir, const Flit& flit) {
  activity_hash_ = mix(activity_hash_,
                       (static_cast<std::uint64_t>(sim().now()) << 24) ^
                           (flit.msg << 8) ^
                           (static_cast<std::uint64_t>(flit.seq) << 4) ^
                           static_cast<std::uint64_t>(node * 8 + out_dir));
  if (probe_) probe_(sim().now(), out_dir, flit.msg, node);
  if (fault_model() != nullptr) apply_link_faults(node, out_dir, flit);
  const NodeId next = topo_.neighbor(node, out_dir);
  if (next == kInvalidNode) {
    throw std::logic_error(name() + ": flit forwarded off the fabric edge");
  }
  const int arrival_port = topo_.arrival_port(node, out_dir);
  Flit f = flit;
  auto ev = [this, next, arrival_port, f] {
    routers_[static_cast<std::size_t>(next)]->receive_flit(arrival_port, f);
    mark_active(next);
  };
  static_assert(InlineFn::fits_inline<decltype(ev)>(),
                "link-traversal closure must stay within the event SBO budget");
  sim().schedule_in(params_.link_latency, std::move(ev));
}

void EnocNetwork::apply_eject(NodeId node, const Flit& flit) {
  activity_hash_ = mix(activity_hash_,
                       (static_cast<std::uint64_t>(sim().now()) << 24) ^
                           (flit.msg << 8) ^
                           (static_cast<std::uint64_t>(flit.seq) << 4) ^
                           static_cast<std::uint64_t>(node * 8 + 7));
  if (probe_) probe_(sim().now(), -1, flit.msg, node);
  PendingMsg* pm = pending_.find(flit.msg);
  if (pm == nullptr) {
    throw std::logic_error(name() + ": ejected flit of unknown message");
  }
  if (pm->msg.dst != node) {
    throw std::logic_error(name() + ": flit ejected at wrong node");
  }
  if (--pm->flits_remaining == 0) {
    const noc::Message msg = pm->msg;
    const bool bad = pm->fault_bad;
    pending_.erase(flit.msg);
    fault::FaultModel* fm = fault_model();
    if (fm != nullptr && bad) {
      handle_corrupt_message(msg);
      return;
    }
    --in_flight_;
    if (fm != nullptr) fm->on_clean_delivery(msg.id, sim().now());
    deliver(msg);
  }
}

// Runs once per link traversal, at the outbox drain — the draw order is the
// drain order (ascending router id). Faults never touch flow control: a
// corrupted/dropped symbol still occupies the downstream datapath (the
// link-level coding flags it), so wormhole and credit state are exactly the
// fault-free schedule until the recovery retransmission perturbs it.
void EnocNetwork::apply_link_faults(NodeId node, int out_dir,
                                    const Flit& flit) {
  fault::FaultModel& fm = *fault_model();
  bool bad = false;
  const std::size_t link = static_cast<std::size_t>(node) * link_stride_ +
                           static_cast<std::size_t>(out_dir);
  if (fm.draw_link_stuck_onset()) {
    link_stuck_until_[link] = sim().now() + fm.spec().enoc_link_stuck_cycles;
  }
  if (sim().now() < link_stuck_until_[link]) {
    fm.note_stuck_hit();
    bad = true;
  }
  if (fm.draw_flit_corrupt()) bad = true;
  if (fm.draw_flit_drop()) bad = true;
  if (bad) {
    if (PendingMsg* pm = pending_.find(flit.msg)) pm->fault_bad = true;
  }
}

// Tail reassembly found a bad flit: ask the model whether the retry budget
// allows another attempt. While the NACK is in flight the message stays
// counted in in_flight_, so the clock keeps running and idle() stays false —
// the lossless contract (and replay's drain) never observes a gap.
void EnocNetwork::handle_corrupt_message(const noc::Message& msg) {
  fault::FaultModel& fm = *fault_model();
  if (fm.on_corrupt_message(msg.id, sim().now()) ==
      fault::FaultModel::Action::kRetransmit) {
    const noc::Message m = msg;
    auto ev = [this, m] { reinject_for_retry(m); };
    static_assert(InlineFn::fits_inline<decltype(ev)>(),
                  "retry closure must stay within the event SBO budget");
    sim().schedule_in(fm.nack_delay(), std::move(ev));
    return;
  }
  // Budget exhausted: surface the (corrupt) message anyway — networks stay
  // lossless — with the loss recorded in <name>.fault.messages_lost.
  --in_flight_;
  deliver(msg);
}

// Source re-injection of a corrupted message. Same flit count, same message
// id, and crucially the original inject_time: end-to-end latency includes
// every failed attempt plus the NACK turnarounds.
void EnocNetwork::reinject_for_retry(const noc::Message& msg) {
  const std::uint32_t nflits = params_.flits_for(msg.size_bytes);
  pending_.insert(msg.id, PendingMsg{msg, nflits, false});
  routers_[static_cast<std::size_t>(msg.src)]->inject(msg, nflits);
  mark_active(msg.src);
  ensure_ticking();
}

void EnocNetwork::apply_credit(NodeId node, int in_dir, int vc) {
  // The credit goes to the upstream router that feeds our input port
  // `in_dir`: that is our neighbor through `in_dir` itself, and the flit left
  // it through the opposite port.
  const NodeId up = topo_.neighbor(node, in_dir);
  if (up == kInvalidNode) {
    throw std::logic_error(name() + ": credit to nonexistent neighbor");
  }
  const int up_out = topo_.arrival_port(node, in_dir);
  // A credit can unblock a router, but never *activate* one: a
  // credit-starved router still holds the blocked flits, so has_work() keeps
  // it in the active set until they drain.
  sim().schedule_in(params_.credit_latency, [this, up, up_out, vc] {
    routers_[static_cast<std::size_t>(up)]->receive_credit(up_out, vc);
  });
}

void EnocNetwork::ensure_ticking() {
  if (ticking_) return;
  ticking_ = true;
  sim().schedule_in(1, [this] { tick(); });
}

void EnocNetwork::tick() {
  ++active_cycles_;
  if (exhaustive_tick_) {
    // Seed policy (kept as a test oracle): tick every router every cycle,
    // through the same outbox and drain as the scoreboard scan.
    for (auto& w : active_bits_) w = 0;
    for (auto& r : routers_) {
      if (r->tick(outbox_)) mark_active(r->id());
    }
    router_ticks_ += routers_.size();
  } else {
    // Ascending scan of the scoreboard. A router that reports no work
    // clears its own bit in place: router ticks only append to the outbox,
    // so nothing sets a bit during the scan. Activations fired while
    // draining below (ejection -> delivery -> same-cycle reply inject)
    // therefore land after every clear and survive the cycle.
    for (std::size_t w = 0; w < active_bits_.size(); ++w) {
      for (std::uint64_t bits = active_bits_[w]; bits != 0; bits &= bits - 1) {
        const int b = std::countr_zero(bits);
        if (!routers_[(w << 6) + static_cast<std::size_t>(b)]->tick(outbox_)) {
          active_bits_[w] &= ~(std::uint64_t{1} << b);
        }
        ++router_ticks_;
      }
    }
  }
  for (const auto& e : outbox_.entries) {
    switch (e.kind) {
      case RouterOutbox::Entry::Kind::kForward:
        apply_forward(e.node, e.port, e.flit);
        break;
      case RouterOutbox::Entry::Kind::kEject:
        apply_eject(e.node, e.flit);
        break;
      case RouterOutbox::Entry::Kind::kCredit:
        apply_credit(e.node, e.port, e.vc);
        break;
    }
  }
  outbox_.clear();
  if (in_flight_ > 0) {
    sim().schedule_in(1, [this] { tick(); });
  } else {
    ticking_ = false;
  }
}

}  // namespace sctm::enoc
