#include "enoc/router.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace sctm::enoc {
namespace {

constexpr int kInfiniteCredits = std::numeric_limits<int>::max() / 2;

std::unique_ptr<Arbiter> make_arbiter(ArbiterKind kind, int width) {
  if (kind == ArbiterKind::kMatrix) {
    return std::make_unique<MatrixArbiter>(width);
  }
  return std::make_unique<RoundRobinArbiter>(width);
}

}  // namespace

Router::Router(Simulator& sim, std::string name, NodeId id,
               const noc::Topology& topo, const noc::RoutingTable& routes,
               const EnocParams& params)
    : Component(sim, std::move(name)),
      id_(id),
      topo_(topo),
      routes_(&routes),
      params_(params),
      ports_(topo.radix(id) + 1),
      local_(topo.radix(id)),
      vcount_(params.total_vcs()),
      needs_dateline_(topo.has_wrap_links()),
      stat_buffer_writes_(counter("buffer_writes")),
      stat_buffer_reads_(counter("buffer_reads")),
      stat_xbar_(counter("xbar_traversals")),
      stat_link_(counter("link_traversals")),
      stat_sa_grants_(counter("sa_grants")),
      stat_va_grants_(counter("va_grants")),
      stat_rc_(counter("rc_count")) {
  params_.validate(needs_dateline_);
  configure();
}

void Router::configure() {
  const auto nvc = static_cast<std::size_t>(ports_) * vcount_;
  inputs_.assign(nvc, InputVc{});
  outputs_.assign(nvc, OutputVc{});
  for (auto& ivc : inputs_) {
    ivc.fifo.reserve(static_cast<std::size_t>(params_.buffer_depth));
  }
  occ_.assign((nvc + 63) / 64, 0);
  sa_input_arb_.clear();
  sa_output_arb_.clear();
  va_arb_.clear();
  for (int p = 0; p < ports_; ++p) {
    sa_input_arb_.push_back(make_arbiter(params_.arbiter, vcount_));
    sa_output_arb_.push_back(make_arbiter(params_.arbiter, ports_));
    va_arb_.push_back(make_arbiter(params_.arbiter, ports_ * vcount_));
  }
  req_vc_.resize(vcount_);
  req_port_.assign(static_cast<std::size_t>(ports_), RequestMask(ports_));
  req_pv_.assign(static_cast<std::size_t>(ports_),
                 RequestMask(static_cast<int>(nvc)));
  req_out_.resize(ports_);
  sa_nominee_.assign(static_cast<std::size_t>(ports_), -1);
  va_list_.reserve(nvc);
  rc_list_.reserve(nvc);
  sa_reexposed_.reserve(static_cast<std::size_t>(ports_));
  reset();
}

void Router::reparameterize(const EnocParams& params) {
  params.validate(needs_dateline_);
  params_ = params;
  vcount_ = params_.total_vcs();
  configure();
}

void Router::reset() {
  for (auto& ivc : inputs_) {
    ivc.fifo.clear();
    ivc.out_port = -1;
    ivc.out_vc = -1;
    ivc.next_dateline = 0;
  }
  for (auto& w : occ_) w = 0;
  for (int p = 0; p < ports_; ++p) {
    const bool ejection = (p == local_);
    for (int v = 0; v < vcount_; ++v) {
      auto& ovc = out_vc(p, v);
      ovc.credits = ejection ? kInfiniteCredits : params_.buffer_depth;
      ovc.busy = false;
    }
    sa_input_arb_[static_cast<std::size_t>(p)]->reset();
    sa_output_arb_[static_cast<std::size_t>(p)]->reset();
    va_arb_[static_cast<std::size_t>(p)]->reset();
  }
  va_list_.clear();
  rc_list_.clear();
  sa_reexposed_.clear();
  inj_queue_.clear();
  inj_active_vc_ = -1;
  inj_active_msg_ = kInvalidMsg;
}

int Router::vnet_of(noc::MsgClass cls) const {
  if (params_.vnets < 2) return 0;
  switch (cls) {
    case noc::MsgClass::kRequest:
    case noc::MsgClass::kControl:
      return 0;
    case noc::MsgClass::kReply:
    case noc::MsgClass::kData:
      return 1;
  }
  return 0;
}

std::pair<int, int> Router::allowed_vcs(noc::MsgClass cls,
                                        std::uint8_t dateline) const {
  const int base = vnet_of(cls) * params_.vcs_per_vnet;
  if (!needs_dateline_) return {base, base + params_.vcs_per_vnet};
  const int half = params_.vcs_per_vnet / 2;
  const int lo = base + (dateline ? half : 0);
  return {lo, lo + half};
}

void Router::receive_flit(int in_port, Flit flit) {
  assert(in_port >= 0 && in_port < ports_);
  assert(flit.vc >= 0 && flit.vc < vcount_);
  const int idx = vc_index(in_port, flit.vc);
  auto& ivc = inputs_[static_cast<std::size_t>(idx)];
  if (static_cast<int>(ivc.fifo.size()) >= params_.buffer_depth) {
    throw std::logic_error(name() + ": input buffer overflow (credit bug)");
  }
  ivc.fifo.push_back(flit);
  mark_occupied(idx);
  ++stat_buffer_writes_;
}

void Router::receive_credit(int out_port, int vc) {
  auto& ovc = out_vc(out_port, vc);
  ++ovc.credits;
  if (ovc.credits > params_.buffer_depth && out_port != local_) {
    throw std::logic_error(name() + ": credit overflow");
  }
}

void Router::inject(const noc::Message& msg, std::uint32_t nflits) {
  Flit f;
  f.msg = msg.id;
  f.src = msg.src;
  f.dst = msg.dst;
  f.cls = msg.cls;
  f.injected_at = msg.inject_time;
  for (std::uint32_t i = 0; i < nflits; ++i) {
    f.seq = i;
    f.is_head = (i == 0);
    f.is_tail = (i == nflits - 1);
    inj_queue_.push_back(f);
  }
}

bool Router::has_work() const {
  if (!inj_queue_.empty()) return true;
  for (const std::uint64_t w : occ_) {
    if (w != 0) return true;
  }
  return false;
}

int Router::free_credits(int port) const {
  if (port == local_) return kInfiniteCredits;
  int total = 0;
  for (int v = 0; v < vcount_; ++v) total += outputs_[vc_index(port, v)].credits;
  return total;
}

bool Router::tick(RouterOutbox& out) {
  out_ = &out;
  phase_fused_gather_sa();
  phase_vc_allocation();
  phase_route_compute();
  phase_injection();
  out_ = nullptr;
  return has_work();
}

void Router::phase_fused_gather_sa() {
  // Single pass over occupied VCs in ascending vc_index order — the same
  // lexicographic (port, vc) order the full phase scans used. Each occupied
  // VC is classified once: routed + allocated VCs become SA stage-1 requests
  // (credit check evaluated lazily, only here), routed-unallocated VCs queue
  // for VA, unrouted VCs queue for RC. SA reads pre-SA state by
  // construction (this scan precedes every state change of the cycle).
  va_list_.clear();
  rc_list_.clear();
  sa_reexposed_.clear();
  std::fill(sa_nominee_.begin(), sa_nominee_.end(), -1);

  int cur_port = -1;
  int cur_base = 0;  // cur_port * vcount_
  int cur_end = 0;   // first vc_index past cur_port
  bool any_nominee = false;
  auto close_port = [&] {
    if (cur_port >= 0) {
      const int nom = sa_input_arb_[static_cast<std::size_t>(cur_port)]->grant(
          req_vc_);
      sa_nominee_[static_cast<std::size_t>(cur_port)] = nom;
      if (nom >= 0) any_nominee = true;
      req_vc_.clear();
    }
  };
  for (std::size_t w = 0; w < occ_.size(); ++w) {
    std::uint64_t bits = occ_[w];
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const int idx = static_cast<int>((w << 6)) + b;
      const auto& ivc = inputs_[static_cast<std::size_t>(idx)];
      if (ivc.out_vc >= 0) {
        // SA candidate iff the downstream buffer has a credit (lazy scan:
        // only occupied, allocated VCs ever look at credit counters).
        if (outputs_[vc_index(ivc.out_port, ivc.out_vc)].credits > 0) {
          if (idx >= cur_end) {  // first request of a new input port
            close_port();
            cur_port = idx / vcount_;
            cur_base = cur_port * vcount_;
            cur_end = cur_base + vcount_;
          }
          req_vc_.set(idx - cur_base);
        }
      } else if (ivc.out_port >= 0) {
        va_list_.push_back(idx);
      } else {
        rc_list_.push_back(idx);
      }
    }
  }
  close_port();
  if (!any_nominee) return;

  // Stage 2: one pass over the nominees builds every output port's request
  // mask; then only the output ports holding requests arbitrate, in
  // ascending port order, and each winner traverses the switch at once. A
  // grant reads only its own port's mask, fixed before any traversal, so
  // this equals granting every port first and sending afterwards.
  for (int p = 0; p < ports_; ++p) {
    const int nom = sa_nominee_[static_cast<std::size_t>(p)];
    if (nom < 0) continue;
    const int q = in_vc(p, nom).out_port;
    req_port_[static_cast<std::size_t>(q)].set(p);
    req_out_.set(q);
  }
  for (int q = req_out_.next_set(0); q >= 0; q = req_out_.next_set(q + 1)) {
    auto& req = req_port_[static_cast<std::size_t>(q)];
    const int w = sa_output_arb_[static_cast<std::size_t>(q)]->grant(req);
    req.clear();
    if (w >= 0) {
      send_flit(w, sa_nominee_[static_cast<std::size_t>(w)]);
      ++stat_sa_grants_;
    }
  }
  req_out_.clear();
}

void Router::send_flit(int in_port, int in_vc_idx) {
  const int idx = vc_index(in_port, in_vc_idx);
  auto& ivc = inputs_[static_cast<std::size_t>(idx)];
  Flit f = ivc.fifo.front();
  ivc.fifo.pop_front();
  if (ivc.fifo.empty()) mark_vacant(idx);
  ++stat_buffer_reads_;
  ++stat_xbar_;

  const int out = ivc.out_port;
  auto& ovc = outputs_[vc_index(out, ivc.out_vc)];
  f.vc = static_cast<std::int16_t>(ivc.out_vc);
  f.dateline = ivc.next_dateline;

  const bool ejecting = (out == local_);
  if (!ejecting) {
    --ovc.credits;
    ++stat_link_;
    out_->forward(id_, out, f);
  } else {
    out_->eject(id_, f);
  }

  if (f.is_tail) {
    ovc.busy = false;
    ivc.out_port = -1;
    ivc.out_vc = -1;
    // The next packet's head (if buffered behind the tail) becomes an RC
    // candidate this same cycle — the one candidate set SA can grow.
    if (!ivc.fifo.empty()) sa_reexposed_.push_back(idx);
  }

  // Return a credit upstream for the slot we just freed (links only; the
  // local injection path reads buffer occupancy directly).
  if (in_port != local_) {
    out_->credit(id_, in_port, in_vc_idx);
  }
}

void Router::phase_vc_allocation() {
  if (va_list_.empty()) return;
  // One grant per output port per cycle, arbitrated over the gathered
  // candidates. The candidate *set* is fixed at gather time (SA only
  // touches allocated VCs, so it cannot add or remove routed-unallocated
  // VCs), but busy bits are read live here — post-SA — so an output VC
  // freed by a departing tail this cycle is grantable, exactly as in the
  // phase-ordered engine. One pass builds every output port's request mask
  // before any grant: a grant for port q touches only q's busy bits and the
  // winner's out_vc, neither of which any other port's requests read.
  for (const int idx : va_list_) {
    const auto& ivc = inputs_[static_cast<std::size_t>(idx)];
    const int q = ivc.out_port;
    // A free VC in the packet's allowed range must exist.
    const auto [lo, hi] = allowed_vcs(ivc.fifo.front().cls, ivc.next_dateline);
    for (int ov = lo; ov < hi; ++ov) {
      if (!outputs_[vc_index(q, ov)].busy) {
        req_pv_[static_cast<std::size_t>(q)].set(idx);
        req_out_.set(q);
        break;
      }
    }
  }
  for (int q = req_out_.next_set(0); q >= 0; q = req_out_.next_set(q + 1)) {
    auto& req = req_pv_[static_cast<std::size_t>(q)];
    const int g = va_arb_[static_cast<std::size_t>(q)]->grant(req);
    req.clear();
    if (g < 0) continue;
    const int p = g / vcount_;
    const int v = g % vcount_;
    auto& ivc = in_vc(p, v);
    const auto [lo, hi] = allowed_vcs(ivc.fifo.front().cls, ivc.next_dateline);
    for (int ov = lo; ov < hi; ++ov) {
      auto& ovc = outputs_[vc_index(q, ov)];
      if (!ovc.busy) {
        ovc.busy = true;
        ivc.out_vc = ov;
        ++stat_va_grants_;
        break;
      }
    }
  }
  req_out_.clear();
}

void Router::phase_route_compute() {
  for (const int idx : rc_list_) route_one(idx);
  // VCs re-exposed by SA tail departures are routed after the gathered list
  // rather than merge-sorted into it: RC is per-VC pure (it reads the head
  // flit and live credit counts, which RC never modifies, and writes only
  // that VC's route fields), so RC order across VCs is unobservable.
  for (const int idx : sa_reexposed_) route_one(idx);
}

void Router::route_one(int idx) {
  auto& ivc = inputs_[static_cast<std::size_t>(idx)];
  if (ivc.fifo.empty() || ivc.out_port >= 0) return;
  const int p = idx / vcount_;
  const Flit& head = ivc.fifo.front();
  if (!head.is_head) {
    throw std::logic_error(name() + ": body flit at unrouted VC head");
  }
  ++stat_rc_;
  if (head.dst == id_) {
    ivc.out_port = local_;
    ivc.next_dateline = 0;
    return;
  }
  const auto candidates =
      routes_->route(head.src, id_, head.dst, p == local_ ? -1 : p);
  int chosen = candidates.front();
  if (params_.adaptive && candidates.size() > 1) {
    int best = -1;
    for (const int c : candidates) {
      const int fc = free_credits(c);
      if (fc > best) {
        best = fc;
        chosen = c;
      }
    }
  }
  ivc.out_port = chosen;
  if (topo_.wrap_link(id_, chosen)) {
    ivc.next_dateline = 1;
  } else if (p != local_ && p < local_ &&
             topo_.port_axis(id_, p) != topo_.port_axis(id_, chosen)) {
    ivc.next_dateline = 0;  // dimension change resets the subclass
  } else {
    ivc.next_dateline = head.dateline;
  }
}

void Router::phase_injection() {
  if (inj_queue_.empty()) return;
  Flit& f = inj_queue_.front();
  // Only pull flits injected strictly before this cycle: the pull instant
  // then depends on the injection *cycle* alone, never on how the inject
  // event was ordered against this tick within the cycle — a requirement
  // for the trace-replay fixed-point property.
  if (f.injected_at >= now()) return;
  const int local = local_;

  if (f.is_head) {
    assert(inj_active_msg_ == kInvalidMsg);
    const auto [lo, hi] = allowed_vcs(f.cls, 0);
    for (int v = lo; v < hi; ++v) {
      auto& ivc = in_vc(local, v);
      if (ivc.fifo.empty() && ivc.out_port < 0) {
        Flit head = f;
        head.vc = static_cast<std::int16_t>(v);
        inj_queue_.pop_front();
        if (!head.is_tail) {
          inj_active_vc_ = v;
          inj_active_msg_ = head.msg;
        }
        receive_flit(local, head);
        return;  // local port bandwidth: one flit per cycle
      }
    }
    return;  // no free VC; head blocks the injection queue
  }

  assert(inj_active_msg_ == f.msg && inj_active_vc_ >= 0);
  auto& ivc = in_vc(local, inj_active_vc_);
  if (static_cast<int>(ivc.fifo.size()) >= params_.buffer_depth) return;
  Flit body = f;
  body.vc = static_cast<std::int16_t>(inj_active_vc_);
  inj_queue_.pop_front();
  if (body.is_tail) {
    inj_active_vc_ = -1;
    inj_active_msg_ = kInvalidMsg;
  }
  receive_flit(local, body);
}

}  // namespace sctm::enoc
