// Abstract network interface + an ideal (contention-free) reference network.
//
// Everything above the network (full-system engine, trace replay, traffic
// generators) talks to this interface, so the electrical baseline, the ONOC
// and the ideal model are interchangeable per experiment.
#pragma once

#include <memory>
#include <string>

#include "common/histogram.hpp"
#include "common/inline_fn.hpp"
#include "fault/fault_model.hpp"
#include "noc/message.hpp"
#include "noc/topology.hpp"
#include "sim/component.hpp"

namespace sctm::noc {

class Network : public Component {
 public:
  /// Delivery callback, invoked once per delivered message on the hot path.
  /// Move-only with a 56-byte inline capture budget (no heap allocation for
  /// the usual [this]-style captures); see common/inline_fn.hpp.
  using DeliverFn = BasicInlineFn<void(const Message&)>;

  Network(Simulator& sim, std::string name, int node_count)
      : Component(sim, std::move(name)), node_count_(node_count) {}

  /// Hands a message to the network at sim().now(). The network owns the
  /// copy until delivery; `inject_time`/`arrive_time` are filled here and at
  /// delivery respectively. Networks are lossless: every injected message is
  /// eventually delivered (tests assert this). This holds even under fault
  /// injection — a message whose retransmission budget is exhausted is still
  /// surfaced (and counted in <name>.fault.messages_lost), so replay can
  /// never hang on a record that will not arrive.
  virtual void inject(Message msg) = 0;

  /// Called once per delivered message, at arrival time.
  void set_deliver_callback(DeliverFn fn) { deliver_ = std::move(fn); }

  int node_count() const { return node_count_; }

  /// True when no message is in flight (used by drivers to detect drain).
  virtual bool idle() const = 0;

  /// Session reset: returns the network to its freshly-constructed state
  /// while retaining allocated capacity (buffers, tables, histograms keep
  /// their storage). The delivery callback is preserved. Call after (or
  /// together with) Simulator::reset() — any in-flight events the queue
  /// dropped are forgotten here too. Overrides must call Network::reset().
  virtual void reset() = 0;

  /// Installs a fault model built from `spec` (must be enabled() — inert
  /// specs build no model so the fault-free path stays byte-identical).
  /// Counters register under "<name>.fault.*". Call once, before traffic;
  /// the model survives reset() (streams rewound, same schedule as fresh).
  /// Backends that model no faults (Ideal) run fault-transparent: the model
  /// is installed but nothing draws from it. Composites (Hybrid) override to
  /// hand each layer its own model with a derived seed.
  virtual void install_fault_model(const fault::FaultSpec& spec);

  fault::FaultModel* fault_model() { return fault_.get(); }
  const fault::FaultModel* fault_model() const { return fault_.get(); }

  std::uint64_t injected_count() const { return injected_; }
  std::uint64_t delivered_count() const { return delivered_; }
  const Histogram& latency_histogram() const { return latency_; }

  /// Per-class latency view (request/reply/data/control).
  const Histogram& latency_histogram(MsgClass cls) const {
    return latency_by_class_[static_cast<int>(cls)];
  }

 protected:
  /// Subclasses call this at arrival time; it stamps arrive_time, records
  /// latency and invokes the delivery callback.
  void deliver(Message msg);

  void note_injected(Message& msg);

 private:
  int node_count_;
  DeliverFn deliver_;
  /// Null unless install_fault_model() ran — the common case pays one
  /// pointer test at most.
  std::unique_ptr<fault::FaultModel> fault_;
  std::uint64_t injected_ = 0;
  std::uint64_t delivered_ = 0;
  Histogram latency_;
  Histogram latency_by_class_[kMsgClassCount];
};

/// Contention-free network: latency = base + per_hop * distance +
/// size/bandwidth. Useful as a ground-truth in unit tests and as the
/// "infinite bandwidth" limit in sweeps.
class IdealNetwork final : public Network {
 public:
  struct Params {
    Cycle base_latency = 2;        // fixed overhead (cycles)
    Cycle per_hop_latency = 1;     // per topological hop
    double bytes_per_cycle = 16;   // serialization bandwidth

    bool operator==(const Params&) const = default;
  };

  IdealNetwork(Simulator& sim, std::string name, const Topology& topo,
               const Params& params);

  void inject(Message msg) override;
  bool idle() const override { return in_flight_ == 0; }
  void reset() override;

  /// Deterministic latency this model assigns to a message.
  Cycle model_latency(const Message& msg) const;

  const Params& params() const { return params_; }

  /// Re-parameterizes the model in place (the rebind fast path: same
  /// topology, new latency/bandwidth knobs). Parameters are only read at
  /// inject time, so this is safe whenever the network is idle — callers
  /// reset the session afterwards anyway.
  void set_params(const Params& params) { params_ = params; }

 private:
  Topology topo_;
  Params params_;
  std::uint64_t in_flight_ = 0;
};

}  // namespace sctm::noc
