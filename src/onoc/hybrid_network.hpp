// Path-adaptive opto-electronic hybrid NoC (extension).
//
// The ONOC paper's authors' follow-up design (ISPA 2013): instead of
// dividing cores into optically-connected clusters, overlay a full optical
// layer on a full electrical mesh and let the *injection point* decide per
// message which layer to use. The stock policy sends a message optical when
// it travels far or carries much data (both favor the ONOC's
// distance-insensitive, high-bandwidth channels) and electrical otherwise
// (short control messages suffer the E/O + arbitration overhead).
//
// The hybrid is itself a noc::Network, so the full-system substrate, trace
// capture and self-correcting replay all work over it unchanged.
#pragma once

#include <memory>

#include "enoc/enoc_network.hpp"
#include "onoc/onoc_network.hpp"

namespace sctm::onoc {

struct HybridParams {
  enoc::EnocParams electrical{};
  OnocParams optical{};
  /// Messages with topological distance >= this go optical.
  int distance_threshold = 3;
  /// Messages with payload >= this many bytes go optical regardless.
  std::uint32_t size_threshold = 64;

  bool operator==(const HybridParams&) const = default;
};

class HybridNetwork final : public noc::Network {
 public:
  HybridNetwork(Simulator& sim, std::string name, const noc::Topology& topo,
                const HybridParams& params);

  void inject(noc::Message msg) override;
  bool idle() const override;

  /// Session reset: both layers and the steering counters return to
  /// freshly-constructed state (capacity retained). Reset the Simulator first.
  void reset() override;

  /// Faults install per layer (counters under "<name>.el.fault.*" /
  /// "<name>.op.fault.*"), with decorrelated root seeds so both planes draw
  /// independent fault schedules from one configured seed. The hybrid shell
  /// itself keeps no model — inject() only steers.
  void install_fault_model(const fault::FaultSpec& spec) override;

  /// The policy, exposed for tests and the steering ablation.
  bool goes_optical(const noc::Message& msg) const;

  const HybridParams& params() const { return params_; }
  enoc::EnocNetwork& electrical() { return *electrical_; }
  OnocNetwork& optical() { return *optical_; }
  const enoc::EnocNetwork& electrical() const { return *electrical_; }
  const OnocNetwork& optical() const { return *optical_; }

  std::uint64_t optical_count() const { return optical_count_; }
  std::uint64_t electrical_count() const { return electrical_count_; }
  /// Fraction of injected messages steered to the optical layer.
  double optical_fraction() const;

 private:
  void install_deliver_up(noc::Network& layer);

  noc::Topology topo_;
  HybridParams params_;
  std::unique_ptr<enoc::EnocNetwork> electrical_;
  std::unique_ptr<OnocNetwork> optical_;
  std::uint64_t optical_count_ = 0;
  std::uint64_t electrical_count_ = 0;
};

}  // namespace sctm::onoc
