// Deterministic, seeded fault injection.
//
// One FaultModel instance lives on one network (composites give each layer
// its own, with a derived seed). It owns the fault randomness and the
// message-layer retry bookkeeping; the *semantics* of each fault class stay
// in the network that draws it (enoc/onoc code decides what a corrupted flit
// or a lost token means for its datapath).
//
// Every draw happens at a fixed point of the event order, so the fault
// schedule is a function of the spec seed alone (DESIGN.md §11):
//
//  * Per-class streams (ENoC flit faults, reservation loss, optical data
//    corruption) are consumed at the ENoC outbox drain and at event
//    dispatch, in that deterministic order, so one stream per class
//    suffices.
//  * Token loss draws from a per-channel child stream in the ONoC
//    arbitration flush. Each channel's draw sequence follows its own
//    request arrival order, so a channel's losses do not depend on traffic
//    on other channels; these streams define the faulted token-ring
//    schedules.
//
// reset() re-derives every stream from the spec seed and clears the retry
// table in place, so a reset-reused session replays the exact fault schedule
// of a fresh one (the session protocol zeroes the stat registry alongside).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "fault/fault_spec.hpp"

namespace sctm::fault {

class FaultModel {
 public:
  /// Registers counters under "<stat_prefix>.*" in `stats` (the registry
  /// must outlive the model; Simulator::reset zeroes the values in place so
  /// the cached references stay valid). `channels` sizes the per-channel
  /// token-loss stream family — pass the network's node count.
  FaultModel(const FaultSpec& spec, StatRegistry& stats,
             const std::string& stat_prefix, int channels);

  /// Rewinds every stream to its construction state and clears the retry
  /// table, retaining capacity. Counters are zeroed by the registry owner
  /// (Simulator::reset), exactly like every other component stat.
  void reset();

  const FaultSpec& spec() const { return spec_; }

  // --- ENoC plane: call only from the outbox drain -------------------------
  bool draw_flit_corrupt();
  bool draw_flit_drop();
  bool draw_link_stuck_onset();
  /// A flit crossed a link inside a stuck-at episode (counted as corruption
  /// attributed to the stuck link; no draw).
  void note_stuck_hit();

  // --- ONoC plane ----------------------------------------------------------
  /// Token-loss draw for one arbitration request on `channel`, from the
  /// channel's own stream. Serial arbitration flush only.
  bool draw_token_loss(int channel);

  /// Reservation (path-setup grant) loss. Serial control path only.
  bool draw_reservation_loss();

  /// Whole-transfer optical corruption with probability `p` (the caller
  /// derives p from the BER the loss budget implies for this message's
  /// length). Serial delivery path only.
  bool draw_optical_corrupt(double p);

  // --- Message-layer recovery ----------------------------------------------
  enum class Action {
    kRetransmit,  // re-inject after nack_delay()
    kGiveUp,      // retry budget exhausted: surface the message, count it lost
  };

  /// A completed message failed its integrity check at `now`. Bumps the
  /// retry ladder and decides recovery; on kGiveUp the episode is closed
  /// (counted in messages_lost) and the caller must still deliver the
  /// message so the fabric stays lossless.
  Action on_corrupt_message(MsgId id, Cycle now);

  /// A message completed clean at `now`. Closes any open retry episode
  /// (counted in messages_recovered, with the detect-to-delivery penalty
  /// recorded); no-op for messages that were never corrupted.
  void on_clean_delivery(MsgId id, Cycle now);

  Cycle nack_delay() const { return spec_.nack_cycles; }

  /// Messages with an open retry episode (in-flight retransmissions).
  std::size_t open_retries() const { return retries_.size(); }

 private:
  struct RetryState {
    int attempts = 0;
    Cycle first_detect = 0;
  };

  FaultSpec spec_;
  Rng enoc_rng_;
  Rng resv_rng_;
  Rng opt_rng_;
  std::vector<Rng> chan_rng_;
  FlatMap<MsgId, RetryState> retries_;

  std::uint64_t& stat_flit_corrupt_;
  std::uint64_t& stat_flit_drop_;
  std::uint64_t& stat_link_stuck_;
  std::uint64_t& stat_token_loss_;
  std::uint64_t& stat_reservation_loss_;
  std::uint64_t& stat_optical_corrupt_;
  std::uint64_t& stat_retransmissions_;
  std::uint64_t& stat_messages_lost_;
  std::uint64_t& stat_messages_recovered_;
  Accumulator& stat_recovery_penalty_;
};

}  // namespace sctm::fault
