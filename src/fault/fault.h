// Single faults on gate-level lines: stuck-at faults and the transition
// (gross-delay) faults of the [11]/[15] delay-fault lineage.
//
// Fault sites follow the classic stem/branch line model:
//   - a *stem* fault sits on the output of a node (pin == kStemPin);
//   - a *branch* fault sits on one input pin of a gate, i.e. on the branch of
//     a fanout stem feeding that pin (pin == fanin index). Branch faults are
//     only distinct sites when the driving stem has fanout > 1.
// A fault on the D pin of a flip-flop is a branch fault with pin 0.
// Transition faults sit on stems only: a slow-to-rise (slow-to-fall) line
// completes its rising (falling) edge one clock late, i.e. it drives
// AND(c, p) (OR(c, p)) of its computed value c and the value p it computed
// the cycle before (see sim::InjectAction).
#pragma once

#include <cstdint>
#include <string>

#include "netlist/netlist.h"
#include "sim/ref_sim.h"

namespace wbist::fault {

/// Index of a fault within a FaultSet.
using FaultId = std::uint32_t;

inline constexpr std::int16_t kStemPin = -1;

enum class FaultModel : std::uint8_t {
  kStuckAt,     ///< the line is stuck at `stuck_at_one`
  kSlowToRise,  ///< the stem rises one cycle late
  kSlowToFall,  ///< the stem falls one cycle late
};

struct Fault {
  netlist::NodeId node = netlist::kNoNode;  ///< gate owning the faulty line
  std::int16_t pin = kStemPin;              ///< kStemPin or fanin pin index
  bool stuck_at_one = false;                ///< stuck-at polarity
  FaultModel model = FaultModel::kStuckAt;

  friend bool operator==(const Fault&, const Fault&) = default;
};

/// "G11 s-a-1" or "G8<-G14 s-a-0" (branch on the pin fed by G14); "G11 STR"
/// or "G11 STF" for a slow-to-rise / slow-to-fall stem.
inline std::string fault_name(const netlist::Netlist& nl, const Fault& f) {
  if (f.model != FaultModel::kStuckAt)
    return nl.node(f.node).name +
           (f.model == FaultModel::kSlowToRise ? " STR" : " STF");
  std::string s;
  if (f.pin == kStemPin) {
    s = nl.node(f.node).name;
  } else {
    s = nl.node(f.node).name + "<-" +
        nl.node(nl.node(f.node).fanin[static_cast<std::size_t>(f.pin)]).name;
  }
  s += f.stuck_at_one ? " s-a-1" : " s-a-0";
  return s;
}

/// The same fault as the scalar RefSimulator oracle describes it.
inline sim::RefFault ref_fault(const Fault& f) {
  using Model = sim::RefFault::Model;
  return {f.node, f.pin, f.stuck_at_one,
          f.model == FaultModel::kStuckAt      ? Model::kStuckAt
          : f.model == FaultModel::kSlowToRise ? Model::kSlowToRise
                                               : Model::kSlowToFall};
}

}  // namespace wbist::fault
