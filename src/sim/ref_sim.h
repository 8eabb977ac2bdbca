// Deliberately naive scalar reference simulator — the ground-truth oracle
// for differential fuzzing of the fast simulation stack.
//
// Everything the word-parallel fault simulator optimizes away is done the
// slow, obvious way here: one machine at a time, scalar Val3 values, no
// 64-lane packing, no flattened gate records, and no reliance on the
// netlist's precomputed evaluation order. Each time unit is computed by
// fixed-point relaxation: all gate outputs start at X and are re-evaluated
// in node-id order until nothing changes. Three-valued gate functions are
// monotone in the Kleene information order and the combinational core is
// acyclic, so the relaxation converges to exactly the topological-order
// values — without sharing the levelization code under test.
//
// The implementation must stay independent of sim/logic.h's word kernels
// and of fault/fault_sim.*; it is only allowed to share the netlist model
// and the Val3 enum itself.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.h"
#include "sim/logic.h"
#include "sim/sequence.h"

namespace wbist::sim {

/// A single fault, described structurally. Mirrors fault::Fault (node /
/// pin / polarity / model) without depending on the fault layer, which is
/// built on top of sim.
struct RefFault {
  enum class Model { kStuckAt, kSlowToRise, kSlowToFall };

  netlist::NodeId node = netlist::kNoNode;
  int pin = -1;  ///< -1 = output stem; otherwise fanin pin index
  bool stuck_at_one = false;
  /// Transition models apply to stems only: the line drives AND(c, p)
  /// (slow-to-rise) or OR(c, p) (slow-to-fall) of its computed value c and
  /// the value p it computed the time unit before (X before the first).
  Model model = Model::kStuckAt;
};

/// values[u][node]: value of every node during time unit u (the pre-latch
/// view, matching GoodSimulator::value() and the fault simulator's
/// observation semantics).
using RefValueMatrix = std::vector<std::vector<Val3>>;

/// Scalar three-valued evaluation of one gate, written from the truth
/// tables (AND: any 0 -> 0, else any X -> X, else 1; XOR: any X -> X, else
/// parity; ...). Independent of the Word3 kernels it is used to check.
Val3 ref_eval_gate(netlist::GateType type, std::span<const Val3> in);

class RefSimulator {
 public:
  /// `nl` must be finalized and must outlive the simulator.
  explicit RefSimulator(const netlist::Netlist& nl);

  /// Fault-free simulation of `seq` from the all-X state.
  RefValueMatrix run(const TestSequence& seq) const;

  /// Single-fault simulation: the stuck-at value is forced on the faulty
  /// line every time unit (stem faults on the node's output, pin faults on
  /// one fanin of one gate, D-pin faults on the value a flip-flop latches);
  /// a transition fault delays its stem by one time unit.
  RefValueMatrix run(const TestSequence& seq, const RefFault& fault) const;

  const netlist::Netlist& circuit() const { return *nl_; }

 private:
  RefValueMatrix simulate(const TestSequence& seq, const RefFault* fault) const;

  const netlist::Netlist* nl_;
};

/// First time unit at which some line in `observed` carries a definite
/// binary value in both machines and the values differ (the pessimistic
/// three-valued detection criterion), or -1 if that never happens.
std::int32_t ref_detection_time(const RefValueMatrix& good,
                                const RefValueMatrix& faulty,
                                std::span<const netlist::NodeId> observed);

/// Sorted list of every node at which the fault is observable at some time
/// unit (good and faulty values both binary and different) — the scalar
/// counterpart of FaultSimulator::observable_lines().
std::vector<netlist::NodeId> ref_observable_lines(const RefValueMatrix& good,
                                                  const RefValueMatrix& faulty);

}  // namespace wbist::sim
