// Fault-free (good-machine) cycle-accurate simulation of a synchronous
// sequential circuit with three-valued logic.
//
// ISCAS-89 circuits have no reset input; simulation therefore starts from the
// all-X state, and a fault is only observable once the good machine produces
// a definite value at an output. This simulator is also the reference the
// fault simulator is validated against.
#pragma once

#include <span>
#include <vector>

#include "netlist/netlist.h"
#include "sim/kernel.h"
#include "sim/logic.h"
#include "sim/sequence.h"

namespace wbist::sim {

/// Packed recording of the good machine's *entire* value vector over a
/// sequence: two bits per node per cycle (the one/zero planes of the
/// broadcast lane). ~node_count/4 bytes per cycle, so whole traces of the
/// larger ISCAS circuits stay well under a megabyte. The fault simulator
/// reads it to splat fault-free values at a cone frontier and to test
/// whether an injection is activated, instead of re-walking the circuit.
class FullTrace {
 public:
  FullTrace() = default;
  explicit FullTrace(std::size_t node_count)
      : node_count_(node_count), words_((node_count + 63) / 64) {}

  std::size_t node_count() const { return node_count_; }
  std::size_t length() const { return length_; }
  bool empty() const { return length_ == 0; }
  /// 64-bit words per plane row (node_count bits, rounded up).
  std::size_t words() const { return words_; }

  /// Cycle u's packed plane rows: words() one-plane words followed by
  /// words() zero-plane words (bit n = node n's plane bit). Lets callers
  /// diff whole cycles (e.g. the fault simulator's changed-node masks)
  /// without going through per-node value() lookups.
  std::span<const std::uint64_t> planes(std::size_t u) const {
    return {bits_.data() + u * 2 * words_, 2 * words_};
  }

  /// Record one cycle from a simulator's post-step raw values (lane 0 of
  /// each Word3 is the recorded value; raw values are broadcast).
  void append(std::span<const Word3> raw);

  /// Broadcast good value of `node` during cycle `u` (all 64 lanes equal).
  Word3 value(std::size_t u, netlist::NodeId node) const {
    const std::uint64_t* one = bits_.data() + u * 2 * words_;
    const std::uint64_t* zero = one + words_;
    const std::uint64_t one_bit = (one[node / 64] >> (node % 64)) & 1;
    const std::uint64_t zero_bit = (zero[node / 64] >> (node % 64)) & 1;
    return Word3{one_bit ? ~std::uint64_t{0} : 0,
                 zero_bit ? ~std::uint64_t{0} : 0};
  }

 private:
  std::size_t node_count_ = 0;
  std::size_t words_ = 0;
  std::size_t length_ = 0;
  std::vector<std::uint64_t> bits_;  // per cycle: one-plane row, zero-plane row
};

class GoodSimulator {
 public:
  explicit GoodSimulator(const netlist::Netlist& nl);

  /// Return all flip-flops to the unknown state.
  void reset();

  /// Apply one input vector (ordered as nl.primary_inputs()) and clock once:
  /// evaluates the combinational core, then latches the flip-flops.
  void step(std::span<const Val3> pi_values);

  /// Value of any signal after the most recent step() (pre-latch view of the
  /// combinational core, i.e. the values present during the applied cycle).
  Val3 value(netlist::NodeId id) const { return lane(values_[id], 0); }

  /// Primary-output vector after the most recent step().
  std::vector<Val3> outputs() const;

  /// Present state (flip-flop output values) that the *next* step will see.
  std::vector<Val3> state() const;

  const netlist::Netlist& circuit() const { return *nl_; }

  /// Raw per-node words after the most recent step() (lane 0 meaningful in
  /// all lanes: values are broadcast). Used by the fault simulator to compare
  /// faulty machines against the good machine without re-simulation.
  std::span<const Word3> raw_values() const { return values_; }

  /// Convenience: reset, run the whole sequence, and return the L x |PO|
  /// matrix of output responses.
  std::vector<std::vector<Val3>> run(const TestSequence& seq);

 private:
  const netlist::Netlist* nl_;
  // The combinational core is walked through the shared evaluation kernel
  // at width 1 (sim/kernel.h): a Word3 is exactly a 1-word block, so
  // values_ doubles as the kernel's flat plane buffer.
  std::vector<GateRec> gates_;  // combinational core in evaluation order
  std::vector<netlist::NodeId> flat_fanin_;
  InjectionIndex inj_index_;       // always empty: the good machine
  std::vector<Word3> fanin_buf_;   // staging (unused while inj_index_ empty)
  std::vector<Word3> values_;      // per node, lane 0 meaningful
  std::vector<Word3> next_state_;  // per flip-flop, latched at end of step
};

}  // namespace wbist::sim
