// Fault universe construction and structural collapsing.
//
// The uncollapsed universe contains both stuck-at polarities on every stem
// and on every fanout branch (branches only where the stem has fanout > 1),
// which is the standard line-oriented fault universe for ISCAS circuits
// (s27: 52 uncollapsed faults).
//
// Equivalence collapsing merges faults that produce identical faulty
// behaviour using the classic gate rules:
//   AND : input s-a-0 == output s-a-0      NAND: input s-a-0 == output s-a-1
//   OR  : input s-a-1 == output s-a-1      NOR : input s-a-1 == output s-a-0
//   NOT : input s-a-v == output s-a-v'     BUF : input s-a-v == output s-a-v
//   XOR / XNOR: no equivalences
// Flip-flops are NOT collapsed through: under three-valued start-up
// semantics a stuck Q acts from the unknown initial state while a stuck D
// acts only from cycle 1. With these rules s27 collapses to the paper's 32
// faults (f0..f31).
//
// Dominance collapsing additionally drops gate-output fault classes that
// are *provably* detected whenever a kept input fault of the same gate is
// detected. Classic combinational dominance is unsound for sequential
// circuits (the two faulty machines can follow different state
// trajectories), so the rule is restricted to "state-safe" gates — gates
// whose combinational fanout cone reaches no flip-flop D input. For such a
// gate neither faulty machine's state ever diverges from the good machine,
// every cycle is effectively combinational, and the textbook implication
// holds cycle for cycle:
//   AND : out s-a-1 dominates in s-a-1     NAND: out s-a-0 dominates in s-a-1
//   OR  : out s-a-0 dominates in s-a-0     NOR : out s-a-1 dominates in s-a-0
// The dominated input fault that *absorbs* the dropped class must itself be
// undetectable except through the gate, so it is further required to be a
// fanout-branch fault (a single-fanout driver stem could be observed
// directly, e.g. by an observation point, without exercising the gate).
// Detection therefore expands along absorption soundly: covering every kept
// fault covers the full uncollapsed universe, and the expanded coverage of
// a partial detection set is a lower bound on true coverage.
#pragma once

#include <span>
#include <vector>

#include "fault/fault.h"
#include "netlist/netlist.h"

namespace wbist::fault {

/// How much structural collapsing to apply when building a fault universe.
enum class CollapseMode {
  kNone,         ///< the raw uncollapsed universe
  kEquivalence,  ///< classic gate-rule equivalence classes (exact)
  kDominance,    ///< equivalence + state-safe gate-local dominance drops
};

/// A (possibly collapsed) fault universe for one circuit.
class FaultSet {
 public:
  /// Build the fault set for `nl` (must be finalized) at the given
  /// collapsing level. The default is equivalence collapsing, which is
  /// exact: detection of a representative is detection of its whole class.
  static FaultSet collapsed(const netlist::Netlist& nl,
                            CollapseMode mode = CollapseMode::kEquivalence);

  /// Build the raw, uncollapsed fault set (mainly for tests / reference).
  static FaultSet uncollapsed(const netlist::Netlist& nl);

  /// Wrap an explicit fault list (class sizes all 1). Used when fault sites
  /// are translated into a composed netlist (see netlist/compose.h).
  static FaultSet from_faults(std::vector<Fault> faults);

  /// The transition fault universe: slow-to-rise then slow-to-fall on every
  /// stem, node by node (node_count() * 2 faults, class sizes all 1).
  static FaultSet transitions(const netlist::Netlist& nl);

  std::span<const Fault> faults() const { return faults_; }
  std::size_t size() const { return faults_.size(); }
  const Fault& operator[](FaultId id) const { return faults_[id]; }

  /// For collapsed sets: the number of faults in the uncollapsed universe
  /// with behaviour identical to fault `id` (>= 1). For uncollapsed sets,
  /// always 1.
  std::size_t class_size(FaultId id) const { return class_sizes_[id]; }

  /// The number of uncollapsed faults whose detection is *implied* by
  /// detecting fault `id`: its equivalence class plus, under dominance
  /// collapsing, every absorbed dominator class. Summing represented_size
  /// over a detected subset gives a sound lower bound on the number of
  /// uncollapsed faults covered; summing over the whole set gives
  /// uncollapsed_size().
  std::size_t represented_size(FaultId id) const {
    return represented_sizes_[id];
  }

  /// Size of the uncollapsed universe this set represents. For
  /// from_faults(), the explicit list size.
  std::size_t uncollapsed_size() const { return uncollapsed_size_; }

  /// The collapsing level this set was built with (from_faults() and
  /// transitions() report kNone).
  CollapseMode mode() const { return mode_; }

  /// All fault ids, 0..size-1 (convenience for simulator calls).
  std::vector<FaultId> all_ids() const;

 private:
  std::vector<Fault> faults_;
  std::vector<std::size_t> class_sizes_;
  std::vector<std::size_t> represented_sizes_;
  std::size_t uncollapsed_size_ = 0;
  CollapseMode mode_ = CollapseMode::kNone;
};

}  // namespace wbist::fault
