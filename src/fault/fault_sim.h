// Parallel-fault sequential fault simulation (PROOFS-style) of stuck-at and
// transition faults.
//
// Faults are packed 64 per machine word; each group of faulty machines keeps
// its own flip-flop state planes and is simulated cycle by cycle against the
// same input sequence as the good machine, with each fault's model applied
// as injection data via per-lane masks at the fault sites (sim::Injection):
// a stuck-at value is forced, a slow-to-rise/fall stem is delayed by one
// cycle against a per-lane memory of its previous computed value, which the
// group carries as one more state column next to its flip-flops. A fault is
// *detected* at time u when a primary output (or a designated observation
// point) carries a definite binary value in both the good and the faulty
// machine and the values differ — the standard pessimistic three-valued
// criterion for circuits that start in the all-X state.
//
// Three orthogonal performance levers on top of the group packing:
//
//  * The combinational-core walk runs through the portable block kernel
//    (sim/kernel.h) at width sim::kFaultBlockWords: each group carries 256
//    faulty machines.
//  * Fault groups are independent machines, so the group loop runs on a
//    worker pool (`FaultSimOptions::threads`). Detection times land in
//    per-fault result slots, which makes the output bit-identical for any
//    thread count.
//  * The good machine's response to a sequence can be captured once as a
//    `GoodTrace` and shared across several run() calls over the same
//    sequence (e.g. the procedure's sample pass followed by the full pass).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "fault/fault.h"
#include "fault/fault_list.h"
#include "netlist/cones.h"
#include "netlist/netlist.h"
#include "sim/good_sim.h"
#include "sim/kernel.h"
#include "sim/logic.h"
#include "sim/sequence.h"
#include "util/worker_pool.h"

namespace wbist::fault {

struct FaultSimOptions {
  /// Extra observed lines (treated exactly like primary outputs).
  std::span<const netlist::NodeId> observation_points = {};
  /// Simulate at most this many time units of the sequence.
  std::size_t max_time_units = std::numeric_limits<std::size_t>::max();
  /// Worker threads for the fault-group loop: 0 = hardware_concurrency,
  /// 1 = serial. Results are bit-identical for every value.
  unsigned threads = 0;

  // Performance levers for run(). Each is bit-identical to the plain walk
  // (same detection times and detecting lines for every input) and can be
  // disabled independently; see DESIGN.md "Simulation cost model" for the
  // invariants. Metrics: fault_sim.gates_evaluated, fault_sim.cycles_skipped,
  // fault_sim.groups_retired_early, fault_sim.repacks,
  // fault_sim.full_trace_fallbacks.

  /// Evaluate only the union of the group members' fanout cones, reading
  /// everything outside the union from the trace's good-machine recording.
  /// Falls back to the full walk when the trace carries no full recording
  /// (counted in fault_sim.full_trace_fallbacks).
  bool cone_restriction = true;
  /// Skip a group's kernel walk for cycles where its faulty state equals the
  /// good machine's and no injection is activated. Needs the full recording,
  /// like cone_restriction.
  bool activity_gating = true;
  /// Stop simulating a group once every live lane is detected, and shrink
  /// the group's cone union as lanes retire. Long runs are additionally cut
  /// into 64-cycle segments: whenever the surviving-fault count has halved
  /// since the last packing, survivors are repacked into fewer, denser
  /// groups (carrying their flip-flop state across the boundary), so the
  /// per-cycle kernel work tracks the live fault count instead of the
  /// original list size.
  bool fault_dropping = true;
  /// Pack faults into groups by cone locality (earliest cone gate first)
  /// instead of first-come, keeping cone unions small.
  bool locality_packing = true;
};

/// Precomputed good-machine response to one test sequence: the broadcast
/// input words per time unit plus the good values of every observed line
/// (primary outputs, then observation points). Build once per candidate
/// sequence via FaultSimulator::make_trace() and pass to run() /
/// observable_lines() to avoid re-simulating the fault-free machine.
struct GoodTrace {
  std::size_t length = 0;    ///< time units captured
  std::size_t n_inputs = 0;  ///< primary-input count of the source circuit
  /// Observation points the trace was built with (count of extra observed
  /// lines beyond the primary outputs; used to validate run() options).
  std::size_t n_observation_points = 0;
  /// Observed lines: primary outputs followed by the observation points.
  std::vector<netlist::NodeId> observed;
  /// length x n_inputs broadcast input words (row-major by time unit).
  std::vector<sim::Word3> pi_words;
  /// length x observed.size() good-machine values (row-major by time unit).
  std::vector<sim::Word3> good_obs;
  /// Good values of *every* node per time unit, 2 bits per node per cycle.
  /// make_trace() always records it; the cone-restriction and activity-gating
  /// levers need it and fall back to the plain full walk on traces built by
  /// hand without one (full.empty()).
  sim::FullTrace full;
};

struct DetectionResult {
  /// Aligned with the `ids` span passed to run(): the first time unit at
  /// which each fault is detected, or kUndetected.
  std::vector<std::int32_t> detection_time;
  /// The first observed line (primary output or observation point, lowest
  /// observed index) at which each fault was detected at its detection time,
  /// or netlist::kNoNode where undetected. Provenance metadata only — it is
  /// derived from the same cycle's values that set detection_time and never
  /// feeds back into simulation.
  std::vector<netlist::NodeId> detecting_line;
  std::size_t detected_count = 0;

  static constexpr std::int32_t kUndetected = -1;

  bool detected(std::size_t i) const {
    return detection_time[i] != kUndetected;
  }
};

class FaultSimulator {
 public:
  /// Both `nl` and `faults` must outlive the simulator.
  ///
  /// Thread-safety: the simulator parallelizes *internally* (across fault
  /// groups) but its methods must not be called concurrently on the same
  /// instance — they share one lazily grown worker pool. Use one
  /// FaultSimulator per calling thread instead.
  FaultSimulator(const netlist::Netlist& nl, const FaultSet& faults);

  /// Same, but *borrowing* precomputed fanout cones instead of deriving
  /// them (the single most expensive part of construction). `cones` must
  /// have been built from `nl` and must outlive the simulator. This is the
  /// re-entrancy hook used by the compiled-circuit artifact cache
  /// (core/artifact_cache.h): many short-lived simulators over one
  /// immutable compiled circuit, none of them re-levelizing or re-walking
  /// the fanout closure.
  FaultSimulator(const netlist::Netlist& nl, const FaultSet& faults,
                 const netlist::FanoutCones& cones);

  FaultSimulator(const FaultSimulator&) = delete;
  FaultSimulator& operator=(const FaultSimulator&) = delete;

  /// Capture the good machine's response to `seq`: one fault-free simulation
  /// recording the broadcast input words and the values of every observed
  /// line (primary outputs + `observation_points`), over at most
  /// `max_time_units` time units.
  GoodTrace make_trace(
      const sim::TestSequence& seq,
      std::span<const netlist::NodeId> observation_points = {},
      std::size_t max_time_units =
          std::numeric_limits<std::size_t>::max()) const;

  /// Simulate `seq` from the all-X state against the faults in `ids`
  /// (indices into the FaultSet). Each group of faults stops as soon as all
  /// its faults are detected (fault dropping).
  DetectionResult run(const sim::TestSequence& seq,
                      std::span<const FaultId> ids,
                      const FaultSimOptions& options = {}) const;

  /// Same, against a precomputed good-machine trace. The trace must have
  /// been built with the same observation points as `options` carries (the
  /// call validates this and throws std::invalid_argument on mismatch).
  DetectionResult run(const GoodTrace& trace, std::span<const FaultId> ids,
                      const FaultSimOptions& options = {}) const;

  /// Simulate against the entire fault set.
  DetectionResult run_all(const sim::TestSequence& seq,
                          const FaultSimOptions& options = {}) const;

  /// For each fault in `ids`, the sorted set of nodes at which the fault is
  /// observable at some time unit of `seq` (good and faulty values both
  /// binary and different). This is OP(f) of the paper's Section 5: placing
  /// an observation point on any returned line detects the fault under
  /// `seq`. Faults are not dropped: all time units are examined.
  std::vector<std::vector<netlist::NodeId>> observable_lines(
      const sim::TestSequence& seq, std::span<const FaultId> ids,
      unsigned threads = 0) const;

  /// Same, reusing a trace's precomputed input words (the full good-machine
  /// value vector is replayed internally either way — the trace only stores
  /// observed lines).
  std::vector<std::vector<netlist::NodeId>> observable_lines(
      const GoodTrace& trace, std::span<const FaultId> ids,
      unsigned threads = 0) const;

  /// Faulty-machine values of `nodes` during the *last* time unit of `seq`,
  /// per fault in `ids` (result[k][n] is fault ids[k]'s value at nodes[n]).
  /// No fault dropping. Used for signature-based (MISR) detection, where
  /// only the final state matters.
  std::vector<std::vector<sim::Val3>> observe_final(
      const sim::TestSequence& seq, std::span<const FaultId> ids,
      std::span<const netlist::NodeId> nodes, unsigned threads = 0) const;

  /// Fault-free (good-machine) simulation passes performed so far, i.e.
  /// make_trace() calls plus internal replays in observable_lines(). The
  /// procedure layer uses this to assert it simulates the good machine
  /// exactly once per candidate sequence.
  std::size_t good_sim_runs() const {
    return good_sim_runs_.load(std::memory_order_relaxed);
  }

  const netlist::Netlist& circuit() const { return *nl_; }
  const FaultSet& fault_set() const { return *faults_; }

  /// Sequential transitive-fanout cones of the circuit (computed once at
  /// construction, or borrowed from a compiled-circuit artifact; drives
  /// cone restriction and locality packing).
  const netlist::FanoutCones& cones() const { return *cones_; }

 private:
  struct Group;
  struct Scratch;
  struct Walk;

  /// Delegation target: `cones` owned when non-null (the public borrowing
  /// constructor patches `cones_` afterwards).
  FaultSimulator(const netlist::Netlist& nl, const FaultSet& faults,
                 std::unique_ptr<netlist::FanoutCones> cones);

  std::vector<Group> pack_groups(std::span<const FaultId> ids,
                                 bool locality) const;

  /// Lazily created worker pool, grown (never shrunk) to the largest size
  /// requested so far; jobs smaller than the pool leave extra ranks idle.
  util::WorkerPool& pool(unsigned thread_count) const;

  /// The one group dispatcher: runs `simulate(gi, scratch)` for every group,
  /// serially or on the worker pool, handing each worker rank its own
  /// scratch with the group's gate injections attached to its index.
  template <typename Simulate>
  void for_each_group(const std::vector<Group>& groups, unsigned threads,
                      const Simulate& simulate) const;

  /// The one cycle step of a group: load the inputs and state columns
  /// `walk` covers, apply the source injections, evaluate the walk's gates,
  /// hand the node values to `observe`, then (unless it returns false)
  /// latch the flip-flops with D-pin injections and carry the transition
  /// memory column.
  template <typename Observe>
  bool step(const Group& group, const Walk& walk, Scratch& s,
            const sim::Word3* pi_row, const Observe& observe) const;

  std::vector<std::vector<netlist::NodeId>> observable_lines_impl(
      const GoodTrace& trace, std::span<const FaultId> ids,
      unsigned threads) const;

  const netlist::Netlist* nl_;
  const FaultSet* faults_;

  /// Borrowed when constructed against precomputed cones, owned otherwise.
  std::unique_ptr<netlist::FanoutCones> owned_cones_;
  const netlist::FanoutCones* cones_;

  std::vector<sim::GateRec> gates_;  // combinational core in evaluation order
  std::vector<netlist::NodeId> flat_fanin_;
  std::vector<std::uint32_t> ff_index_;  // NodeId -> index in flip_flops()
  std::vector<netlist::NodeId> ff_dnet_;  // flip-flop index -> D signal
  std::vector<std::uint32_t> all_pis_;   // identity index lists: the
  std::vector<std::uint32_t> all_ffs_;   // unrestricted walk's load sets
  std::size_t max_fanin_ = 1;  // fanin-staging width for injected gates

  mutable std::atomic<std::size_t> good_sim_runs_{0};
  mutable std::mutex pool_mu_;
  mutable std::unique_ptr<util::WorkerPool> pool_;
};

}  // namespace wbist::fault
