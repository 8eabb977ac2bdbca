// The combinational-core evaluation kernel.
//
// Every simulation path in the system (good machine, parallel-fault groups,
// reverse-order pruning, observation-point selection) bottoms out in the
// same inner loop: walk the flattened combinational core in topological
// order and evaluate each gate over three-valued plane words. That loop is
// one portable template, eval_core<N>, over Word3Block<N> (N x 64 lanes)
// written with plain 64-bit operations; the compiler is free to
// autovectorize it at the build's baseline ISA. The width is a compile-time
// choice of the caller:
//
//   - GoodSimulator runs width 1 (a Word3 is exactly a 1-word block);
//   - FaultSimulator runs width kFaultBlockWords = 4, i.e. 256 faulty
//     machines per group.
//
// Lanes never interact, so both widths agree lane for lane with the scalar
// Word3 operations; the sim-diff fuzz campaign checks the fault simulator
// against the RefSimulator oracle.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "netlist/netlist.h"
#include "sim/word_block.h"

namespace wbist::sim {

/// One gate of the flattened combinational core in evaluation order
/// (cache-friendly walk shared by every simulator).
struct GateRec {
  netlist::NodeId id;
  netlist::GateType type;
  std::uint32_t fanin_begin;
  std::uint32_t fanin_count;
};

/// Fault injection applied inside the kernel walk. `pin` is kInjectStem for
/// a fault on the node's output, otherwise the fanin pin index; `word`/`mask`
/// select the faulty lanes within the block; `action` is the fault model.
inline constexpr std::int16_t kInjectStem = -1;

/// What an injection does to its lanes. Stuck-at forces a constant; the
/// transition (gross-delay) actions make a stem complete a rising (falling)
/// edge one cycle late: with c the value the line computes this cycle and p
/// the value it computed the cycle before, slow-to-rise drives AND(c, p) and
/// slow-to-fall drives OR(c, p). Both identities hold in three-valued logic,
/// so the all-X start (p = X) gets the right pessimism for free.
enum class InjectAction : std::uint8_t {
  kStuckAt0,
  kStuckAt1,
  kSlowToRise,
  kSlowToFall,
};

struct Injection {
  netlist::NodeId node;
  std::int16_t pin;
  InjectAction action;
  std::uint16_t word;  ///< plane word within the block (lane / 64)
  std::uint64_t mask;  ///< lanes within that word
};

/// Apply `inj` to the lanes it selects in one 2N-word value slot. Transition
/// actions read each lane's previous computed value from `memory` (a 2N-word
/// slot, one bit per lane: every lane carries at most one fault) and record
/// this cycle's computed value there; stuck-at actions never touch it.
template <unsigned N>
inline void inject(std::uint64_t* slot, const Injection& inj,
                   std::uint64_t* memory) {
  const unsigned w = inj.word;
  const std::uint64_t m = inj.mask;
  if (inj.action == InjectAction::kStuckAt0) {
    slot[w] &= ~m;
    slot[N + w] |= m;
    return;
  }
  if (inj.action == InjectAction::kStuckAt1) {
    slot[w] |= m;
    slot[N + w] &= ~m;
    return;
  }
  const std::uint64_t c1 = slot[w], c0 = slot[N + w];
  const std::uint64_t p1 = memory[w], p0 = memory[N + w];
  const bool rise = inj.action == InjectAction::kSlowToRise;
  const std::uint64_t one = rise ? c1 & p1 : c1 | p1;   // AND(c, p) : OR(c, p)
  const std::uint64_t zero = rise ? c0 | p0 : c0 & p0;
  slot[w] = (c1 & ~m) | (one & m);
  slot[N + w] = (c0 & ~m) | (zero & m);
  memory[w] = (p1 & ~m) | (c1 & m);
  memory[N + w] = (p0 & ~m) | (c0 & m);
}

/// Scratch per-group chain of gate injections. head(node) is an index into
/// the link list, or -1. attach()/detach() touch only the injected nodes,
/// so reuse across groups costs O(#injections), not O(#nodes).
class InjectionIndex {
 public:
  explicit InjectionIndex(std::size_t node_count) : head_(node_count, -1) {}

  void attach(const std::vector<Injection>& injections) {
    for (const Injection& inj : injections) {
      links_.push_back({inj, head_[inj.node]});
      head_[inj.node] = static_cast<std::int32_t>(links_.size()) - 1;
      touched_.push_back(inj.node);
    }
  }

  void detach() {
    for (netlist::NodeId n : touched_) head_[n] = -1;
    touched_.clear();
    links_.clear();
  }

  std::int32_t head(netlist::NodeId node) const { return head_[node]; }
  const Injection& injection(std::int32_t link) const {
    return links_[static_cast<std::size_t>(link)].first;
  }
  std::int32_t next(std::int32_t link) const {
    return links_[static_cast<std::size_t>(link)].second;
  }

 private:
  std::vector<std::int32_t> head_;
  std::vector<std::pair<Injection, std::int32_t>> links_;
  std::vector<netlist::NodeId> touched_;
};

/// Evaluate the flattened combinational core once over plane buffers at
/// block width N (1 or kFaultBlockWords; both are instantiated in
/// kernel.cpp). `vals` holds node_count slots of 2*N plane words each
/// (layout of Word3Block: 'one' words then 'zero' words, see word_block.h);
/// `fanin_buf` must hold max_fanin * 2*N words of staging space for
/// injected gates; `memory` is the 2N-word previous-value slot of the
/// transition injections (see inject()), null when there are none.
template <unsigned N>
void eval_core(std::span<const GateRec> gates,
               const netlist::NodeId* flat_fanin,
               const InjectionIndex& inj_index, std::uint64_t* vals,
               std::uint64_t* fanin_buf, std::uint64_t* memory);

/// Fingerprint of the kernel the fault simulator runs, recorded in
/// benchmark records and the `kernel.backend` metrics label.
struct Kernel {
  const char* name;  ///< "generic-w4"
  unsigned words;    ///< 64-lane plane words per fault-group block
};

inline const Kernel& active_kernel() {
  static constexpr Kernel kKernel{"generic-w4", kFaultBlockWords};
  return kKernel;
}

}  // namespace wbist::sim
