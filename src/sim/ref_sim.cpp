#include "sim/ref_sim.h"

#include <stdexcept>

namespace wbist::sim {

using netlist::GateType;
using netlist::Netlist;
using netlist::Node;
using netlist::NodeId;

Val3 ref_eval_gate(GateType type, std::span<const Val3> in) {
  const auto negate = [](Val3 v) {
    if (v == Val3::kX) return Val3::kX;
    return v == Val3::kZero ? Val3::kOne : Val3::kZero;
  };
  switch (type) {
    case GateType::kBuf:
      return in[0];
    case GateType::kNot:
      return negate(in[0]);
    case GateType::kAnd:
    case GateType::kNand: {
      bool any_x = false;
      for (Val3 v : in) {
        if (v == Val3::kZero)
          return type == GateType::kNand ? Val3::kOne : Val3::kZero;
        if (v == Val3::kX) any_x = true;
      }
      if (any_x) return Val3::kX;
      return type == GateType::kNand ? Val3::kZero : Val3::kOne;
    }
    case GateType::kOr:
    case GateType::kNor: {
      bool any_x = false;
      for (Val3 v : in) {
        if (v == Val3::kOne)
          return type == GateType::kNor ? Val3::kZero : Val3::kOne;
        if (v == Val3::kX) any_x = true;
      }
      if (any_x) return Val3::kX;
      return type == GateType::kNor ? Val3::kOne : Val3::kZero;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      bool parity = false;
      for (Val3 v : in) {
        if (v == Val3::kX) return Val3::kX;
        if (v == Val3::kOne) parity = !parity;
      }
      if (type == GateType::kXnor) parity = !parity;
      return parity ? Val3::kOne : Val3::kZero;
    }
    case GateType::kInput:
    case GateType::kDff:
      break;
  }
  throw std::logic_error("ref_sim: eval of a non-logic node");
}

RefSimulator::RefSimulator(const Netlist& nl) : nl_(&nl) {
  if (!nl.finalized())
    throw std::invalid_argument("ref_sim: netlist not finalized");
}

RefValueMatrix RefSimulator::run(const TestSequence& seq) const {
  return simulate(seq, nullptr);
}

RefValueMatrix RefSimulator::run(const TestSequence& seq,
                                 const RefFault& fault) const {
  return simulate(seq, &fault);
}

RefValueMatrix RefSimulator::simulate(const TestSequence& seq,
                                      const RefFault* fault) const {
  const Netlist& nl = *nl_;
  const auto pis = nl.primary_inputs();
  const auto ffs = nl.flip_flops();
  if (seq.length() != 0 && seq.width() != pis.size())
    throw std::invalid_argument("ref_sim: sequence width != #inputs");
  const bool transition =
      fault != nullptr && fault->model != RefFault::Model::kStuckAt;
  const Val3 stuck =
      fault != nullptr && fault->stuck_at_one ? Val3::kOne : Val3::kZero;
  // A faulty stem's value given the value c it computes: the stuck value,
  // or for a transition fault c combined with the previous time unit's c.
  Val3 prev = Val3::kX;  // the transition stem's computed value, one unit back
  Val3 computed = Val3::kX;
  const auto stem_value = [&](Val3 c) {
    if (!transition) return stuck;
    computed = c;
    const Val3 in[2] = {c, prev};
    return ref_eval_gate(fault->model == RefFault::Model::kSlowToRise
                             ? GateType::kAnd
                             : GateType::kOr,
                         in);
  };

  RefValueMatrix matrix;
  matrix.reserve(seq.length());
  std::vector<Val3> state(ffs.size(), Val3::kX);

  for (std::size_t u = 0; u < seq.length(); ++u) {
    std::vector<Val3> vals(nl.node_count(), Val3::kX);
    for (std::size_t i = 0; i < pis.size(); ++i) vals[pis[i]] = seq.at(u, i);
    for (std::size_t i = 0; i < ffs.size(); ++i) vals[ffs[i]] = state[i];
    // Stem fault on a source (PI or flip-flop output): sources are never
    // re-evaluated by the relaxation, so forcing once holds for the cycle.
    if (fault != nullptr && fault->pin < 0) {
      const Node& n = nl.node(fault->node);
      if (!netlist::is_logic_gate(n.type))
        vals[fault->node] = stem_value(vals[fault->node]);
    }

    // Fixed-point relaxation over the combinational core in plain node-id
    // order. Bounded by node_count passes (each pass settles at least one
    // more level); one extra pass verifies stability. A transition stem's
    // previous value is fixed for the whole time unit, so its faulty output
    // stays monotone in its inputs and the relaxation still converges.
    std::vector<Val3> fanin;
    bool changed = true;
    for (std::size_t pass = 0; changed && pass <= nl.node_count(); ++pass) {
      changed = false;
      for (NodeId id = 0; id < nl.node_count(); ++id) {
        const Node& n = nl.node(id);
        if (!netlist::is_logic_gate(n.type)) continue;
        fanin.assign(n.fanin.size(), Val3::kX);
        for (std::size_t k = 0; k < n.fanin.size(); ++k)
          fanin[k] = vals[n.fanin[k]];
        if (fault != nullptr && fault->pin >= 0 && fault->node == id)
          fanin[static_cast<std::size_t>(fault->pin)] = stuck;
        Val3 out = ref_eval_gate(n.type, fanin);
        if (fault != nullptr && fault->pin < 0 && fault->node == id)
          out = stem_value(out);
        if (out != vals[id]) {
          vals[id] = out;
          changed = true;
        }
      }
    }
    if (changed)
      throw std::logic_error("ref_sim: relaxation failed to converge");
    prev = computed;

    // Latch: flip-flop i captures its D signal, with D-pin faults forced.
    for (std::size_t i = 0; i < ffs.size(); ++i) {
      Val3 next = vals[nl.node(ffs[i]).fanin[0]];
      if (fault != nullptr && fault->pin == 0 && fault->node == ffs[i] &&
          nl.node(fault->node).type == GateType::kDff)
        next = stuck;
      state[i] = next;
    }
    matrix.push_back(std::move(vals));
  }
  return matrix;
}

namespace {

bool provably_differs(Val3 good, Val3 faulty) {
  return good != Val3::kX && faulty != Val3::kX && good != faulty;
}

}  // namespace

std::int32_t ref_detection_time(const RefValueMatrix& good,
                                const RefValueMatrix& faulty,
                                std::span<const NodeId> observed) {
  for (std::size_t u = 0; u < good.size() && u < faulty.size(); ++u)
    for (const NodeId line : observed)
      if (provably_differs(good[u][line], faulty[u][line]))
        return static_cast<std::int32_t>(u);
  return -1;
}

std::vector<NodeId> ref_observable_lines(const RefValueMatrix& good,
                                         const RefValueMatrix& faulty) {
  std::vector<NodeId> lines;
  if (good.empty()) return lines;
  const std::size_t node_count = good.front().size();
  for (NodeId node = 0; node < node_count; ++node) {
    for (std::size_t u = 0; u < good.size() && u < faulty.size(); ++u) {
      if (provably_differs(good[u][node], faulty[u][node])) {
        lines.push_back(node);
        break;
      }
    }
  }
  return lines;
}

}  // namespace wbist::sim
