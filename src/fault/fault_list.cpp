#include "fault/fault_list.h"

#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace wbist::fault {

using netlist::GateType;
using netlist::Netlist;
using netlist::Node;
using netlist::NodeId;

namespace {

/// Key for (node, pin, polarity) -> uncollapsed fault index lookup.
std::uint64_t fault_key(NodeId node, std::int16_t pin, bool sa1) {
  return (static_cast<std::uint64_t>(node) << 18) |
         (static_cast<std::uint64_t>(static_cast<std::uint16_t>(pin)) << 1) |
         static_cast<std::uint64_t>(sa1);
}

/// The fault site of the line feeding pin `pin` of node `g`: the driver stem
/// when the driver has a single fanout, otherwise the branch at the pin.
std::pair<NodeId, std::int16_t> pin_site(const Netlist& nl, NodeId g,
                                         std::size_t pin) {
  const NodeId driver = nl.node(g).fanin[pin];
  if (nl.node(driver).fanout.size() == 1) return {driver, kStemPin};
  return {g, static_cast<std::int16_t>(pin)};
}

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  /// Merge, keeping the smaller root (deterministic representatives).
  void merge(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (b < a) std::swap(a, b);
    parent_[b] = a;
  }

 private:
  std::vector<std::uint32_t> parent_;
};

std::vector<Fault> enumerate_uncollapsed(const Netlist& nl) {
  std::vector<Fault> faults;
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    faults.push_back({id, kStemPin, false});
    faults.push_back({id, kStemPin, true});
  }
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    const Node& n = nl.node(id);
    if (n.type == GateType::kInput) continue;
    for (std::size_t pin = 0; pin < n.fanin.size(); ++pin) {
      if (nl.node(n.fanin[pin]).fanout.size() > 1) {
        faults.push_back({id, static_cast<std::int16_t>(pin), false});
        faults.push_back({id, static_cast<std::int16_t>(pin), true});
      }
    }
  }
  return faults;
}

/// unsafe[n] — the combinational fanout cone of node n reaches some DFF D
/// input, i.e. a fault effect at n can enter the machine state. Computed
/// over the combinational evaluation order in reverse (consumers first).
std::vector<char> compute_state_unsafe(const Netlist& nl) {
  std::vector<char> unsafe(nl.node_count(), 0);
  const auto order = nl.eval_order();
  const auto mark = [&](NodeId id) {
    for (NodeId f : nl.node(id).fanout) {
      if (nl.node(f).type == GateType::kDff || unsafe[f]) {
        unsafe[id] = 1;
        return;
      }
    }
  };
  for (auto it = order.rbegin(); it != order.rend(); ++it) mark(*it);
  // Sources (PIs, DFF outputs) are not in eval_order but can drive DFF D
  // pins directly or through marked gates.
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    const GateType t = nl.node(id).type;
    if (t == GateType::kInput || t == GateType::kDff) mark(id);
  }
  return unsafe;
}

/// Gate-local dominance drop rule: the output polarity whose stem fault is
/// detected whenever an input fault of polarity `in_sa1` is, for gates where
/// the textbook implication applies. Returns false for other gate types.
bool dominance_rule(GateType type, bool& out_sa1, bool& in_sa1) {
  switch (type) {
    case GateType::kAnd:
      out_sa1 = true;
      in_sa1 = true;
      return true;
    case GateType::kNand:
      out_sa1 = false;
      in_sa1 = true;
      return true;
    case GateType::kOr:
      out_sa1 = false;
      in_sa1 = false;
      return true;
    case GateType::kNor:
      out_sa1 = true;
      in_sa1 = false;
      return true;
    default:
      return false;
  }
}

}  // namespace

FaultSet FaultSet::uncollapsed(const Netlist& nl) {
  return collapsed(nl, CollapseMode::kNone);
}

FaultSet FaultSet::collapsed(const Netlist& nl, CollapseMode mode) {
  if (!nl.finalized())
    throw std::invalid_argument("fault_list: netlist not finalized");

  const std::vector<Fault> all = enumerate_uncollapsed(nl);
  FaultSet set;
  set.mode_ = mode;
  set.uncollapsed_size_ = all.size();
  if (mode == CollapseMode::kNone) {
    set.faults_ = all;
    set.class_sizes_.assign(all.size(), 1);
    set.represented_sizes_.assign(all.size(), 1);
    return set;
  }

  std::unordered_map<std::uint64_t, std::uint32_t> index;
  index.reserve(all.size() * 2);
  for (std::uint32_t i = 0; i < all.size(); ++i)
    index.emplace(fault_key(all[i].node, all[i].pin, all[i].stuck_at_one), i);

  const auto idx_of = [&](NodeId node, std::int16_t pin, bool sa1) {
    return index.at(fault_key(node, pin, sa1));
  };

  UnionFind uf(all.size());
  const auto merge_pin_stem = [&](NodeId g, std::size_t pin, bool pin_sa1,
                                  bool stem_sa1) {
    const auto [site_node, site_pin] = pin_site(nl, g, pin);
    uf.merge(idx_of(site_node, site_pin, pin_sa1),
             idx_of(g, kStemPin, stem_sa1));
  };

  for (NodeId id = 0; id < nl.node_count(); ++id) {
    const Node& n = nl.node(id);
    const std::size_t arity = n.fanin.size();
    switch (n.type) {
      case GateType::kInput:
        break;
      case GateType::kDff:
        // No collapsing across the clock boundary: a fault on Q acts from
        // the unknown initial state, a fault on D only from cycle 1, so the
        // two are not equivalent under three-valued start-up semantics
        // (standard tools also keep them separate; s27 -> 32 faults).
        break;
      case GateType::kBuf:
        merge_pin_stem(id, 0, false, false);
        merge_pin_stem(id, 0, true, true);
        break;
      case GateType::kNot:
        merge_pin_stem(id, 0, false, true);
        merge_pin_stem(id, 0, true, false);
        break;
      case GateType::kAnd:
        for (std::size_t p = 0; p < arity; ++p) merge_pin_stem(id, p, false, false);
        if (arity == 1) merge_pin_stem(id, 0, true, true);
        break;
      case GateType::kNand:
        for (std::size_t p = 0; p < arity; ++p) merge_pin_stem(id, p, false, true);
        if (arity == 1) merge_pin_stem(id, 0, true, false);
        break;
      case GateType::kOr:
        for (std::size_t p = 0; p < arity; ++p) merge_pin_stem(id, p, true, true);
        if (arity == 1) merge_pin_stem(id, 0, false, false);
        break;
      case GateType::kNor:
        for (std::size_t p = 0; p < arity; ++p) merge_pin_stem(id, p, true, false);
        if (arity == 1) merge_pin_stem(id, 0, false, true);
        break;
      case GateType::kXor:
      case GateType::kXnor:
        break;
    }
  }

  // Dominance: mark whole equivalence classes (by root) for dropping,
  // recording the class that absorbs them. Absorption targets are branch
  // faults on the gate's own inputs, which lie strictly earlier in
  // evaluation order than the gate output — chains terminate.
  std::unordered_map<std::uint32_t, std::uint32_t> drop_target;
  if (mode == CollapseMode::kDominance) {
    const std::vector<char> unsafe = compute_state_unsafe(nl);
    for (NodeId id = 0; id < nl.node_count(); ++id) {
      const Node& n = nl.node(id);
      bool out_sa1 = false, in_sa1 = false;
      if (n.fanin.size() < 2 || unsafe[id] ||
          !dominance_rule(n.type, out_sa1, in_sa1))
        continue;
      // The absorbing fault must only be observable through this gate:
      // require a fanout-branch input (single-fanout driver stems can be
      // observed directly, e.g. by an observation point).
      std::int32_t branch_pin = -1;
      for (std::size_t p = 0; p < n.fanin.size(); ++p) {
        if (nl.node(n.fanin[p]).fanout.size() > 1) {
          branch_pin = static_cast<std::int32_t>(p);
          break;
        }
      }
      if (branch_pin < 0) continue;
      const std::uint32_t dom = uf.find(idx_of(id, kStemPin, out_sa1));
      const std::uint32_t target = uf.find(
          idx_of(id, static_cast<std::int16_t>(branch_pin), in_sa1));
      if (dom == target) continue;
      drop_target.emplace(dom, target);  // first eligible gate wins
    }
  }

  // Class sizes by root, then fold dropped classes into their (transitively
  // resolved) kept absorber.
  std::unordered_map<std::uint32_t, std::size_t> class_size_of;
  for (std::uint32_t i = 0; i < all.size(); ++i) ++class_size_of[uf.find(i)];

  std::unordered_map<std::uint32_t, std::size_t> absorbed_of;  // kept roots
  const auto resolve_kept = [&](std::uint32_t root) {
    std::size_t hops = 0;
    auto it = drop_target.find(root);
    while (it != drop_target.end()) {
      root = it->second;
      it = drop_target.find(root);
      if (++hops > all.size())
        throw std::logic_error("fault_list: dominance absorption cycle");
    }
    return root;
  };
  for (const auto& [dropped, target] : drop_target) {
    (void)target;
    absorbed_of[resolve_kept(dropped)] += class_size_of.at(dropped);
  }

  // Collect one representative (the smallest member index) per kept class,
  // in deterministic enumeration order.
  std::unordered_map<std::uint32_t, std::uint32_t> rep_to_out;
  for (std::uint32_t i = 0; i < all.size(); ++i) {
    const std::uint32_t root = uf.find(i);
    if (drop_target.contains(root)) continue;
    const auto [it, inserted] =
        rep_to_out.emplace(root, static_cast<std::uint32_t>(set.faults_.size()));
    if (inserted) {
      set.faults_.push_back(all[root]);
      const std::size_t cls = class_size_of.at(root);
      set.class_sizes_.push_back(cls);
      const auto ab = absorbed_of.find(root);
      set.represented_sizes_.push_back(
          cls + (ab != absorbed_of.end() ? ab->second : 0));
    }
  }
  return set;
}

FaultSet FaultSet::from_faults(std::vector<Fault> faults) {
  FaultSet set;
  set.faults_ = std::move(faults);
  set.class_sizes_.assign(set.faults_.size(), 1);
  set.represented_sizes_.assign(set.faults_.size(), 1);
  set.uncollapsed_size_ = set.faults_.size();
  return set;
}

FaultSet FaultSet::transitions(const Netlist& nl) {
  if (!nl.finalized())
    throw std::invalid_argument("fault_list: netlist not finalized");
  std::vector<Fault> faults;
  faults.reserve(nl.node_count() * 2);
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    faults.push_back({id, kStemPin, false, FaultModel::kSlowToRise});
    faults.push_back({id, kStemPin, false, FaultModel::kSlowToFall});
  }
  return from_faults(std::move(faults));
}

std::vector<FaultId> FaultSet::all_ids() const {
  std::vector<FaultId> ids(size());
  std::iota(ids.begin(), ids.end(), 0u);
  return ids;
}

}  // namespace wbist::fault
