#include "core/selftest.h"

#include <stdexcept>

#include "core/cover_hw.h"
#include "netlist/compose.h"
#include "sim/good_sim.h"

namespace wbist::core {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;
using netlist::PortBinding;
using sim::Val3;

namespace {

/// Find the generator's counter bits (created by build_generator with fixed
/// names) and translate them into the assembled netlist.
std::vector<NodeId> mapped_counter_bits(const Netlist& gen,
                                        std::span<const NodeId> gen_map,
                                        const std::string& stem) {
  std::vector<NodeId> bits;
  for (unsigned b = 0;; ++b) {
    const NodeId id = gen.find(stem + std::to_string(b));
    if (id == netlist::kNoNode) break;
    bits.push_back(gen_map[id]);
  }
  return bits;
}

/// ">= bound" comparator over a binary counter via a minimized cover.
Cover ge_cover(unsigned bits, std::uint32_t bound) {
  std::vector<std::uint32_t> onset;
  for (std::uint32_t v = 0; v < (std::uint32_t{1} << bits); ++v)
    if (v >= bound) onset.push_back(v);
  return minimize(bits, onset, {});
}

/// "> bound" comparator.
Cover gt_cover(unsigned bits, std::uint32_t bound) {
  std::vector<std::uint32_t> onset;
  for (std::uint32_t v = 0; v < (std::uint32_t{1} << bits); ++v)
    if (v > bound) onset.push_back(v);
  return minimize(bits, onset, {});
}

/// "== bound" comparator.
Cover eq_cover(unsigned bits, std::uint32_t bound) {
  return minimize(bits, {bound}, {});
}

}  // namespace

SelfTestHardware assemble_self_test(const Netlist& cut,
                                    const fault::FaultSet& faults,
                                    std::span<const WeightAssignment> omega,
                                    std::size_t sequence_length,
                                    const SelfTestConfig& config) {
  if (omega.empty())
    throw std::invalid_argument("selftest: no weight assignments");

  SelfTestHardware st;
  const GeneratorHardware gen = build_generator(omega, sequence_length);
  st.session_length = gen.session_length;
  st.session_count = gen.session_count;

  // ---- Golden software model: responses, warm-up, expected signature. ----
  const std::size_t total = st.session_length * st.session_count;
  sim::GoodSimulator cut_sim(cut);
  std::vector<std::vector<Val3>> responses;
  responses.reserve(total);
  std::vector<Val3> row(cut.primary_inputs().size());
  for (std::size_t j = 0; j < omega.size(); ++j) {
    for (std::size_t u = 0; u < st.session_length; ++u) {
      for (std::size_t i = 0; i < row.size(); ++i)
        row[i] = omega[j].per_input[i].value_at(u);
      cut_sim.step(row);
      responses.push_back(cut_sim.outputs());
    }
  }
  const auto warmup = compute_warmup(responses);
  if (!warmup)
    throw std::runtime_error(
        "selftest: CUT outputs never become fully binary under these "
        "sessions");
  st.warmup_cycles = *warmup + config.warmup_margin;
  if (st.warmup_cycles >= total)
    throw std::runtime_error("selftest: warm-up exceeds the test length");

  const Misr model(config.misr_width);
  {
    Misr golden = model;
    const auto sig = golden.signature(responses, st.warmup_cycles);
    if (!sig) throw std::runtime_error("selftest: X in captured responses");
    st.expected_signature = *sig;
  }

  // ---- Assembly. ----
  Netlist& nl = st.netlist;
  nl.set_name("selftest_" + cut.name());
  const NodeId reset = nl.add_input("R");

  const std::vector<PortBinding> gen_bind{{"R", reset}};
  const std::vector<NodeId> gen_map =
      netlist::append_netlist(nl, gen.netlist, "GEN_", gen_bind);

  // CUT inputs driven by the generator's TG outputs, in input order.
  std::vector<PortBinding> cut_bind;
  const auto tg_nodes = gen.netlist.primary_outputs();
  const auto cut_pis = cut.primary_inputs();
  if (tg_nodes.size() != cut_pis.size())
    throw std::logic_error("selftest: TG/PI count mismatch");
  for (std::size_t i = 0; i < cut_pis.size(); ++i)
    cut_bind.push_back({cut.node(cut_pis[i]).name, gen_map[tg_nodes[i]]});
  const std::vector<NodeId> cut_map =
      netlist::append_netlist(nl, cut, "CUT_", cut_bind);

  // Constants for the comparator covers.
  const NodeId n_reset = nl.add_gate(GateType::kNot, "ST_nR", {reset});
  const NodeId const_zero =
      nl.add_gate(GateType::kAnd, "ST_ZERO", {reset, n_reset});
  const NodeId const_one =
      nl.add_gate(GateType::kOr, "ST_ONE", {reset, n_reset});

  // Capture enable: global cycle (= sc * P + div) >= warmup_cycles.
  const std::vector<NodeId> div =
      mapped_counter_bits(gen.netlist, gen_map, "DIV");
  const std::vector<NodeId> sc =
      mapped_counter_bits(gen.netlist, gen_map, "SC");
  const auto q = static_cast<std::uint32_t>(st.warmup_cycles /
                                            st.session_length);
  const auto r = static_cast<std::uint32_t>(st.warmup_cycles %
                                            st.session_length);

  NodeId en;
  if (st.warmup_cycles == 0) {
    en = const_one;
  } else {
    const NodeId ge_r =
        instantiate_cover(nl, ge_cover(static_cast<unsigned>(div.size()), r),
                          div, const_zero, const_one, "ST_GE");
    if (sc.empty()) {
      en = ge_r;  // single session: q == 0 guaranteed by the warm-up check
    } else {
      const NodeId gt_q =
          instantiate_cover(nl, gt_cover(static_cast<unsigned>(sc.size()), q),
                            sc, const_zero, const_one, "ST_GT");
      const NodeId eq_q =
          instantiate_cover(nl, eq_cover(static_cast<unsigned>(sc.size()), q),
                            sc, const_zero, const_one, "ST_EQ");
      const NodeId eq_and_ge =
          nl.add_gate(GateType::kAnd, "ST_EQGE", {eq_q, ge_r});
      en = nl.add_gate(GateType::kOr, "ST_EN0", {gt_q, eq_and_ge});
    }
  }
  const NodeId enable = nl.add_gate(GateType::kAnd, "ST_EN", {en, n_reset});

  // The MISR observes the CUT's outputs inside the assembly.
  std::vector<NodeId> misr_inputs;
  for (const NodeId po : cut.primary_outputs())
    misr_inputs.push_back(cut_map[po]);
  st.misr_state = emit_misr(nl, model, misr_inputs, enable, "SIG");
  for (const NodeId bit : st.misr_state) nl.mark_output(bit);

  nl.finalize();

  // ---- Fault translation. ----
  std::vector<fault::Fault> translated;
  translated.reserve(faults.size());
  for (const fault::Fault& f : faults.faults())
    translated.push_back({cut_map[f.node], f.pin, f.stuck_at_one, f.model});
  st.cut_faults = fault::FaultSet::from_faults(std::move(translated));

  return st;
}

}  // namespace wbist::core
