#include "sim/good_sim.h"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

namespace wbist::sim {

using netlist::Netlist;
using netlist::Node;
using netlist::NodeId;

// values_ doubles as the width-1 kernel's flat plane buffer: a Word3 is two
// contiguous 64-bit planes, exactly one value slot at block width 1.
static_assert(std::is_standard_layout_v<Word3> &&
              sizeof(Word3) == 2 * sizeof(std::uint64_t));

void FullTrace::append(std::span<const Word3> raw) {
  if (raw.size() != node_count_)
    throw std::invalid_argument("full_trace: value vector width mismatch");
  bits_.resize(bits_.size() + 2 * words_, 0);
  std::uint64_t* one = bits_.data() + length_ * 2 * words_;
  std::uint64_t* zero = one + words_;
  for (std::size_t n = 0; n < node_count_; ++n) {
    one[n / 64] |= (raw[n].one & 1) << (n % 64);
    zero[n / 64] |= (raw[n].zero & 1) << (n % 64);
  }
  ++length_;
}

GoodSimulator::GoodSimulator(const Netlist& nl)
    : nl_(&nl),
      inj_index_(nl.node_count()) {
  if (!nl.finalized())
    throw std::invalid_argument("good_sim: netlist not finalized");
  gates_.reserve(nl.eval_order().size());
  std::size_t max_fanin = 1;
  for (NodeId id : nl.eval_order()) {
    const Node& n = nl.node(id);
    gates_.push_back({id, n.type, static_cast<std::uint32_t>(flat_fanin_.size()),
                      static_cast<std::uint32_t>(n.fanin.size())});
    flat_fanin_.insert(flat_fanin_.end(), n.fanin.begin(), n.fanin.end());
    max_fanin = std::max(max_fanin, n.fanin.size());
  }
  fanin_buf_.resize(max_fanin);
  values_.resize(nl.node_count());
  next_state_.resize(nl.flip_flops().size());
  reset();
}

void GoodSimulator::reset() {
  for (Word3& w : values_) w = broadcast(Val3::kX);
  for (Word3& w : next_state_) w = broadcast(Val3::kX);
}

void GoodSimulator::step(std::span<const Val3> pi_values) {
  const auto pis = nl_->primary_inputs();
  if (pi_values.size() != pis.size())
    throw std::invalid_argument("good_sim: input vector width mismatch");

  for (std::size_t i = 0; i < pis.size(); ++i)
    values_[pis[i]] = broadcast(pi_values[i]);
  const auto ffs = nl_->flip_flops();
  for (std::size_t i = 0; i < ffs.size(); ++i) values_[ffs[i]] = next_state_[i];

  eval_core<1>(gates_, flat_fanin_.data(), inj_index_,
               reinterpret_cast<std::uint64_t*>(values_.data()),
               reinterpret_cast<std::uint64_t*>(fanin_buf_.data()), nullptr);

  for (std::size_t i = 0; i < ffs.size(); ++i)
    next_state_[i] = values_[nl_->node(ffs[i]).fanin[0]];
}

std::vector<Val3> GoodSimulator::outputs() const {
  std::vector<Val3> out;
  out.reserve(nl_->primary_outputs().size());
  for (NodeId id : nl_->primary_outputs()) out.push_back(value(id));
  return out;
}

std::vector<Val3> GoodSimulator::state() const {
  std::vector<Val3> out;
  out.reserve(next_state_.size());
  for (const Word3& w : next_state_) out.push_back(lane(w, 0));
  return out;
}

std::vector<std::vector<Val3>> GoodSimulator::run(const TestSequence& seq) {
  reset();
  std::vector<std::vector<Val3>> responses;
  responses.reserve(seq.length());
  for (std::size_t u = 0; u < seq.length(); ++u) {
    step(seq.row(u));
    responses.push_back(outputs());
  }
  return responses;
}

}  // namespace wbist::sim
