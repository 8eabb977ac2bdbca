#include "fault/fault_sim.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <tuple>

#include "sim/good_sim.h"
#include "sim/word_block.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace wbist::fault {

using netlist::GateType;
using netlist::Netlist;
using netlist::Node;
using netlist::NodeId;
using sim::broadcast;
using sim::TestSequence;
using sim::Val3;
using sim::Word3;

/// Plane words per group block: every group carries 64 * kWords faulty
/// machines, walked by sim::eval_core<kWords>.
constexpr unsigned kWords = sim::kFaultBlockWords;
/// Plane words per value slot (one + zero planes).
constexpr std::size_t kStride = 2 * kWords;

/// One block of up to 64 * kWords faulty machines simulated together.
/// Lane l lives at bit (l % 64) of plane word (l / 64).
struct FaultSimulator::Group {
  std::vector<FaultId> ids;
  std::vector<std::uint32_t> result_index;  // lane -> position in `ids` span
  unsigned count = 0;
  std::array<std::uint64_t, kWords> active{};

  std::vector<sim::Injection> source;  // PI / DFF-output stem faults
  std::vector<sim::Injection> latch;   // DFF D-pin faults
  std::vector<sim::Injection> gate;    // logic-gate stem and pin faults

  /// Lane -> cone root (the fault's node: every divergence from the good
  /// machine that lane can ever produce lies inside cones.cone(root)).
  std::vector<NodeId> roots;
  /// Activation probes, one per lane: `node` is the net the injection acts
  /// on. A stuck-at lane is inert in a cycle where the good machine already
  /// carries the forced value there (definite binary, equal); a transition
  /// lane where the good value equals the previous cycle's (X before cycle
  /// 0). Either way its injection is then a provable no-op. `pin` is unused.
  std::vector<sim::Injection> activation;
  /// The transition lanes' probes: their bits of the memory column (the
  /// last state column) hold the lane's value of `node` one cycle back, and
  /// the clean check compares them with the good machine's like a
  /// flip-flop column with its D signal.
  std::vector<sim::Injection> delays;

  // Cone-restricted walk data, (re)built by build_cone() from the active
  // lanes' cones. Empty while cone restriction is off.
  std::vector<std::uint64_t> cone;          // union bitset over NodeIds
  std::vector<sim::GateRec> cone_gates;     // in-cone gates, eval order
  std::vector<std::uint64_t> frontier;      // out-of-cone non-PI fanins, bitset
  std::vector<std::uint32_t> cone_pis;      // needed primary-input indices
  std::vector<std::uint32_t> cone_ffs;      // in-cone flip-flop indices
  std::vector<std::uint32_t> obs_idx;       // in-cone observed-line indices
  std::uint64_t rebuild_lanes = 0;          // live lanes at the last build

  // Cross-segment carry, used by segmented walks (fault dropping over
  // sequences longer than one segment, observable_lines' time blocks): the
  // state columns at the last segment boundary plus the gating flags the
  // next segment resumes with. saved_state mirrors Scratch::state.
  std::vector<std::uint64_t> saved_state;
  bool clean = true;        // live lanes' state provably equals the good one
  bool state_stale = false; // saved_state predates clean-skipped cycles
  std::size_t next_clean_check = 0;
  std::size_t clean_check_interval = 1;

  bool any_active() const {
    for (unsigned w = 0; w < kWords; ++w)
      if (active[w] != 0) return true;
    return false;
  }

  std::uint64_t active_lanes() const {
    std::uint64_t n = 0;
    for (unsigned w = 0; w < kWords; ++w)
      n += static_cast<std::uint64_t>(std::popcount(active[w]));
    return n;
  }
};

FaultSimulator::FaultSimulator(const Netlist& nl, const FaultSet& faults)
    : FaultSimulator(nl, faults, std::make_unique<netlist::FanoutCones>(nl)) {}

FaultSimulator::FaultSimulator(const Netlist& nl, const FaultSet& faults,
                               const netlist::FanoutCones& cones)
    : FaultSimulator(nl, faults, nullptr) {
  cones_ = &cones;
}

FaultSimulator::FaultSimulator(const Netlist& nl, const FaultSet& faults,
                               std::unique_ptr<netlist::FanoutCones> cones)
    : nl_(&nl),
      faults_(&faults),
      owned_cones_(std::move(cones)),
      cones_(owned_cones_.get()) {
  if (!nl.finalized())
    throw std::invalid_argument("fault_sim: netlist not finalized");
  gates_.reserve(nl.eval_order().size());
  for (NodeId id : nl.eval_order()) {
    const Node& n = nl.node(id);
    gates_.push_back({id, n.type, static_cast<std::uint32_t>(flat_fanin_.size()),
                      static_cast<std::uint32_t>(n.fanin.size())});
    flat_fanin_.insert(flat_fanin_.end(), n.fanin.begin(), n.fanin.end());
    max_fanin_ = std::max(max_fanin_, n.fanin.size());
  }
  ff_index_.assign(nl.node_count(), 0);
  const auto ffs = nl.flip_flops();
  ff_dnet_.reserve(ffs.size());
  for (std::uint32_t i = 0; i < ffs.size(); ++i) {
    ff_index_[ffs[i]] = i;
    ff_dnet_.push_back(nl.node(ffs[i]).fanin[0]);
    all_ffs_.push_back(i);
  }
  for (std::uint32_t i = 0; i < nl.primary_inputs().size(); ++i)
    all_pis_.push_back(i);
}

util::WorkerPool& FaultSimulator::pool(unsigned thread_count) const {
  std::lock_guard<std::mutex> lk(pool_mu_);
  // Grow-only: parallel_for handles jobs smaller than the pool, so a pool
  // sized to the largest request ever seen serves every later call without
  // respawning threads (alternating small/large fault lists stay cheap).
  if (!pool_ || pool_->size() < thread_count)
    pool_ = std::make_unique<util::WorkerPool>(thread_count);
  return *pool_;
}

namespace {

sim::InjectAction inject_action(const Fault& f) {
  switch (f.model) {
    case FaultModel::kSlowToRise:
      return sim::InjectAction::kSlowToRise;
    case FaultModel::kSlowToFall:
      return sim::InjectAction::kSlowToFall;
    case FaultModel::kStuckAt:
      break;
  }
  return f.stuck_at_one ? sim::InjectAction::kStuckAt1
                        : sim::InjectAction::kStuckAt0;
}

}  // namespace

std::vector<FaultSimulator::Group> FaultSimulator::pack_groups(
    std::span<const FaultId> ids, bool locality) const {
  const unsigned lanes_per_group = 64 * kWords;

  // Packing order. Lanes are independent machines, so any permutation is
  // bit-identical in the results (result_index keeps each lane tied to its
  // position in `ids`); locality packing sorts faults so that cones opening
  // at nearby gates land in the same group and the group's cone union stays
  // close to its largest member instead of approaching the whole circuit.
  std::vector<std::uint32_t> order(ids.size());
  for (std::uint32_t k = 0; k < order.size(); ++k) order[k] = k;
  if (locality) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       const Fault& fa = (*faults_)[ids[a]];
                       const Fault& fb = (*faults_)[ids[b]];
                       const auto ka = std::make_tuple(
                           cones_->first_gate_pos(fa.node),
                           cones_->popcount(fa.node), fa.node, fa.pin,
                           fa.stuck_at_one);
                       const auto kb = std::make_tuple(
                           cones_->first_gate_pos(fb.node),
                           cones_->popcount(fb.node), fb.node, fb.pin,
                           fb.stuck_at_one);
                       return ka < kb;
                     });
  }

  std::vector<Group> groups;
  groups.reserve((ids.size() + lanes_per_group - 1) / lanes_per_group);
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::uint32_t pos = order[k];
    if (k % lanes_per_group == 0) {
      groups.emplace_back();
      groups.back().ids.reserve(lanes_per_group);
      groups.back().result_index.reserve(lanes_per_group);
      groups.back().roots.reserve(lanes_per_group);
      groups.back().activation.reserve(lanes_per_group);
    }
    Group& g = groups.back();
    const unsigned lane = g.count++;
    const std::uint16_t word = static_cast<std::uint16_t>(lane / 64);
    const std::uint64_t mask = std::uint64_t{1} << (lane % 64);
    g.ids.push_back(ids[pos]);
    g.result_index.push_back(pos);
    g.active[word] |= mask;

    const Fault& f = (*faults_)[ids[pos]];
    const Node& n = nl_->node(f.node);
    const sim::Injection inj{f.node, f.pin, inject_action(f), word, mask};
    g.roots.push_back(f.node);
    // The activation probe watches the net the injection acts on: the node
    // itself for stem faults, the driving signal for pin faults (including
    // the D pin of a flip-flop).
    const NodeId forced_net =
        f.pin == kStemPin ? f.node
                          : n.fanin[static_cast<std::size_t>(f.pin)];
    g.activation.push_back({forced_net, 0, inj.action, word, mask});
    if (f.model != FaultModel::kStuckAt)
      g.delays.push_back({forced_net, 0, inj.action, word, mask});
    if (f.pin == kStemPin) {
      if (n.type == GateType::kInput || n.type == GateType::kDff)
        g.source.push_back(inj);
      else
        g.gate.push_back(inj);
    } else {
      if (n.type == GateType::kDff)
        g.latch.push_back(inj);
      else
        g.gate.push_back(inj);
    }
  }
  return groups;
}

namespace {

/// Widen one broadcast Word3 into every plane word of a slot.
inline void splat(std::uint64_t* slot, Word3 w) {
  for (unsigned k = 0; k < kWords; ++k) {
    slot[k] = w.one;
    slot[kWords + k] = w.zero;
  }
}

/// Extract machine `lane` of a slot as a scalar value.
inline Val3 lane_val(const std::uint64_t* slot, unsigned lane) {
  const Word3 w{slot[lane / 64], slot[kWords + lane / 64]};
  return sim::lane(w, lane % 64);
}

}  // namespace

/// Per-thread scratch for one simulated group: node value planes, state
/// planes, fanin staging and the injection chain index. One instance per
/// worker rank; reused across every group that rank simulates. All buffers
/// are flat plane arrays with `kStride` words per value slot. The state
/// holds one column per flip-flop followed by the transition memory column
/// (index ff_count): each transition lane's previous computed value, which
/// sim::inject() reads and rewrites in place during the walk.
struct FaultSimulator::Scratch {
  std::vector<std::uint64_t> vals;
  std::vector<std::uint64_t> state;
  std::vector<std::uint64_t> next_state;
  std::vector<std::uint64_t> fanin_buf;
  std::vector<std::uint64_t> changed;  // node bitset: gap-accumulated diffs
  sim::InjectionIndex inj_index;

  Scratch(std::size_t node_count, std::size_t ff_count, std::size_t max_fanin)
      : vals(node_count * kStride),
        state((ff_count + 1) * kStride),
        next_state((ff_count + 1) * kStride),
        fanin_buf(max_fanin * kStride),
        changed((node_count + 63) / 64),
        inj_index(node_count) {}

  /// Resume a group: the all-X power-up state (both planes all-ones, memory
  /// included) at cycle 0, else the columns it saved at its last boundary.
  void load_state(const Group& g, bool at_start) {
    if (at_start)
      std::fill(state.begin(), state.end(), ~std::uint64_t{0});
    else
      std::copy(g.saved_state.begin(), g.saved_state.end(), state.begin());
  }

  void save_state(Group& g) const { g.saved_state = state; }
};

/// The slice of the circuit one cycle step covers: the primary inputs
/// (indices into primary_inputs()) and flip-flops (indices into
/// flip_flops()) it loads and latches, and the gates it walks.
struct FaultSimulator::Walk {
  std::span<const std::uint32_t> pis;
  std::span<const std::uint32_t> ffs;
  std::span<const sim::GateRec> gates;
};

template <typename Observe>
bool FaultSimulator::step(const Group& group, const Walk& walk, Scratch& s,
                          const Word3* pi_row, const Observe& observe) const {
  const auto pis = nl_->primary_inputs();
  const auto ffs = nl_->flip_flops();
  const std::size_t mem_col = ffs.size() * kStride;
  std::uint64_t* vals = s.vals.data();
  std::uint64_t* memory = s.state.data() + mem_col;
  for (const std::uint32_t i : walk.pis) splat(vals + pis[i] * kStride, pi_row[i]);
  for (const std::uint32_t i : walk.ffs)
    std::memcpy(vals + ffs[i] * kStride, s.state.data() + i * kStride,
                kStride * sizeof(std::uint64_t));
  for (const sim::Injection& inj : group.source)
    sim::inject<kWords>(vals + inj.node * kStride, inj, memory);

  sim::eval_core<kWords>(walk.gates, flat_fanin_.data(), s.inj_index, vals,
                         s.fanin_buf.data(), memory);
  if (!observe(static_cast<const std::uint64_t*>(vals))) return false;

  for (const std::uint32_t i : walk.ffs)
    std::memcpy(s.next_state.data() + i * kStride, vals + ff_dnet_[i] * kStride,
                kStride * sizeof(std::uint64_t));
  for (const sim::Injection& inj : group.latch)
    sim::inject<kWords>(s.next_state.data() + ff_index_[inj.node] * kStride,
                        inj, memory);
  std::copy_n(memory, kStride, s.next_state.data() + mem_col);
  s.state.swap(s.next_state);
  return true;
}

template <typename Simulate>
void FaultSimulator::for_each_group(const std::vector<Group>& groups,
                                    unsigned threads,
                                    const Simulate& simulate) const {
  const unsigned n_threads = static_cast<unsigned>(std::min<std::size_t>(
      util::WorkerPool::resolve(threads), groups.size()));
  util::WorkerPool* wp = n_threads > 1 ? &pool(n_threads) : nullptr;
  // The grow-only pool may be larger than n_threads; any rank in
  // [0, wp->size()) can claim indices, so scratch is rank-indexed by it.
  const unsigned ranks = wp != nullptr ? wp->size() : 1u;
  std::vector<Scratch> scratch;
  scratch.reserve(ranks);
  for (unsigned r = 0; r < ranks; ++r)
    scratch.emplace_back(nl_->node_count(), nl_->flip_flops().size(),
                         max_fanin_);
  const auto run_one = [&](std::size_t gi, Scratch& s) {
    s.inj_index.attach(groups[gi].gate);
    simulate(gi, s);
    s.inj_index.detach();
  };
  if (wp == nullptr) {
    for (std::size_t gi = 0; gi < groups.size(); ++gi) run_one(gi, scratch[0]);
    return;
  }
  // Per-rank busy time, timed at group granularity (one clock pair per
  // fault group, invisible next to the group's simulation cost).
  std::vector<std::uint64_t> busy_ns(ranks, 0);
  const util::Timer parallel_wall;
  wp->parallel_for(groups.size(), [&](std::size_t gi, unsigned rank) {
    const util::Timer t;
    run_one(gi, scratch[rank]);
    busy_ns[rank] += static_cast<std::uint64_t>(t.seconds() * 1e9);
  });
  const double wall = parallel_wall.seconds();
  util::MetricsRegistry& reg = util::metrics();
  reg.timer("fault_sim.parallel").add_seconds(wall);
  for (unsigned r = 0; r < ranks; ++r) {
    if (busy_ns[r] == 0) continue;
    reg.timer("fault_sim.worker_busy")
        .add_seconds(static_cast<double>(busy_ns[r]) * 1e-9);
    if (wall > 0.0)
      reg.histogram("fault_sim.rank_busy_pct")
          .record(static_cast<std::uint64_t>(
              100.0 * static_cast<double>(busy_ns[r]) * 1e-9 / wall));
  }
}

GoodTrace FaultSimulator::make_trace(
    const TestSequence& seq, std::span<const NodeId> observation_points,
    std::size_t max_time_units) const {
  const auto pis = nl_->primary_inputs();
  GoodTrace trace;
  trace.n_inputs = pis.size();
  trace.n_observation_points = observation_points.size();
  trace.observed.assign(nl_->primary_outputs().begin(),
                        nl_->primary_outputs().end());
  trace.observed.insert(trace.observed.end(), observation_points.begin(),
                        observation_points.end());
  if (seq.length() == 0) return trace;
  if (seq.width() != pis.size())
    throw std::invalid_argument("fault_sim: sequence width != #inputs");

  trace.length = std::min(seq.length(), max_time_units);
  util::TraceSpan span("fault_sim.make_trace",
                       util::TraceArg("cycles", trace.length));
  trace.pi_words.resize(trace.length * pis.size());
  trace.good_obs.resize(trace.length * trace.observed.size());
  trace.full = sim::FullTrace(nl_->node_count());
  sim::GoodSimulator good(*nl_);
  for (std::size_t u = 0; u < trace.length; ++u) {
    good.step(seq.row(u));
    for (std::size_t i = 0; i < pis.size(); ++i)
      trace.pi_words[u * pis.size() + i] = broadcast(seq.at(u, i));
    const auto raw = good.raw_values();
    for (std::size_t k = 0; k < trace.observed.size(); ++k)
      trace.good_obs[u * trace.observed.size() + k] = raw[trace.observed[k]];
    trace.full.append(raw);
  }
  good_sim_runs_.fetch_add(1, std::memory_order_relaxed);
  util::metrics().counter("fault_sim.traces").add(1);
  util::metrics().counter("fault_sim.trace_cycles").add(trace.length);
  return trace;
}

DetectionResult FaultSimulator::run(const TestSequence& seq,
                                    std::span<const FaultId> ids,
                                    const FaultSimOptions& options) const {
  if (ids.empty() || seq.length() == 0) {
    DetectionResult result;
    result.detection_time.assign(ids.size(), DetectionResult::kUndetected);
    result.detecting_line.assign(ids.size(), netlist::kNoNode);
    return result;
  }
  return run(make_trace(seq, options.observation_points,
                        options.max_time_units),
             ids, options);
}

DetectionResult FaultSimulator::run(const GoodTrace& trace,
                                    std::span<const FaultId> ids,
                                    const FaultSimOptions& options) const {
  const auto pis = nl_->primary_inputs();
  DetectionResult result;
  result.detection_time.assign(ids.size(), DetectionResult::kUndetected);
  result.detecting_line.assign(ids.size(), netlist::kNoNode);
  if (ids.empty() || trace.length == 0) return result;
  if (trace.n_inputs != pis.size())
    throw std::invalid_argument("fault_sim: trace width != #inputs");
  if (trace.n_observation_points > trace.observed.size())
    throw std::invalid_argument(
        "fault_sim: malformed trace (n_observation_points > observed lines)");
  if (trace.n_observation_points != options.observation_points.size() ||
      !std::equal(options.observation_points.begin(),
                  options.observation_points.end(),
                  trace.observed.end() -
                      static_cast<std::ptrdiff_t>(trace.n_observation_points)))
    throw std::invalid_argument(
        "fault_sim: trace observation points differ from options");

  const std::size_t length = std::min(trace.length, options.max_time_units);
  const std::size_t n_obs = trace.observed.size();
  const NodeId* observed = trace.observed.data();

  // The cone and gating levers read fault-free values of arbitrary nodes
  // from the trace's full recording; hand-built traces without one (or with
  // one from a different circuit) fall back to the plain full walk.
  const bool has_full = !trace.full.empty() &&
                        trace.full.length() >= length &&
                        trace.full.node_count() == nl_->node_count();
  const bool use_cones = options.cone_restriction && has_full;
  const bool use_gating = options.activity_gating && has_full;
  const bool use_drop = options.fault_dropping;
  if ((options.cone_restriction || options.activity_gating) && !has_full)
    util::metrics().counter("fault_sim.full_trace_fallbacks").add(1);

  std::vector<Group> groups = pack_groups(ids, options.locality_packing);
  const auto ffs = nl_->flip_flops();
  const std::size_t cwords = cones_->words();
  const std::size_t mem_col = ffs.size() * kStride;

  // Identity index list for the unrestricted scan, so the detection loop
  // below iterates the same span whether a cone union or the whole circuit
  // is in play.
  std::vector<std::uint32_t> all_obs(n_obs);
  for (std::uint32_t k = 0; k < all_obs.size(); ++k) all_obs[k] = k;

  // (Re)build a group's cone-restricted walk data from its live lanes: the
  // union bitset, the in-cone gates (evaluation order preserved), the
  // in-cone flip-flops and observed lines, and the frontier — every
  // out-of-cone non-input signal the cone reads. A consumer of a cone node
  // is itself in the cone (the cone is a fanout closure), so out-of-cone
  // values are bit-identical to the good machine at every cycle and the
  // frontier can be splat from the full recording.
  const auto build_cone = [&](Group& g) {
    g.cone.assign(cwords, 0);
    for (unsigned lane = 0; lane < g.count; ++lane) {
      if (((g.active[lane / 64] >> (lane % 64)) & 1) == 0) continue;
      const auto root = cones_->cone(g.roots[lane]);
      for (std::size_t w = 0; w < cwords; ++w) g.cone[w] |= root[w];
    }
    const auto in_cone = [&](NodeId n) {
      return (g.cone[n / 64] >> (n % 64)) & 1;
    };
    g.cone_gates.clear();
    for (const sim::GateRec& rec : gates_)
      if (in_cone(rec.id)) g.cone_gates.push_back(rec);
    g.cone_ffs.clear();
    for (std::uint32_t i = 0; i < ffs.size(); ++i)
      if (in_cone(ffs[i])) g.cone_ffs.push_back(i);
    g.obs_idx.clear();
    for (std::uint32_t k = 0; k < n_obs; ++k)
      if (in_cone(observed[k])) g.obs_idx.push_back(k);
    // Frontier: out-of-cone signals the walk reads, kept as a node bitset so
    // the cycle loop can AND it against the changed-node masks. Primary
    // inputs are split out into cone_pis (in-cone roots plus every PI a cone
    // gate reads — the cone closure only goes downstream, so a cone gate may
    // well read an out-of-cone PI): they are splat from pi_words, not the
    // full recording, exactly like the unrestricted walk splats all PIs.
    g.frontier.assign(cwords, 0);
    std::vector<std::uint64_t> pi_need(cwords, 0);
    const auto add_frontier = [&](NodeId n) {
      if (nl_->node(n).type == GateType::kInput) {
        pi_need[n / 64] |= std::uint64_t{1} << (n % 64);
        return;
      }
      if (in_cone(n)) return;
      g.frontier[n / 64] |= std::uint64_t{1} << (n % 64);
    };
    for (const sim::GateRec& rec : g.cone_gates)
      for (std::uint32_t j = 0; j < rec.fanin_count; ++j)
        add_frontier(flat_fanin_[rec.fanin_begin + j]);
    for (const std::uint32_t i : g.cone_ffs) add_frontier(ff_dnet_[i]);
    g.cone_pis.clear();
    for (std::uint32_t i = 0; i < pis.size(); ++i) {
      const NodeId pi = pis[i];
      if (in_cone(pi) || ((pi_need[pi / 64] >> (pi % 64)) & 1) != 0)
        g.cone_pis.push_back(i);
    }
    g.rebuild_lanes = g.active_lanes();
  };
  if (use_cones)
    for (Group& g : groups) build_cone(g);
  const auto walk_of = [&](const Group& g) {
    return use_cones ? Walk{g.cone_pis, g.cone_ffs, g.cone_gates}
                     : Walk{all_pis_, all_ffs_, gates_};
  };

  // Per-cycle changed-node masks: bit n of row u is set when node n's good
  // value differs between cycles u-1 and u. The frontier splat below uses
  // them to rewrite only the frontier slots whose broadcast value actually
  // changed since the group's previously walked cycle — unchanged slots
  // still hold the identical value, so skipping them is bit-identical.
  // Row 0 is all-ones (no predecessor), though a group's first walked cycle
  // always splats the full frontier anyway.
  std::vector<std::uint64_t> full_diff;
  if (use_cones) {
    full_diff.assign(length * cwords, ~std::uint64_t{0});
    for (std::size_t u = 1; u < length; ++u) {
      const auto prev = trace.full.planes(u - 1);
      const auto cur = trace.full.planes(u);
      std::uint64_t* row = full_diff.data() + u * cwords;
      for (std::size_t w = 0; w < cwords; ++w)
        row[w] = (cur[w] ^ prev[w]) | (cur[cwords + w] ^ prev[cwords + w]);
    }
  }

  // A live lane is activated at cycle u when its injection is not a no-op
  // against the good machine's values (see Group::activation): the good
  // value of its net differs from the forced value, or for a transition
  // lane from the net's good value the cycle before (X before cycle 0).
  const auto activated_at = [&](const sim::Injection& a, std::size_t u) {
    const Word3 gv = trace.full.value(u, a.node);
    Word3 inert;
    if (a.action <= sim::InjectAction::kStuckAt1) {
      const std::uint64_t one =
          a.action == sim::InjectAction::kStuckAt1 ? ~std::uint64_t{0} : 0;
      inert = {one, ~one};
    } else {
      inert = u == 0 ? broadcast(Val3::kX) : trace.full.value(u - 1, a.node);
    }
    return gv.one != inert.one || gv.zero != inert.zero;
  };

  // Kernel-cycle accounting, one slot per group (written once per dispatch
  // by the group's simulation), folded into `total` after every dispatch
  // and flushed to util::metrics once per call: kernel cycles = eval_core invocations, fault cycles = active
  // lanes summed over those invocations (the word-packed work actually
  // done), gates = gates handed to eval_core summed over invocations,
  // skipped = group-cycles the gating lever proved inert, retired = groups
  // that stopped before the end of the sequence.
  struct Tally {
    std::uint64_t detected = 0, cycles = 0, fault_cycles = 0, gates = 0,
                  skipped = 0, retired = 0;
  };
  std::vector<Tally> tally(groups.size());
  Tally total;
  const util::Timer run_wall;
  util::TraceSpan run_span("fault_sim.run", util::TraceArg("faults", ids.size()),
                           util::TraceArg("groups", groups.size()),
                           util::TraceArg("cycles", length));

  // Segment bounds for the current dispatch (the whole sequence unless the
  // dropping lever segments the run to repack surviving lanes — see the
  // driver loop below). Captured by reference in simulate_group.
  std::size_t seg_begin = 0;
  std::size_t seg_end = length;

  const auto simulate_group = [&](std::size_t gi, Scratch& s) {
    Group& group = groups[gi];
    if (seg_begin > 0 && use_drop && !group.any_active()) return;
    util::TraceSpan group_span(
        "fault_sim.group", util::TraceArg("group", gi),
        util::TraceArg("lanes", group.count),
        util::TraceArg("walk_gates", static_cast<std::uint64_t>(
                                         use_cones ? group.cone_gates.size()
                                                   : gates_.size())));
    std::uint64_t* vals = s.vals.data();
    s.load_state(group, seg_begin == 0);
    Walk walk = walk_of(group);
    std::span<const std::uint32_t> obs_list =
        use_cones ? std::span<const std::uint32_t>(group.obs_idx) : all_obs;

    Tally local;
    // Gating flags resume from the previous segment; at cycle 0 the group
    // defaults apply (the all-X start state equals the good machine's, so
    // every group starts clean: gating may skip from the very first cycle).
    bool clean = group.clean;
    bool state_stale = group.state_stale;
    // Cycle of the group's last kernel walk, or kNoWalk before the first
    // (and after a cone rebuild, whose new frontier slots may hold this
    // group's own faulty values): frontier slots still carry the broadcast
    // good values of that cycle, so only nodes the changed masks flag over
    // (last_walk, u] need re-splatting. Never carried across segments —
    // another group reused the scratch in between.
    constexpr std::size_t kNoWalk = std::numeric_limits<std::size_t>::max();
    std::size_t last_walk = kNoWalk;
    // Clean-check backoff state (see the use_gating block after the step).
    constexpr std::size_t kMaxCleanCheckInterval = 64;
    std::size_t next_clean_check = group.next_clean_check;
    std::size_t clean_check_interval = group.clean_check_interval;
    for (std::size_t u = seg_begin;
         u < seg_end && (!use_drop || group.any_active()); ++u) {
      if (use_gating && clean) {
        // Clean group: the live lanes' state planes equal the good
        // machine's. If additionally no live lane's injection is activated,
        // the whole cycle — evaluation, detection, latching — is a provable
        // no-op.
        bool activated = false;
        for (const sim::Injection& a : group.activation) {
          if ((a.mask & group.active[a.word]) == 0) continue;
          if (activated_at(a, u)) {
            activated = true;
            break;
          }
        }
        if (!activated) {
          ++local.skipped;
          state_stale = true;
          continue;
        }
      }

      ++local.cycles;
      local.fault_cycles += group.active_lanes();
      local.gates += walk.gates.size();

      if (state_stale) {
        // Skipped cycles froze the stored state while the good machine kept
        // evolving. The group provably tracked the good machine throughout,
        // so its present state is the good state this cycle. The memory
        // column needs no refresh: a cycle is skipped only while every live
        // transition lane's line keeps its good value, so the value each
        // lane remembers is still the one of the cycle before.
        for (const std::uint32_t i : walk.ffs)
          splat(s.state.data() + i * kStride, trace.full.value(u, ffs[i]));
        state_stale = false;
      }

      if (use_cones) {
        // Frontier refresh. After the group's first walk the frontier slots
        // still hold the broadcast values of the previously walked cycle, so
        // only nodes the changed masks flag over (last_walk, u] need
        // re-splatting. The step's loads never touch frontier slots.
        const std::uint64_t* ch = nullptr;  // null: splat the whole frontier
        if (last_walk != kNoWalk) {
          if (u == last_walk + 1) {
            ch = full_diff.data() + u * cwords;
          } else {
            // Gated-out cycles sit between two walks: accumulate their
            // diffs so anything that changed at any point in the gap gets
            // refreshed.
            std::uint64_t* acc = s.changed.data();
            std::copy_n(full_diff.data() + (last_walk + 1) * cwords, cwords,
                        acc);
            for (std::size_t v = last_walk + 2; v <= u; ++v) {
              const std::uint64_t* row = full_diff.data() + v * cwords;
              for (std::size_t w = 0; w < cwords; ++w) acc[w] |= row[w];
            }
            ch = acc;
          }
        }
        for (std::size_t w = 0; w < cwords; ++w) {
          std::uint64_t bits = group.frontier[w];
          if (ch != nullptr) bits &= ch[w];
          while (bits != 0) {
            const NodeId n = static_cast<NodeId>(
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
            bits &= bits - 1;
            splat(vals + n * kStride, trace.full.value(u, n));
          }
        }
        last_walk = u;
      }

      // Detection at observed lines. Out-of-cone lines can never differ
      // from the good machine on a live lane, so restricting the scan to
      // the cone's observed lines is bit-identical. A group whose lanes are
      // all detected stops before latching when dropping is on.
      const auto detect = [&](const std::uint64_t* vals) {
        std::array<std::uint64_t, kWords> detected{};
        for (const std::uint32_t k : obs_list) {
          const Word3 g = trace.good_obs[u * n_obs + k];
          const std::uint64_t g_binary = g.one ^ g.zero;
          if (g_binary == 0) continue;  // X in the good machine: undetectable
          const std::uint64_t* f = vals + observed[k] * kStride;
          for (unsigned w = 0; w < kWords; ++w)
            detected[w] |= (f[w] ^ f[kWords + w]) & g_binary & (f[w] ^ g.one);
        }
        for (unsigned w = 0; w < kWords; ++w) {
          std::uint64_t d = detected[w] & group.active[w];
          while (d != 0) {
            const unsigned bit = static_cast<unsigned>(std::countr_zero(d));
            d &= d - 1;
            group.active[w] &= ~(std::uint64_t{1} << bit);
            const std::uint32_t ri = group.result_index[w * 64 + bit];
            result.detection_time[ri] = static_cast<std::int32_t>(u);
            // Provenance metadata: the first observed line that exposes
            // this lane this cycle (obs_list ascends, and out-of-cone lines
            // carry no difference, so the cone scan reports the same line as
            // a full scan would). Recomputed only on detection (at most once
            // per fault), so the steady-state cycle loop is untouched.
            for (const std::uint32_t k : obs_list) {
              const Word3 g = trace.good_obs[u * n_obs + k];
              const std::uint64_t g_binary = g.one ^ g.zero;
              const std::uint64_t* f = vals + observed[k] * kStride;
              if ((((f[w] ^ f[kWords + w]) & g_binary & (f[w] ^ g.one)) >>
                   bit) &
                  1) {
                result.detecting_line[ri] = observed[k];
                break;
              }
            }
            ++local.detected;
          }
        }
        return !use_drop || group.any_active();
      };
      if (!step(group, walk, s, trace.pi_words.data() + u * pis.size(),
                detect)) {
        if (u + 1 < length) local.retired = 1;
        break;
      }

      if (use_cones && group.any_active() &&
          group.active_lanes() * 2 <= group.rebuild_lanes) {
        // Enough lanes retired since the last build: shrink the union to
        // the surviving cones. At most log2(lanes) rebuilds per group.
        build_cone(group);
        walk = walk_of(group);
        obs_list = group.obs_idx;
        // The shrunken union may expose frontier nodes that were inside the
        // old cone and thus hold this group's faulty values: force a full
        // frontier splat on the next walk.
        last_walk = kNoWalk;
      }

      if (use_gating && u >= next_clean_check) {
        // A group is clean again when every live lane's latched state equals
        // the good machine's next state (the good value of each D signal
        // this cycle, and for a transition lane's memory the good value of
        // its line this cycle). A nearly-clean group makes this scan walk
        // deep into the flip-flops every cycle without ever proving
        // cleanliness, so failed checks back off exponentially (capped);
        // skipping a check only leaves `clean` conservatively false, which
        // never changes results.
        const auto differs = [&](const std::uint64_t* st, Word3 gv,
                                 unsigned w, std::uint64_t mask) {
          return (((st[w] ^ gv.one) | (st[kWords + w] ^ gv.zero)) & mask) !=
                 0;
        };
        clean = true;
        for (const std::uint32_t i : walk.ffs) {
          const Word3 gv = trace.full.value(u, ff_dnet_[i]);
          const std::uint64_t* st = s.state.data() + i * kStride;
          for (unsigned w = 0; w < kWords && clean; ++w)
            clean = !differs(st, gv, w, group.active[w]);
          if (!clean) break;
        }
        for (const sim::Injection& d : group.delays) {
          if (!clean) break;
          clean = !differs(s.state.data() + mem_col,
                           trace.full.value(u, d.node), d.word,
                           d.mask & group.active[d.word]);
        }
        if (clean) {
          clean_check_interval = 1;
        } else {
          next_clean_check = u + clean_check_interval;
          clean_check_interval = std::min<std::size_t>(
              clean_check_interval * 2, kMaxCleanCheckInterval);
        }
      }
    }

    group.clean = clean;
    group.state_stale = state_stale;
    group.next_clean_check = next_clean_check;
    group.clean_check_interval = clean_check_interval;
    if (seg_end < length) s.save_state(group);
    tally[gi] = local;
  };

  // Fold every group's tally of the last dispatch into the run totals.
  const auto fold_tallies = [&]() {
    for (Tally& t : tally) {
      total.detected += t.detected;
      total.cycles += t.cycles;
      total.fault_cycles += t.fault_cycles;
      total.gates += t.gates;
      total.skipped += t.skipped;
      total.retired += t.retired;
      t = Tally{};
    }
  };

  // Repack every surviving lane into fresh (locality-packed) groups,
  // transplanting each lane's state columns — flip-flops and transition
  // memory — from its old group. Detection so far fixes which lanes
  // survive, so the new grouping — like any packing permutation of
  // independent lanes — is bit-identical; fewer, denser groups mean fewer
  // kernel walks for the remaining cycles.
  const auto repack_survivors = [&]() {
    std::vector<FaultId> sub;
    std::vector<std::uint32_t> orig;
    for (std::uint32_t p = 0; p < ids.size(); ++p)
      if (result.detection_time[p] == DetectionResult::kUndetected) {
        sub.push_back(ids[p]);
        orig.push_back(p);
      }
    std::vector<std::uint32_t> src_group(ids.size(), 0);
    std::vector<std::uint32_t> src_lane(ids.size(), 0);
    for (std::uint32_t gi = 0; gi < groups.size(); ++gi)
      for (std::uint32_t l = 0; l < groups[gi].count; ++l) {
        src_group[groups[gi].result_index[l]] = gi;
        src_lane[groups[gi].result_index[l]] = l;
      }
    // Copy lane l's bit of column `col` from its old group's saved state.
    const auto transplant = [&](Group& g, std::size_t col, std::uint32_t l) {
      const std::uint32_t p = g.result_index[l];
      const std::uint32_t sl = src_lane[p];
      const std::uint64_t* src =
          groups[src_group[p]].saved_state.data() + col * kStride;
      std::uint64_t* dst = g.saved_state.data() + col * kStride;
      const std::uint64_t one = (src[sl / 64] >> (sl % 64)) & 1;
      const std::uint64_t zero = (src[kWords + sl / 64] >> (sl % 64)) & 1;
      const std::uint64_t bit = std::uint64_t{1} << (l % 64);
      dst[l / 64] = (dst[l / 64] & ~bit) | (one << (l % 64));
      dst[kWords + l / 64] = (dst[kWords + l / 64] & ~bit) | (zero << (l % 64));
    };
    std::vector<Group> next = pack_groups(sub, options.locality_packing);
    for (Group& g : next) {
      for (std::uint32_t& ri : g.result_index) ri = orig[ri];
      if (use_cones) build_cone(g);
      // A lane's true faulty value at any flip-flop its old group
      // maintained is exactly the old group's stored bit; at a flip-flop
      // the old group did not maintain (outside its cone union, hence
      // outside the lane's own cone) the lane provably tracks the good
      // machine, as it does when the old group's stored state predates
      // clean-skipped cycles (state_stale). Both fall back to the good
      // state of the boundary cycle. A transition lane's memory bit is
      // always current (see the state_stale refresh) and moves as is.
      g.saved_state.assign(mem_col + kStride, ~std::uint64_t{0});
      for (const std::uint32_t i : walk_of(g).ffs) {
        if (has_full)
          splat(g.saved_state.data() + i * kStride,
                trace.full.value(seg_end, ffs[i]));
        const std::uint64_t ff_word = ffs[i] / 64;
        const std::uint64_t ff_bit = ffs[i] % 64;
        for (std::uint32_t l = 0; l < g.count; ++l) {
          const Group& old = groups[src_group[g.result_index[l]]];
          if (old.state_stale) continue;
          if (use_cones && ((old.cone[ff_word] >> ff_bit) & 1) == 0)
            continue;
          transplant(g, i, l);
        }
      }
      for (const sim::Injection& d : g.delays)
        transplant(g, ffs.size(),
                   d.word * 64u +
                       static_cast<std::uint32_t>(std::countr_zero(d.mask)));
      // The new group resumes clean only if every contributing old group
      // was provably clean (conservatively false otherwise — never affects
      // results, only skip opportunities).
      bool all_clean = true;
      for (std::uint32_t l = 0; l < g.count; ++l)
        all_clean &= groups[src_group[g.result_index[l]]].clean;
      g.clean = all_clean;
      g.state_stale = false;
    }
    groups = std::move(next);
  };

  // Segment driver. Without the dropping lever the whole sequence is one
  // segment and this reduces to a single dispatch. With it, the run is cut
  // into fixed segments; whenever the survivor count has at least halved
  // since the last packing, survivors are repacked into fewer groups (at
  // most log2(faults) repacks per run).
  const std::size_t kSegmentCycles = 64;
  const bool segmented = use_drop && length > kSegmentCycles;
  std::size_t live_at_pack = ids.size();
  std::uint64_t repacks = 0;
  for (std::size_t from = 0; from < length; from = seg_end) {
    seg_begin = from;
    seg_end = segmented ? std::min(from + kSegmentCycles, length) : length;
    for_each_group(groups, options.threads, simulate_group);
    fold_tallies();
    if (seg_end >= length) break;
    std::size_t live = 0;
    for (std::uint32_t p = 0; p < ids.size(); ++p)
      live += result.detection_time[p] == DetectionResult::kUndetected;
    if (live == 0) break;
    if (live * 2 <= live_at_pack) {
      util::TraceSpan repack_span("fault_sim.repack",
                                  util::TraceArg("live", live),
                                  util::TraceArg("cycle", seg_end));
      repack_survivors();
      tally.assign(groups.size(), Tally{});
      live_at_pack = live;
      ++repacks;
    }
  }
  result.detected_count = total.detected;

  util::MetricsRegistry& reg = util::metrics();
  reg.timer("fault_sim.run").add_seconds(run_wall.seconds());
  reg.counter("fault_sim.runs").add(1);
  reg.counter("fault_sim.groups").add(groups.size());
  reg.counter("fault_sim.faults_simulated").add(ids.size());
  reg.counter("fault_sim.faults_detected").add(result.detected_count);
  reg.counter("fault_sim.kernel_cycles").add(total.cycles);
  reg.counter("fault_sim.fault_cycles").add(total.fault_cycles);
  reg.counter("fault_sim.gates_evaluated").add(total.gates);
  reg.counter("fault_sim.cycles_skipped").add(total.skipped);
  reg.counter("fault_sim.groups_retired_early").add(total.retired);
  reg.counter("fault_sim.repacks").add(repacks);
  return result;
}

DetectionResult FaultSimulator::run_all(const TestSequence& seq,
                                        const FaultSimOptions& options) const {
  const std::vector<FaultId> ids = faults_->all_ids();
  return run(seq, ids, options);
}

std::vector<std::vector<Val3>> FaultSimulator::observe_final(
    const TestSequence& seq, std::span<const FaultId> ids,
    std::span<const NodeId> nodes, unsigned threads) const {
  const auto pis = nl_->primary_inputs();
  std::vector<std::vector<Val3>> result(
      ids.size(), std::vector<Val3>(nodes.size(), Val3::kX));
  if (ids.empty() || seq.length() == 0) return result;
  if (seq.width() != pis.size())
    throw std::invalid_argument("fault_sim: sequence width != #inputs");

  std::vector<Group> groups = pack_groups(ids, false);
  util::TraceSpan span("fault_sim.observe_final",
                       util::TraceArg("faults", ids.size()),
                       util::TraceArg("cycles", seq.length()));

  std::vector<Word3> pi_words(seq.length() * pis.size());
  for (std::size_t u = 0; u < seq.length(); ++u)
    for (std::size_t i = 0; i < pis.size(); ++i)
      pi_words[u * pis.size() + i] = broadcast(seq.at(u, i));

  const Walk walk{all_pis_, all_ffs_, gates_};
  for_each_group(groups, threads, [&](std::size_t gi, Scratch& s) {
    const Group& group = groups[gi];
    s.load_state(group, true);
    for (std::size_t u = 0; u < seq.length(); ++u) {
      const bool last = u + 1 == seq.length();
      step(group, walk, s, pi_words.data() + u * pis.size(),
           [&](const std::uint64_t* vals) {
             if (last)
               for (unsigned lane = 0; lane < group.count; ++lane)
                 for (std::size_t n = 0; n < nodes.size(); ++n)
                   result[group.result_index[lane]][n] =
                       lane_val(vals + nodes[n] * kStride, lane);
             return !last;
           });
    }
  });
  util::metrics().counter("fault_sim.final_obs_runs").add(1);
  util::metrics().counter("fault_sim.kernel_cycles")
      .add(static_cast<std::uint64_t>(groups.size()) * seq.length());
  return result;
}

std::vector<std::vector<NodeId>> FaultSimulator::observable_lines(
    const TestSequence& seq, std::span<const FaultId> ids,
    unsigned threads) const {
  const auto pis = nl_->primary_inputs();
  if (seq.width() != pis.size())
    throw std::invalid_argument("fault_sim: sequence width != #inputs");

  // A pi-words-only trace: observable_lines never looks at good_obs (it
  // replays the full good-machine value vector internally).
  GoodTrace trace;
  trace.length = seq.length();
  trace.n_inputs = pis.size();
  trace.pi_words.resize(seq.length() * pis.size());
  for (std::size_t u = 0; u < seq.length(); ++u)
    for (std::size_t i = 0; i < pis.size(); ++i)
      trace.pi_words[u * pis.size() + i] = broadcast(seq.at(u, i));
  return observable_lines_impl(trace, ids, threads);
}

std::vector<std::vector<NodeId>> FaultSimulator::observable_lines(
    const GoodTrace& trace, std::span<const FaultId> ids,
    unsigned threads) const {
  if (trace.length != 0 && trace.n_inputs != nl_->primary_inputs().size())
    throw std::invalid_argument("fault_sim: trace width != #inputs");
  return observable_lines_impl(trace, ids, threads);
}

std::vector<std::vector<NodeId>> FaultSimulator::observable_lines_impl(
    const GoodTrace& trace, std::span<const FaultId> ids,
    unsigned threads) const {
  std::vector<std::vector<NodeId>> result(ids.size());
  if (ids.empty() || trace.length == 0) return result;
  util::TraceSpan span("fault_sim.observable_lines",
                       util::TraceArg("faults", ids.size()),
                       util::TraceArg("cycles", trace.length));

  const auto pis = nl_->primary_inputs();
  const std::size_t node_count = nl_->node_count();
  std::vector<Group> groups = pack_groups(ids, false);

  // Per-fault bitset of already-reported lines, one word-aligned stride per
  // fault so concurrent groups never share a word (O(faults x nodes) *bits*,
  // not bytes).
  const std::size_t words_per_fault = (node_count + 63) / 64;
  std::vector<std::uint64_t> seen(ids.size() * words_per_fault, 0);

  // The time loop is chunked: the good machine advances one block at a time
  // (recording its full value vector per cycle), then every group catches up
  // over the block, carrying its state columns across blocks like a
  // segmented run. Blocks amortize the per-dispatch pool cost while keeping
  // the good-value buffer small (kBlock x node_count words).
  constexpr std::size_t kBlock = 32;
  std::vector<Word3> good_block(std::min(kBlock, trace.length) * node_count);

  sim::GoodSimulator good(*nl_);
  std::vector<Val3> row(pis.size());
  const Walk walk{all_pis_, all_ffs_, gates_};

  for (std::size_t u0 = 0; u0 < trace.length; u0 += kBlock) {
    const std::size_t block_len = std::min(kBlock, trace.length - u0);
    for (std::size_t b = 0; b < block_len; ++b) {
      const std::size_t u = u0 + b;
      for (std::size_t i = 0; i < pis.size(); ++i)
        row[i] = sim::lane(trace.pi_words[u * pis.size() + i], 0);
      good.step(row);
      const auto raw = good.raw_values();
      std::copy(raw.begin(), raw.end(), good_block.begin() + b * node_count);
    }

    for_each_group(groups, threads, [&](std::size_t gi, Scratch& s) {
      Group& group = groups[gi];
      s.load_state(group, u0 == 0);
      for (std::size_t b = 0; b < block_len; ++b) {
        // Record every line where some lane's faulty value provably differs
        // from the good value.
        const Word3* good_vals = good_block.data() + b * node_count;
        step(group, walk, s, trace.pi_words.data() + (u0 + b) * pis.size(),
             [&](const std::uint64_t* vals) {
               for (NodeId node = 0; node < node_count; ++node) {
                 const Word3 gv = good_vals[node];
                 const std::uint64_t g_binary = gv.one ^ gv.zero;
                 const std::uint64_t* fv = vals + node * kStride;
                 for (unsigned w = 0; w < kWords; ++w) {
                   std::uint64_t diff = (fv[w] ^ fv[kWords + w]) & g_binary &
                                        (fv[w] ^ gv.one);
                   diff &= group.active[w];
                   while (diff != 0) {
                     const unsigned bit =
                         static_cast<unsigned>(std::countr_zero(diff));
                     diff &= diff - 1;
                     const std::uint32_t ri = group.result_index[w * 64 + bit];
                     std::uint64_t& word =
                         seen[static_cast<std::size_t>(ri) * words_per_fault +
                              node / 64];
                     const std::uint64_t line_bit = std::uint64_t{1}
                                                    << (node % 64);
                     if ((word & line_bit) == 0) {
                       word |= line_bit;
                       result[ri].push_back(node);
                     }
                   }
                 }
               }
               return true;
             });
      }
      s.save_state(group);
    });
  }
  good_sim_runs_.fetch_add(1, std::memory_order_relaxed);

  util::MetricsRegistry& reg = util::metrics();
  reg.counter("fault_sim.obs_runs").add(1);
  reg.counter("fault_sim.obs_faults").add(ids.size());
  reg.counter("fault_sim.trace_cycles").add(trace.length);
  reg.counter("fault_sim.kernel_cycles")
      .add(static_cast<std::uint64_t>(groups.size()) * trace.length);

  for (auto& lines : result) std::sort(lines.begin(), lines.end());
  return result;
}

}  // namespace wbist::fault
