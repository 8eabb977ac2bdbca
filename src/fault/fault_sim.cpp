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
  /// Activation probes, one per lane: `node` is the net whose good value
  /// deciding the stuck-at force — when the good machine already carries the
  /// forced value there (definite binary, equal), the lane's injection is a
  /// provable no-op this cycle. `pin` is unused.
  std::vector<sim::Injection> activation;

  // Cone-restricted walk data, (re)built by build_cone() from the active
  // lanes' cones. Empty while cone restriction is off.
  std::vector<std::uint64_t> cone;          // union bitset over NodeIds
  std::vector<sim::GateRec> cone_gates;     // in-cone gates, eval order
  std::vector<std::uint64_t> frontier;      // out-of-cone non-PI fanins, bitset
  std::vector<std::uint32_t> cone_pis;      // needed primary-input indices
  std::vector<std::uint32_t> cone_ffs;      // in-cone flip-flop indices
  std::vector<std::uint32_t> obs_idx;       // in-cone observed-line indices
  std::uint64_t rebuild_lanes = 0;          // live lanes at the last build

  // Cross-segment carry, used only by segmented runs (fault dropping over
  // sequences longer than one segment): the flip-flop state planes at the
  // last segment boundary plus the gating flags the next segment resumes
  // with. saved_state mirrors GroupScratch::state (ff_count x kStride).
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
  }
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
    const sim::Injection inj{f.node, f.pin, f.stuck_at_one, word, mask};
    g.roots.push_back(f.node);
    // The activation probe watches the net the stuck-at value is forced
    // onto: the node itself for stem faults, the driving signal for pin
    // faults (including the D pin of a flip-flop).
    const NodeId forced_net =
        f.pin == kStemPin ? f.node
                          : n.fanin[static_cast<std::size_t>(f.pin)];
    g.activation.push_back({forced_net, 0, f.stuck_at_one, word, mask});
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

/// Stuck-at injection on one plane word of a slot.
inline void force_slot(std::uint64_t* slot, unsigned word, std::uint64_t mask,
                       bool sa1) {
  if (sa1) {
    slot[word] |= mask;
    slot[kWords + word] &= ~mask;
  } else {
    slot[word] &= ~mask;
    slot[kWords + word] |= mask;
  }
}

/// Extract machine `lane` of a slot as a scalar value.
inline Val3 lane_val(const std::uint64_t* slot, unsigned lane) {
  const Word3 w{slot[lane / 64], slot[kWords + lane / 64]};
  return sim::lane(w, lane % 64);
}

/// Per-thread scratch for one simulated group: node value planes, flip-flop
/// state planes, fanin staging and the injection chain index. One instance
/// per worker rank; reused across every group that rank simulates. All
/// buffers are flat plane arrays with `kStride` words per value slot.
struct GroupScratch {
  std::vector<std::uint64_t> vals;
  std::vector<std::uint64_t> state;
  std::vector<std::uint64_t> next_state;
  std::vector<std::uint64_t> fanin_buf;
  std::vector<std::uint64_t> changed;  // node bitset: gap-accumulated diffs
  sim::InjectionIndex inj_index;

  GroupScratch(std::size_t node_count, std::size_t ff_count,
               std::size_t max_fanin)
      : vals(node_count * kStride),
        state(ff_count * kStride),
        next_state(ff_count * kStride),
        fanin_buf(max_fanin * kStride),
        changed((node_count + 63) / 64),
        inj_index(node_count) {}

  /// All-X state: both planes all-ones.
  void reset_state() { std::fill(state.begin(), state.end(), ~std::uint64_t{0}); }
};

}  // namespace

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

  // Identity index lists for the unrestricted walk, so the cycle loop below
  // iterates the same spans whether a cone union or the whole circuit is in
  // play.
  std::vector<std::uint32_t> all_ffs(ffs.size());
  for (std::uint32_t i = 0; i < all_ffs.size(); ++i) all_ffs[i] = i;
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

  std::vector<std::uint32_t> group_detected(groups.size(), 0);
  // Kernel-cycle accounting, flushed to util::metrics once per call:
  // kernel cycles = eval_core invocations, fault cycles = active lanes
  // summed over those invocations (the word-packed work actually done),
  // gates evaluated = gates handed to eval_core summed over invocations,
  // cycles skipped = group-cycles the gating lever proved inert.
  std::vector<std::uint64_t> group_cycles(groups.size(), 0);
  std::vector<std::uint64_t> group_fault_cycles(groups.size(), 0);
  std::vector<std::uint64_t> group_gates(groups.size(), 0);
  std::vector<std::uint64_t> group_skipped(groups.size(), 0);
  std::vector<std::uint8_t> group_retired(groups.size(), 0);
  const util::Timer run_wall;
  util::TraceSpan run_span("fault_sim.run", util::TraceArg("faults", ids.size()),
                           util::TraceArg("groups", groups.size()),
                           util::TraceArg("cycles", length));

  // Segment bounds for the current dispatch (the whole sequence unless the
  // dropping lever segments the run to repack surviving lanes — see the
  // driver loop below). Captured by reference in simulate_group.
  std::size_t seg_begin = 0;
  std::size_t seg_end = length;
  const std::size_t ff_planes = ffs.size() * kStride;

  const auto simulate_group = [&](std::size_t gi, GroupScratch& s) {
    Group& group = groups[gi];
    if (seg_begin > 0 && use_drop && !group.any_active()) return;
    util::TraceSpan group_span(
        "fault_sim.group", util::TraceArg("group", gi),
        util::TraceArg("lanes", group.count),
        util::TraceArg("walk_gates", static_cast<std::uint64_t>(
                                         use_cones ? group.cone_gates.size()
                                                   : gates_.size())));
    std::uint64_t* vals = s.vals.data();
    s.inj_index.attach(group.gate);
    if (seg_begin == 0)
      s.reset_state();
    else
      std::copy_n(group.saved_state.data(), ff_planes, s.state.data());

    std::span<const std::uint32_t> ff_list = use_cones ? group.cone_ffs : all_ffs;
    std::span<const std::uint32_t> obs_list = use_cones ? group.obs_idx : all_obs;
    std::span<const sim::GateRec> walk_gates =
        use_cones ? std::span<const sim::GateRec>(group.cone_gates)
                  : std::span<const sim::GateRec>(gates_);

    std::uint32_t local_detected = 0;
    std::uint64_t local_cycles = 0;
    std::uint64_t local_fault_cycles = 0;
    std::uint64_t local_gates = 0;
    std::uint64_t local_skipped = 0;
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
    // Clean-check backoff state (see the use_gating block after the latch).
    constexpr std::size_t kMaxCleanCheckInterval = 64;
    std::size_t next_clean_check = group.next_clean_check;
    std::size_t clean_check_interval = group.clean_check_interval;
    for (std::size_t u = seg_begin;
         u < seg_end && (!use_drop || group.any_active()); ++u) {
      if (use_gating && clean) {
        // Clean group: the live lanes' state planes equal the good
        // machine's. If additionally no live lane's injection is activated
        // (the good machine already carries every forced value), the whole
        // cycle — evaluation, detection, latching — is a provable no-op.
        bool activated = false;
        for (const sim::Injection& a : group.activation) {
          if ((a.mask & group.active[a.word]) == 0) continue;
          const Word3 gv = trace.full.value(u, a.node);
          const std::uint64_t want_one = a.sa1 ? ~std::uint64_t{0} : 0;
          if (gv.one != want_one || gv.zero != ~want_one) {
            activated = true;
            break;
          }
        }
        if (!activated) {
          ++local_skipped;
          state_stale = true;
          continue;
        }
      }

      ++local_cycles;
      local_fault_cycles += group.active_lanes();
      local_gates += walk_gates.size();

      if (state_stale) {
        // Skipped cycles froze the stored state while the good machine kept
        // evolving. The group provably tracked the good machine throughout,
        // so its present state is the good state this cycle.
        for (const std::uint32_t i : ff_list)
          splat(s.state.data() + i * kStride, trace.full.value(u, ffs[i]));
        state_stale = false;
      }

      // Load sources and apply source (PI / DFF output) stem faults.
      if (use_cones) {
        for (const std::uint32_t i : group.cone_pis)
          splat(vals + pis[i] * kStride, trace.pi_words[u * pis.size() + i]);
      } else {
        for (std::size_t i = 0; i < pis.size(); ++i)
          splat(vals + pis[i] * kStride, trace.pi_words[u * pis.size() + i]);
      }
      for (const std::uint32_t i : ff_list)
        std::memcpy(vals + ffs[i] * kStride, s.state.data() + i * kStride,
                    kStride * sizeof(std::uint64_t));
      if (use_cones) {
        // Frontier refresh. After the group's first walk the frontier slots
        // still hold the broadcast values of the previously walked cycle, so
        // only nodes the changed masks flag over (last_walk, u] need
        // re-splatting.
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
      for (const sim::Injection& inj : group.source)
        force_slot(vals + inj.node * kStride, inj.word, inj.mask, inj.sa1);

      sim::eval_core<kWords>(walk_gates, flat_fanin_.data(), s.inj_index,
                             vals, s.fanin_buf.data());

      // Detection at observed lines. Out-of-cone lines can never differ
      // from the good machine on a live lane, so restricting the scan to
      // the cone's observed lines is bit-identical.
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
          // Provenance metadata: the first observed line that exposes this
          // lane this cycle (obs_list ascends, and out-of-cone lines carry
          // no difference, so the cone scan reports the same line as a full
          // scan would). Recomputed only on detection (at most once per
          // fault), so the steady-state cycle loop is untouched.
          for (const std::uint32_t k : obs_list) {
            const Word3 g = trace.good_obs[u * n_obs + k];
            const std::uint64_t g_binary = g.one ^ g.zero;
            const std::uint64_t* f = vals + observed[k] * kStride;
            if ((((f[w] ^ f[kWords + w]) & g_binary & (f[w] ^ g.one)) >> bit) &
                1) {
              result.detecting_line[ri] = observed[k];
              break;
            }
          }
          ++local_detected;
        }
      }
      if (!group.any_active()) {
        if (use_drop) {
          if (u + 1 < length) group_retired[gi] = 1;
          break;
        }
      } else if (use_cones && group.active_lanes() * 2 <= group.rebuild_lanes) {
        // Enough lanes retired since the last build: shrink the union to
        // the surviving cones. At most log2(lanes) rebuilds per group.
        build_cone(group);
        ff_list = group.cone_ffs;
        obs_list = group.obs_idx;
        walk_gates = group.cone_gates;
        // The shrunken union may expose frontier nodes that were inside the
        // old cone and thus hold this group's faulty values: force a full
        // frontier splat on the next walk.
        last_walk = kNoWalk;
      }

      // Latch flip-flops, applying D-pin faults.
      for (const std::uint32_t i : ff_list)
        std::memcpy(s.next_state.data() + i * kStride,
                    vals + ff_dnet_[i] * kStride,
                    kStride * sizeof(std::uint64_t));
      for (const sim::Injection& inj : group.latch)
        force_slot(s.next_state.data() + ff_index_[inj.node] * kStride,
                   inj.word, inj.mask, inj.sa1);
      s.state.swap(s.next_state);

      if (use_gating && u >= next_clean_check) {
        // A group is clean again when every live lane's latched state equals
        // the good machine's next state (the good value of each D signal
        // this cycle). A nearly-clean group makes this scan walk deep into
        // ff_list every cycle without ever proving cleanliness, so failed
        // checks back off exponentially (capped); skipping a check only
        // leaves `clean` conservatively false, which never changes results.
        clean = true;
        for (const std::uint32_t i : ff_list) {
          const Word3 gv = trace.full.value(u, ff_dnet_[i]);
          const std::uint64_t* st = s.state.data() + i * kStride;
          for (unsigned w = 0; w < kWords; ++w)
            if ((((st[w] ^ gv.one) | (st[kWords + w] ^ gv.zero)) &
                 group.active[w]) != 0) {
              clean = false;
              break;
            }
          if (!clean) break;
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
    if (seg_end < length) {
      group.saved_state.resize(ff_planes);
      std::copy_n(s.state.data(), ff_planes, group.saved_state.data());
    }
    group_detected[gi] += local_detected;
    group_cycles[gi] += local_cycles;
    group_fault_cycles[gi] += local_fault_cycles;
    group_gates[gi] += local_gates;
    group_skipped[gi] += local_skipped;
    s.inj_index.detach();
  };

  const unsigned n_threads = static_cast<unsigned>(std::min<std::size_t>(
      util::WorkerPool::resolve(options.threads), groups.size()));

  // One dispatch of every current group over [seg_begin, seg_end).
  const auto dispatch_segment = [&]() {
    if (n_threads <= 1) {
      GroupScratch scratch(nl_->node_count(), ffs.size(), max_fanin_);
      for (std::size_t gi = 0; gi < groups.size(); ++gi)
        simulate_group(gi, scratch);
      return;
    }
    util::WorkerPool& wp = pool(n_threads);
    // The grow-only pool may be larger than n_threads; any rank in
    // [0, wp.size()) can claim indices, so scratch is rank-indexed by it.
    std::vector<GroupScratch> scratch;
    scratch.reserve(wp.size());
    for (unsigned r = 0; r < wp.size(); ++r)
      scratch.emplace_back(nl_->node_count(), ffs.size(), max_fanin_);
    // Per-rank busy time, timed at group granularity (one clock pair per
    // fault group, invisible next to the group's simulation cost).
    std::vector<std::uint64_t> busy_ns(wp.size(), 0);
    const util::Timer parallel_wall;
    wp.parallel_for(groups.size(), [&](std::size_t gi, unsigned rank) {
      const util::Timer t;
      simulate_group(gi, scratch[rank]);
      busy_ns[rank] += static_cast<std::uint64_t>(t.seconds() * 1e9);
    });
    const double wall = parallel_wall.seconds();
    util::MetricsRegistry& reg = util::metrics();
    reg.timer("fault_sim.parallel").add_seconds(wall);
    for (unsigned r = 0; r < wp.size(); ++r) {
      if (busy_ns[r] == 0) continue;
      reg.timer("fault_sim.worker_busy")
          .add_seconds(static_cast<double>(busy_ns[r]) * 1e-9);
      if (wall > 0.0)
        reg.histogram("fault_sim.rank_busy_pct")
            .record(static_cast<std::uint64_t>(
                100.0 * static_cast<double>(busy_ns[r]) * 1e-9 / wall));
    }
  };

  // Run totals, folded from the per-group arrays whenever the group list is
  // about to change size (repack) and once at the end.
  std::uint64_t kernel_cycles = 0, fault_cycles = 0;
  std::uint64_t gates_evaluated = 0, cycles_skipped = 0, retired = 0;
  std::uint64_t repacks = 0;
  const auto fold_groups = [&]() {
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      result.detected_count += group_detected[gi];
      kernel_cycles += group_cycles[gi];
      fault_cycles += group_fault_cycles[gi];
      gates_evaluated += group_gates[gi];
      cycles_skipped += group_skipped[gi];
      retired += group_retired[gi];
    }
    group_detected.assign(groups.size(), 0);
    group_cycles.assign(groups.size(), 0);
    group_fault_cycles.assign(groups.size(), 0);
    group_gates.assign(groups.size(), 0);
    group_skipped.assign(groups.size(), 0);
    group_retired.assign(groups.size(), 0);
  };

  // Repack every surviving lane into fresh (locality-packed) groups,
  // transplanting each lane's flip-flop state column from its old group.
  // Detection so far fixes which lanes survive, so the new grouping — like
  // any packing permutation of independent lanes — is bit-identical; fewer,
  // denser groups mean fewer kernel walks for the remaining cycles.
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
    std::vector<Group> next = pack_groups(sub, options.locality_packing);
    for (Group& g : next) {
      for (std::uint32_t& ri : g.result_index) ri = orig[ri];
      if (use_cones) build_cone(g);
      // Transplant state columns. A lane's true faulty value at any
      // flip-flop its old group maintained is exactly the old group's
      // stored bit; at a flip-flop the old group did not maintain (outside
      // its cone union, hence outside the lane's own cone) the lane
      // provably tracks the good machine, as it does when the old group's
      // stored state predates clean-skipped cycles (state_stale). Both
      // fall back to the good state of the boundary cycle.
      g.saved_state.assign(ff_planes, ~std::uint64_t{0});
      const std::span<const std::uint32_t> cover =
          use_cones ? std::span<const std::uint32_t>(g.cone_ffs)
                    : std::span<const std::uint32_t>(all_ffs);
      for (const std::uint32_t i : cover) {
        std::uint64_t* dst = g.saved_state.data() + i * kStride;
        if (has_full)
          splat(dst, trace.full.value(seg_end, ffs[i]));
        const std::uint64_t ff_word = ffs[i] / 64;
        const std::uint64_t ff_bit = ffs[i] % 64;
        for (std::uint32_t l = 0; l < g.count; ++l) {
          const std::uint32_t p = g.result_index[l];
          const Group& old = groups[src_group[p]];
          if (old.state_stale) continue;
          if (use_cones && ((old.cone[ff_word] >> ff_bit) & 1) == 0)
            continue;
          const std::uint32_t sl = src_lane[p];
          const std::uint64_t* src = old.saved_state.data() + i * kStride;
          const std::uint64_t one = (src[sl / 64] >> (sl % 64)) & 1;
          const std::uint64_t zero = (src[kWords + sl / 64] >> (sl % 64)) & 1;
          const std::uint64_t bit = std::uint64_t{1} << (l % 64);
          dst[l / 64] = (dst[l / 64] & ~bit) | (one << (l % 64));
          dst[kWords + l / 64] =
              (dst[kWords + l / 64] & ~bit) | (zero << (l % 64));
        }
      }
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
  for (std::size_t from = 0; from < length; from = seg_end) {
    seg_begin = from;
    seg_end = segmented ? std::min(from + kSegmentCycles, length) : length;
    dispatch_segment();
    if (seg_end >= length) break;
    std::size_t live = 0;
    for (std::uint32_t p = 0; p < ids.size(); ++p)
      live += result.detection_time[p] == DetectionResult::kUndetected;
    if (live == 0) break;
    if (live * 2 <= live_at_pack) {
      fold_groups();
      util::TraceSpan repack_span("fault_sim.repack",
                                  util::TraceArg("live", live),
                                  util::TraceArg("cycle", seg_end));
      repack_survivors();
      group_detected.assign(groups.size(), 0);
      group_cycles.assign(groups.size(), 0);
      group_fault_cycles.assign(groups.size(), 0);
      group_gates.assign(groups.size(), 0);
      group_skipped.assign(groups.size(), 0);
      group_retired.assign(groups.size(), 0);
      live_at_pack = live;
      ++repacks;
    }
  }
  fold_groups();

  util::MetricsRegistry& reg = util::metrics();
  reg.timer("fault_sim.run").add_seconds(run_wall.seconds());
  reg.counter("fault_sim.runs").add(1);
  reg.counter("fault_sim.groups").add(groups.size());
  reg.counter("fault_sim.faults_simulated").add(ids.size());
  reg.counter("fault_sim.faults_detected").add(result.detected_count);
  reg.counter("fault_sim.kernel_cycles").add(kernel_cycles);
  reg.counter("fault_sim.fault_cycles").add(fault_cycles);
  reg.counter("fault_sim.gates_evaluated").add(gates_evaluated);
  reg.counter("fault_sim.cycles_skipped").add(cycles_skipped);
  reg.counter("fault_sim.groups_retired_early").add(retired);
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
  const auto ffs = nl_->flip_flops();
  util::TraceSpan span("fault_sim.observe_final",
                       util::TraceArg("faults", ids.size()),
                       util::TraceArg("cycles", seq.length()));

  std::vector<Word3> pi_words(seq.length() * pis.size());
  for (std::size_t u = 0; u < seq.length(); ++u)
    for (std::size_t i = 0; i < pis.size(); ++i)
      pi_words[u * pis.size() + i] = broadcast(seq.at(u, i));

  const auto simulate_group = [&](std::size_t gi, GroupScratch& s) {
    Group& group = groups[gi];
    std::uint64_t* vals = s.vals.data();
    s.inj_index.attach(group.gate);
    s.reset_state();

    for (std::size_t u = 0; u < seq.length(); ++u) {
      for (std::size_t i = 0; i < pis.size(); ++i)
        splat(vals + pis[i] * kStride, pi_words[u * pis.size() + i]);
      for (std::size_t i = 0; i < ffs.size(); ++i)
        std::memcpy(vals + ffs[i] * kStride, s.state.data() + i * kStride,
                    kStride * sizeof(std::uint64_t));
      for (const sim::Injection& inj : group.source)
        force_slot(vals + inj.node * kStride, inj.word, inj.mask, inj.sa1);

      sim::eval_core<kWords>(gates_, flat_fanin_.data(), s.inj_index,
                             vals, s.fanin_buf.data());

      if (u + 1 == seq.length()) {
        for (unsigned lane = 0; lane < group.count; ++lane)
          for (std::size_t n = 0; n < nodes.size(); ++n)
            result[group.result_index[lane]][n] =
                lane_val(vals + nodes[n] * kStride, lane);
        break;
      }

      for (std::size_t i = 0; i < ffs.size(); ++i)
        std::memcpy(s.next_state.data() + i * kStride,
                    vals + nl_->node(ffs[i]).fanin[0] * kStride,
                    kStride * sizeof(std::uint64_t));
      for (const sim::Injection& inj : group.latch)
        force_slot(s.next_state.data() + ff_index_[inj.node] * kStride,
                   inj.word, inj.mask, inj.sa1);
      s.state.swap(s.next_state);
    }

    s.inj_index.detach();
  };

  const unsigned n_threads = static_cast<unsigned>(std::min<std::size_t>(
      util::WorkerPool::resolve(threads), groups.size()));
  if (n_threads <= 1) {
    GroupScratch scratch(nl_->node_count(), ffs.size(), max_fanin_);
    for (std::size_t gi = 0; gi < groups.size(); ++gi)
      simulate_group(gi, scratch);
  } else {
    util::WorkerPool& wp = pool(n_threads);
    std::vector<GroupScratch> scratch;
    scratch.reserve(wp.size());
    for (unsigned r = 0; r < wp.size(); ++r)
      scratch.emplace_back(nl_->node_count(), ffs.size(), max_fanin_);
    wp.parallel_for(
        groups.size(),
        [&](std::size_t gi, unsigned rank) { simulate_group(gi, scratch[rank]); });
  }
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
  const auto ffs = nl_->flip_flops();

  // Per-group persistent faulty state: time is the outer loop here because
  // the good machine's full value vector is needed each cycle.
  std::vector<std::vector<std::uint64_t>> group_state(
      groups.size(),
      std::vector<std::uint64_t>(ffs.size() * kStride, ~std::uint64_t{0}));

  // Per-fault bitset of already-reported lines, one word-aligned stride per
  // fault so concurrent groups never share a word (O(faults x nodes) *bits*,
  // not bytes).
  const std::size_t words_per_fault = (node_count + 63) / 64;
  std::vector<std::uint64_t> seen(ids.size() * words_per_fault, 0);

  // The time loop is chunked: the good machine advances one block at a time
  // (recording its full value vector per cycle), then every group catches up
  // over the block in parallel. Blocks amortize the per-dispatch pool cost
  // while keeping the good-value buffer small (kBlock x node_count words).
  constexpr std::size_t kBlock = 32;
  std::vector<Word3> good_block(std::min(kBlock, trace.length) * node_count);

  sim::GoodSimulator good(*nl_);
  std::vector<Val3> row(pis.size());

  const unsigned n_threads = static_cast<unsigned>(std::min<std::size_t>(
      util::WorkerPool::resolve(threads), groups.size()));
  util::WorkerPool* wp = n_threads > 1 ? &pool(n_threads) : nullptr;
  const unsigned scratch_count = wp ? wp->size() : 1u;
  std::vector<GroupScratch> scratch;
  scratch.reserve(scratch_count);
  for (unsigned r = 0; r < scratch_count; ++r)
    scratch.emplace_back(node_count, ffs.size(), max_fanin_);

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

    const auto simulate_group = [&](std::size_t gi, GroupScratch& s) {
      Group& group = groups[gi];
      std::vector<std::uint64_t>& state = group_state[gi];
      std::uint64_t* vals = s.vals.data();
      s.inj_index.attach(group.gate);

      for (std::size_t b = 0; b < block_len; ++b) {
        const std::size_t u = u0 + b;
        for (std::size_t i = 0; i < pis.size(); ++i)
          splat(vals + pis[i] * kStride, trace.pi_words[u * pis.size() + i]);
        for (std::size_t i = 0; i < ffs.size(); ++i)
          std::memcpy(vals + ffs[i] * kStride, state.data() + i * kStride,
                      kStride * sizeof(std::uint64_t));
        for (const sim::Injection& inj : group.source)
          force_slot(vals + inj.node * kStride, inj.word, inj.mask, inj.sa1);

        sim::eval_core<kWords>(gates_, flat_fanin_.data(), s.inj_index,
                               vals, s.fanin_buf.data());

        // Record every line where some lane's faulty value provably differs
        // from the good value.
        const Word3* good_vals = good_block.data() + b * node_count;
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
              const std::uint64_t line_bit = std::uint64_t{1} << (node % 64);
              if ((word & line_bit) == 0) {
                word |= line_bit;
                result[ri].push_back(node);
              }
            }
          }
        }

        for (std::size_t i = 0; i < ffs.size(); ++i)
          std::memcpy(s.next_state.data() + i * kStride,
                      vals + nl_->node(ffs[i]).fanin[0] * kStride,
                      kStride * sizeof(std::uint64_t));
        for (const sim::Injection& inj : group.latch)
          force_slot(s.next_state.data() + ff_index_[inj.node] * kStride,
                   inj.word, inj.mask, inj.sa1);
        state.swap(s.next_state);
      }

      s.inj_index.detach();
    };

    if (wp == nullptr) {
      for (std::size_t gi = 0; gi < groups.size(); ++gi)
        simulate_group(gi, scratch[0]);
    } else {
      wp->parallel_for(groups.size(), [&](std::size_t gi, unsigned rank) {
        simulate_group(gi, scratch[rank]);
      });
    }
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
