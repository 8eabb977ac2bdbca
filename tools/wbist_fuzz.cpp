// wbist_fuzz — seed-driven differential fuzzing of the simulation stack.
//
//   wbist_fuzz <campaign|all> [--seed N] [--runs N] [--artifact-dir DIR]
//                             [--max-failures N] [--verbose]
//
// Campaigns (see DESIGN.md §8, "Differential oracles & fuzzing"):
//   sim-diff   random synthetic circuits x random 0/1/X sequences: the
//              word-parallel FaultSimulator (run / run(GoodTrace) /
//              observe_final / observable_lines, serial and threaded, on the
//              fault list alone and repeated across several fault groups)
//              must agree exactly with the naive scalar RefSimulator oracle.
//   parser     mutated `.bench` text must parse-or-throw (never crash), and
//              parsed text must reach a write/read fixpoint.
//   pipeline   the full flow on random small circuits must reach 100% fault
//              efficiency w.r.t. T, reverse-order pruning must not lose
//              coverage, and the emitted Figure-1 generator netlist must be
//              cycle-equivalent to the software expansion of Ω.
//
// Every failing case dumps replayable artifacts; re-run a single case with
// `wbist_fuzz <campaign> --seed <case_seed> --runs 1`.
// Exit codes: 0 all campaigns clean, 1 failures found, 2 usage error.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_set>
#include <vector>

#include "circuits/synth_gen.h"
#include "core/flow.h"
#include "core/generator_hw.h"
#include "fault/fault_list.h"
#include "fault/fault_sim.h"
#include "netlist/bench_io.h"
#include "sim/good_sim.h"
#include "sim/kernel.h"
#include "sim/ref_sim.h"
#include "sim/sequence_io.h"
#include "util/fuzz.h"
#include "util/timer.h"

namespace {

using namespace wbist;
using netlist::NodeId;
using sim::Val3;
using util::FuzzCase;
using util::Rng;

// ---------------------------------------------------------------------------
// Shared generators
// ---------------------------------------------------------------------------

circuits::SynthProfile random_profile(Rng& rng, std::size_t max_extra_gates) {
  circuits::SynthProfile p;
  p.name = "fuzz";
  p.n_pi = 1 + rng.below(6);
  p.n_po = 1 + rng.below(4);
  p.n_ff = rng.below(6);
  p.n_gates = p.n_ff + 3 + rng.below(max_extra_gates);
  p.seed = rng.next_u64();
  return p;
}

/// Random three-valued sequence; roughly one case in three is fully binary
/// (the regime the procedure runs in), the rest carry 10-40% X values.
sim::TestSequence random_sequence(Rng& rng, std::size_t width,
                                  std::size_t length) {
  const std::uint64_t x_pct = rng.below(3) == 0 ? 0 : 10 + rng.below(31);
  sim::TestSequence seq(length, width);
  for (std::size_t u = 0; u < length; ++u)
    for (std::size_t i = 0; i < width; ++i) {
      if (rng.below(100) < x_pct)
        seq.set(u, i, Val3::kX);
      else
        seq.set(u, i, rng.next_bit() ? Val3::kOne : Val3::kZero);
    }
  return seq;
}

std::string nodes_to_string(const netlist::Netlist& nl,
                            std::span<const NodeId> nodes) {
  std::string s;
  for (const NodeId n : nodes) {
    if (!s.empty()) s += ", ";
    s += nl.node(n).name;
  }
  return s.empty() ? "(none)" : s;
}

// ---------------------------------------------------------------------------
// Campaign: sim-diff
// ---------------------------------------------------------------------------

void check_detection(FuzzCase& fc, const netlist::Netlist& nl,
                     const fault::FaultSet& faults,
                     std::span<const fault::FaultId> ids,
                     std::span<const std::int32_t> want,
                     const fault::DetectionResult& got,
                     const std::string& label) {
  std::size_t want_detected = 0;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    if (want[k] != -1) ++want_detected;
    if (got.detection_time[k] != want[k])
      fc.fail(label + ": fault " + fault_name(nl, faults[ids[k]]) +
              " detection time " + std::to_string(got.detection_time[k]) +
              ", oracle says " + std::to_string(want[k]));
  }
  if (got.detected_count != want_detected)
    fc.fail(label + ": detected_count " + std::to_string(got.detected_count) +
            ", oracle says " + std::to_string(want_detected));
}

void campaign_sim_diff(FuzzCase& fc) {
  Rng& rng = fc.rng();
  const circuits::SynthProfile profile = random_profile(rng, 36);
  const netlist::Netlist nl = circuits::generate_circuit(profile);
  fc.stash("circuit.bench", netlist::write_bench(nl));

  // A stuck-at universe, in half the cases followed by every transition
  // fault, so groups mix both fault models.
  const bool collapsed = rng.next_bit();
  const bool transitions = rng.next_bit();
  const fault::FaultSet stuck = collapsed ? fault::FaultSet::collapsed(nl)
                                          : fault::FaultSet::uncollapsed(nl);
  std::vector<fault::Fault> universe(stuck.faults().begin(),
                                     stuck.faults().end());
  if (transitions) {
    const fault::FaultSet delay = fault::FaultSet::transitions(nl);
    universe.insert(universe.end(), delay.faults().begin(),
                    delay.faults().end());
  }
  const fault::FaultSet faults = fault::FaultSet::from_faults(universe);
  const std::vector<fault::FaultId> ids = faults.all_ids();

  // Mostly short sequences; roughly one case in six runs long enough to
  // cross the fault simulator's segment boundary (64 cycles), so mid-run
  // repacking of surviving fault groups is exercised against the oracle.
  const std::size_t length =
      rng.below(6) == 0 ? 65 + rng.below(96) : 1 + rng.below(24);
  const sim::TestSequence seq =
      random_sequence(rng, nl.primary_inputs().size(), length);
  fc.stash("sequence.seq", sim::write_sequence(seq, "sim-diff input"));

  // Randomize the four performance levers: every combination must stay
  // bit-identical to the scalar oracle (the all-on default is one of the
  // 16 combinations and other suites pin it explicitly).
  const bool lever_cones = rng.next_bit();
  const bool lever_gating = rng.next_bit();
  const bool lever_dropping = rng.next_bit();
  const bool lever_packing = rng.next_bit();

  // Occasionally observe extra lines and/or truncate the simulated window.
  std::vector<NodeId> obs;
  for (std::size_t k = rng.below(3); k > 0; --k)
    obs.push_back(static_cast<NodeId>(rng.below(nl.node_count())));
  std::sort(obs.begin(), obs.end());
  obs.erase(std::unique(obs.begin(), obs.end()), obs.end());
  const std::size_t max_time =
      rng.below(4) == 0 ? 1 + rng.below(length) : length;
  fc.stash("setup.txt",
           "faults: " + std::to_string(ids.size()) +
               (collapsed ? " (collapsed" : " (uncollapsed") +
               (transitions ? " stuck-at + transition)\n" : " stuck-at)\n") +
               "observation points: " + nodes_to_string(nl, obs) + "\n" +
               "max_time_units: " + std::to_string(max_time) + "\n" +
               "levers: cones=" + std::to_string(lever_cones) +
               " gating=" + std::to_string(lever_gating) +
               " dropping=" + std::to_string(lever_dropping) +
               " packing=" + std::to_string(lever_packing) + "\n");

  // Oracle: one scalar single-fault simulation per fault over the effective
  // window.
  sim::TestSequence eff = seq;
  eff.truncate(max_time);
  const sim::RefSimulator ref(nl);
  const sim::RefValueMatrix good = ref.run(eff);
  std::vector<NodeId> observed(nl.primary_outputs().begin(),
                               nl.primary_outputs().end());
  observed.insert(observed.end(), obs.begin(), obs.end());

  std::vector<NodeId> probes;
  for (std::size_t k = 1 + rng.below(5); k > 0; --k)
    probes.push_back(static_cast<NodeId>(rng.below(nl.node_count())));

  std::vector<std::int32_t> want_det(ids.size());
  std::vector<std::vector<NodeId>> want_lines(ids.size());
  std::vector<std::vector<Val3>> want_final(ids.size());
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const fault::Fault& f = faults[ids[k]];
    const sim::RefValueMatrix faulty = ref.run(eff, fault::ref_fault(f));
    want_det[k] = sim::ref_detection_time(good, faulty, observed);
    want_lines[k] = sim::ref_observable_lines(good, faulty);
    want_final[k].reserve(probes.size());
    for (const NodeId n : probes) want_final[k].push_back(faulty.back()[n]);
  }

  const unsigned n_threads = 2 + static_cast<unsigned>(rng.below(6));

  // At the kernel's 256-lane block every fuzz circuit's fault list fits in
  // one group. To keep the cross-group and threads-over-groups paths under
  // the oracle, the list is also simulated repeated until it spans at least
  // three groups; every copy must match the oracle.
  constexpr std::size_t kGroupLanes = 64 * sim::kFaultBlockWords;
  const std::size_t copies = 2 * kGroupLanes / ids.size() + 1;
  std::vector<fault::FaultId> multi_ids;
  std::vector<std::int32_t> multi_want_det;
  for (std::size_t c = 0; c < copies; ++c) {
    multi_ids.insert(multi_ids.end(), ids.begin(), ids.end());
    multi_want_det.insert(multi_want_det.end(), want_det.begin(),
                          want_det.end());
  }
  const std::string multi = "[x" + std::to_string(copies) + "]";

  // Serial, threaded and trace-based runs, plus line/final observation.
  const fault::FaultSimulator fsim(nl, faults);
  fault::FaultSimOptions opts;
  opts.observation_points = obs;
  opts.max_time_units = max_time;
  opts.cone_restriction = lever_cones;
  opts.activity_gating = lever_gating;
  opts.fault_dropping = lever_dropping;
  opts.locality_packing = lever_packing;
  opts.threads = 1;
  check_detection(fc, nl, faults, ids, want_det, fsim.run(seq, ids, opts),
                  "run[threads=1]");
  check_detection(fc, nl, faults, multi_ids, multi_want_det,
                  fsim.run(seq, multi_ids, opts), multi + "run[threads=1]");
  opts.threads = n_threads;
  check_detection(fc, nl, faults, multi_ids, multi_want_det,
                  fsim.run(seq, multi_ids, opts),
                  multi + "run[threads=" + std::to_string(n_threads) + "]");
  const fault::GoodTrace trace = fsim.make_trace(seq, obs, max_time);
  check_detection(fc, nl, faults, multi_ids, multi_want_det,
                  fsim.run(trace, multi_ids, opts), multi + "run[GoodTrace]");

  // observable_lines and observe_final only see the full window; skip them
  // when this case exercises max_time_units truncation.
  if (max_time != length) return;

  // Result k belongs to fault ids[k % ids.size()] (the repeated list).
  const auto check_lines = [&](const std::vector<std::vector<NodeId>>& got,
                               const std::string& label) {
    for (std::size_t k = 0; k < got.size(); ++k) {
      const std::size_t i = k % ids.size();
      if (got[k] != want_lines[i])
        fc.fail(label + ": fault " + fault_name(nl, faults[ids[i]]) +
                " observable lines {" + nodes_to_string(nl, got[k]) +
                "}, oracle says {" + nodes_to_string(nl, want_lines[i]) + "}");
    }
  };
  check_lines(fsim.observable_lines(seq, ids, 1), "observable_lines[1]");
  check_lines(fsim.observable_lines(fsim.make_trace(seq), multi_ids, n_threads),
              multi + "observable_lines[trace," + std::to_string(n_threads) +
                  "]");

  const auto check_final = [&](const std::vector<std::vector<Val3>>& got,
                               const std::string& label) {
    for (std::size_t k = 0; k < got.size(); ++k) {
      const std::size_t i = k % ids.size();
      for (std::size_t n = 0; n < probes.size(); ++n)
        if (got[k][n] != want_final[i][n])
          fc.fail(label + ": fault " + fault_name(nl, faults[ids[i]]) +
                  " final value at " + nl.node(probes[n]).name + " is '" +
                  sim::to_char(got[k][n]) + "', oracle says '" +
                  sim::to_char(want_final[i][n]) + "'");
    }
  };
  check_final(fsim.observe_final(seq, ids, probes, 1), "observe_final[1]");
  check_final(fsim.observe_final(seq, multi_ids, probes, n_threads),
              multi + "observe_final[" + std::to_string(n_threads) + "]");
}

// ---------------------------------------------------------------------------
// Campaign: parser
// ---------------------------------------------------------------------------

void mutate_text(Rng& rng, std::string& text) {
  static constexpr char kAlphabet[] =
      "()=,# \t\nabcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
      "0123456789_INPUTOUTPUTDFFANDNORXBUF";
  const auto lines = [&text]() {
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    std::size_t start = 0;
    while (start <= text.size()) {
      std::size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      spans.emplace_back(start, end - start);
      start = end + 1;
    }
    return spans;
  };
  switch (rng.below(8)) {
    case 0:  // delete one character
      if (!text.empty()) text.erase(rng.below(text.size()), 1);
      break;
    case 1:  // insert one character
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(
                                     rng.below(text.size() + 1)),
                  kAlphabet[rng.below(sizeof(kAlphabet) - 1)]);
      break;
    case 2:  // overwrite one character
      if (!text.empty())
        text[rng.below(text.size())] = kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
      break;
    case 3: {  // duplicate a line (duplicate definitions / declarations)
      const auto spans = lines();
      const auto [start, len] = spans[rng.below(spans.size())];
      text += "\n" + text.substr(start, len);
      break;
    }
    case 4: {  // delete a line (undefined signals)
      const auto spans = lines();
      const auto [start, len] = spans[rng.below(spans.size())];
      text.erase(start, std::min(len + 1, text.size() - start));
      break;
    }
    case 5: {  // swap two lines (forward references, reordering)
      const auto spans = lines();
      const auto a = spans[rng.below(spans.size())];
      const auto b = spans[rng.below(spans.size())];
      const std::string sa = text.substr(a.first, a.second);
      const std::string sb = text.substr(b.first, b.second);
      if (a.first < b.first) {
        text.replace(b.first, b.second, sa);
        text.replace(a.first, a.second, sb);
      } else {
        text.replace(a.first, a.second, sb);
        text.replace(b.first, b.second, sa);
      }
      break;
    }
    case 6:  // truncate (unterminated constructs)
      text.erase(rng.below(text.size() + 1));
      break;
    case 7: {  // rewrite a fanin reference into a self-reference
      const std::size_t open = text.find('(', rng.below(text.size() + 1));
      if (open != std::string::npos && open > 0) {
        std::size_t eq = text.rfind('=', open);
        const std::size_t nl_pos = text.rfind('\n', open);
        if (eq != std::string::npos &&
            (nl_pos == std::string::npos || eq > nl_pos)) {
          const std::size_t name_start =
              nl_pos == std::string::npos ? 0 : nl_pos + 1;
          const std::string name =
              text.substr(name_start, eq - name_start);
          const std::size_t close = text.find(')', open);
          if (close != std::string::npos)
            text.replace(open + 1, close - open - 1, name);
        }
      }
      break;
    }
  }
}

void campaign_parser(FuzzCase& fc) {
  Rng& rng = fc.rng();
  circuits::SynthProfile p = random_profile(rng, 20);
  std::string text = netlist::write_bench(circuits::generate_circuit(p));
  if (rng.below(8) == 0) {
    // Splice a second circuit in: guaranteed duplicate definitions.
    p.seed = rng.next_u64();
    text += netlist::write_bench(circuits::generate_circuit(p));
  }
  const std::size_t n_mutations = rng.below(6);  // 0 = clean round trip
  for (std::size_t k = 0; k < n_mutations; ++k) mutate_text(rng, text);
  fc.stash("input.bench", text);

  netlist::Netlist nl;
  try {
    nl = netlist::read_bench(text, "fuzz");
  } catch (const std::exception&) {
    return;  // parse-or-throw: a clean error is a pass; a crash kills us
  }

  // Print-parse fixpoint: the printer's output must re-parse, and printing
  // the re-parse must reproduce it byte for byte.
  const std::string once = netlist::write_bench(nl);
  fc.stash("printed.bench", once);
  netlist::Netlist nl2;
  try {
    nl2 = netlist::read_bench(once, "fuzz");
  } catch (const std::exception& e) {
    fc.fail(std::string("printer output failed to re-parse: ") + e.what());
  }
  const std::string twice = netlist::write_bench(nl2);
  if (once != twice) {
    fc.stash("reprinted.bench", twice);
    fc.fail("write_bench(read_bench(x)) is not a fixpoint");
  }
  if (nl2.node_count() != nl.node_count() ||
      nl2.primary_inputs().size() != nl.primary_inputs().size() ||
      nl2.primary_outputs().size() != nl.primary_outputs().size() ||
      nl2.flip_flops().size() != nl.flip_flops().size() ||
      nl2.eval_order().size() != nl.eval_order().size())
    fc.fail("round-tripped netlist differs structurally from the original");
}

// ---------------------------------------------------------------------------
// Campaign: pipeline
// ---------------------------------------------------------------------------

void campaign_pipeline(FuzzCase& fc) {
  Rng& rng = fc.rng();
  circuits::SynthProfile p;
  p.name = "fuzz";
  p.n_pi = 2 + rng.below(4);
  p.n_po = 1 + rng.below(3);
  p.n_ff = 1 + rng.below(4);
  p.n_gates = p.n_ff + 4 + rng.below(16);
  p.seed = rng.next_u64();
  const netlist::Netlist nl = circuits::generate_circuit(p);
  fc.stash("circuit.bench", netlist::write_bench(nl));

  const fault::FaultSet faults = fault::FaultSet::collapsed(nl);
  const fault::FaultSimulator fsim(nl, faults);

  core::FlowConfig cfg;
  cfg.tgen.max_length = 192;
  cfg.tgen.chunk = 32;
  cfg.tgen.max_stalls = 8;
  cfg.tgen.seed = rng.next_u64();
  cfg.compact = rng.next_bit();
  cfg.compaction.max_simulations = 200;
  cfg.procedure.sequence_length = 48;
  static constexpr std::size_t kSampleSizes[] = {0, 2, 8, 32};
  cfg.procedure.sample_size = kSampleSizes[rng.below(4)];
  cfg.procedure.seed = rng.next_u64();
  cfg.procedure.threads = rng.next_bit() ? 4 : 1;

  const core::FlowResult flow = core::run_flow(fsim, "fuzz", cfg);
  fc.stash("sequence.seq",
           sim::write_sequence(flow.sequence, "deterministic T"));

  // 1. The procedure must reach 100% fault efficiency w.r.t. T. T is fully
  // specified (tgen emits binary vectors), so no target may be abandoned.
  if (flow.procedure.abandoned_count != 0)
    fc.fail("procedure abandoned " +
            std::to_string(flow.procedure.abandoned_count) + " targets");
  if (flow.procedure.detected_count != flow.procedure.target_count)
    fc.fail("fault efficiency " +
            std::to_string(flow.procedure.detected_count) + "/" +
            std::to_string(flow.procedure.target_count) + " < 100%");

  // 2. Reverse-order pruning must preserve coverage of every target.
  std::unordered_set<fault::FaultId> kept(flow.pruned.detected.begin(),
                                          flow.pruned.detected.end());
  for (fault::FaultId f = 0; f < flow.detection_time.size(); ++f)
    if (flow.detection_time[f] != fault::DetectionResult::kUndetected &&
        kept.count(f) == 0)
      fc.fail("reverse_order_prune lost coverage of fault " +
              fault_name(nl, faults[f]));

  // 3. The emitted Figure-1 generator netlist must stream exactly the
  // software expansion of every surviving assignment, session by session.
  if (flow.pruned.omega.empty()) return;
  const core::GeneratorHardware hw =
      core::build_generator(flow.pruned.omega, flow.procedure.sequence_length);
  fc.stash("generator.bench", netlist::write_bench(hw.netlist));
  sim::GoodSimulator gen_sim(hw.netlist);
  gen_sim.step(std::vector<Val3>{Val3::kOne});  // reset pulse
  for (std::size_t j = 0; j < flow.pruned.omega.size(); ++j) {
    const sim::TestSequence expect =
        flow.pruned.omega[j].expand(hw.session_length);
    for (std::size_t u = 0; u < hw.session_length; ++u) {
      gen_sim.step(std::vector<Val3>{Val3::kZero});
      const std::vector<Val3> out = gen_sim.outputs();
      for (std::size_t i = 0; i < out.size(); ++i)
        if (out[i] != expect.at(u, i))
          fc.fail("generator output TG" + std::to_string(i) + " session " +
                  std::to_string(j) + " cycle " + std::to_string(u) +
                  " is '" + sim::to_char(out[i]) + "', expansion says '" +
                  sim::to_char(expect.at(u, i)) + "'");
    }
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Campaign {
  const char* name;
  void (*body)(FuzzCase&);
};

constexpr Campaign kCampaigns[] = {
    {"sim-diff", campaign_sim_diff},
    {"parser", campaign_parser},
    {"pipeline", campaign_pipeline},
};

int usage() {
  std::fputs(
      "usage: wbist_fuzz <campaign|all> [options]\n"
      "campaigns: sim-diff | parser | pipeline | all\n"
      "options:\n"
      "  --seed N          campaign seed (default 1)\n"
      "  --runs N          cases per campaign (default 100)\n"
      "  --artifact-dir D  failure dump directory (default fuzz-artifacts)\n"
      "  --max-failures N  stop a campaign after N failures (default 1)\n"
      "  --verbose         per-run progress on stderr\n"
      "replay a failure:  wbist_fuzz <campaign> --seed <case_seed> --runs 1\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string which = argv[1];

  util::FuzzOptions options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--seed") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--runs") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.runs = std::strtoull(v, nullptr, 10);
    } else if (arg == "--artifact-dir") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.artifact_dir = v;
    } else if (arg == "--max-failures") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.max_failures = std::strtoull(v, nullptr, 10);
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else {
      return usage();
    }
  }
  if (options.max_failures == 0) options.max_failures = 1;

  std::vector<Campaign> selected;
  for (const Campaign& c : kCampaigns)
    if (which == "all" || which == c.name) selected.push_back(c);
  if (selected.empty()) return usage();

  bool ok = true;
  for (const Campaign& c : selected) {
    util::Timer timer;
    const util::FuzzReport report = util::run_campaign(c.name, options,
                                                       c.body);
    std::printf("[%s] %zu runs, %zu failures (%.1fs)\n", c.name,
                report.runs_executed, report.failures.size(),
                timer.seconds());
    ok = ok && report.ok();
  }
  return ok ? 0 : 1;
}
