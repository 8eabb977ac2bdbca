// Delay-fault cross-evaluation (the Section-1 lineage of [11]/[15]): how
// well do the stuck-at-derived weighted sequences detect *transition*
// faults, compared with (a) a pure-random sequence of the same total
// length and (b) the classic alternating weights w01/w10 (the subsequences
// "01"/"10") applied to every input?
//
// Measured shape (see EXPERIMENTS.md): the stuck-at-derived sessions trail
// a plain random sequence slightly — they are optimized to *reproduce* a
// stuck-at test sequence, which fixes many inputs and therefore creates
// fewer launch edges — while the all-alternating w01/w10 baseline is far
// worse (toggling everything destroys state control). The takeaway matches
// the paper's closing remark: delay-fault BIST needs its own weight
// selection, with transition-aware subsequences.
#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_common.h"
#include "core/assignment.h"
#include "fault/fault_list.h"
#include "fault/fault_sim.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"

using namespace wbist;

namespace {

std::size_t count_detected(const fault::FaultSimulator& sim,
                           std::vector<bool>& covered,
                           const sim::TestSequence& seq) {
  const auto ids = sim.fault_set().all_ids();
  const auto det = sim.run(seq, ids);
  for (std::size_t k = 0; k < ids.size(); ++k)
    if (det.detected(k)) covered[k] = true;
  std::size_t n = 0;
  for (const bool c : covered) n += c ? 1 : 0;
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> names;
  for (int a = 1; a < argc; ++a) names.emplace_back(argv[a]);
  if (names.empty()) names = {"s27", "s298", "s344", "s386", "s526"};

  std::printf("== Transition-fault coverage of the weighted sequences ==\n\n");

  util::Table table;
  table.header({"circuit", "trans faults", "weighted", "random", "w01/w10",
                "sessions", "cycles/seq"});

  for (const std::string& name : names) {
    const bench::CircuitRun run = bench::run_circuit(name);
    const auto tset = fault::FaultSet::transitions(run.netlist);
    const fault::FaultSimulator tsim(run.netlist, tset);
    const std::size_t lg =
        std::min<std::size_t>(run.flow.procedure.sequence_length, 500);

    // (1) the weighted sessions from the stuck-at flow.
    std::vector<bool> covered_w(tset.size(), false);
    std::size_t weighted = 0;
    for (const core::WeightAssignment& w : run.flow.pruned.omega)
      weighted = count_detected(tsim, covered_w, w.expand(lg));

    // (2) pure random, same total length.
    util::Rng rng(name.size() * 1234567ULL + 1);
    sim::TestSequence random_seq(run.flow.pruned.omega.size() * lg,
                                 run.netlist.primary_inputs().size());
    for (std::size_t u = 0; u < random_seq.length(); ++u)
      for (std::size_t i = 0; i < random_seq.width(); ++i)
        random_seq.set(u, i,
                       rng.next_bit() ? sim::Val3::kOne : sim::Val3::kZero);
    std::vector<bool> covered_r(tset.size(), false);
    const std::size_t random_cov =
        count_detected(tsim, covered_r, random_seq);

    // (3) the classic alternating weights: all inputs "01", all "10", and
    // the two phase mixes, one session each.
    std::vector<bool> covered_a(tset.size(), false);
    std::size_t alternating = 0;
    for (int variant = 0; variant < 4; ++variant) {
      core::WeightAssignment w;
      for (std::size_t i = 0; i < run.netlist.primary_inputs().size(); ++i) {
        const bool phase = variant < 2 ? variant == 1 : (i % 2 == 0);
        w.per_input.push_back(core::Subsequence::parse(
            (variant == 3) != phase ? "01" : "10"));
      }
      alternating = count_detected(tsim, covered_a, w.expand(lg));
    }

    table.row({name, std::to_string(tset.size()),
               util::fixed(100.0 * static_cast<double>(weighted) /
                               static_cast<double>(tset.size()),
                           1),
               util::fixed(100.0 * static_cast<double>(random_cov) /
                               static_cast<double>(tset.size()),
                           1),
               util::fixed(100.0 * static_cast<double>(alternating) /
                               static_cast<double>(tset.size()),
                           1),
               std::to_string(run.flow.pruned.omega.size()),
               std::to_string(lg)});
    std::printf("  %-8s done\n", name.c_str());
    std::fflush(stdout);
  }

  std::printf("\n");
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\ncolumns are %% of all transition faults detected. 'weighted' uses\n"
      "the stuck-at flow's sessions; 'random' is one pure-random sequence\n"
      "of the same total length; 'w01/w10' is the 5-weight-style\n"
      "alternating baseline of [11] (every input toggling each cycle).\n"
      "shape: stuck-at-derived weights trail plain random slightly (fixed\n"
      "weights suppress launch edges) and all-alternating inputs are far\n"
      "worse; transition-targeted weight selection is genuine future work,\n"
      "as the paper's closing section says.\n");
  return 0;
}
