// Transition (gross-delay) faults are injection data in the one fault
// simulator: FaultSet::transitions() builds the universe and FaultSimulator
// runs it with every lever. These tests pin the one-cycle-late semantics on
// hand-built circuits and check every lever combination and thread count
// against the scalar RefSimulator oracle, including a circuit whose fault
// list spans more than one 256-lane group.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "circuits/iscas.h"
#include "circuits/registry.h"
#include "circuits/synth_gen.h"
#include "fault/fault_list.h"
#include "fault/fault_sim.h"
#include "sim/ref_sim.h"
#include "testutil.h"
#include "util/metrics.h"

namespace wbist::fault {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;
using sim::TestSequence;

/// in -> b [PO]: the smallest circuit with a delayable edge on b.
Netlist buffer_circuit() {
  Netlist nl;
  const NodeId in = nl.add_input("in");
  const NodeId b = nl.add_gate(GateType::kBuf, "b", {in});
  nl.mark_output(b);
  nl.finalize();
  return nl;
}

FaultId find_fault(const FaultSet& set, NodeId node, FaultModel model) {
  for (FaultId id = 0; id < set.size(); ++id)
    if (set[id].node == node && set[id].model == model) return id;
  ADD_FAILURE() << "no such transition fault";
  return 0;
}

TEST(TransitionFaults, UniverseSize) {
  const Netlist nl = circuits::s27();
  const FaultSet set = FaultSet::transitions(nl);
  ASSERT_EQ(set.size(), nl.node_count() * 2);
  // Node-major, slow-to-rise before slow-to-fall: fault ids are stable.
  for (FaultId id = 0; id < set.size(); ++id) {
    EXPECT_EQ(set[id].node, id / 2);
    EXPECT_EQ(set[id].pin, kStemPin);
    EXPECT_EQ(set[id].model, id % 2 == 0 ? FaultModel::kSlowToRise
                                         : FaultModel::kSlowToFall);
  }
  EXPECT_EQ(fault_name(nl, set[0]), nl.node(0).name + " STR");
  EXPECT_EQ(fault_name(nl, set[1]), nl.node(0).name + " STF");
}

TEST(TransitionFaults, SlowToRiseDelaysByOneCycle) {
  const Netlist nl = buffer_circuit();
  const FaultSet set = FaultSet::transitions(nl);
  const std::vector<FaultId> str_b{
      find_fault(set, nl.find("b"), FaultModel::kSlowToRise)};
  const FaultSimulator sim(nl, set);
  // Input 0,1: good out = 0,1; faulty out at u=1 is AND(1, prev=0) = 0.
  EXPECT_EQ(sim.run(TestSequence::from_rows({"0", "1"}), str_b)
                .detection_time[0],
            1);
  // Input held 1,1: no transition after the X start -> undetected
  // (first cycle is AND(1, X) = X: pessimistic, not a definite diff).
  EXPECT_FALSE(
      sim.run(TestSequence::from_rows({"1", "1"}), str_b).detected(0));
}

TEST(TransitionFaults, SlowToFallDelaysByOneCycle) {
  const Netlist nl = buffer_circuit();
  const FaultSet set = FaultSet::transitions(nl);
  const std::vector<FaultId> stf_b{
      find_fault(set, nl.find("b"), FaultModel::kSlowToFall)};
  const FaultSimulator sim(nl, set);
  // 1,0: faulty holds 1 for the falling edge.
  EXPECT_EQ(sim.run(TestSequence::from_rows({"1", "0"}), stf_b)
                .detection_time[0],
            1);
  // 0,0: nothing to delay.
  EXPECT_FALSE(
      sim.run(TestSequence::from_rows({"0", "0"}), stf_b).detected(0));
}

TEST(TransitionFaults, RecoveryAfterOneCycle) {
  // 0,1,1: the line is late at u=1 but correct at u=2 -> detected only at
  // u=1 (the delayed edge), confirming the one-cycle (not gross-stuck)
  // semantics.
  const Netlist nl = buffer_circuit();
  const FaultSet set = FaultSet::transitions(nl);
  const std::vector<FaultId> str_b{
      find_fault(set, nl.find("b"), FaultModel::kSlowToRise)};
  const FaultSimulator sim(nl, set);
  TestSequence seq = TestSequence::from_rows({"0", "1", "1"});
  EXPECT_EQ(sim.run(seq, str_b).detection_time[0], 1);
  // Truncate before the edge: undetected.
  seq.truncate(1);
  EXPECT_FALSE(sim.run(seq, str_b).detected(0));
}

TEST(TransitionFaults, RequiresTwoPatternExcitation) {
  // A stuck-at test set does not necessarily detect transition faults; a
  // constant input sequence detects none (no edges anywhere).
  const Netlist nl = circuits::s27();
  const FaultSet set = FaultSet::transitions(nl);
  const FaultSimulator sim(nl, set);
  const auto det = sim.run_all(TestSequence::from_rows(
      {"0000", "0000", "0000", "0000", "0000", "0000"}));
  EXPECT_EQ(det.detected_count, 0u);
}

TEST(TransitionFaults, PaperSequenceDetectsMany) {
  const Netlist nl = circuits::s27();
  const FaultSet set = FaultSet::transitions(nl);
  const FaultSimulator sim(nl, set);
  const auto det = sim.run_all(circuits::s27_paper_sequence());
  // The s27 stuck-at sequence toggles everything heavily; a healthy share
  // of the 34 transition faults must fall out.
  EXPECT_GT(det.detected_count, set.size() / 3);
  EXPECT_LT(det.detected_count, set.size());  // but not all: edges needed
}

/// Every transition fault of `nl` under every one of the 16 lever
/// combinations, serial and on 3 threads, must match the RefSimulator's
/// detection times; the detecting line must match the plain serial walk.
/// With `lines`, observable_lines and observe_final are checked against the
/// oracle too.
void expect_matches_oracle(const Netlist& nl, const TestSequence& seq,
                           bool lines = false) {
  const FaultSet set = FaultSet::transitions(nl);
  const std::vector<FaultId> ids = set.all_ids();
  const std::vector<NodeId> observed(nl.primary_outputs().begin(),
                                     nl.primary_outputs().end());
  const sim::RefSimulator oracle(nl);
  const sim::RefValueMatrix good = oracle.run(seq);
  std::vector<std::int32_t> want_time;
  std::vector<std::vector<NodeId>> want_lines;
  std::vector<std::vector<sim::Val3>> want_final;
  std::size_t want_count = 0;
  for (const FaultId id : ids) {
    const sim::RefValueMatrix faulty = oracle.run(seq, ref_fault(set[id]));
    want_time.push_back(sim::ref_detection_time(good, faulty, observed));
    want_count += want_time.back() != DetectionResult::kUndetected;
    if (lines) {
      want_lines.push_back(sim::ref_observable_lines(good, faulty));
      want_final.push_back(faulty.back());
    }
  }

  const FaultSimulator fsim(nl, set);
  const GoodTrace trace = fsim.make_trace(seq);
  FaultSimOptions plain_opt;
  plain_opt.threads = 1;
  plain_opt.cone_restriction = false;
  plain_opt.activity_gating = false;
  plain_opt.fault_dropping = false;
  plain_opt.locality_packing = false;
  const DetectionResult plain = fsim.run(trace, ids, plain_opt);

  for (unsigned levers = 0; levers < 16; ++levers) {
    for (const unsigned threads : {1u, 3u}) {
      FaultSimOptions opt;
      opt.cone_restriction = (levers & 1) != 0;
      opt.activity_gating = (levers & 2) != 0;
      opt.fault_dropping = (levers & 4) != 0;
      opt.locality_packing = (levers & 8) != 0;
      opt.threads = threads;
      const DetectionResult got = fsim.run(trace, ids, opt);
      const std::string label = "levers=" + std::to_string(levers) +
                                "/threads=" + std::to_string(threads);
      for (FaultId id = 0; id < set.size(); ++id)
        EXPECT_EQ(got.detection_time[id], want_time[id])
            << label << " " << fault_name(nl, set[id]);
      EXPECT_EQ(got.detecting_line, plain.detecting_line) << label;
      EXPECT_EQ(got.detected_count, want_count) << label;
    }
  }

  if (!lines) return;
  std::vector<NodeId> all_nodes(nl.node_count());
  for (NodeId n = 0; n < nl.node_count(); ++n) all_nodes[n] = n;
  for (const unsigned threads : {1u, 3u}) {
    EXPECT_EQ(fsim.observable_lines(seq, ids, threads), want_lines)
        << "threads=" << threads;
    EXPECT_EQ(fsim.observe_final(seq, ids, all_nodes, threads), want_final)
        << "threads=" << threads;
  }
}

struct TransRefCase {
  const char* name;
  std::uint64_t seed;
};

// Without this, gtest prints the case as raw bytes, including the address of
// `name`, and the discovered ctest names change on every build.
void PrintTo(const TransRefCase& c, std::ostream* os) {
  *os << "seed=" << c.seed;
}

class TransitionReference : public testing::TestWithParam<TransRefCase> {};

TEST_P(TransitionReference, MatchesScalarReferenceOnS27) {
  expect_matches_oracle(circuits::s27(),
                        test::random_sequence(20, 4, GetParam().seed),
                        /*lines=*/true);
}

TEST_P(TransitionReference, MatchesScalarReferenceOnSynthetic) {
  circuits::SynthProfile profile;
  profile.name = "trans_synth";
  profile.n_pi = 4;
  profile.n_po = 2;
  profile.n_ff = 3;
  profile.n_gates = 22;
  profile.seed = GetParam().seed;
  expect_matches_oracle(circuits::generate_circuit(profile),
                        test::random_sequence(14, 4, GetParam().seed + 9),
                        /*lines=*/true);
}

TEST_P(TransitionReference, MatchesScalarReferenceOnS298) {
  // 272 transition faults: more than one 256-lane group.
  const Netlist nl = circuits::circuit_by_name("s298");
  expect_matches_oracle(
      nl, test::random_sequence(100, nl.primary_inputs().size(),
                                GetParam().seed));
}

TEST(TransitionFaults, MatchesScalarReferenceOnS344AcrossRepacks) {
  // Random vectors detect most of s344's 368 transition faults early, so
  // the dropping lever repacks survivors at the 64-cycle segment boundary
  // and must carry their memory bits into the new groups. Under these
  // seeds some survivors are detected after a repack, which a lost memory
  // bit (X in its place) would change.
  const Netlist nl = circuits::circuit_by_name("s344");
  util::Counter& repacks = util::metrics().counter("fault_sim.repacks");
  for (const std::uint64_t seed : {1u, 5u, 6u}) {
    const std::uint64_t repacks0 = repacks.value();
    expect_matches_oracle(
        nl, test::random_sequence(150, nl.primary_inputs().size(), seed));
    EXPECT_GT(repacks.value(), repacks0) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, TransitionReference,
    testing::Values(TransRefCase{"a", 31}, TransRefCase{"b", 47},
                    TransRefCase{"c", 59}, TransRefCase{"d", 71}),
    [](const testing::TestParamInfo<TransRefCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace wbist::fault
