#include "fault/fault_sim.h"

#include <gtest/gtest.h>

#include "circuits/iscas.h"
#include "circuits/synth_gen.h"
#include "fault/fault_list.h"
#include "testutil.h"

namespace wbist::fault {
namespace {

using netlist::Netlist;
using netlist::NodeId;
using sim::TestSequence;
using sim::Val3;

TEST(FaultSim, DetectsStuckOutput) {
  const Netlist nl = test::tiny_circuit();
  const FaultSet set = FaultSet::uncollapsed(nl);
  FaultSimulator sim(nl, set);

  // Find "out s-a-0". Driving a stable state makes good out = 1:
  // a=0,b=0 -> ff becomes 0; then XOR(0,0)=0, NOT -> 1.
  FaultId target = set.size();
  for (FaultId id = 0; id < set.size(); ++id)
    if (fault_name(nl, set[id]) == "out s-a-0") target = id;
  ASSERT_LT(target, set.size());

  const TestSequence seq = TestSequence::from_rows({"00", "00", "00"});
  const auto det = sim.run(seq, std::vector<FaultId>{target});
  // Good PO at u=0 is X (ff unknown); from u=1 it is 1, faulty is 0.
  EXPECT_EQ(det.detection_time[0], 1);
}

TEST(FaultSim, UndetectedWhenGoodIsX) {
  const Netlist nl = test::tiny_circuit();
  const FaultSet set = FaultSet::uncollapsed(nl);
  FaultSimulator sim(nl, set);
  // One vector only: the PO is X in the good machine, nothing may be
  // declared detected under the pessimistic criterion.
  const TestSequence seq = TestSequence::from_rows({"11"});
  const auto det = sim.run_all(seq);
  EXPECT_EQ(det.detected_count, 0u);
}

TEST(FaultSim, DetectionTimesAreFirstOccurrence) {
  const Netlist nl = circuits::s27();
  const FaultSet set = FaultSet::collapsed(nl);
  FaultSimulator sim(nl, set);
  const TestSequence T = circuits::s27_paper_sequence();
  const auto det = sim.run_all(T);
  // Re-simulate truncated prefixes: a fault detected at time u must be
  // undetected by the prefix of length u and detected by the prefix u+1.
  for (FaultId id = 0; id < set.size(); ++id) {
    const std::int32_t u = det.detection_time[id];
    if (u < 0) continue;
    TestSequence prefix = T;
    prefix.truncate(static_cast<std::size_t>(u));
    const auto before = sim.run(prefix, std::vector<FaultId>{id});
    EXPECT_EQ(before.detection_time[0], DetectionResult::kUndetected);
    TestSequence upto = T;
    upto.truncate(static_cast<std::size_t>(u) + 1);
    const auto after = sim.run(upto, std::vector<FaultId>{id});
    EXPECT_EQ(after.detection_time[0], u);
  }
}

TEST(FaultSim, SubsetRunMatchesFullRun) {
  const Netlist nl = circuits::s27();
  const FaultSet set = FaultSet::collapsed(nl);
  FaultSimulator sim(nl, set);
  const TestSequence T = circuits::s27_paper_sequence();
  const auto full = sim.run_all(T);
  // Any subset must yield identical per-fault times (groups are
  // independent machines).
  const std::vector<FaultId> subset{3, 7, 11, 30};
  const auto part = sim.run(T, subset);
  for (std::size_t k = 0; k < subset.size(); ++k)
    EXPECT_EQ(part.detection_time[k], full.detection_time[subset[k]]);
}

TEST(FaultSim, MaxTimeUnitsLimitsSimulation) {
  const Netlist nl = circuits::s27();
  const FaultSet set = FaultSet::collapsed(nl);
  FaultSimulator sim(nl, set);
  const TestSequence T = circuits::s27_paper_sequence();
  FaultSimOptions opt;
  opt.max_time_units = 2;
  const auto det = sim.run_all(T, opt);
  for (FaultId id = 0; id < set.size(); ++id)
    if (det.detection_time[id] >= 0) {
      EXPECT_LT(det.detection_time[id], 2);
    }
}

TEST(FaultSim, EmptyInputsAreSafe) {
  const Netlist nl = circuits::s27();
  const FaultSet set = FaultSet::collapsed(nl);
  FaultSimulator sim(nl, set);
  const auto det = sim.run(TestSequence{}, set.all_ids());
  EXPECT_EQ(det.detected_count, 0u);
  const auto det2 =
      sim.run(circuits::s27_paper_sequence(), std::vector<FaultId>{});
  EXPECT_TRUE(det2.detection_time.empty());
}

TEST(FaultSim, WidthMismatchThrows) {
  const Netlist nl = circuits::s27();
  const FaultSet set = FaultSet::collapsed(nl);
  FaultSimulator sim(nl, set);
  EXPECT_THROW(sim.run(TestSequence::from_rows({"01"}), set.all_ids()),
               std::invalid_argument);
}

TEST(FaultSim, MalformedTraceThrowsInsteadOfUB) {
  // A hand-built trace claiming more observation points than it has observed
  // lines must be rejected up front, not used to form an out-of-range
  // iterator during validation.
  const Netlist nl = circuits::s27();
  const FaultSet set = FaultSet::collapsed(nl);
  FaultSimulator sim(nl, set);
  GoodTrace trace = sim.make_trace(circuits::s27_paper_sequence());
  trace.n_observation_points = trace.observed.size() + 7;
  EXPECT_THROW(sim.run(trace, set.all_ids()), std::invalid_argument);
}

TEST(FaultSim, ObservationPointExposesHiddenFault) {
  // Fault on n1 (the DFF's D cone): masked at the PO by vector choice, but
  // directly visible when n1 itself is observed.
  const Netlist nl = test::tiny_circuit();
  const FaultSet set = FaultSet::uncollapsed(nl);
  FaultSimulator sim(nl, set);

  FaultId n1_sa1 = set.size();
  for (FaultId id = 0; id < set.size(); ++id)
    if (fault_name(nl, set[id]) == "n1 s-a-1") n1_sa1 = id;
  ASSERT_LT(n1_sa1, set.size());

  // a=1,b=0 repeatedly: good n1 = 0. Good ff stays 0 after the first latch,
  // faulty ff stays 1, so the fault IS detectable at the PO from u=1. Use a
  // single vector so the PO never sees it, then check the OP does.
  const TestSequence one = TestSequence::from_rows({"10"});
  const auto base = sim.run(one, std::vector<FaultId>{n1_sa1});
  EXPECT_EQ(base.detection_time[0], DetectionResult::kUndetected);

  const std::vector<NodeId> obs{nl.find("n1")};
  FaultSimOptions opt;
  opt.observation_points = obs;
  const auto with_op = sim.run(one, std::vector<FaultId>{n1_sa1}, opt);
  EXPECT_EQ(with_op.detection_time[0], 0);
}

TEST(FaultSim, ObservableLinesContainDetectingPo) {
  const Netlist nl = circuits::s27();
  const FaultSet set = FaultSet::collapsed(nl);
  FaultSimulator sim(nl, set);
  const TestSequence T = circuits::s27_paper_sequence();
  const auto det = sim.run_all(T);
  const auto ids = set.all_ids();
  const auto lines = sim.observable_lines(T, ids);
  const NodeId po = nl.primary_outputs()[0];
  for (FaultId id = 0; id < set.size(); ++id) {
    if (det.detection_time[id] < 0) continue;
    // A fault detected at the PO must list the PO among observable lines.
    EXPECT_TRUE(std::binary_search(lines[id].begin(), lines[id].end(), po))
        << fault_name(nl, set[id]);
  }
}

TEST(FaultSim, ObservableLinesActuallyDetect) {
  // Property: for every reported line, re-running with that line as an
  // observation point detects the fault.
  const Netlist nl = circuits::s27();
  const FaultSet set = FaultSet::collapsed(nl);
  FaultSimulator sim(nl, set);
  const TestSequence T = test::random_sequence(12, 4, 99);
  const auto ids = set.all_ids();
  const auto lines = sim.observable_lines(T, ids);
  for (FaultId id = 0; id < set.size(); ++id) {
    for (const NodeId line : lines[id]) {
      const std::vector<NodeId> obs{line};
      FaultSimOptions opt;
      opt.observation_points = obs;
      const auto det = sim.run(T, std::vector<FaultId>{id}, opt);
      EXPECT_TRUE(det.detected(0))
          << fault_name(nl, set[id]) << " via " << nl.node(line).name;
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-validation against the scalar reference simulator.
// ---------------------------------------------------------------------------

struct RefCase {
  const char* name;
  std::uint64_t seed;
};

// Without this, gtest prints the case as raw bytes, including the address of
// `name`, and the discovered ctest names change on every build.
void PrintTo(const RefCase& c, std::ostream* os) { *os << "seed=" << c.seed; }

class FaultSimReference : public testing::TestWithParam<RefCase> {};

TEST_P(FaultSimReference, MatchesScalarReferenceOnS27) {
  const Netlist nl = circuits::s27();
  const FaultSet set = FaultSet::uncollapsed(nl);
  FaultSimulator sim(nl, set);
  const TestSequence seq = test::random_sequence(24, 4, GetParam().seed);
  const auto det = sim.run(seq, set.all_ids());
  for (FaultId id = 0; id < set.size(); ++id) {
    const auto expected = test::reference_detect(nl, set[id], seq);
    if (expected.has_value())
      EXPECT_EQ(det.detection_time[id],
                static_cast<std::int32_t>(*expected))
          << fault_name(nl, set[id]);
    else
      EXPECT_EQ(det.detection_time[id], DetectionResult::kUndetected)
          << fault_name(nl, set[id]);
  }
}

TEST_P(FaultSimReference, MatchesScalarReferenceOnSynthetic) {
  circuits::SynthProfile profile;
  profile.name = "ref_synth";
  profile.n_pi = 5;
  profile.n_po = 3;
  profile.n_ff = 4;
  profile.n_gates = 30;
  profile.seed = GetParam().seed;
  const Netlist nl = circuits::generate_circuit(profile);
  const FaultSet set = FaultSet::uncollapsed(nl);
  FaultSimulator sim(nl, set);
  const TestSequence seq = test::random_sequence(16, 5, GetParam().seed + 1);
  const auto det = sim.run(seq, set.all_ids());
  for (FaultId id = 0; id < set.size(); ++id) {
    const auto expected = test::reference_detect(nl, set[id], seq);
    const std::int32_t want =
        expected ? static_cast<std::int32_t>(*expected)
                 : DetectionResult::kUndetected;
    EXPECT_EQ(det.detection_time[id], want) << fault_name(nl, set[id]);
  }
}

TEST_P(FaultSimReference, ObservationPointsMatchReference) {
  const Netlist nl = circuits::s27();
  const FaultSet set = FaultSet::uncollapsed(nl);
  FaultSimulator sim(nl, set);
  const TestSequence seq = test::random_sequence(10, 4, GetParam().seed);
  const std::vector<NodeId> obs{nl.find("G11"), nl.find("G8")};
  FaultSimOptions opt;
  opt.observation_points = obs;
  const auto det = sim.run(seq, set.all_ids(), opt);
  for (FaultId id = 0; id < set.size(); ++id) {
    const auto expected = test::reference_detect(nl, set[id], seq, obs);
    const std::int32_t want =
        expected ? static_cast<std::int32_t>(*expected)
                 : DetectionResult::kUndetected;
    EXPECT_EQ(det.detection_time[id], want) << fault_name(nl, set[id]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FaultSimReference,
    testing::Values(RefCase{"s1", 101}, RefCase{"s2", 202},
                    RefCase{"s3", 303}, RefCase{"s4", 404},
                    RefCase{"s5", 505}, RefCase{"s6", 606}),
    [](const testing::TestParamInfo<RefCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace wbist::fault
