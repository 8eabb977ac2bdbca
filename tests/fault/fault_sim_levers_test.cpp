// The four fault-simulation performance levers (cone restriction, activity
// gating, fault dropping with mid-run repacking, locality packing) are pure
// optimizations: each one, alone or combined, and for any thread count, must
// give the detection times of the scalar RefSimulator oracle and the
// detecting lines of the plain serial walk. These tests pin that contract on
// real circuits with sequences long enough to cross the 64-cycle segment
// boundary, so the dropping lever's repack path is exercised, plus the
// trace/option observation-point identity check.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "circuits/iscas.h"
#include "circuits/registry.h"
#include "fault/fault_list.h"
#include "fault/fault_sim.h"
#include "sim/ref_sim.h"
#include "testutil.h"
#include "util/metrics.h"

namespace wbist::fault {
namespace {

using netlist::Netlist;
using netlist::NodeId;
using sim::TestSequence;

struct LeverCase {
  const char* name;
  FaultSimOptions options;  // levers only; threads overwritten per run
};

std::vector<LeverCase> lever_cases() {
  std::vector<LeverCase> cases;
  const auto add = [&](const char* name, bool cones, bool gating, bool drop,
                       bool pack) {
    LeverCase c;
    c.name = name;
    c.options.cone_restriction = cones;
    c.options.activity_gating = gating;
    c.options.fault_dropping = drop;
    c.options.locality_packing = pack;
    cases.push_back(c);
  };
  add("all-off", false, false, false, false);
  add("cones-only", true, false, false, false);
  add("gating-only", false, true, false, false);
  add("dropping-only", false, false, true, false);
  add("packing-only", false, false, false, true);
  add("all-on", true, true, true, true);
  add("all-but-cones", false, true, true, true);
  add("all-but-gating", true, false, true, true);
  add("all-but-dropping", true, true, false, true);
  add("all-but-packing", true, true, true, false);
  return cases;
}

/// Detection times must match the RefSimulator oracle. The detecting line
/// is provenance the oracle does not compute, so it must match the
/// every-lever-off serial run via the same trace.
void expect_levers_bit_identical(const Netlist& nl, const TestSequence& seq,
                                 std::span<const NodeId> obs = {}) {
  const FaultSet faults = FaultSet::collapsed(nl);
  const std::vector<FaultId> ids = faults.all_ids();

  std::vector<NodeId> observed(nl.primary_outputs().begin(),
                               nl.primary_outputs().end());
  observed.insert(observed.end(), obs.begin(), obs.end());
  const sim::RefSimulator oracle(nl);
  const sim::RefValueMatrix good = oracle.run(seq);
  std::vector<std::int32_t> want_time;
  std::size_t want_count = 0;
  for (const FaultId f : ids) {
    const sim::RefValueMatrix faulty = oracle.run(seq, ref_fault(faults[f]));
    want_time.push_back(sim::ref_detection_time(good, faulty, observed));
    if (want_time.back() != DetectionResult::kUndetected) ++want_count;
  }

  FaultSimOptions base;
  base.observation_points = obs;
  base.threads = 1;
  base.cone_restriction = false;
  base.activity_gating = false;
  base.fault_dropping = false;
  base.locality_packing = false;

  const FaultSimulator fsim(nl, faults);
  const GoodTrace trace = fsim.make_trace(seq, obs);
  const DetectionResult plain = fsim.run(trace, ids, base);

  for (const LeverCase& c : lever_cases()) {
    for (const unsigned threads : {1u, 3u}) {
      FaultSimOptions opt = c.options;
      opt.observation_points = obs;
      opt.threads = threads;
      const DetectionResult got = fsim.run(trace, ids, opt);
      const std::string label =
          std::string(c.name) + "/threads=" + std::to_string(threads);
      EXPECT_EQ(got.detection_time, want_time) << label;
      EXPECT_EQ(got.detecting_line, plain.detecting_line) << label;
      EXPECT_EQ(got.detected_count, want_count) << label;
    }
  }
}

TEST(FaultSimLevers, BitIdenticalOnS27PaperSequence) {
  expect_levers_bit_identical(circuits::s27(), circuits::s27_paper_sequence());
}

TEST(FaultSimLevers, BitIdenticalOnS298AcrossSegmentBoundary) {
  // 150 cycles crosses two 64-cycle segment boundaries, so fault dropping
  // repacks survivors mid-run at least once on this circuit.
  const Netlist nl = circuits::circuit_by_name("s298");
  expect_levers_bit_identical(
      nl, test::random_sequence(150, nl.primary_inputs().size(), 11));
}

TEST(FaultSimLevers, BitIdenticalOnS344WithObservationPoints) {
  const Netlist nl = circuits::circuit_by_name("s344");
  const auto ffs = nl.flip_flops();
  const std::vector<NodeId> obs(ffs.begin(), ffs.begin() + 2);
  expect_levers_bit_identical(
      nl, test::random_sequence(96, nl.primary_inputs().size(), 23), obs);
}

TEST(FaultSimLevers, ConeRestrictionReducesGatesEvaluated) {
  // The all-on run must visibly do less work than the plain walk, and on a
  // circuit where random vectors detect most faults within the first
  // segment, the dropping lever must have repacked survivors at least once.
  const Netlist nl = circuits::circuit_by_name("s344");
  const FaultSet faults = FaultSet::collapsed(nl);
  const FaultSimulator fsim(nl, faults);
  const TestSequence seq =
      test::random_sequence(150, nl.primary_inputs().size(), 11);
  const GoodTrace trace = fsim.make_trace(seq);

  util::MetricsRegistry& reg = util::metrics();
  const auto run_with = [&](bool on) {
    FaultSimOptions opt;
    opt.threads = 1;
    opt.cone_restriction = on;
    opt.activity_gating = on;
    opt.fault_dropping = on;
    opt.locality_packing = on;
    const std::uint64_t before =
        reg.counter("fault_sim.gates_evaluated").value();
    (void)fsim.run(trace, faults.all_ids(), opt);
    return reg.counter("fault_sim.gates_evaluated").value() - before;
  };
  const std::uint64_t repacks0 = reg.counter("fault_sim.repacks").value();
  const std::uint64_t gates_off = run_with(false);
  const std::uint64_t gates_on = run_with(true);
  EXPECT_LT(gates_on, gates_off);
  EXPECT_GT(reg.counter("fault_sim.repacks").value(), repacks0);
}

TEST(FaultSimLevers, GatingSkipsCyclesOfNeverActivatedFaults) {
  // Fault a-sa1 under an all-ones sequence is never activated: the faulty
  // machine tracks the good machine exactly, so after the first cycle the
  // gating lever skips every kernel walk.
  const Netlist nl = test::tiny_circuit();
  const FaultSet faults = FaultSet::uncollapsed(nl);
  const NodeId a = nl.find("a");
  std::vector<FaultId> ids;
  for (const FaultId f : faults.all_ids())
    if (faults[f].node == a && faults[f].pin == kStemPin &&
        faults[f].stuck_at_one)
      ids.push_back(f);
  ASSERT_EQ(ids.size(), 1u);

  TestSequence seq(32, nl.primary_inputs().size());
  for (std::size_t u = 0; u < seq.length(); ++u)
    for (std::size_t i = 0; i < seq.width(); ++i)
      seq.set(u, i, sim::Val3::kOne);

  const FaultSimulator fsim(nl, faults);
  util::MetricsRegistry& reg = util::metrics();
  const std::uint64_t skipped0 =
      reg.counter("fault_sim.cycles_skipped").value();
  FaultSimOptions opt;
  opt.threads = 1;
  const DetectionResult det = fsim.run(seq, ids, opt);
  EXPECT_EQ(det.detected_count, 0u);
  EXPECT_GT(reg.counter("fault_sim.cycles_skipped").value(), skipped0);
}

TEST(FaultSimLevers, DroppingRetiresFullyDetectedGroups) {
  // Simulate only the faults the baseline detects within the first cycles
  // of a long sequence: with dropping on, every group's lanes all detect
  // early and the groups retire long before the sequence ends.
  const Netlist nl = circuits::circuit_by_name("s298");
  const FaultSet faults = FaultSet::collapsed(nl);
  const FaultSimulator fsim(nl, faults);
  const TestSequence seq =
      test::random_sequence(120, nl.primary_inputs().size(), 11);
  const GoodTrace trace = fsim.make_trace(seq);

  FaultSimOptions off;
  off.threads = 1;
  off.fault_dropping = false;
  const DetectionResult base = fsim.run(trace, faults.all_ids(), off);
  std::vector<FaultId> early;
  for (FaultId f = 0; f < faults.size(); ++f)
    if (base.detection_time[f] != DetectionResult::kUndetected &&
        base.detection_time[f] <= 10)
      early.push_back(f);
  ASSERT_GT(early.size(), 0u);

  util::MetricsRegistry& reg = util::metrics();
  const std::uint64_t retired0 =
      reg.counter("fault_sim.groups_retired_early").value();
  FaultSimOptions on;
  on.threads = 1;
  const DetectionResult det = fsim.run(trace, early, on);
  EXPECT_EQ(det.detected_count, early.size());
  EXPECT_GT(reg.counter("fault_sim.groups_retired_early").value(), retired0);
}

TEST(FaultSimLevers, TraceWithDifferentSameSizeObsSetIsRejected) {
  // A trace records which observation points it was built with; run() must
  // reject an options set of the *same size* but different lines — the
  // recorded good values would silently be the wrong lines' otherwise.
  const Netlist nl = circuits::s27();
  const FaultSet faults = FaultSet::collapsed(nl);
  const FaultSimulator fsim(nl, faults);
  const TestSequence seq = circuits::s27_paper_sequence();

  const std::vector<NodeId> built_with{nl.find("G11"), nl.find("G8")};
  const std::vector<NodeId> asked_for{nl.find("G11"), nl.find("G9")};
  const GoodTrace trace = fsim.make_trace(seq, built_with);

  FaultSimOptions mismatched;
  mismatched.observation_points = asked_for;
  EXPECT_THROW(fsim.run(trace, faults.all_ids(), mismatched),
               std::invalid_argument);

  // Same lines in a different order is also a different set as recorded.
  const std::vector<NodeId> reordered{nl.find("G8"), nl.find("G11")};
  FaultSimOptions shuffled;
  shuffled.observation_points = reordered;
  EXPECT_THROW(fsim.run(trace, faults.all_ids(), shuffled),
               std::invalid_argument);

  FaultSimOptions matching;
  matching.observation_points = built_with;
  EXPECT_EQ(fsim.run(trace, faults.all_ids(), matching).detection_time,
            fsim.run(seq, faults.all_ids(), matching).detection_time);
}

}  // namespace
}  // namespace wbist::fault
