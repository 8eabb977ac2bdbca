#include "sim/ref_sim.h"

#include <gtest/gtest.h>

#include <vector>

#include "circuits/iscas.h"
#include "circuits/registry.h"
#include "fault/fault_list.h"
#include "fault/fault_sim.h"
#include "sim/good_sim.h"
#include "testutil.h"

namespace wbist::sim {
namespace {

using netlist::GateType;
using netlist::NodeId;

TEST(RefEvalGate, ThreeValuedTruthTables) {
  const Val3 O = Val3::kZero, I = Val3::kOne, X = Val3::kX;

  const std::vector<Val3> zx{O, X};
  EXPECT_EQ(ref_eval_gate(GateType::kAnd, zx), O);   // controlling 0 wins
  EXPECT_EQ(ref_eval_gate(GateType::kNand, zx), I);
  const std::vector<Val3> ox{I, X};
  EXPECT_EQ(ref_eval_gate(GateType::kOr, ox), I);    // controlling 1 wins
  EXPECT_EQ(ref_eval_gate(GateType::kNor, ox), O);
  EXPECT_EQ(ref_eval_gate(GateType::kAnd, ox), X);   // no controlling value
  EXPECT_EQ(ref_eval_gate(GateType::kXor, ox), X);   // XOR: any X poisons
  const std::vector<Val3> oi{I, O};
  EXPECT_EQ(ref_eval_gate(GateType::kXor, oi), I);
  EXPECT_EQ(ref_eval_gate(GateType::kXnor, oi), O);
  const std::vector<Val3> x1{X};
  EXPECT_EQ(ref_eval_gate(GateType::kNot, x1), X);
  EXPECT_EQ(ref_eval_gate(GateType::kBuf, x1), X);
}

// Exhaustive 2-input cross-check against the production scalar evaluator:
// the two implementations were written independently from the truth tables.
TEST(RefEvalGate, AgreesWithProductionScalarEval) {
  const Val3 vals[] = {Val3::kZero, Val3::kOne, Val3::kX};
  const GateType types[] = {GateType::kAnd,  GateType::kNand, GateType::kOr,
                            GateType::kNor,  GateType::kXor,  GateType::kXnor};
  for (GateType t : types)
    for (Val3 a : vals)
      for (Val3 b : vals) {
        const std::vector<Val3> in{a, b};
        EXPECT_EQ(ref_eval_gate(t, in), eval_gate_scalar(t, in))
            << "gate " << static_cast<int>(t);
      }
}

TEST(RefSim, MatchesGoodSimulatorEveryNodeEveryCycle) {
  for (const char* name : {"s27", "s298", "s344"}) {
    const netlist::Netlist nl = circuits::circuit_by_name(name);
    const TestSequence seq =
        test::random_sequence(20, nl.primary_inputs().size(), 99);
    const RefSimulator ref(nl);
    const RefValueMatrix values = ref.run(seq);
    ASSERT_EQ(values.size(), seq.length());

    GoodSimulator good(nl);
    for (std::size_t u = 0; u < seq.length(); ++u) {
      good.step(seq.row(u));
      for (NodeId id = 0; id < nl.node_count(); ++id)
        ASSERT_EQ(values[u][id], good.value(id))
            << name << " node " << nl.node(id).name << " at t=" << u;
    }
  }
}

TEST(RefSim, HandlesXInputs) {
  const netlist::Netlist nl = test::tiny_circuit();
  TestSequence seq(2, 2);
  seq.set(0, 0, Val3::kOne);
  seq.set(0, 1, Val3::kX);
  seq.set(1, 0, Val3::kZero);
  seq.set(1, 1, Val3::kOne);
  const RefValueMatrix values = RefSimulator(nl).run(seq);

  GoodSimulator good(nl);
  for (std::size_t u = 0; u < seq.length(); ++u) {
    good.step(seq.row(u));
    for (NodeId id = 0; id < nl.node_count(); ++id)
      ASSERT_EQ(values[u][id], good.value(id));
  }
}

TEST(RefSim, DPinFaultCorruptsLatchedStateOnly) {
  // tiny: n1 = AND(a,b); ff = DFF(n1); n2 = XOR(a,ff); out = NOT(n2).
  const netlist::Netlist nl = test::tiny_circuit();
  const NodeId ff = nl.find("ff");
  const RefFault sa1{ff, 0, true};  // ff D-pin stuck-at-1

  const TestSequence seq = test::random_sequence(6, 2, 3);
  const RefSimulator ref(nl);
  const RefValueMatrix good = ref.run(seq);
  const RefValueMatrix faulty = ref.run(seq, sa1);

  // The D-pin fault corrupts what the flip-flop latches, not the value on
  // the ff output during the same cycle: cycle 0 must be fault-free.
  EXPECT_EQ(faulty[0][nl.find("out")], good[0][nl.find("out")]);
  // From cycle 1 on the flip-flop output is stuck at 1 in the faulty
  // machine.
  for (std::size_t u = 1; u < seq.length(); ++u)
    EXPECT_EQ(faulty[u][ff], Val3::kOne) << "t=" << u;
}

TEST(RefSim, DetectionTimesMatchFaultSimulator) {
  for (const char* name : {"s27", "s298"}) {
    const netlist::Netlist nl = circuits::circuit_by_name(name);
    const fault::FaultSet faults = fault::FaultSet::collapsed(nl);
    const fault::FaultSimulator sim(nl, faults);
    const TestSequence seq =
        test::random_sequence(24, nl.primary_inputs().size(), 17);
    const fault::DetectionResult det = sim.run_all(seq);

    const RefSimulator ref(nl);
    const RefValueMatrix good = ref.run(seq);
    const std::vector<NodeId> pos(nl.primary_outputs().begin(),
                                  nl.primary_outputs().end());
    for (fault::FaultId f = 0; f < faults.size(); ++f) {
      const fault::Fault& fl = faults[f];
      const RefFault rf = fault::ref_fault(fl);
      const RefValueMatrix faulty = ref.run(seq, rf);
      EXPECT_EQ(ref_detection_time(good, faulty, pos), det.detection_time[f])
          << name << " fault " << fault_name(nl, fl);
    }
  }
}

TEST(RefSim, ObservableLinesMatchFaultSimulator) {
  const netlist::Netlist nl = circuits::s27();
  const fault::FaultSet faults = fault::FaultSet::collapsed(nl);
  const fault::FaultSimulator sim(nl, faults);
  const TestSequence seq =
      test::random_sequence(16, nl.primary_inputs().size(), 5);
  const std::vector<fault::FaultId> ids = faults.all_ids();
  const auto lines = sim.observable_lines(seq, ids);

  const RefSimulator ref(nl);
  const RefValueMatrix good = ref.run(seq);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const fault::Fault& fl = faults[ids[k]];
    const RefFault rf = fault::ref_fault(fl);
    EXPECT_EQ(ref_observable_lines(good, ref.run(seq, rf)), lines[k])
        << "fault " << fault_name(nl, fl);
  }
}

TEST(RefSim, RejectsUnfinalizedNetlistAndBadWidth) {
  netlist::Netlist nl;
  nl.add_input("a");
  EXPECT_THROW(RefSimulator{nl}, std::invalid_argument);

  const netlist::Netlist tiny = test::tiny_circuit();
  EXPECT_THROW(RefSimulator(tiny).run(TestSequence(3, 1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace wbist::sim
