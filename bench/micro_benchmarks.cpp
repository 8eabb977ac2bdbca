// Microbenchmarks (google-benchmark) for the performance-critical layers:
// good-machine simulation, parallel-fault simulation, weighted-sequence
// expansion, candidate-set construction, and two-level minimization.
//
// Besides the google-benchmark suite, main() runs a fault-simulation
// thread-scaling measurement (1/2/4/hardware threads) plus a lever on/off
// comparison on s5378 and writes both to BENCH_faultsim.json in the working
// directory, so successive PRs can track the perf trajectory mechanically.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "circuits/iscas.h"
#include "circuits/registry.h"
#include "core/assignment.h"
#include "core/qm.h"
#include "core/weight_set.h"
#include "fault/fault_list.h"
#include "fault/fault_sim.h"
#include "sim/good_sim.h"
#include "sim/kernel.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/trace.h"

using namespace wbist;

namespace {

sim::TestSequence random_sequence(std::size_t length, std::size_t width,
                                  std::uint64_t seed) {
  util::Rng rng(seed);
  sim::TestSequence seq(length, width);
  for (std::size_t u = 0; u < length; ++u)
    for (std::size_t i = 0; i < width; ++i)
      seq.set(u, i,
              rng.next_bit() ? sim::Val3::kOne : sim::Val3::kZero);
  return seq;
}

const char* kCircuits[] = {"s27", "s298", "s641", "s1423", "s5378"};

void BM_GoodSimulation(benchmark::State& state) {
  const auto nl =
      circuits::circuit_by_name(kCircuits[state.range(0)]);
  sim::GoodSimulator sim(nl);
  const auto seq = random_sequence(256, nl.primary_inputs().size(), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(seq));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256 *
                          static_cast<std::int64_t>(nl.eval_order().size()));
  state.SetLabel(kCircuits[state.range(0)]);
}
BENCHMARK(BM_GoodSimulation)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);

void BM_FaultSimulation(benchmark::State& state) {
  const auto nl =
      circuits::circuit_by_name(kCircuits[state.range(0)]);
  const auto faults = fault::FaultSet::collapsed(nl);
  fault::FaultSimulator sim(nl, faults);
  const auto seq = random_sequence(128, nl.primary_inputs().size(), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run_all(seq));
  }
  // fault-cycles per second: faults x time units per iteration.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(faults.size()) * 128);
  state.SetLabel(kCircuits[state.range(0)]);
}
BENCHMARK(BM_FaultSimulation)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

void BM_FaultSimulationThreads(benchmark::State& state) {
  const auto nl = circuits::circuit_by_name("s1423");
  const auto faults = fault::FaultSet::collapsed(nl);
  fault::FaultSimulator sim(nl, faults);
  const auto seq = random_sequence(128, nl.primary_inputs().size(), 2);
  const fault::GoodTrace trace = sim.make_trace(seq);
  fault::FaultSimOptions opt;
  opt.threads = static_cast<unsigned>(state.range(0));
  const auto ids = faults.all_ids();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(trace, ids, opt));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(faults.size()) * 128);
  state.SetLabel("s1423, threads=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_FaultSimulationThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)  // 0 = hardware_concurrency
    ->Unit(benchmark::kMillisecond);

void BM_GoodTraceSharing(benchmark::State& state) {
  // The procedure's two-phase candidate simulation: sample pass + full pass
  // over one candidate sequence. range(0)==0 re-simulates the good machine
  // per pass (the old behaviour); range(0)==1 shares one trace.
  const auto nl = circuits::circuit_by_name("s641");
  const auto faults = fault::FaultSet::collapsed(nl);
  fault::FaultSimulator sim(nl, faults);
  const auto seq = random_sequence(256, nl.primary_inputs().size(), 4);
  const auto ids = faults.all_ids();
  const std::vector<fault::FaultId> sample(ids.begin(),
                                           ids.begin() + 32);
  const bool share = state.range(0) != 0;
  for (auto _ : state) {
    if (share) {
      const fault::GoodTrace trace = sim.make_trace(seq);
      benchmark::DoNotOptimize(sim.run(trace, sample));
      benchmark::DoNotOptimize(sim.run(trace, ids));
    } else {
      benchmark::DoNotOptimize(sim.run(seq, sample));
      benchmark::DoNotOptimize(sim.run(seq, ids));
    }
  }
  state.SetLabel(share ? "s641, shared trace" : "s641, good sim per run");
}
BENCHMARK(BM_GoodTraceSharing)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_WeightedExpansion(benchmark::State& state) {
  core::WeightAssignment w;
  for (int i = 0; i < 35; ++i)
    w.per_input.push_back(core::Subsequence::parse(i % 2 ? "100110" : "01"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.expand(static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_WeightedExpansion)->Arg(500)->Arg(2000)->Unit(benchmark::kMicrosecond);

void BM_CandidateSets(benchmark::State& state) {
  const auto nl = circuits::circuit_by_name("s641");
  const auto seq = random_sequence(256, nl.primary_inputs().size(), 3);
  core::WeightSet S;
  for (std::size_t u = 8; u < 250; u += 13)
    for (std::size_t len = 1; len <= 8; ++len) S.extend(seq, u, len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_candidate_sets(S, seq, 200, 8));
  }
  state.SetLabel("s641, |S|=" + std::to_string(S.size()));
}
BENCHMARK(BM_CandidateSets)->Unit(benchmark::kMicrosecond);

void BM_QuineMcCluskey(benchmark::State& state) {
  const unsigned n_vars = static_cast<unsigned>(state.range(0));
  util::Rng rng(42);
  std::vector<std::uint32_t> onset, dc;
  for (std::uint32_t m = 0; m < (1u << n_vars); ++m) {
    const auto roll = rng.below(4);
    if (roll == 0) onset.push_back(m);
    else if (roll == 1) dc.push_back(m);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::minimize(n_vars, onset, dc));
  }
}
BENCHMARK(BM_QuineMcCluskey)->Arg(4)->Arg(6)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_TraceSpan(benchmark::State& state) {
  // Cost of one instrumentation site. Disabled must be within noise of a
  // single branch; enabled is the ring-buffer push + two clock reads.
  const bool enabled = state.range(0) != 0;
  if (enabled) util::TraceRegistry::global().start(1 << 12);
  for (auto _ : state) {
    util::TraceSpan span("bench_span", util::TraceArg("k", std::int64_t{1}));
    benchmark::DoNotOptimize(&span);
  }
  if (enabled) util::TraceRegistry::global().stop();
  state.SetLabel(enabled ? "enabled" : "disabled");
}
BENCHMARK(BM_TraceSpan)->Arg(0)->Arg(1);

void BM_FaultSimulationTraced(benchmark::State& state) {
  // End-to-end span overhead on the hot path: a full serial s5378 fault-sim
  // run with tracing off vs on (spans are per group, not per cycle, so the
  // enabled delta must stay small).
  const bool traced = state.range(0) != 0;
  const auto nl = circuits::circuit_by_name("s5378");
  const auto faults = fault::FaultSet::collapsed(nl);
  fault::FaultSimulator sim(nl, faults);
  const auto seq = random_sequence(128, nl.primary_inputs().size(), 2);
  const fault::GoodTrace trace = sim.make_trace(seq);
  const auto ids = faults.all_ids();
  fault::FaultSimOptions opt;
  opt.threads = 1;
  if (traced) util::TraceRegistry::global().start(1 << 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(trace, ids, opt));
  }
  if (traced) util::TraceRegistry::global().stop();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(faults.size()) * 128);
  state.SetLabel(traced ? "s5378, tracing on" : "s5378, tracing off");
}
BENCHMARK(BM_FaultSimulationTraced)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_FaultCollapsing(benchmark::State& state) {
  const auto nl = circuits::circuit_by_name("s5378");
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::FaultSet::collapsed(nl));
  }
  state.SetLabel("s5378");
}
BENCHMARK(BM_FaultCollapsing)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Fault-sim thread-scaling measurement -> BENCH_faultsim.json
// ---------------------------------------------------------------------------

/// Wall-clock of one full parallel-fault run under `opt`.
double one_faultsim_ms(const fault::FaultSimulator& sim,
                       const fault::GoodTrace& trace,
                       std::span<const fault::FaultId> ids,
                       const fault::FaultSimOptions& opt) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto det = sim.run(trace, ids, opt);
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(det);
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Best-of-N wall-clock of one full parallel-fault run at `threads`.
double measure_faultsim_ms(const fault::FaultSimulator& sim,
                           const fault::GoodTrace& trace,
                           std::span<const fault::FaultId> ids,
                           unsigned threads, int repetitions) {
  fault::FaultSimOptions opt;
  opt.threads = threads;
  double best = 0;
  for (int rep = 0; rep < repetitions; ++rep) {
    const double ms = one_faultsim_ms(sim, trace, ids, opt);
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

bool write_faultsim_scaling_json(const char* path) {
  const char* circuit = "s1423";
  const std::size_t time_units = 128;
  const int repetitions = 3;

  const auto nl = circuits::circuit_by_name(circuit);
  const auto faults = fault::FaultSet::collapsed(nl);
  fault::FaultSimulator sim(nl, faults);
  const auto seq = random_sequence(time_units, nl.primary_inputs().size(), 2);
  const fault::GoodTrace trace = sim.make_trace(seq);
  const auto ids = faults.all_ids();

  std::vector<unsigned> thread_counts{1, 2, 4};
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  if (std::find(thread_counts.begin(), thread_counts.end(), hw) ==
      thread_counts.end())
    thread_counts.push_back(hw);

  // Determinism cross-check rides along: every thread count must reproduce
  // the serial detection times exactly.
  fault::FaultSimOptions serial_opt;
  serial_opt.threads = 1;
  const auto baseline = sim.run(trace, ids, serial_opt);
  bool deterministic = true;

  struct Row {
    unsigned threads;
    double wall_ms;
  };
  std::vector<Row> rows;
  for (const unsigned t : thread_counts) {
    rows.push_back({t, measure_faultsim_ms(sim, trace, ids, t, repetitions)});
    fault::FaultSimOptions opt;
    opt.threads = t;
    const auto det = sim.run(trace, ids, opt);
    deterministic &= det.detection_time == baseline.detection_time &&
                     det.detected_count == baseline.detected_count;
  }
  const double base_ms = rows.front().wall_ms;

  const char* lever_circuit = "s5378";
  const auto knl = circuits::circuit_by_name(lever_circuit);
  const auto kfaults = fault::FaultSet::collapsed(knl);
  const auto kids = kfaults.all_ids();

  // Lever comparison on s5378's full collapsed list over a BIST-length
  // window: every performance lever on vs every lever off, serial, with the
  // gates_evaluated counter showing where the wall-clock reduction comes
  // from. Runs are interleaved so host-load drift hits both configs alike;
  // bit-identity of times AND detecting lines rides along.
  const std::size_t lever_time_units = 256;
  const auto lseq =
      random_sequence(lever_time_units, knl.primary_inputs().size(), 7);
  const fault::FaultSimulator lsim(knl, kfaults);
  const fault::GoodTrace ltrace = lsim.make_trace(lseq);

  fault::FaultSimOptions all_off;
  all_off.threads = 1;
  all_off.cone_restriction = false;
  all_off.activity_gating = false;
  all_off.fault_dropping = false;
  all_off.locality_packing = false;
  fault::FaultSimOptions all_on;
  all_on.threads = 1;

  double lever_off_ms = 0, lever_on_ms = 0;
  for (int rep = 0; rep < repetitions; ++rep) {
    const double off = one_faultsim_ms(lsim, ltrace, kids, all_off);
    const double on = one_faultsim_ms(lsim, ltrace, kids, all_on);
    if (rep == 0 || off < lever_off_ms) lever_off_ms = off;
    if (rep == 0 || on < lever_on_ms) lever_on_ms = on;
  }
  util::MetricsRegistry& reg = util::metrics();
  const std::uint64_t gates_mark0 =
      reg.counter("fault_sim.gates_evaluated").value();
  const auto ldet_off = lsim.run(ltrace, kids, all_off);
  const std::uint64_t gates_mark1 =
      reg.counter("fault_sim.gates_evaluated").value();
  const auto ldet_on = lsim.run(ltrace, kids, all_on);
  const std::uint64_t gates_mark2 =
      reg.counter("fault_sim.gates_evaluated").value();
  const std::uint64_t lever_gates_off = gates_mark1 - gates_mark0;
  const std::uint64_t lever_gates_on = gates_mark2 - gates_mark1;
  const bool levers_bit_identical =
      ldet_on.detection_time == ldet_off.detection_time &&
      ldet_on.detecting_line == ldet_off.detecting_line &&
      ldet_on.detected_count == ldet_off.detected_count;

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  out << "{\n"
      << "  \"benchmark\": \"faultsim_thread_scaling\",\n"
      << "  \"circuit\": \"" << circuit << "\",\n"
      << "  \"faults\": " << faults.size() << ",\n"
      << "  \"time_units\": " << time_units << ",\n"
      << "  \"repetitions\": " << repetitions << ",\n"
      << "  \"hardware_concurrency\": " << hw << ",\n"
      << "  \"deterministic\": " << (deterministic ? "true" : "false") << ",\n"
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << "    {\"threads\": " << rows[i].threads << ", \"wall_ms\": "
        << rows[i].wall_ms << ", \"speedup_vs_1\": "
        << (rows[i].wall_ms > 0 ? base_ms / rows[i].wall_ms : 0.0) << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"active_kernel\": \"" << sim::active_kernel().name << "\",\n"
      << "  \"levers\": {\"circuit\": \"" << lever_circuit
      << "\", \"faults\": " << kfaults.size()
      << ", \"time_units\": " << lever_time_units << ",\n"
      << "    \"all_off_wall_ms\": " << lever_off_ms
      << ", \"all_on_wall_ms\": " << lever_on_ms << ", \"speedup\": "
      << (lever_on_ms > 0 ? lever_off_ms / lever_on_ms : 0.0) << ",\n"
      << "    \"gates_evaluated_off\": " << lever_gates_off
      << ", \"gates_evaluated_on\": " << lever_gates_on
      << ", \"gates_ratio\": "
      << (lever_gates_on > 0
              ? static_cast<double>(lever_gates_off) /
                    static_cast<double>(lever_gates_on)
              : 0.0)
      << ",\n    \"bit_identical\": "
      << (levers_bit_identical ? "true" : "false") << "}\n"
      << "}\n";
  std::printf(
      "wrote %s (hardware_concurrency=%u, deterministic=%s, "
      "active_kernel=%s, lever_speedup=%.2fx, levers_bit_identical=%s)\n",
      path, hw, deterministic ? "true" : "false", sim::active_kernel().name,
      lever_on_ms > 0 ? lever_off_ms / lever_on_ms : 0.0,
      levers_bit_identical ? "true" : "false");
  return deterministic && levers_bit_identical;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_faultsim_scaling_json("BENCH_faultsim.json") ? 0 : 1;
}
