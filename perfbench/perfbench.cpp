// perfbench — the repo benchmark program (see perfbench/README.md).
//
//   perfbench --workload flow|fsim|campaign|serve --seed N --seconds S
//             --trace 0|1 --wbist <wbist binary> --work-dir <dir>
//             [--source-id <id>]
//
// Every layer is measured from outside: the benchmark times its own calls into
// the modules' public entry points and reads the counters, timers and spans
// the program already records (the wbist.metrics/1 registry, the
// util::TraceRegistry ring, the daemon's `stats` / `metrics` jobs and the
// per-request wbist.obs/1 blocks). Nothing inside src/ is instrumented for
// the benchmark.
//
// --trace 0 runs the workload with tracing off and reports the end-to-end
// metrics; --trace 1 is a separate pass with the program's tracing on that
// reports the per-layer metrics. Either way every output is checked, and
// the last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Lines before it start with "# " and are for people.
#include <fcntl.h>
#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "circuits/registry.h"
#include "core/artifact_cache.h"
#include "core/campaign.h"
#include "core/flow.h"
#include "core/fsm_synth.h"
#include "core/procedure.h"
#include "core/report.h"
#include "core/reverse_sim.h"
#include "core/service.h"
#include "fault/fault_list.h"
#include "fault/fault_sim.h"
#include "serve/campaign_runner.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "sim/kernel.h"
#include "sim/ref_sim.h"
#include "sim/sequence_io.h"
#include "tgen/compaction.h"
#include "tgen/random_tgen.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/trace.h"
#include "util/worker_pool.h"

extern char** environ;

namespace {

using namespace wbist;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Metric tables. BENCHMARK.json lists the same names; run.py refuses a
// result whose metric set differs from it.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          // time before the first timed operation
    {"job_s", "s"},            // median wall time of one operation
    {"cpu_s", "s"},            // user+system CPU per operation
    {"peak_rss_mib", "MiB"},   // peak resident memory
    {"ops_per_s", "1/s"},      // operations completed OK per second
};

constexpr MetricDef kPerLayer[] = {
    // circuits / fault set-up
    {"circuits.build_s", "s"},
    {"fault.collapse_s", "s"},
    {"fault.faults", "count"},
    {"fault.sim_ctor_s", "s"},
    // fault: good-machine trace
    {"fault.make_trace_s", "s"},
    {"fault.make_trace_self_s", "s"},
    {"fault.traces", "count"},
    {"fault.trace_cycles", "count"},
    // fault: fault-group kernel
    {"fault.run_s", "s"},
    {"fault.run_self_s", "s"},
    {"fault.runs", "count"},
    {"fault.kernel_cycles", "count"},
    {"fault.fault_cycles", "count"},
    {"fault.gates_evaluated", "count"},
    {"fault.cycles_skipped", "count"},
    {"fault.groups", "count"},
    {"fault.groups_retired_early", "count"},
    {"fault.repacks", "count"},
    {"fault.gates_per_fault_cycle", "ratio"},
    // util: worker pool and trace ring
    {"util.pool_busy_s", "s"},
    {"util.pool_util", "ratio"},
    {"util.trace_spans_dropped", "count"},
    // tgen
    {"tgen.generate_s", "s"},
    {"tgen.raw_length", "count"},
    {"tgen.length_cap_hit", "count"},
    {"tgen.compact_s", "s"},
    {"tgen.compact_sims", "count"},
    {"tgen.removed_per_sim", "ratio"},
    {"tgen.compact_budget_hit", "count"},
    {"tgen.t_length", "count"},
    // core: procedure
    {"core.procedure_s", "s"},
    {"core.assignments_tried", "count"},
    {"core.sample_rejections", "count"},
    {"core.sample_reject_ratio", "ratio"},
    {"core.full_simulations", "count"},
    {"core.kept_per_full_sim", "ratio"},
    {"core.good_machine_sims", "count"},
    {"core.abandoned", "count"},
    // core: pruning and synthesis
    {"core.reverse_prune_s", "s"},
    {"core.omega_in", "count"},
    {"core.omega_kept", "count"},
    {"core.fsm_synth_s", "s"},
    // core: artifact cache
    {"core.cache_hits", "count"},
    {"core.cache_misses", "count"},
    {"core.cache_hit_ratio", "ratio"},
    {"core.compile_s", "s"},
    // serve: daemon and its clients
    {"serve.req_p50_ms", "ms"},
    {"serve.req_p99_ms", "ms"},
    {"serve.req_beyond_p99", "count"},
    {"serve.req_per_s", "1/s"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.run_p50_ms.fault-sim", "ms"},
    {"serve.run_p50_ms.info", "ms"},
    {"serve.run_p50_ms.tgen", "ms"},
    {"serve.run_p50_ms.flow", "ms"},
    {"serve.jobs_rejected", "count"},
    {"serve.deadline_expired", "count"},
    // serve: campaign runner
    {"serve.campaign.workers_spawned", "count"},
    {"serve.campaign.shards", "count"},
    {"serve.campaign.retried", "count"},
    {"serve.campaign.worker_sim_s", "s"},
    {"serve.campaign.overhead_s", "s"},
    // checks on the traced run
    {"flow.layer_sum_ratio", "ratio"},
    {"flow.trace_overhead_ratio", "ratio"},
    {"fail_ratio", "ratio"},
};

/// Value reported for a layer number that is withheld (a percentile with
/// too few samples beyond it, or span times from a trace that dropped
/// events). Layers a workload does not exercise read 0.
constexpr double kWithheld = -1.0;

class Report {
 public:
  explicit Report(bool traced) : traced_(traced) {}

  void set(std::string_view name, double value) {
    if (unit_of(name) == nullptr)
      throw std::logic_error("perfbench: unknown metric " + std::string(name));
    if (!std::isfinite(value)) {
      note("metric " + std::string(name) + " is not finite; withheld");
      value = kWithheld;
    }
    values_[std::string(name)] = value;
  }

  /// A failed operation: wrong output, error, refusal or timeout. Only the
  /// first few are printed.
  void op_failed(const std::string& why) {
    constexpr std::uint64_t kPrinted = 20;
    if (++failed <= kPrinted) note("FAILED: " + why);
    if (failed == kPrinted + 1) note("FAILED: further failures not shown");
  }
  /// A failed check that is not tied to one operation.
  void check_failed(const std::string& why) {
    checks_ok_ = false;
    note("CHECK FAILED: " + why);
  }
  void note(const std::string& line) const {
    std::printf("# %s\n", line.c_str());
    std::fflush(stdout);
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  std::string result_json() {
    set("fail_ratio", attempted == 0 ? 1.0
                                     : static_cast<double>(failed) /
                                           static_cast<double>(attempted));
    const bool correct = checks_ok_ && failed == 0 && attempted > 0;
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    bool first = true;
    const auto emit = [&](const MetricDef& m) {
      const auto it = values_.find(m.name);
      const double v = it == values_.end() ? 0.0 : it->second;
      char buf[64];
      if (v == std::floor(v) && std::fabs(v) < 9e15)
        std::snprintf(buf, sizeof buf, "%.0f", v);
      else
        std::snprintf(buf, sizeof buf, "%.17g", v);
      out += first ? "" : ", ";
      first = false;
      out += "\"" + std::string(m.name) + "\": {\"value\": " + buf +
             ", \"unit\": \"" + m.unit + "\"}";
    };
    if (traced_)
      for (const MetricDef& m : kPerLayer) emit(m);
    else
      for (const MetricDef& m : kEndToEnd) emit(m);
    out += "}}";
    return out;
  }

  /// Human-readable listing of every metric this run set.
  void print_all() const {
    for (const auto& [name, v] : values_)
      std::printf("# %-34s %.6g %s\n", name.c_str(), v, unit_of(name));
  }

 private:
  static const char* unit_of(std::string_view name) {
    for (const MetricDef& m : kEndToEnd)
      if (name == m.name) return m.unit;
    for (const MetricDef& m : kPerLayer)
      if (name == m.name) return m.unit;
    return nullptr;
  }

  bool traced_;
  bool checks_ok_ = true;
  std::map<std::string, double> values_;
};

// ---------------------------------------------------------------------------
// Clocks and statistics

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}
double cpu_seconds(const rusage& ru) {
  return tv_seconds(ru.ru_utime) + tv_seconds(ru.ru_stime);
}
rusage usage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return ru;
}
/// CPU of this process plus every child it has waited for.
double process_tree_cpu() {
  return cpu_seconds(usage(RUSAGE_SELF)) + cpu_seconds(usage(RUSAGE_CHILDREN));
}
double mib(long kib) { return static_cast<double>(kib) / 1024.0; }

/// Restarts this process's peak resident set (VmHWM) at its current size;
/// false where the kernel does not allow it.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5" << std::flush;
  return static_cast<bool>(f);
}
/// This process's peak resident set (VmHWM) in KiB; 0 when unknown.
long peak_rss_kib() {
  std::ifstream f("/proc/self/status");
  for (std::string line; std::getline(f, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtol(line.c_str() + 6, nullptr, 10);
  return 0;
}

/// Linear-interpolated quantile (q in [0,1]) of a non-empty sample.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Span self-times from a wbist.trace/1 document (Chrome trace_event JSON, as
// util::TraceRegistry writes it). A span's self time is its duration minus
// the part its child spans on the same thread cover.

struct SpanTotals {
  double total_s = 0;
  double self_s = 0;
  std::uint64_t count = 0;
};

struct TraceSummary {
  std::map<std::string, SpanTotals> spans;
  std::uint64_t dropped = 0;
  std::size_t documents = 0, unreadable = 0;

  /// False when no trace was read, one could not be read, or the ring
  /// overwrote events.
  bool complete() const {
    return documents > 0 && unreadable == 0 && dropped == 0;
  }
  SpanTotals operator[](const std::string& name) const {
    const auto it = spans.find(name);
    return it == spans.end() ? SpanTotals{} : it->second;
  }
};

/// Adds one wbist.trace/1 document's spans to `sum`. A document that does
/// not parse, or lacks `otherData` or `traceEvents`, counts as unreadable.
void summarize_trace(std::string_view json, TraceSummary& sum) {
  struct Span {
    double ts, dur;
    std::string name;
  };
  ++sum.documents;
  util::JsonValue doc;
  try {
    doc = util::json_parse(json);
  } catch (const std::exception&) {
    ++sum.unreadable;
    return;
  }
  const util::JsonValue* other = doc.get("otherData");
  const util::JsonValue* events = doc.get("traceEvents");
  if (other == nullptr || events == nullptr) {
    ++sum.unreadable;
    return;
  }
  sum.dropped += static_cast<std::uint64_t>(other->get_int("dropped_events"));
  std::map<std::int64_t, std::vector<Span>> by_tid;
  for (const util::JsonValue& e : events->as_array()) {
    if (e.get_string("ph") != "X") continue;
    const util::JsonValue* ts = e.get("ts");
    const util::JsonValue* dur = e.get("dur");
    if (ts == nullptr || dur == nullptr) continue;
    by_tid[e.get_int("tid")].push_back(
        {ts->as_number(), dur->as_number(), e.get_string("name")});
  }
  for (auto& [tid, spans] : by_tid) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
    });
    std::vector<double> child(spans.size(), 0.0);
    std::vector<std::size_t> open;  // indices of enclosing spans
    for (std::size_t i = 0; i < spans.size(); ++i) {
      while (!open.empty() &&
             spans[open.back()].ts + spans[open.back()].dur <= spans[i].ts)
        open.pop_back();
      if (!open.empty()) child[open.back()] += spans[i].dur;
      open.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      SpanTotals& t = sum.spans[spans[i].name];
      t.total_s += spans[i].dur * 1e-6;
      t.self_s += std::max(0.0, spans[i].dur - child[i]) * 1e-6;
      ++t.count;
    }
  }
}

std::string read_text(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Shared set-up: circuit, collapsed fault list, simulator, sequence.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string wbist_exe;
  std::string work_dir;
  std::string source_id = "unknown";
};

struct Bench {
  std::unique_ptr<netlist::Netlist> nl;
  std::unique_ptr<fault::FaultSet> faults;
  std::unique_ptr<fault::FaultSimulator> sim;
  std::string seq_text;
  sim::TestSequence seq;
};

struct SetupTimes {
  double build = 0, collapse = 0, ctor = 0, seqgen = 0, total = 0;
};

/// `cycles` rows of 0/1 drawn from util::Rng(seed), in `.seq` text form
/// (the same generator `wbist campaign --random-cycles` uses).
std::string random_sequence_text(std::size_t cycles, std::size_t width,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::string text;
  text.reserve(cycles * (width + 1));
  for (std::size_t u = 0; u < cycles; ++u) {
    for (std::size_t i = 0; i < width; ++i)
      text += (rng.next_u64() & 1) != 0 ? '1' : '0';
    text += '\n';
  }
  return text;
}

Bench set_up_once(const std::string& circuit, std::size_t cycles,
                  std::uint64_t seed, SetupTimes& t) {
  Bench b;
  auto t0 = Clock::now();
  b.nl = std::make_unique<netlist::Netlist>(circuits::circuit_by_name(circuit));
  t.build = since(t0);
  t0 = Clock::now();
  b.faults = std::make_unique<fault::FaultSet>(fault::FaultSet::collapsed(*b.nl));
  t.collapse = since(t0);
  t0 = Clock::now();
  b.sim = std::make_unique<fault::FaultSimulator>(*b.nl, *b.faults);
  t.ctor = since(t0);
  t0 = Clock::now();
  if (cycles > 0) {
    b.seq_text =
        random_sequence_text(cycles, b.nl->primary_inputs().size(), seed);
    b.seq = sim::read_sequence(b.seq_text);
  }
  t.seqgen = since(t0);
  t.total = t.build + t.collapse + t.ctor + t.seqgen;
  return b;
}

/// Set up repeatedly for at least kSetupSeconds and report the medians; the
/// last set-up is kept. One set-up takes a millisecond (s344) to a tenth of
/// a second (s13207), so a few samples would follow single scheduler hiccups.
constexpr double kSetupSeconds = 2.0;

Bench set_up(const std::string& circuit, std::size_t cycles,
             std::uint64_t seed, Report& r) {
  constexpr int kMinReps = 5, kMaxReps = 5000;
  std::vector<double> total, build, collapse, ctor;
  const auto start = Clock::now();
  for (int rep = 1;; ++rep) {
    SetupTimes t;
    Bench b = set_up_once(circuit, cycles, seed, t);
    total.push_back(t.total);
    build.push_back(t.build);
    collapse.push_back(t.collapse);
    ctor.push_back(t.ctor);
    if (rep >= kMaxReps ||
        (rep >= kMinReps && since(start) >= kSetupSeconds)) {
      r.set("setup_s", median(total));
      r.set("circuits.build_s", median(build));
      r.set("fault.collapse_s", median(collapse));
      r.set("fault.sim_ctor_s", median(ctor));
      r.set("fault.faults", static_cast<double>(b.faults->size()));
      r.note("setup: " + std::to_string(rep) + " set-ups of " + circuit +
             ", median " + std::to_string(median(total)) + " s");
      return b;
    }
  }
}

std::vector<fault::FaultId> all_fault_ids(const Bench& b) {
  std::vector<fault::FaultId> ids(b.faults->size());
  std::iota(ids.begin(), ids.end(), fault::FaultId{0});
  return ids;
}

/// The fault-simulation and worker-pool layers from wbist.metrics/1
/// counters and timers, read through `counter` / `timer` (the benchmark's
/// own registry, or a daemon's `stats` and `metrics` answers).
///
/// `util.pool_util` divides busy time by `threads` times the parallel time,
/// which holds only where every run dispatches that many ranks: a run
/// dispatches min(threads, groups) ranks, and flow's small fault groups and
/// serve's mixed requests dispatch fewer. There (`threads` = 0, or fewer
/// groups per run than threads) it is withheld; it reads 0 where the pool
/// did not run.
template <typename Counter, typename Timer>
void report_fault_layers(Report& r, Counter counter, Timer timer,
                         unsigned threads) {
  constexpr std::pair<const char*, const char*> kCounters[] = {
      {"fault.traces", "fault_sim.traces"},
      {"fault.trace_cycles", "fault_sim.trace_cycles"},
      {"fault.runs", "fault_sim.runs"},
      {"fault.kernel_cycles", "fault_sim.kernel_cycles"},
      {"fault.fault_cycles", "fault_sim.fault_cycles"},
      {"fault.gates_evaluated", "fault_sim.gates_evaluated"},
      {"fault.cycles_skipped", "fault_sim.cycles_skipped"},
      {"fault.groups", "fault_sim.groups"},
      {"fault.groups_retired_early", "fault_sim.groups_retired_early"},
      {"fault.repacks", "fault_sim.repacks"}};
  for (const auto& [name, source] : kCounters) r.set(name, counter(source));
  r.set("fault.gates_per_fault_cycle",
        ratio(counter("fault_sim.gates_evaluated"),
              counter("fault_sim.fault_cycles")));
  r.set("fault.run_s", timer("fault_sim.run"));
  const double busy = timer("fault_sim.worker_busy");
  r.set("util.pool_busy_s", busy);
  const double groups_per_run =
      ratio(counter("fault_sim.groups"), counter("fault_sim.runs"));
  if (busy == 0.0) {
    r.set("util.pool_util", 0.0);
  } else if (threads != 0 && groups_per_run >= threads) {
    r.set("util.pool_util",
          ratio(busy, timer("fault_sim.parallel") * threads));
  } else {
    r.set("util.pool_util", kWithheld);
    r.note("util.pool_util withheld: runs dispatch fewer ranks than threads "
           "here; util.pool_busy_s is the busy time");
  }
}

void report_fault_layers(Report& r, unsigned threads) {
  util::MetricsRegistry& reg = util::metrics();
  report_fault_layers(
      r,
      [&](const char* name) {
        return static_cast<double>(reg.counter(name).value());
      },
      [&](const char* name) { return reg.timer(name).seconds(); },
      threads);
}

/// Span self-times of the two fault-simulation layers, or withheld when the
/// ring dropped events or a trace document could not be read (a partial
/// trace under-counts silently otherwise).
void report_span_times(const TraceSummary& ts, Report& r, bool set_totals) {
  r.set("util.trace_spans_dropped", static_cast<double>(ts.dropped));
  if (!ts.complete()) {
    r.note("!!! TRACE INCOMPLETE: " + std::to_string(ts.dropped) +
           " events dropped, " + std::to_string(ts.unreadable) + " of " +
           std::to_string(ts.documents) +
           " documents unreadable; span-derived layer times are withheld "
           "(-1) !!!");
    r.set("fault.make_trace_self_s", kWithheld);
    r.set("fault.run_self_s", kWithheld);
    if (set_totals) r.set("fault.make_trace_s", kWithheld);
    return;
  }
  const SpanTotals mt = ts["fault_sim.make_trace"];
  const SpanTotals run = ts["fault_sim.run"];
  r.set("fault.make_trace_self_s", mt.self_s);
  r.set("fault.run_self_s", run.self_s);
  if (set_totals) r.set("fault.make_trace_s", mt.total_s);
  r.note("spans: fault_sim.make_trace " + std::to_string(mt.count) + " x, " +
         std::to_string(mt.total_s) + " s total, " +
         std::to_string(mt.self_s) + " s self; fault_sim.run " +
         std::to_string(run.count) + " x, " + std::to_string(run.total_s) +
         " s total, " + std::to_string(run.self_s) + " s self");
}

/// Run `op` until `seconds` have passed (at least once); returns the wall
/// time of the whole loop.
template <typename Op>
double timed_loop(double seconds, Op op) {
  const auto start = Clock::now();
  do {
    op();
  } while (since(start) < seconds);
  return since(start);
}

/// End-to-end metrics of a sequential timed loop; `failed0` is the failure
/// count before the loop started.
void report_ops(Report& r, const std::vector<double>& wall,
                const std::vector<double>& cpu, double window,
                std::uint64_t failed0, long rss_kib) {
  r.set("job_s", median(wall));
  r.set("cpu_s", median(cpu));
  r.set("peak_rss_mib", mib(rss_kib));
  r.set("ops_per_s",
        static_cast<double>(wall.size() - (r.failed - failed0)) / window);
  r.note(std::to_string(wall.size()) + " timed operations, job_s median " +
         std::to_string(median(wall)) + " s (min " +
         std::to_string(*std::min_element(wall.begin(), wall.end())) +
         ", max " + std::to_string(*std::max_element(wall.begin(), wall.end())) +
         ")");
}

// ---------------------------------------------------------------------------
// flow: core::run_flow on s344 with FlowConfig{} defaults.
//
// One s344 flow takes under a second, so a run times many of them and the
// median spans many procedure seeds. One s1423 flow took 30-40 s: a run
// timed a single operation, and its time moved by a quarter between runs.

constexpr const char* kFlowCircuit = "s344";
/// `wbist flow s344` with FlowConfig{} defaults (tgen seed 1, procedure
/// seed 7, i.e. --seed 1): len det seq subs len num out.
constexpr std::size_t kDefaultSeedRow[] = {38, 496, 22, 11, 3, 3, 8};

/// Operation `k` of a run. Operation 0 of --seed 1 is FlowConfig{} exactly
/// (procedure.seed = 7); later operations draw other procedure seeds.
/// tgen.seed stays at its default: T plays the role of the paper's given
/// deterministic sequence, and varying it moved one s1423 flow's time by 50%.
core::FlowConfig flow_config(std::uint64_t seed, std::size_t k) {
  core::FlowConfig cfg;
  cfg.procedure.seed = seed + 6 + 1000 * k;
  return cfg;
}

std::string row_text(const core::Table6Row& row, double fe) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%zu %zu %zu %zu %zu %zu %zu %.1f",
                row.t_length, row.t_detected, row.n_seq, row.n_subs,
                row.max_len, row.n_fsms, row.n_fsm_outputs, 100.0 * fe);
  return buf;
}

/// The paper's shape claims on one flow result; empty when they all hold.
std::string flow_shape_error(const core::ProcedureResult& proc,
                             const core::ReverseSimResult& pruned,
                             const core::Table6Row& row,
                             std::size_t t_detected, bool default_config) {
  if (proc.fault_efficiency() != 1.0) return "fault efficiency != 1.0";
  if (proc.abandoned_count != 0)
    return std::to_string(proc.abandoned_count) + " targets abandoned";
  if (!(row.n_fsms <= row.n_fsm_outputs && row.n_fsm_outputs <= row.n_subs))
    return "num <= out <= subs violated";
  if (!(row.max_len < row.t_length)) return "max subsequence length >= |T|";
  if (pruned.omega.size() > proc.omega.size()) return "pruning grew Omega";
  if (pruned.detected.size() != t_detected)
    return "pruned Omega detects " + std::to_string(pruned.detected.size()) +
           " of " + std::to_string(t_detected) + " targets";
  if (default_config) {
    const std::size_t got[] = {row.t_length, row.t_detected, row.n_seq,
                               row.n_subs,   row.max_len,    row.n_fsms,
                               row.n_fsm_outputs};
    if (!std::equal(std::begin(got), std::end(got), std::begin(kDefaultSeedRow))) {
      std::string want;
      for (const std::size_t v : kDefaultSeedRow) want += std::to_string(v) + " ";
      return std::string("row differs from the `wbist flow ") + kFlowCircuit +
             "` row " + want + "100.0";
    }
  }
  return {};
}

struct FlowOp {
  double wall = 0, cpu = 0;
  std::string row;
};

FlowOp flow_op(const Bench& b, std::uint64_t seed, std::size_t k,
               Report& r) {
  const core::FlowConfig cfg = flow_config(seed, k);
  const bool default_config = seed == 1 && k == 0;
  const double cpu0 = process_tree_cpu();
  const auto t0 = Clock::now();
  const core::FlowResult f = core::run_flow(*b.sim, kFlowCircuit, cfg);
  FlowOp op{since(t0), process_tree_cpu() - cpu0,
            row_text(f.table6, f.procedure.fault_efficiency())};
  ++r.attempted;
  const std::string err =
      flow_shape_error(f.procedure, f.pruned, f.table6, f.t_detected,
                       default_config);
  if (!err.empty()) r.op_failed("flow " + op.row + ": " + err);
  return op;
}

void flow_workload(const Args& a, Report& r) {
  const Bench b = set_up(kFlowCircuit, 0, a.seed, r);

  if (!a.trace) {
    std::vector<double> wall, cpu;
    const std::uint64_t failed0 = r.failed;
    const double window = timed_loop(a.seconds, [&] {
      const FlowOp op = flow_op(b, a.seed, wall.size(), r);
      r.note("row " + std::to_string(wall.size()) + ": " + op.row);
      wall.push_back(op.wall);
      cpu.push_back(op.cpu);
    });
    report_ops(r, wall, cpu, window, failed0, usage(RUSAGE_SELF).ru_maxrss);
    return;
  }

  // Traced pass: one untraced run_flow for the reference row and time, then
  // the five stages called one by one with the trace ring on.
  const core::FlowConfig cfg = flow_config(a.seed, 0);
  const FlowOp plain = flow_op(b, a.seed, 0, r);
  r.note("untraced row: " + plain.row + " in " + std::to_string(plain.wall) +
         " s");

  util::metrics().reset();
  util::TraceRegistry::global().start();
  ++r.attempted;
  const auto t_all = Clock::now();

  auto t0 = Clock::now();
  tgen::TgenResult gen = tgen::generate_test_sequence(*b.sim, cfg.tgen);
  const double generate_s = since(t0);
  const std::size_t raw_length = gen.sequence.length();

  sim::TestSequence seq = std::move(gen.sequence);
  std::vector<std::int32_t> det = std::move(gen.detection_time);
  tgen::CompactionResult comp;
  t0 = Clock::now();
  if (cfg.compact && seq.length() > 1) {
    std::vector<fault::FaultId> must;
    for (fault::FaultId f = 0; f < det.size(); ++f)
      if (det[f] != fault::DetectionResult::kUndetected) must.push_back(f);
    comp = tgen::compact_sequence(*b.sim, seq, must, cfg.compaction);
    seq = std::move(comp.sequence);
    det = std::move(comp.detection_time);
  }
  const double compact_s = since(t0);

  std::vector<fault::FaultId> targets;
  for (fault::FaultId f = 0; f < det.size(); ++f)
    if (det[f] != fault::DetectionResult::kUndetected) targets.push_back(f);

  t0 = Clock::now();
  const core::ProcedureResult proc =
      core::select_weight_assignments(*b.sim, seq, det, cfg.procedure);
  const double procedure_s = since(t0);

  t0 = Clock::now();
  const core::ReverseSimResult pruned = core::reverse_order_prune(
      *b.sim, proc.omega, targets, proc.sequence_length, cfg.procedure.threads);
  const double prune_s = since(t0);

  t0 = Clock::now();
  std::vector<core::Subsequence> subs;
  for (const core::WeightAssignment& w : pruned.omega)
    subs.insert(subs.end(), w.per_input.begin(), w.per_input.end());
  const core::FsmSynthesisResult fsms = core::synthesize_weight_fsms(subs);
  const double fsm_s = since(t0);

  const double traced_wall = since(t_all);
  util::TraceRegistry::global().stop();

  const core::Table6Row row = core::make_table6_row(
      kFlowCircuit, seq.length(), targets.size(), pruned.omega, fsms);
  const std::string traced_row = row_text(row, proc.fault_efficiency());
  r.note("traced row:   " + traced_row + " in " + std::to_string(traced_wall) +
         " s");
  const std::string err =
      flow_shape_error(proc, pruned, row, targets.size(), a.seed == 1);
  if (!err.empty()) r.op_failed("staged flow " + traced_row + ": " + err);
  else if (traced_row != plain.row)
    r.op_failed("staged traced row " + traced_row + " != run_flow row " +
                plain.row);

  TraceSummary ts;
  summarize_trace(util::TraceRegistry::global().to_json(), ts);
  report_span_times(ts, r, /*set_totals=*/true);
  report_fault_layers(r, /*threads=*/0);

  r.set("tgen.generate_s", generate_s);
  r.set("tgen.raw_length", static_cast<double>(raw_length));
  const bool length_cap_hit = raw_length >= cfg.tgen.max_length;
  r.set("tgen.length_cap_hit", length_cap_hit ? 1.0 : 0.0);
  if (length_cap_hit)
    r.note("!!! tgen stopped at TgenConfig::max_length = " +
           std::to_string(cfg.tgen.max_length) + " vectors !!!");
  r.set("tgen.compact_s", compact_s);
  r.set("tgen.compact_sims", static_cast<double>(comp.simulations_used));
  r.set("tgen.removed_per_sim",
        ratio(static_cast<double>(comp.removed_vectors),
              static_cast<double>(comp.simulations_used)));
  const bool budget_hit =
      comp.simulations_used >= cfg.compaction.max_simulations;
  r.set("tgen.compact_budget_hit", budget_hit ? 1.0 : 0.0);
  r.note("compaction: " + std::to_string(comp.simulations_used) + " of " +
         std::to_string(cfg.compaction.max_simulations) +
         " re-simulations used" +
         (budget_hit ? " — BUDGET EXHAUSTED, T is less compact than it could be"
                     : ""));
  r.set("tgen.t_length", static_cast<double>(seq.length()));

  const core::ProcedureStats& st = proc.stats;
  r.set("core.procedure_s", procedure_s);
  r.set("core.assignments_tried", static_cast<double>(st.assignments_tried));
  r.set("core.sample_rejections", static_cast<double>(st.sample_rejections));
  r.set("core.sample_reject_ratio",
        ratio(static_cast<double>(st.sample_rejections),
              static_cast<double>(st.assignments_tried)));
  r.set("core.full_simulations", static_cast<double>(st.full_simulations));
  r.set("core.kept_per_full_sim",
        ratio(static_cast<double>(proc.omega.size()),
              static_cast<double>(st.full_simulations)));
  r.set("core.good_machine_sims", static_cast<double>(st.good_machine_sims));
  r.set("core.abandoned", static_cast<double>(proc.abandoned_count));
  if (proc.abandoned_count != 0)
    r.note("!!! procedure abandoned " + std::to_string(proc.abandoned_count) +
           " targets !!!");

  r.set("core.reverse_prune_s", prune_s);
  r.set("core.omega_in", static_cast<double>(proc.omega.size()));
  r.set("core.omega_kept", static_cast<double>(pruned.omega.size()));
  r.set("core.fsm_synth_s", fsm_s);

  const double stages = generate_s + compact_s + procedure_s + prune_s + fsm_s;
  r.set("flow.layer_sum_ratio", stages / traced_wall);
  r.set("flow.trace_overhead_ratio", traced_wall / plain.wall);
}

// ---------------------------------------------------------------------------
// fsim: one seeded 2000-vector random sequence against s13207's collapsed
// fault list — one make_trace plus one run per operation.

constexpr const char* kSimCircuit = "s13207";
constexpr std::size_t kSimCycles = 2000;
/// Simulation threads of one fsim operation, and campaign workers (one
/// thread each). Two leave half the host's four cores to its other load: with
/// two busy processes beside it, a 4-thread fsim operation slowed by 30-60%
/// and a 2-thread one by about 5%.
constexpr unsigned kSimThreads = 2;

struct SimOp {
  double trace_s = 0, run_s = 0, wall = 0, cpu = 0;
  fault::DetectionResult det;
};

SimOp sim_op(const Bench& b, const std::vector<fault::FaultId>& ids) {
  SimOp op;
  const double cpu0 = process_tree_cpu();
  const auto t0 = Clock::now();
  const fault::GoodTrace trace = b.sim->make_trace(b.seq);
  op.trace_s = since(t0);
  fault::FaultSimOptions opts;
  opts.threads = kSimThreads;
  const auto t1 = Clock::now();
  op.det = b.sim->run(trace, ids, opts);
  op.run_s = since(t1);
  op.wall = since(t0);
  op.cpu = process_tree_cpu() - cpu0;
  return op;
}

core::FaultSimResult to_result(const Bench& b,
                               const fault::DetectionResult& det) {
  core::FaultSimResult res;
  res.circuit = kSimCircuit;
  res.seq_length = b.seq.length();
  res.detection_time = det.detection_time;
  res.detecting_line = det.detecting_line;
  res.detected = det.detected_count;
  return res;
}

/// Checks a seed-chosen sample of detection times against the scalar
/// RefSimulator oracle: three detected faults, each simulated up to its
/// detection time (the oracle must detect it exactly there), and one
/// undetected fault over the whole sequence.
void check_against_oracle(const Bench& b, const fault::DetectionResult& det,
                          std::uint64_t seed, Report& r) {
  std::vector<fault::FaultId> detected, undetected;
  for (fault::FaultId f = 0; f < det.detection_time.size(); ++f)
    (det.detected(f) ? detected : undetected).push_back(f);
  util::Rng rng(seed ^ 0x6f7261636c65ULL);
  std::vector<fault::FaultId> sample;
  const auto draw = [&](std::vector<fault::FaultId>& pool, std::size_t n) {
    for (std::size_t k = 0; k < n && !pool.empty(); ++k) {
      const std::size_t i = rng.below(pool.size());
      sample.push_back(pool[i]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
    }
  };
  draw(detected, 3);
  draw(undetected, 1);

  const auto t0 = Clock::now();
  const sim::RefSimulator ref(*b.nl);
  const sim::RefValueMatrix good = ref.run(b.seq);
  const std::vector<netlist::NodeId> observed(b.nl->primary_outputs().begin(),
                                              b.nl->primary_outputs().end());
  for (const fault::FaultId f : sample) {
    sim::TestSequence prefix = b.seq;
    if (det.detected(f))
      prefix.truncate(static_cast<std::size_t>(det.detection_time[f]) + 1);
    const fault::Fault& flt = (*b.faults)[f];
    const sim::RefValueMatrix faulty =
        ref.run(prefix, sim::RefFault{flt.node, flt.pin, flt.stuck_at_one});
    const std::int32_t want = sim::ref_detection_time(good, faulty, observed);
    if (want != det.detection_time[f])
      r.check_failed("fault " + std::to_string(f) + ": RefSimulator says " +
                     std::to_string(want) + ", FaultSimulator says " +
                     std::to_string(det.detection_time[f]));
  }
  r.note("oracle: " + std::to_string(sample.size()) +
         " sampled faults checked against RefSimulator in " +
         std::to_string(since(t0)) + " s");
}

void fsim_workload(const Args& a, Report& r) {
  const Bench b = set_up(kSimCircuit, kSimCycles, a.seed, r);
  const std::vector<fault::FaultId> ids = all_fault_ids(b);

  // Untimed warm-up (worker-pool start, first-touch allocations); its result
  // is the reference every timed operation must reproduce.
  const fault::DetectionResult first = sim_op(b, ids).det;
  std::vector<double> wall, cpu;
  const auto one = [&] {
    SimOp op = sim_op(b, ids);
    ++r.attempted;
    wall.push_back(op.wall);
    cpu.push_back(op.cpu);
    if (op.det.detection_time != first.detection_time ||
        op.det.detecting_line != first.detecting_line)
      r.op_failed("fault simulation differs from the warm-up run");
    return op;
  };

  if (!a.trace) {
    const std::uint64_t failed0 = r.failed;
    const double window = timed_loop(a.seconds, [&] { one(); });
    report_ops(r, wall, cpu, window, failed0, usage(RUSAGE_SELF).ru_maxrss);
  } else {
    util::metrics().reset();
    util::TraceRegistry::global().start();
    const SimOp op = one();
    util::TraceRegistry::global().stop();
    TraceSummary ts;
    summarize_trace(util::TraceRegistry::global().to_json(), ts);
    report_span_times(ts, r, /*set_totals=*/false);
    report_fault_layers(r, kSimThreads);
    // The benchmark's own clocks around the two calls.
    r.set("fault.make_trace_s", op.trace_s);
    r.set("fault.run_s", op.run_s);
  }
  r.note("detected " + std::to_string(first.detected_count) + " of " +
         std::to_string(ids.size()) + " faults");
  check_against_oracle(b, first, a.seed, r);
}

// ---------------------------------------------------------------------------
// campaign: the fsim input sharded by serve::run_campaign over kSimThreads
// workers, so that its gap to fsim is the fleet's cost at equal parallelism.

struct CampaignOp {
  double wall = 0, cpu = 0;
  serve::CampaignOutcome outcome;
};

CampaignOp campaign_op(const Bench& b, const serve::CampaignOptions& opts,
                       const std::string& want_json, Report& r) {
  fs::remove(opts.checkpoint_path);
  CampaignOp op;
  const double cpu0 = process_tree_cpu();
  const auto t0 = Clock::now();
  ++r.attempted;
  try {
    op.outcome = serve::run_campaign(core::CircuitSpec{kSimCircuit, "", ""},
                                     kSimCircuit, b.faults->size(), b.seq_text,
                                     b.seq.length(), opts);
    op.wall = since(t0);
    op.cpu = process_tree_cpu() - cpu0;
    if (!op.outcome.complete)
      r.op_failed("campaign incomplete");
    else if (core::render_fault_sim_result_json(op.outcome.result) != want_json)
      r.op_failed("campaign result JSON differs from fsim's");
  } catch (const std::exception& e) {
    op.wall = since(t0);
    op.cpu = process_tree_cpu() - cpu0;
    r.op_failed(std::string("campaign: ") + e.what());
  }
  return op;
}

void campaign_workload(const Args& a, Report& r) {
  Bench b = set_up(kSimCircuit, kSimCycles, a.seed, r);
  const std::vector<fault::FaultId> ids = all_fault_ids(b);

  // Reference result, outside any timed window.
  const std::string want_json =
      core::render_fault_sim_result_json(to_result(b, sim_op(b, ids).det));

  serve::CampaignOptions opts;
  opts.worker_exe = a.wbist_exe;
  opts.workers = kSimThreads;
  opts.worker_threads = 1;
  opts.checkpoint_path = a.work_dir + "/campaign.ckpt.jsonl";

  if (!a.trace) {
    // peak_rss_mib covers the campaign driver and its workers, not the
    // benchmark's reference: drop the in-process simulator, hand its pages
    // back and restart this process's peak before the fleet runs.
    b.sim.reset();
    b.nl.reset();
    malloc_trim(0);
    const bool driver_measured = reset_peak_rss();
    campaign_op(b, opts, want_json, r);  // untimed warm-up, still checked
    std::vector<double> wall, cpu;
    const std::uint64_t failed0 = r.failed;
    const double window = timed_loop(a.seconds, [&] {
      const CampaignOp op = campaign_op(b, opts, want_json, r);
      wall.push_back(op.wall);
      cpu.push_back(op.cpu);
    });
    const long driver_kib = driver_measured ? peak_rss_kib() : 0;
    const long worker_kib = usage(RUSAGE_CHILDREN).ru_maxrss;
    if (driver_measured)
      r.note("peak RSS: campaign driver " + std::to_string(mib(driver_kib)) +
             " MiB, largest worker " + std::to_string(mib(worker_kib)) +
             " MiB");
    else
      r.note("!!! cannot restart this process's peak RSS; peak_rss_mib is "
             "the largest worker's only !!!");
    report_ops(r, wall, cpu, window, failed0,
               std::max(driver_kib, worker_kib));
    return;
  }

  // Fleet overhead: interleaved untraced fsim and campaign operations on the
  // same input.
  constexpr int kPairs = 3;
  std::vector<double> fsim_wall, camp_wall;
  for (int i = 0; i < kPairs; ++i) {
    const SimOp s = sim_op(b, ids);
    ++r.attempted;
    if (core::render_fault_sim_result_json(to_result(b, s.det)) != want_json)
      r.op_failed("fsim result differs from the reference");
    fsim_wall.push_back(s.wall);
    camp_wall.push_back(campaign_op(b, opts, want_json, r).wall);
  }
  const double overhead = median(camp_wall) - median(fsim_wall);
  r.set("serve.campaign.overhead_s", overhead);
  r.note("campaign " + std::to_string(median(camp_wall)) + " s vs fsim " +
         std::to_string(median(fsim_wall)) + " s: fleet overhead " +
         std::to_string(overhead) + " s");

  // One campaign with worker traces on.
  serve::CampaignOptions traced = opts;
  traced.trace_dir = a.work_dir + "/worker-traces";
  fs::remove_all(traced.trace_dir);
  fs::create_directories(traced.trace_dir);
  const CampaignOp op = campaign_op(b, traced, want_json, r);
  TraceSummary ts;
  for (const auto& entry : fs::directory_iterator(traced.trace_dir))
    summarize_trace(read_text(entry.path()), ts);
  report_span_times(ts, r, /*set_totals=*/true);
  const double run = ts["fault_sim.run"].total_s;
  r.set("fault.run_s", ts.complete() ? run : kWithheld);
  r.set("serve.campaign.worker_sim_s",
        ts.complete() ? ts["fault_sim.make_trace"].total_s + run : kWithheld);
  const serve::CampaignOutcome& o = op.outcome;
  r.set("serve.campaign.workers_spawned",
        static_cast<double>(o.workers_spawned));
  r.set("serve.campaign.shards", static_cast<double>(o.shards_total));
  r.set("serve.campaign.retried", static_cast<double>(o.shards_retried));
  if (o.shards_retried != 0 || o.worker_deaths != 0)
    r.note("!!! campaign retried " + std::to_string(o.shards_retried) +
           " shards after " + std::to_string(o.worker_deaths) +
           " worker deaths !!!");
  r.set("fault.kernel_cycles", static_cast<double>(o.kernel_cycles));
  r.set("fault.fault_cycles", static_cast<double>(o.fault_cycles));
  r.set("fault.trace_cycles", static_cast<double>(o.trace_cycles));
}

// ---------------------------------------------------------------------------
// serve: a `wbist serve` daemon under a closed loop of 4 client connections.

/// `{"schema":"wbist.serve/1","job":"<job>"` without the closing brace.
std::string request_head(const std::string& job) {
  return "{\"schema\":\"" + std::string(serve::kSchema) + "\",\"job\":\"" +
         job + "\"";
}
std::string control_request(const std::string& job) {
  return request_head(job) + "}";
}

/// A `wbist serve` child process on a unix socket. The destructor kills and
/// reaps a daemon that was not stopped.
class Daemon {
 public:
  Daemon(const Args& a, const std::string& socket, std::size_t cache_bytes)
      : socket_(socket) {
    fs::remove(socket_);
    const std::string log = a.work_dir + "/serve.log";
    std::vector<std::string> argv_s = {a.wbist_exe,   "serve",
                                       "--socket",    socket_,
                                       "--cache-bytes", std::to_string(cache_bytes)};
    std::vector<char*> argv;
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    start_ = Clock::now();
    const int rc = posix_spawn(&pid_, argv[0], &fa, nullptr, argv.data(),
                               environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + a.wbist_exe + " serve");
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      rusage ru{};
      int status = 0;
      ::wait4(pid_, &status, 0, &ru);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  serve::Endpoint endpoint() const {
    serve::Endpoint ep;
    ep.unix_path = socket_;
    return ep;
  }

  /// Seconds from spawn until the first `ping` is answered.
  double wait_ready() {
    const std::string ping = control_request("ping");
    while (since(start_) < 30.0) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("wbist serve exited during start-up");
      }
      try {
        serve::ClientOptions co;
        co.connect_timeout_ms = 1000;
        co.io_timeout_ms = 5000;
        const std::string resp = serve::submit(endpoint(), ping, co);
        if (util::json_parse(resp).get_bool("ok")) return since(start_);
      } catch (const serve::ClientError&) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    throw std::runtime_error("wbist serve did not answer ping within 30 s");
  }

  std::string request(const std::string& job) const {
    return serve::submit(endpoint(), control_request(job));
  }

  /// Orderly shutdown; returns the daemon's whole-life resource usage.
  rusage stop() {
    rusage ru{};
    try {
      request("shutdown");
    } catch (const serve::ClientError&) {
    }
    const auto t0 = Clock::now();
    int status = 0;
    while (since(t0) < 20.0) {
      if (::wait4(pid_, &status, WNOHANG, &ru) == pid_) {
        pid_ = -1;
        return ru;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ::kill(pid_, SIGKILL);
    ::wait4(pid_, &status, 0, &ru);
    pid_ = -1;
    throw std::runtime_error("wbist serve did not stop within 20 s");
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  Clock::time_point start_;
};

struct ServeRequest {
  std::string job;
  std::string circuit;
  std::string json;  ///< request without observation
  std::string json_observed;
  std::string want;  ///< expected `output`
};

std::string make_request(const std::string& job, const std::string& circuit,
                         const std::string& seq_text, bool observe) {
  std::string req = request_head(job) + ",\"circuit\":\"" + circuit + "\"";
  // One simulation thread per fault-sim request: the daemon's workers
  // already run the four clients' requests side by side, and a pool per
  // request would oversubscribe the cores.
  if (!seq_text.empty())
    req += ",\"threads\":1,\"sequence\":" + util::json_quote(seq_text);
  if (observe) req += ",\"observe\":true";
  return req + "}";
}

/// The seeded request pools, with every expected output computed
/// in-process through the same service calls the daemon makes.
struct ServeMix {
  std::map<std::string, std::vector<ServeRequest>> pools;
  std::size_t working_set_bytes = 0;
};

constexpr const char* kServeSimCircuits[] = {
    "s27",  "s208", "s298", "s344", "s382", "s386",  "s400", "s420",
    "s444", "s526", "s641", "s820", "s1196", "s1423", "s1488"};
constexpr const char* kServeTgenCircuits[] = {"s27", "s208", "s298", "s344"};
/// Flows on s298/s344 hold a daemon worker for 0.1-0.5 s and made the
/// closed loop's throughput swing with the host's load; the two smallest
/// circuits keep the job type in the mix.
constexpr const char* kServeFlowCircuits[] = {"s27", "s208"};
constexpr std::size_t kServeSeqCycles = 300;
/// Distinct seeded sequences per circuit: the cost of one random sequence
/// varies, and a run should average over many.
constexpr std::size_t kServeSeqsPerCircuit = 8;
/// Job mix per block of 100 requests (shuffled per block). The tgen and flow
/// jobs hold a client for ~0.1 s each, about a third of the clients' time.
constexpr std::pair<const char*, int> kServeBlock[] = {
    {"fault-sim", 90}, {"info", 6}, {"tgen", 3}, {"flow", 1}};
/// The schedule repeats after this many blocks.
constexpr std::size_t kServeScheduleBlocks = 200;

ServeMix build_serve_mix(std::uint64_t seed, Report& r) {
  const auto t0 = Clock::now();
  ServeMix mix;
  util::Rng rng(seed);
  const auto add = [&](const std::string& job, const std::string& circuit,
                       const std::string& seq_text, std::string want) {
    mix.pools[job].push_back(ServeRequest{
        job, circuit, make_request(job, circuit, seq_text, false),
        make_request(job, circuit, seq_text, true), std::move(want)});
  };
  for (const char* name : kServeSimCircuits) {
    const auto cc =
        core::CompiledCircuit::compile(core::CircuitSpec{name, "", ""});
    mix.working_set_bytes += cc->approx_bytes();
    add("info", name, "", core::info_report(*cc));
    for (std::size_t k = 0; k < kServeSeqsPerCircuit; ++k) {
      const std::string text = random_sequence_text(
          kServeSeqCycles, cc->netlist().primary_inputs().size(),
          rng.next_u64());
      add("fault-sim", name, text,
          core::run_fault_sim_job(*cc, sim::read_sequence(text), 1).output);
    }
  }
  for (const char* name : kServeTgenCircuits) {
    const auto cc =
        core::CompiledCircuit::compile(core::CircuitSpec{name, "", ""});
    add("tgen", name, "", core::run_tgen_job(*cc).summary + "\n");
  }
  for (const char* name : kServeFlowCircuits) {
    const auto cc =
        core::CompiledCircuit::compile(core::CircuitSpec{name, "", ""});
    add("flow", name, "", core::run_flow_job(*cc).output);
  }
  r.note("serve: expected outputs for " +
         std::to_string(mix.pools["fault-sim"].size() +
                        mix.pools["info"].size() + mix.pools["tgen"].size() +
                        mix.pools["flow"].size()) +
         " distinct requests computed in-process in " +
         std::to_string(since(t0)) + " s; working set " +
         std::to_string(mix.working_set_bytes) + " bytes");
  return mix;
}

/// The request schedule: `blocks` blocks of kServeBlock job types, each
/// shuffled by the seed; each job type walks its pool in a seeded order, so
/// every request of a pool is sent equally often.
std::vector<const ServeRequest*> build_schedule(const ServeMix& mix,
                                                std::uint64_t seed,
                                                std::size_t blocks) {
  util::Rng rng(seed ^ 0x5e7eULL);
  const auto shuffle = [&](auto& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[rng.below(i)]);
  };
  std::map<std::string, std::vector<const ServeRequest*>> orders;
  for (const auto& [job, pool] : mix.pools) {
    for (const ServeRequest& q : pool) orders[job].push_back(&q);
    shuffle(orders[job]);
  }
  std::map<std::string, std::size_t> next;
  std::vector<const ServeRequest*> slots;
  for (std::size_t k = 0; k < blocks; ++k) {
    std::vector<std::string> block;
    for (const auto& [job, n] : kServeBlock)
      block.insert(block.end(), static_cast<std::size_t>(n), job);
    shuffle(block);
    for (const std::string& job : block) {
      const auto& order = orders.at(job);
      slots.push_back(order[next[job]++ % order.size()]);
    }
  }
  return slots;
}

struct ClientStats {
  std::vector<double> latency_ms;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  double compile_s = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
};

/// One closed-loop client: send the next scheduled request, wait for the
/// reply, check it, repeat until `end`.
void client_loop(const serve::Endpoint& ep,
                 const std::vector<const ServeRequest*>& schedule,
                 std::atomic<std::size_t>& next, Clock::time_point end,
                 bool observe, ClientStats& cs) {
  serve::ClientOptions co;
  co.connect_timeout_ms = 5000;
  co.io_timeout_ms = 60000;
  std::unique_ptr<serve::Client> client;
  while (Clock::now() < end) {
    const ServeRequest& q = *schedule[next.fetch_add(1) % schedule.size()];
    ++cs.attempted;
    try {
      if (!client) client = std::make_unique<serve::Client>(ep, co);
      const auto t0 = Clock::now();
      const std::string resp = client->round_trip(observe ? q.json_observed : q.json);
      const double ms = since(t0) * 1e3;
      const util::JsonValue v = util::json_parse(resp);
      if (!v.get_bool("ok")) {
        ++cs.failed;
        cs.failures.push_back(q.job + " " + q.circuit + ": " +
                              v.get_string("error"));
        continue;
      }
      if (v.get_string("output") != q.want) {
        ++cs.failed;
        cs.failures.push_back(q.job + " " + q.circuit + ": wrong output");
        continue;
      }
      cs.latency_ms.push_back(ms);
      if (observe) {
        if (const util::JsonValue* obs = v.get("obs")) {
          if (const util::JsonValue* spans = obs->get("spans"))
            for (const util::JsonValue& s : spans->as_array())
              if (s.get_string("name") == "compile")
                cs.compile_s += static_cast<double>(s.get_int("dur_us")) * 1e-6;
          const util::JsonValue* counters = obs->get("counters");
          if (counters != nullptr && counters->get_int("cache_hit", 1) == 0)
            ++cs.cache_misses;
          else
            ++cs.cache_hits;
        }
      }
    } catch (const serve::ConnectError& e) {
      // The daemon is gone; every further request would fail the same way.
      ++cs.failed;
      cs.failures.push_back(q.job + " " + q.circuit + ": " + e.what());
      return;
    } catch (const std::exception& e) {
      ++cs.failed;
      cs.failures.push_back(q.job + " " + q.circuit + ": " + e.what());
      client.reset();
    }
  }
}

double histogram_ms(const util::JsonValue& stats, const std::string& name,
                    const char* q) {
  const util::JsonValue* h = stats.get("histograms");
  h = h != nullptr ? h->get(name) : nullptr;
  if (h == nullptr || h->get_int("count") == 0) return 0.0;
  const util::JsonValue* v = h->get(q);
  return v != nullptr ? v->as_number() / 1000.0 : 0.0;
}

void serve_workload(const Args& a, Report& r) {
  const ServeMix mix = build_serve_mix(a.seed, r);
  // Half the working set: a stated share of requests must compile.
  const std::size_t cache_bytes = mix.working_set_bytes / 2;
  const std::string socket = a.work_dir + "/serve.sock";

  // A start takes a few milliseconds but varies with the host's load over
  // seconds: start and stop daemons for twice kSetupSeconds and keep the
  // last one.
  constexpr std::size_t kMinStarts = 15, kMaxStarts = 4000;
  std::vector<double> setup;
  std::unique_ptr<Daemon> d;
  const auto setup_start = Clock::now();
  while (setup.size() < kMinStarts ||
         (setup.size() < kMaxStarts &&
          since(setup_start) < 2 * kSetupSeconds)) {
    if (d) d->stop();
    d = std::make_unique<Daemon>(a, socket, cache_bytes);
    setup.push_back(d->wait_ready());
  }
  r.set("setup_s", median(setup));
  r.note("setup: daemon start to first ping, median of " +
         std::to_string(setup.size()) + " starts: " +
         std::to_string(median(setup)) + " s (p10 " +
         std::to_string(quantile(setup, 0.1)) + ", p90 " +
         std::to_string(quantile(setup, 0.9)) + "); --cache-bytes " +
         std::to_string(cache_bytes) + " of " +
         std::to_string(mix.working_set_bytes) + " working-set bytes");

  const std::vector<const ServeRequest*> slots =
      build_schedule(mix, a.seed, kServeScheduleBlocks);

  constexpr int kClients = 4;
  std::vector<ClientStats> cs(kClients);
  std::atomic<std::size_t> next{0};
  const double client_cpu0 = cpu_seconds(usage(RUSAGE_SELF));
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(a.seconds));
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
      threads.emplace_back(client_loop, d->endpoint(), std::cref(slots),
                           std::ref(next), end, a.trace, std::ref(cs[c]));
    for (std::thread& t : threads) t.join();
  }
  const double window = since(start);
  const double client_cpu = cpu_seconds(usage(RUSAGE_SELF)) - client_cpu0;

  std::string stats_text, metrics_text;
  if (a.trace) {
    stats_text = d->request("stats");
    metrics_text = d->request("metrics");
  }
  const rusage daemon = d->stop();

  std::vector<double> lat;
  ClientStats all;
  for (const ClientStats& c : cs) {
    lat.insert(lat.end(), c.latency_ms.begin(), c.latency_ms.end());
    all.attempted += c.attempted;
    all.failed += c.failed;
    all.compile_s += c.compile_s;
    all.cache_hits += c.cache_hits;
    all.cache_misses += c.cache_misses;
    for (const std::string& f : c.failures) r.op_failed(f);
  }
  r.attempted = all.attempted;
  if (lat.empty()) {
    r.check_failed("no request completed");
    return;
  }
  const double ok = static_cast<double>(all.attempted - all.failed);
  const double p50 = quantile(lat, 0.5), p99 = quantile(lat, 0.99);
  const auto beyond = static_cast<std::size_t>(
      std::count_if(lat.begin(), lat.end(), [&](double x) { return x > p99; }));
  r.set("job_s", p50 / 1e3);
  r.set("cpu_s", (cpu_seconds(daemon) + client_cpu) /
                     static_cast<double>(all.attempted));
  r.set("peak_rss_mib", mib(daemon.ru_maxrss));
  r.set("ops_per_s", ok / window);
  r.set("serve.req_p50_ms", p50);
  r.set("serve.req_p99_ms", beyond >= 10 ? p99 : kWithheld);
  r.set("serve.req_beyond_p99", static_cast<double>(beyond));
  r.set("serve.req_per_s", ok / window);
  r.note("requests: " + std::to_string(lat.size()) + " ok of " +
         std::to_string(all.attempted) + " in " + std::to_string(window) +
         " s; req_p50_ms " + std::to_string(p50) + ", req_p99_ms " +
         std::to_string(p99) + " (" + std::to_string(beyond) +
         " samples beyond" + (beyond >= 10 ? ")" : ", too few: withheld)") +
         ", req_per_s " + std::to_string(ok / window));

  if (!a.trace) return;
  const util::JsonValue stats_doc = util::json_parse(stats_text);
  const util::JsonValue metrics_doc = util::json_parse(metrics_text);
  const util::JsonValue* stats_p = stats_doc.get("stats");
  const util::JsonValue* metrics_p = metrics_doc.get("metrics");
  if (stats_p == nullptr || metrics_p == nullptr) {
    r.check_failed("daemon stats/metrics job failed");
    return;
  }
  const util::JsonValue& stats = *stats_p;
  const util::JsonValue& metrics = *metrics_p;
  r.set("core.cache_hits", static_cast<double>(all.cache_hits));
  r.set("core.cache_misses", static_cast<double>(all.cache_misses));
  r.set("core.cache_hit_ratio",
        ratio(static_cast<double>(all.cache_hits),
              static_cast<double>(all.cache_hits + all.cache_misses)));
  r.set("core.compile_s", all.compile_s);
  r.set("serve.queue_wait_p50_ms",
        histogram_ms(stats, "serve.queue_wait_us", "p50"));
  r.set("serve.queue_wait_p99_ms",
        histogram_ms(stats, "serve.queue_wait_us", "p99"));
  for (const auto& [job, n] : kServeBlock)
    r.set(std::string("serve.run_p50_ms.") + job,
          histogram_ms(stats, std::string("serve.run_us.") + job, "p50"));
  const util::JsonValue* counters = stats.get("counters");
  const auto c = [&](const char* name) {
    return counters != nullptr ? static_cast<double>(counters->get_int(name))
                               : 0.0;
  };
  r.set("serve.jobs_rejected", c("serve.jobs_rejected"));
  r.set("serve.deadline_expired", c("serve.deadline_expired"));
  const util::JsonValue* timers = metrics.get("timers");
  const auto t = [&](const char* name) {
    const util::JsonValue* tv = timers != nullptr ? timers->get(name) : nullptr;
    const util::JsonValue* sec = tv != nullptr ? tv->get("seconds") : nullptr;
    return sec != nullptr ? sec->as_number() : 0.0;
  };
  report_fault_layers(r, c, t, /*threads=*/0);
  r.set("core.procedure_s", t("procedure"));
  r.set("tgen.generate_s", t("flow.tgen"));
  r.set("tgen.compact_s", t("flow.compaction"));
  r.set("core.reverse_prune_s", t("reverse_sim"));
  r.set("core.fsm_synth_s", t("flow.fsm_synth"));
}

// ---------------------------------------------------------------------------

struct Workload {
  void (*run)(const Args&, Report&);
  const char* circuits;
  /// Fault-simulation threads as the workload resolves them.
  const char* threads;
};

void print_fingerprint(const Args& a, const Workload& w) {
  const sim::Kernel& k = sim::active_kernel();
  std::printf(
      "# fingerprint {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"threads\": \"%s\", "
      "\"threads0_resolves_to\": %u, \"kernel\": \"%s\", "
      "\"kernel_words\": %zu, \"build\": \"%s\", \"compiler\": \"%s\", "
      "\"circuits\": \"%s\", \"source\": \"%s\"}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, std::thread::hardware_concurrency(), w.threads,
      util::WorkerPool::resolve(0), k.name, static_cast<std::size_t>(k.words),
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, w.circuits,
      a.source_id.c_str());
  std::fflush(stdout);
}

int usage_error(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload flow|fsim|campaign|serve "
               "--seed N --seconds S --trace 0|1 --wbist <path> "
               "--work-dir <dir> [--source-id <id>]\n",
               why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage_error(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--wbist") a.wbist_exe = v;
    else if (flag == "--work-dir") a.work_dir = v;
    else if (flag == "--source-id") a.source_id = v;
    else return usage_error("unknown flag " + flag);
  }
  if (a.wbist_exe.empty() || a.work_dir.empty() || !(a.seconds > 0))
    return usage_error("--wbist, --work-dir and a positive --seconds are required");

  static_assert(kSimThreads == 2, "the fsim and campaign fingerprints say 2");
  const std::map<std::string, Workload> workloads = {
      {"flow", {flow_workload, kFlowCircuit, "FlowConfig threads=0"}},
      {"fsim", {fsim_workload, kSimCircuit, "threads=2"}},
      {"campaign",
       {campaign_workload, kSimCircuit, "2 workers x worker_threads=1"}},
      {"serve",
       {serve_workload, "s27-s1488",
        "fault-sim requests threads=1, tgen/flow jobs threads=0"}}};
  const auto it = workloads.find(a.workload);
  if (it == workloads.end()) return usage_error("unknown workload " + a.workload);

  // A daemon that dies mid-write must not kill the benchmark.
  std::signal(SIGPIPE, SIG_IGN);
  print_fingerprint(a, it->second);
  Report r(a.trace);
  try {
    it->second.run(a, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  r.print_all();
  std::printf("%s\n", r.result_json().c_str());
  return 0;
}
