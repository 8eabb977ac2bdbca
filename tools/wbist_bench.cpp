// wbist_bench — per-run procedure benchmark emitting the perf-trajectory
// record BENCH_procedure.json.
//
//   wbist_bench [--out <path>] [--circuits a,b,c] [--threads N] [--label S]
//               [--trace-json <path>] [--provenance-jsonl <path>]
//
// Runs the full weighted-BIST flow (tgen -> compaction -> procedure ->
// reverse-order pruning -> FSM synthesis) on each circuit and writes one
// stable-schema JSON record per circuit: results (fault efficiency, |T|,
// sessions, subsequences, FSMs), cost (wall seconds per phase, peak RSS,
// fault-simulation kernel/trace cycles) and the procedure's search
// statistics. Every PR appends a comparable point to the perf trajectory by
// re-running this binary; CI smoke-runs it on s27/s298 and validates the
// schema (see .github/workflows/ci.yml).
//
// Schema "wbist.bench.procedure/1": field names and meanings are frozen —
// extend by *adding* keys, never by renaming or repurposing existing ones.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "circuits/registry.h"
#include "core/flow.h"
#include "fault/fault_list.h"
#include "fault/fault_sim.h"
#include "sim/kernel.h"
#include "util/cli_opts.h"
#include "util/metrics.h"
#include "util/provenance.h"
#include "util/strings.h"
#include "util/timer.h"
#include "util/trace.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace {

using namespace wbist;

/// Process peak RSS in KiB (0 where unsupported). Monotone over the process
/// lifetime, so per-circuit values report the peak *up to* that circuit.
long peak_rss_kib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return ru.ru_maxrss / 1024;  // bytes on macOS
#else
  return ru.ru_maxrss;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

struct CircuitRecord {
  std::string name;
  double wall_s = 0;
  long peak_rss_kib = 0;
  double fault_efficiency = 0;  // fraction of T's detected faults re-detected
  core::Table6Row row;
  core::ProcedureStats stats;
  std::size_t omega_before_prune = 0;
  std::uint64_t kernel_cycles = 0;
  std::uint64_t fault_cycles = 0;
  std::uint64_t trace_cycles = 0;
  std::size_t fault_list_size = 0;        // faults actually simulated
  std::size_t uncollapsed_faults = 0;     // full-universe size
  std::size_t uncollapsed_detected = 0;   // T's detection, expanded
  double uncollapsed_coverage = 0;
  double tgen_s = 0, compaction_s = 0, procedure_s = 0, reverse_sim_s = 0,
         fsm_synth_s = 0;
};

const char* collapse_name(fault::CollapseMode mode) {
  switch (mode) {
    case fault::CollapseMode::kNone:
      return "none";
    case fault::CollapseMode::kEquivalence:
      return "equivalence";
    case fault::CollapseMode::kDominance:
      return "dominance";
  }
  return "?";
}

CircuitRecord run_circuit(const std::string& name, unsigned threads,
                          fault::CollapseMode collapse) {
  util::MetricsRegistry& reg = util::metrics();
  reg.reset();  // per-circuit metrics window

  const netlist::Netlist nl = circuits::circuit_by_name(name);
  const fault::FaultSet faults = fault::FaultSet::collapsed(nl, collapse);
  const fault::FaultSimulator sim(nl, faults);

  core::FlowConfig config;
  config.procedure.threads = threads;

  const util::Timer wall;
  const core::FlowResult flow = core::run_flow(sim, name, config);

  CircuitRecord rec;
  rec.name = name;
  rec.wall_s = wall.seconds();
  rec.peak_rss_kib = peak_rss_kib();
  rec.fault_efficiency = flow.procedure.fault_efficiency();
  rec.row = flow.table6;
  rec.stats = flow.procedure.stats;
  rec.omega_before_prune = flow.procedure.omega.size();
  rec.kernel_cycles = reg.counter("fault_sim.kernel_cycles").value();
  rec.fault_cycles = reg.counter("fault_sim.fault_cycles").value();
  rec.trace_cycles = reg.counter("fault_sim.trace_cycles").value();
  rec.fault_list_size = faults.size();
  rec.uncollapsed_faults = flow.uncollapsed_total;
  rec.uncollapsed_detected = flow.uncollapsed_detected;
  rec.uncollapsed_coverage = flow.uncollapsed_coverage();
  rec.tgen_s = reg.timer("flow.tgen").seconds();
  rec.compaction_s = reg.timer("flow.compaction").seconds();
  rec.procedure_s = reg.timer("procedure").seconds();
  rec.reverse_sim_s = reg.timer("reverse_sim").seconds();
  rec.fsm_synth_s = reg.timer("flow.fsm_synth").seconds();
  return rec;
}

std::string render_json(const std::vector<CircuitRecord>& records,
                        unsigned threads, const std::string& label,
                        fault::CollapseMode collapse) {
  std::string out = "{\n  \"schema\": \"wbist.bench.procedure/1\",\n";
  out += "  \"label\": ";
  append_json_string(out, label);
  out += ",\n  \"threads\": " + std::to_string(threads) + ",\n";
  out += "  \"kernel\": ";
  append_json_string(out, sim::active_kernel().name);
  out += ",\n  \"kernel_words\": " +
         std::to_string(sim::active_kernel().words);
  out += ",\n  \"collapse\": ";
  append_json_string(out, collapse_name(collapse));
  out += ",\n";
  out += "  \"circuits\": [";
  char buf[64];
  for (std::size_t k = 0; k < records.size(); ++k) {
    const CircuitRecord& r = records[k];
    out += k == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    append_json_string(out, r.name);
    std::snprintf(buf, sizeof buf, ", \"wall_s\": %.6f", r.wall_s);
    out += buf;
    out += ", \"peak_rss_kib\": " + std::to_string(r.peak_rss_kib);
    std::snprintf(buf, sizeof buf, ", \"fault_efficiency\": %.6f",
                  r.fault_efficiency);
    out += buf;
    out += ",\n     \"t_length\": " + std::to_string(r.row.t_length);
    out += ", \"t_detected\": " + std::to_string(r.row.t_detected);
    out += ", \"sessions\": " + std::to_string(r.row.n_seq);
    out += ", \"sessions_before_prune\": " +
           std::to_string(r.omega_before_prune);
    out += ", \"subsequences\": " + std::to_string(r.row.n_subs);
    out += ", \"max_subsequence_len\": " + std::to_string(r.row.max_len);
    out += ", \"fsms\": " + std::to_string(r.row.n_fsms);
    out += ", \"fsm_outputs\": " + std::to_string(r.row.n_fsm_outputs);
    out += ",\n     \"assignments_tried\": " +
           std::to_string(r.stats.assignments_tried);
    out += ", \"sample_rejections\": " +
           std::to_string(r.stats.sample_rejections);
    out += ", \"full_simulations\": " +
           std::to_string(r.stats.full_simulations);
    out += ", \"good_machine_sims\": " +
           std::to_string(r.stats.good_machine_sims);
    out += ",\n     \"kernel_cycles\": " + std::to_string(r.kernel_cycles);
    out += ", \"fault_cycles\": " + std::to_string(r.fault_cycles);
    out += ", \"trace_cycles\": " + std::to_string(r.trace_cycles);
    out += ",\n     \"fault_list_size\": " +
           std::to_string(r.fault_list_size);
    out += ", \"uncollapsed_faults\": " +
           std::to_string(r.uncollapsed_faults);
    out += ", \"uncollapsed_detected\": " +
           std::to_string(r.uncollapsed_detected);
    std::snprintf(buf, sizeof buf, ", \"uncollapsed_coverage\": %.6f",
                  r.uncollapsed_coverage);
    out += buf;
    std::snprintf(buf, sizeof buf, ",\n     \"tgen_s\": %.6f", r.tgen_s);
    out += buf;
    std::snprintf(buf, sizeof buf, ", \"compaction_s\": %.6f",
                  r.compaction_s);
    out += buf;
    std::snprintf(buf, sizeof buf, ", \"procedure_s\": %.6f", r.procedure_s);
    out += buf;
    std::snprintf(buf, sizeof buf, ", \"reverse_sim_s\": %.6f",
                  r.reverse_sim_s);
    out += buf;
    std::snprintf(buf, sizeof buf, ", \"fsm_synth_s\": %.6f", r.fsm_synth_s);
    out += buf;
    out += "}";
  }
  out += records.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

int usage() {
  std::fputs(
      "usage: wbist_bench [--out <path>] [--circuits a,b,c] [--threads N]\n"
      "                   [--label <string>] [--collapse none|equivalence|"
      "dominance]\n"
      "                   [--trace-json <path>] [--provenance-jsonl <path>]\n"
      "runs the full flow per circuit and writes BENCH_procedure.json\n"
      "(schema wbist.bench.procedure/1); default circuits are the fast\n"
      "Table-6 subset, default out is BENCH_procedure.json;\n"
      "--trace-json records a Chrome/Perfetto trace of the whole run,\n"
      "--provenance-jsonl streams per-fault detection provenance\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_procedure.json";
  std::string label = "procedure";
  // Fast Table-6 subset: every circuit that finishes in roughly a second,
  // so the default run stays a smoke-sized probe. Larger circuits (s641,
  // s1423, s5378, ...) are opt-in via --circuits.
  std::string circuits_arg = "s27,s208,s298,s344,s382,s386,s400,s444,s526";
  unsigned threads = 0;
  fault::CollapseMode collapse = fault::CollapseMode::kEquivalence;

  // Position-independent observability options, stripped before the
  // flag loop below (shared helper with the wbist front end).
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string trace_path;
  std::string provenance_path;
  if (util::extract_option(args, "--trace-json", trace_path) ==
          util::ExtractResult::kMissingValue ||
      util::extract_option(args, "--provenance-jsonl", provenance_path) ==
          util::ExtractResult::kMissingValue) {
    std::fprintf(stderr,
                 "wbist_bench: --trace-json / --provenance-jsonl need a "
                 "path\n");
    return 2;
  }

  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "wbist_bench: %s needs a value\n", flag);
        return nullptr;
      }
      return args[++i].c_str();
    };
    if (args[i] == "--out") {
      const char* v = need_value("--out");
      if (v == nullptr) return 2;
      out_path = v;
    } else if (args[i] == "--circuits") {
      const char* v = need_value("--circuits");
      if (v == nullptr) return 2;
      circuits_arg = v;
    } else if (args[i] == "--threads") {
      const char* v = need_value("--threads");
      if (v == nullptr) return 2;
      // A count, 0 = all cores: no sign, no trailing text, no wrap-around.
      const char* end = v + std::strlen(v);
      const auto [ptr, ec] = std::from_chars(v, end, threads);
      if (ec != std::errc() || ptr != end) return usage();
    } else if (args[i] == "--label") {
      const char* v = need_value("--label");
      if (v == nullptr) return 2;
      label = v;
    } else if (args[i] == "--collapse") {
      const char* v = need_value("--collapse");
      if (v == nullptr) return 2;
      if (std::strcmp(v, "none") == 0) {
        collapse = fault::CollapseMode::kNone;
      } else if (std::strcmp(v, "equivalence") == 0) {
        collapse = fault::CollapseMode::kEquivalence;
      } else if (std::strcmp(v, "dominance") == 0) {
        collapse = fault::CollapseMode::kDominance;
      } else {
        return usage();
      }
    } else {
      return usage();
    }
  }

  if (!trace_path.empty()) util::TraceRegistry::global().start();
  if (!provenance_path.empty()) {
    try {
      util::provenance().open(provenance_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "wbist_bench: %s\n", e.what());
      return 1;
    }
  }

  std::vector<std::string> names;
  for (const std::string_view part : util::split(circuits_arg, ','))
    if (!part.empty()) names.emplace_back(part);
  if (names.empty()) return usage();

  std::vector<CircuitRecord> records;
  try {
    for (const std::string& name : names) {
      std::printf("%s ...\n", name.c_str());
      std::fflush(stdout);
      records.push_back(run_circuit(name, threads, collapse));
      const CircuitRecord& r = records.back();
      std::printf(
          "%s: f.e. %.1f%%, %zu sessions, %.2fs "
          "(tgen %.2f, procedure %.2f), peak RSS %ld KiB\n",
          r.name.c_str(), 100.0 * r.fault_efficiency, r.row.n_seq, r.wall_s,
          r.tgen_s, r.procedure_s, r.peak_rss_kib);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wbist_bench: %s\n", e.what());
    return 1;
  }

  const std::string json = render_json(records, threads, label, collapse);
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "wbist_bench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s (%zu circuits)\n", out_path.c_str(), records.size());

  util::provenance().close();
  if (!trace_path.empty()) {
    util::TraceRegistry::global().stop();
    try {
      util::TraceRegistry::global().write_json(trace_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "wbist_bench: %s\n", e.what());
      return 1;
    }
  }
  return 0;
}
