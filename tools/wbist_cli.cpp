// wbist — command-line front end for the weighted-BIST library.
//
//   wbist list                          registry circuits
//   wbist info <circuit>                structure + fault counts
//   wbist emit <circuit> [out.bench]    write the netlist
//   wbist tgen <circuit> [out.seq]      deterministic sequence + compaction
//   wbist flow <circuit>                full method, Table-6 style row
//   wbist fsim <circuit> <seq-file>     fault-simulate a sequence file
//   wbist synth <circuit> [out.bench]   flow + Figure-1 generator emission
//   wbist obs <circuit>                 observation-point tradeoff table
//   wbist serve --socket <path>|--tcp <port>   persistent daemon
//   wbist submit --socket <path>|--tcp <port> <job> [args]   daemon client
//   wbist stats --socket <path>|--tcp <port>   daemon stats snapshot
//                                       (JSON; --prom renders Prometheus
//                                       text exposition; --flight dumps the
//                                       flight recorder)
//   wbist top <status.json>             refreshing campaign progress view
//   wbist campaign <circuit> [seq]      sharded multi-process fault-sim
//                                       campaign with checkpoint/resume
//   wbist campaign-worker               internal: one campaign worker
//                                       process (frames on stdin/stdout)
//
// Every subcommand accepts these position-independent options (both
// `--flag path` and `--flag=path` forms, anywhere on the line):
//   --metrics-json <path>     dump the util::metrics registry (per-phase wall
//                             times, kernel/trace cycle counts, series) as JSON
//   --trace-json <path>       record a Chrome/Perfetto trace of the run
//                             (util::trace spans; load at ui.perfetto.dev)
//   --provenance-jsonl <path> stream per-fault detection provenance records
//   --vcd <path>              (tgen only) good-machine waveform of the final
//                             sequence
// All four artifact paths resolve against WBIST_OUT_DIR (util::out_path),
// and all four are observation-only: the command's results are
// bit-identical with and without them.
//
// Circuits may also be arbitrary `.bench` files: any argument containing
// '/' or ending in ".bench" is loaded from disk instead of the registry.
//
// The one-shot subcommands and the daemon share the same re-entrant
// library calls (core/service.h) over immutable compiled circuits
// (core/artifact_cache.h), so daemon results are bit-identical to CLI
// results — the CLI only appends its wall-clock suffixes.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "circuits/registry.h"
#include "core/artifact_cache.h"
#include "core/campaign.h"
#include "core/flow.h"
#include "core/generator_hw.h"
#include "core/obs_points.h"
#include "core/service.h"
#include "fault/fault_list.h"
#include "fault/fault_sim.h"
#include "netlist/bench_io.h"
#include "serve/campaign_runner.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/good_sim.h"
#include "sim/kernel.h"
#include "sim/sequence_io.h"
#include "sim/vcd.h"
#include "tgen/compaction.h"
#include "tgen/random_tgen.h"
#include "util/cli_opts.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/out_dir.h"
#include "util/provenance.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/timer.h"
#include "util/trace.h"

namespace {

using namespace wbist;

/// Optional --vcd destination for `tgen`, stripped in main() like the other
/// position-independent options (already WBIST_OUT_DIR-resolved).
std::string g_vcd_path;

/// Optional --result-json destination for `fsim` and `campaign`: the
/// canonical per-fault detection document (core::render_fault_sim_result_json)
/// CI diffs byte for byte between the two paths. Stripped in main(),
/// WBIST_OUT_DIR-resolved.
std::string g_result_json_path;

/// --metrics-json / --trace-json destinations, stripped in main(). Globals
/// (not main() locals) because `submit --observe` redirects them: when the
/// daemon answered with a wbist.obs/1 block, the *server-side* observation
/// is written to these paths instead of the client's own (empty) registry,
/// and the paths are cleared so main()'s epilogue does not overwrite them.
std::string g_metrics_path;
std::string g_trace_path;

/// argv[0], the fallback when /proc/self/exe is unavailable (campaign
/// workers are spawned from this binary).
const char* g_argv0 = "wbist";

bool is_bench_path(const std::string& name) {
  return name.find('/') != std::string::npos ||
         (name.size() > 6 && name.substr(name.size() - 6) == ".bench");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The path stem, matching netlist::read_bench_file's circuit naming, so a
/// circuit loaded by path keeps the same name whether it is compiled here
/// or inlined into a daemon request.
std::string path_stem(const std::string& path) {
  std::string name = path;
  if (const std::size_t slash = name.find_last_of('/');
      slash != std::string::npos)
    name = name.substr(slash + 1);
  if (const std::size_t dot = name.find_last_of('.'); dot != std::string::npos)
    name = name.substr(0, dot);
  return name;
}

core::CircuitSpec spec_for(const std::string& name) {
  core::CircuitSpec spec;
  if (is_bench_path(name)) {
    spec.bench_text = read_file(name);
    spec.display_name = path_stem(name);
  } else {
    spec.registry_name = name;
  }
  return spec;
}

std::shared_ptr<const core::CompiledCircuit> compile_circuit(
    const std::string& name) {
  return core::CompiledCircuit::compile(spec_for(name));
}

netlist::Netlist load_circuit(const std::string& name) {
  if (is_bench_path(name)) return netlist::read_bench_file(name);
  return circuits::circuit_by_name(name);
}

int cmd_list() {
  util::Table t;
  t.header({"circuit", "PIs", "POs", "FFs", "gates", "kind"});
  for (const auto& info : circuits::known_circuits())
    t.row({info.name, std::to_string(info.profile.n_pi),
           std::to_string(info.profile.n_po),
           std::to_string(info.profile.n_ff),
           std::to_string(info.profile.n_gates),
           info.fetched      ? "real ISCAS-89 (fetched)"
           : info.synthetic ? "synthetic analog"
                            : "real ISCAS-89"});
  std::fputs(t.render().c_str(), stdout);
  return 0;
}

int cmd_info(const std::string& name) {
  const auto cc = compile_circuit(name);
  std::fputs(core::info_report(*cc).c_str(), stdout);
  return 0;
}

int cmd_emit(const std::string& name, const std::string& out) {
  const auto nl = load_circuit(name);
  netlist::write_bench_file(nl, out);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int cmd_tgen(const std::string& name, const std::string& out) {
  const auto cc = compile_circuit(name);
  util::Timer timer;
  const auto r = core::run_tgen_job(*cc);
  std::printf("%s, %.1fs\n", r.summary.c_str(), timer.seconds());
  sim::write_sequence_file(r.sequence, out,
                           cc->name() + " deterministic test sequence");
  std::printf("wrote %s\n", out.c_str());
  if (!g_vcd_path.empty()) {
    sim::GoodSimulator good(cc->netlist());
    sim::VcdWriter vcd(g_vcd_path, cc->netlist());
    for (std::size_t u = 0; u < r.sequence.length(); ++u) {
      good.step(r.sequence.row(u));
      vcd.sample(good);
    }
    std::printf("wrote %s\n", g_vcd_path.c_str());
  }
  return 0;
}

int cmd_flow(const std::string& name) {
  const auto cc = compile_circuit(name);
  util::Timer timer;
  const auto r = core::run_flow_job(*cc);
  std::fputs(r.output.c_str(), stdout);
  std::printf("(%.1fs)\n", timer.seconds());
  return 0;
}

void write_text_file(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary);
  if (!out || !out.write(text.data(),
                         static_cast<std::streamsize>(text.size())))
    throw std::runtime_error("cannot write '" + path + "'");
}

int cmd_fsim(const std::string& name, const std::string& seq_path) {
  const auto cc = compile_circuit(name);
  const auto seq = sim::read_sequence_file(seq_path);
  const auto r = core::run_fault_sim_job(*cc, seq);
  std::fputs(r.output.c_str(), stdout);
  if (!g_result_json_path.empty()) {
    write_text_file(g_result_json_path,
                    core::render_fault_sim_result_json(r.detail));
    std::fprintf(stderr, "wrote %s\n", g_result_json_path.c_str());
  }
  return 0;
}

int cmd_synth(const std::string& name, const std::string& out) {
  const auto cc = compile_circuit(name);
  const fault::FaultSimulator sim(cc->netlist(), cc->faults(), cc->cones());
  const auto flow = core::run_flow(sim, cc->name());
  if (flow.pruned.omega.empty()) {
    std::printf("no weight assignments selected\n");
    return 1;
  }
  const auto hw = core::build_generator(flow.pruned.omega,
                                        flow.procedure.sequence_length);
  netlist::write_bench_file(hw.netlist, out);
  const auto stats = hw.stats();
  std::printf("%s: %zu sessions x %zu cycles, %zu FSMs, %zu gates, %zu FFs\n",
              out.c_str(), hw.session_count, hw.session_length,
              hw.fsms.fsm_count(), stats.logic_gates, stats.flip_flops);
  return 0;
}

int cmd_obs(const std::string& name) {
  const auto cc = compile_circuit(name);
  const fault::FaultSimulator sim(cc->netlist(), cc->faults(), cc->cones());
  const auto flow = core::run_flow(sim, cc->name());
  std::vector<fault::FaultId> targets;
  for (fault::FaultId f = 0; f < cc->faults().size(); ++f)
    if (flow.detection_time[f] != fault::DetectionResult::kUndetected)
      targets.push_back(f);
  core::ObsTradeoffConfig cfg;
  cfg.sequence_length = flow.procedure.sequence_length;
  const auto result = core::observation_point_tradeoff(
      sim, flow.procedure.omega, targets, cfg);
  util::Table t;
  t.header({"seq", "sub", "len", "f.e.", "obs", "f.e."});
  for (const auto& row : result.rows)
    t.row({std::to_string(row.n_seq), std::to_string(row.n_subs),
           std::to_string(row.max_len), util::fixed(row.fe_before, 1),
           std::to_string(row.n_obs), util::fixed(row.fe_after, 1)});
  std::fputs(t.render().c_str(), stdout);
  return 0;
}

// ---------------------------------------------------------------------------
// serve / submit

serve::Server* g_server = nullptr;

void on_signal(int) {
  // Server::request_stop is async-signal-safe by contract (one atomic
  // store plus one write to the self-pipe).
  if (g_server != nullptr) g_server->request_stop();
}

/// Fatal-signal path: dump the daemon's flight recorder to stderr (see
/// Server::dump_flight — write(2) only, no locks, no allocation), then
/// re-raise with the default disposition so the crash still produces a core
/// and the right wait status.
void on_fatal_signal(int sig) {
  if (g_server != nullptr) {
    static const char banner[] =
        "wbist serve: fatal signal — recent requests (oldest first):\n";
    [[maybe_unused]] ssize_t ignored =
        ::write(STDERR_FILENO, banner, sizeof banner - 1);
    g_server->dump_flight(STDERR_FILENO);
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

/// Parse an integral option (both `--flag N` and `--flag=N`). Returns false
/// after printing an error; `found` reports presence.
bool take_int_option(std::vector<std::string>& args, std::string_view flag,
                     long long& value, bool& found) {
  std::string text;
  const util::ExtractResult r = util::extract_option(args, flag, text);
  found = r == util::ExtractResult::kFound;
  if (r == util::ExtractResult::kMissingValue) {
    std::fprintf(stderr, "wbist: %.*s needs a value\n",
                 static_cast<int>(flag.size()), flag.data());
    return false;
  }
  if (!found) return true;
  try {
    std::size_t used = 0;
    value = std::stoll(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
  } catch (const std::exception&) {
    std::fprintf(stderr, "wbist: %.*s: '%s' is not a number\n",
                 static_cast<int>(flag.size()), flag.data(), text.c_str());
    return false;
  }
  return true;
}

/// Shared --socket/--tcp endpoint parsing for serve and submit. Returns
/// false (after a usage message) unless exactly one endpoint was given.
bool take_endpoint(std::vector<std::string>& args, std::string& unix_path,
                   long long& tcp_port, bool& tcp_given) {
  std::string socket_text;
  if (util::extract_option(args, "--socket", socket_text) ==
      util::ExtractResult::kMissingValue) {
    std::fprintf(stderr, "wbist: --socket needs a path\n");
    return false;
  }
  unix_path = socket_text;
  tcp_port = -1;
  if (!take_int_option(args, "--tcp", tcp_port, tcp_given)) return false;
  if (unix_path.empty() == !tcp_given) {
    std::fprintf(stderr,
                 "wbist: give exactly one of --socket <path> and --tcp "
                 "<port>\n");
    return false;
  }
  if (tcp_given && (tcp_port < 0 || tcp_port > 65535)) {
    std::fprintf(stderr, "wbist: --tcp port out of range\n");
    return false;
  }
  return true;
}

int cmd_serve(std::vector<std::string> args) {
  serve::ServerConfig cfg;
  long long tcp_port = -1;
  bool tcp_given = false;
  if (!take_endpoint(args, cfg.unix_path, tcp_port, tcp_given)) return 2;
  if (tcp_given) cfg.tcp_port = static_cast<int>(tcp_port);

  long long value = 0;
  bool found = false;
  if (!take_int_option(args, "--serve-threads", value, found)) return 2;
  if (found && value > 0) cfg.handler_threads = static_cast<unsigned>(value);
  if (!take_int_option(args, "--worker-threads", value, found)) return 2;
  if (found && value > 0) cfg.worker_threads = static_cast<unsigned>(value);
  if (!take_int_option(args, "--cache-bytes", value, found)) return 2;
  if (found && value > 0) cfg.cache_bytes = static_cast<std::size_t>(value);
  if (!take_int_option(args, "--queue-depth", value, found)) return 2;
  if (found && value > 0) cfg.queue_depth = static_cast<std::size_t>(value);
  if (!take_int_option(args, "--max-pending", value, found)) return 2;
  if (found && value > 0)
    cfg.max_pending_conns = static_cast<std::size_t>(value);
  if (!take_int_option(args, "--idle-timeout", value, found)) return 2;
  if (found) cfg.idle_timeout_ms = static_cast<int>(value);
  if (!take_int_option(args, "--stall-timeout", value, found)) return 2;
  if (found) cfg.stall_timeout_ms = static_cast<int>(value);
  if (!take_int_option(args, "--request-timeout", value, found)) return 2;
  if (found && value > 0) cfg.request_timeout_ms = static_cast<int>(value);
  if (!take_int_option(args, "--flight-entries", value, found)) return 2;
  if (found && value > 0) cfg.flight_entries = static_cast<std::size_t>(value);
  if (!args.empty()) {
    std::fprintf(stderr, "wbist: serve: unexpected argument '%s'\n",
                 args[0].c_str());
    return 2;
  }

  const std::string unix_path = cfg.unix_path;
  serve::Server server(std::move(cfg));
  server.start();
  g_server = &server;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGSEGV, on_fatal_signal);
  std::signal(SIGABRT, on_fatal_signal);
  std::signal(SIGBUS, on_fatal_signal);

  if (server.port() >= 0)
    std::printf("wbist serve: listening on 127.0.0.1:%d\n", server.port());
  else
    std::printf("wbist serve: listening on %s\n", unix_path.c_str());
  std::fflush(stdout);

  server.wait();
  g_server = nullptr;
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGSEGV, SIG_DFL);
  std::signal(SIGABRT, SIG_DFL);
  std::signal(SIGBUS, SIG_DFL);

  const auto stats = server.cache().stats();
  std::fprintf(stderr,
               "wbist serve: stopped (cache: %llu hits, %llu misses, "
               "%llu evictions, %zu resident)\n",
               static_cast<unsigned long long>(stats.hits),
               static_cast<unsigned long long>(stats.misses),
               static_cast<unsigned long long>(stats.evictions),
               stats.entries);
  return 0;
}

/// Append `"key":"value"` (JSON-escaped) to an in-progress object body.
void request_field(std::string& json, std::string_view key,
                   std::string_view value) {
  if (json.size() > 1) json += ',';
  util::append_json_string(json, key);
  json += ':';
  util::append_json_string(json, value);
}

/// Append `"key":N` (a bare JSON number) to an in-progress object body.
void request_field_int(std::string& json, std::string_view key,
                       long long value) {
  if (json.size() > 1) json += ',';
  util::append_json_string(json, key);
  json += ':';
  json += std::to_string(value);
}

bool take_flag(std::vector<std::string>& args, std::string_view flag);

/// Render a wbist.obs/1 block as a (tiny) wbist.trace/1 Chrome trace, so
/// the server-side spans of one observed job load in Perfetto and fold
/// through tools/trace_summary.py exactly like a local --trace-json run.
std::string obs_to_trace_json(const util::JsonValue& obs) {
  std::size_t n_spans = 0;
  if (const util::JsonValue* spans = obs.get("spans"))
    n_spans = spans->as_array().size();
  // otherData carries the wbist.trace/1 required keys (one server worker
  // thread ran the job; nothing is ever dropped from an obs block).
  std::string out =
      "{\"schema\":\"wbist.trace/1\",\"displayTimeUnit\":\"ms\","
      "\"otherData\":{\"source\":\"wbist.obs/1\",\"threads\":1,\"events\":" +
      std::to_string(n_spans) + ",\"dropped_events\":0},\"traceEvents\":[";
  bool first = true;
  if (const util::JsonValue* spans = obs.get("spans")) {
    for (const util::JsonValue& s : spans->as_array()) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":";
      util::append_json_string(out, s.get_string("name", "?"));
      out += ",\"ph\":\"X\",\"cat\":\"obs\",\"pid\":1,\"tid\":1,\"ts\":" +
             std::to_string(s.get_int("start_us", 0)) +
             ",\"dur\":" + std::to_string(s.get_int("dur_us", 0)) + "}";
    }
  }
  out += "]}\n";
  return out;
}

/// Print the wbist.obs/1 block human-readably on stderr (stdout must stay
/// bit-identical to an unobserved run — CI gates this with cmp) and write
/// the client-side artifacts when --trace-json/--metrics-json were given.
int report_observation(const util::JsonValue& obs,
                       const std::string& response_text) {
  if (const util::JsonValue* spans = obs.get("spans"))
    for (const util::JsonValue& s : spans->as_array())
      std::fprintf(stderr, "obs: span %-12s %10.3f ms (at +%.3f ms)\n",
                   s.get_string("name", "?").c_str(),
                   static_cast<double>(s.get_int("dur_us", 0)) / 1000.0,
                   static_cast<double>(s.get_int("start_us", 0)) / 1000.0);
  if (const util::JsonValue* counters = obs.get("counters"))
    for (const auto& [key, v] : counters->as_object())
      std::fprintf(stderr, "obs: %-24s %lld\n", key.c_str(),
                   static_cast<long long>(v.as_int()));
  if (const util::JsonValue* notes = obs.get("notes"))
    for (const auto& [key, v] : notes->as_object())
      std::fprintf(stderr, "obs: %-24s %s\n", key.c_str(),
                   v.as_string().c_str());
  int rc = 0;
  try {
    if (!g_trace_path.empty()) {
      // Re-extract the obs block verbatim-ish: render spans as a Chrome
      // trace. The raw daemon response goes to --metrics-json.
      write_text_file(g_trace_path, obs_to_trace_json(obs));
      std::fprintf(stderr, "wrote %s\n", g_trace_path.c_str());
    }
    if (!g_metrics_path.empty()) {
      write_text_file(g_metrics_path, response_text + "\n");
      std::fprintf(stderr, "wrote %s\n", g_metrics_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wbist: %s\n", e.what());
    rc = 1;
  }
  // Suppress main()'s epilogue: the artifacts now carry the server-side
  // observation, not this client's own (empty) trace/metrics.
  g_trace_path.clear();
  g_metrics_path.clear();
  return rc;
}

int cmd_submit(std::vector<std::string> args) {
  serve::Endpoint ep;
  long long tcp_port = -1;
  bool tcp_given = false;
  if (!take_endpoint(args, ep.unix_path, tcp_port, tcp_given)) return 2;
  if (tcp_given) ep.tcp_port = static_cast<int>(tcp_port);

  std::string collapse;
  if (util::extract_option(args, "--collapse", collapse) ==
      util::ExtractResult::kMissingValue) {
    std::fprintf(stderr, "wbist: --collapse needs a mode\n");
    return 2;
  }

  long long priority = 0, deadline_ms = 0, timeout_ms = 0;
  bool priority_given = false, deadline_given = false, timeout_given = false;
  if (!take_int_option(args, "--priority", priority, priority_given))
    return 2;
  if (!take_int_option(args, "--deadline-ms", deadline_ms, deadline_given))
    return 2;
  if (deadline_given && deadline_ms <= 0) {
    std::fprintf(stderr, "wbist: --deadline-ms must be positive\n");
    return 2;
  }
  if (!take_int_option(args, "--timeout", timeout_ms, timeout_given))
    return 2;
  if (timeout_given && timeout_ms <= 0) {
    std::fprintf(stderr, "wbist: --timeout must be positive (milliseconds)\n");
    return 2;
  }
  serve::ClientOptions copts;
  if (timeout_given) {
    copts.connect_timeout_ms = static_cast<int>(timeout_ms);
    copts.io_timeout_ms = static_cast<int>(timeout_ms);
  }
  const bool observe = take_flag(args, "--observe");

  if (args.empty()) {
    std::fprintf(stderr,
                 "usage: wbist submit --socket <path>|--tcp <port> "
                 "[--priority N] [--deadline-ms N] [--timeout MS] "
                 "[--observe] "
                 "<ping|shutdown|metrics|info|flow|tgen|fsim> [circuit] "
                 "[args]\n");
    return 2;
  }
  const std::string cli_job = args[0];
  const std::string job = cli_job == "fsim" ? "fault-sim" : cli_job;

  std::string request = "{";
  request_field(request, "schema", serve::kSchema);
  request_field(request, "job", job);
  if (!collapse.empty()) request_field(request, "collapse", collapse);
  if (priority_given) request_field_int(request, "priority", priority);
  if (deadline_given) request_field_int(request, "deadline_ms", deadline_ms);
  if (observe) {
    if (request.size() > 1) request += ',';
    request += "\"observe\":true";
  }

  const bool needs_circuit =
      job == "info" || job == "flow" || job == "tgen" || job == "fault-sim";
  std::string tgen_out;
  if (needs_circuit) {
    if (args.size() < 2) {
      std::fprintf(stderr, "wbist: submit %s needs a circuit\n",
                   cli_job.c_str());
      return 2;
    }
    const std::string& name = args[1];
    if (is_bench_path(name)) {
      // Inline the bench source; the daemon never reads client paths. The
      // stem name keeps outputs identical to compiling the file locally.
      request_field(request, "bench", read_file(name));
      request_field(request, "name", path_stem(name));
    } else {
      request_field(request, "circuit", name);
    }
    if (job == "fault-sim") {
      if (args.size() < 3) {
        std::fprintf(stderr, "wbist: submit fsim needs a sequence file\n");
        return 2;
      }
      request_field(request, "sequence", read_file(args[2]));
    } else if (job == "tgen" && args.size() > 2) {
      tgen_out = args[2];
    }
  }
  request += '}';

  // Transport failures get exit codes distinct from daemon-reported errors
  // so scripts can tell "retry later" from "fix the request": 4 = timed
  // out, 5 = no daemon reachable, 6 = framing violation.
  std::string response_text;
  try {
    response_text = serve::submit(ep, request, copts);
  } catch (const serve::TimeoutError& e) {
    std::fprintf(stderr, "wbist: %s\n", e.what());
    return 4;
  } catch (const serve::ConnectError& e) {
    std::fprintf(stderr, "wbist: %s\n", e.what());
    return 5;
  } catch (const serve::ProtocolError& e) {
    std::fprintf(stderr, "wbist: %s\n", e.what());
    return 6;
  }
  const util::JsonValue response = util::json_parse(response_text);
  const long long exit_code = response.get_int("exit", 1);
  if (!response.get_bool("ok", false)) {
    const std::string error = response.get_string("error", "daemon error");
    const long long retry = response.get_int("retry_after_ms", 0);
    const long long depth = response.get_int("queue_depth", -1);
    const long long cap = response.get_int("queue_capacity", -1);
    if (retry > 0 && depth >= 0 && cap >= 0)
      // One structured line with everything a backoff loop needs: how full
      // the daemon was and when to come back.
      std::fprintf(stderr, "wbist: %s (queue %lld/%lld, retry in %lldms)\n",
                   error.c_str(), depth, cap, retry);
    else if (retry > 0)
      std::fprintf(stderr, "wbist: %s (retry in %lldms)\n", error.c_str(),
                   retry);
    else
      std::fprintf(stderr, "wbist: %s\n", error.c_str());
    return static_cast<int>(exit_code);
  }
  if (observe) {
    if (const util::JsonValue* obs = response.get("obs")) {
      if (const int orc = report_observation(*obs, response_text); orc != 0)
        return orc;
    } else {
      std::fprintf(stderr,
                   "wbist: daemon returned no observation block (control "
                   "jobs and older daemons do not observe)\n");
    }
  }
  if (job == "metrics") {
    // The metrics payload is a nested JSON document; hand the daemon's
    // response through verbatim so nothing is re-encoded.
    std::printf("%s\n", response_text.c_str());
    return static_cast<int>(exit_code);
  }
  std::fputs(response.get_string("output").c_str(), stdout);
  if (!tgen_out.empty()) {
    const std::string seq_text = response.get_string("sequence");
    std::ofstream out(tgen_out);
    if (!out || !(out << seq_text)) {
      std::fprintf(stderr, "wbist: cannot write '%s'\n", tgen_out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", tgen_out.c_str());
  }
  return static_cast<int>(exit_code);
}

// ---------------------------------------------------------------------------
// stats / top

/// Prometheus metric-name charset: [a-zA-Z0-9_:]; everything else becomes
/// '_' (so "serve.run_us.flow" -> "serve_run_us_flow").
std::string prom_name(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s)
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
            c == ':')
               ? c
               : '_';
  return out;
}

/// Render a wbist.stats/1 document in Prometheus text exposition format:
/// gauges for queue/cache/flight state, counters for the monotonic counter
/// registry, and summaries (quantile-labelled series + _sum + _count) for
/// the histograms.
std::string render_prometheus(const util::JsonValue& stats) {
  std::string out;
  char buf[192];
  const auto emit = [&](const std::string& name, const char* type, double v) {
    out += "# TYPE " + name + " " + type + "\n";
    std::snprintf(buf, sizeof buf, "%s %.17g\n", name.c_str(), v);
    out += buf;
  };
  emit("wbist_uptime_seconds", "gauge",
       stats.get("uptime_s") != nullptr ? stats.get("uptime_s")->as_number()
                                        : 0.0);
  if (const util::JsonValue* q = stats.get("queue"))
    for (const auto& [key, v] : q->as_object())
      emit("wbist_queue_" + prom_name(key), "gauge", v.as_number());
  if (const util::JsonValue* c = stats.get("cache"))
    for (const auto& [key, v] : c->as_object())
      emit("wbist_cache_" + prom_name(key), "gauge", v.as_number());
  if (const util::JsonValue* f = stats.get("flight"))
    for (const auto& [key, v] : f->as_object())
      emit("wbist_flight_" + prom_name(key), "gauge", v.as_number());
  if (const util::JsonValue* counters = stats.get("counters"))
    for (const auto& [key, v] : counters->as_object())
      emit("wbist_" + prom_name(key) + "_total", "counter", v.as_number());
  if (const util::JsonValue* hists = stats.get("histograms"))
    for (const auto& [key, h] : hists->as_object()) {
      const std::string base = "wbist_" + prom_name(key);
      out += "# TYPE " + base + " summary\n";
      const auto quantile = [&](const char* q, const char* field) {
        std::snprintf(buf, sizeof buf, "%s{quantile=\"%s\"} %.17g\n",
                      base.c_str(), q,
                      h.get(field) != nullptr ? h.get(field)->as_number()
                                              : 0.0);
        out += buf;
      };
      quantile("0.5", "p50");
      quantile("0.9", "p90");
      quantile("0.99", "p99");
      std::snprintf(buf, sizeof buf, "%s_sum %.17g\n%s_count %.17g\n",
                    base.c_str(),
                    h.get("sum") != nullptr ? h.get("sum")->as_number() : 0.0,
                    base.c_str(),
                    h.get("count") != nullptr ? h.get("count")->as_number()
                                              : 0.0);
      out += buf;
    }
  return out;
}

int cmd_stats(std::vector<std::string> args) {
  serve::Endpoint ep;
  long long tcp_port = -1;
  bool tcp_given = false;
  if (!take_endpoint(args, ep.unix_path, tcp_port, tcp_given)) return 2;
  if (tcp_given) ep.tcp_port = static_cast<int>(tcp_port);
  const bool prom = take_flag(args, "--prom");
  const bool flight = take_flag(args, "--flight");
  if (prom && flight) {
    std::fprintf(stderr, "wbist: --prom renders stats, not the flight ring\n");
    return 2;
  }
  long long timeout_ms = 0;
  bool timeout_given = false;
  if (!take_int_option(args, "--timeout", timeout_ms, timeout_given))
    return 2;
  serve::ClientOptions copts;
  if (timeout_given && timeout_ms > 0) {
    copts.connect_timeout_ms = static_cast<int>(timeout_ms);
    copts.io_timeout_ms = static_cast<int>(timeout_ms);
  }
  if (!args.empty()) {
    std::fprintf(stderr, "wbist: stats: unexpected argument '%s'\n",
                 args[0].c_str());
    return 2;
  }

  std::string request = "{";
  request_field(request, "schema", serve::kSchema);
  request_field(request, "job", flight ? "flight" : "stats");
  request += '}';
  std::string response_text;
  try {
    response_text = serve::submit(ep, request, copts);
  } catch (const serve::TimeoutError& e) {
    std::fprintf(stderr, "wbist: %s\n", e.what());
    return 4;
  } catch (const serve::ConnectError& e) {
    std::fprintf(stderr, "wbist: %s\n", e.what());
    return 5;
  } catch (const serve::ProtocolError& e) {
    std::fprintf(stderr, "wbist: %s\n", e.what());
    return 6;
  }
  const util::JsonValue response = util::json_parse(response_text);
  if (!response.get_bool("ok", false)) {
    std::fprintf(stderr, "wbist: %s\n",
                 response.get_string("error", "daemon error").c_str());
    return static_cast<int>(response.get_int("exit", 1));
  }
  if (prom) {
    const util::JsonValue* stats = response.get("stats");
    if (stats == nullptr) {
      std::fprintf(stderr, "wbist: daemon response carries no stats block\n");
      return 6;
    }
    std::fputs(render_prometheus(*stats).c_str(), stdout);
    return 0;
  }
  // JSON mode: hand the daemon's response through verbatim (like `submit
  // metrics`), so nothing is re-encoded.
  std::printf("%s\n", response_text.c_str());
  return 0;
}

/// One rendered frame of `wbist top`: campaign totals, a progress bar, and
/// a per-worker table, from one wbist.campaign.status/1 snapshot.
std::string render_top(const util::JsonValue& st) {
  char buf[256];
  const long long total = st.get_int("shards_total", 0);
  const long long done_n = st.get_int("shards_done", 0);
  const double frac =
      total > 0 ? static_cast<double>(done_n) / static_cast<double>(total)
                : 0.0;
  std::string out = "campaign " + st.get_string("campaign", "?") +
                    "   circuit " + st.get_string("circuit", "?") +
                    "   collapse " + st.get_string("collapse", "?") + "\n";
  constexpr int kBar = 32;
  const int filled = static_cast<int>(frac * kBar + 0.5);
  out += "shards  [";
  for (int i = 0; i < kBar; ++i) out += i < filled ? '#' : '-';
  std::snprintf(buf, sizeof buf, "] %lld/%lld (%.1f%%)", done_n, total,
                frac * 100.0);
  out += buf;
  std::snprintf(buf, sizeof buf, "   %lld resumed, %lld retried\n",
                static_cast<long long>(st.get_int("shards_resumed", 0)),
                static_cast<long long>(st.get_int("shards_retried", 0)));
  out += buf;
  const long long faults = st.get_int("faults", 0);
  const long long detected = st.get_int("detected", 0);
  std::snprintf(buf, sizeof buf,
                "faults  %lld/%lld detected (%.1f%%)   sequence %lld "
                "vectors\n",
                detected, faults,
                faults > 0 ? 100.0 * static_cast<double>(detected) /
                                 static_cast<double>(faults)
                           : 0.0,
                static_cast<long long>(st.get_int("seq_length", 0)));
  out += buf;
  const double eta = st.get("eta_s") != nullptr
                         ? st.get("eta_s")->as_number()
                         : -1.0;
  std::snprintf(buf, sizeof buf,
                "workers %lld spawned, %lld deaths   elapsed %.1fs   ",
                static_cast<long long>(st.get_int("workers_spawned", 0)),
                static_cast<long long>(st.get_int("worker_deaths", 0)),
                st.get("elapsed_s") != nullptr
                    ? st.get("elapsed_s")->as_number()
                    : 0.0);
  out += buf;
  if (st.get_bool("complete", false))
    out += "complete\n";
  else if (eta >= 0.0) {
    std::snprintf(buf, sizeof buf, "eta %.1fs\n", eta);
    out += buf;
  } else {
    out += "eta --\n";
  }
  if (const util::JsonValue* workers = st.get("workers");
      workers != nullptr && !workers->as_array().empty()) {
    out += "\n     pid    shard      kernel_cycles      cycles/s   last_hb\n";
    for (const util::JsonValue& w : workers->as_array()) {
      const long long shard = w.get_int("shard", -1);
      std::snprintf(buf, sizeof buf, "%8lld %8s %18lld %13.3g %8.1fs\n",
                    static_cast<long long>(w.get_int("pid", 0)),
                    shard < 0 ? "-" : std::to_string(shard).c_str(),
                    static_cast<long long>(w.get_int("kernel_cycles", 0)),
                    w.get("cycles_per_s") != nullptr
                        ? w.get("cycles_per_s")->as_number()
                        : 0.0,
                    w.get("last_heartbeat_s") != nullptr
                        ? w.get("last_heartbeat_s")->as_number()
                        : -1.0);
      out += buf;
    }
  }
  return out;
}

int cmd_top(std::vector<std::string> args) {
  const bool once = take_flag(args, "--once");
  long long interval_ms = 1000;
  bool found = false;
  if (!take_int_option(args, "--interval-ms", interval_ms, found)) return 2;
  if (found && interval_ms <= 0) {
    std::fprintf(stderr, "wbist: --interval-ms must be positive\n");
    return 2;
  }
  if (args.size() != 1) {
    std::fprintf(stderr,
                 "usage: wbist top <status.json> [--once] [--interval-ms N]\n");
    return 2;
  }
  const std::string path = args[0];

  bool waiting_notice = false;
  while (true) {
    util::JsonValue st;
    bool have = false;
    try {
      st = util::json_parse(read_file(path));
      have = st.get_string("schema") == "wbist.campaign.status/1";
      if (!have && once) {
        std::fprintf(stderr, "wbist: %s is not a wbist.campaign.status/1 "
                             "snapshot\n",
                     path.c_str());
        return 1;
      }
    } catch (const std::exception& e) {
      // Not written yet (or mid-replace on a filesystem without atomic
      // rename): poll again, or fail fast under --once.
      if (once) {
        std::fprintf(stderr, "wbist: %s\n", e.what());
        return 1;
      }
    }
    if (have) {
      const std::string frame = render_top(st);
      if (!once) std::fputs("\033[H\033[J", stdout);
      std::fputs(frame.c_str(), stdout);
      std::fflush(stdout);
      if (once || st.get_bool("complete", false)) return 0;
    } else if (!once && !waiting_notice) {
      waiting_notice = true;
      std::printf("wbist top: waiting for %s ...\n", path.c_str());
      std::fflush(stdout);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

// ---------------------------------------------------------------------------
// campaign / campaign-worker

bool take_path_option(std::vector<std::string>& args, std::string_view flag,
                      std::string& value);

fault::CollapseMode parse_collapse(const std::string& s) {
  if (s == "none") return fault::CollapseMode::kNone;
  if (s == "equivalence") return fault::CollapseMode::kEquivalence;
  if (s == "dominance") return fault::CollapseMode::kDominance;
  throw std::invalid_argument("unknown collapse mode '" + s + "'");
}

/// Strip every occurrence of a valueless flag; true when it was present.
bool take_flag(std::vector<std::string>& args, std::string_view flag) {
  bool found = false;
  for (auto it = args.begin(); it != args.end();) {
    if (*it == flag) {
      found = true;
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  return found;
}

/// A deterministic random binary sequence in `.seq` text form: `cycles`
/// rows of `width` 0/1 characters from util::Rng(seed). Large-circuit
/// campaigns use this instead of tgen (whose deterministic generation is
/// not the object under test and is slow at s9234+ scale).
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

/// wbist.bench.procedure/1-shaped report for a campaign run, so campaign
/// results flow through the same compare_bench.py regression gate as the
/// procedure bench. Procedure-only fields are omitted (the comparer skips
/// absent warn fields); fault_efficiency here is collapsed detected/total.
std::string render_campaign_bench_json(const std::string& label,
                                       const serve::CampaignOutcome& outcome,
                                       const fault::FaultSet& fs,
                                       fault::CollapseMode collapse,
                                       unsigned workers, double wall_s) {
  const core::FaultSimResult& r = outcome.result;
  std::size_t uncollapsed_detected = 0;
  for (fault::FaultId f = 0; f < r.total(); ++f)
    if (r.detection_time[f] != fault::DetectionResult::kUndetected)
      uncollapsed_detected += fs.represented_size(f);
  const std::size_t uncollapsed_faults = fs.uncollapsed_size();
  const char* collapse_text = collapse == fault::CollapseMode::kNone
                                  ? "none"
                                  : collapse == fault::CollapseMode::kDominance
                                        ? "dominance"
                                        : "equivalence";
  std::string out = "{\n  \"schema\": \"wbist.bench.procedure/1\",\n";
  out += "  \"label\": ";
  util::append_json_string(out, label);
  out += ",\n  \"threads\": " + std::to_string(workers) + ",\n";
  out += "  \"kernel\": ";
  util::append_json_string(out, sim::active_kernel().name);
  out +=
      ",\n  \"kernel_words\": " + std::to_string(sim::active_kernel().words);
  out += ",\n  \"collapse\": ";
  util::append_json_string(out, collapse_text);
  out += ",\n  \"circuits\": [\n    {\"name\": ";
  util::append_json_string(out, r.circuit);
  char buf[64];
  std::snprintf(buf, sizeof buf, ", \"wall_s\": %.6f", wall_s);
  out += buf;
  std::snprintf(
      buf, sizeof buf, ", \"fault_efficiency\": %.6f",
      r.total() == 0 ? 1.0
                     : static_cast<double>(r.detected) /
                           static_cast<double>(r.total()));
  out += buf;
  out += ",\n     \"t_length\": " + std::to_string(r.seq_length);
  out += ", \"t_detected\": " + std::to_string(r.detected);
  out += ",\n     \"kernel_cycles\": " +
         std::to_string(outcome.kernel_cycles);
  out += ", \"fault_cycles\": " + std::to_string(outcome.fault_cycles);
  out += ", \"trace_cycles\": " + std::to_string(outcome.trace_cycles);
  out += ",\n     \"fault_list_size\": " + std::to_string(r.total());
  out += ", \"uncollapsed_faults\": " + std::to_string(uncollapsed_faults);
  out +=
      ", \"uncollapsed_detected\": " + std::to_string(uncollapsed_detected);
  std::snprintf(buf, sizeof buf, ", \"uncollapsed_coverage\": %.6f",
                uncollapsed_faults == 0
                    ? 1.0
                    : static_cast<double>(uncollapsed_detected) /
                          static_cast<double>(uncollapsed_faults));
  out += buf;
  out += "}\n  ]\n}\n";
  return out;
}

int cmd_campaign(std::vector<std::string> args) {
  serve::CampaignOptions opts;
  opts.worker_exe = serve::self_exe_path(g_argv0);

  long long v = 0;
  bool found = false;
  const auto positive = [](const char* flag, long long val) {
    if (val > 0) return true;
    std::fprintf(stderr, "wbist: %s must be positive\n", flag);
    return false;
  };
  if (!take_int_option(args, "--workers", v, found)) return 2;
  if (found && !positive("--workers", v)) return 2;
  if (found) opts.workers = static_cast<unsigned>(v);
  if (!take_int_option(args, "--shards", v, found)) return 2;
  if (found && !positive("--shards", v)) return 2;
  if (found) opts.shards = static_cast<std::size_t>(v);
  if (!take_int_option(args, "--worker-threads", v, found)) return 2;
  if (found && !positive("--worker-threads", v)) return 2;
  if (found) opts.worker_threads = static_cast<unsigned>(v);
  if (!take_int_option(args, "--retries", v, found)) return 2;
  if (found && v < 0) {
    std::fprintf(stderr, "wbist: --retries must be >= 0\n");
    return 2;
  }
  if (found) opts.max_retries = static_cast<unsigned>(v);
  if (!take_int_option(args, "--halt-after", v, found)) return 2;
  if (found && !positive("--halt-after", v)) return 2;
  if (found) opts.halt_after = static_cast<std::size_t>(v);
  long long random_cycles = 0;
  bool random_given = false;
  if (!take_int_option(args, "--random-cycles", random_cycles, random_given))
    return 2;
  if (random_given && random_cycles <= 0) {
    std::fprintf(stderr, "wbist: --random-cycles must be positive\n");
    return 2;
  }
  long long seed = 1;
  bool seed_given = false;
  if (!take_int_option(args, "--seed", seed, seed_given)) return 2;
  opts.resume = take_flag(args, "--resume");
  if (!take_int_option(args, "--heartbeat-ms", v, found)) return 2;
  if (found && v < 0) {
    std::fprintf(stderr, "wbist: --heartbeat-ms must be >= 0 (0 disables)\n");
    return 2;
  }
  if (found) opts.heartbeat_ms = static_cast<int>(v);
  std::string checkpoint, save_seq, bench_json, label, collapse_text;
  std::string status_json, worker_trace_dir;
  if (!take_path_option(args, "--checkpoint", checkpoint) ||
      !take_path_option(args, "--save-seq", save_seq) ||
      !take_path_option(args, "--bench-json", bench_json) ||
      !take_path_option(args, "--label", label) ||
      !take_path_option(args, "--status-json", status_json) ||
      !take_path_option(args, "--worker-trace-dir", worker_trace_dir))
    return 2;
  if (util::extract_option(args, "--collapse", collapse_text) ==
      util::ExtractResult::kMissingValue) {
    std::fprintf(stderr, "wbist: --collapse needs a mode\n");
    return 2;
  }
  if (util::extract_option(args, "--campaign-id", opts.campaign_id) ==
      util::ExtractResult::kMissingValue) {
    std::fprintf(stderr, "wbist: --campaign-id needs a name\n");
    return 2;
  }

  if (args.empty()) {
    std::fprintf(stderr,
                 "wbist: campaign needs a circuit (and a .seq file or "
                 "--random-cycles N)\n");
    return 2;
  }
  const std::string name = args[0];
  const std::string seq_path = args.size() > 1 ? args[1] : "";
  if (args.size() > 2) {
    std::fprintf(stderr, "wbist: campaign: unexpected argument '%s'\n",
                 args[2].c_str());
    return 2;
  }
  if (seq_path.empty() == !random_given) {
    std::fprintf(stderr,
                 "wbist: campaign needs exactly one of a .seq file and "
                 "--random-cycles N\n");
    return 2;
  }

  try {
    if (!collapse_text.empty()) opts.collapse = parse_collapse(collapse_text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wbist: %s\n", e.what());
    return 2;
  }

  const std::string display =
      is_bench_path(name) ? path_stem(name) : name;
  opts.checkpoint_path = util::out_path(
      checkpoint.empty() ? display + ".campaign.jsonl" : checkpoint);
  if (!status_json.empty())
    opts.status_json_path = util::out_path(status_json);
  if (!worker_trace_dir.empty()) {
    opts.trace_dir = util::out_path(worker_trace_dir);
    // Best-effort: workers open files inside it and fail loudly otherwise.
    ::mkdir(opts.trace_dir.c_str(), 0777);
  }

  util::Timer timer;
  int rc = 0;
  // The driver derives only what sharding needs — the netlist and the
  // collapsed fault list. The expensive fanout-cone closure is paid in
  // the workers, each of which compiles the full artifact itself. An
  // unknown circuit propagates to main's runtime-error handler (exit 1),
  // matching every other subcommand.
  const netlist::Netlist nl = load_circuit(name);
  try {
    const fault::FaultSet fs = fault::FaultSet::collapsed(nl, opts.collapse);

    std::string seq_text;
    if (random_given)
      seq_text = random_sequence_text(
          static_cast<std::size_t>(random_cycles),
          nl.primary_inputs().size(), static_cast<std::uint64_t>(seed));
    else
      seq_text = read_file(seq_path);
    const sim::TestSequence seq = sim::read_sequence(seq_text);
    if (seq.width() != nl.primary_inputs().size())
      throw std::invalid_argument(
          "sequence width " + std::to_string(seq.width()) + " does not match " +
          display + "'s " + std::to_string(nl.primary_inputs().size()) +
          " primary inputs");
    if (!save_seq.empty()) {
      const std::string p = util::out_path(save_seq);
      write_text_file(p, seq_text);
      std::fprintf(stderr, "wrote %s\n", p.c_str());
    }

    const serve::CampaignOutcome outcome = serve::run_campaign(
        spec_for(name), display, fs.size(), seq_text, seq.length(), opts);

    // Stdout carries exactly the fsim summary line, so the two commands can
    // be diffed; the campaign accounting goes to stderr.
    std::fputs(core::render_fault_sim_summary(display, outcome.result.detected,
                                              outcome.result.total(),
                                              outcome.result.seq_length)
                   .c_str(),
               stdout);
    std::fprintf(
        stderr,
        "campaign: %zu/%zu shards this run (%zu resumed, %zu retried), "
        "%zu workers spawned, %zu deaths, %.1fs\n",
        outcome.shards_total - outcome.shards_resumed, outcome.shards_total,
        outcome.shards_resumed, outcome.shards_retried,
        outcome.workers_spawned, outcome.worker_deaths, timer.seconds());
    std::fprintf(stderr, "checkpoint: %s\n", opts.checkpoint_path.c_str());

    if (!g_result_json_path.empty()) {
      write_text_file(g_result_json_path,
                      core::render_fault_sim_result_json(outcome.result));
      std::fprintf(stderr, "wrote %s\n", g_result_json_path.c_str());
    }
    if (!bench_json.empty()) {
      const std::string p = util::out_path(bench_json);
      write_text_file(
          p, render_campaign_bench_json(
                 label.empty() ? "campaign" : label, outcome, fs,
                 opts.collapse, opts.workers, timer.seconds()));
      std::fprintf(stderr, "wrote %s\n", p.c_str());
    }
    if (!outcome.complete) {
      std::fprintf(stderr,
                   "campaign: halted with shards outstanding — rerun with "
                   "--resume to finish\n");
      rc = 3;
    }
  } catch (const core::CampaignCheckpointError& e) {
    std::fprintf(stderr, "wbist: %s\n", e.what());
    return 2;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "wbist: %s\n", e.what());
    return 2;
  }
  return rc;
}

/// One campaign worker: a frame loop over stdin/stdout (a socketpair the
/// driver owns). Protocol errors are answered as structured {"ok":false}
/// frames — the driver treats them as fatal configuration problems — and
/// stdout is *only* frames, never text.
int cmd_campaign_worker() {
  // A retired worker may race a heartbeat write against the driver closing
  // the socketpair: EPIPE must surface as an exception, not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  long long delay_ms = 0;
  if (const char* d = std::getenv("WBIST_CAMPAIGN_TEST_SHARD_DELAY_MS");
      d != nullptr)
    delay_ms = std::atoll(d);

  std::shared_ptr<const core::CompiledCircuit> cc;
  std::unique_ptr<fault::FaultSimulator> simulator;
  fault::GoodTrace trace;
  std::size_t seq_length = 0;
  unsigned threads = 1;
  util::MetricsRegistry& reg = util::metrics();

  // Live-progress context from the init frame. The heartbeat thread shares
  // stdout with the frame loop, so every frame write goes through one mutex
  // (frames must never interleave mid-frame on the socketpair).
  std::string campaign_id;
  std::string trace_dir;
  long long heartbeat_ms = 0;
  std::mutex write_mu;
  std::atomic<bool> hb_stop{false};
  std::thread hb_thread;
  const auto send_frame = [&](const std::string& frame) {
    const std::lock_guard<std::mutex> lock(write_mu);
    serve::write_frame(STDOUT_FILENO, frame);
  };
  const auto heartbeat_main = [&] {
    using namespace std::chrono;
    auto next = steady_clock::now() + milliseconds(heartbeat_ms);
    while (!hb_stop.load(std::memory_order_acquire)) {
      if (steady_clock::now() < next) {
        std::this_thread::sleep_for(milliseconds(20));
        continue;
      }
      next = steady_clock::now() + milliseconds(heartbeat_ms);
      // Cumulative process-wide counters; the driver keeps the last sample
      // per worker, so deltas and rates are its job.
      std::string hb = "{\"ok\":true,\"job\":\"heartbeat\"";
      hb += ",\"kernel_cycles\":" +
            std::to_string(reg.counter("fault_sim.kernel_cycles").value());
      hb += ",\"fault_cycles\":" +
            std::to_string(reg.counter("fault_sim.fault_cycles").value());
      hb += '}';
      try {
        send_frame(hb);
      } catch (const std::exception&) {
        return;  // driver is gone; the frame loop will see EOF
      }
    }
  };
  const auto stop_heartbeat = [&] {
    hb_stop.store(true, std::memory_order_release);
    if (hb_thread.joinable()) hb_thread.join();
  };

  std::string payload;
  while (serve::read_frame(STDIN_FILENO, payload)) {
    bool start_heartbeat = false;
    std::string resp = "{";
    try {
      const util::JsonValue req = util::json_parse(payload);
      const std::string job = req.get_string("job");
      if (job == "init") {
        core::CircuitSpec spec;
        spec.registry_name = req.get_string("circuit");
        if (spec.registry_name.empty()) {
          spec.bench_text = req.get_string("bench");
          spec.display_name = req.get_string("name");
          if (spec.bench_text.empty())
            throw std::invalid_argument("init carries no circuit");
        }
        core::CompileOptions copts;
        if (const std::string c = req.get_string("collapse"); !c.empty())
          copts.collapse = parse_collapse(c);
        if (const long long t = req.get_int("threads", 1); t > 0)
          threads = static_cast<unsigned>(t);
        campaign_id = req.get_string("campaign");
        trace_dir = req.get_string("trace_dir");
        heartbeat_ms = req.get_int("heartbeat_ms", 0);
        if (const char* h = std::getenv("WBIST_CAMPAIGN_HEARTBEAT_MS");
            h != nullptr)
          heartbeat_ms = std::atoll(h);
        start_heartbeat = heartbeat_ms > 0 && !hb_thread.joinable();
        if (!trace_dir.empty()) util::TraceRegistry::global().start();
        cc = core::CompiledCircuit::compile(spec, copts);
        simulator = std::make_unique<fault::FaultSimulator>(
            cc->netlist(), cc->faults(), cc->cones());
        const sim::TestSequence seq =
            sim::read_sequence(req.get_string("sequence"));
        seq_length = seq.length();
        const std::uint64_t cycles0 =
            reg.counter("fault_sim.trace_cycles").value();
        trace = simulator->make_trace(seq);
        resp += "\"ok\":true,\"job\":\"init\"";
        resp += ",\"faults\":" + std::to_string(cc->faults().size());
        resp += ",\"seq_len\":" + std::to_string(seq_length);
        resp += ",\"trace_cycles\":" +
                std::to_string(reg.counter("fault_sim.trace_cycles").value() -
                               cycles0);
      } else if (job == "shard") {
        if (simulator == nullptr)
          throw std::invalid_argument("shard request before init");
        // Test hook: hold the shard in flight so kill-mid-run CI tests can
        // land a SIGKILL deterministically.
        if (delay_ms > 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
        core::ShardResult s;
        s.shard = static_cast<std::uint32_t>(req.get_int("shard"));
        s.begin = static_cast<std::uint32_t>(req.get_int("begin"));
        s.end = static_cast<std::uint32_t>(req.get_int("end"));
        s.attempt = static_cast<std::uint32_t>(req.get_int("attempt", 1));
        if (s.begin > s.end || s.end > cc->faults().size())
          throw std::invalid_argument("shard range outside the fault list");
        std::vector<fault::FaultId> ids;
        ids.reserve(s.end - s.begin);
        for (std::uint32_t f = s.begin; f < s.end; ++f) ids.push_back(f);
        fault::FaultSimOptions fopts;
        fopts.threads = threads;
        const std::uint64_t kernel0 =
            reg.counter("fault_sim.kernel_cycles").value();
        const std::uint64_t fault0 =
            reg.counter("fault_sim.fault_cycles").value();
        fault::DetectionResult det;
        {
          // Stamped with the campaign id so trace_summary.py --merge can
          // stitch every worker's shards onto one cross-process timeline.
          util::TraceSpan span("campaign.shard",
                               util::TraceArg("shard", s.shard),
                               util::TraceArg("attempt", s.attempt),
                               util::TraceArg::copy("campaign", campaign_id));
          det = simulator->run(trace, ids, fopts);
        }
        s.kernel_cycles =
            reg.counter("fault_sim.kernel_cycles").value() - kernel0;
        s.fault_cycles =
            reg.counter("fault_sim.fault_cycles").value() - fault0;
        s.detection_time = det.detection_time;
        s.detecting_line = det.detecting_line;
        resp += "\"ok\":true,\"job\":\"shard\"";
        core::append_shard_fields(resp, s);
      } else {
        throw std::invalid_argument("unknown campaign job '" + job + "'");
      }
    } catch (const std::exception& e) {
      resp = "{\"ok\":false,\"exit\":2,\"error\":";
      util::append_json_string(resp, e.what());
    }
    resp += '}';
    send_frame(resp);
    if (start_heartbeat) hb_thread = std::thread(heartbeat_main);
  }
  stop_heartbeat();
  if (!trace_dir.empty()) {
    util::TraceRegistry::global().stop();
    const std::string p =
        trace_dir + "/worker-" + std::to_string(::getpid()) + ".trace.json";
    try {
      util::TraceRegistry::global().write_json(p);
    } catch (const std::exception& e) {
      // stderr is ours to use (stdout is only frames); a failed trace dump
      // never fails the shard work already handed back to the driver.
      std::fprintf(stderr, "campaign-worker: %s\n", e.what());
    }
  }
  return 0;  // clean EOF: the driver retired this worker
}

int usage() {
  std::fputs(
      "usage: wbist <command> [args] [--metrics-json <path>]\n"
      "             [--trace-json <path>] [--provenance-jsonl <path>]\n"
      "  list                         known circuits\n"
      "  info  <circuit>              structure and fault counts\n"
      "  emit  <circuit> [out.bench]  write the netlist\n"
      "  tgen  <circuit> [out.seq]    deterministic sequence + compaction\n"
      "                               (--vcd <path>: good-machine waveform)\n"
      "  flow  <circuit>              full weighted-BIST flow (Table-6 row)\n"
      "  fsim  <circuit> <seq-file>   fault-simulate a .seq file\n"
      "                               (--result-json <path>: canonical\n"
      "                               per-fault detection document)\n"
      "  synth <circuit> [out.bench]  emit the Figure-1 generator netlist\n"
      "  obs   <circuit>              observation-point tradeoff\n"
      "  serve --socket <path>|--tcp <port> [--serve-threads N]\n"
      "        [--worker-threads N] [--cache-bytes N] [--queue-depth N]\n"
      "        [--max-pending N] [--idle-timeout MS] [--stall-timeout MS]\n"
      "        [--request-timeout MS] [--flight-entries N]\n"
      "                               persistent daemon (wbist.serve/1):\n"
      "                               bounded job queue with backpressure,\n"
      "                               slow clients evicted past the timeouts\n"
      "  submit --socket <path>|--tcp <port> [--priority N]\n"
      "        [--deadline-ms N] [--timeout MS] [--observe] <job> [circuit]\n"
      "        [args]                 send one job to a running daemon\n"
      "                               (exit: 3 overloaded/deadline, 4 client\n"
      "                               timeout, 5 unreachable, 6 bad frame;\n"
      "                               --observe returns the job's wbist.obs/1\n"
      "                               block — spans and counter deltas — on\n"
      "                               stderr, leaving stdout bit-identical;\n"
      "                               with --trace-json/--metrics-json the\n"
      "                               server-side observation is written\n"
      "                               there instead of the client's own)\n"
      "  stats --socket <path>|--tcp <port> [--prom] [--flight]\n"
      "        [--timeout MS]         daemon-wide wbist.stats/1 snapshot as\n"
      "                               JSON; --prom renders Prometheus text\n"
      "                               exposition; --flight dumps the recent-\n"
      "                               request flight recorder (answered\n"
      "                               inline even when the queue is full)\n"
      "  top <status.json> [--once] [--interval-ms N]\n"
      "                               refreshing terminal view of a running\n"
      "                               campaign's --status-json snapshot\n"
      "  campaign <circuit> [seq-file] [--workers N] [--shards N]\n"
      "        [--worker-threads N] [--retries N] [--checkpoint <path>]\n"
      "        [--resume] [--random-cycles N] [--seed N] [--save-seq <path>]\n"
      "        [--result-json <path>] [--bench-json <path>] [--label S]\n"
      "        [--collapse none|equivalence|dominance] [--halt-after N]\n"
      "        [--status-json <path>] [--heartbeat-ms N]\n"
      "        [--worker-trace-dir <dir>] [--campaign-id S]\n"
      "                               shard the fault list across worker\n"
      "                               processes; results are bit-identical\n"
      "                               to fsim; completed shards checkpoint\n"
      "                               to <circuit>.campaign.jsonl and\n"
      "                               --resume replays them (exit: 2 bad\n"
      "                               usage/checkpoint, 3 halted early)\n"
      "a circuit is a registry name (see `list`) or a .bench file path;\n"
      "--metrics-json dumps the run-metrics registry, --trace-json records a\n"
      "Chrome/Perfetto trace, --provenance-jsonl streams per-fault detection\n"
      "provenance (see EXPERIMENTS.md); all artifact paths resolve against\n"
      "WBIST_OUT_DIR\n",
      stderr);
  return 2;
}

/// The positional commands take operands only: a circuit plus at most one
/// path. A leftover `--...` token (an unknown or misspelt flag) or an extra
/// operand is a usage error — never a file name, never silently ignored.
/// Commands that parse their own flags (serve, campaign, ...) pass through.
bool positional_args_ok(const std::vector<std::string>& args) {
  if (args.empty()) return true;
  const std::string& cmd = args[0];
  std::size_t max_operands;
  if (cmd == "list")
    max_operands = 0;
  else if (cmd == "info" || cmd == "flow" || cmd == "obs")
    max_operands = 1;
  else if (cmd == "emit" || cmd == "tgen" || cmd == "fsim" || cmd == "synth")
    max_operands = 2;
  else
    return true;
  return args.size() - 1 <= max_operands &&
         std::none_of(args.begin() + 1, args.end(),
                      [](const std::string& a) { return a.starts_with("--"); });
}

int dispatch(std::vector<std::string> args) {
  if (args.empty()) return usage();
  const std::string cmd = args[0];
  args.erase(args.begin());
  if (cmd == "list") return cmd_list();
  if (cmd == "serve") return cmd_serve(std::move(args));
  if (cmd == "submit") return cmd_submit(std::move(args));
  if (cmd == "stats") return cmd_stats(std::move(args));
  if (cmd == "top") return cmd_top(std::move(args));
  if (cmd == "campaign") return cmd_campaign(std::move(args));
  if (cmd == "campaign-worker") return cmd_campaign_worker();
  if (args.empty()) return usage();
  const std::string& name = args[0];
  const std::string arg3 = args.size() > 1 ? args[1] : "";
  if (cmd == "info") return cmd_info(name);
  if (cmd == "emit")
    return cmd_emit(name, arg3.empty() ? name + ".bench" : arg3);
  if (cmd == "tgen")
    return cmd_tgen(name, arg3.empty() ? name + ".seq" : arg3);
  if (cmd == "flow") return cmd_flow(name);
  if (cmd == "fsim") {
    if (arg3.empty()) return usage();
    return cmd_fsim(name, arg3);
  }
  if (cmd == "synth")
    return cmd_synth(name, arg3.empty() ? name + "_bist.bench" : arg3);
  if (cmd == "obs") return cmd_obs(name);
  return usage();
}

/// Strip one path-valued option via util::extract_option. Returns false
/// (after printing a usage error) when the flag is present without a value.
bool take_path_option(std::vector<std::string>& args, std::string_view flag,
                      std::string& value) {
  const util::ExtractResult r = util::extract_option(args, flag, value);
  if (r == util::ExtractResult::kMissingValue ||
      (r == util::ExtractResult::kFound && value.empty())) {
    std::fprintf(stderr, "wbist: %.*s needs a path\n",
                 static_cast<int>(flag.size()), flag.data());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the position-independent options before dispatch so positional
  // parsing never sees them.
  if (argc > 0 && argv[0] != nullptr) g_argv0 = argv[0];
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string provenance_path;
  if (!take_path_option(args, "--metrics-json", g_metrics_path) ||
      !take_path_option(args, "--trace-json", g_trace_path) ||
      !take_path_option(args, "--provenance-jsonl", provenance_path) ||
      !take_path_option(args, "--vcd", g_vcd_path) ||
      !take_path_option(args, "--result-json", g_result_json_path))
    return 2;
  // Every artifact path honours WBIST_OUT_DIR, not just --vcd.
  if (!g_metrics_path.empty())
    g_metrics_path = wbist::util::out_path(g_metrics_path);
  if (!g_trace_path.empty()) g_trace_path = wbist::util::out_path(g_trace_path);
  if (!provenance_path.empty())
    provenance_path = wbist::util::out_path(provenance_path);
  if (!g_vcd_path.empty()) g_vcd_path = wbist::util::out_path(g_vcd_path);
  if (!g_result_json_path.empty())
    g_result_json_path = wbist::util::out_path(g_result_json_path);

  if (!positional_args_ok(args)) return usage();
  // A --metrics-json dump always records which kernel produced the run.
  wbist::util::metrics().set_label("kernel.backend",
                                   wbist::sim::active_kernel().name);

  // Tracing and provenance start before any work so every span/detection of
  // the run is captured; both are observation-only (see util/trace.h).
  const bool tracing = !g_trace_path.empty();
  if (tracing) wbist::util::TraceRegistry::global().start();
  if (!provenance_path.empty()) {
    try {
      wbist::util::provenance().open(provenance_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "wbist: %s\n", e.what());
      return 1;
    }
  }

  int rc;
  try {
    rc = dispatch(std::move(args));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wbist: %s\n", e.what());
    rc = 1;
  }
  wbist::util::provenance().close();
  if (tracing && rc != 2) {
    wbist::util::TraceRegistry::global().stop();
    // Surface ring-buffer overflow in the metrics document too, so a
    // --metrics-json consumer learns the trace is incomplete without
    // opening it (tools/trace_summary.py warns from the trace side).
    wbist::util::metrics()
        .counter("trace.spans_dropped")
        .add(wbist::util::TraceRegistry::global().dropped_events());
    // submit --observe clears the path after redirecting it to the
    // server-side observation; nothing more to write then.
    if (!g_trace_path.empty()) {
      try {
        wbist::util::TraceRegistry::global().write_json(g_trace_path);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "wbist: %s\n", e.what());
        if (rc == 0) rc = 1;
      }
    }
  }
  if (!g_metrics_path.empty() && rc != 2) {
    try {
      wbist::util::metrics().write_json(g_metrics_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "wbist: %s\n", e.what());
      if (rc == 0) rc = 1;
    }
  }
  return rc;
}
