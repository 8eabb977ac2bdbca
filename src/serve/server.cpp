#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/obs.h"
#include "core/service.h"
#include "serve/protocol.h"
#include "sim/sequence_io.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace wbist::serve {

namespace {

/// Retry hint attached to `overloaded` responses. Advisory: clients should
/// back off at least this long (with jitter) before resubmitting.
constexpr int kRetryAfterMs = 100;

/// Bound on the accept thread's best-effort turn-away write. Tiny frames
/// into a fresh socket buffer never block in practice; the bound only
/// protects the accept loop from a pathological peer.
constexpr int kTurnAwayWriteMs = 100;

[[noreturn]] void sys_error(const std::string& what) {
  throw std::runtime_error("serve: " + what + ": " + std::strerror(errno));
}

fault::CollapseMode parse_collapse(const std::string& s) {
  if (s == "none") return fault::CollapseMode::kNone;
  if (s == "equivalence") return fault::CollapseMode::kEquivalence;
  if (s == "dominance") return fault::CollapseMode::kDominance;
  throw std::invalid_argument("unknown collapse mode '" + s + "'");
}

/// A request error that maps to the CLI's usage exit code (2) instead of
/// the runtime one (1).
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct ResponseBuilder {
  std::string json = "{";
  bool first = true;

  void sep() {
    if (!first) json += ',';
    first = false;
  }
  void field(std::string_view key, std::string_view str_value) {
    sep();
    util::append_json_string(json, key);
    json += ':';
    util::append_json_string(json, str_value);
  }
  void field_bool(std::string_view key, bool v) {
    sep();
    util::append_json_string(json, key);
    json += v ? ":true" : ":false";
  }
  void field_int(std::string_view key, long long v) {
    sep();
    util::append_json_string(json, key);
    json += ':' + std::to_string(v);
  }
  /// `raw` must already be valid JSON (nested object, number, ...).
  void field_raw(std::string_view key, std::string_view raw) {
    sep();
    util::append_json_string(json, key);
    json += ':';
    json += raw;
  }
  std::string finish() {
    json += '}';
    return std::move(json);
  }
};

std::string error_response(int exit_code, std::string_view message) {
  ResponseBuilder rb;
  rb.field("schema", kSchema);
  rb.field_bool("ok", false);
  rb.field_int("exit", exit_code);
  rb.field("error", message);
  return rb.finish();
}

/// The backpressure answer: exit 3 (transient), machine-readable error
/// vocabulary word, a retry hint, and the queue state the request bounced
/// off (`wbist submit` folds these into its one-line overloaded report).
std::string overloaded_response(std::size_t queue_depth,
                                std::size_t queue_capacity) {
  ResponseBuilder rb;
  rb.field("schema", kSchema);
  rb.field_bool("ok", false);
  rb.field_int("exit", 3);
  rb.field("error", "overloaded");
  rb.field_int("retry_after_ms", kRetryAfterMs);
  rb.field_int("queue_depth", static_cast<long long>(queue_depth));
  rb.field_int("queue_capacity", static_cast<long long>(queue_capacity));
  return rb.finish();
}

std::string deadline_response() {
  ResponseBuilder rb;
  rb.field("schema", kSchema);
  rb.field_bool("ok", false);
  rb.field_int("exit", 3);
  rb.field("error", "deadline_exceeded");
  return rb.finish();
}

/// Copy-truncate into a flight entry's inline char array.
void copy_word(char* dst, std::size_t cap, std::string_view s) {
  const std::size_t n = s.size() < cap - 1 ? s.size() : cap - 1;
  std::memcpy(dst, s.data(), n);
  dst[n] = '\0';
}

/// Classify a finished response for the flight recorder: "ok" for
/// successes, the wire error word otherwise.
std::string response_outcome(const std::string& response) {
  try {
    const auto v = util::json_parse(response);
    if (v.get_bool("ok", false)) return "ok";
    const std::string err = v.get_string("error");
    return err.empty() ? "error" : err;
  } catch (const std::exception&) {
    return "error";
  }
}

std::uint64_t us_since(std::chrono::steady_clock::time_point start) {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return us > 0 ? static_cast<std::uint64_t>(us) : 0;
}

void append_stat_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

/// Minimal unsigned formatting for the async-signal-safe flight dump.
std::size_t fmt_u64(char* buf, std::uint64_t v) {
  char tmp[20];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (std::size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

std::size_t fmt_i64(char* buf, long long v) {
  if (v < 0) {
    buf[0] = '-';
    return 1 + fmt_u64(buf + 1, static_cast<std::uint64_t>(-(v + 1)) + 1);
  }
  return fmt_u64(buf, static_cast<std::uint64_t>(v));
}

}  // namespace

Server::Connection::~Connection() { ::close(fd); }

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_bytes),
      flight_(config_.flight_entries) {
  if (config_.unix_path.empty() == (config_.tcp_port < 0))
    throw std::invalid_argument(
        "serve: configure exactly one of unix_path and tcp_port");
  if (config_.handler_threads == 0) config_.handler_threads = 1;
  if (config_.worker_threads == 0)
    config_.worker_threads = config_.handler_threads;
  if (config_.queue_depth == 0) config_.queue_depth = 1;
  if (config_.max_pending_conns == 0) config_.max_pending_conns = 1;
}

Server::~Server() {
  request_stop();
  wait();
  if (wake_pipe_[0] != -1) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] != -1) ::close(wake_pipe_[1]);
}

void Server::start() {
  if (started_) throw std::logic_error("serve: already started");
  started_at_ = std::chrono::steady_clock::now();
  if (::pipe(wake_pipe_) != 0) sys_error("pipe");

  if (!config_.unix_path.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) sys_error("socket");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.unix_path.size() >= sizeof addr.sun_path)
      throw std::runtime_error("serve: unix socket path too long: " +
                               config_.unix_path);
    std::strncpy(addr.sun_path, config_.unix_path.c_str(),
                 sizeof addr.sun_path - 1);
    ::unlink(config_.unix_path.c_str());  // drop a stale socket file
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
      sys_error("bind " + config_.unix_path);
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) sys_error("socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
      sys_error("bind 127.0.0.1:" + std::to_string(config_.tcp_port));
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0)
      sys_error("getsockname");
    resolved_port_ = static_cast<int>(ntohs(bound.sin_port));
  }
  if (::listen(listen_fd_, 64) != 0) sys_error("listen");

  started_ = true;
  accept_thread_ = std::thread([this] { accept_main(); });
  readers_.reserve(config_.handler_threads);
  for (unsigned k = 0; k < config_.handler_threads; ++k)
    readers_.emplace_back([this] { reader_main(); });
  workers_.reserve(config_.worker_threads);
  for (unsigned k = 0; k < config_.worker_threads; ++k)
    workers_.emplace_back([this] { worker_main(); });
}

void Server::request_stop() {
  // Async-signal-safe: one atomic store plus one write(2).
  stop_requested_.store(true, std::memory_order_release);
  if (wake_pipe_[1] != -1) {
    const char b = 's';
    [[maybe_unused]] const ssize_t w = ::write(wake_pipe_[1], &b, 1);
  }
}

void Server::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& t : readers_)
    if (t.joinable()) t.join();
  readers_.clear();
  for (auto& t : workers_)
    if (t.joinable()) t.join();
  workers_.clear();
}

void Server::accept_main() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0 ||
        stop_requested_.load(std::memory_order_acquire))
      break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    util::metrics().counter("serve.connections").add(1);
    bool admitted = false;
    std::size_t pending_now = 0;
    {
      std::lock_guard<std::mutex> lk(conn_mu_);
      pending_now = pending_.size();
      if (pending_now < config_.max_pending_conns) {
        pending_.push_back(std::make_shared<Connection>(fd));
        admitted = true;
      }
    }
    if (admitted) {
      conn_cv_.notify_one();
      continue;
    }
    // Shed the connection instead of holding its fd: a best-effort framed
    // turn-away, then close. A flood beyond the cap costs one small write
    // per connection, never an fd.
    util::metrics().counter("serve.conns_rejected").add(1);
    try {
      write_frame(fd, overloaded_response(pending_now, config_.max_pending_conns),
                  kTurnAwayWriteMs);
    } catch (const std::exception&) {
      // The peer is gone or not draining; nothing owed to it.
    }
    ::close(fd);
  }
  orderly_stop();
}

void Server::orderly_stop() {
  stopping_.store(true, std::memory_order_release);
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    // Connections accepted but never picked up simply drop (their
    // destructor closes the fd); in-flight ones are half-closed so their
    // reader's blocking poll/read returns.
    pending_.clear();
    for (Connection* c : active_) ::shutdown(c->fd, SHUT_RDWR);
  }
  {
    // Queued jobs are dropped: their connections are being torn down, so
    // there is no one left to answer.
    std::lock_guard<std::mutex> lk(job_mu_);
    jobs_.clear();
  }
  conn_cv_.notify_all();
  job_cv_.notify_all();
}

void Server::reader_main() {
  while (true) {
    ConnPtr conn;
    {
      std::unique_lock<std::mutex> lk(conn_mu_);
      conn_cv_.wait(lk, [this] {
        return !pending_.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (pending_.empty()) return;  // stopping and drained
      conn = std::move(pending_.front());
      pending_.pop_front();
      active_.insert(conn.get());
    }
    serve_connection(conn);
    {
      std::lock_guard<std::mutex> lk(conn_mu_);
      active_.erase(conn.get());
    }
    // The fd closes when the last holder (possibly a worker still writing
    // a response) releases the connection.
  }
}

void Server::serve_connection(const ConnPtr& conn) {
  std::string payload;
  while (!stopping_.load(std::memory_order_acquire)) {
    ReadStatus status;
    try {
      status = read_frame(
          conn->fd, payload,
          ReadDeadlines{config_.idle_timeout_ms, config_.stall_timeout_ms});
    } catch (const std::exception&) {
      // Torn frame, oversize length, reset: nothing sane to answer.
      util::metrics().counter("serve.read_errors").add(1);
      std::lock_guard<std::mutex> lk(conn->mu);
      conn->dead = true;
      ::shutdown(conn->fd, SHUT_RDWR);
      return;
    }
    if (status == ReadStatus::kEof) {
      // Clean close. The peer may have pipelined requests and half-closed
      // its sending side; workers keep writing the responses it is owed.
      return;
    }
    if (status != ReadStatus::kFrame) {
      // Slow-loris eviction: the peer either went idle past the keep-alive
      // bound or stalled mid-frame. Close it (with a logged reason) so the
      // reader thread frees up instead of being pinned forever.
      util::metrics().counter("serve.slow_clients_evicted").add(1);
      std::fprintf(stderr, "wbist serve: evicting slow client fd=%d (%s)\n",
                   conn->fd,
                   status == ReadStatus::kIdleTimeout
                       ? "idle between frames"
                       : "stalled mid-frame");
      std::lock_guard<std::mutex> lk(conn->mu);
      conn->dead = true;
      ::shutdown(conn->fd, SHUT_RDWR);
      return;
    }
    dispatch_request(conn, conn->next_seq++, std::move(payload));
    payload = std::string();
  }
}

void Server::dispatch_request(const ConnPtr& conn, std::uint64_t seq,
                              std::string payload) {
  util::metrics().counter("serve.requests").add(1);
  util::JsonValue req;
  std::string job;
  long long priority = 0;
  long long deadline_ms = 0;
  try {
    req = util::json_parse(payload);
    job = req.get_string("job");
    priority = std::clamp<long long>(req.get_int("priority", 0), -1000000,
                                     1000000);
    deadline_ms = req.get_int("deadline_ms", 0);
  } catch (const std::exception& e) {
    util::metrics().counter("serve.errors").add(1);
    complete(conn, seq, error_response(2, e.what()));
    return;
  }

  // Control-plane requests (and the missing-job error) answer inline on
  // the reader: they do no simulation work, and bypassing the queue keeps
  // liveness probes, stats scrapes and shutdown responsive when the queue
  // is saturated.
  if (job.empty() || job == "ping" || job == "shutdown" || job == "metrics" ||
      job == "stats" || job == "flight") {
    const auto start = std::chrono::steady_clock::now();
    bool shutdown = false;
    std::string response = handle_request(req, job, shutdown, {}, 0);
    record_flight(conn, job.empty() ? "?" : job, priority, 0, us_since(start),
                  response);
    complete(conn, seq, std::move(response));
    if (shutdown) request_stop();
    return;
  }

  Job j;
  j.conn = conn;
  j.seq = seq;
  j.job_name = job;
  j.priority = priority;
  j.request = std::move(req);
  if (deadline_ms <= 0) deadline_ms = config_.request_timeout_ms;
  if (deadline_ms > 0) j.deadline = core::Deadline::after_ms(deadline_ms);
  j.enqueued = std::chrono::steady_clock::now();

  bool admitted = false;
  std::size_t depth_now = 0;
  {
    std::lock_guard<std::mutex> lk(job_mu_);
    depth_now = jobs_.size();
    if (!stopping_.load(std::memory_order_acquire) &&
        jobs_.size() < config_.queue_depth) {
      jobs_.emplace(JobKey{-priority, job_counter_++}, std::move(j));
      util::metrics()
          .histogram("serve.queue_depth")
          .record(static_cast<std::uint64_t>(jobs_.size()));
      admitted = true;
    }
  }
  if (admitted) {
    job_cv_.notify_one();
    return;
  }
  // Backpressure: answer instead of queueing. The client sees a structured
  // transient error with a retry hint rather than unbounded latency.
  util::metrics().counter("serve.jobs_rejected").add(1);
  std::string response = overloaded_response(depth_now, config_.queue_depth);
  record_flight(conn, job, priority, 0, 0, response);
  complete(conn, seq, std::move(response));
}

void Server::worker_main() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(job_mu_);
      job_cv_.wait(lk, [this] {
        return !jobs_.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (stopping_.load(std::memory_order_acquire)) return;
      auto it = jobs_.begin();
      job = std::move(it->second);
      jobs_.erase(it);
    }
    const auto wait_us = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - job.enqueued)
                             .count();
    const auto queue_wait_us =
        static_cast<std::uint64_t>(std::max<long long>(wait_us, 0));
    util::metrics().histogram("serve.queue_wait_us").record(queue_wait_us);
    if (config_.test_worker_gate) config_.test_worker_gate();
    if (job.deadline.expired()) {
      // The job waited out its whole budget in the queue: answer without
      // running the simulation at all.
      util::metrics().counter("serve.deadline_expired").add(1);
      std::string response = deadline_response();
      record_flight(job.conn, job.job_name, job.priority, queue_wait_us, 0,
                    response);
      complete(job.conn, job.seq, std::move(response));
      continue;
    }
    const auto run_start = std::chrono::steady_clock::now();
    bool shutdown = false;
    std::string response = handle_request(job.request, job.job_name, shutdown,
                                          job.deadline, queue_wait_us);
    const std::uint64_t run_us = us_since(run_start);
    util::metrics().histogram("serve.run_us." + job.job_name).record(run_us);
    record_flight(job.conn, job.job_name, job.priority, queue_wait_us, run_us,
                  response);
    complete(job.conn, job.seq, std::move(response));
    if (shutdown) request_stop();
  }
}

void Server::complete(const ConnPtr& conn, std::uint64_t seq,
                      std::string response) {
  std::lock_guard<std::mutex> lk(conn->mu);
  conn->done.emplace(seq, std::move(response));
  // Flush the in-order prefix. Out-of-order completions park in `done`
  // until every earlier response has been written, so one connection's
  // responses always arrive in request order no matter how the workers
  // interleave.
  while (!conn->done.empty() &&
         conn->done.begin()->first == conn->next_write) {
    if (!conn->dead) {
      try {
        write_frame(conn->fd, conn->done.begin()->second,
                    config_.stall_timeout_ms);
      } catch (const FrameTimeout&) {
        util::metrics().counter("serve.slow_clients_evicted").add(1);
        std::fprintf(stderr,
                     "wbist serve: evicting slow client fd=%d (not draining "
                     "responses)\n",
                     conn->fd);
        conn->dead = true;
        ::shutdown(conn->fd, SHUT_RDWR);
      } catch (const std::exception&) {
        util::metrics().counter("serve.write_errors").add(1);
        conn->dead = true;
        ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
    conn->done.erase(conn->done.begin());
    ++conn->next_write;
  }
}

std::string Server::handle_request(const util::JsonValue& req,
                                   const std::string& job, bool& shutdown,
                                   const core::Deadline& deadline,
                                   std::uint64_t queue_wait_us) {
  try {
    if (job.empty()) throw UsageError("request is missing \"job\"");
    util::TraceSpan span("serve.request", util::TraceArg::copy("job", job));
    util::metrics().counter("serve.jobs." + job).add(1);

    ResponseBuilder rb;
    rb.field("schema", kSchema);

    if (job == "ping") {
      rb.field_bool("ok", true);
      rb.field_int("exit", 0);
      rb.field("output", "pong\n");
      return rb.finish();
    }
    if (job == "shutdown") {
      shutdown = true;
      rb.field_bool("ok", true);
      rb.field_int("exit", 0);
      rb.field("output", "shutting down\n");
      return rb.finish();
    }
    if (job == "metrics") {
      rb.field_bool("ok", true);
      rb.field_int("exit", 0);
      // The registry dump is itself a JSON document; embed it as one.
      rb.field_raw("metrics", util::metrics().to_json());
      return rb.finish();
    }
    if (job == "stats") {
      rb.field_bool("ok", true);
      rb.field_int("exit", 0);
      rb.field_raw("stats", stats_json());
      return rb.finish();
    }
    if (job == "flight") {
      rb.field_bool("ok", true);
      rb.field_int("exit", 0);
      rb.field_raw("flight", flight_json());
      return rb.finish();
    }

    if (job != "info" && job != "flow" && job != "tgen" && job != "fault-sim")
      throw UsageError("unknown job '" + job + "'");

    // Opt-in request observation (`wbist.obs/1`): a per-request recorder
    // the service layer writes stage spans and counter deltas into. It is
    // never read back by any computation — the `output` field is
    // bit-identical with observation on or off (gated by obs-smoke in CI).
    const bool observe = req.get_bool("observe", false);
    core::JobObservation obs;
    core::JobObservation* op = observe ? &obs : nullptr;
    if (observe) {
      obs.set_note("job", job);
      obs.set_counter("queue_wait_us", queue_wait_us);
    }

    core::CircuitSpec spec;
    spec.registry_name = req.get_string("circuit");
    spec.bench_text = req.get_string("bench");
    spec.display_name = req.get_string("name");
    if (spec.registry_name.empty() && spec.bench_text.empty())
      throw UsageError("request needs \"circuit\" or \"bench\"");
    if (!spec.registry_name.empty() && !spec.bench_text.empty())
      throw UsageError("request has both \"circuit\" and \"bench\"");

    core::CompileOptions copts;
    if (const std::string c = req.get_string("collapse"); !c.empty()) {
      try {
        copts.collapse = parse_collapse(c);
      } catch (const std::exception& e) {
        throw UsageError(e.what());
      }
    }

    deadline.check("compile");
    bool cache_hit = false;
    const auto compile_start = std::chrono::steady_clock::now();
    const auto cc = cache_.get_or_compile(spec, copts, &cache_hit);
    if (observe) {
      obs.add_span("compile", compile_start, std::chrono::steady_clock::now());
      obs.set_counter("cache_hit", cache_hit ? 1 : 0);
      obs.set_note("circuit", cc->name());
      obs.set_note("cache_key", cc->key());
    }

    std::string output;
    if (job == "info") {
      deadline.check("info");
      output = core::info_report(*cc);
    } else if (job == "flow") {
      output = core::run_flow_job(*cc, {}, deadline, op).output;
    } else if (job == "tgen") {
      const auto r = core::run_tgen_job(*cc, {}, {}, deadline, op);
      output = r.summary + "\n";
      rb.field("sequence", r.sequence_text);
      rb.field_int("detected", static_cast<long long>(r.detected));
      rb.field_int("total", static_cast<long long>(r.total));
    } else {  // fault-sim
      const std::string seq_text = req.get_string("sequence");
      if (seq_text.empty()) throw UsageError("fault-sim needs \"sequence\"");
      const auto seq = sim::read_sequence(seq_text);
      // 0 = one worker per core; more than the host's cores would only
      // multiply OS threads per request.
      const std::int64_t threads = req.get_int("threads", 0);
      const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
      if (threads < 0 || threads > cores)
        throw UsageError("fault-sim \"threads\" must be in [0, " +
                         std::to_string(cores) + "]");
      const auto r = core::run_fault_sim_job(
          *cc, seq, static_cast<unsigned>(threads), deadline, op);
      output = r.output;
      rb.field_int("detected", static_cast<long long>(r.detected));
      rb.field_int("total", static_cast<long long>(r.total));
    }

    rb.field_bool("ok", true);
    rb.field_int("exit", 0);
    rb.field("output", output);
    rb.field_raw("cache", std::string("{\"hit\":") +
                              (cache_hit ? "true" : "false") +
                              ",\"key\":" + util::json_quote(cc->key()) + "}");
    if (observe) {
      obs.set_counter("run_us", us_since(obs.origin()));
      rb.field_raw("obs", obs.to_json());
    }
    return rb.finish();
  } catch (const core::DeadlineExceeded&) {
    // The budget ran out mid-job: no partial output ever leaves the
    // daemon — deadlines decide whether a job runs, never what it prints.
    util::metrics().counter("serve.deadline_expired").add(1);
    return deadline_response();
  } catch (const UsageError& e) {
    util::metrics().counter("serve.errors").add(1);
    return error_response(2, e.what());
  } catch (const std::exception& e) {
    util::metrics().counter("serve.errors").add(1);
    return error_response(1, e.what());
  }
}

void Server::record_flight(const ConnPtr& conn, std::string_view job,
                           long long priority, std::uint64_t queue_wait_us,
                           std::uint64_t run_us, const std::string& response) {
  FlightEntry e;
  e.ts_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - started_at_)
          .count());
  e.peer_fd = conn->fd;
  e.priority = priority;
  e.queue_wait_us = queue_wait_us;
  e.run_us = run_us;
  copy_word(e.job, sizeof e.job, job);
  copy_word(e.outcome, sizeof e.outcome, response_outcome(response));
  flight_.push(e);
}

std::string Server::stats_json() {
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lk(job_mu_);
    depth = jobs_.size();
  }
  const auto cache_stats = cache_.stats();
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_at_)
          .count();

  std::string out = "{\"schema\":\"wbist.stats/1\",\"uptime_s\":";
  append_stat_double(out, uptime);
  out += ",\"queue\":{\"depth\":" + std::to_string(depth) +
         ",\"capacity\":" + std::to_string(config_.queue_depth) +
         ",\"workers\":" + std::to_string(config_.worker_threads) +
         ",\"readers\":" + std::to_string(config_.handler_threads) + "}";

  out += ",\"cache\":{\"hits\":" + std::to_string(cache_stats.hits) +
         ",\"misses\":" + std::to_string(cache_stats.misses) +
         ",\"evictions\":" + std::to_string(cache_stats.evictions) +
         ",\"compiles\":" + std::to_string(cache_stats.compiles) +
         ",\"entries\":" + std::to_string(cache_stats.entries) +
         ",\"bytes\":" + std::to_string(cache_stats.bytes) + "}";

  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : util::metrics().counter_values()) {
    if (!first) out += ",";
    first = false;
    util::append_json_string(out, name);
    out += ":" + std::to_string(value);
  }
  out += "}";

  out += ",\"histograms\":{";
  first = true;
  for (const auto& [name, h] : util::metrics().histogram_entries()) {
    if (!first) out += ",";
    first = false;
    util::append_json_string(out, name);
    out += ":{\"count\":" + std::to_string(h->count()) +
           ",\"sum\":" + std::to_string(h->sum()) +
           ",\"max\":" + std::to_string(h->max()) + ",\"p50\":";
    append_stat_double(out, h->quantile(0.50));
    out += ",\"p90\":";
    append_stat_double(out, h->quantile(0.90));
    out += ",\"p99\":";
    append_stat_double(out, h->quantile(0.99));
    out += ",\"buckets\":{";
    const auto buckets = h->buckets();
    bool bfirst = true;
    for (std::size_t k = 0; k < buckets.size(); ++k) {
      if (buckets[k] == 0) continue;
      if (!bfirst) out += ",";
      bfirst = false;
      out += "\"" + std::to_string(k) + "\":" + std::to_string(buckets[k]);
    }
    out += "}}";
  }
  out += "}";

  out += ",\"flight\":{\"recorded\":" + std::to_string(flight_.pushed()) +
         ",\"retained\":" +
         std::to_string(std::min<std::uint64_t>(flight_.pushed(),
                                                flight_.capacity())) +
         ",\"capacity\":" + std::to_string(flight_.capacity()) + "}}";
  return out;
}

std::string Server::flight_json() {
  const auto entries = flight_.snapshot();
  std::string out =
      "{\"schema\":\"wbist.flight/1\",\"dropped\":" +
      std::to_string(flight_.dropped()) + ",\"entries\":[";
  bool first = true;
  for (const auto& e : entries) {
    if (!first) out += ",";
    first = false;
    out += "{\"ts_ms\":" + std::to_string(e.ts_ms) +
           ",\"peer_fd\":" + std::to_string(e.peer_fd) + ",\"job\":";
    util::append_json_string(out, e.job);
    out += ",\"priority\":" + std::to_string(e.priority) +
           ",\"queue_wait_us\":" + std::to_string(e.queue_wait_us) +
           ",\"run_us\":" + std::to_string(e.run_us) + ",\"outcome\":";
    util::append_json_string(out, e.outcome);
    out += "}";
  }
  out += "]}";
  return out;
}

void Server::dump_flight(int fd) const {
  // Fatal-signal path: fixed-size stack storage, manual formatting, raw
  // write(2) only. A record being overwritten concurrently may read torn
  // (garbled text, never UB) — acceptable for a crash dump.
  constexpr std::size_t kMaxDump = 256;
  FlightEntry entries[kMaxDump];
  const std::size_t n = flight_.crash_copy_into(entries, kMaxDump);

  const char header[] = "wbist serve: flight recorder (oldest first)\n";
  [[maybe_unused]] ssize_t w = ::write(fd, header, sizeof header - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const FlightEntry& e = entries[i];
    char line[256];
    std::size_t p = 0;
    const auto put = [&](const char* s) {
      while (*s != '\0' && p < sizeof line - 1) line[p++] = *s++;
    };
    const auto put_bounded = [&](const char* s, std::size_t cap) {
      for (std::size_t k = 0; k < cap && s[k] != '\0' && p < sizeof line - 1;
           ++k)
        line[p++] = s[k];
    };
    char num[24];
    put("  +");
    num[fmt_u64(num, e.ts_ms)] = '\0';
    put(num);
    put("ms fd=");
    num[fmt_i64(num, e.peer_fd)] = '\0';
    put(num);
    put(" job=");
    put_bounded(e.job, sizeof e.job);
    put(" prio=");
    num[fmt_i64(num, e.priority)] = '\0';
    put(num);
    put(" wait_us=");
    num[fmt_u64(num, e.queue_wait_us)] = '\0';
    put(num);
    put(" run_us=");
    num[fmt_u64(num, e.run_us)] = '\0';
    put(num);
    put(" outcome=");
    put_bounded(e.outcome, sizeof e.outcome);
    put("\n");
    w = ::write(fd, line, p);
  }
}

}  // namespace wbist::serve
