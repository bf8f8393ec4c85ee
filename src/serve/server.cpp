#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <ostream>
#include <thread>

#include "exec/stopper.hpp"
#include "obs/io_error.hpp"
#include "serve/frame.hpp"
#include "serve/plan.hpp"
#include "serve/request.hpp"

namespace synran::serve {

namespace {

/// Arms the cooperative stop flag after a timeout. The executor polls the
/// flag between reps, so the interrupt lands at the next rep boundary —
/// cancellation is cooperative, never mid-statistics. request_stop() does
/// NOT count as a signal, which is how the loop tells a deadline apart
/// from an operator's SIGINT/SIGTERM after the batch unwinds.
class DeadlineGuard {
 public:
  explicit DeadlineGuard(std::uint64_t deadline_ms) {
    if (deadline_ms == 0) return;
    armed_ = true;
    watchdog_ = std::thread([this, deadline_ms] {
      std::unique_lock<std::mutex> lock(mu_);
      if (cv_.wait_for(lock, std::chrono::milliseconds(deadline_ms),
                       [this] { return cancelled_; })) {
        return;  // batch finished first
      }
      fired_ = true;
      exec::request_stop();
    });
  }

  ~DeadlineGuard() { cancel(); }

  void cancel() {
    if (!armed_) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      cancelled_ = true;
    }
    cv_.notify_all();
    if (watchdog_.joinable()) watchdog_.join();
    armed_ = false;
  }

  /// True when the watchdog raised the stop flag (read after cancel()).
  bool fired() const { return fired_; }

 private:
  bool armed_ = false;
  bool cancelled_ = false;
  bool fired_ = false;
  std::mutex mu_;
  std::condition_variable cv_;
  std::thread watchdog_;
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The client's id from a request that failed validation, so even a
/// rejection can be correlated. Empty when the body is not JSON or the id
/// itself is unusable.
std::string best_effort_id(const std::string& body) {
  const std::optional<obs::JsonValue> parsed = obs::JsonValue::parse(body);
  if (parsed.has_value()) {
    const obs::JsonValue* id = parsed->find("id");
    if (id != nullptr && id->is_string() && id->as_string().size() <= 256) {
      return id->as_string();
    }
  }
  return std::string();
}

}  // namespace

obs::JsonValue error_response(const std::string& id, const std::string& code,
                              const std::string& message) {
  obs::JsonValue error = obs::JsonValue::object();
  error.set("code", code);
  error.set("message", message);
  obs::JsonValue response = obs::JsonValue::object();
  response.set("schema", kResponseSchema);
  response.set("id", id);
  response.set("ok", obs::JsonValue(false));
  response.set("error", std::move(error));
  return response;
}

obs::JsonValue ok_response(const std::string& id, obs::JsonValue result) {
  obs::JsonValue response = obs::JsonValue::object();
  response.set("schema", kResponseSchema);
  response.set("id", id);
  response.set("ok", obs::JsonValue(true));
  response.set("result", std::move(result));
  return response;
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(ResultCache::Options{options_.cache_dir,
                                  options_.max_cache_entries,
                                  options_.io_attempts,
                                  options_.backoff_ms}) {
  if (options_.max_queue == 0) options_.max_queue = 1;
  if (options_.log != nullptr) {
    *options_.log << "[serve] cache " << cache_.dir() << ": "
                  << cache_.entries() << " entries recovered";
    if (cache_.quarantined() > 0) {
      *options_.log << ", " << cache_.quarantined() << " quarantined";
    }
    *options_.log << "\n";
  }
}

void Server::respond(int out_fd, const obs::JsonValue& response) {
  write_frame(out_fd, response.dump());
}

void Server::sync_metrics(std::size_t queue_depth) {
  metrics_.counter("cache_hits").inc(cache_.hits() -
                                     metrics_.counter("cache_hits").value());
  metrics_.counter("cache_misses")
      .inc(cache_.misses() - metrics_.counter("cache_misses").value());
  metrics_.counter("cache_evictions")
      .inc(cache_.evictions() - metrics_.counter("cache_evictions").value());
  metrics_.counter("cache_quarantined")
      .inc(cache_.quarantined() -
           metrics_.counter("cache_quarantined").value());
  metrics_.counter("cache_io_retries")
      .inc(cache_.io_retries() -
           metrics_.counter("cache_io_retries").value());
  metrics_.gauge("queue_depth").set(static_cast<double>(queue_depth));
  metrics_.gauge("cache_entries").set(static_cast<double>(cache_.entries()));
}

void Server::handle_run(const std::string& id, const obs::JsonValue& config,
                        std::uint64_t deadline_ms, int out_fd) {
  const std::string key = cache_key_string(config, options_.git_rev);
  const bool is_async = config.find("model")->as_string() == "async";

  if (auto payload = cache_.lookup(key); payload.has_value()) {
    // Byte-identity with the compute path holds because BOTH paths derive
    // the response from the checkpoint payload via result_from_payload —
    // the response never carries a hit/miss marker or timing.
    respond(out_fd, ok_response(id, result_from_payload(is_async, *payload)));
    metrics_.counter("responses_ok").inc();
    return;
  }

  // Effective deadline: the tighter of the request's and the server's.
  std::uint64_t effective = options_.deadline_ms;
  if (deadline_ms != 0 &&
      (effective == 0 || deadline_ms < effective)) {
    effective = deadline_ms;
  }

  obs::JsonValue payload;
  try {
    const RunPlan plan = build_plan(config, options_.threads);
    DeadlineGuard guard(effective);
    payload = execute_plan(plan);
    guard.cancel();
  } catch (const exec::Interrupted& e) {
    if (exec::stop_signals() > 0) {
      // Operator signal beat (or raced) the deadline: the drain path in
      // serve_stream answers this and every queued request.
      respond(out_fd,
              error_response(id, "shutting_down",
                             "daemon is draining: " + std::string(e.what())));
      metrics_.counter("responses_error").inc();
      return;
    }
    // The watchdog fired: this request is over, the daemon is not.
    exec::clear_stop();
    respond(out_fd,
            error_response(id, "deadline_exceeded",
                           "deadline of " + std::to_string(effective) +
                               " ms exceeded: " + e.what()));
    metrics_.counter("deadline_exceeded_total").inc();
    metrics_.counter("responses_error").inc();
    return;
  } catch (const std::exception& e) {
    // A failing batch (RepError under fail_fast, engine errors) is a
    // structured response, never a daemon crash.
    respond(out_fd, error_response(id, "run_failed", e.what()));
    metrics_.counter("responses_error").inc();
    return;
  }

  try {
    cache_.store(key, payload);
  } catch (const obs::IoError& e) {
    // Persistent store failure degrades the cache, not the answer.
    if (options_.log != nullptr) {
      *options_.log << "[serve] cache store failed after retries: "
                    << e.what() << "\n";
    }
    metrics_.counter("cache_store_failures").inc();
  }
  respond(out_fd, ok_response(id, result_from_payload(is_async, payload)));
  metrics_.counter("responses_ok").inc();
}

bool Server::handle(const std::string& body, int out_fd) {
  const double started = now_ms();
  metrics_.counter("requests_total").inc();

  ServeRequest req;
  try {
    req = parse_request(body);
  } catch (const BadRequest& e) {
    respond(out_fd, error_response(best_effort_id(body), "bad_request",
                                   e.what()));
    metrics_.counter("responses_error").inc();
    metrics_.summary("request_latency_ms").add(now_ms() - started);
    return true;
  }

  switch (req.cmd) {
    case Command::Ping: {
      obs::JsonValue result = obs::JsonValue::object();
      result.set("pong", obs::JsonValue(true));
      result.set("git_rev", options_.git_rev);
      respond(out_fd, ok_response(req.id, std::move(result)));
      metrics_.counter("responses_ok").inc();
      break;
    }
    case Command::Stats: {
      sync_metrics(/*queue_depth=*/0);
      respond(out_fd, ok_response(req.id, metrics_.to_json()));
      metrics_.counter("responses_ok").inc();
      break;
    }
    case Command::Shutdown: {
      obs::JsonValue result = obs::JsonValue::object();
      result.set("stopping", obs::JsonValue(true));
      respond(out_fd, ok_response(req.id, std::move(result)));
      metrics_.counter("responses_ok").inc();
      shutdown_requested_ = true;
      break;
    }
    case Command::Run:
      handle_run(req.id, req.config, req.deadline_ms, out_fd);
      break;
  }
  metrics_.summary("request_latency_ms").add(now_ms() - started);
  return !shutdown_requested_;
}

void Server::flush_queue_shutting_down(std::deque<std::string>& queue,
                                       int out_fd) {
  while (!queue.empty()) {
    std::string id;
    try {
      id = parse_request(queue.front()).id;
    } catch (const BadRequest&) {
      // Still answer it: the client sent it before the drain began.
      id = best_effort_id(queue.front());
    }
    respond(out_fd, error_response(id, "shutting_down",
                                   "daemon is draining, request not run"));
    metrics_.counter("responses_error").inc();
    queue.pop_front();
  }
}

Server::Outcome Server::serve_stream(int in_fd, int out_fd) {
  FrameReader reader(in_fd);
  std::deque<std::string> queue;
  std::string body;
  // A framing violation poisons the INPUT side only: no further frame can
  // be trusted, but requests already accepted are still answered before
  // the final protocol_error response and hang-up.
  bool poisoned = false;
  std::string poison_message;

  for (;;) {
    if (exec::stop_signals() > 0) {
      try {
        flush_queue_shutting_down(queue, out_fd);
      } catch (const FrameError&) {
        return Outcome::ClientLost;
      }
      if (options_.log != nullptr) {
        *options_.log << "[serve] drain: signal received, "
                      << "queued requests answered, exiting\n";
      }
      return Outcome::Drained;
    }

    if (!poisoned) {
      try {
        // Greedy drain of everything the client already sent: the first
        // max_queue wait, the rest are shed with a structured error.
        while (reader.available()) {
          if (!reader.next(body)) break;
          if (queue.size() < options_.max_queue) {
            queue.push_back(body);
            continue;
          }
          std::string id;
          try {
            id = parse_request(body).id;
          } catch (const BadRequest&) {
            id = best_effort_id(body);
          }
          respond(out_fd,
                  error_response(id, "overloaded",
                                 "queue full (" +
                                     std::to_string(options_.max_queue) +
                                     " requests waiting); retry later"));
          metrics_.counter("shed_total").inc();
          metrics_.counter("responses_error").inc();
        }

        if (queue.empty()) {
          if (reader.exhausted()) return Outcome::CleanEof;
          if (!reader.next(body)) continue;  // stop or EOF: re-check above
          queue.push_back(body);
        }
      } catch (const FrameError& e) {
        poisoned = true;
        poison_message = e.what();
      }
    }

    if (queue.empty()) {
      // Poisoned and nothing left owed: answer once, hang up.
      try {
        respond(out_fd, error_response("", "protocol_error", poison_message));
      } catch (const FrameError&) {
        return Outcome::ClientLost;
      }
      metrics_.counter("responses_error").inc();
      return Outcome::ProtocolError;
    }

    sync_metrics(queue.size());
    body = std::move(queue.front());
    queue.pop_front();
    bool keep_serving = false;
    try {
      keep_serving = handle(body, out_fd);
      if (!keep_serving) flush_queue_shutting_down(queue, out_fd);
    } catch (const FrameError&) {
      // A response write failed: the client is gone.
      return Outcome::ClientLost;
    }
    if (!keep_serving) return Outcome::Shutdown;
  }
}

int Server::serve_fds(int in_fd, int out_fd) {
  switch (serve_stream(in_fd, out_fd)) {
    case Outcome::CleanEof:
    case Outcome::Shutdown:
      return 0;
    case Outcome::Drained:
      return kDrainExitCode;
    case Outcome::ProtocolError:
    case Outcome::ClientLost:
      return 1;
  }
  return 1;
}

int Server::run_socket() {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    if (options_.log != nullptr) {
      *options_.log << "[serve] socket failed: " << std::strerror(errno)
                    << "\n";
    }
    return 1;
  }
  // Bind and listen under a staging name, then rename it into place: a
  // client that waits for the socket path to appear must never find a
  // socket that is bound but not yet listening (connect would be refused).
  const std::string staging = options_.socket_path + ".new";
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (staging.size() >= sizeof addr.sun_path) {
    if (options_.log != nullptr) {
      *options_.log << "[serve] socket path too long: "
                    << options_.socket_path << "\n";
    }
    ::close(listener);
    return 1;
  }
  std::strncpy(addr.sun_path, staging.c_str(), sizeof addr.sun_path - 1);
  ::unlink(staging.c_str());
  ::unlink(options_.socket_path.c_str());
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listener, 1) < 0 ||
      std::rename(staging.c_str(), options_.socket_path.c_str()) != 0) {
    ::unlink(staging.c_str());
    if (options_.log != nullptr) {
      *options_.log << "[serve] bind/listen failed on "
                    << options_.socket_path << ": " << std::strerror(errno)
                    << "\n";
    }
    ::close(listener);
    return 1;
  }
  if (options_.log != nullptr) {
    *options_.log << "[serve] listening on " << options_.socket_path << "\n";
  }

  int exit_code = 0;
  for (;;) {
    if (exec::stop_signals() > 0) {
      exit_code = kDrainExitCode;
      break;
    }
    // Poll in slices so a drain signal is honored while idle.
    struct pollfd pfd = {listener, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0 && errno != EINTR) {
      exit_code = 1;
      break;
    }
    if (ready <= 0) continue;
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      exit_code = 1;
      break;
    }
    const Outcome outcome = serve_stream(conn, conn);
    ::close(conn);
    if (outcome == Outcome::Drained) {
      exit_code = kDrainExitCode;
      break;
    }
    if (outcome == Outcome::Shutdown) {
      exit_code = 0;
      break;
    }
    // CleanEof / ProtocolError / ClientLost end the connection, not the
    // daemon: the next client gets a fresh stream.
  }
  ::close(listener);
  ::unlink(options_.socket_path.c_str());
  return exit_code;
}

int Server::run() {
  // A client that disconnects mid-response must surface as EPIPE on the
  // write (handled as ClientLost), not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);
  if (options_.socket_path.empty()) {
    return serve_fds(STDIN_FILENO, STDOUT_FILENO);
  }
  return run_socket();
}

}  // namespace synran::serve
