// The serve_mixed workload: scripted sessions, each one `synran serve
// --socket` daemon over a fresh copy of a pre-populated result cache, with
// one client connection in a closed loop.
//
// The request script has a fixed length and is generated from --seed
// before the first daemon starts. A simulation of the cache's LRU (the
// same policy ResultCache implements: recover() orders entries by file
// stem, a hit or a store moves an entry to the back, a store past the
// bound evicts from the front) decides every request's kind in advance, so
// the daemon's final hit/miss/eviction counters are known. Every session
// plays the whole script from the same state, so its figures repeat; the
// run reports medians over its sessions.
//
// The traced run replays the script in-process, through the public
// src/serve functions in the daemon's order, times each stage, and
// requires byte-identical responses. It then runs each miss's batch once
// more with the engine's tracing wrappers for the engine layers' figures.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "common/rng.hpp"
#include "serve/cache.hpp"
#include "serve/frame.hpp"
#include "serve/plan.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"

extern char** environ;

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using synran::obs::JsonValue;

/// Build identity the daemon bakes into every cache key (--git-rev).
constexpr const char* kGitRev = "perfbench";

struct ServeShape {
  std::size_t script = 0;       ///< requests per session
  std::size_t stored = 0;       ///< entries pre-populated in the store
  std::size_t max_entries = 0;  ///< --max-cache-entries
  std::size_t hot = 0;          ///< stored keys most hits go to
  std::uint32_t n = 0;          ///< the miss cell
  std::uint32_t t = 0;
  std::uint32_t reps = 0;
};

ServeShape shape_for(bool tiny) {
  return tiny ? ServeShape{150, 60, 64, 8, 64, 32, 2}
              : ServeShape{2000, 2000, 2048, 64, 256, 128, 8};
}

enum class Kind : std::uint8_t { Hit, Miss, Bad };

struct Request {
  Kind kind = Kind::Hit;
  std::string id;
  std::string body;
  std::size_t config = 0;  ///< index into Script::stems (Hit/Miss)
  // Daemon counters expected once this request has been answered.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

struct Script {
  std::vector<std::string> stems;  ///< cache file stem per config
  std::vector<std::uint64_t> seeds;  ///< config seed per config
  std::vector<Request> requests;
};

std::string run_body(const std::string& id, std::uint64_t seed,
                     const ServeShape& shape) {
  JsonValue config = JsonValue::object();
  config.set("protocol", "synran");
  config.set("adversary", "coinbias");
  config.set("n", shape.n);
  config.set("t", shape.t);
  config.set("reps", shape.reps);
  config.set("seed", seed);
  JsonValue req = JsonValue::object();
  req.set("schema", synran::serve::kRequestSchema);
  req.set("id", id);
  req.set("cmd", "run");
  req.set("config", std::move(config));
  return req.dump();
}

std::string control_body(const std::string& id, const char* cmd) {
  JsonValue req = JsonValue::object();
  req.set("schema", synran::serve::kRequestSchema);
  req.set("id", id);
  req.set("cmd", cmd);
  return req.dump();
}

/// Requests the daemon must answer with `bad_request`.
std::string bad_body(const std::string& id, std::uint64_t which,
                     const ServeShape& shape) {
  const std::string head = "{\"schema\":\"synran-req/1\",\"id\":\"" + id + "\",";
  switch (which % 5) {
    case 0:
      return head + "\"cmd\":\"run\",\"config\":{\"n\":" +
             std::to_string(shape.n) + ",\"bogus\":1}}";
    case 1:
      return head + "\"cmd\":\"run\",\"config\":{\"protocol\":\"paxos\"}}";
    case 2:
      return head + "\"cmd\":\"run\",\"config\":{\"n\":0}}";
    case 3:
      return head + "\"cmd\":\"explode\"}";
    default:
      return "{\"schema\":\"synran-req/1\",\"id\":\"" + id + "\",\"cmd\":";
  }
}

std::string stem_of(const std::string& body) {
  const auto req = synran::serve::parse_request(body);
  return synran::serve::cache_file_stem(
      synran::serve::cache_key_string(req.config, kGitRev));
}

std::uint64_t config_seed(std::uint64_t workload_seed, std::uint64_t k) {
  // Stored configs take k < 2^20, misses k >= 2^20: never the same key.
  return ((workload_seed & 0x3fffffffULL) << 24) + k;
}

/// The seeded script: ~60% hits (80% of them on a hot subset of stored
/// keys), ~35% misses on fresh seeds, ~5% invalid requests.
Script make_script(std::uint64_t seed, const ServeShape& shape,
                   std::size_t length) {
  Script s;
  for (std::size_t k = 0; k < shape.stored; ++k) {
    s.seeds.push_back(config_seed(seed, k));
    s.stems.push_back(stem_of(run_body("x", s.seeds.back(), shape)));
  }
  std::unordered_map<std::string, std::size_t> config_of_stem;
  for (std::size_t k = 0; k < s.stems.size(); ++k) config_of_stem[s.stems[k]] = k;

  // The daemon's LRU after recover(): stems in sorted order.
  std::vector<std::string> lru = s.stems;
  std::sort(lru.begin(), lru.end());
  auto touch = [&lru](const std::string& stem) {
    lru.erase(std::remove(lru.begin(), lru.end(), stem), lru.end());
    lru.push_back(stem);
  };

  synran::Xoshiro256 rng(seed ^ 0x7365727665ULL);
  std::uint64_t hits = 0, misses = 0, evictions = 0, fresh = 1u << 20;
  for (std::size_t i = 0; i < length; ++i) {
    Request r;
    r.id = "r" + std::to_string(i);
    const double u = rng.uniform();
    if (u < 0.05) {
      r.kind = Kind::Bad;
      r.body = bad_body(r.id, rng.next(), shape);
    } else if (u < 0.40) {
      r.kind = Kind::Miss;
      s.seeds.push_back(config_seed(seed, fresh++));
      r.body = run_body(r.id, s.seeds.back(), shape);
      s.stems.push_back(stem_of(r.body));
      r.config = s.stems.size() - 1;
      config_of_stem[s.stems.back()] = r.config;
      ++misses;
      touch(s.stems.back());
      while (lru.size() > shape.max_entries) {
        lru.erase(lru.begin());
        ++evictions;
      }
    } else {
      r.kind = Kind::Hit;
      std::size_t k = shape.stored;
      if (rng.uniform() < 0.8) {
        const std::size_t hot = rng.below(shape.hot);
        if (std::find(lru.begin(), lru.end(), s.stems[hot]) != lru.end()) {
          k = hot;
        }
      }
      if (k == shape.stored) k = config_of_stem.at(lru[rng.below(lru.size())]);
      r.config = k;
      r.body = run_body(r.id, s.seeds[k], shape);
      ++hits;
      touch(s.stems[k]);
    }
    r.hits = hits;
    r.misses = misses;
    r.evictions = evictions;
    s.requests.push_back(std::move(r));
  }
  return s;
}

/// Blanks the request id so responses to one config compare equal.
std::string without_id(const std::string& response, const std::string& id) {
  const std::string needle = "\"id\":\"" + id + "\"";
  const std::size_t at = response.find(needle);
  if (at == std::string::npos) return response;
  return response.substr(0, at) + "\"id\":\"\"" +
         response.substr(at + needle.size());
}

// ---------------------------------------------------------------------------
// Client side: a plain framed socket connection, independent of the
// daemon's own frame code.

class Client {
 public:
  explicit Client(int fd) : fd_(fd) {}
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send(const std::string& body) {
    const std::string frame = std::to_string(body.size()) + "\n" + body;
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t w = ::write(fd_, frame.data() + off, frame.size() - off);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) throw std::runtime_error("client write failed");
      off += static_cast<std::size_t>(w);
    }
  }

  std::string receive() {
    std::size_t nl;
    while ((nl = buf_.find('\n')) == std::string::npos) fill();
    const std::size_t len = std::stoul(buf_.substr(0, nl));
    while (buf_.size() < nl + 1 + len) fill();
    std::string body = buf_.substr(nl + 1, len);
    buf_.erase(0, nl + 1 + len);
    return body;
  }

  std::string call(const std::string& body) {
    send(body);
    return receive();
  }

 private:
  /// Busy-polls the socket, so the client's own wake-up latency stays
  /// out of the measured round trip; only the daemon's remains.
  void fill() {
    char chunk[65536];
    const std::int64_t give_up = now_ns() + 120'000'000'000LL;
    for (;;) {
      const ssize_t r = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
      if (r > 0) {
        buf_.append(chunk, static_cast<std::size_t>(r));
        return;
      }
      if (r == 0) throw std::runtime_error("daemon closed the connection");
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        throw std::runtime_error("client read failed");
      }
      if (now_ns() > give_up) throw std::runtime_error("daemon stopped answering");
    }
  }

  int fd_;
  std::string buf_;
};

/// One spawned daemon; always reaped (shutdown request, else SIGKILL).
class Daemon {
 public:
  Daemon(const Params& p, const std::string& cache_dir,
         const std::string& socket, const ServeShape& shape)
      : socket_(socket) {
    const std::string max = std::to_string(shape.max_entries);
    const std::string log = p.work + "/daemon.log";
    std::vector<std::string> argv = {p.synran, "serve", "--socket", socket,
                                     "--cache-dir", cache_dir, "--threads",
                                     "1", "--git-rev", kGitRev,
                                     "--max-cache-entries", max};
    std::vector<char*> args;
    for (auto& a : argv) args.push_back(a.data());
    args.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                     O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    started_ = now_ns();
    const int rc = posix_spawn(&pid_, args[0], &actions, nullptr, args.data(),
                               environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot spawn " + p.synran);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      reap();
    }
  }

  /// Connects (retrying while the daemon recovers its cache) and answers
  /// one ping; returns the client and the seconds since spawn.
  std::pair<std::unique_ptr<Client>, double> connect_and_ping() {
    const std::int64_t give_up = started_ + 60'000'000'000LL;
    for (;;) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, socket_.c_str(), sizeof addr.sun_path - 1);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
        auto client = std::make_unique<Client>(fd);
        const std::string pong = client->call(control_body("ping", "ping"));
        const double s = static_cast<double>(now_ns() - started_) * 1e-9;
        if (pong.find("\"pong\":true") == std::string::npos) {
          throw std::runtime_error("daemon did not answer ping: " + pong);
        }
        return {std::move(client), s};
      }
      ::close(fd);
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("daemon exited during start-up");
      }
      if (now_ns() > give_up) throw std::runtime_error("daemon never listened");
      ::usleep(200);
    }
  }

  /// The daemon's peak RSS so far, in MiB. Read from /proc while it runs:
  /// the peak wait4 reports would also count the spawning process's
  /// memory, which the child shares until it execs.
  double peak_rss_mib() const {
    return perfbench::peak_rss_mib("/proc/" + std::to_string(pid_) +
                                   "/status");
  }

  /// How the daemon ended: its exit code (-1 when killed) and the CPU time
  /// (every thread) it used from spawn to exit.
  struct Exit {
    int code = -1;
    double user_s = 0.0;  ///< user-mode CPU time
    double sys_s = 0.0;   ///< kernel-mode CPU time
  };

  /// Waits for the daemon to exit.
  Exit wait() { return reap(); }

 private:
  Exit reap() {
    int status = 0;
    rusage usage{};
    pid_t got;
    do {
      got = ::wait4(pid_, &status, 0, &usage);
    } while (got < 0 && errno == EINTR);
    pid_ = -1;
    auto seconds = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) * 1e-6;
    };
    Exit e;
    e.code = got > 0 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    e.user_s = seconds(usage.ru_utime);
    e.sys_s = seconds(usage.ru_stime);
    return e;
  }

  std::string socket_;
  pid_t pid_ = -1;
  std::int64_t started_ = 0;
};

void put(std::map<std::string, Metric>& m, const std::string& name,
         double value, const char* unit, std::size_t samples = 1) {
  m[name] = Metric{value, unit, samples};
}

std::uint64_t counter(const std::string& stats_response, const char* name) {
  const auto parsed = JsonValue::parse(stats_response);
  if (!parsed) return ~0ULL;
  const JsonValue* result = parsed->find("result");
  const JsonValue* counters = result ? result->find("counters") : nullptr;
  const JsonValue* v = counters ? counters->find(name) : nullptr;
  return v != nullptr && v->is_int() ? static_cast<std::uint64_t>(v->as_int())
                                     : ~0ULL;
}

/// The daemon's best_effort_id(): the id of a request that failed
/// validation, when its body is JSON with a usable id.
std::string request_id(const std::string& body) {
  const auto parsed = JsonValue::parse(body);
  if (!parsed) return std::string();
  const JsonValue* id = parsed->find("id");
  if (id != nullptr && id->is_string() && id->as_string().size() <= 256) {
    return id->as_string();
  }
  return std::string();
}

/// Stage timings of the in-process replay, per request.
struct Stages {
  std::vector<double> frame, request, lookup_hit, lookup_miss, plan, execute,
      store, respond, hit_total, miss_total;
};

/// The traced run: replays the script in-process through the public serve
/// functions and compares every response with the daemon's bytes, then
/// runs each miss's batch again with the engine's tracing wrappers.
/// `process_rounds` is Σ n · rounds_to_halt over the misses' reps.
void traced_replay(const Params& p, const ServeShape& shape,
                   const std::string& master, const Script& script,
                   const std::vector<std::string>& responses,
                   double process_rounds,
                   const std::map<std::string, Metric>& untraced,
                   Outcome& out) {
  namespace sv = synran::serve;
  const std::string dir = p.work + "/traced-store";
  fs::copy(master, dir, fs::copy_options::recursive);

  SpanLog spans;
  const std::int64_t r0 = now_ns();
  sv::ResultCache cache(sv::ResultCache::Options{dir, shape.max_entries, 3, 10});
  const std::int64_t r1 = now_ns();
  spans.add("serve.recover", r0, r1);

  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  sv::FrameReader reader(fds[0]);
  Stages st;
  std::vector<std::pair<std::size_t, JsonValue>> computed;  ///< the misses
  std::size_t mismatches = 0;
  const std::size_t count = responses.size();
  const std::int64_t loop0 = now_ns();
  for (std::size_t i = 0; i < count; ++i) {
    const Request& q = script.requests[i];
    const auto id = static_cast<std::int64_t>(i);
    const std::int64_t a0 = now_ns();
    const std::int64_t root = spans.add("serve.handle", a0, a0, -1, id);
    std::string body;
    sv::write_frame(fds[1], q.body);
    reader.next(body);
    const std::int64_t a1 = now_ns();
    spans.add("serve.frame", a0, a1, root, id);
    std::int64_t frame = a1 - a0;
    std::string response;
    sv::ServeRequest req;
    std::string key;
    bool bad = false;
    const std::int64_t b0 = now_ns();
    try {
      req = sv::parse_request(body);
      key = sv::cache_key_string(req.config, kGitRev);
    } catch (const sv::BadRequest& e) {
      bad = true;
      response = sv::error_response(request_id(body), "bad_request", e.what())
                     .dump();
    }
    const std::int64_t b1 = now_ns();
    spans.add("serve.request", b0, b1, root, id);
    st.request.push_back(static_cast<double>(b1 - b0));
    bool hit = false;
    if (!bad) {
      const std::int64_t c0 = now_ns();
      std::optional<JsonValue> payload = cache.lookup(key);
      const std::int64_t c1 = now_ns();
      spans.add("serve.lookup", c0, c1, root, id);
      hit = payload.has_value();
      (hit ? st.lookup_hit : st.lookup_miss).push_back(static_cast<double>(c1 - c0));
      if (!hit) {
        const std::int64_t d0 = now_ns();
        const sv::RunPlan plan = sv::build_plan(req.config, 1);
        const std::int64_t d1 = now_ns();
        payload = sv::execute_plan(plan);
        const std::int64_t d2 = now_ns();
        cache.store(key, *payload);
        const std::int64_t d3 = now_ns();
        spans.add("serve.plan", d0, d1, root, id);
        spans.add("serve.execute", d1, d2, root, id);
        spans.add("serve.store", d2, d3, root, id);
        st.plan.push_back(static_cast<double>(d1 - d0));
        st.execute.push_back(static_cast<double>(d2 - d1));
        st.store.push_back(static_cast<double>(d3 - d2));
        computed.emplace_back(i, *payload);
      }
      const std::int64_t e0 = now_ns();
      response =
          sv::ok_response(req.id, sv::result_from_payload(false, *payload))
              .dump();
      const std::int64_t e1 = now_ns();
      spans.add("serve.respond", e0, e1, root, id);
      st.respond.push_back(static_cast<double>(e1 - e0));
    }
    const std::int64_t f0 = now_ns();
    std::string echoed;
    sv::write_frame(fds[1], response);
    reader.next(echoed);
    const std::int64_t f1 = now_ns();
    spans.add("serve.frame", f0, f1, root, id);
    spans.close(root, f1);
    frame += f1 - f0;
    st.frame.push_back(static_cast<double>(frame));
    if (!bad) {
      (hit ? st.hit_total : st.miss_total)
          .push_back(static_cast<double>(f1 - a0) * 1e-6);
    }
    if (echoed != responses[i]) ++mismatches;
  }
  const std::int64_t loop1 = now_ns();
  ::close(fds[0]);
  ::close(fds[1]);
  out.attempted += count;
  if (mismatches > 0) {
    out.fail(mismatches, std::to_string(mismatches) +
                             " in-process responses differ from the daemon's");
  }
  if (count > 0) {
    const Request& last = script.requests[count - 1];
    if (cache.hits() != last.hits || cache.misses() != last.misses ||
        cache.evictions() != last.evictions) {
      out.fail(count, "in-process cache counters differ from the script's");
    }
  }

  std::ofstream spans_out(p.work + "/spans.tsv", std::ios::trunc);
  spans_out << "thread\tparent\tid\tname\tstart_ns\tend_ns\n";
  spans.write(spans_out, "serve");

  // The engine layers under the misses: each miss's batch once more, from
  // the plan the daemon builds, with the tracing wrappers installed. Its
  // checkpoint must equal the payload execute_plan returned.
  LayerTotals totals;
  for (const auto& [i, payload] : computed) {
    const sv::RunPlan plan =
        sv::build_plan(sv::parse_request(script.requests[i].body).config, 1);
    const TracedBatch b =
        traced_batch(*plan.factory, plan.adversaries, plan.spec, "", totals,
                     spans_out, "miss" + std::to_string(i));
    const auto delivered =
        static_cast<std::uint64_t>(b.stats.messages_delivered().sum() + 0.5);
    if (b.stats.checkpoint_json().dump() != payload.dump() ||
        b.links != delivered) {
      out.fail(1, script.requests[i].id +
                      ": traced batch differs from execute_plan's");
    }
  }
  put_layers(totals, true, "traced miss batches", out);

  auto& m = out.per_layer;
  put(m, "serve.recover_ns", static_cast<double>(r1 - r0), "ns");
  auto med = [&](const char* name, const std::vector<double>& v) {
    if (!v.empty()) put(m, name, median(v), "ns", v.size());
  };
  med("serve.frame_ns", st.frame);
  med("serve.request_ns", st.request);
  med("serve.lookup_hit_ns", st.lookup_hit);
  med("serve.lookup_miss_ns", st.lookup_miss);
  med("serve.plan_ns", st.plan);
  med("serve.execute_ns", st.execute);
  med("serve.store_ns", st.store);
  med("serve.respond_ns", st.respond);
  put(m, "serve.cache_hits", static_cast<double>(cache.hits()), "count");
  put(m, "serve.cache_misses", static_cast<double>(cache.misses()), "count");
  put(m, "serve.cache_evictions", static_cast<double>(cache.evictions()),
      "count");

  auto over = [&](const char* name, double traced, const char* unit) {
    const auto it = untraced.find(name);
    if (it != untraced.end()) put(out.overhead, name, traced - it->second.value, unit);
  };
  if (!st.hit_total.empty()) {
    over("hit_p50_ms", median(st.hit_total), "ms");
    over("hit_p99_ms", quantile(st.hit_total, 0.99), "ms");
  }
  if (!st.miss_total.empty()) {
    over("miss_p50_ms", median(st.miss_total), "ms");
    over("miss_p99_ms", quantile(st.miss_total, 0.99), "ms");
  }
  const double loop_s = static_cast<double>(loop1 - loop0) * 1e-9;
  over("serve_req_per_s", static_cast<double>(count) / loop_s, "req/s");
  over("reps_per_s",
       static_cast<double>(computed.size() * shape.reps) / loop_s, "reps/s");
  over("ns_per_process_round", loop_s * 1e9 / process_rounds, "ns");
  out.notes.push_back(
      "tracing overhead compares the in-process pipeline (no socket, no "
      "client) with the daemon's client round trips");
}

/// Builds the pre-populated store once per invocation: real payloads of
/// the stored configs, committed through ResultCache::store.
std::vector<JsonValue> build_store(const std::string& master,
                                   const Script& script,
                                   const ServeShape& shape) {
  namespace sv = synran::serve;
  std::vector<JsonValue> payloads(shape.stored);
  std::vector<sv::ServeRequest> reqs;
  for (std::size_t k = 0; k < shape.stored; ++k) {
    reqs.push_back(sv::parse_request(run_body("x", script.seeds[k], shape)));
  }
  const unsigned workers = 3;
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      for (std::size_t k = w; k < shape.stored; k += workers) {
        payloads[k] = sv::execute_plan(sv::build_plan(reqs[k].config, 1));
      }
    });
  }
  for (auto& t : pool) t.join();
  sv::ResultCache cache(sv::ResultCache::Options{master, 0, 3, 10});
  for (std::size_t k = 0; k < shape.stored; ++k) {
    cache.store(sv::cache_key_string(reqs[k].config, kGitRev), payloads[k]);
  }
  return payloads;
}

/// Overwrites one counter of a stored entry's payload with a different
/// value, keeping the entry valid: the daemon will serve it as a hit.
void tamper_entry(const std::string& dir, const std::string& stem) {
  const std::string path = dir + "/" + stem + ".ckpt";
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const std::string needle = "\"decided_one\":";
  const std::size_t at = text.find(needle, text.find("\"data\":"));
  if (at == std::string::npos) throw std::runtime_error("cannot tamper " + path);
  text.insert(at + needle.size(), "1");
  std::ofstream(path, std::ios::trunc) << text;
}

/// Client-side figures pooled over a run's sessions.
struct Latencies {
  std::vector<double> hit_ms, miss_ms;
};

/// One scripted session: a daemon over a fresh copy of the store plays the
/// whole script, answers `stats`, and exits on `shutdown`.
struct Session {
  double wall_s = 0.0;   ///< the script's closed loop
  double rss_mib = 0.0;  ///< the daemon's peak RSS
  double user_s = 0.0;   ///< the daemon's user-mode CPU time, spawn to exit
  double sys_s = 0.0;    ///< and its kernel-mode CPU time
};

Session run_session(const Params& p, const ServeShape& shape,
                    const Script& script, const std::string& store,
                    const std::string& socket,
                    std::vector<std::string>& expected, Latencies& lat,
                    std::vector<std::string>* responses, bool force_bad,
                    Outcome& out) {
  Session session;
  Daemon daemon(p, store, socket, shape);
  auto client = daemon.connect_and_ping().first;

  bool forced_done = !force_bad;
  const std::int64_t loop0 = now_ns();
  for (const Request& q : script.requests) {
    // The self-test's forced mismatch: a valid request where the script
    // expects a rejection.
    const bool forced = q.kind == Kind::Bad && !forced_done;
    forced_done = forced_done || forced;
    const std::string& body = forced ? control_body(q.id, "ping") : q.body;
    const std::int64_t t0 = now_ns();
    std::string resp = client->call(body);
    const std::int64_t t1 = now_ns();
    const double ms = static_cast<double>(t1 - t0) * 1e-6;
    ++out.attempted;
    const auto parsed = JsonValue::parse(resp);
    const JsonValue* ok = parsed ? parsed->find("ok") : nullptr;
    const bool is_ok = ok != nullptr && ok->is_bool() && ok->as_bool();
    if (q.kind == Kind::Bad) {
      const JsonValue* err = parsed ? parsed->find("error") : nullptr;
      const JsonValue* code = err ? err->find("code") : nullptr;
      if (is_ok || code == nullptr || !code->is_string() ||
          code->as_string() != "bad_request") {
        out.fail(1, q.id + ": invalid request not answered bad_request");
      }
    } else if (!is_ok) {
      out.fail(1, q.id + ": error response " + resp.substr(0, 200));
    } else {
      (q.kind == Kind::Hit ? lat.hit_ms : lat.miss_ms).push_back(ms);
      std::string& want = expected[q.config];
      const std::string got = without_id(resp, q.id);
      if (want.empty()) {
        want = got;
      } else if (got != want) {
        out.fail(1, q.id + ": response differs from the config's first response");
      }
    }
    if (responses != nullptr) responses->push_back(std::move(resp));
  }
  session.wall_s = static_cast<double>(now_ns() - loop0) * 1e-9;

  const std::string stats = client->call(control_body("stats", "stats"));
  const Request& last = script.requests.back();
  if (counter(stats, "cache_hits") != last.hits ||
      counter(stats, "cache_misses") != last.misses ||
      counter(stats, "cache_evictions") != last.evictions) {
    out.fail(script.requests.size(),
             "daemon stats hits/misses/evictions " +
                 std::to_string(counter(stats, "cache_hits")) + "/" +
                 std::to_string(counter(stats, "cache_misses")) + "/" +
                 std::to_string(counter(stats, "cache_evictions")) +
                 ", script expects " + std::to_string(last.hits) + "/" +
                 std::to_string(last.misses) + "/" +
                 std::to_string(last.evictions));
  }
  session.rss_mib = daemon.peak_rss_mib();
  client->call(control_body("bye", "shutdown"));
  client.reset();
  const Daemon::Exit exit = daemon.wait();
  session.user_s = exit.user_s;
  session.sys_s = exit.sys_s;
  if (exit.code != 0) {
    out.fail(script.requests.size(),
             "daemon exited " + std::to_string(exit.code) + " after shutdown");
  }
  return session;
}

/// Σ n · rounds_to_halt over the reps the script's misses compute, read
/// from the responses; checks that each miss ran every rep safely.
double miss_process_rounds(const Script& script, const ServeShape& shape,
                           const std::vector<std::string>& expected,
                           Outcome& out) {
  double total = 0.0;
  for (const Request& q : script.requests) {
    if (q.kind != Kind::Miss) continue;
    const auto parsed = JsonValue::parse(expected[q.config]);
    const JsonValue* result = parsed ? parsed->find("result") : nullptr;
    const JsonValue* reps = result ? result->find("reps") : nullptr;
    const JsonValue* mean = result ? result->find("rounds_to_halt_mean") : nullptr;
    const JsonValue* safe = result ? result->find("all_safe") : nullptr;
    if (reps == nullptr || !reps->is_int() ||
        reps->as_int() != static_cast<std::int64_t>(shape.reps) ||
        mean == nullptr || !mean->is_number() || safe == nullptr ||
        !safe->is_bool() || !safe->as_bool()) {
      out.fail(1, q.id + ": miss result not " + std::to_string(shape.reps) +
                      " safe reps");
      continue;
    }
    total += std::round(mean->as_double() * static_cast<double>(shape.reps)) *
             static_cast<double>(shape.n);
  }
  return total;
}

}  // namespace

void mark_serve_not_run(Outcome& out) {
  for (const char* name :
       {"serve.recover_ns", "serve.frame_ns", "serve.request_ns",
        "serve.lookup_hit_ns", "serve.lookup_miss_ns", "serve.plan_ns",
        "serve.execute_ns", "serve.store_ns", "serve.respond_ns",
        "serve.cache_hits", "serve.cache_misses", "serve.cache_evictions"}) {
    out.absent[name] = "this workload runs no serve code";
  }
}

Outcome run_serve_mixed(const Params& p) {
  namespace sv = synran::serve;
  Outcome out;
  const ServeShape shape = shape_for(p.tiny);
  const Script script = make_script(p.seed, shape, shape.script);

  const std::string master = p.work + "/store";
  const std::int64_t s0 = now_ns();
  const std::vector<JsonValue> payloads = build_store(master, script, shape);
  out.notes.push_back(
      "store of " + std::to_string(shape.stored) + " entries built in " +
      std::to_string(static_cast<double>(now_ns() - s0) * 1e-9) +
      " s (outside the timed region)");

  // Expected (id-blanked) response per config; stored configs known now,
  // the misses' from the first session.
  std::vector<std::string> expected(script.stems.size());
  for (std::size_t k = 0; k < shape.stored; ++k) {
    expected[k] =
        sv::ok_response("", sv::result_from_payload(false, payloads[k])).dump();
  }

  // Relative to the working directory the daemon inherits: a socket path
  // must fit in sockaddr_un (108 bytes) however deep the checkout is.
  const std::string socket = fs::proximate(p.work + "/d.sock").string();
  if (socket.size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw std::runtime_error("socket path too long: " + socket);
  }
  const std::string store = p.work + "/daemon-store";

  // Sessions until --seconds have passed (at least three), each from a
  // fresh copy of the store and each after set-up probes on that copy. A
  // probe's set-up time is its daemon's CPU time, user and kernel mode:
  // spawn, recover() over the store, the first ping, and shutdown (the
  // wall time from spawn to ping is kept for the report). Not the
  // user-mode part alone: the kernel splits a process's CPU time between
  // the two modes by sampling it at each timer tick, and a daemon that
  // lives ~40 ms sees only a few ticks. Host-probe samples follow.
  std::vector<Session> sessions;
  std::vector<double> setup, setup_wall, probes;
  std::vector<std::string> first_responses;
  Latencies lat;
  const std::size_t min_sessions = p.tiny ? 2 : 3;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(p.seconds * 1e9);
  while (sessions.size() < min_sessions || now_ns() < deadline) {
    std::error_code ec;
    fs::remove_all(store, ec);
    fs::copy(master, store, fs::copy_options::recursive);
    if (p.inject == "tamper-entry") tamper_entry(store, script.stems[0]);
    // Flush the copy now, so its writeback does not compete with the
    // daemon's fsync'd commits inside the timed loop.
    if (const int dir_fd = ::open(store.c_str(), O_RDONLY | O_DIRECTORY);
        dir_fd >= 0) {
      ::syncfs(dir_fd);
      ::close(dir_fd);
    }
    // Set-up probes: spawn until the first ping is answered, then shutdown.
    // Recovering a store leaves it as it was, so they share the copy.
    for (int i = 0; i < 3; ++i) {
      Daemon d(p, store, socket, shape);
      auto [client, s] = d.connect_and_ping();
      setup_wall.push_back(s);
      client->call(control_body("bye", "shutdown"));
      client.reset();
      const Daemon::Exit exit = d.wait();
      setup.push_back(exit.user_s + exit.sys_s);
      if (exit.code != 0) out.fail(0, "probe daemon exited non-zero");
    }
    for (int i = 0; i < 10; ++i) probes.push_back(host_probe_cpu_ns());
    const bool first = sessions.empty();
    sessions.push_back(run_session(
        p, shape, script, store, socket, expected, lat,
        first ? &first_responses : nullptr,
        first && p.inject == "bad-request", out));
  }
  const double process_rounds =
      miss_process_rounds(script, shape, expected, out);
  const std::size_t misses = static_cast<std::size_t>(
      script.requests.back().misses);

  std::vector<double> rss, reps_per_s, ns_ppr, user_ns_ppr, sys_ns_ppr,
      req_per_s;
  for (const Session& s : sessions) {
    rss.push_back(s.rss_mib);
    reps_per_s.push_back(static_cast<double>(misses * shape.reps) / s.wall_s);
    ns_ppr.push_back(s.wall_s * 1e9 / process_rounds);
    user_ns_ppr.push_back(s.user_s * 1e9 / process_rounds);
    sys_ns_ppr.push_back(s.sys_s * 1e9 / process_rounds);
    req_per_s.push_back(static_cast<double>(script.requests.size()) / s.wall_s);
  }
  auto& m = out.end_to_end;
  put(m, "reps_per_s", median(reps_per_s), "reps/s", sessions.size());
  put(m, "ns_per_process_round", median(ns_ppr), "ns", sessions.size());
  put(m, "cpu_ns_per_process_round",
      at_reference_speed(median(user_ns_ppr), probes), "ns", sessions.size());
  put(m, "raw_cpu_ns_per_process_round", median(user_ns_ppr), "ns",
      sessions.size());
  put(m, "sys_ns_per_process_round", median(sys_ns_ppr), "ns",
      sessions.size());
  put(m, "setup_s", at_reference_speed(median(setup), probes), "s",
      setup.size());
  put(m, "raw_setup_s", median(setup), "s", setup.size());
  put(m, "setup_wall_s", median(setup_wall), "s", setup_wall.size());
  put(m, "host_probe_ns", median(probes), "ns", probes.size());
  put(m, "peak_rss_mb", median(rss), "MiB", rss.size());
  put(m, "serve_req_per_s", median(req_per_s), "req/s", sessions.size());
  if (!lat.hit_ms.empty()) {
    put(m, "hit_p50_ms", median(lat.hit_ms), "ms", lat.hit_ms.size());
    put(m, "hit_p99_ms", quantile(lat.hit_ms, 0.99), "ms", lat.hit_ms.size());
  }
  if (!lat.miss_ms.empty()) {
    put(m, "miss_p50_ms", median(lat.miss_ms), "ms", lat.miss_ms.size());
    put(m, "miss_p99_ms", quantile(lat.miss_ms, 0.99), "ms",
        lat.miss_ms.size());
  }
  if (lat.hit_ms.size() < 1000 || lat.miss_ms.size() < 1000) {
    out.notes.push_back("fewer than ten samples lie beyond p99 (hits " +
                        std::to_string(lat.hit_ms.size()) + ", misses " +
                        std::to_string(lat.miss_ms.size()) + ")");
  }
  std::string walls, cpus;
  for (const Session& s : sessions) {
    walls += " " + std::to_string(s.wall_s);
    cpus += " " + std::to_string(s.user_s) + "+" + std::to_string(s.sys_s);
  }
  out.notes.push_back(
      std::to_string(sessions.size()) + " sessions of " +
      std::to_string(script.requests.size()) + " scripted requests (" +
      std::to_string(script.requests.back().hits) + " hits, " +
      std::to_string(misses) + " misses of " + std::to_string(shape.reps) +
      " reps, " + std::to_string(script.requests.back().evictions) +
      " evictions); session walls (s):" + walls +
      "; daemon user+sys CPU (s):" + cpus);

  if (p.trace) {
    traced_replay(p, shape, master, script, first_responses, process_rounds,
                  m, out);
  }
  return out;
}

}  // namespace perfbench
