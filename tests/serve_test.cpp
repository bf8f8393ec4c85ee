// The serve daemon's contract, tested without sockets or subprocesses:
// regular-file fd pairs drive the same serve_stream() loop the daemon
// runs, and exec::note_signal_stop() plays the operator's SIGINT. The
// properties pinned here are the ones ISSUE-level clients rely on:
// strict framing, CLI-grade request validation, canonicalization (two
// spellings of one batch → one cache key), crash-safe cache recovery
// with quarantine, retry-with-backoff under injected I/O faults, per-
// request deadlines that outlive the request but not the daemon, bounded
// queueing with explicit shedding, and byte-identical responses from the
// compute path, the cache-hit path, and a restarted daemon.
#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "adversary/basic.hpp"
#include "exec/stopper.hpp"
#include "fail_fast_race.hpp"
#include "obs/atomic_file.hpp"
#include "obs/io_error.hpp"
#include "obs/json.hpp"
#include "serve/cache.hpp"
#include "serve/frame.hpp"
#include "serve/plan.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"

namespace synran::serve {
namespace {

namespace fs = std::filesystem;
using obs::JsonValue;

std::string temp_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("synran_serve_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
}

std::string frame(const std::string& body) {
  return std::to_string(body.size()) + "\n" + body;
}

/// Splits a captured response stream back into frame bodies.
std::vector<std::string> split_frames(const std::string& bytes) {
  std::vector<std::string> bodies;
  std::size_t at = 0;
  while (at < bytes.size()) {
    const std::size_t nl = bytes.find('\n', at);
    EXPECT_NE(nl, std::string::npos) << "torn length line";
    const std::size_t len = std::stoul(bytes.substr(at, nl - at));
    EXPECT_LE(nl + 1 + len, bytes.size()) << "torn frame body";
    bodies.push_back(bytes.substr(nl + 1, len));
    at = nl + 1 + len;
  }
  return bodies;
}

JsonValue parse_json(const std::string& text) {
  const auto parsed = JsonValue::parse(text);
  EXPECT_TRUE(parsed.has_value()) << text;
  return parsed.has_value() ? *parsed : JsonValue::object();
}

/// Feeds request frames through Server::serve_fds over regular files and
/// returns (exit code, raw response bytes).
struct ServeResult {
  int exit_code = -1;
  std::string raw;
  std::vector<std::string> bodies;
};

ServeResult serve_over_files(Server& server, const std::string& dir,
                             const std::vector<std::string>& requests) {
  std::string in_bytes;
  for (const auto& r : requests) in_bytes += frame(r);
  const std::string in_path = dir + "/in.bin";
  const std::string out_path = dir + "/out.bin";
  write_file(in_path, in_bytes);

  const int in_fd = ::open(in_path.c_str(), O_RDONLY);
  const int out_fd =
      ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  EXPECT_GE(in_fd, 0);
  EXPECT_GE(out_fd, 0);

  ServeResult result;
  result.exit_code = server.serve_fds(in_fd, out_fd);
  ::close(in_fd);
  ::close(out_fd);
  result.raw = read_file(out_path);
  result.bodies = split_frames(result.raw);
  return result;
}

ServerOptions test_options(const std::string& cache_dir) {
  ServerOptions options;
  options.cache_dir = cache_dir;
  options.backoff_ms = 0;  // exercise the retry loop, skip the sleeps
  options.threads = 1;
  return options;
}

std::string tiny_run(const std::string& id) {
  return R"({"schema":"synran-req/1","id":")" + id +
         R"(","cmd":"run","config":{"model":"sync","n":8,"reps":3,"seed":11}})";
}

// ---------------------------------------------------------------- framing

TEST(Frame, RoundTripAndCleanEof) {
  const std::string dir = temp_dir("frame_rt");
  const std::string path = dir + "/frames.bin";
  write_file(path, "");
  const int wfd = ::open(path.c_str(), O_WRONLY);
  write_frame(wfd, "{}");
  write_frame(wfd, R"({"k":"v"})");
  ::close(wfd);

  const int rfd = ::open(path.c_str(), O_RDONLY);
  FrameReader reader(rfd);
  std::string body;
  ASSERT_TRUE(reader.next(body));
  EXPECT_EQ(body, "{}");
  ASSERT_TRUE(reader.next(body));
  EXPECT_EQ(body, R"({"k":"v"})");
  EXPECT_FALSE(reader.next(body));  // clean EOF at a frame boundary
  EXPECT_TRUE(reader.exhausted());
  ::close(rfd);
}

TEST(Frame, MalformedLengthOversizeAndTruncationAllThrow) {
  const std::string dir = temp_dir("frame_bad");
  const auto read_one = [&](const std::string& bytes, std::size_t max_frame) {
    const std::string path = dir + "/case.bin";
    write_file(path, bytes);
    const int fd = ::open(path.c_str(), O_RDONLY);
    FrameReader reader(fd, max_frame);
    std::string body;
    const auto cleanup = [fd] { ::close(fd); };
    try {
      reader.next(body);
      cleanup();
      return false;  // no throw
    } catch (const FrameError&) {
      cleanup();
      return true;
    }
  };
  EXPECT_TRUE(read_one("2x\n{}", kMaxFrameBytes));      // non-digit length
  EXPECT_TRUE(read_one("9\n{\"a\":1}", 4));             // over max_frame
  EXPECT_TRUE(read_one("10\n{\"a\"", kMaxFrameBytes));  // EOF mid-body
  EXPECT_FALSE(read_one("2\n{}", kMaxFrameBytes));      // control: well-formed
}

// --------------------------------------------------- request canonical form

TEST(Request, DefaultsSpelledOutCanonicalizeToTheSameKey) {
  const ServeRequest terse = parse_request(
      R"({"schema":"synran-req/1","id":"a","cmd":"run",)"
      R"("config":{"model":"sync","n":64,"seed":9}})");
  const ServeRequest spelled = parse_request(
      R"({"schema":"synran-req/1","id":"b","cmd":"run","config":{)"
      R"("seed":9,"n":64,"model":"sync","protocol":"synran","t":32,)"
      R"("pattern":"random","reps":50,"adversary":"coinbias","faults":"",)"
      R"("max_rounds":100000,"fail_policy":"fail_fast","retries":0}})");
  EXPECT_EQ(terse.config.dump(), spelled.config.dump());
  EXPECT_EQ(cache_key_string(terse.config, "rev1"),
            cache_key_string(spelled.config, "rev1"));
  // git_rev is part of the key: a rebuilt daemon never serves stale bytes.
  EXPECT_NE(cache_key_string(terse.config, "rev1"),
            cache_key_string(terse.config, "rev2"));
}

TEST(Request, AsyncDefaultsCanonicalizeAndExcludeSyncKeys) {
  const ServeRequest terse = parse_request(
      R"({"schema":"synran-req/1","id":"a","cmd":"run",)"
      R"("config":{"model":"async","n":16}})");
  const ServeRequest spelled = parse_request(
      R"({"schema":"synran-req/1","id":"b","cmd":"run","config":{)"
      R"("model":"async","protocol":"benor","scheduler":"random",)"
      R"("delay":"held","gst":0,"delta":0,"retransmit":0,"n":16,"t":7,)"
      R"("pattern":"random","reps":50,"seed":1,"max_steps":2000000,)"
      R"("max_time":0}})");
  EXPECT_EQ(terse.config.dump(), spelled.config.dump());
}

TEST(Request, ValidationRejectsAreStructuredAndSpecific) {
  const auto rejects = [](const std::string& body, const std::string& needle) {
    try {
      parse_request(body);
      ADD_FAILURE() << "accepted: " << body;
    } catch (const BadRequest& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "got: " << e.what();
    }
  };
  rejects("not json at all", "JSON");
  rejects(R"({"schema":"synran-req/2","id":"a","cmd":"ping"})", "schema");
  rejects(R"({"schema":"synran-req/1","id":"a","cmd":"reboot"})", "cmd");
  rejects(R"({"schema":"synran-req/1","id":"a","cmd":"ping","extra":1})",
          "extra");
  rejects(R"({"schema":"synran-req/1","id":"a","cmd":"run",)"
          R"("config":{"model":"sync","bogus":3}})",
          "bogus");
  rejects(R"({"schema":"synran-req/1","id":"a","cmd":"run",)"
          R"("config":{"model":"warp"}})",
          "model");
  // Sync-only keys on an async run are a loud rejection, not a silent drop.
  rejects(R"({"schema":"synran-req/1","id":"a","cmd":"run",)"
          R"("config":{"model":"async","adversary":"chain"}})",
          "adversary");
  rejects(R"({"schema":"synran-req/1","id":"a","cmd":"run",)"
          R"("config":{"model":"sync","faults":"omit:2.5"}})",
          "faults");
  rejects(R"({"schema":"synran-req/1","id":"a","cmd":"ping","config":{}})",
          "config");
}

// ------------------------------------------------------------------- cache

TEST(Cache, StoreLookupAndMissCounters) {
  ResultCache cache({temp_dir("cache_basic"), 0, 3, 0});
  JsonValue payload = JsonValue::object();
  payload.set("answer", static_cast<std::int64_t>(42));
  cache.store("key-a", payload);
  const auto hit = cache.lookup("key-a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->dump(), payload.dump());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_FALSE(cache.lookup("key-b").has_value());
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, SurvivesRestartOverTheSameDirectory) {
  const std::string dir = temp_dir("cache_restart");
  JsonValue payload = JsonValue::object();
  payload.set("x", static_cast<std::int64_t>(7));
  {
    ResultCache cache({dir, 0, 3, 0});
    cache.store("persist-key", payload);
  }
  ResultCache reopened({dir, 0, 3, 0});
  EXPECT_EQ(reopened.entries(), 1u);
  const auto hit = reopened.lookup("persist-key");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->dump(), payload.dump());
}

TEST(Cache, QuarantinesTornAndMisnamedEntriesOnRecover) {
  const std::string dir = temp_dir("cache_quarantine");
  {
    ResultCache cache({dir, 0, 3, 0});
    JsonValue payload = JsonValue::object();
    cache.store("good-key", payload);
  }
  // A torn write under the final name (the exact artifact fsync+rename is
  // meant to rule out — but another tool could still drop one here).
  write_file(dir + "/00000000deadbeef.ckpt", "{\"schema\":\"synran-ck");
  // A valid entry under the wrong name: content-addressing must refuse it.
  const std::string good_stem = cache_file_stem("good-key");
  fs::copy_file(dir + "/" + good_stem + ".ckpt",
                dir + "/1111111111111111.ckpt");

  ResultCache cache({dir, 0, 3, 0});
  EXPECT_EQ(cache.quarantined(), 2u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_TRUE(fs::exists(dir + "/00000000deadbeef.ckpt.quarantined"));
  EXPECT_TRUE(fs::exists(dir + "/1111111111111111.ckpt.quarantined"));
  // The good entry still serves.
  EXPECT_TRUE(cache.lookup("good-key").has_value());
}

TEST(Cache, EvictsLeastRecentlyUsedPastTheLimit) {
  ResultCache cache({temp_dir("cache_evict"), 2, 3, 0});
  JsonValue payload = JsonValue::object();
  cache.store("k1", payload);
  cache.store("k2", payload);
  ASSERT_TRUE(cache.lookup("k1").has_value());  // k1 now more recent than k2
  cache.store("k3", payload);                   // evicts k2
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.lookup("k1").has_value());
  EXPECT_TRUE(cache.lookup("k3").has_value());
  EXPECT_FALSE(cache.lookup("k2").has_value());
}

TEST(Cache, RetriesTransientIoFaultsWithBackoff) {
  ResultCache cache({temp_dir("cache_retry"), 0, 3, 0});
  JsonValue payload = JsonValue::object();
  payload.set("v", static_cast<std::int64_t>(1));

  int faults_left = 2;
  obs::set_io_fault_hook([&faults_left](obs::IoStage stage,
                                        const std::string& path) {
    if (stage == obs::IoStage::Fsync && faults_left > 0) {
      --faults_left;
      throw obs::IoError("injected transient fault on " + path);
    }
  });
  cache.store("flaky-key", payload);  // two failures, third attempt lands
  obs::set_io_fault_hook(nullptr);

  EXPECT_EQ(faults_left, 0);
  EXPECT_EQ(cache.io_retries(), 2u);
  EXPECT_TRUE(cache.lookup("flaky-key").has_value());
}

TEST(Cache, SurfacesIoErrorOnceAttemptsAreExhausted) {
  ResultCache cache({temp_dir("cache_exhaust"), 0, 2, 0});
  obs::set_io_fault_hook([](obs::IoStage, const std::string&) {
    throw obs::IoError("injected persistent fault");
  });
  JsonValue payload = JsonValue::object();
  EXPECT_THROW(cache.store("doomed", payload), obs::IoError);
  obs::set_io_fault_hook(nullptr);
  EXPECT_EQ(cache.entries(), 0u);
}

// ------------------------------------------------------------ server loop

TEST(Server, PingStatsAndBadRequestOverOneStream) {
  const std::string dir = temp_dir("srv_basic");
  Server server(test_options(dir + "/cache"));
  const auto result = serve_over_files(
      server, dir,
      {R"({"schema":"synran-req/1","id":"p","cmd":"ping"})",
       R"({"schema":"synran-req/1","id":"oops","cmd":"run",)"
       R"("config":{"bogus":1}})",
       "{not json", R"({"schema":"synran-req/1","id":"s","cmd":"stats"})"});
  EXPECT_EQ(result.exit_code, 0);
  ASSERT_EQ(result.bodies.size(), 4u);

  const JsonValue ping = parse_json(result.bodies[0]);
  EXPECT_EQ(ping.find("id")->as_string(), "p");
  EXPECT_TRUE(ping.find("ok")->as_bool());
  EXPECT_TRUE(ping.find("result")->find("pong")->as_bool());

  // An unknown config key is a structured rejection echoing the id.
  const JsonValue bad = parse_json(result.bodies[1]);
  EXPECT_EQ(bad.find("id")->as_string(), "oops");
  EXPECT_FALSE(bad.find("ok")->as_bool());
  EXPECT_EQ(bad.find("error")->find("code")->as_string(), "bad_request");

  const JsonValue notjson = parse_json(result.bodies[2]);
  EXPECT_FALSE(notjson.find("ok")->as_bool());
  EXPECT_EQ(notjson.find("error")->find("code")->as_string(), "bad_request");

  const JsonValue stats = parse_json(result.bodies[3]);
  EXPECT_TRUE(stats.find("ok")->as_bool());
  EXPECT_NE(stats.find("result")->find("counters"), nullptr);
}

TEST(Server, ComputeHitAndRestartResponsesAreByteIdentical) {
  const std::string dir = temp_dir("srv_identity");
  const std::vector<std::string> reqs = {tiny_run("q")};

  Server first(test_options(dir + "/cache"));
  const auto computed = serve_over_files(first, dir, reqs);   // miss
  const auto replayed = serve_over_files(first, dir, reqs);   // hit
  EXPECT_EQ(first.cache().hits(), 1u);
  EXPECT_EQ(first.cache().misses(), 1u);

  Server restarted(test_options(dir + "/cache"));  // same dir, new process
  const auto recovered = serve_over_files(restarted, dir, reqs);

  EXPECT_EQ(computed.exit_code, 0);
  EXPECT_EQ(computed.raw, replayed.raw);
  EXPECT_EQ(computed.raw, recovered.raw);
  EXPECT_EQ(restarted.cache().hits(), 1u);
  EXPECT_EQ(restarted.cache().misses(), 0u);

  const JsonValue resp = parse_json(computed.bodies.at(0));
  EXPECT_TRUE(resp.find("ok")->as_bool());
  EXPECT_EQ(resp.find("result")->find("reps")->as_int(), 3);
}

TEST(Server, FailFastReportsTheEarliestFailingRepAtTwoThreads) {
  // The daemon computes a miss through build_plan + execute_plan and
  // answers run_failed with the RepError text, so the reported rep must be
  // the earliest failing one even when a later rep fails first.
  const ServeRequest req = parse_request(
      R"({"schema":"synran-req/1","id":"race","cmd":"run","config":)"
      R"({"model":"sync","n":8,"reps":6,"seed":11}})");
  RunPlan plan = build_plan(req.config, FailFastRace::kThreads);
  ASSERT_EQ(plan.spec.reps, FailFastRace::kReps);
  FailFastRace race(plan.spec.seed);
  plan.adversaries = race.factory<Adversary>(
      [] { return std::make_unique<NoAdversary>(); });
  try {
    execute_plan(plan);
    FAIL() << "expected the rep-2 failure";
  } catch (const RepError& e) {
    EXPECT_EQ(e.rep(), FailFastRace::kReportedRep) << e.what();
  }
}

TEST(Server, ProtocolErrorAnswersOnceAndExitsNonzero) {
  const std::string dir = temp_dir("srv_proto");
  Server server(test_options(dir + "/cache"));
  std::string in_bytes = frame(
      R"({"schema":"synran-req/1","id":"p","cmd":"ping"})");
  in_bytes += "banana\n";  // non-digit length line: unrecoverable
  write_file(dir + "/in.bin", in_bytes);

  const int in_fd = ::open((dir + "/in.bin").c_str(), O_RDONLY);
  const int out_fd =
      ::open((dir + "/out.bin").c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const int rc = server.serve_fds(in_fd, out_fd);
  ::close(in_fd);
  ::close(out_fd);

  EXPECT_EQ(rc, 1);
  const auto bodies = split_frames(read_file(dir + "/out.bin"));
  ASSERT_EQ(bodies.size(), 2u);
  EXPECT_TRUE(parse_json(bodies[0]).find("ok")->as_bool());
  EXPECT_EQ(parse_json(bodies[1]).find("error")->find("code")->as_string(),
            "protocol_error");
}

TEST(Server, ShedsBeyondMaxQueueWithStructuredOverload) {
  const std::string dir = temp_dir("srv_shed");
  ServerOptions options = test_options(dir + "/cache");
  options.max_queue = 1;
  Server server(options);
  // All three frames are buffered before the first is handled, so the
  // greedy drain queues r1 and must shed r2 and r3.
  const auto result = serve_over_files(
      server, dir, {tiny_run("r1"), tiny_run("r2"), tiny_run("r3")});
  EXPECT_EQ(result.exit_code, 0);
  ASSERT_EQ(result.bodies.size(), 3u);

  std::size_t ok = 0, overloaded = 0;
  for (const auto& body : result.bodies) {
    const JsonValue resp = parse_json(body);
    if (resp.find("ok")->as_bool()) {
      ++ok;
      EXPECT_EQ(resp.find("id")->as_string(), "r1");
    } else {
      ++overloaded;
      EXPECT_EQ(resp.find("error")->find("code")->as_string(), "overloaded");
    }
  }
  EXPECT_EQ(ok, 1u);
  EXPECT_EQ(overloaded, 2u);
  EXPECT_EQ(server.metrics().counter_at("shed_total").value(), 2.0);
}

TEST(Server, DeadlineExceededIsPerRequestNotPerDaemon) {
  const std::string dir = temp_dir("srv_deadline");
  Server server(test_options(dir + "/cache"));
  // 10^7 reps cannot finish inside 40 ms; the watchdog raises the stop
  // flag, the executor unwinds between reps, and the daemon keeps serving.
  const std::string big_sync =
      R"({"schema":"synran-req/1","id":"slow","cmd":"run","deadline_ms":40,)"
      R"("config":{"model":"sync","n":32,"reps":10000000,"seed":5}})";
  const auto result = serve_over_files(
      server, dir,
      {big_sync, R"({"schema":"synran-req/1","id":"after","cmd":"ping"})"});
  EXPECT_EQ(result.exit_code, 0);
  ASSERT_EQ(result.bodies.size(), 2u);

  const JsonValue slow = parse_json(result.bodies[0]);
  EXPECT_FALSE(slow.find("ok")->as_bool());
  EXPECT_EQ(slow.find("error")->find("code")->as_string(),
            "deadline_exceeded");
  EXPECT_TRUE(parse_json(result.bodies[1]).find("ok")->as_bool());
  // A deadline must not leave the daemon's stop flag latched.
  EXPECT_FALSE(exec::stop_requested());
  // An aborted run is never cached: the next daemon must recompute.
  EXPECT_EQ(server.cache().entries(), 0u);
}

TEST(Server, DeadlineAppliesToAsyncBatchesToo) {
  const std::string dir = temp_dir("srv_deadline_async");
  Server server(test_options(dir + "/cache"));
  const std::string big_async =
      R"({"schema":"synran-req/1","id":"aslow","cmd":"run","deadline_ms":40,)"
      R"("config":{"model":"async","n":16,"reps":10000000,"seed":5}})";
  const auto result = serve_over_files(server, dir, {big_async});
  EXPECT_EQ(result.exit_code, 0);
  const JsonValue resp = parse_json(result.bodies.at(0));
  EXPECT_FALSE(resp.find("ok")->as_bool());
  EXPECT_EQ(resp.find("error")->find("code")->as_string(),
            "deadline_exceeded");
  EXPECT_FALSE(exec::stop_requested());
}

TEST(Server, ShutdownCommandFlushesTheQueueAndExitsZero) {
  const std::string dir = temp_dir("srv_shutdown");
  Server server(test_options(dir + "/cache"));
  // shutdown is handled first; the runs queued behind it are answered
  // `shutting_down`, never silently dropped.
  const auto result = serve_over_files(
      server, dir,
      {R"({"schema":"synran-req/1","id":"bye","cmd":"shutdown"})",
       tiny_run("late1"), tiny_run("late2")});
  EXPECT_EQ(result.exit_code, 0);
  ASSERT_EQ(result.bodies.size(), 3u);
  EXPECT_TRUE(parse_json(result.bodies[0]).find("ok")->as_bool());
  for (std::size_t i = 1; i < 3; ++i) {
    const JsonValue resp = parse_json(result.bodies[i]);
    EXPECT_FALSE(resp.find("ok")->as_bool());
    EXPECT_EQ(resp.find("error")->find("code")->as_string(),
              "shutting_down");
  }
}

TEST(Server, SignalBeforeTheLoopDrainsWithExitCodeFour) {
  const std::string dir = temp_dir("srv_drain");
  Server server(test_options(dir + "/cache"));
  exec::note_signal_stop();  // exactly what the SIGINT/SIGTERM handler does
  const auto result = serve_over_files(server, dir, {tiny_run("never")});
  exec::clear_stop();
  EXPECT_EQ(result.exit_code, kDrainExitCode);
  // The signal landed before any frame was accepted; nothing was owed.
  EXPECT_TRUE(result.bodies.empty());
}

TEST(Server, CacheStoreFailureDegradesTheCacheNotTheAnswer) {
  const std::string dir = temp_dir("srv_storefail");
  ServerOptions options = test_options(dir + "/cache");
  options.io_attempts = 2;
  Server server(options);
  obs::set_io_fault_hook([](obs::IoStage, const std::string&) {
    throw obs::IoError("injected persistent fault");
  });
  const auto result = serve_over_files(server, dir, {tiny_run("r")});
  obs::set_io_fault_hook(nullptr);

  EXPECT_EQ(result.exit_code, 0);
  const JsonValue resp = parse_json(result.bodies.at(0));
  EXPECT_TRUE(resp.find("ok")->as_bool());  // the answer still went out
  EXPECT_EQ(server.metrics().counter_at("cache_store_failures").value(), 1.0);
  EXPECT_EQ(server.cache().entries(), 0u);
}

}  // namespace
}  // namespace synran::serve
