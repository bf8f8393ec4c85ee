// Unit tests for the synran_lint core: every banned pattern must be caught,
// every legitimate idiom must pass, and the allow-trailer must suppress.
// Also covered: the token lexer (comments and literals are invisible to
// rules), the layer DAG semantics, the three cross-file rules driven over
// the checked-in trees under tests/lint_fixtures/, SARIF 2.1.0 document
// shape, and the baseline round-trip (suppression + stale detection).
// The banned tokens appearing below as fixture strings carry allow-trailers
// so the lint's own sweep over tests/ stays clean — which doubles as a live
// demonstration of the suppression syntax.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "obs/json.hpp"
#include "synran_lint/baseline.hpp"
#include "synran_lint/include_graph.hpp"
#include "synran_lint/lexer.hpp"
#include "synran_lint/lint.hpp"
#include "synran_lint/sarif.hpp"

namespace synran::lint {
namespace {

std::size_t count_rule(const std::vector<Finding>& findings,
                      const std::string& rule) {
  std::size_t n = 0;
  for (const auto& f : findings)
    if (f.rule == rule) ++n;
  return n;
}

// ---------------------------------------------------------- classification

TEST(LintClassify, RootsAndRoles) {
  EXPECT_TRUE(classify("src/sim/engine.cpp").scanned);
  EXPECT_TRUE(classify("tests/sim_test.cpp").scanned);
  EXPECT_TRUE(classify("bench/bench_util.hpp").scanned);
  EXPECT_TRUE(classify("examples/quickstart.cpp").scanned);
  EXPECT_FALSE(classify("tools/synran_cli.cpp").scanned);
  EXPECT_FALSE(classify("build/generated.cpp").scanned);

  EXPECT_TRUE(classify("src/common/rng.hpp").is_rng_header);
  EXPECT_TRUE(classify("src/protocols/synran.cpp").protocol_code);
  EXPECT_TRUE(classify("src/async/benor.cpp").protocol_code);
  EXPECT_FALSE(classify("src/adversary/basic.cpp").protocol_code);

  EXPECT_TRUE(classify("src/sim/engine.cpp").library_code);
  EXPECT_FALSE(classify("src/runner/experiment.cpp").library_code);
  EXPECT_FALSE(classify("examples/quickstart.cpp").library_code);

  EXPECT_TRUE(classify("src/obs/metrics.cpp").clock_allowed);
  EXPECT_TRUE(classify("bench/bench_util.hpp").clock_allowed);
  EXPECT_FALSE(classify("src/sim/engine.cpp").clock_allowed);
  EXPECT_FALSE(classify("tests/sim_test.cpp").clock_allowed);

  EXPECT_TRUE(classify("src/exec/executor.cpp").threads_allowed);
  EXPECT_TRUE(classify("src/exec/batch.hpp").threads_allowed);
  EXPECT_FALSE(classify("src/sim/engine.cpp").threads_allowed);
  EXPECT_FALSE(classify("bench/bench_util.hpp").threads_allowed);
}

// ---------------------------------------------------------- banned-random

TEST(LintBannedRandom, EachPrimitiveIsCaught) {
  const char* lines[] = {
      "std::mt19937 gen(42);",          // synran-lint: allow(banned-random)
      "std::mt19937_64 gen;",           // synran-lint: allow(banned-random)
      "std::random_device rd;",         // synran-lint: allow(banned-random)
      "int x = rand() % 6;",            // synran-lint: allow(banned-random)
      "srand(42);",                     // synran-lint: allow(banned-random)
      "int y = std::rand();",           // synran-lint: allow(banned-random)
      "seed = time(nullptr);",          // synran-lint: allow(banned-random)
      "seed = std::time(0);",           // synran-lint: allow(banned-random)
  };
  for (const char* line : lines) {
    const auto f = scan_file("src/sim/foo.cpp", line);
    EXPECT_EQ(count_rule(f, "banned-random"), 1u) << line;
  }
}

TEST(LintBannedRandom, RngHeaderIsExemptAndLookalikesPass) {
  const std::string ok =
      std::string("#pragma once\n") +
      "std::mt19937 would_be_fine_here;";  // synran-lint: allow(banned-random)
  EXPECT_TRUE(scan_file("src/common/rng.hpp", ok).empty());
  // Identifier boundaries: these merely *contain* banned substrings.
  EXPECT_TRUE(scan_file("src/sim/foo.cpp", "int operand(int);").empty());
  EXPECT_TRUE(scan_file("src/sim/foo.cpp", "auto brand(Bit b);").empty());
  EXPECT_TRUE(
      scan_file("src/sim/foo.cpp", "double runtime(Round r);").empty());
}

TEST(LintBannedRandom, AllowTrailerSuppresses) {
  const std::string line =
      std::string("std::mt19937 g; ") +  // synran-lint: allow(banned-random)
      "// synran-lint: allow(banned-random)";
  EXPECT_TRUE(scan_file("src/sim/foo.cpp", line).empty());
}

// ------------------------------------------------------------ coin-source

TEST(LintCoinSource, DirectGeneratorInProtocolCodeFails) {
  const char* line = "Xoshiro256 rng_(seed);";
  EXPECT_EQ(count_rule(scan_file("src/protocols/p.cpp", line), "coin-source"),
            1u);
  EXPECT_EQ(count_rule(scan_file("src/async/p.cpp", line), "coin-source"),
            1u);
  // The same construction is fine in adversaries, tests, and the engine.
  EXPECT_TRUE(scan_file("src/adversary/a.cpp", line).empty());
  EXPECT_TRUE(scan_file("tests/a_test.cpp", line).empty());
}

TEST(LintCoinSource, CoinSourceUseIsFine) {
  EXPECT_TRUE(
      scan_file("src/protocols/p.cpp", "b_ = bit_of(coins.flip());").empty());
}

// ------------------------------------------------- header hygiene rules

TEST(LintHeaders, MissingPragmaOnceFails) {
  const auto f = scan_file("src/sim/h.hpp", "#include <vector>\n");
  ASSERT_EQ(count_rule(f, "pragma-once"), 1u);
  EXPECT_EQ(f.front().line, 1u);
  EXPECT_TRUE(
      scan_file("src/sim/h.hpp", "#pragma once\n#include <vector>\n")
          .empty());
  // Sources don't need it.
  EXPECT_TRUE(scan_file("src/sim/h.cpp", "#include <vector>\n").empty());
}

TEST(LintHeaders, UsingNamespaceInHeaderFails) {
  const std::string h = "#pragma once\nusing namespace std;\n";
  EXPECT_EQ(count_rule(scan_file("src/sim/h.hpp", h), "using-namespace"),
            1u);
  // Fine in a .cpp (examples and tools do this deliberately).
  EXPECT_TRUE(
      scan_file("examples/e.cpp", "using namespace synran;\n").empty());
}

TEST(LintIostream, LibraryCodeMayNotPrint) {
  const char* line = "#include <iostream>";
  EXPECT_EQ(count_rule(scan_file("src/sim/engine.cpp", line), "iostream"),
            1u);
  // The runner, examples, tests, and bench may print.
  EXPECT_TRUE(scan_file("src/runner/experiment.cpp", line).empty());
  EXPECT_TRUE(scan_file("examples/e.cpp", line).empty());
  EXPECT_EQ(count_rule(scan_file("bench/bench_util.hpp", line), "iostream"),
            0u);
  // <ostream> for operator<< is fine anywhere.
  EXPECT_TRUE(scan_file("src/sim/engine.cpp", "#include <ostream>").empty());
}

// ------------------------------------------------------------ bare-assert

TEST(LintBareAssert, AssertAndAbortFail) {
  const char* a = "assert(x > 0);";     // synran-lint: allow(bare-assert)
  const char* b = "std::abort();";      // synran-lint: allow(bare-assert)
  EXPECT_EQ(count_rule(scan_file("src/sim/f.cpp", a), "bare-assert"), 1u);
  EXPECT_EQ(count_rule(scan_file("src/sim/f.cpp", b), "bare-assert"), 1u);
}

TEST(LintBareAssert, StaticAssertAndGtestMacrosPass) {
  EXPECT_TRUE(
      scan_file("src/sim/f.cpp", "static_assert(sizeof(int) == 4);").empty());
  EXPECT_TRUE(scan_file("tests/t.cpp", "ASSERT_TRUE(ok);").empty());
  EXPECT_TRUE(
      scan_file("src/sim/f.cpp", "SYNRAN_CHECK(budget <= t);").empty());
}

// ------------------------------------------------------------- wall-clock

TEST(LintWallClock, ClockReadsOutsideObsAndBenchFail) {
  const char* lines[] = {
      "#include <chrono>",                      // synran-lint: allow(wall-clock)
      "auto t0 = std::chrono::steady_clock::now();",  // synran-lint: allow(wall-clock)
      "steady_clock::time_point tp;",           // synran-lint: allow(wall-clock)
      "system_clock::time_point tp;",           // synran-lint: allow(wall-clock)
      "auto t = high_resolution_clock::now();", // synran-lint: allow(wall-clock)
  };
  for (const char* line : lines) {
    EXPECT_EQ(count_rule(scan_file("src/sim/f.cpp", line), "wall-clock"), 1u)
        << line;
    EXPECT_EQ(count_rule(scan_file("tests/t.cpp", line), "wall-clock"), 1u)
        << line;
    // Timing belongs to the observability layer and the bench harness.
    EXPECT_EQ(count_rule(scan_file("src/obs/metrics.cpp", line), "wall-clock"),
              0u)
        << line;
    EXPECT_EQ(count_rule(scan_file("bench/bench_util.hpp", line), "wall-clock"),
              0u)
        << line;
  }
}

TEST(LintWallClock, LookalikesAndTrailerPass) {
  // "synchronous" contains "chrono": identifier boundaries must reject it.
  EXPECT_TRUE(
      scan_file("src/sim/f.cpp", "// the synchronous engine of §3.1").empty());
  EXPECT_TRUE(
      scan_file("src/sim/f.cpp", "void steady_clockwork(int);").empty());
  const std::string line =
      std::string("auto t0 = std::chrono::steady_clock::now(); ") +  // synran-lint: allow(wall-clock)
      "// synran-lint: allow(wall-clock)";
  EXPECT_TRUE(scan_file("src/sim/f.cpp", line).empty());
}

// ---------------------------------------------------------------- threads

TEST(LintThreads, ThreadingPrimitivesOutsideExecFail) {
  const char* lines[] = {
      "std::thread worker(fn);",        // synran-lint: allow(threads)
      "std::jthread worker(fn);",       // synran-lint: allow(threads)
      "auto f = std::async(fn);",       // synran-lint: allow(threads)
      "std::mutex m;",                  // synran-lint: allow(threads)
      "std::shared_mutex m;",           // synran-lint: allow(threads)
      "#include <thread>",              // synran-lint: allow(threads)
      "#include <mutex>",               // synran-lint: allow(threads)
      "#include <future>",              // synran-lint: allow(threads)
  };
  for (const char* line : lines) {
    EXPECT_EQ(count_rule(scan_file("src/sim/f.cpp", line), "threads"), 1u)
        << line;
    EXPECT_EQ(count_rule(scan_file("bench/b.cpp", line), "threads"), 1u)
        << line;
    EXPECT_EQ(count_rule(scan_file("tests/t.cpp", line), "threads"), 1u)
        << line;
    // The executor is the one concurrency boundary.
    EXPECT_EQ(count_rule(scan_file("src/exec/executor.cpp", line), "threads"),
              0u)
        << line;
  }
}

TEST(LintThreads, LookalikesAndTrailerPass) {
  // Non-std names and substrings must not trip the identifier-boundary scan.
  EXPECT_TRUE(
      scan_file("src/sim/f.cpp", "unsigned threads = spec.threads;").empty());
  EXPECT_TRUE(
      scan_file("src/sim/f.cpp", "// one workspace per thread").empty());
  EXPECT_TRUE(
      scan_file("src/sim/f.cpp", "#include <thread_local_store.hpp>").empty());
  const std::string line =
      std::string("std::mutex trace_gate; ") +  // synran-lint: allow(threads)
      "// synran-lint: allow(threads)";
  EXPECT_TRUE(scan_file("src/sim/f.cpp", line).empty());
}

// ---------------------------------------------------------------- signals

TEST(LintSignals, SignalPrimitivesOutsideExecStopperFail) {
  const char* lines[] = {
      "#include <csignal>",             // synran-lint: allow(signals)
      "#include <signal.h>",            // synran-lint: allow(signals)
      "std::signal(SIGINT, handler);",  // synran-lint: allow(signals)
      "signal(SIGTERM, handler);",      // synran-lint: allow(signals)
      "struct sigaction sa;",           // synran-lint: allow(signals)
      "std::raise(SIGINT);",            // synran-lint: allow(signals)
      "volatile std::sig_atomic_t flag;",  // synran-lint: allow(signals)
  };
  for (const char* line : lines) {
    EXPECT_EQ(count_rule(scan_file("src/sim/f.cpp", line), "signals"), 1u)
        << line;
    EXPECT_EQ(count_rule(scan_file("bench/b.cpp", line), "signals"), 1u)
        << line;
    EXPECT_EQ(count_rule(scan_file("tests/t.cpp", line), "signals"), 1u)
        << line;
    // The stopper owns the one handler and its flag.
    EXPECT_EQ(count_rule(scan_file("src/exec/stopper.cpp", line), "signals"),
              0u)
        << line;
    EXPECT_EQ(count_rule(scan_file("src/exec/stopper.hpp", line), "signals"),
              0u)
        << line;
  }
}

TEST(LintSignals, LookalikesAndTrailerPass) {
  // Identifier boundaries: these merely contain signal-ish substrings.
  EXPECT_TRUE(
      scan_file("src/sim/f.cpp", "void process_signals_done(int);").empty());
  EXPECT_TRUE(
      scan_file("src/sim/f.cpp", "// the stop signal is cooperative").empty());
  const std::string line =
      std::string("std::raise(SIGINT); ") +  // synran-lint: allow(signals)
      "// synran-lint: allow(signals)";
  EXPECT_TRUE(scan_file("src/sim/f.cpp", line).empty());
}

// --------------------------------------------------- tree walk + summary

TEST(LintTree, WalksFixtureTreeAndReportsPerFile) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::path(testing::TempDir()) / "synran_lint_fixture";
  fs::remove_all(root);
  fs::create_directories(root / "src" / "protocols");
  fs::create_directories(root / "src" / "common");
  fs::create_directories(root / "tools");

  const auto write = [](const fs::path& p, const std::string& text) {
    std::ofstream out(p);
    out << text;
  };
  const std::string bad_random =
      std::string("std::mt19937 gen;\n");  // synran-lint: allow(banned-random)
  write(root / "src" / "protocols" / "bad.cpp",
        "Xoshiro256 rng(1);\n" + bad_random);
  write(root / "src" / "common" / "ok.hpp",
        "#pragma once\ninline int two() { return 2; }\n");
  // Outside the scanned roots: never visited even with violations.
  write(root / "tools" / "ignored.cpp", bad_random);

  std::size_t files = 0;
  const auto findings = scan_tree(root.string(), &files);
  EXPECT_EQ(files, 2u);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].file, "src/protocols/bad.cpp");
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_EQ(findings[0].rule, "coin-source");
  EXPECT_EQ(findings[1].line, 2u);
  EXPECT_EQ(findings[1].rule, "banned-random");

  EXPECT_EQ(summary_json(findings, files),
            "{\"files_scanned\":2,\"findings\":2,\"by_rule\":"
            "{\"banned-random\":1,\"coin-source\":1}}");
  fs::remove_all(root);
}

TEST(LintTree, CleanTreeSummary) {
  const std::vector<Finding> none;
  EXPECT_EQ(summary_json(none, 7),
            "{\"files_scanned\":7,\"findings\":0,\"by_rule\":{}}");
}

// ------------------------------------------------------------------ lexer

TEST(LintLexer, CommentsAndLiteralsAreInvisibleToRules) {
  // Doc comments and fixture strings mention banned primitives all the
  // time; the token lexer must blank them before any rule looks.
  EXPECT_TRUE(
      scan_file("src/sim/f.cpp", "// never use std::rand here\n").empty());
  EXPECT_TRUE(
      scan_file("src/sim/f.cpp", "/* std::mt19937 gen; */ int x;\n").empty());
  EXPECT_TRUE(
      scan_file("src/sim/f.cpp", "const char* s = \"std::random_device\";\n")
          .empty());
  EXPECT_TRUE(
      scan_file("src/sim/f.cpp", "auto r = R\"(srand(42); rand();)\";\n")
          .empty());
}

TEST(LintLexer, BlockCommentSpansLinesAndRealCodeStillFires) {
  const std::string text =
      "/*\n"
      "std::mt19937 hidden;\n"
      "*/\n"
      "std::mt19937 real;\n";  // synran-lint: allow(banned-random)
  const auto f = scan_file("src/sim/f.cpp", text);
  ASSERT_EQ(count_rule(f, "banned-random"), 1u);
  EXPECT_EQ(f.front().line, 4u);
}

TEST(LintLexer, SplicedLineCommentSwallowsNextLine) {
  // A line comment ending in a backslash continues onto the next physical
  // line; the banned token there is still comment text.
  const std::string text =
      "// spliced \\\n"
      "std::mt19937 still_in_comment;\n";
  EXPECT_TRUE(scan_file("src/sim/f.cpp", text).empty());
}

TEST(LintLexer, RawStringWithEmbeddedQuoteParen) {
  // The )" inside the raw string must not close it early; only )x" does.
  const std::string text =
      "auto s = R\"x(rand() )\" srand(1))x\";\n"
      "srand(2);\n";  // synran-lint: allow(banned-random)
  const auto f = scan_file("src/sim/f.cpp", text);
  ASSERT_EQ(count_rule(f, "banned-random"), 1u);
  EXPECT_EQ(f.front().line, 2u);
}

TEST(LintLexer, DigitSeparatorsDoNotOpenCharLiterals) {
  EXPECT_TRUE(scan_file("src/sim/f.cpp", "int n = 1'000'000;\n").empty());
  // If 1'0' were read as a char literal the rest of the line would be
  // blanked and the real violation missed.
  const auto f = scan_file(
      "src/sim/f.cpp",
      "int n = 1'000'000; srand(n);\n");  // synran-lint: allow(banned-random)
  EXPECT_EQ(count_rule(f, "banned-random"), 1u);
}

TEST(LintLexer, IncludeDirectivesBecomeEdgesNotStrings) {
  const auto lf = lex("src/sim/f.cpp",
                      "#include <vector>\n#include \"net/message.hpp\"\n");
  ASSERT_EQ(lf.includes.size(), 2u);
  EXPECT_EQ(lf.includes[0].target, "vector");
  EXPECT_TRUE(lf.includes[0].angled);
  EXPECT_EQ(lf.includes[1].target, "net/message.hpp");
  EXPECT_FALSE(lf.includes[1].angled);
  EXPECT_EQ(lf.includes[1].line, 2u);
  // Header-names are captured structurally, not recorded as literals.
  EXPECT_TRUE(lf.strings.empty());
}

TEST(LintLexer, PragmaOnceMustBeCode) {
  EXPECT_TRUE(lex("src/sim/h.hpp", "#pragma once\n").has_pragma_once);
  EXPECT_FALSE(lex("src/sim/h.hpp", "// #pragma once\n").has_pragma_once);
  EXPECT_FALSE(lex("src/sim/h.hpp", "const char* s = \"#pragma once\";\n")
                   .has_pragma_once);
}

TEST(LintClassify, FixtureTreesAreSkippedInRepoScans) {
  EXPECT_FALSE(classify("tests/lint_fixtures/lexer/src/sim/edge.cpp").scanned);
  EXPECT_FALSE(
      classify("tests/lint_fixtures/rng_dup/src/exec/tags.hpp").scanned);
  // When a fixture directory itself is the scan root the relative paths
  // lose the lint_fixtures/ prefix and are scanned normally.
  EXPECT_TRUE(classify("src/sim/edge.cpp").scanned);
}

// --------------------------------------------------------------- layering

TEST(LintLayering, ModuleOfParsesSrcPaths) {
  EXPECT_EQ(module_of("src/exec/batch.hpp"), "exec");
  EXPECT_EQ(module_of("src/common/rng.hpp"), "common");
  EXPECT_EQ(module_of("tests/sim_test.cpp"), "");
  EXPECT_EQ(module_of("src/top_level.hpp"), "");
}

TEST(LintLayering, DagSemantics) {
  EXPECT_TRUE(layer_allows("sim", "obs"));
  EXPECT_TRUE(layer_allows("sim", "common"));  // transitive through net
  EXPECT_TRUE(layer_allows("exec", "obs"));
  EXPECT_TRUE(layer_allows("exec", "exec"));  // reflexive
  EXPECT_TRUE(layer_allows("adversary", "protocols"));
  EXPECT_FALSE(layer_allows("common", "sim"));  // upward
  EXPECT_FALSE(layer_allows("obs", "exec"));    // upward
  EXPECT_FALSE(layer_allows("net", "analysis"));  // sideways
  EXPECT_TRUE(layer_known("runner"));
  EXPECT_FALSE(layer_known("alpha"));
}

// ---------------------------------------------- cross-file fixture trees

#ifdef SYNRAN_LINT_FIXTURES

std::vector<Finding> scan_fixture(const std::string& name) {
  return scan_tree(std::string(SYNRAN_LINT_FIXTURES) + "/" + name);
}

TEST(LintFixtures, LayeringCycleIsRejected) {
  const auto f = scan_fixture("layering_cycle");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].rule, "layering");
  EXPECT_EQ(f[0].file, "src/alpha/alpha.hpp");
  EXPECT_EQ(f[1].rule, "layering");
  EXPECT_EQ(f[1].file, "src/beta/beta.hpp");
}

TEST(LintFixtures, UpwardEdgeIsRejected) {
  const auto f = scan_fixture("layering_upward");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "layering");
  EXPECT_EQ(f[0].file, "src/common/low.hpp");
}

TEST(LintFixtures, DagConformingEdgesPass) {
  EXPECT_TRUE(scan_fixture("layering_clean").empty());
}

TEST(LintFixtures, DuplicateStreamTagIsRejected) {
  const auto f = scan_fixture("rng_dup");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "rng-streams");
  // The later site (file,line order) is reported against the first owner.
  EXPECT_EQ(f[0].file, "src/sim/use.cpp");
  EXPECT_NE(f[0].message.find("src/exec/tags.hpp"), std::string::npos);
}

TEST(LintFixtures, DistinctStreamTagsPass) {
  EXPECT_TRUE(scan_fixture("rng_clean").empty());
}

TEST(LintFixtures, DriftedSchemaFieldIsRejected) {
  const auto f = scan_fixture("schema_drift");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "schema-literals");
  EXPECT_NE(f[0].message.find("drifted_field"), std::string::npos);
}

TEST(LintFixtures, LockstepSchemaPasses) {
  EXPECT_TRUE(scan_fixture("schema_clean").empty());
}

TEST(LintFixtures, DriftedTraceConstantIsRejected) {
  const auto f = scan_fixture("trace_drift");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "schema-literals");
  EXPECT_EQ(f[0].file, "src/obs/trace_format.hpp");
  EXPECT_NE(f[0].message.find("kTrace2KindDrifted"), std::string::npos);
}

TEST(LintFixtures, LockstepTraceConstantsPass) {
  EXPECT_TRUE(scan_fixture("trace_clean").empty());
}

TEST(LintFixtures, LexerTreeCatchesOnlyTheRealOffender) {
  const auto f = scan_fixture("lexer");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "banned-random");
  EXPECT_EQ(f[0].file, "src/sim/edge.cpp");
  EXPECT_EQ(f[0].line, 13u);
}

#endif  // SYNRAN_LINT_FIXTURES

// ------------------------------------------------------------------ sarif

TEST(LintSarif, DocumentIsValid210Shape) {
  using synran::obs::JsonValue;
  const std::vector<Finding> findings = {
      {"src/sim/engine.cpp", 12, "layering", "bad edge"},
      {"src/obs/trace_writer.cpp", 7, "schema-literals", "drift"},
  };
  std::string err;
  const auto doc = JsonValue::parse(to_sarif(findings), &err);
  ASSERT_TRUE(doc.has_value()) << err;

  EXPECT_EQ(doc->find("$schema")->as_string(),
            "https://json.schemastore.org/sarif-2.1.0.json");
  EXPECT_EQ(doc->find("version")->as_string(), "2.1.0");

  const auto& runs = doc->find("runs")->as_array();
  ASSERT_EQ(runs.size(), 1u);
  const auto* driver = runs[0].find("tool")->find("driver");
  EXPECT_EQ(driver->find("name")->as_string(), "synran_lint");
  // Every registered rule appears in the driver's rule table.
  const auto& rules = driver->find("rules")->as_array();
  ASSERT_EQ(rules.size(), rule_registry().size());
  EXPECT_EQ(rules.size(), 12u);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    EXPECT_EQ(rules[i].find("id")->as_string(),
              std::string(rule_registry()[i].id));
    EXPECT_FALSE(rules[i]
                     .find("shortDescription")
                     ->find("text")
                     ->as_string()
                     .empty());
  }

  const auto& results = runs[0].find("results")->as_array();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].find("ruleId")->as_string(), "layering");
  EXPECT_EQ(results[0].find("level")->as_string(), "error");
  EXPECT_EQ(results[0].find("message")->find("text")->as_string(),
            "bad edge");
  const auto& locs = results[0].find("locations")->as_array();
  ASSERT_EQ(locs.size(), 1u);
  const auto* phys = locs[0].find("physicalLocation");
  EXPECT_EQ(phys->find("artifactLocation")->find("uri")->as_string(),
            "src/sim/engine.cpp");
  EXPECT_EQ(phys->find("artifactLocation")->find("uriBaseId")->as_string(),
            "SRCROOT");
  EXPECT_EQ(phys->find("region")->find("startLine")->as_int(), 12);
  // ruleIndex points back into the driver rule table.
  const auto idx =
      static_cast<std::size_t>(results[0].find("ruleIndex")->as_int());
  EXPECT_EQ(rules[idx].find("id")->as_string(), "layering");
}

TEST(LintSarif, EmptyFindingsStillProduceAFullRun) {
  using synran::obs::JsonValue;
  std::string err;
  const auto doc = JsonValue::parse(to_sarif({}), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const auto& runs = doc->find("runs")->as_array();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(runs[0].find("results")->as_array().empty());
  EXPECT_EQ(
      runs[0].find("tool")->find("driver")->find("rules")->as_array().size(),
      12u);
}

// --------------------------------------------------------------- baseline

TEST(LintBaseline, RoundTripSuppressionAndStale) {
  std::vector<Finding> findings = {
      {"src/a/a.cpp", 3, "layering", "m1"},
      {"src/b/b.cpp", 7, "rng-streams", "m2"},
  };
  const auto parsed = parse_baseline(baseline_json(findings));
  ASSERT_EQ(parsed.entries.size(), 2u);
  EXPECT_EQ(parsed.entries[0].file, "src/a/a.cpp");
  EXPECT_EQ(parsed.entries[0].line, 3u);
  EXPECT_EQ(parsed.entries[0].rule, "layering");

  auto res = apply_baseline(findings, parsed);
  EXPECT_TRUE(res.active.empty());
  EXPECT_EQ(res.suppressed, 2u);
  EXPECT_TRUE(res.stale.empty());

  // The first finding gets fixed: its entry must surface as stale.
  findings.erase(findings.begin());
  res = apply_baseline(findings, parsed);
  EXPECT_TRUE(res.active.empty());
  EXPECT_EQ(res.suppressed, 1u);
  ASSERT_EQ(res.stale.size(), 1u);
  EXPECT_EQ(res.stale[0].file, "src/a/a.cpp");

  // A new finding the baseline never saw stays active.
  findings.push_back({"src/c/c.cpp", 1, "iostream", "m3"});
  res = apply_baseline(findings, parsed);
  ASSERT_EQ(res.active.size(), 1u);
  EXPECT_EQ(res.active[0].file, "src/c/c.cpp");
}

TEST(LintBaseline, OneEntrySuppressesAtMostOneFinding) {
  const std::vector<Finding> twice = {
      {"src/a/a.cpp", 3, "layering", "m1"},
      {"src/a/a.cpp", 3, "layering", "m1-again"},
  };
  const auto parsed = parse_baseline(baseline_json(
      std::vector<Finding>{{"src/a/a.cpp", 3, "layering", "m1"}}));
  const auto res = apply_baseline(twice, parsed);
  EXPECT_EQ(res.suppressed, 1u);
  EXPECT_EQ(res.active.size(), 1u);
}

TEST(LintBaseline, MalformedDocumentsThrow) {
  EXPECT_THROW(parse_baseline("not json"), std::runtime_error);
  EXPECT_THROW(parse_baseline("[1,2,3]"), std::runtime_error);
  EXPECT_THROW(parse_baseline("{\"schema\":\"nope\",\"entries\":[]}"),
               std::runtime_error);
  EXPECT_THROW(
      parse_baseline("{\"schema\":\"synran-lint-baseline/1\"}"),
      std::runtime_error);
  EXPECT_THROW(parse_baseline("{\"schema\":\"synran-lint-baseline/1\","
                              "\"entries\":[{\"file\":1}]}"),
               std::runtime_error);
  EXPECT_THROW(parse_baseline("{\"schema\":\"synran-lint-baseline/1\","
                              "\"entries\":[{\"file\":\"a\",\"line\":0,"
                              "\"rule\":\"r\"}]}"),
               std::runtime_error);
}

// --------------------------------------------------------------- ordering

TEST(LintOrder, FindingsSortByFileLineRule) {
  EXPECT_TRUE(finding_order({"a.cpp", 1, "x", ""}, {"b.cpp", 1, "x", ""}));
  EXPECT_TRUE(finding_order({"a.cpp", 1, "x", ""}, {"a.cpp", 2, "x", ""}));
  EXPECT_TRUE(finding_order({"a.cpp", 1, "a", ""}, {"a.cpp", 1, "b", ""}));
  EXPECT_FALSE(finding_order({"a.cpp", 1, "x", ""}, {"a.cpp", 1, "x", ""}));
}

}  // namespace
}  // namespace synran::lint
