// Tests for gptc-lint (tools/lint/): each determinism rule must be caught
// on its seeded fixture with the exact file:line, the clean fixtures must
// pass, and the repo's own src/ tree must lint clean — the same invocations
// the `lint` target and the lint_* ctest entries run. The cross-file rules
// R6–R9 are exercised in `--cross-file` mode, including the per-file-mode
// blindness they were built to close, plus the JSON/SARIF emitters and the
// baseline write/suppress/expire round-trip.
//
// The binary path and fixture directory are injected by tests/CMakeLists.txt
// as GPTC_LINT_BIN / GPTC_LINT_FIXTURES.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

/// Runs a shell command, capturing combined output and the exit status.
RunResult run(const std::string& command) {
  RunResult r;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  std::size_t got = 0;
  while ((got = fread(buf, 1, sizeof(buf), pipe)) > 0) r.output.append(buf, got);
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string fixture(const std::string& name) {
  return std::string(GPTC_LINT_FIXTURES) + "/" + name;
}

std::string lint_cmd(const std::string& args) {
  return std::string(GPTC_LINT_BIN) + " " + args;
}

/// Asserts the linter flags exactly `path:line: [rule]` on the fixture.
void expect_violation(const std::string& name, int line,
                      const std::string& rule) {
  const std::string path = fixture(name);
  const RunResult r = run(lint_cmd(path));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  const std::string expected =
      path + ":" + std::to_string(line) + ": [" + rule + "]";
  EXPECT_NE(r.output.find(expected), std::string::npos)
      << "expected '" << expected << "' in:\n"
      << r.output;
  EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST(Lint, R1CatchesCPrng) { expect_violation("r1_c_prng.cpp", 7, "R1"); }

TEST(Lint, R2CatchesUnorderedIteration) {
  expect_violation("r2_unordered_iter.cpp", 9, "R2");
}

TEST(Lint, R3CatchesUnindexedCaptureWrite) {
  expect_violation("r3_capture_write.cpp", 10, "R3");
}

TEST(Lint, R4CatchesObjectiveInParallelLayer) {
  expect_violation("src/parallel/r4_objective_call.cpp", 10, "R4");
}

TEST(Lint, R5CatchesFloatReduction) {
  expect_violation("r5_float_reduction.cpp", 10, "R5");
}

TEST(Lint, CleanFilePasses) {
  const RunResult r = run(lint_cmd(fixture("clean_patterns.cpp")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s)"), std::string::npos) << r.output;
}

TEST(Lint, FixtureTreeYieldsExactlyOneFindingPerRule) {
  const RunResult r = run(lint_cmd(std::string(GPTC_LINT_FIXTURES)));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("5 finding(s)"), std::string::npos) << r.output;
  for (const char* rule : {"[R1]", "[R2]", "[R3]", "[R4]", "[R5]"})
    EXPECT_NE(r.output.find(rule), std::string::npos)
        << "missing " << rule << " in:\n"
        << r.output;
}

TEST(Lint, CleanEngineIndexFixturePasses) {
  // Ordered std::map iteration — the storage-engine index idiom — is
  // deterministic and must not be confused with R2's unordered targets.
  const RunResult r = run(lint_cmd(fixture("clean_engine_index.cpp")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s)"), std::string::npos) << r.output;
}

TEST(Lint, RepoSourcesAreClean) {
  const RunResult r = run(lint_cmd(GPTC_LINT_SRC_DIR));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Lint, EngineSourcesAreClean) {
  // The storage engine is scanned on its own as well (the `lint_engine`
  // ctest entry), so a regression there is named directly.
  const RunResult r = run(lint_cmd(GPTC_LINT_ENGINE_DIR));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Lint, ListRulesDescribesAllThirteen) {
  const RunResult r = run(lint_cmd("--list-rules"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* rule : {"R1 ", "R2 ", "R3 ", "R4 ", "R5 ", "R6 ", "R7 ",
                           "R8 ", "R9 ", "R10 ", "R11 ", "R12 ", "R13 "})
    EXPECT_NE(r.output.find(rule), std::string::npos) << r.output;
}

TEST(Lint, MissingInputIsAUsageError) {
  const RunResult r = run(lint_cmd(fixture("does_not_exist.cpp")));
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

// --- cross-file mode (R6–R9) ------------------------------------------------

/// Asserts `--cross-file <args>` reports no findings.
void expect_cross_clean(const std::string& args) {
  const RunResult r = run(lint_cmd("--cross-file " + args));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s)"), std::string::npos) << r.output;
}

/// Asserts `--cross-file <args>` flags exactly `path:line: [rule]`.
void expect_cross_violation(const std::string& args, const std::string& name,
                            int line, const std::string& rule) {
  const RunResult r = run(lint_cmd("--cross-file " + args));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  const std::string expected =
      fixture(name) + ":" + std::to_string(line) + ": [" + rule + "]";
  EXPECT_NE(r.output.find(expected), std::string::npos)
      << "expected '" << expected << "' in:\n"
      << r.output;
  EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST(LintCross, R6CatchesCrossTuUnorderedIteration) {
  // The member is declared in the header, iterated in the other TU.
  expect_cross_violation(
      fixture("r6_registry.hpp") + " " + fixture("r6_cross_iter.cpp"),
      "r6_cross_iter.cpp", 10, "R6");
}

TEST(LintCross, R6ViolationIsInvisibleToPerFileMode) {
  // The same pair in per-file mode: neither file alone shows the unordered
  // declaration AND the iteration — the exact gap R6 closes.
  const RunResult r = run(lint_cmd(fixture("r6_registry.hpp") + " " +
                                   fixture("r6_cross_iter.cpp")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s)"), std::string::npos) << r.output;
}

TEST(LintCross, R7CatchesLockOrderInversion) {
  expect_cross_violation(fixture("r7_lock_inversion.cpp"),
                         "r7_lock_inversion.cpp", 19, "R7");
}

TEST(LintCross, R7CatchesInversionThroughByReferenceMutexes) {
  // The helper locks its two reference parameters in positional order; the
  // callers pass the same member mutexes in opposite orders. The finding
  // anchors at the call site that gives the placeholder locks their real
  // identities, and the report names the substituted pair.
  expect_cross_violation(fixture("r7_ref_param_inversion.cpp"),
                         "r7_ref_param_inversion.cpp", 27, "R7");
  const RunResult r = run(
      lint_cmd("--cross-file " + fixture("r7_ref_param_inversion.cpp")));
  EXPECT_NE(r.output.find("'RefInverted::a_'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("'RefInverted::b_'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("pair_step"), std::string::npos) << r.output;
}

TEST(LintCross, ByReferenceHelperSharedByOneOrderIsClean) {
  // The same helper shape with both callers agreeing on the order must not
  // be flagged: distinct call sites do not conflate into a false cycle.
  expect_cross_clean(fixture("clean_ref_param_order.cpp"));
}

TEST(LintCross, R8CatchesUnsyncedFileCreation) {
  // The engine-layer fixture directory holds the seeded violation and its
  // clean counterpart (fsync through a helper) — exactly one finding.
  expect_cross_violation(fixture("src/db/engine"),
                         "src/db/engine/r8_missing_sync.cpp", 10, "R8");
}

TEST(LintCross, R9CatchesThrowingThreadEntryPoint) {
  // pump_loop is flagged; the noexcept safe_loop launch on the next line
  // is not (the fixture run reports exactly one finding).
  expect_cross_violation(fixture("r9_thread_entry.cpp"),
                         "r9_thread_entry.cpp", 26, "R9");
}

TEST(LintCross, R9CatchesBareWalReplayApply) {
  expect_cross_violation(fixture("r9_replay_apply.cpp"),
                         "r9_replay_apply.cpp", 26, "R9");
}

TEST(LintCross, FixtureTreeYieldsExactlyOneFindingPerRule) {
  const RunResult r =
      run(lint_cmd("--cross-file " + std::string(GPTC_LINT_FIXTURES)));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // R1–R8, R10–R13 seed one finding each; R7 seeds a second (the
  // by-reference inversion) and R9 seeds two (thread entry + replay apply).
  EXPECT_NE(r.output.find("15 finding(s)"), std::string::npos) << r.output;
  for (const char* rule : {"[R1]", "[R2]", "[R3]", "[R4]", "[R5]", "[R6]",
                           "[R7]", "[R8]", "[R9]", "[R10]", "[R11]", "[R12]",
                           "[R13]"})
    EXPECT_NE(r.output.find(rule), std::string::npos)
        << "missing " << rule << " in:\n"
        << r.output;
}

TEST(LintCross, RepoSourcesAreCleanInCrossFileMode) {
  // The acceptance gate: the shipped tree passes the whole-program rules
  // (the seeded r7_lock_inversion fixture above proves the same invocation
  // does flag a real inversion).
  const RunResult r = run(lint_cmd("--cross-file " +
                                   std::string(GPTC_LINT_SRC_DIR)));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// --- guard analysis (R10/R11) ----------------------------------------------

TEST(LintGuard, R10CatchesUnguardedWrite) {
  // `total_` carries a guarded-by annotation; the write in racy_add holds
  // nothing. The locked_add sibling (same member, lock held) stays clean.
  expect_cross_violation(fixture("r10_guard.cpp"), "r10_guard.cpp", 24, "R10");
}

TEST(LintGuard, R11CatchesWriteUnderSharedLock) {
  // bump() writes stats_ while its shared_mutex is held only in shared
  // mode; the shared-mode read in snapshot_stats stays clean.
  expect_cross_violation(fixture("r11_shared_write.cpp"),
                         "r11_shared_write.cpp", 26, "R11");
}

TEST(LintGuard, SharedModeDisciplineIsClean) {
  // All four shared_mutex modes at once: read under shared_lock, write
  // under unique_lock, the upgrade path that releases its shared lock
  // before re-locking exclusively, and a deliberate unlocked read behind
  // an explicit escape comment — none may be flagged.
  expect_cross_clean(fixture("clean_guard_modes.cpp"));
}

TEST(LintGuard, GuardViolationsAreInvisibleToPerFileMode) {
  // Lock-set checking needs the ProjectIndex (annotations can live in a
  // different TU than the access): without --cross-file the seeded
  // violations must not fire.
  const RunResult r = run(lint_cmd(fixture("r10_guard.cpp") + " " +
                                   fixture("r11_shared_write.cpp")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s)"), std::string::npos) << r.output;
}

TEST(LintGuard, EscapeCommentIsLoadBearing) {
  // Strip the escape comment out of the clean fixture: the deliberate
  // unlocked read must then surface as R10 — proving the guard-ok line is
  // what suppresses it, not a blind spot.
  std::ifstream in(fixture("clean_guard_modes.cpp"));
  ASSERT_TRUE(in.is_open());
  const std::string stripped = "lint_guard_escape_stripped.cpp";
  {
    std::ofstream out(stripped);
    std::string line;
    while (std::getline(in, line))
      if (line.find("guard-ok") == std::string::npos) out << line << "\n";
  }
  const RunResult r = run(lint_cmd("--cross-file " + stripped));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[R10]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("Registry::value_"), std::string::npos) << r.output;
  std::remove(stripped.c_str());
}

TEST(LintGuard, TextFormatEndsWithPerRuleSummary) {
  const RunResult r =
      run(lint_cmd("--cross-file " + fixture("r10_guard.cpp") + " " +
                   fixture("r11_shared_write.cpp")));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("rule summary:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("R10=1"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("R11=1"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("R1=0"), std::string::npos) << r.output;
}

// --- interprocedural dataflow (R12/R13) -------------------------------------

TEST(LintDataflow, R12CatchesTaintThroughOneCallHop) {
  // recv_exact taints the header in handle(); the undefined decode_len
  // passes it through; grow()'s summary carries it into v.resize — the
  // finding lands on the call site that lets untrusted data in.
  expect_cross_violation(fixture("r12_taint_resize.cpp"),
                         "r12_taint_resize.cpp", 20, "R12");
}

TEST(LintDataflow, SanitizedAndAnnotatedTaintFlowsAreClean) {
  expect_cross_clean(fixture("r12_sanitized_clean.cpp"));
}

TEST(LintDataflow, TaintOkCommentIsLoadBearing) {
  // Strip the taint-ok annotation out of the clean fixture: the annotated
  // resize must then surface as R12 — the escape is what suppresses it.
  std::ifstream in(fixture("r12_sanitized_clean.cpp"));
  ASSERT_TRUE(in.is_open());
  const std::string stripped = "lint_taint_escape_stripped.cpp";
  {
    std::ofstream out(stripped);
    std::string line;
    while (std::getline(in, line))
      if (line.find("taint-ok") == std::string::npos) out << line << "\n";
  }
  const RunResult r = run(lint_cmd("--cross-file " + stripped));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[R12]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("handle_annotated"), std::string::npos) << r.output;
  std::remove(stripped.c_str());
}

TEST(LintDataflow, R13CatchesFsyncUnderDeclaredGuard) {
  expect_cross_violation(fixture("r13_fsync_under_lock.cpp"),
                         "r13_fsync_under_lock.cpp", 12, "R13");
}

TEST(LintDataflow, UnlockBeforeFsyncIsClean) {
  expect_cross_clean(fixture("r13_clean_unlock_first.cpp"));
}

TEST(LintDataflow, ProjectMemberNamedSelectIsNotBlocking) {
  expect_cross_clean(fixture("r13_clean_member_select.cpp"));
}

TEST(LintDataflow, StdQualifiedCallDoesNotBindToProjectFunction) {
  // std::find under Catalog::mu_ is the standard algorithm: no call edge to
  // the blocking Catalog::find.
  expect_cross_clean(fixture("r13_clean_std_find.cpp"));
}

TEST(LintDataflow, GlobalSelectUnderLockFires) {
  // The same call spelled ::select(...) is the POSIX one.
  std::ifstream in(fixture("r13_clean_member_select.cpp"));
  ASSERT_TRUE(in.is_open());
  std::ostringstream text;
  text << in.rdbuf();
  std::string src = text.str();
  const std::string call = "    return select(key);";
  const std::size_t at = src.find(call);
  ASSERT_NE(at, std::string::npos);
  src.replace(at, call.size(),
              "    return ::select(key, nullptr, nullptr, nullptr, nullptr);");
  const std::string mutated = "lint_global_select.cpp";
  {
    std::ofstream out(mutated);
    out << src;
  }
  const RunResult r = run(lint_cmd("--cross-file " + mutated));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(mutated + ":13: [R13] blocking call 'select'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
  std::remove(mutated.c_str());
}

TEST(LintDataflow, MovingFsyncInsideLockScopeRefires) {
  // The mutation the rule exists to catch: swap the scope-closing brace
  // with the fsync line, pulling the syscall inside the critical section.
  std::ifstream in(fixture("r13_clean_unlock_first.cpp"));
  ASSERT_TRUE(in.is_open());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  std::size_t brace = 0, fsync = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i] == "    }") brace = i;
    if (lines[i] == "    ::fsync(fd_);") fsync = i;
  }
  ASSERT_NE(brace, 0u);
  ASSERT_EQ(fsync, brace + 1);
  std::swap(lines[brace], lines[fsync]);
  const std::string mutated = "lint_fsync_moved_inside.cpp";
  {
    std::ofstream out(mutated);
    for (const std::string& l : lines) out << l << "\n";
  }
  const RunResult r = run(lint_cmd("--cross-file " + mutated));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[R13]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("Journal::mu_"), std::string::npos) << r.output;
  std::remove(mutated.c_str());
}

TEST(LintDataflow, DataflowViolationsAreInvisibleToPerFileMode) {
  // Both seeds need the whole-program walk: without --cross-file there is
  // no call graph, no taint propagation and no held-lock context.
  const RunResult r = run(lint_cmd(fixture("r12_taint_resize.cpp") + " " +
                                   fixture("r13_fsync_under_lock.cpp")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s)"), std::string::npos) << r.output;
}

TEST(LintDataflow, DeletingServerBoundsCheckRefiresTaint) {
  // The acceptance mutation: the shipped serve_connection is provably
  // bounded (control), and deleting its max_request_bytes comparison
  // re-opens the wire-to-allocation flow as an R12 finding.
  std::ifstream in(std::string(GPTC_LINT_SRC_DIR) + "/net/server.cpp");
  ASSERT_TRUE(in.is_open());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  const std::string control = "lint_server_control.cpp";
  {
    std::ofstream out(control);
    for (const std::string& l : lines) out << l << "\n";
  }
  RunResult r = run(lint_cmd("--cross-file " + control));
  EXPECT_EQ(r.exit_code, 0) << r.output;

  // Delete the bounds-check block (the `if (...) { ... }` that compares
  // the declared payload size against max_request_bytes).
  std::size_t begin = lines.size();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find("h.payload_size > opts_.max_request_bytes") !=
        std::string::npos) {
      begin = i;
      break;
    }
  }
  ASSERT_LT(begin, lines.size());
  std::size_t close = begin;
  while (close < lines.size() && lines[close] != "      }") ++close;
  ASSERT_LT(close, lines.size());
  const std::string mutated = "lint_server_unbounded.cpp";
  {
    std::ofstream out(mutated);
    for (std::size_t i = 0; i < lines.size(); ++i)
      if (i < begin || i > close) out << lines[i] << "\n";
  }
  r = run(lint_cmd("--cross-file " + mutated));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[R12]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("body.assign"), std::string::npos) << r.output;
  std::remove(control.c_str());
  std::remove(mutated.c_str());
}

// --- escape-comment coverage -------------------------------------------------
//
// A `// lint: <name>` directive covers its own line and the next one; a tag
// annotation (`// guard-ok:`, `// taint-ok:`, ...) covers the next line only
// when the comment starts its own line.

/// Writes `text` to `name` in the working directory, lints it (whole-program
/// mode when `cross`) and removes the file again.
RunResult lint_temp(const std::string& name, const std::string& text,
                    bool cross) {
  {
    std::ofstream out(name);
    out << text;
  }
  RunResult r = run(lint_cmd((cross ? "--cross-file " : "") + name));
  std::remove(name.c_str());
  return r;
}

TEST(LintEscape, LintDirectiveOnTheLineAboveCoversTheLoop) {
  const std::string name = "lint_escape_unordered.cpp";
  const std::string head =
      "#include <unordered_map>\n"
      "int sum(const std::unordered_map<int, int>& m) {\n";
  const std::string escape =
      "  // lint: unordered-ok integer addition is order-independent\n";
  const std::string init = "  int s = 0;\n";
  const std::string tail =
      "  for (const auto& kv : m) s += kv.second;\n"
      "  return s;\n"
      "}\n";
  RunResult r = lint_temp(name, head + init + escape + tail, false);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s)"), std::string::npos) << r.output;
  // Two lines above the loop the directive no longer reaches it.
  r = lint_temp(name, head + escape + init + tail, false);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(name + ":5: [R2]"), std::string::npos) << r.output;
}

TEST(LintEscape, TrailingGuardOkDoesNotCoverTheNextLine) {
  const std::string name = "lint_escape_guard.cpp";
  const RunResult r = lint_temp(
      name,
      "#include <mutex>\n"
      "class Meter {\n"
      " public:\n"
      "  int pair_sum() {\n"
      "    const int a = total_;  // guard-ok: a torn read only skews stats\n"
      "    const int b = total_;\n"
      "    return a + b;\n"
      "  }\n"
      "\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  int total_ = 0;  // guarded_by: mu_\n"
      "};\n",
      true);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(name + ":6: [R10]"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find(name + ":5: "), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST(LintEscape, OwnLineTaintOkCoversTheNextLine) {
  const std::string name = "lint_escape_taint.cpp";
  const std::string head =
      "#include <vector>\n"
      "struct Sock {\n"
      "  int recv_exact(char* buf, unsigned n);\n"
      "};\n"
      "unsigned decode_len(const char* buf);\n"
      "void handle(Sock& s) {\n"
      "  char header[8];\n"
      "  s.recv_exact(header, 8);\n";
  const std::string escape = "// taint-ok: the frame pool caps the length\n";
  const std::string resize =
      "  scratch.resize(decode_len(header));\n"
      "}\n";
  RunResult r = lint_temp(
      name, head + "  std::vector<char> scratch;\n  " + escape + resize, true);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s)"), std::string::npos) << r.output;
  // The same annotation trailing the line above binds to that line only.
  r = lint_temp(name, head + "  std::vector<char> scratch;  " + escape + resize,
                true);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(name + ":10: [R12]"), std::string::npos) << r.output;
}

// --- output formats and baseline -------------------------------------------

TEST(LintOutput, RepeatedInputsAreDeduplicatedAndSorted) {
  // The same directory twice: findings must not double up, and the output
  // must be ordered by path so invocation order never changes the report.
  const std::string dir(GPTC_LINT_FIXTURES);
  const RunResult r = run(lint_cmd(dir + " " + dir));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("5 finding(s)"), std::string::npos) << r.output;
  const auto p1 = r.output.find("r1_c_prng");
  const auto p2 = r.output.find("r2_unordered_iter");
  const auto p3 = r.output.find("r3_capture_write");
  ASSERT_NE(p1, std::string::npos);
  ASSERT_NE(p2, std::string::npos);
  ASSERT_NE(p3, std::string::npos);
  EXPECT_LT(p1, p2);
  EXPECT_LT(p2, p3);
}

TEST(LintOutput, JsonFormatCarriesFindingsAndFileCount) {
  const RunResult r =
      run(lint_cmd("--format=json " + fixture("r1_c_prng.cpp")));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("\"files_scanned\": 1"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"rule\": \"R1\""), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"line\": 7"), std::string::npos) << r.output;
}

TEST(LintOutput, JsonFormatEmptyFindingsIsValid) {
  const RunResult r =
      run(lint_cmd("--format=json " + fixture("clean_patterns.cpp")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"findings\": []"), std::string::npos) << r.output;
}

TEST(LintOutput, SarifFormatIsSchemaTagged) {
  const RunResult r =
      run(lint_cmd("--format=sarif " + fixture("r1_c_prng.cpp")));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("\"version\": \"2.1.0\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("sarif-2.1.0.json"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"name\": \"gptc-lint\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"ruleId\": \"R1\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"startLine\": 7"), std::string::npos) << r.output;
}

TEST(LintOutput, UnknownFormatIsAUsageError) {
  const RunResult r =
      run(lint_cmd("--format=xml " + fixture("r1_c_prng.cpp")));
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(LintBaseline, WriteSuppressExpireRoundTrip) {
  const std::string baseline = "lint_test_baseline.json";
  // 1. Write: capture the seeded R1 finding as the baseline.
  RunResult r = run(lint_cmd("--write-baseline " + baseline + " " +
                             fixture("r1_c_prng.cpp")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // 2. Suppress: the same invocation with the baseline applied is clean.
  r = run(lint_cmd("--baseline " + baseline + " " + fixture("r1_c_prng.cpp")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s)"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("stale"), std::string::npos) << r.output;
  // 3. Expire: against a clean file the entry matches nothing — the run
  //    stays green but names the stale entry so the baseline shrinks.
  r = run(lint_cmd("--baseline " + baseline + " " +
                   fixture("clean_patterns.cpp")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("stale baseline entry"), std::string::npos)
      << r.output;
  std::remove(baseline.c_str());
}

TEST(LintBaseline, NonBaselinedFindingStillFails) {
  const std::string baseline = "lint_test_baseline2.json";
  RunResult r = run(lint_cmd("--write-baseline " + baseline + " " +
                             fixture("r1_c_prng.cpp")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // A different rule's finding is not covered by the R1 baseline.
  r = run(lint_cmd("--baseline " + baseline + " " + fixture("r1_c_prng.cpp") +
                   " " + fixture("r2_unordered_iter.cpp")));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[R2]"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("[R1]"), std::string::npos) << r.output;
  std::remove(baseline.c_str());
}

TEST(LintBaseline, StrictModeTurnsStaleEntriesFatal) {
  const std::string baseline = "lint_test_baseline_strict.json";
  RunResult r = run(lint_cmd("--write-baseline " + baseline + " " +
                             fixture("r1_c_prng.cpp")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // Against a clean file the entry is stale: advisory by default...
  r = run(lint_cmd("--baseline " + baseline + " " +
                   fixture("clean_patterns.cpp")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // ...but fatal under --baseline-strict, so dead suppressions cannot
  // accumulate in the checked-in file.
  r = run(lint_cmd("--baseline " + baseline + " --baseline-strict " +
                   fixture("clean_patterns.cpp")));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("fatal under --baseline-strict"), std::string::npos)
      << r.output;
  // A live (matching) baseline stays green even in strict mode.
  r = run(lint_cmd("--baseline " + baseline + " --baseline-strict " +
                   fixture("r1_c_prng.cpp")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::remove(baseline.c_str());
}

TEST(LintBaseline, MalformedBaselineIsAUsageError) {
  const std::string baseline = "lint_test_baseline3.json";
  {
    std::ofstream out(baseline);
    out << "{\"findings\": [{\"path\": \"x\"";  // truncated JSON
  }
  const RunResult r = run(lint_cmd("--baseline " + baseline + " " +
                                   fixture("clean_patterns.cpp")));
  EXPECT_EQ(r.exit_code, 2) << r.output;
  std::remove(baseline.c_str());
}

}  // namespace
