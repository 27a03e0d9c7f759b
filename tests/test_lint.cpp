// Mutation-style coverage for tools/lint/pathsep_lint: every rule has a
// seeded-violation fixture that must be flagged (exit 1, the right rule id,
// exactly one finding), the clean fixture and the real tree must pass
// (exit 0), and the CLI contract (usage errors, --list-rules) is pinned.
//
// The lint binary and paths are injected by tests/CMakeLists.txt as
// PATHSEP_LINT_BIN / PATHSEP_LINT_TESTDATA / PATHSEP_LINT_SOURCE_ROOT.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  ///< stdout (diagnostics go there; stderr for errors)
};

/// Runs the lint tool with `args`, capturing stdout and the exit code.
RunResult run_lint(const std::string& args) {
  const std::string cmd = std::string(PATHSEP_LINT_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for: " << cmd;
  RunResult result;
  if (pipe == nullptr) return result;
  std::array<char, 4096> buf;
  std::size_t got = 0;
  while ((got = fread(buf.data(), 1, buf.size(), pipe)) > 0)
    result.output.append(buf.data(), got);
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string fixture(const std::string& name) {
  return std::string(PATHSEP_LINT_TESTDATA) + "/" + name;
}

std::size_t count_findings(const std::string& output) {
  // Every diagnostic line carries exactly one "] " after its rule id.
  std::size_t count = 0;
  for (std::size_t at = output.find("] "); at != std::string::npos;
       at = output.find("] ", at + 1))
    ++count;
  return count;
}

/// One seeded violation per rule: the fixture must be flagged with exactly
/// that rule, exactly once, via exit code 1.
struct SeededCase {
  const char* file;
  const char* rule;
};

// Without this gtest prints the raw bytes of the case, two pointers, into
// the CTest-registered test name, which then changes from build to build.
void PrintTo(const SeededCase& c, std::ostream* os) {
  *os << c.file << " [" << c.rule << "]";
}

class LintSeededViolation : public ::testing::TestWithParam<SeededCase> {};

TEST_P(LintSeededViolation, FlaggedExactlyOnceWithItsRule) {
  const SeededCase& c = GetParam();
  const RunResult r = run_lint(fixture(c.file));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(std::string("[") + c.rule + "]"), std::string::npos)
      << "missing [" << c.rule << "] in:\n"
      << r.output;
  EXPECT_EQ(count_findings(r.output), 1u) << r.output;
  // Diagnostics carry file:line anchors.
  EXPECT_NE(r.output.find(std::string(c.file) + ":"), std::string::npos)
      << r.output;
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, LintSeededViolation,
    ::testing::Values(
        SeededCase{"violation_rand_source.cpp", "rand-source"},
        SeededCase{"violation_unordered_iter_serialize.cpp", "unordered-iter"},
        SeededCase{"violation_hot_path_alloc.cpp", "hot-path-alloc"},
        SeededCase{"violation_dcheck_side_effect.cpp", "dcheck-side-effect"},
        SeededCase{"violation_naked_mutex.cpp", "naked-mutex"},
        SeededCase{"violation_bad_directive.cpp", "bad-directive"}),
    [](const ::testing::TestParamInfo<SeededCase>& info) {
      std::string name = info.param.rule;
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

TEST(Lint, CleanFixturePasses) {
  // Triggers in comments, strings, suppressed lines, and exempt spellings —
  // none may fire.
  const RunResult r = run_lint(fixture("clean.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("clean"), std::string::npos) << r.output;
}

TEST(Lint, WholeTreeIsClean) {
  // The acceptance bar: zero findings over the real src/ bench/ examples/.
  const std::string root(PATHSEP_LINT_SOURCE_ROOT);
  const RunResult r = run_lint(root + "/src " + root + "/bench " + root +
                               "/examples");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Lint, AllFixturesTogetherCountEveryViolation) {
  // Directory mode: one finding per seeded fixture, none from clean.cpp.
  const RunResult r = run_lint(std::string(PATHSEP_LINT_TESTDATA));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_findings(r.output), 6u) << r.output;
}

TEST(Lint, ListRulesNamesEveryRule) {
  const RunResult r = run_lint("--list-rules");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* rule :
       {"rand-source", "unordered-iter", "hot-path-alloc",
        "dcheck-side-effect", "naked-mutex", "bad-directive"})
    EXPECT_NE(r.output.find(rule), std::string::npos) << rule;
}

TEST(Lint, UsageErrorsExitTwo) {
  EXPECT_EQ(run_lint("").exit_code, 2);
  EXPECT_EQ(run_lint("--no-such-flag").exit_code, 2);
  EXPECT_EQ(run_lint("/no/such/path_pathsep").exit_code, 2);
}

}  // namespace
