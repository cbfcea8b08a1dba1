// Tests for tools/w5lint.cpp: the real src/ tree must pass clean, and
// each seeded fixture under tests/lint_fixtures/ must trip exactly the
// check its name promises. Paths come in as compile definitions from
// tests/CMakeLists.txt, so the test exercises the same binary and the
// same allowlist that the ci.sh `lint` stage runs.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

namespace {

struct LintResult {
  int exit_code = -1;
  std::string output;
};

LintResult run_lint(const std::string& root, const std::string& allowlist = "") {
  std::string cmd = std::string(W5LINT_BINARY) + " " + root;
  if (!allowlist.empty()) cmd += " --allowlist " + allowlist;
  cmd += " 2>&1";
  LintResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 512> chunk;
  while (fgets(chunk.data(), chunk.size(), pipe) != nullptr)
    result.output += chunk.data();
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string fixture(const std::string& name) {
  return std::string(W5_LINT_FIXTURES_DIR) + "/" + name;
}

TEST(LintTest, CleanTreePasses) {
  const LintResult r = run_lint(W5_SRC_DIR, W5_ALLOWLIST_FILE);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 violation(s)"), std::string::npos) << r.output;
}

TEST(LintTest, FlagsLayeringBackEdge) {
  const LintResult r = run_lint(fixture("layering"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[layering]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("difc/bad_backedge.cpp"), std::string::npos)
      << r.output;
  // The util/json.h include in the same file is a legal edge — exactly
  // one violation expected.
  EXPECT_NE(r.output.find("1 violation(s)"), std::string::npos) << r.output;
}

TEST(LintTest, FlagsAppsReachingMetasearchDirectly) {
  // PR 9 pinned the metasearch layering rule: fed/ gained store/ and
  // rank/ edges, but apps/ still has no fed/ edge — apps reach the
  // scatter/gather plane only via the core-owned FederatedSearchFn seam.
  const LintResult r = run_lint(fixture("metasearch_layering"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[layering]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("apps/bad_fed_reach.cpp"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("fed/metasearch.h"), std::string::npos) << r.output;
  // The core/app_context.h include in the same file is the legal route —
  // exactly one violation expected.
  EXPECT_NE(r.output.find("1 violation(s)"), std::string::npos) << r.output;
}

TEST(LintTest, FlagsRawSendOutsidePerimeter) {
  const LintResult r = run_lint(fixture("perimeter_send"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[perimeter]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("::send"), std::string::npos) << r.output;
}

TEST(LintTest, FlagsRawEventCallsOutsidePerimeter) {
  const LintResult r = run_lint(fixture("event_plane"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[event]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("::epoll_wait"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("::accept"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("3 violation(s)"), std::string::npos) << r.output;
}

TEST(LintTest, FlagsGatewayBypassInclude) {
  const LintResult r = run_lint(fixture("perimeter_gateway"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // Trips both the named perimeter rule and the layering DAG (apps/ has
  // no edge to net/).
  EXPECT_NE(r.output.find("[perimeter]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("net/http_session.h"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("[layering]"), std::string::npos) << r.output;
}

TEST(LintTest, FlagsTelemetryRecordInclude) {
  const LintResult r = run_lint(fixture("telemetry"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[telemetry]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("store/record.h"), std::string::npos) << r.output;
  // The §16 debug/trace surfaces are inside the rule too: a new debug
  // route or trace file can never include record bytes.
  EXPECT_NE(r.output.find("core/trace.cpp"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("core/statusz.cpp"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("net/tracing.cpp"), std::string::npos) << r.output;
}

TEST(LintTest, FlagsBannedFunctionsAndHeaderUsing) {
  const LintResult r = run_lint(fixture("banned"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[banned]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("strcpy"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("rand"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("using namespace"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("3 violation(s)"), std::string::npos) << r.output;
}

TEST(LintTest, AllowlistSuppressesByCheckAndPrefix) {
  // Without the allowlist the breach fires...
  const LintResult unsuppressed = run_lint(fixture("allowlisted"));
  EXPECT_EQ(unsuppressed.exit_code, 1) << unsuppressed.output;
  // ...with it, the same tree is clean and the suppression is counted.
  const LintResult suppressed =
      run_lint(fixture("allowlisted"), fixture("allowlisted") + "/allow.txt");
  EXPECT_EQ(suppressed.exit_code, 0) << suppressed.output;
  EXPECT_NE(suppressed.output.find("1 suppressed"), std::string::npos)
      << suppressed.output;
}

TEST(LintTest, StaleAllowlistEntryIsItselfAnError) {
  // The allowlisted/ fixture's entry suppresses a ::send breach that the
  // banned/ tree does not contain — an entry that suppresses nothing is
  // reported against the allowlist file, so excused violations cannot
  // quietly outlive their excuse.
  const LintResult r =
      run_lint(fixture("banned"), fixture("allowlisted") + "/allow.txt");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[stale-allow]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("suppressed nothing"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("allow.txt"), std::string::npos) << r.output;
}

TEST(LintTest, BadUsageExitsTwo) {
  const LintResult r = run_lint(std::string(W5_SRC_DIR) + "/no/such/dir");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

}  // namespace
