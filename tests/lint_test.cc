// Tests for the uuq_lint rule engine (tools/uuq_lint_lib.h).
//
// Three layers, mirroring how the linter runs in CI:
//   1. Fixture files (tests/lint_fixtures/): one violating and one clean
//      snippet per rule, replayed under synthetic in-scope paths — the
//      violating file must fire exactly its own rule, the clean one nothing.
//   2. Allowlist round-trip: a finding built from the bad fixture is
//      suppressed by a matching rule|suffix|needle entry, survives a
//      non-matching one, and stale entries are detectable via `used`.
//   3. The real tree: every src/**/*.{h,cc} under UUQ_LINT_SRC_ROOT must
//      lint clean against the committed allowlist (the in-process twin of
//      the `uuq_lint_src` ctest entry).
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "uuq_lint_lib.h"

namespace fs = std::filesystem;

namespace {

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string Fixture(const std::string& name) {
  return ReadFile(fs::path(UUQ_LINT_FIXTURE_DIR) / name);
}

// rule -> (fixture basename stem, synthetic path that puts it in scope).
struct RuleFixture {
  std::string rule;
  std::string stem;
  std::string path;
};

const std::vector<RuleFixture>& Fixtures() {
  static const std::vector<RuleFixture> kFixtures = {
      {"random-source", "random_source", "src/core/fixture.cc"},
      {"unordered-hot-path", "unordered_hot_path", "src/stats/fixture.cc"},
      {"atomic-order", "atomic_order", "src/serving/fixture.cc"},
      {"naked-new", "naked_new", "src/core/bootstrap.cc"},
      {"thread-local-justification", "thread_local_justification",
       "src/core/fixture.cc"},
      {"layer-include", "layer_include", "src/integration/fixture.cc"},
  };
  return kFixtures;
}

TEST(LintFixtures, EachBadFixtureFiresExactlyItsOwnRule) {
  for (const RuleFixture& f : Fixtures()) {
    const std::vector<uuq_lint::Finding> findings =
        uuq_lint::LintFile(f.path, Fixture(f.stem + "_bad.cc.txt"));
    ASSERT_FALSE(findings.empty()) << f.rule << " did not fire";
    for (const uuq_lint::Finding& finding : findings) {
      EXPECT_EQ(finding.rule, f.rule)
          << "unexpected cross-rule finding in " << f.stem << "_bad: "
          << finding.rule << " at line " << finding.line;
      EXPECT_GT(finding.line, 0);
      EXPECT_EQ(finding.file, f.path);
      EXPECT_FALSE(finding.message.empty());
    }
  }
}

TEST(LintFixtures, EachGoodFixtureIsClean) {
  for (const RuleFixture& f : Fixtures()) {
    const std::vector<uuq_lint::Finding> findings =
        uuq_lint::LintFile(f.path, Fixture(f.stem + "_good.cc.txt"));
    for (const uuq_lint::Finding& finding : findings) {
      ADD_FAILURE() << f.stem << "_good flagged: [" << finding.rule
                    << "] line " << finding.line << ": " << finding.raw;
    }
  }
}

TEST(LintFixtures, AtomicOrderBadFixtureFlagsEveryOpKind) {
  // The bad fixture has four distinct defaulted ops (RMW, store, load, CAS);
  // each must produce its own finding, proving the scan is per-call-site.
  const std::vector<uuq_lint::Finding> findings = uuq_lint::LintFile(
      "src/serving/fixture.cc", Fixture("atomic_order_bad.cc.txt"));
  EXPECT_EQ(findings.size(), 4u);
}

TEST(LintScope, RulesRespectPathScoping) {
  // unordered containers are fine outside src/core//src/stats...
  const std::string unordered = Fixture("unordered_hot_path_bad.cc.txt");
  EXPECT_TRUE(uuq_lint::LintFile("src/serving/fixture.cc", unordered).empty());
  // ...and naked new is fine outside the replicate-path file list.
  const std::string naked = Fixture("naked_new_bad.cc.txt");
  EXPECT_TRUE(uuq_lint::LintFile("src/serving/fixture.cc", naked).empty());
  // Entropy primitives are allowed only in the RNG implementation itself.
  const std::string random = Fixture("random_source_bad.cc.txt");
  EXPECT_TRUE(uuq_lint::LintFile("src/common/random.cc", random).empty());
  EXPECT_FALSE(uuq_lint::LintFile("src/db/fixture.cc", random).empty());
  // Non-C++ paths are out of scope entirely.
  EXPECT_TRUE(uuq_lint::LintFile("src/core/fixture.py", random).empty());
}

// The layer map: each include points up it, serving and simulation never
// include each other, and files outside src/<layer>/ are out of scope.
TEST(LintScope, LayerIncludeFollowsTheLayerMap) {
  const auto flagged = [](const std::string& path, const std::string& target) {
    return !uuq_lint::LintFile(path, "#include \"" + target + "\"\n").empty();
  };
  EXPECT_FALSE(flagged("src/core/fixture.cc", "integration/sample.h"));
  EXPECT_FALSE(flagged("src/core/fixture.cc", "db/query.h"));
  EXPECT_FALSE(flagged("src/db/fixture.h", "integration/source.h"));
  EXPECT_FALSE(flagged("src/serving/fixture.cc", "core/bootstrap.h"));
  EXPECT_FALSE(flagged("src/simulation/fixture.cc", "core/bootstrap.h"));
  EXPECT_TRUE(flagged("src/stats/fixture.cc", "integration/sample.h"));
  EXPECT_TRUE(flagged("src/integration/fixture.cc", "db/query.h"));
  EXPECT_TRUE(flagged("src/common/fixture.h", "stats/descriptive.h"));
  EXPECT_TRUE(flagged("src/serving/fixture.cc", "simulation/scenarios.h"));
  EXPECT_TRUE(flagged("src/simulation/fixture.cc", "serving/sample_cache.h"));
  EXPECT_FALSE(flagged("tools/fixture.cc", "serving/sample_cache.h"));
  // Two upward includes in the bad fixture, one finding each.
  EXPECT_EQ(uuq_lint::LintFile("src/integration/fixture.cc",
                               Fixture("layer_include_bad.cc.txt"))
                .size(),
            2u);
}

TEST(LintAllowlist, RoundTripSuppressesExactlyTheMatchingFinding) {
  // The naked-new bad fixture yields exactly one finding, which makes the
  // suppress-it-all round trip exact.
  const std::string bad = Fixture("naked_new_bad.cc.txt");
  std::vector<uuq_lint::Finding> findings =
      uuq_lint::LintFile("src/core/bootstrap.cc", bad);
  ASSERT_EQ(findings.size(), 1u);
  const uuq_lint::Finding original = findings.front();

  // Entry built from the finding itself: suppresses it, flips `used`.
  std::vector<uuq_lint::AllowEntry> allow = uuq_lint::ParseAllowlist(
      "# grandfathered buffer (freed before the warm loop starts)\n"
      "naked-new|src/core/bootstrap.cc|new double[\n");
  ASSERT_EQ(allow.size(), 1u);
  std::vector<uuq_lint::Finding> survived =
      uuq_lint::ApplyAllowlist(findings, &allow);
  EXPECT_TRUE(survived.empty());
  EXPECT_TRUE(allow[0].used);

  // Wrong rule, wrong path, or wrong needle: the finding survives and the
  // entry stays stale.
  for (const char* miss : {
           "atomic-order|src/core/bootstrap.cc|new double[\n",
           "naked-new|src/core/other.cc|new double[\n",
           "naked-new|src/core/bootstrap.cc|no_such_token\n",
       }) {
    std::vector<uuq_lint::AllowEntry> no_match =
        uuq_lint::ParseAllowlist(miss);
    ASSERT_EQ(no_match.size(), 1u) << miss;
    std::vector<uuq_lint::Finding> still =
        uuq_lint::ApplyAllowlist({original}, &no_match);
    EXPECT_EQ(still.size(), 1u) << miss;
    EXPECT_FALSE(no_match[0].used) << miss;
  }
}

TEST(LintAllowlist, ParserSkipsCommentsBlanksAndMalformedLines) {
  const std::vector<uuq_lint::AllowEntry> allow = uuq_lint::ParseAllowlist(
      "# comment only\n"
      "\n"
      "malformed-no-pipes\n"
      "one|pipe-only\n"
      "naked-new|src/core/bootstrap.cc|new double  # trailing comment\n");
  ASSERT_EQ(allow.size(), 1u);
  EXPECT_EQ(allow[0].rule, "naked-new");
  EXPECT_EQ(allow[0].path_suffix, "src/core/bootstrap.cc");
  EXPECT_EQ(allow[0].needle, "new double");
}

TEST(LintStripper, CommentsStringsAndRawStringsAreBlanked) {
  const std::vector<uuq_lint::SourceLine> lines = uuq_lint::SplitAndStrip(
      "int a = 1; // std::random_device in a line comment\n"
      "/* srand(1) in a block\n"
      "   comment spanning lines */ int b = 2;\n"
      "const char* s = \"rand( inside a string\";\n"
      "const char* r = R\"x(std::random_device)x\";\n"
      "char c = '\\\"'; int after = 3;\n");
  // Newline-terminated input yields a trailing empty line — harmless for
  // linting (nothing matches an empty line).
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_TRUE(lines[6].raw.empty());
  for (const uuq_lint::SourceLine& line : lines) {
    EXPECT_EQ(line.raw.size(), line.code.size());
    EXPECT_EQ(line.code.find("random_device"), std::string::npos) << line.raw;
    EXPECT_EQ(line.code.find("srand"), std::string::npos) << line.raw;
    EXPECT_EQ(line.code.find("rand("), std::string::npos) << line.raw;
  }
  // Code outside literals/comments survives in place.
  EXPECT_NE(lines[0].code.find("int a = 1;"), std::string::npos);
  EXPECT_NE(lines[2].code.find("int b = 2;"), std::string::npos);
  EXPECT_NE(lines[5].code.find("int after = 3;"), std::string::npos);
}

TEST(LintEnvDoc, FiresOnUndocumentedVarOnly) {
  const std::vector<std::string> documented =
      uuq_lint::DocumentedEnvVars("| `UUQ_GOOD_KNOB` | documented |\n");
  ASSERT_EQ(documented, std::vector<std::string>{"UUQ_GOOD_KNOB"});

  // Undocumented read fires, naming the variable.
  const std::vector<uuq_lint::Finding> bad = uuq_lint::LintEnvDocFile(
      "src/core/fixture.cc",
      "bool On() { return std::getenv(\"UUQ_BAD_KNOB\") != nullptr; }\n",
      documented);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad.front().rule, "env-doc");
  EXPECT_NE(bad.front().message.find("UUQ_BAD_KNOB"), std::string::npos);

  // Documented read is clean.
  EXPECT_TRUE(uuq_lint::LintEnvDocFile(
                  "src/core/fixture.cc",
                  "bool On() { return std::getenv(\"UUQ_GOOD_KNOB\"); }\n",
                  documented)
                  .empty());

  // getenv in a comment or string never fires (code-view match).
  EXPECT_TRUE(uuq_lint::LintEnvDocFile(
                  "src/core/fixture.cc",
                  "// std::getenv(\"UUQ_BAD_KNOB\") only in this comment\n"
                  "const char* kDoc = \"getenv(UUQ_BAD_KNOB)\";\n",
                  documented)
                  .empty());

  // A call wrapped before its argument is still resolved (next-line
  // lookahead).
  const std::vector<uuq_lint::Finding> wrapped = uuq_lint::LintEnvDocFile(
      "src/core/fixture.cc",
      "bool On() {\n"
      "  return std::getenv(\n"
      "             \"UUQ_BAD_KNOB\") != nullptr;\n"
      "}\n",
      documented);
  ASSERT_EQ(wrapped.size(), 1u);
  EXPECT_EQ(wrapped.front().rule, "env-doc");
}

TEST(LintEnvDoc, DocumentedEnvVarsIgnoresProseMentions) {
  const std::vector<std::string> documented = uuq_lint::DocumentedEnvVars(
      "Set `UUQ_PROSE_ONLY` for fun — not a table row.\n"
      "| Variable | Effect |\n"
      "|---|---|\n"
      "| `UUQ_ROW_A` | first knob |\n"
      "  | `UUQ_ROW_B` | indented row still counts |\n");
  EXPECT_EQ(documented,
            (std::vector<std::string>{"UUQ_ROW_A", "UUQ_ROW_B"}));
}

// The env-doc twin of LintTree below: every getenv("UUQ_*") read across
// src/, bench/ AND tools/ must have a row in README.md's env table. This is
// the test that fails when someone adds a knob without documenting it.
TEST(LintEnvDoc, RepositoryEnvReadsAreAllDocumented) {
  const fs::path root(UUQ_LINT_SRC_ROOT);
  const std::string readme = ReadFile(root / "README.md");
  const std::vector<std::string> documented =
      uuq_lint::DocumentedEnvVars(readme);
  ASSERT_GT(documented.size(), 10u)
      << "README env table parse found suspiciously few rows";

  std::vector<std::pair<std::string, fs::path>> files;
  for (const char* dir : {"src", "bench", "tools"}) {
    const fs::path sub = root / dir;
    if (!fs::is_directory(sub)) continue;
    for (const fs::directory_entry& entry :
         fs::recursive_directory_iterator(sub)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".cc") continue;
      files.emplace_back(fs::relative(entry.path(), root).generic_string(),
                         entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_GT(files.size(), 20u);
  for (const auto& [label, disk_path] : files) {
    for (const uuq_lint::Finding& f :
         uuq_lint::LintEnvDocFile(label, ReadFile(disk_path), documented)) {
      ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule << "] "
                    << f.message << "\n    " << f.raw;
    }
  }
}

TEST(LintSelfTest, EmbeddedCorpusPasses) {
  std::vector<std::string> errors;
  EXPECT_TRUE(uuq_lint::RunSelfTest(&errors));
  for (const std::string& e : errors) ADD_FAILURE() << e;
}

// The in-process twin of the `uuq_lint_src` ctest entry: the committed tree
// must lint clean under the committed allowlist. Running it here too gives
// failures gtest-style context when a rule regresses.
TEST(LintTree, RepositorySourcesLintCleanUnderCommittedAllowlist) {
  const fs::path root(UUQ_LINT_SRC_ROOT);
  const fs::path src = root / "src";
  ASSERT_TRUE(fs::is_directory(src));

  std::vector<uuq_lint::AllowEntry> allow;
  const fs::path allow_file = root / "tools" / "uuq_lint_allowlist.txt";
  if (fs::exists(allow_file)) {
    allow = uuq_lint::ParseAllowlist(ReadFile(allow_file));
  }

  std::vector<std::pair<std::string, fs::path>> files;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    files.emplace_back(fs::relative(entry.path(), root).generic_string(),
                       entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GT(files.size(), 20u) << "tree scan found suspiciously few files";

  std::vector<uuq_lint::Finding> findings;
  for (const auto& [label, disk_path] : files) {
    std::vector<uuq_lint::Finding> f =
        uuq_lint::LintFile(label, ReadFile(disk_path));
    findings.insert(findings.end(), f.begin(), f.end());
  }
  findings = uuq_lint::ApplyAllowlist(std::move(findings), &allow);
  for (const uuq_lint::Finding& f : findings) {
    ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message << "\n    " << f.raw;
  }
}

}  // namespace
