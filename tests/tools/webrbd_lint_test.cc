// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Tests for the webrbd_lint static checker (src/lint/linter.h): each rule
// has fixture snippets that must trigger it and near-miss snippets that
// must not, plus coverage of the suppression file, inline allows, and the
// source scrubber the rules depend on.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint/linter.h"

namespace webrbd {
namespace lint {
namespace {

constexpr const char* kLicense =
    "// Copyright (c) the webrbd authors. Licensed under the Apache License "
    "2.0.\n";

// Lints a single fixture (optionally with extra declaration files) and
// returns the triggered rule names, in order.
std::vector<LintFinding> LintFixture(
    const LintSource& source, const std::vector<LintSource>& extra = {}) {
  auto linter = Linter::Create();
  EXPECT_TRUE(linter.ok()) << linter.status().ToString();
  linter->CollectDeclarations(source);
  for (const LintSource& other : extra) linter->CollectDeclarations(other);
  std::vector<LintFinding> findings;
  linter->LintFile(source, &findings);
  return findings;
}

bool Triggered(const std::vector<LintFinding>& findings,
               std::string_view rule) {
  for (const LintFinding& finding : findings) {
    if (finding.rule == rule) return true;
  }
  return false;
}

// ---------------------------------------------------------------- scrubber

TEST(ScrubSourceTest, BlanksCommentsAndStringsPreservingLayout) {
  const std::string source =
      "int x; // trailing throw\n"
      "const char* s = \"sprintf(\";\n"
      "/* block\n   throw */ int y;\n";
  const std::string scrubbed = ScrubSource(source);
  EXPECT_EQ(scrubbed.size(), source.size());
  EXPECT_EQ(scrubbed.find("throw"), std::string::npos);
  EXPECT_EQ(scrubbed.find("sprintf"), std::string::npos);
  EXPECT_NE(scrubbed.find("int x;"), std::string::npos);
  EXPECT_NE(scrubbed.find("int y;"), std::string::npos);
  // Newlines survive so line numbers stay aligned.
  EXPECT_EQ(std::count(scrubbed.begin(), scrubbed.end(), '\n'),
            std::count(source.begin(), source.end(), '\n'));
}

TEST(ScrubSourceTest, HandlesRawStringsAndEscapes) {
  const std::string source =
      "auto p = R\"(throw \"quoted\" atoi()\u0041)\";\n"
      "char c = '\\'';\n"
      "int z = 1;\n";
  const std::string scrubbed = ScrubSource(source);
  EXPECT_EQ(scrubbed.find("throw"), std::string::npos);
  EXPECT_EQ(scrubbed.find("atoi"), std::string::npos);
  EXPECT_NE(scrubbed.find("int z = 1;"), std::string::npos);
}

// ---------------------------------------------------------- license-header

TEST(LintRuleTest, LicenseHeaderMissingTriggers) {
  auto findings = LintFixture({"src/x/f.cc", "#include <string>\n"});
  EXPECT_TRUE(Triggered(findings, "license-header"));
}

TEST(LintRuleTest, LicenseHeaderPresentDoesNotTrigger) {
  auto findings =
      LintFixture({"src/x/f.cc", std::string(kLicense) + "int x;\n"});
  EXPECT_FALSE(Triggered(findings, "license-header"));
}

// ----------------------------------------------------------- include-guard

TEST(LintRuleTest, WrongIncludeGuardTriggers) {
  const std::string header = std::string(kLicense) +
                             "#ifndef WRONG_GUARD_H\n"
                             "#define WRONG_GUARD_H\n"
                             "#endif\n";
  auto findings = LintFixture({"src/html/lexer.h", header});
  ASSERT_TRUE(Triggered(findings, "include-guard"));
}

TEST(LintRuleTest, MissingIncludeGuardTriggers) {
  auto findings =
      LintFixture({"src/html/lexer.h", std::string(kLicense) + "int x;\n"});
  EXPECT_TRUE(Triggered(findings, "include-guard"));
}

TEST(LintRuleTest, CorrectIncludeGuardDoesNotTrigger) {
  const std::string header = std::string(kLicense) +
                             "#ifndef WEBRBD_HTML_LEXER_H_\n"
                             "#define WEBRBD_HTML_LEXER_H_\n"
                             "#endif\n";
  auto findings = LintFixture({"src/html/lexer.h", header});
  EXPECT_FALSE(Triggered(findings, "include-guard"));
}

TEST(LintRuleTest, ExpectedGuardStripsSrcOnly) {
  EXPECT_EQ(ExpectedIncludeGuard("src/html/lexer.h"), "WEBRBD_HTML_LEXER_H_");
  EXPECT_EQ(ExpectedIncludeGuard("tests/fuzz/fuzz_util.h"),
            "WEBRBD_TESTS_FUZZ_FUZZ_UTIL_H_");
  EXPECT_EQ(ExpectedIncludeGuard("bench/bench_util.h"),
            "WEBRBD_BENCH_BENCH_UTIL_H_");
}

// ---------------------------------------------------------- banned-function

TEST(LintRuleTest, BannedFunctionsTrigger) {
  const std::string source = std::string(kLicense) +
                             "void f(char* d, const char* s) {\n"
                             "  int x = atoi(s);\n"
                             "  strcpy(d, s);\n"
                             "  sprintf(d, s);\n"
                             "  (void)x;\n"
                             "}\n";
  auto findings = LintFixture({"src/x/f.cc", source});
  int banned = 0;
  for (const LintFinding& finding : findings) {
    if (finding.rule == "banned-function") ++banned;
  }
  EXPECT_EQ(banned, 3);
}

TEST(LintRuleTest, SaferCousinsDoNotTrigger) {
  const std::string source = std::string(kLicense) +
                             "void f(char* d, size_t n, const char* s) {\n"
                             "  snprintf(d, n, \"%s\", s);\n"
                             "  vsnprintf(d, n, s, args);\n"
                             "  my_atoi_helper(s);\n"
                             "}\n";
  auto findings = LintFixture({"src/x/f.cc", source});
  EXPECT_FALSE(Triggered(findings, "banned-function"));
}

TEST(LintRuleTest, BannedFunctionInCommentOrStringDoesNotTrigger) {
  const std::string source = std::string(kLicense) +
                             "// atoi is banned; strcpy too\n"
                             "const char* kMsg = \"use sprintf never\";\n";
  auto findings = LintFixture({"src/x/f.cc", source});
  EXPECT_FALSE(Triggered(findings, "banned-function"));
}

// ----------------------------------------------------------- raw-new-delete

TEST(LintRuleTest, RawNewDeleteInLibraryTriggers) {
  const std::string source = std::string(kLicense) +
                             "void f() {\n"
                             "  int* p = new int(3);\n"
                             "  delete p;\n"
                             "}\n";
  auto findings = LintFixture({"src/x/f.cc", source});
  int hits = 0;
  for (const LintFinding& finding : findings) {
    if (finding.rule == "raw-new-delete") ++hits;
  }
  EXPECT_EQ(hits, 2);
}

TEST(LintRuleTest, RawNewOutsideLibraryDoesNotTrigger) {
  const std::string source = std::string(kLicense) +
                             "void f() { int* p = new int(3); delete p; }\n";
  auto findings = LintFixture({"tests/x/f_test.cc", source});
  EXPECT_FALSE(Triggered(findings, "raw-new-delete"));
}

TEST(LintRuleTest, DeletedFunctionsAndIdentifiersDoNotTrigger) {
  const std::string source = std::string(kLicense) +
                             "struct S {\n"
                             "  S(const S&) = delete;\n"
                             "  int new_size = 0;\n"
                             "  void renew_delete_me();\n"
                             "};\n"
                             "auto p = std::make_unique<int>(3);\n";
  auto findings = LintFixture({"src/x/f.h", source});
  EXPECT_FALSE(Triggered(findings, "raw-new-delete"));
}

// ---------------------------------------------------------- throw-in-library

TEST(LintRuleTest, ThrowInLibraryTriggers) {
  const std::string source = std::string(kLicense) +
                             "void f() { throw std::runtime_error(\"x\"); }\n";
  auto findings = LintFixture({"src/x/f.cc", source});
  EXPECT_TRUE(Triggered(findings, "throw-in-library"));
}

TEST(LintRuleTest, ThrowInTestsDoesNotTrigger) {
  const std::string source = std::string(kLicense) +
                             "void f() { throw std::runtime_error(\"x\"); }\n";
  auto findings = LintFixture({"tests/x/f_test.cc", source});
  EXPECT_FALSE(Triggered(findings, "throw-in-library"));
}

TEST(LintRuleTest, ThrowAsSubstringDoesNotTrigger) {
  const std::string source = std::string(kLicense) +
                             "int rethrown_count = 0;\n"
                             "// this function used to throw\n";
  auto findings = LintFixture({"src/x/f.cc", source});
  EXPECT_FALSE(Triggered(findings, "throw-in-library"));
}

// ---------------------------------------------------------- unchecked-status

const char* kStatusDecls =
    "Status DoWork(int x);\n"
    "Result<int> Compute(int x);\n";

TEST(LintRuleTest, DiscardedStatusCallTriggers) {
  const std::string source = std::string(kLicense) + kStatusDecls +
                             "void f(Worker& w) {\n"
                             "  DoWork(1);\n"
                             "  w.helper->DoWork(2);\n"
                             "}\n";
  auto findings = LintFixture({"src/x/f.cc", source});
  int hits = 0;
  for (const LintFinding& finding : findings) {
    if (finding.rule == "unchecked-status") ++hits;
  }
  EXPECT_EQ(hits, 2);
}

TEST(LintRuleTest, CheckedStatusCallsDoNotTrigger) {
  const std::string source = std::string(kLicense) + kStatusDecls +
                             "Status f() {\n"
                             "  Status s = DoWork(1);\n"
                             "  if (!s.ok()) return s;\n"
                             "  WEBRBD_RETURN_IF_ERROR(DoWork(2));\n"
                             "  return DoWork(3);\n"
                             "}\n"
                             "void g() {\n"
                             "  if (DoWork(4).ok()) {}\n"
                             "  auto r = Compute(5);\n"
                             "  (void)r;\n"
                             "}\n";
  auto findings = LintFixture({"src/x/f.cc", source});
  EXPECT_FALSE(Triggered(findings, "unchecked-status"));
}

TEST(LintRuleTest, DiscardedCallSeenAcrossFiles) {
  // The declaration lives in another file; pass 1 must carry it over.
  const LintSource header{"src/x/api.h",
                          std::string(kLicense) +
                              "#ifndef WEBRBD_X_API_H_\n"
                              "Status Flush(int fd);\n"
                              "#endif\n"};
  const std::string source = std::string(kLicense) +
                             "void f() {\n"
                             "  Flush(3);\n"
                             "}\n";
  auto findings = LintFixture({"src/x/f.cc", source}, {header});
  EXPECT_TRUE(Triggered(findings, "unchecked-status"));
}

TEST(LintRuleTest, MultiLineDiscardedCallTriggers) {
  const std::string source = std::string(kLicense) + kStatusDecls +
                             "void f() {\n"
                             "  DoWork(1 +\n"
                             "         2);\n"
                             "}\n";
  auto findings = LintFixture({"src/x/f.cc", source});
  EXPECT_TRUE(Triggered(findings, "unchecked-status"));
}

TEST(LintRuleTest, ChainedUseOfReturnValueDoesNotTrigger) {
  const std::string source = std::string(kLicense) + kStatusDecls +
                             "void f() {\n"
                             "  Compute(1).value_or(0);\n"
                             "}\n";
  auto findings = LintFixture({"src/x/f.cc", source});
  EXPECT_FALSE(Triggered(findings, "unchecked-status"));
}

// ----------------------------------------------------------- unguarded-value

TEST(LintRuleTest, UnguardedValueTriggers) {
  const std::string source = std::string(kLicense) +
                             "int f() {\n"
                             "  auto r = Compute(1);\n"
                             "  return r.value();\n"
                             "}\n";
  auto findings = LintFixture({"src/x/f.cc", source});
  EXPECT_TRUE(Triggered(findings, "unguarded-value"));
}

TEST(LintRuleTest, GuardedValueDoesNotTrigger) {
  const std::string source = std::string(kLicense) +
                             "int f() {\n"
                             "  auto r = Compute(1);\n"
                             "  if (!r.ok()) return 0;\n"
                             "  return r.value();\n"
                             "}\n"
                             "int g() {\n"
                             "  auto o = Lookup(2);\n"
                             "  if (!o.has_value()) return 0;\n"
                             "  return o.value();\n"
                             "}\n"
                             "int h() {\n"
                             "  auto m = Find(3);\n"
                             "  ASSERT_TRUE(m.ok());\n"
                             "  return std::move(m).value();\n"
                             "}\n";
  auto findings = LintFixture({"src/x/f.cc", source});
  EXPECT_FALSE(Triggered(findings, "unguarded-value"));
}

TEST(LintRuleTest, GuardInPreviousFunctionDoesNotCount) {
  const std::string source = std::string(kLicense) +
                             "int f(Result<int> r) {\n"
                             "  if (!r.ok()) return 0;\n"
                             "  return r.value();\n"
                             "}\n"
                             "int g(Result<int> r) {\n"
                             "  return r.value();\n"
                             "}\n";
  auto findings = LintFixture({"src/x/f.cc", source});
  ASSERT_TRUE(Triggered(findings, "unguarded-value"));
  // Only g()'s use is flagged.
  int hits = 0;
  for (const LintFinding& finding : findings) {
    if (finding.rule == "unguarded-value") ++hits;
  }
  EXPECT_EQ(hits, 1);
}

TEST(LintRuleTest, TagNodeRecursionTriggers) {
  const std::string source = std::string(kLicense) +
                             "size_t CountNodes(const TagNode& node) {\n"
                             "  size_t count = 1;\n"
                             "  for (const auto& child : node.children) {\n"
                             "    count += CountNodes(*child);\n"
                             "  }\n"
                             "  return count;\n"
                             "}\n";
  auto findings = LintFixture({"src/x/f.cc", source});
  ASSERT_TRUE(Triggered(findings, "tagnode-recursion"));
  for (const LintFinding& finding : findings) {
    if (finding.rule == "tagnode-recursion") {
      EXPECT_EQ(finding.line, 5u);
    }
  }
}

TEST(LintRuleTest, TagNodeRecursionMemberFunctionTriggers) {
  const std::string source = std::string(kLicense) +
                             "void Walker::Visit(const TagNode* node,\n"
                             "                   int depth) {\n"
                             "  for (const auto& child : node->children) {\n"
                             "    Visit(child.get(), depth + 1);\n"
                             "  }\n"
                             "}\n";
  auto findings = LintFixture({"src/x/f.cc", source});
  EXPECT_TRUE(Triggered(findings, "tagnode-recursion"));
}

TEST(LintRuleTest, IterativeTagNodeFunctionDoesNotTrigger) {
  const std::string source = std::string(kLicense) +
                             "size_t CountNodes(const TagNode& node) {\n"
                             "  std::vector<const TagNode*> stack = {&node};\n"
                             "  size_t count = 0;\n"
                             "  while (!stack.empty()) {\n"
                             "    const TagNode* top = stack.back();\n"
                             "    stack.pop_back();\n"
                             "    ++count;\n"
                             "    for (const auto& c : top->children) {\n"
                             "      stack.push_back(c.get());\n"
                             "    }\n"
                             "  }\n"
                             "  return count;\n"
                             "}\n";
  auto findings = LintFixture({"src/x/f.cc", source});
  EXPECT_FALSE(Triggered(findings, "tagnode-recursion"));
}

TEST(LintRuleTest, TagNodeDeclarationAndOtherCallsDoNotTrigger) {
  const std::string source = std::string(kLicense) +
                             "size_t CountNodes(const TagNode& node);\n"
                             "size_t Total(const TagNode& node) {\n"
                             "  return CountNodes(node);\n"
                             "}\n";
  auto findings = LintFixture({"src/x/f.cc", source});
  EXPECT_FALSE(Triggered(findings, "tagnode-recursion"));
}

TEST(LintRuleTest, TagNodeRecursionOutsideLibraryDoesNotTrigger) {
  const std::string source = std::string(kLicense) +
                             "size_t CountNodes(const TagNode& node) {\n"
                             "  size_t count = 1;\n"
                             "  for (const auto& c : node.children) {\n"
                             "    count += CountNodes(*c);\n"
                             "  }\n"
                             "  return count;\n"
                             "}\n";
  auto findings = LintFixture({"tests/x/f_test.cc", source});
  EXPECT_FALSE(Triggered(findings, "tagnode-recursion"));
}

// ------------------------------------------------- suppressions and allows

TEST(SuppressionTest, FileSuppressionsFilterFindings) {
  auto suppressions = SuppressionList::Parse(
      "# comment\n"
      "\n"
      "banned-function src/x/f.cc atoi(\n"
      "* legacy/old.cc\n");
  ASSERT_TRUE(suppressions.ok()) << suppressions.status().ToString();
  EXPECT_EQ(suppressions->size(), 2u);

  LintFinding match{"banned-function", "src/x/f.cc", 4, "msg",
                    "int x = atoi(s);"};
  EXPECT_TRUE(suppressions->Matches(match));

  LintFinding wrong_line{"banned-function", "src/x/f.cc", 9, "msg",
                         "strcpy(d, s);"};
  EXPECT_FALSE(suppressions->Matches(wrong_line));

  LintFinding wrong_path{"banned-function", "src/y/g.cc", 4, "msg",
                         "int x = atoi(s);"};
  EXPECT_FALSE(suppressions->Matches(wrong_path));

  LintFinding wildcard{"throw-in-library", "legacy/old.cc", 1, "msg", "x"};
  EXPECT_TRUE(suppressions->Matches(wildcard));
}

TEST(SuppressionTest, MalformedAndUnknownRulesAreRejected) {
  EXPECT_FALSE(SuppressionList::Parse("just-one-token\n").ok());
  EXPECT_FALSE(SuppressionList::Parse("not-a-rule src/x/f.cc\n").ok());
}

TEST(SuppressionTest, StaleEntriesAreTheOnesMatchingNoFinding) {
  auto suppressions = SuppressionList::Parse(
      "banned-function src/x/f.cc atoi(\n"
      "throw-in-library src/gone/file.cc\n");
  ASSERT_TRUE(suppressions.ok());

  const std::vector<LintFinding> findings = {
      {"banned-function", "src/x/f.cc", 4, "msg", "int x = atoi(s);"}};
  const std::vector<std::string> stale = suppressions->StaleEntries(findings);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0], "throw-in-library src/gone/file.cc");

  // With no findings at all, every entry is stale.
  EXPECT_EQ(suppressions->StaleEntries({}).size(), 2u);
}

TEST(SuppressionTest, InlineAllowDropsFinding) {
  const std::string source =
      std::string(kLicense) +
      "void f() { throw Oops(); }  // lint:allow(throw-in-library)\n";
  auto findings = LintFixture({"src/x/f.cc", source});
  EXPECT_FALSE(Triggered(findings, "throw-in-library"));
}

// ------------------------------------------------------------ declarations

TEST(LinterTest, CollectsStatusAndResultReturningNames) {
  const LintSource source{
      "src/x/api.h",
      std::string(kLicense) +
          "#ifndef WEBRBD_X_API_H_\n"
          "[[nodiscard]] Status Open(const std::string& path);\n"
          "static Result<std::vector<int>> ParseAll(std::string_view s);\n"
          "Result<std::shared_ptr<Thing>>\n"
          "MakeThing(int spec);\n"
          "const Status& status() const;\n"
          "void Close();\n"
          "#endif\n"};
  auto linter = Linter::Create();
  ASSERT_TRUE(linter.ok());
  linter->CollectDeclarations(source);
  const auto& names = linter->status_returning_functions();
  EXPECT_TRUE(names.count("Open"));
  EXPECT_TRUE(names.count("ParseAll"));
  EXPECT_TRUE(names.count("MakeThing"));
  EXPECT_FALSE(names.count("status"));  // reference return, not a transfer
  EXPECT_FALSE(names.count("Close"));
}

TEST(LinterTest, FormatFindingIsStable) {
  LintFinding finding{"banned-function", "src/x/f.cc", 12, "no sprintf",
                      "sprintf(buf, fmt);"};
  EXPECT_EQ(FormatFinding(finding),
            "src/x/f.cc:12: [banned-function] no sprintf\n"
            "    sprintf(buf, fmt);");
}

TEST(LinterTest, FormatFindingRendersColumnAndCaret) {
  LintFinding finding{"banned-function", "src/x/f.cc", 12, "no atoi",
                      "int x = atoi(s);"};
  finding.column = 11;
  finding.caret = 9;  // points at "atoi" within the trimmed text
  EXPECT_EQ(FormatFinding(finding),
            "src/x/f.cc:12:11: [banned-function] no atoi\n"
            "    int x = atoi(s);\n"
            "            ^");
}

TEST(LinterTest, FormatFindingNormalizesTabsSoTheCaretLandsOnTarget) {
  // Tab-indented source: caret offsets are in bytes of the trimmed text,
  // so embedded tabs must render one column wide for the caret to align.
  LintFinding finding{"banned-function", "src/x/f.cc", 3, "no atoi",
                      "int\tx = atoi(s);"};
  finding.column = 12;
  finding.caret = 10;
  EXPECT_EQ(FormatFinding(finding),
            "src/x/f.cc:3:12: [banned-function] no atoi\n"
            "    int x = atoi(s);\n"
            "             ^");
}

TEST(LinterTest, FindingsCarryColumnsAndCaretsFromTheEngine) {
  const std::string source =
      std::string(kLicense) + "\tint n = atoi(s);\n";
  auto findings = LintFixture({"src/x/f.cc", source});
  ASSERT_TRUE(Triggered(findings, "banned-function"));
  for (const LintFinding& finding : findings) {
    if (finding.rule != "banned-function") continue;
    EXPECT_EQ(finding.line, 2u);
    EXPECT_EQ(finding.column, 10u);  // byte column of "atoi" (after the tab)
    EXPECT_EQ(finding.caret, 9u);    // within the trimmed line text
    EXPECT_EQ(finding.line_text, "int n = atoi(s);");
  }
}

}  // namespace
}  // namespace lint
}  // namespace webrbd
