// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// webrbd_lint: the repo's own static checker. Since v2 it is built on a
// token-stream C++ analysis engine (lint/tokenizer.h, lint/analysis.h)
// instead of per-line regexes: every rule sees real tokens (string
// literals, raw strings, comments, and line continuations can no longer
// confuse a rule) and structural helpers (balanced brackets, template
// argument lists, function bodies) instead of approximating scopes by
// indentation.
//
// Rules run in two passes (see lint/rules.h): a Collect pass that gathers
// cross-file facts into a Corpus — Status/Result-returning function names,
// WEBRBD_GUARDED_BY annotations, lock-acquisition edges, the metric
// catalog — and a Check pass that reports findings against it.
//
// False positives are expected to be rare and are vetted via the
// suppression file (tools/webrbd_lint_suppressions.txt) or an inline
// `// lint:allow(<rule>)` comment on the offending line.
//
// Rules (see docs/static-analysis.md for the full contract):
//   license-header      first line must carry the project license banner
//   include-guard       headers must use WEBRBD_<PATH>_H_ guards
//   banned-function     atoi / strcpy / sprintf are forbidden everywhere
//   raw-new-delete      no raw new/delete expressions in library code (src/)
//   throw-in-library    no `throw` from library code (src/)
//   unchecked-status    a Status/Result-returning call used as a bare
//                       statement discards the error
//   unguarded-value     Result/optional `x.value()` with no dominating
//                       `x.ok()` / `x.has_value()` check in the same scope
//   tagnode-recursion   a function taking a TagNode must not call itself:
//                       adversarial nesting depth overflows the call stack;
//                       iterate with an explicit stack (see PreOrderVisit)
//   arena-escape        a TagNode*/string_view borrowed from an arena-backed
//                       tag tree must not be stored into a member, global,
//                       or container that outlives the extraction call
//   lock-discipline     lock acquisition order must be globally consistent,
//                       and WEBRBD_GUARDED_BY fields need their mutex held
//   metric-catalog      every webrbd_ metric name literal must appear in the
//                       src/obs/stages.h catalog, and vice versa

#ifndef WEBRBD_LINT_LINTER_H_
#define WEBRBD_LINT_LINTER_H_

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace webrbd {
namespace lint {

class Rule;
struct Corpus;

/// One rule violation at a specific source location.
struct LintFinding {
  std::string rule;       ///< rule identifier, e.g. "unchecked-status"
  std::string path;       ///< repo-relative path with forward slashes
  size_t line = 0;        ///< 1-based line number
  std::string message;    ///< human-readable explanation
  std::string line_text;  ///< the offending source line, trimmed
  size_t column = 0;      ///< 1-based byte column; 0 = whole-line finding
  size_t caret = 0;       ///< 1-based caret position within line_text;
                          ///< 0 = no caret (kept separate from `column`
                          ///< because line_text is trimmed)
};

/// A source file handed to the linter. `path` must be repo-relative with
/// forward slashes (e.g. "src/html/lexer.cc") — rule applicability and the
/// expected include-guard name are derived from it.
struct LintSource {
  std::string path;
  std::string content;
};

/// Static description of a rule, for --list-rules and the docs.
struct LintRuleInfo {
  std::string_view name;
  std::string_view description;
};

/// All rules the linter knows about, in evaluation order.
const std::vector<LintRuleInfo>& AllLintRules();

/// Returns `content` with comments and string/char-literal bodies replaced
/// by spaces, byte-for-byte (newlines preserved), so that line/column
/// positions in the scrubbed text match the original. Handles //, /*...*/,
/// "...", '...' and R"delim(...)delim" raw strings. Implemented on the
/// tokenizer; kept public because tools and tests use it directly.
std::string ScrubSource(std::string_view content);

/// Parsed suppression list. File format, one entry per line:
///
///   <rule> <path-suffix> [<line-substring>]
///
/// `<rule>` may be `*` to match any rule. A finding is suppressed when the
/// rule matches, the finding's path ends with `<path-suffix>`, and — if
/// given — the offending line contains `<line-substring>`. Blank lines and
/// lines starting with '#' are ignored.
class SuppressionList {
 public:
  SuppressionList() = default;

  /// Parses suppression-file text; rejects malformed lines.
  [[nodiscard]] static Result<SuppressionList> Parse(std::string_view text);

  /// True iff `finding` matches an entry and should be dropped.
  bool Matches(const LintFinding& finding) const;

  /// Entries that matched none of `findings` (the pre-suppression list for
  /// a whole run): stale suppressions that should be pruned. Returns the
  /// original source line of each stale entry.
  std::vector<std::string> StaleEntries(
      const std::vector<LintFinding>& findings) const;

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string rule;
    std::string path_suffix;
    std::string line_substring;  // empty = match any line
    std::string source_line;     // the entry as written, for reporting
  };

  bool EntryMatches(const Entry& entry, const LintFinding& finding) const;

  std::vector<Entry> entries_;
};

/// The checker. Two-pass: feed every file to CollectDeclarations() first so
/// cross-file rules (unchecked-status, lock-discipline, metric-catalog)
/// see the whole corpus, then call LintFile() on each file.
class Linter {
 public:
  /// Builds the rule set.
  [[nodiscard]] static Result<Linter> Create();

  Linter(Linter&& other) noexcept;
  Linter& operator=(Linter&& other) noexcept;
  ~Linter();

  /// Pass 1: runs every rule's Collect pass over `source`, accumulating
  /// cross-file facts (Status/Result-returning names, lock annotations and
  /// acquisition edges, the metric catalog).
  void CollectDeclarations(const LintSource& source);

  /// Pass 2: runs every rule over `source`, appending to `findings`.
  /// Findings on lines carrying `// lint:allow(<rule>)` are dropped here;
  /// file-level suppressions are the caller's job (SuppressionList).
  void LintFile(const LintSource& source,
                std::vector<LintFinding>* findings) const;

  /// The Status/Result-returning function names collected by pass 1
  /// (exposed for tests/diagnostics).
  const std::set<std::string>& status_returning_functions() const;

 private:
  Linter();

  std::vector<std::unique_ptr<Rule>> rules_;
  std::unique_ptr<Corpus> corpus_;
};

/// Renders a finding as "path:line: [rule] message" plus the source line.
/// Findings with a column render as "path:line:column:" and add a caret
/// line; tabs in the source line are normalized to single spaces so the
/// caret cannot drift on tab-indented code.
std::string FormatFinding(const LintFinding& finding);

/// Expected include-guard macro for a repo-relative header path: the path
/// uppercased with separators mapped to '_', prefixed WEBRBD_, with a
/// leading "src/" stripped (library headers are included as "html/lexer.h").
std::string ExpectedIncludeGuard(std::string_view path);

/// True iff `path` is library code (under src/), where the stricter
/// raw-new-delete and throw-in-library rules apply.
bool IsLibraryPath(std::string_view path);

/// True iff `path` names a file the linter understands (.cc, .cpp, .h).
bool IsLintableSourcePath(std::string_view path);

}  // namespace lint
}  // namespace webrbd

#endif  // WEBRBD_LINT_LINTER_H_
