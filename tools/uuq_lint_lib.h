// uuq_lint — token enforcement of the repo's determinism contracts.
//
// The runtime suites prove bit-identity at every thread count; this linter
// is the STATIC half of that promise (README "Static analysis"): it stops
// the classes of change that would erode determinism or the replicate
// path's allocation-free contract before they compile, with no libclang
// dependency — a comment/string-aware scan over src/ that runs as a tier-1
// ctest in well under a second.
//
// Rules (ids are stable; the allowlist and tests key on them):
//
//   random-source    rand()/srand()/std::random_device/std::chrono::
//                    system_clock/time(NULL)-style entropy anywhere in src/
//                    outside common/random.* — every random draw must flow
//                    from the seeded, splittable uuq::Rng, or replicates
//                    stop being reproducible.
//   unordered-hot-path
//                    std::unordered_map / std::unordered_set mentioned in
//                    src/core or src/stats — hash iteration order is
//                    implementation-defined, so a container that today is
//                    only probed is one refactor away from nondeterministic
//                    fold order on a replicate path. Use sorted/vector
//                    structures (SortedEntityIndex, SoA columns) instead.
//   atomic-order     an atomic load/store/RMW/CAS that does not name an
//                    explicit std::memory_order — defaulted seq_cst on a
//                    hot counter is an accidental fence, and an implicit
//                    order hides whether the site's contract was thought
//                    through (every uuq site documents why its order holds).
//   naked-new        `new` in a replicate-path file — the warm replicate
//                    loop is allocation-free by contract (operator-new
//                    counter tests pin it); allocation belongs in scratch /
//                    arena construction, not on the path.
//   thread-local-justification
//                    `thread_local` without an adjacent `// thread_local:`
//                    comment explaining the per-thread ownership argument —
//                    unexplained thread_locals are where state leaks
//                    between queries in a long-lived server.
//   layer-include    an #include "<layer>/..." in src/<layer'>/ that reaches
//                    a layer not above it in docs/ARCHITECTURE.md's layer
//                    map (common, stats, integration, db, core, then
//                    serving and simulation, neither of which includes the
//                    other) — a dependency that points up the map is how
//                    layers stop being separable.
//   env-doc          a getenv() read of a `UUQ_*` variable with no row in
//                    README.md's environment-variable table — undocumented
//                    knobs are how deployments drift from what the docs
//                    promise. This rule runs OUTSIDE LintFile (it needs the
//                    README's documented-var set) via LintEnvDocFile, and
//                    scans bench/ and tools/ in addition to src/.
//
// Allowlist: `rule|path-suffix|line-substring` entries (tools/
// uuq_lint_allowlist.txt) suppress grandfathered sites; `#` starts a
// comment. An entry that matches nothing is reported as stale (warning,
// not failure) so the file cannot rot.
#ifndef UUQ_TOOLS_UUQ_LINT_LIB_H_
#define UUQ_TOOLS_UUQ_LINT_LIB_H_

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

namespace uuq_lint {

struct Finding {
  std::string rule;
  std::string file;  // path as scanned (repo-relative for tree scans)
  int line = 0;      // 1-based
  std::string raw;   // the raw source line (allowlist needles match this)
  std::string message;
};

struct AllowEntry {
  std::string rule;
  std::string path_suffix;
  std::string needle;
  bool used = false;  // set by ApplyAllowlist; unused entries are stale
};

// ---------------------------------------------------------------------------
// Source preprocessing: split into lines, with a parallel "code" view whose
// comments and string/char-literal contents are blanked (same length, so
// columns line up). Rules match the code view; messages and allowlist
// needles use the raw view. Handles //, /* */ across lines, escapes inside
// literals, and R"delim( ... )delim" raw strings.
// ---------------------------------------------------------------------------
struct SourceLine {
  std::string raw;
  std::string code;
};

inline std::vector<SourceLine> SplitAndStrip(const std::string& content) {
  enum class State { kNormal, kBlockComment, kString, kChar, kRawString };
  State state = State::kNormal;
  std::string raw_delim;  // for kRawString: the )delim" terminator
  std::string code = content;

  const size_t n = content.size();
  size_t i = 0;
  while (i < n) {
    const char c = content[i];
    switch (state) {
      case State::kNormal:
        if (c == '/' && i + 1 < n && content[i + 1] == '/') {
          // Line comment: blank to end of line.
          while (i < n && content[i] != '\n') code[i++] = ' ';
          continue;
        }
        if (c == '/' && i + 1 < n && content[i + 1] == '*') {
          state = State::kBlockComment;
          code[i++] = ' ';
          code[i++] = ' ';
          continue;
        }
        if (c == 'R' && i + 1 < n && content[i + 1] == '"' &&
            (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                            content[i - 1])) &&
                        content[i - 1] != '_'))) {
          size_t j = i + 2;
          while (j < n && content[j] != '(') ++j;
          raw_delim = ")" + content.substr(i + 2, j - (i + 2)) + "\"";
          state = State::kRawString;
          i = j + 1;  // keep the R"delim( prefix visible; contents blank
          continue;
        }
        if (c == '"') {
          state = State::kString;
        } else if (c == '\'') {
          state = State::kChar;
        }
        ++i;
        continue;
      case State::kBlockComment:
        if (c == '*' && i + 1 < n && content[i + 1] == '/') {
          code[i++] = ' ';
          code[i++] = ' ';
          state = State::kNormal;
          continue;
        }
        if (c != '\n') code[i] = ' ';
        ++i;
        continue;
      case State::kString:
      case State::kChar: {
        const char quote = state == State::kString ? '"' : '\'';
        if (c == '\\' && i + 1 < n) {
          code[i] = ' ';
          if (content[i + 1] != '\n') code[i + 1] = ' ';
          i += 2;
          continue;
        }
        if (c == quote) {
          state = State::kNormal;
          ++i;
          continue;
        }
        if (c != '\n') code[i] = ' ';
        ++i;
        continue;
      }
      case State::kRawString:
        if (content.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size();
          state = State::kNormal;
          continue;
        }
        if (c != '\n') code[i] = ' ';
        ++i;
        continue;
    }
  }

  std::vector<SourceLine> lines;
  size_t start = 0;
  for (size_t pos = 0; pos <= n; ++pos) {
    if (pos == n || content[pos] == '\n') {
      lines.push_back(SourceLine{content.substr(start, pos - start),
                                 code.substr(start, pos - start)});
      start = pos + 1;
    }
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Path predicates. Paths are '/'-separated and repo-relative ("src/...").
// ---------------------------------------------------------------------------
inline bool PathStartsWith(const std::string& path, const std::string& pre) {
  return path.size() >= pre.size() && path.compare(0, pre.size(), pre) == 0;
}
inline bool PathEndsWith(const std::string& path, const std::string& suf) {
  return path.size() >= suf.size() &&
         path.compare(path.size() - suf.size(), suf.size(), suf) == 0;
}

/// The RNG implementation itself — the ONE place entropy primitives and the
/// generator algebra may live.
inline bool IsRandomImplFile(const std::string& path) {
  return PathEndsWith(path, "src/common/random.cc") ||
         PathEndsWith(path, "src/common/random.h") ||
         PathStartsWith(path, "src/common/random.");
}

/// Hot-path directories for the unordered-container rule.
inline bool IsHotPathDir(const std::string& path) {
  return PathStartsWith(path, "src/core/") ||
         PathStartsWith(path, "src/stats/");
}

/// The replicate-path files bound by the allocation-free contract
/// (naked-new rule). Kept in sync with the operator-new-counter tests.
inline const std::vector<std::string>& ReplicatePathFiles() {
  static const std::vector<std::string> kFiles = {
      "src/core/bootstrap.cc",       "src/core/bootstrap.h",
      "src/core/bucket.cc",          "src/core/bucket.h",
      "src/core/estimate.cc",        "src/core/estimate.h",
      "src/core/naive.cc",           "src/core/frequency.cc",
      "src/core/chao92.cc",          "src/core/monte_carlo.cc",
      "src/core/adaptive_budget.cc", "src/core/adaptive_budget.h",
      "src/integration/sample_view.cc", "src/integration/sample_view.h",
  };
  return kFiles;
}

inline bool IsReplicatePathFile(const std::string& path) {
  for (const std::string& f : ReplicatePathFiles()) {
    if (PathEndsWith(path, f)) return true;
  }
  return false;
}

/// The layer map's order (docs/ARCHITECTURE.md): a layer includes only
/// from layers of a lower rank, or from itself. serving and simulation
/// share the last rank, so neither includes the other. -1 for a directory
/// that is not a layer.
inline int LayerRank(const std::string& layer) {
  static const std::vector<std::pair<std::string, int>> kRanks = {
      {"common", 0}, {"stats", 1},   {"integration", 2},  {"db", 3},
      {"core", 4},   {"serving", 5}, {"simulation", 5},
  };
  for (const auto& [name, rank] : kRanks) {
    if (name == layer) return rank;
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Token matching. Every rule is a search for a whole word, a call of a word
// (`word` then optional whitespace then `(`) or a `UUQ_*` name; these few
// hand-written matchers are all of it.
// ---------------------------------------------------------------------------
namespace internal {

inline bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

inline size_t SkipSpaces(const std::string& text, size_t pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
    ++pos;
  }
  return pos;
}

/// Position of the first `word` in `text` at or after `from` with no word
/// character right before it and, when `whole`, none right after it; npos
/// when there is none.
inline size_t FindWord(const std::string& text, const std::string& word,
                       size_t from = 0, bool whole = true) {
  for (size_t pos = text.find(word, from); pos != std::string::npos;
       pos = text.find(word, pos + 1)) {
    const size_t end = pos + word.size();
    if (pos > 0 && IsWordChar(text[pos - 1])) continue;
    if (whole && end < text.size() && IsWordChar(text[end])) continue;
    return pos;
  }
  return std::string::npos;
}

inline bool HasWord(const std::string& text, const std::string& word) {
  return FindWord(text, word) != std::string::npos;
}

/// Position of the `(` of the first call of `word` (the word, optional
/// whitespace, then `(`) at or after `from`; npos when there is none.
inline size_t FindCall(const std::string& text, const std::string& word,
                       size_t from = 0) {
  for (size_t pos = FindWord(text, word, from, /*whole=*/false);
       pos != std::string::npos;
       pos = FindWord(text, word, pos + 1, /*whole=*/false)) {
    const size_t open = SkipSpaces(text, pos + word.size());
    if (open < text.size() && text[open] == '(') return open;
  }
  return std::string::npos;
}

inline bool HasCall(const std::string& text, const std::string& word) {
  return FindCall(text, word) != std::string::npos;
}

/// Every `UUQ_` name (UUQ_ then one or more of [A-Z0-9_]) in `text`, left
/// to right; with `after_backtick`, only those right after a backtick.
inline std::vector<std::string> EnvVarNames(const std::string& text,
                                            bool after_backtick) {
  std::vector<std::string> names;
  const std::string prefix = "UUQ_";
  for (size_t pos = text.find(prefix); pos != std::string::npos;) {
    size_t end = pos + prefix.size();
    while (end < text.size() &&
           (std::isupper(static_cast<unsigned char>(text[end])) != 0 ||
            std::isdigit(static_cast<unsigned char>(text[end])) != 0 ||
            text[end] == '_')) {
      ++end;
    }
    const bool named = end > pos + prefix.size();
    if (named && (!after_backtick || (pos > 0 && text[pos - 1] == '`'))) {
      names.push_back(text.substr(pos, end - pos));
    }
    pos = text.find(prefix, named ? end : pos + 1);
  }
  return names;
}

// ---------------------------------------------------------------------------
// Rule implementations
// ---------------------------------------------------------------------------

inline void AddFinding(std::vector<Finding>* out, const std::string& rule,
                       const std::string& file, int line,
                       const std::string& raw, const std::string& message) {
  Finding f;
  f.rule = rule;
  f.file = file;
  f.line = line;
  f.raw = raw;
  f.message = message;
  out->push_back(std::move(f));
}

inline void LintRandomSource(const std::string& path,
                             const std::vector<SourceLine>& lines,
                             std::vector<Finding>* out) {
  if (IsRandomImplFile(path)) return;
  // time(NULL), time(nullptr) or time(0).
  const auto has_time_now = [](const std::string& code) {
    for (size_t open = FindCall(code, "time"); open != std::string::npos;
         open = FindCall(code, "time", open)) {
      const size_t arg = SkipSpaces(code, open + 1);
      for (const std::string now : {"NULL", "nullptr", "0"}) {
        if (code.compare(arg, now.size(), now) != 0) continue;
        const size_t close = SkipSpaces(code, arg + now.size());
        if (close < code.size() && code[close] == ')') return true;
      }
    }
    return false;
  };
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    if (code.find("std::random_device") != std::string::npos ||
        HasCall(code, "srand") || HasCall(code, "rand") ||
        HasWord(code, "system_clock") || has_time_now(code)) {
      AddFinding(out, "random-source", path, static_cast<int>(i + 1),
                 lines[i].raw,
                 "nondeterministic entropy source outside src/common/random.* "
                 "— draw from the seeded uuq::Rng (Split() per task) instead");
    }
  }
}

inline void LintUnorderedHotPath(const std::string& path,
                                 const std::vector<SourceLine>& lines,
                                 std::vector<Finding>* out) {
  if (!IsHotPathDir(path)) return;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (HasWord(lines[i].code, "unordered_map") ||
        HasWord(lines[i].code, "unordered_set")) {
      AddFinding(out, "unordered-hot-path", path, static_cast<int>(i + 1),
                 lines[i].raw,
                 "std::unordered_{map,set} in a hot-path dir (src/core, "
                 "src/stats): hash iteration order is nondeterministic — use "
                 "a sorted index / SoA column, or allowlist with a "
                 "justification that it is never iterated");
    }
  }
}

inline void LintAtomicOrder(const std::string& path,
                            const std::vector<SourceLine>& lines,
                            std::vector<Finding>* out) {
  static const std::string kOps[] = {
      "load",      "store",    "exchange", "fetch_add",
      "fetch_sub", "fetch_and", "fetch_or", "fetch_xor",
      "compare_exchange_weak", "compare_exchange_strong"};
  for (size_t i = 0; i < lines.size(); ++i) {
    // Every `.op(` or `->op(` call, left to right.
    std::vector<std::pair<std::string, size_t>> calls;
    const std::string& line = lines[i].code;
    for (size_t at = 0; at < line.size(); ++at) {
      size_t name = at + 1;
      if (line.compare(at, 2, "->") == 0) {
        name = at + 2;
      } else if (line[at] != '.') {
        continue;
      }
      for (const std::string& op : kOps) {
        if (line.compare(name, op.size(), op) != 0) continue;
        const size_t open = SkipSpaces(line, name + op.size());
        if (open < line.size() && line[open] == '(') {
          calls.push_back({op, open});
          at = open;
          break;
        }
      }
    }
    for (const auto& [op, open] : calls) {
      // Scan the (possibly multi-line) argument list for an explicit
      // std::memory_order token, tracking paren depth from the call's '('.
      int depth = 0;
      bool closed = false;
      std::string window;
      size_t line_idx = i;
      size_t pos = open;
      for (int scanned_lines = 0; line_idx < lines.size() && scanned_lines < 12;
           ++line_idx, ++scanned_lines, pos = 0) {
        const std::string& code = lines[line_idx].code;
        for (; pos < code.size(); ++pos) {
          const char c = code[pos];
          if (c == '(') ++depth;
          if (c == ')') {
            --depth;
            if (depth == 0) {
              closed = true;
              break;
            }
          }
          window.push_back(c);
        }
        if (closed) break;
        window.push_back('\n');
      }
      if (window.find("memory_order") == std::string::npos) {
        AddFinding(
            out, "atomic-order", path, static_cast<int>(i + 1), lines[i].raw,
            "atomic " + op +
                " without an explicit std::memory_order — defaulted seq_cst "
                "hides whether the ordering contract was considered; name "
                "the order and document why it holds");
      }
    }
  }
}

inline void LintNakedNew(const std::string& path,
                         const std::vector<SourceLine>& lines,
                         std::vector<Finding>* out) {
  if (!IsReplicatePathFile(path)) return;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (HasWord(lines[i].code, "new")) {
      AddFinding(out, "naked-new", path, static_cast<int>(i + 1),
                 lines[i].raw,
                 "`new` in a replicate-path file — the warm replicate loop "
                 "is allocation-free by contract; allocate in scratch/arena "
                 "construction instead");
    }
  }
}

inline void LintLayerInclude(const std::string& path,
                             const std::vector<SourceLine>& lines,
                             std::vector<Finding>* out) {
  if (!PathStartsWith(path, "src/")) return;
  const std::string layer = path.substr(4, path.find('/', 4) - 4);
  const int rank = LayerRank(layer);
  if (rank < 0) return;
  // The include directive is matched on the code view (so a commented-out
  // one never fires); the quoted path, which the code view blanks, is read
  // from the raw line.
  // Position just past `#`, whitespace, `include`, whitespace, `"` at
  // `hash`; npos when the text there is not that.
  const auto quote_end = [](const std::string& text, size_t hash) {
    if (hash >= text.size() || text[hash] != '#') return std::string::npos;
    const size_t word = SkipSpaces(text, hash + 1);
    if (text.compare(word, 7, "include") != 0) return std::string::npos;
    const size_t quote = SkipSpaces(text, word + 7);
    if (quote >= text.size() || text[quote] != '"') return std::string::npos;
    return quote + 1;
  };
  for (size_t i = 0; i < lines.size(); ++i) {
    if (quote_end(lines[i].code, SkipSpaces(lines[i].code, 0)) ==
        std::string::npos) {
      continue;
    }
    // The first `#include "<lowercase layer>/` of the raw line.
    const std::string& raw = lines[i].raw;
    std::string target;
    for (size_t hash = raw.find('#'); hash != std::string::npos;
         hash = raw.find('#', hash + 1)) {
      const size_t begin = quote_end(raw, hash);
      if (begin == std::string::npos) continue;
      size_t end = begin;
      while (end < raw.size() && (std::islower(static_cast<unsigned char>(
                                      raw[end])) != 0 ||
                                  raw[end] == '_')) {
        ++end;
      }
      if (end > begin && end < raw.size() && raw[end] == '/') {
        target = raw.substr(begin, end - begin);
        break;
      }
    }
    if (target.empty()) continue;
    const int target_rank = LayerRank(target);
    if (target == layer || target_rank < 0 || target_rank < rank) continue;
    AddFinding(out, "layer-include", path, static_cast<int>(i + 1),
               lines[i].raw,
               "src/" + layer + " includes " + target +
                   "/ — a layer includes only from the layers above it in "
                   "docs/ARCHITECTURE.md's layer map (common, stats, "
                   "integration, db, core, then serving and simulation, "
                   "which never include each other)");
  }
}

inline void LintThreadLocalJustification(const std::string& path,
                                         const std::vector<SourceLine>& lines,
                                         std::vector<Finding>* out) {
  constexpr size_t kLookback = 6;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (!HasWord(lines[i].code, "thread_local")) continue;
    bool justified =
        lines[i].raw.find("// thread_local:") != std::string::npos;
    // A declaration directly following another thread_local declaration
    // shares its group's justification (scratch/rep pairs).
    if (!justified && i > 0 && HasWord(lines[i - 1].code, "thread_local")) {
      continue;
    }
    for (size_t back = 1; !justified && back <= kLookback && back <= i;
         ++back) {
      justified = lines[i - back].raw.find("// thread_local:") !=
                  std::string::npos;
    }
    if (!justified) {
      AddFinding(out, "thread-local-justification", path,
                 static_cast<int>(i + 1), lines[i].raw,
                 "thread_local without an adjacent `// thread_local:` "
                 "justification comment — state that persists across queries "
                 "on a worker thread must explain its ownership/reset story");
    }
  }
}

/// env-doc: every same-line (or next-line, for a wrapped call) `UUQ_*`
/// token of a getenv() read must appear in `documented` — the set parsed
/// from README.md's env table by DocumentedEnvVars below. The variable name
/// lives in a string literal, which the code view blanks, so the token is
/// extracted from the RAW line while the getenv call itself is matched on
/// the code view (a getenv in a comment or string never fires).
inline void LintEnvDoc(const std::string& path,
                       const std::vector<SourceLine>& lines,
                       const std::vector<std::string>& documented,
                       std::vector<Finding>* out) {
  for (size_t i = 0; i < lines.size(); ++i) {
    if (!HasCall(lines[i].code, "getenv")) continue;
    std::vector<std::string> vars = EnvVarNames(lines[i].raw, false);
    if (vars.empty() && i + 1 < lines.size()) {
      vars = EnvVarNames(lines[i + 1].raw, false);
    }
    for (const std::string& var : vars) {
      if (std::find(documented.begin(), documented.end(), var) ==
          documented.end()) {
        AddFinding(out, "env-doc", path, static_cast<int>(i + 1),
                   lines[i].raw,
                   "getenv of " + var +
                       " has no row in README.md's environment-variable "
                       "table — document the knob (or fix the name)");
      }
    }
  }
}

}  // namespace internal

/// Parses README.md's environment-variable table: every markdown table row
/// (first non-space character '|') contributes each backticked `UUQ_*`
/// token it names. Prose mentions outside table rows do NOT count — a knob
/// is documented when it has a table row, not when it is name-dropped.
inline std::vector<std::string> DocumentedEnvVars(const std::string& readme) {
  std::vector<std::string> vars;
  size_t start = 0;
  while (start <= readme.size()) {
    size_t end = readme.find('\n', start);
    if (end == std::string::npos) end = readme.size();
    const std::string line = readme.substr(start, end - start);
    start = end + 1;
    const size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] != '|') continue;
    for (const std::string& var :
         internal::EnvVarNames(line, /*after_backtick=*/true)) {
      if (std::find(vars.begin(), vars.end(), var) == vars.end()) {
        vars.push_back(var);
      }
    }
  }
  return vars;
}

/// Lints one file's content under its repo-relative path. Pure function of
/// (path, content) — no filesystem access, so tests feed fixtures directly.
inline std::vector<Finding> LintFile(const std::string& path,
                                     const std::string& content) {
  std::vector<Finding> findings;
  if (!(PathEndsWith(path, ".h") || PathEndsWith(path, ".cc"))) {
    return findings;
  }
  const std::vector<SourceLine> lines = SplitAndStrip(content);
  internal::LintRandomSource(path, lines, &findings);
  internal::LintUnorderedHotPath(path, lines, &findings);
  internal::LintAtomicOrder(path, lines, &findings);
  internal::LintNakedNew(path, lines, &findings);
  internal::LintLayerInclude(path, lines, &findings);
  internal::LintThreadLocalJustification(path, lines, &findings);
  return findings;
}

/// Runs only the env-doc rule (see the header comment): separate from
/// LintFile because it needs the README's documented-var set, which the
/// (path, content) signature cannot carry — and because it scans a wider
/// tree (bench/, tools/) than the determinism rules.
inline std::vector<Finding> LintEnvDocFile(
    const std::string& path, const std::string& content,
    const std::vector<std::string>& documented) {
  std::vector<Finding> findings;
  if (!(PathEndsWith(path, ".h") || PathEndsWith(path, ".cc"))) {
    return findings;
  }
  const std::vector<SourceLine> lines = SplitAndStrip(content);
  internal::LintEnvDoc(path, lines, documented, &findings);
  return findings;
}

// ---------------------------------------------------------------------------
// Allowlist
// ---------------------------------------------------------------------------
inline std::vector<AllowEntry> ParseAllowlist(const std::string& text) {
  std::vector<AllowEntry> entries;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(start, end - start);
    start = end + 1;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    while (!line.empty() && std::isspace(static_cast<unsigned char>(
                                line.back()))) {
      line.pop_back();
    }
    if (line.empty()) continue;
    const size_t p1 = line.find('|');
    const size_t p2 = p1 == std::string::npos ? std::string::npos
                                              : line.find('|', p1 + 1);
    if (p2 == std::string::npos) continue;  // malformed; ignore
    AllowEntry entry;
    entry.rule = line.substr(0, p1);
    entry.path_suffix = line.substr(p1 + 1, p2 - p1 - 1);
    entry.needle = line.substr(p2 + 1);
    entries.push_back(std::move(entry));
  }
  return entries;
}

/// Removes allowlisted findings; marks matched entries used. Returns the
/// surviving findings.
inline std::vector<Finding> ApplyAllowlist(std::vector<Finding> findings,
                                           std::vector<AllowEntry>* allow) {
  std::vector<Finding> out;
  for (Finding& f : findings) {
    bool suppressed = false;
    for (AllowEntry& entry : *allow) {
      if (entry.rule == f.rule && PathEndsWith(f.file, entry.path_suffix) &&
          f.raw.find(entry.needle) != std::string::npos) {
        entry.used = true;
        suppressed = true;
        break;
      }
    }
    if (!suppressed) out.push_back(std::move(f));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Self-test corpus: one minimal violating snippet per rule (must fire) and
// one clean counterpart (must pass). The uuq_lint_selftest ctest runs these
// so a rule that silently stops matching fails the build — the same
// negative-test pattern as the accuracy gate.
// ---------------------------------------------------------------------------
struct SelfTestCase {
  const char* rule;
  const char* path;  // synthetic repo-relative path that puts it in scope
  const char* bad;
  const char* good;
};

inline const std::vector<SelfTestCase>& SelfTestCases() {
  static const std::vector<SelfTestCase> kCases = {
      {"random-source", "src/core/fixture.cc",
       "#include <random>\n"
       "int Entropy() { std::random_device rd; return (int)rd(); }\n",
       "#include \"common/random.h\"\n"
       "// std::random_device only in this comment, and in a string below.\n"
       "const char* kDoc = \"std::random_device\";\n"
       "double Draw(uuq::Rng* rng) { return rng->NextDouble(); }\n"},
      {"unordered-hot-path", "src/stats/fixture.cc",
       "#include <unordered_map>\n"
       "int Count(const std::unordered_map<int, int>& m) {\n"
       "  int total = 0;\n"
       "  for (const auto& kv : m) total += kv.second;\n"
       "  return total;\n"
       "}\n",
       "#include <map>\n"
       "int Count(const std::map<int, int>& m) {\n"
       "  int total = 0;\n"
       "  for (const auto& kv : m) total += kv.second;\n"
       "  return total;\n"
       "}\n"},
      {"atomic-order", "src/serving/fixture.cc",
       "#include <atomic>\n"
       "std::atomic<int> g{0};\n"
       "int Bump() { return g.fetch_add(1); }\n",
       "#include <atomic>\n"
       "std::atomic<int> g{0};\n"
       "// Relaxed: pure counter, nothing ordered through it.\n"
       "int Bump() { return g.fetch_add(1, std::memory_order_relaxed); }\n"
       "int Get() {\n"
       "  return g.load(\n"
       "      std::memory_order_relaxed);  // multi-line arg list\n"
       "}\n"},
      {"naked-new", "src/core/bootstrap.cc",
       "struct Buf { double* p; };\n"
       "Buf Make() { return Buf{new double[8]}; }\n",
       "#include <vector>\n"
       "std::vector<double> Make() { return std::vector<double>(8, 0.0); }\n"},
      {"thread-local-justification", "src/core/fixture.cc",
       "int Hot() {\n"
       "  thread_local int calls = 0;\n"
       "  return ++calls;\n"
       "}\n",
       "int Hot() {\n"
       "  // thread_local: per-thread call counter; never read cross-thread.\n"
       "  thread_local int calls = 0;\n"
       "  thread_local int spare = 0;  // grouped: inherits the line above\n"
       "  return ++calls + spare;\n"
       "}\n"},
      {"layer-include", "src/serving/fixture.cc",
       "#include \"simulation/scenarios.h\"\n",
       "#include <vector>\n"
       "#include \"core/query_correction.h\"\n"
       "#include \"serving/sample_cache.h\"\n"
       "// #include \"simulation/scenarios.h\" only in this comment.\n"},
  };
  return kCases;
}

/// Runs the embedded corpus. Appends human-readable failures to `errors`;
/// returns true when every bad snippet fires exactly its own rule and every
/// good snippet is clean.
inline bool RunSelfTest(std::vector<std::string>* errors) {
  bool ok = true;
  for (const SelfTestCase& c : SelfTestCases()) {
    const std::vector<Finding> bad = LintFile(c.path, c.bad);
    const bool fired = std::any_of(
        bad.begin(), bad.end(),
        [&](const Finding& f) { return f.rule == c.rule; });
    if (!fired) {
      ok = false;
      errors->push_back(std::string("rule '") + c.rule +
                        "' did NOT fire on its violating snippet");
    }
    const std::vector<Finding> good = LintFile(c.path, c.good);
    if (!good.empty()) {
      ok = false;
      errors->push_back(std::string("rule '") + c.rule +
                        "' clean snippet unexpectedly flagged: " +
                        good.front().rule + " at line " +
                        std::to_string(good.front().line));
    }
  }
  // env-doc runs outside LintFile (it needs the README's documented-var
  // set), so its corpus lives here: parse a one-row table, then pin that an
  // undocumented read fires, a documented one is clean, and prose mentions
  // do not count as documentation.
  {
    const std::vector<std::string> documented = DocumentedEnvVars(
        "| `UUQ_DOCUMENTED_KNOB` | a documented knob |\n"
        "prose naming `UUQ_PROSE_ONLY` is not a table row\n");
    if (documented != std::vector<std::string>{"UUQ_DOCUMENTED_KNOB"}) {
      ok = false;
      errors->push_back(
          "env-doc: DocumentedEnvVars mis-parsed the corpus table "
          "(missed the row, or counted a prose mention)");
    }
    const std::vector<Finding> bad = LintEnvDocFile(
        "src/core/fixture.cc",
        "#include <cstdlib>\n"
        "bool On() { return std::getenv(\"UUQ_SECRET_KNOB\") != nullptr; }\n",
        documented);
    if (bad.size() != 1 || bad.front().rule != "env-doc") {
      ok = false;
      errors->push_back("rule 'env-doc' did NOT fire on its violating snippet");
    }
    const std::vector<Finding> good = LintEnvDocFile(
        "src/core/fixture.cc",
        "#include <cstdlib>\n"
        "bool On() {\n"
        "  // getenv in this comment never fires.\n"
        "  return std::getenv(\"UUQ_DOCUMENTED_KNOB\") != nullptr;\n"
        "}\n",
        documented);
    if (!good.empty()) {
      ok = false;
      errors->push_back("rule 'env-doc' clean snippet unexpectedly flagged");
    }
  }
  return ok;
}

}  // namespace uuq_lint

#endif  // UUQ_TOOLS_UUQ_LINT_LIB_H_
