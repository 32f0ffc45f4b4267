// Lightweight C++ tokenizer for gptc-lint.
//
// The linter does not need a real parser: every rule it enforces (see
// lint_rules.hpp) is a pattern over identifiers, punctuation and brace
// structure. This scanner turns a source file into a flat token stream with
// line numbers, strips comments and string/character literals (so `"rand()"`
// in a message never trips a rule), and records `// lint: <directive>`
// comments so rules can honour per-site allowlists. It also holds the token
// predicates and bracket matcher every rule and analysis shares.
//
// Deliberately handled: line and block comments, escaped string/char
// literals, raw string literals, preprocessor directives (skipped whole,
// including backslash continuations), digit separators, and the multi-char
// operators the rules care about (`::`, `+=`, `->`, ...). Deliberately NOT
// handled: trigraphs, UCNs in identifiers, and `>>` as a single token (two
// `>` tokens make template-argument scanning simpler and shift operators are
// irrelevant to every rule).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace gptc::lint {

enum class TokKind {
  Identifier,  // keywords are identifiers too; rules match by spelling
  Number,
  Punct,
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;  // 1-based
};

using Tokens = std::vector<Token>;

inline bool is_id(const Token& t, std::string_view s) {
  return t.kind == TokKind::Identifier && t.text == s;
}

inline bool is_p(const Token& t, std::string_view s) {
  return t.kind == TokKind::Punct && t.text == s;
}

/// Keywords that can directly precede an expression; two adjacent
/// identifiers where the first is NOT one of these are treated as a
/// declaration (`TrainingData data`, `double sum`).
bool is_expr_keyword(std::string_view s);

/// Index of the token matching the opener at `open` (one of ( [ { <),
/// counting only that bracket pair and looking no further than `end` (the
/// whole stream by default). Returns `end`, clamped to t.size(), if
/// unmatched.
std::size_t find_matching(const Tokens& t, std::size_t open,
                          std::string_view open_text,
                          std::string_view close_text,
                          std::size_t end = std::string::npos);

/// A `// lint: <name> <reason...>` comment, or a tag annotation such as
/// `// guard-ok: <reason>` (see kGuardTags in source_scanner.cpp).
struct Directive {
  std::string name;    // e.g. "unordered-ok"
  std::string reason;  // free text after the name (may be empty)
  int line = 0;
  /// Whether the directive also covers lines below its own, fixed at scan
  /// time. A `lint:` directive always does, so trailing and preceding-line
  /// placement both work. A tag annotation does only when its comment
  /// starts its own line (only whitespace before it): a trailing one binds
  /// to its own line, or an annotation trailing one member declaration
  /// would bleed into the member declared on the line below.
  bool covers_next = false;
};

struct ScannedFile {
  std::string path;
  Tokens tokens;
  std::vector<Directive> directives;

  /// The first directive named `name` covering `line`: one on that line,
  /// or one at most `window` lines above it that covers_next (a window of
  /// two lets a function annotation survive a long return type pushing the
  /// name token down). With `need_reason`, directives whose reason is empty
  /// are skipped. nullptr when none covers the line.
  const Directive* directive_at(std::string_view name, int line,
                                int window = 1,
                                bool need_reason = false) const;
};

/// Tokenizes `text` as C++ source. Never throws on malformed input: an
/// unterminated literal or comment simply ends the token stream, which is
/// the right behaviour for a linter (the compiler will complain louder).
ScannedFile scan_source(std::string path, std::string_view text);

/// Reads and tokenizes a file. Throws std::runtime_error if unreadable.
ScannedFile scan_file(const std::string& path);

}  // namespace gptc::lint
