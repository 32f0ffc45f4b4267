#include "source_scanner.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace gptc::lint {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Multi-character punctuators the rules distinguish. Longest match first;
/// `>>` is intentionally absent (see header).
constexpr std::string_view kPuncts[] = {
    "<<=", "->*", "...", "::", "->", "++", "--", "+=", "-=", "*=",
    "/=",  "%=",  "&=",  "|=", "^=", "==", "!=", "<=", ">=", "&&",
    "||",  "<<",  ".*",
};

/// Parses the body of a `// lint: ...` comment into a directive.
void parse_directive(std::string_view body, int line,
                     std::vector<Directive>& out) {
  // body is everything after "lint:".
  std::size_t i = 0;
  while (i < body.size() && std::isspace(static_cast<unsigned char>(body[i])))
    ++i;
  std::size_t name_begin = i;
  while (i < body.size() &&
         !std::isspace(static_cast<unsigned char>(body[i])))
    ++i;
  if (i == name_begin) return;  // "// lint:" with no name: ignore
  Directive d;
  d.name = std::string(body.substr(name_begin, i - name_begin));
  while (i < body.size() && std::isspace(static_cast<unsigned char>(body[i])))
    ++i;
  d.reason = std::string(body.substr(i));
  while (!d.reason.empty() &&
         std::isspace(static_cast<unsigned char>(d.reason.back())))
    d.reason.pop_back();
  d.line = line;
  d.covers_next = true;
  out.push_back(std::move(d));
}

/// Guard-annotation comments recognized without the `lint:` prefix. The tag
/// (with its colon) marks the start; everything after it is the directive's
/// reason — for the lock-naming forms, the first word of the reason is the
/// lock expression.
constexpr std::string_view kGuardTags[] = {
    "guarded_by:", "requires_lock:", "returns_lock:", "guard-ok:",
    "taint-ok:",   "blocking-ok:"};

/// Scans a comment's text for a lint directive. `own_line` records whether
/// the comment starts its own source line (see Directive::covers_next).
void check_comment(std::string_view comment, int line, bool own_line,
                   std::vector<Directive>& out) {
  const std::size_t pos = comment.find("lint:");
  if (pos != std::string_view::npos) {
    parse_directive(comment.substr(pos + 5), line, out);
    return;
  }
  for (const std::string_view tag : kGuardTags) {
    const std::size_t p = comment.find(tag);
    if (p == std::string_view::npos) continue;
    Directive d;
    d.name = std::string(tag.substr(0, tag.size() - 1));
    std::string_view rest = comment.substr(p + tag.size());
    std::size_t b = 0;
    while (b < rest.size() && std::isspace(static_cast<unsigned char>(rest[b])))
      ++b;
    std::size_t e = rest.size();
    while (e > b && (std::isspace(static_cast<unsigned char>(rest[e - 1])) ||
                     rest[e - 1] == '/' || rest[e - 1] == '*'))
      --e;
    d.reason = std::string(rest.substr(b, e - b));
    d.line = line;
    d.covers_next = own_line;
    out.push_back(std::move(d));
    return;
  }
}

class Scanner {
 public:
  Scanner(std::string path, std::string_view text)
      : text_(text), file_{std::move(path), {}, {}} {}

  ScannedFile run() {
    while (pos_ < text_.size()) step();
    return std::move(file_);
  }

 private:
  char cur() const { return text_[pos_]; }
  char peek(std::size_t k = 1) const {
    return pos_ + k < text_.size() ? text_[pos_ + k] : '\0';
  }
  bool starts_with(std::string_view s) const {
    return text_.compare(pos_, s.size(), s) == 0;
  }
  void advance() {
    if (text_[pos_] == '\n') ++line_;
    ++pos_;
  }

  void push(TokKind kind, std::string text, int line) {
    file_.tokens.push_back(Token{kind, std::move(text), line});
  }

  void step() {
    const char c = cur();
    if (c == '\n') {
      at_line_start_ = true;
      advance();
      return;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance();  // indentation before '#' keeps line-start status
      return;
    }
    if (starts_with("//")) {
      skip_line_comment();
      return;
    }
    if (starts_with("/*")) {
      skip_block_comment();
      return;
    }
    if (c == '#' && at_line_start_) {
      skip_preprocessor();
      return;
    }
    at_line_start_ = false;
    if (c == '"') {
      skip_string();
      return;
    }
    if (c == '\'') {
      skip_char_literal();
      return;
    }
    if (c == 'R' && peek() == '"') {
      skip_raw_string();
      return;
    }
    if (ident_start(c)) {
      lex_identifier();
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      lex_number();
      return;
    }
    lex_punct();
  }

  void skip_line_comment() {
    const int start_line = line_;
    const bool own_line = at_line_start_;
    std::size_t begin = pos_;
    while (pos_ < text_.size() && cur() != '\n') advance();
    check_comment(text_.substr(begin, pos_ - begin), start_line, own_line,
                  file_.directives);
    // Note: the newline itself is consumed by the main loop; at_line_start_
    // tracking only matters for '#', which cannot follow a comment-only line
    // in any way the rules care about.
    at_line_start_ = true;
  }

  void skip_block_comment() {
    const int start_line = line_;
    const bool own_line = at_line_start_;
    std::size_t begin = pos_;
    advance();  // '/'
    advance();  // '*'
    while (pos_ < text_.size() && !starts_with("*/")) advance();
    if (pos_ < text_.size()) {
      advance();  // '*'
      advance();  // '/'
    }
    check_comment(text_.substr(begin, pos_ - begin), start_line, own_line,
                  file_.directives);
  }

  void skip_preprocessor() {
    // Consume through end of line, honouring backslash continuations.
    while (pos_ < text_.size()) {
      if (cur() == '\\' && peek() == '\n') {
        advance();
        advance();
        continue;
      }
      if (cur() == '\n') {
        advance();
        return;
      }
      // Comments inside directives still carry directives-for-humans only;
      // skip them so a '*/' in a macro doesn't confuse the scanner.
      if (starts_with("/*")) {
        skip_block_comment();
        continue;
      }
      if (starts_with("//")) {
        skip_line_comment();
        return;
      }
      advance();
    }
  }

  void skip_string() {
    advance();  // opening quote
    while (pos_ < text_.size() && cur() != '"') {
      if (cur() == '\\' && pos_ + 1 < text_.size()) advance();
      advance();
    }
    if (pos_ < text_.size()) advance();  // closing quote
  }

  void skip_char_literal() {
    advance();  // opening quote
    while (pos_ < text_.size() && cur() != '\'') {
      if (cur() == '\\' && pos_ + 1 < text_.size()) advance();
      advance();
    }
    if (pos_ < text_.size()) advance();
  }

  void skip_raw_string() {
    advance();  // 'R'
    advance();  // '"'
    std::string delim;
    while (pos_ < text_.size() && cur() != '(') {
      delim += cur();
      advance();
    }
    const std::string close = ")" + delim + "\"";
    while (pos_ < text_.size() && !starts_with(close)) advance();
    for (std::size_t i = 0; i < close.size() && pos_ < text_.size(); ++i)
      advance();
  }

  void lex_identifier() {
    const int start_line = line_;
    std::size_t begin = pos_;
    while (pos_ < text_.size() && ident_char(cur())) advance();
    std::string text(text_.substr(begin, pos_ - begin));
    // A string-literal prefix (u8"", L"", ...) parses as identifier + string;
    // that is fine — the string is skipped and the stray identifier is
    // harmless to every rule.
    push(TokKind::Identifier, std::move(text), start_line);
  }

  void lex_number() {
    const int start_line = line_;
    std::size_t begin = pos_;
    // pp-number: digits, letters, dots, quotes-as-separators, and exponent
    // signs. Over-broad is fine; rules never inspect numbers.
    while (pos_ < text_.size()) {
      const char c = cur();
      if (ident_char(c) || c == '.' || c == '\'') {
        advance();
        continue;
      }
      if ((c == '+' || c == '-') && pos_ > begin) {
        const char prev = text_[pos_ - 1];
        if (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P') {
          advance();
          continue;
        }
      }
      break;
    }
    push(TokKind::Number, std::string(text_.substr(begin, pos_ - begin)),
         start_line);
  }

  void lex_punct() {
    const int start_line = line_;
    for (std::string_view p : kPuncts) {
      if (starts_with(p)) {
        for (std::size_t i = 0; i < p.size(); ++i) advance();
        push(TokKind::Punct, std::string(p), start_line);
        return;
      }
    }
    std::string one(1, cur());
    advance();
    push(TokKind::Punct, std::move(one), start_line);
  }

  std::string_view text_;
  ScannedFile file_;
  std::size_t pos_ = 0;
  int line_ = 1;
  bool at_line_start_ = true;
};

}  // namespace

bool is_expr_keyword(std::string_view s) {
  static const std::set<std::string_view> kw = {
      "return",  "co_return", "co_yield", "co_await", "throw",  "case",
      "else",    "do",        "goto",     "new",      "delete", "sizeof",
      "alignof", "typeid",    "not",      "and",      "or",     "xor",
      "if",      "while",     "for",      "switch",   "catch",  "constexpr",
      "static_assert",
  };
  return kw.count(s) != 0;
}

std::size_t find_matching(const Tokens& t, std::size_t open,
                          std::string_view open_text,
                          std::string_view close_text, std::size_t end) {
  end = std::min(end, t.size());
  int depth = 0;
  for (std::size_t i = open; i < end; ++i) {
    if (is_p(t[i], open_text)) ++depth;
    else if (is_p(t[i], close_text) && --depth == 0) return i;
  }
  return end;
}

const Directive* ScannedFile::directive_at(std::string_view name, int line,
                                           int window,
                                           bool need_reason) const {
  for (const Directive& d : directives) {
    if (d.name != name || d.line > line || line - d.line > window) continue;
    if (need_reason && d.reason.empty()) continue;
    if (d.line == line || d.covers_next) return &d;
  }
  return nullptr;
}

ScannedFile scan_source(std::string path, std::string_view text) {
  return Scanner(std::move(path), text).run();
}

ScannedFile scan_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("gptc-lint: cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  return scan_source(path, text);
}

}  // namespace gptc::lint
