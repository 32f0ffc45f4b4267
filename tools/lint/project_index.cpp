#include "project_index.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <tuple>

namespace gptc::lint {

namespace {

bool is_cv_ref(const Token& t) {
  return is_id(t, "const") || is_id(t, "volatile") || is_p(t, "&") ||
         is_p(t, "*") || is_p(t, "&&");
}

const std::set<std::string_view> kUnorderedContainers = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

const std::set<std::string_view> kMutexTypes = {
    "mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
    "recursive_timed_mutex", "shared_timed_mutex"};

const std::set<std::string_view> kLockWrappers = {
    "lock_guard", "unique_lock", "shared_lock", "scoped_lock"};

/// Container/atomic methods that mutate their object — a member they are
/// invoked on counts as written for the guard analysis.
const std::set<std::string_view> kMutatingMethods = {
    "push_back", "emplace_back", "push_front", "emplace_front", "push",
    "pop",       "pop_back",     "pop_front",  "insert",
    "insert_or_assign",          "emplace",    "emplace_hint",
    "try_emplace", "erase",      "clear",      "resize",
    "reserve",   "assign",       "swap",       "merge",
    "extract",   "store",        "exchange",   "fetch_add",
    "fetch_sub", "reset"};

/// Member types the guard analysis never checks: their own synchronization
/// (atomics), the synchronization primitives themselves, and thread handles.
bool guard_exempt_type_id(const std::string& s) {
  return s.rfind("atomic", 0) == 0 || kMutexTypes.count(s) != 0 ||
         s == "condition_variable" || s == "condition_variable_any" ||
         s == "thread" || s == "jthread" || s == "once_flag";
}

}  // namespace

/// All the pass-1 extraction for one file; owns the transient state (class
/// stack, brace matching) the walk needs.
class IndexBuilder {
 public:
  IndexBuilder(ProjectIndex& index, const ScannedFile& file)
      : ix_(index), f_(file), t_(file.tokens) {
    stem_ = std::filesystem::path(file.path).stem().string();
  }

  void run() {
    std::vector<std::pair<std::string, std::size_t>> class_stack;
    for (std::size_t i = 0; i < t_.size(); ++i) {
      while (!class_stack.empty() && i >= class_stack.back().second)
        class_stack.pop_back();
      if ((is_id(t_[i], "class") || is_id(t_[i], "struct")) &&
          (i == 0 || !is_id(t_[i - 1], "enum"))) {
        if (std::size_t body = enter_class(i, class_stack); body != 0) {
          // Keep walking *into* the body (member functions are defined
          // there); members themselves were extracted by enter_class.
          i = body;  // position on '{'; loop advances past it
          continue;
        }
      }
      if (is_p(t_[i], "(")) {
        const std::string cls =
            class_stack.empty() ? std::string() : class_stack.back().first;
        try_function(i, cls);
      }
    }
  }

 private:
  /// First whitespace-separated word of an annotation's text (the lock
  /// expression) qualified to a lock identity: `mu_` becomes `Cls::mu_`,
  /// an already-qualified `Shard::mu` is kept as-is.
  std::string qualify_lock(const std::string& text, const std::string& cls) {
    std::size_t b = 0;
    while (b < text.size() && std::isspace(static_cast<unsigned char>(text[b])))
      ++b;
    std::size_t e = b;
    while (e < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[e])))
      ++e;
    std::string word = text.substr(b, e - b);
    if (word.empty()) return "";
    if (word.find("::") != std::string::npos) return word;
    return (cls.empty() ? stem_ : cls) + "::" + word;
  }

  /// True when an annotation's text ends in the word "shared" after the
  /// lock expression (shared-mode contract).
  static bool annotation_shared(const std::string& text) {
    return text.size() >= 6 &&
           text.compare(text.size() - 6, 6, "shared") == 0;
  }

  /// Handles `class`/`struct` at `i`. Returns the body-'{' index when a
  /// definition was entered (class recorded, members extracted), 0 when it
  /// was a forward declaration or unrecognized.
  std::size_t enter_class(
      std::size_t i,
      std::vector<std::pair<std::string, std::size_t>>& class_stack) {
    if (i + 1 >= t_.size() || t_[i + 1].kind != TokKind::Identifier) return 0;
    const std::string name = t_[i + 1].text;
    // Find the body '{' or the ';' of a forward declaration. A base-clause
    // may contain template args but never braces or semicolons.
    for (std::size_t j = i + 2; j < t_.size(); ++j) {
      if (is_p(t_[j], ";")) {
        ix_.classes_.insert(name);
        return 0;
      }
      if (is_p(t_[j], "(") || is_p(t_[j], ")") || is_p(t_[j], "=")) return 0;
      if (is_p(t_[j], "{")) {
        ix_.classes_.insert(name);
        const std::size_t close = find_matching(t_, j, "{", "}");
        class_stack.emplace_back(name, close);
        extract_members(name, j + 1, close);
        return j;
      }
    }
    return 0;
  }

  /// Scans a class body's top level (nested braces skipped) for data-member
  /// declarations, recording unordered containers, mutexes, std::thread
  /// containers, and every member's type identifiers.
  void extract_members(const std::string& cls, std::size_t begin,
                       std::size_t end) {
    std::size_t i = begin;
    while (i < end) {
      // One declaration run: up to the next top-level ';'. Brace/paren
      // regions (inline method bodies, default member initializers) are
      // skipped whole.
      std::size_t run_begin = i;
      std::size_t j = i;
      bool has_paren_after_ident = false;
      bool seen_eq = false;
      std::size_t last_ident = t_.size();
      while (j < end) {
        if (is_p(t_[j], "{")) {
          j = find_matching(t_, j, "{", "}");
          if (j >= end) return;
          // An inline method body ends the declaration without ';'.
          has_paren_after_ident = true;  // treat as non-member
          break;
        }
        // A template argument list in the type is skipped whole so a '('
        // inside it (std::function<void()>, ...) is not mistaken for a
        // function declarator. Only before '=': past the initializer a '<'
        // may be a comparison with no matching '>'.
        if (!seen_eq && is_p(t_[j], "<") && j > run_begin &&
            t_[j - 1].kind == TokKind::Identifier &&
            t_[j - 1].text != "operator") {
          const std::size_t close = find_matching(t_, j, "<", ">");
          if (close < end) {
            j = close + 1;
            continue;
          }
        }
        if (is_p(t_[j], "=")) seen_eq = true;
        if (is_p(t_[j], "(")) {
          if (j > run_begin && t_[j - 1].kind == TokKind::Identifier)
            has_paren_after_ident = true;
          j = find_matching(t_, j, "(", ")");
          if (j >= end) return;
        } else if (is_p(t_[j], ";")) {
          break;
        } else if (t_[j].kind == TokKind::Identifier) {
          last_ident = j;
        }
        ++j;
      }
      if (!has_paren_after_ident && last_ident < t_.size() &&
          last_ident > run_begin) {
        // Member variable: `<type tokens> name ;` or `... name = init ;`.
        // The declarator name is the identifier right before the first
        // top-level '=' (if any), else the last identifier of the run.
        std::size_t name_tok = last_ident;
        for (std::size_t k = run_begin; k < j; ++k) {
          if (is_p(t_[k], "=")) {
            name_tok = t_.size();
            for (std::size_t m = run_begin; m < k; ++m)
              if (t_[m].kind == TokKind::Identifier) name_tok = m;
            break;
          }
          if (is_p(t_[k], "<")) k = find_matching(t_, k, "<", ">");
        }
        if (name_tok < t_.size()) record_member(cls, run_begin, name_tok);
      }
      i = j + 1;
    }
  }

  void record_member(const std::string& cls, std::size_t type_begin,
                     std::size_t name_tok) {
    const std::string& name = t_[name_tok].text;
    std::vector<std::string> type_ids;
    bool is_unordered = false, is_mutex = false, is_thread = false;
    bool is_shared_mutex = false;
    std::string container;
    for (std::size_t k = type_begin; k < name_tok; ++k) {
      if (t_[k].kind != TokKind::Identifier) continue;
      const std::string& s = t_[k].text;
      if (s == "static" || s == "mutable" || s == "const" || s == "inline")
        continue;
      type_ids.push_back(s);
      if (kUnorderedContainers.count(s) != 0) {
        is_unordered = true;
        container = s;
      }
      if (kMutexTypes.count(s) != 0) is_mutex = true;
      if (s == "shared_mutex" || s == "shared_timed_mutex")
        is_shared_mutex = true;
      if (s == "thread" || s == "jthread") is_thread = true;
    }
    if (type_ids.empty()) return;
    ix_.member_type_ids_[cls][name] = type_ids;
    if (is_unordered)
      ix_.unordered_members_.push_back(
          {cls, name, container, f_.path, t_[name_tok].line});
    if (is_mutex)
      ix_.mutex_members_.push_back(
          {cls, name, f_.path, t_[name_tok].line, is_shared_mutex});
    if (is_thread) ix_.thread_members_.insert(name);
    // Guard annotations on the declaration itself.
    const int line = t_[name_tok].line;
    if (const Directive* d = f_.directive_at("guarded_by", line)) {
      const std::string id = qualify_lock(d->reason, cls);
      if (!id.empty()) ix_.guarded_by_[cls][name] = id;
    }
    if (f_.directive_at("guard-ok", line) != nullptr)
      ix_.member_guard_ok_.insert(cls + "::" + name);
  }

  // --- function extraction -------------------------------------------------

  /// Parses the qualified name chain ending just before the '(' at `paren`.
  /// Returns false when the tokens before it cannot name a function.
  bool parse_name(std::size_t paren, std::string& qualified, std::string& base,
                  std::string& cls_out, std::size_t& chain_begin) {
    if (paren == 0 || t_[paren - 1].kind != TokKind::Identifier) return false;
    std::vector<std::string> parts = {t_[paren - 1].text};
    std::size_t k = paren - 1;
    bool dtor = false;
    if (k >= 1 && is_p(t_[k - 1], "~")) {
      dtor = true;
      --k;
    }
    while (k >= 2 && is_p(t_[k - 1], "::") &&
           t_[k - 2].kind == TokKind::Identifier) {
      parts.insert(parts.begin(), t_[k - 2].text);
      k -= 2;
    }
    base = parts.back();
    if (is_expr_keyword(base) || base == "operator") return false;
    qualified.clear();
    for (std::size_t p = 0; p < parts.size(); ++p) {
      if (p != 0) qualified += "::";
      if (p + 1 == parts.size() && dtor) qualified += "~";
      qualified += parts[p];
    }
    cls_out = parts.size() >= 2 ? parts[parts.size() - 2] : std::string();
    chain_begin = k;
    return true;
  }

  /// Attempts to recognize the '(' at `i` as a function definition or
  /// declaration; records it (with full body analysis for definitions).
  void try_function(std::size_t i, const std::string& enclosing_cls) {
    std::string qualified, base, name_cls;
    std::size_t chain_begin = 0;
    if (!parse_name(i, qualified, base, name_cls, chain_begin)) return;
    const std::size_t close = find_matching(t_, i, "(", ")");
    if (close >= t_.size()) return;

    // Qualifiers between the parameter list and the body/terminator.
    bool marked_noexcept = false;
    std::size_t j = close + 1;
    bool is_def = false;
    while (j < t_.size()) {
      if (is_id(t_[j], "const") || is_id(t_[j], "override") ||
          is_id(t_[j], "final") || is_id(t_[j], "mutable") ||
          is_p(t_[j], "&") || is_p(t_[j], "&&")) {
        ++j;
      } else if (is_id(t_[j], "noexcept")) {
        marked_noexcept = true;
        ++j;
        if (j < t_.size() && is_p(t_[j], "("))
          j = find_matching(t_, j, "(", ")") + 1;
      } else if (is_p(t_[j], "->")) {
        // Trailing return type: scan to the body '{' or a ';'.
        ++j;
        int pdepth = 0;
        while (j < t_.size()) {
          if (is_p(t_[j], "(")) ++pdepth;
          else if (is_p(t_[j], ")")) --pdepth;
          else if (pdepth == 0 && (is_p(t_[j], "{") || is_p(t_[j], ";")))
            break;
          ++j;
        }
      } else if (is_p(t_[j], ":")) {
        // Constructor init list: `name (args)` / `name {args}` entries.
        ++j;
        while (j < t_.size()) {
          if (t_[j].kind == TokKind::Identifier) {
            ++j;
            while (j < t_.size() && (is_p(t_[j], "::") || is_p(t_[j], "<"))) {
              if (is_p(t_[j], "<")) j = find_matching(t_, j, "<", ">") + 1;
              else j += 2;  // ':: ident'
            }
            if (j < t_.size() && is_p(t_[j], "("))
              j = find_matching(t_, j, "(", ")") + 1;
            else if (j < t_.size() && is_p(t_[j], "{"))
              j = find_matching(t_, j, "{", "}") + 1;
            if (j < t_.size() && is_p(t_[j], ",")) {
              ++j;
              continue;
            }
          }
          break;
        }
        if (j < t_.size() && is_p(t_[j], "{")) is_def = true;
        break;
      } else if (is_p(t_[j], "{")) {
        is_def = true;
        break;
      } else if (is_p(t_[j], ";")) {
        break;
      } else {
        return;  // ',' (declarator list), '=', operators: not a function
      }
    }
    if (j >= t_.size()) return;

    const bool qualified_chain = qualified.find("::") != std::string::npos;
    const bool ctor_dtor = !enclosing_cls.empty() &&
                           (base == enclosing_cls || qualified[0] == '~');
    if (!qualified_chain && !ctor_dtor) {
      // Require a type token before the name: separates declarations and
      // definitions from plain call statements (`sync_parent_dir(dir_);`).
      if (chain_begin == 0) {
        if (!is_def) return;
      } else {
        const Token& before = t_[chain_begin - 1];
        const bool typed =
            (before.kind == TokKind::Identifier &&
             !is_expr_keyword(before.text)) ||
            is_p(before, ">") || is_p(before, "*") || is_p(before, "&");
        if (!typed) return;
      }
    }

    FunctionInfo fn;
    fn.base = base;
    fn.cls = !name_cls.empty()
                 ? name_cls
                 : (!enclosing_cls.empty() ? enclosing_cls : std::string());
    fn.qualified = (!name_cls.empty() || enclosing_cls.empty())
                       ? qualified
                       : enclosing_cls + "::" + qualified;
    fn.path = f_.path;
    fn.line = t_[i].line;
    fn.is_noexcept = marked_noexcept;
    fn.is_definition = is_def;
    // Guard annotations above (or on) the signature line. A window of two
    // lines tolerates a long return type pushing the name token down.
    if (const Directive* d = f_.directive_at("requires_lock", fn.line, 2)) {
      const std::string id = qualify_lock(d->reason, fn.cls);
      if (!id.empty())
        fn.requires_locks.push_back({id, annotation_shared(d->reason)});
    }
    if (const Directive* d = f_.directive_at("returns_lock", fn.line, 2)) {
      const std::string id = qualify_lock(d->reason, fn.cls);
      if (!id.empty())
        fn.returns_locks.push_back({id, annotation_shared(d->reason)});
    }
    if (f_.directive_at("guard-ok", fn.line, 2) != nullptr)
      fn.guard_exempt = true;
    if (f_.directive_at("blocking-ok", fn.line, 2) != nullptr)
      fn.blocking_exempt = true;
    if (is_def) {
      fn.body_begin = j;
      fn.body_end = find_matching(t_, j, "{", "}");
      if (fn.body_end >= t_.size()) return;
      analyze_body(fn, i, close);
    }
    ix_.functions_.push_back(std::move(fn));
  }

  /// Parses `(params)` into an ordered (name, type) list — type is the last
  /// type identifier before the parameter name. Unrecognized parameters keep
  /// their slot as ("", "") so positions line up with call-site arguments.
  std::vector<std::pair<std::string, std::string>> parse_params(
      std::size_t open, std::size_t close) {
    std::vector<std::pair<std::string, std::string>> params;
    std::size_t start = open + 1;
    int depth = 0;
    for (std::size_t j = open + 1; j <= close; ++j) {
      if (is_p(t_[j], "(") || is_p(t_[j], "<") || is_p(t_[j], "[")) ++depth;
      else if (is_p(t_[j], ")") || is_p(t_[j], ">") || is_p(t_[j], "]"))
        --depth;
      if ((j == close && depth < 0) || (depth == 0 && is_p(t_[j], ","))) {
        if (j == start) {
          start = j + 1;
          continue;  // empty list `()`
        }
        // One parameter in [start, j): name = last identifier, type = last
        // identifier before the name (skipping cv/ref tokens).
        std::size_t name_tok = t_.size(), type_tok = t_.size();
        std::size_t eq = j;
        for (std::size_t k = start; k < j; ++k)
          if (is_p(t_[k], "=")) {
            eq = k;
            break;
          }
        for (std::size_t k = start; k < eq; ++k)
          if (t_[k].kind == TokKind::Identifier) {
            type_tok = name_tok;
            name_tok = k;
          }
        if (name_tok < t_.size() && type_tok < t_.size())
          params.emplace_back(t_[name_tok].text, t_[type_tok].text);
        else
          params.emplace_back("", "");
        start = j + 1;
      }
    }
    return params;
  }

  /// Walks backwards from `tok` (an identifier) over a `a.b->c` chain;
  /// fills root/segments (segments exclude both root and the identifier at
  /// `tok`). Returns false for non-chain owners (call results, parens).
  bool walk_chain(std::size_t tok, std::string& root,
                  std::vector<std::string>& segments) {
    std::vector<std::string> rev;
    std::size_t k = tok;
    while (k >= 2 && (is_p(t_[k - 1], ".") || is_p(t_[k - 1], "->"))) {
      if (t_[k - 2].kind != TokKind::Identifier) return false;
      rev.push_back(t_[k - 2].text);
      k -= 2;
    }
    if (rev.empty()) return true;  // bare identifier: no owner chain
    root = rev.back();
    segments.assign(rev.rbegin() + 1, rev.rend());
    return true;
  }

  void analyze_body(FunctionInfo& fn, std::size_t params_open,
                    std::size_t params_close) {
    const std::size_t begin = fn.body_begin, end = fn.body_end;
    const auto params = parse_params(params_open, params_close);
    std::map<std::string, std::string> var_types;
    for (std::size_t p = 0; p < params.size(); ++p) {
      fn.param_names.push_back(params[p].first);
      if (params[p].first.empty()) continue;
      var_types.emplace(params[p].first, params[p].second);
      if (kMutexTypes.count(params[p].second) != 0)
        fn.mutex_params.emplace(params[p].first, p);
    }

    // Local declarations: `Type [cv/ref] name (=|;|(|{)`.
    for (std::size_t j = begin + 1; j + 1 < end; ++j) {
      if (t_[j].kind != TokKind::Identifier || is_expr_keyword(t_[j].text))
        continue;
      const std::string& ty = t_[j].text;
      if (ty == "auto") continue;  // unresolvable, leave unknown
      std::size_t k = j + 1;
      while (k < end && is_cv_ref(t_[k])) ++k;
      if (k < end && t_[k].kind == TokKind::Identifier && k + 1 < end &&
          (is_p(t_[k + 1], "=") || is_p(t_[k + 1], ";") ||
           is_p(t_[k + 1], "(") || is_p(t_[k + 1], "{"))) {
        var_types.emplace(t_[k].text, ty);
      }
    }

    // Smart-pointer locals (`shared_ptr<T> p`, `unique_ptr<T> p`) and
    // factory initializers (`auto p = std::make_shared<T>(...)`): the
    // variable's type is the last identifier inside the template arguments,
    // so chains through the pointer resolve like chains through a T.
    for (std::size_t j = begin + 1; j + 1 < end; ++j) {
      if (t_[j].kind != TokKind::Identifier) continue;
      const std::string& s = t_[j].text;
      const bool smart = s == "shared_ptr" || s == "unique_ptr";
      const bool factory = s == "make_shared" || s == "make_unique";
      if ((!smart && !factory) || !is_p(t_[j + 1], "<")) continue;
      const std::size_t close = find_matching(t_, j + 1, "<", ">");
      if (close >= end) continue;
      std::string ty;
      for (std::size_t k = j + 2; k < close; ++k)
        if (t_[k].kind == TokKind::Identifier) ty = t_[k].text;
      if (ty.empty()) continue;
      if (smart) {
        std::size_t k = close + 1;
        while (k < end && is_cv_ref(t_[k])) ++k;
        if (k + 1 < end && t_[k].kind == TokKind::Identifier &&
            (is_p(t_[k + 1], "=") || is_p(t_[k + 1], ";") ||
             is_p(t_[k + 1], "(") || is_p(t_[k + 1], "{")))
          var_types.emplace(t_[k].text, ty);
      } else {
        std::size_t k = j;
        if (k >= 2 && is_p(t_[k - 1], "::") && is_id(t_[k - 2], "std"))
          k -= 2;
        if (k >= 2 && is_p(t_[k - 1], "=") &&
            t_[k - 2].kind == TokKind::Identifier)
          var_types.emplace(t_[k - 2].text, ty);
      }
    }

    // Lambda body extents: accesses and calls inside them run deferred, so
    // held-lock reasoning must not assume the enclosing function's entry
    // context. A '[' opens a lambda when what precedes it cannot be an
    // indexable expression (identifier, number, ']' or ')').
    for (std::size_t j = begin + 1; j < end; ++j) {
      if (!is_p(t_[j], "[")) continue;
      const Token& prev = t_[j - 1];
      const bool subscript =
          (prev.kind == TokKind::Identifier && !is_expr_keyword(prev.text)) ||
          prev.kind == TokKind::Number || is_p(prev, "]") || is_p(prev, ")");
      if (subscript) continue;
      const std::size_t close = find_matching(t_, j, "[", "]");
      if (close >= end) continue;
      std::size_t k = close + 1;
      if (k < end && is_p(t_[k], "(")) k = find_matching(t_, k, "(", ")") + 1;
      // Specifiers / trailing return type: bounded scan for the body '{'.
      const std::size_t limit = std::min(end, k + 16);
      while (k < limit && !is_p(t_[k], "{") && !is_p(t_[k], ";") &&
             !is_p(t_[k], ")") && !is_p(t_[k], ","))
        ++k;
      if (k < limit && is_p(t_[k], "{"))
        fn.lambdas.emplace_back(k, find_matching(t_, k, "{", "}"));
    }
    auto in_lambda = [&fn](std::size_t tok) {
      for (const auto& [lb, le] : fn.lambdas)
        if (tok > lb && tok < le) return true;
      return false;
    };

    // Scope stack for lock lifetimes.
    std::vector<std::size_t> scope_close;
    auto enclosing_close = [&](void) -> std::size_t {
      return scope_close.empty() ? end : scope_close.back();
    };

    // Local vectors of RAII lock handles (per-shard lock vectors filled with
    // emplace_back): name -> (shared mode, scope-end token).
    std::map<std::string, std::pair<bool, std::size_t>> lock_containers;

    for (std::size_t j = begin + 1; j < end; ++j) {
      const Token& tok = t_[j];
      if (is_p(tok, "{")) {
        scope_close.push_back(find_matching(t_, j, "{", "}"));
        continue;
      }
      while (!scope_close.empty() && j >= scope_close.back())
        scope_close.pop_back();
      if (tok.kind != TokKind::Identifier) continue;
      const std::string& s = tok.text;

      // Lock-vector declaration: `std::vector<std::unique_lock<M>> v;` (or
      // shared_lock). Locks emplaced into it live until v's scope closes.
      if (s == "vector" && j + 1 < end && is_p(t_[j + 1], "<")) {
        const std::size_t close = find_matching(t_, j + 1, "<", ">");
        bool vec_shared = false, is_lockvec = false;
        for (std::size_t m = j + 2; m < close && m < end; ++m) {
          if (is_id(t_[m], "shared_lock")) {
            is_lockvec = true;
            vec_shared = true;
          }
          if (is_id(t_[m], "unique_lock")) is_lockvec = true;
        }
        if (is_lockvec && close + 1 < end &&
            t_[close + 1].kind == TokKind::Identifier) {
          lock_containers[t_[close + 1].text] = {vec_shared,
                                                 enclosing_close()};
          j = close + 1;
          continue;
        }
      }

      // Lock wrapper: lock_guard/unique_lock/shared_lock/scoped_lock.
      if (kLockWrappers.count(s) != 0) {
        std::size_t k = j + 1;
        if (k < end && is_p(t_[k], "<")) k = find_matching(t_, k, "<", ">") + 1;
        if (k < end && t_[k].kind == TokKind::Identifier) ++k;  // var name
        if (k < end && is_p(t_[k], "(")) {
          const std::size_t args_close = find_matching(t_, k, "(", ")");
          // scoped_lock with several mutexes acquires atomically
          // (deadlock-free): skip. Detect a top-level ','.
          int depth = 0;
          bool multi = false;
          std::size_t arg_end = args_close;
          for (std::size_t m = k + 1; m < args_close; ++m) {
            if (is_p(t_[m], "(")) ++depth;
            else if (is_p(t_[m], ")")) --depth;
            else if (depth == 0 && is_p(t_[m], ",")) {
              multi = true;
              arg_end = m;
              break;
            }
          }
          if (!(multi && s == "scoped_lock")) {
            record_lock(fn, var_types, k + 1, arg_end, tok.line, j,
                        enclosing_close(), s == "shared_lock");
          }
          j = args_close;
          continue;
        }
      }

      // Manual `m.lock()` / `m.lock_shared()`.
      if ((s == "lock" || s == "lock_shared") && j >= 2 &&
          (is_p(t_[j - 1], ".") || is_p(t_[j - 1], "->")) &&
          j + 2 < end && is_p(t_[j + 1], "(") && is_p(t_[j + 2], ")")) {
        // Owner chain ends at j-2; reuse record_lock over [chain_begin, j-1).
        std::size_t cb = j - 2;
        while (cb >= 2 && (is_p(t_[cb - 1], ".") || is_p(t_[cb - 1], "->")) &&
               t_[cb - 2].kind == TokKind::Identifier)
          cb -= 2;
        record_lock(fn, var_types, cb, j - 1, tok.line, j, enclosing_close(),
                    s == "lock_shared");
        j += 2;
        continue;
      }

      // Durability markers and file-creation sites.
      const bool called = j + 1 < end && is_p(t_[j + 1], "(");
      if (called &&
          (s == "fsync" || s == "fdatasync" || s == "sync_parent_dir"))
        fn.contains_sync = true;
      if (called && s == "open") {
        const std::size_t close = find_matching(t_, j + 1, "(", ")");
        for (std::size_t m = j + 2; m < close; ++m)
          if (is_id(t_[m], "O_CREAT")) {
            fn.creates.push_back({"open(O_CREAT)", tok.line});
            break;
          }
      }
      if (called && s == "rename")
        fn.creates.push_back({"rename", tok.line});
      if (called && s == "create_directories")
        fn.creates.push_back({"create_directories", tok.line});

      // try blocks and catch-all handlers.
      if (s == "try" && j + 1 < end && is_p(t_[j + 1], "{")) {
        TryRange tr;
        tr.begin = j + 1;
        tr.end = find_matching(t_, j + 1, "{", "}");
        std::size_t k = tr.end + 1;
        while (k + 1 < end && is_id(t_[k], "catch") && is_p(t_[k + 1], "(")) {
          const std::size_t cc = find_matching(t_, k + 1, "(", ")");
          if (cc == k + 3 && is_p(t_[k + 2], "...")) tr.catch_all = true;
          if (cc + 1 < end && is_p(t_[cc + 1], "{"))
            k = find_matching(t_, cc + 1, "{", "}") + 1;
          else
            break;
        }
        if (tr.catch_all) fn.has_catch_all = true;
        fn.tries.push_back(tr);
        // Do NOT skip the block: calls/locks inside it still matter.
        continue;
      }

      // Generic call sites.
      if (called && !is_expr_keyword(s) && kLockWrappers.count(s) == 0) {
        CallSite c;
        c.name = s;
        c.line = tok.line;
        c.token = j;
        c.scope_end = enclosing_close();
        c.in_lambda = in_lambda(j);
        c.member_call = j >= 1 && (is_p(t_[j - 1], ".") || is_p(t_[j - 1], "->"));
        for (std::size_t k = j; k >= 2 && is_p(t_[k - 1], "::") &&
                                t_[k - 2].kind == TokKind::Identifier &&
                                !is_expr_keyword(t_[k - 2].text);
             k -= 2)
          c.qualifier = c.qualifier.empty()
                            ? t_[k - 2].text
                            : t_[k - 2].text + "::" + c.qualifier;
        if (c.qualifier.empty() && j >= 1 && is_p(t_[j - 1], "::") &&
            (j < 2 || is_expr_keyword(t_[j - 2].text) ||
             (t_[j - 2].kind != TokKind::Identifier && !is_p(t_[j - 2], ">"))))
          c.qualifier = "::";
        if (c.member_call) {
          std::string root;
          std::vector<std::string> segs;
          if (walk_chain(j, root, segs) && !root.empty()) {
            c.owner_root = root;
            c.owner_segments = std::move(segs);
            if (root == "this") {
              c.owner_root = "";
              c.owner_root_type = fn.cls.empty() ? "!" : fn.cls;
            } else if (auto it = var_types.find(root); it != var_types.end()) {
              c.owner_root_type = it->second;
            }
          }
        }
        // Argument lock identities, position-aligned: if the callee locks a
        // mutex parameter ($N), finalize() substitutes arg_lock_ids[N].
        const std::size_t args_close = find_matching(t_, j + 1, "(", ")");
        if (args_close < end && args_close > j + 2) {
          std::size_t arg_begin = j + 2;
          int adepth = 0;
          for (std::size_t m = j + 2; m <= args_close; ++m) {
            if (is_p(t_[m], "(") || is_p(t_[m], "[") || is_p(t_[m], "{"))
              ++adepth;
            else if (is_p(t_[m], ")") || is_p(t_[m], "]") || is_p(t_[m], "}"))
              --adepth;
            if ((m == args_close && adepth < 0) ||
                (adepth == 0 && is_p(t_[m], ","))) {
              c.arg_lock_ids.push_back(
                  lock_expr_id(fn, var_types, arg_begin, m));
              arg_begin = m + 1;
            }
          }
        }
        // Emplacing a mutex into a local lock vector is a lock acquisition
        // whose lifetime is the vector's scope, not the statement's.
        if ((s == "emplace_back" || s == "push_back") && c.member_call &&
            !c.owner_root.empty()) {
          if (const auto it = lock_containers.find(c.owner_root);
              it != lock_containers.end() && args_close < end) {
            record_lock(fn, var_types, j + 2, args_close, tok.line, j,
                        it->second.second, it->second.first);
          }
        }
        fn.calls.push_back(std::move(c));
        continue;
      }

      // Member-access chains (R10/R11): processed once, at the chain's
      // first identifier. Later links are reached by the forward walk; a
      // link preceded by '.', '->', '::' or '~' is never a chain root.
      if (!called && !is_expr_keyword(s)) {
        const Token& prev = t_[j - 1];
        const bool chained = is_p(prev, ".") || is_p(prev, "->") ||
                             is_p(prev, "::") || is_p(prev, "~");
        const bool qualifier = j + 1 < end && is_p(t_[j + 1], "::");
        if (!chained && !qualifier)
          record_access(fn, var_types, j, end, in_lambda(j));
      }
    }
  }

  /// Parses the `a.b->c[i].d` chain starting at identifier `root_tok` and
  /// records it as a MemberAccess. Resolution against the project member
  /// tables happens in finalize(); chains rooted in an untyped local are
  /// dropped there (under-approximate).
  void record_access(FunctionInfo& fn,
                     const std::map<std::string, std::string>& var_types,
                     std::size_t root_tok, std::size_t end, bool lambda) {
    std::vector<std::string> segs;
    bool this_rooted = false;
    std::size_t k = root_tok + 1;
    if (t_[root_tok].text == "this") {
      if (!(k + 1 < end && is_p(t_[k], "->") &&
            t_[k + 1].kind == TokKind::Identifier))
        return;
      this_rooted = true;
      segs.push_back(t_[k + 1].text);
      k += 2;
    } else {
      segs.push_back(t_[root_tok].text);
    }
    bool method_call = false, mutator_call = false;
    while (true) {
      while (k < end && is_p(t_[k], "["))
        k = find_matching(t_, k, "[", "]") + 1;
      if (k + 1 < end && (is_p(t_[k], ".") || is_p(t_[k], "->")) &&
          t_[k + 1].kind == TokKind::Identifier) {
        if (k + 2 < end && is_p(t_[k + 2], "(")) {
          method_call = true;
          mutator_call = kMutatingMethods.count(t_[k + 1].text) != 0;
          break;
        }
        segs.push_back(t_[k + 1].text);
        k += 2;
        continue;
      }
      break;
    }
    bool write = false;
    if (method_call) {
      write = mutator_call;
    } else if (k < end) {
      const Token& nx = t_[k];
      write = is_p(nx, "=") || is_p(nx, "+=") || is_p(nx, "-=") ||
              is_p(nx, "*=") || is_p(nx, "/=") || is_p(nx, "%=") ||
              is_p(nx, "&=") || is_p(nx, "|=") || is_p(nx, "^=") ||
              is_p(nx, "<<=") || is_p(nx, "++") || is_p(nx, "--");
    }
    if (!write && root_tok >= 1 &&
        (is_p(t_[root_tok - 1], "++") || is_p(t_[root_tok - 1], "--")))
      write = true;

    MemberAccess a;
    a.root = segs.front();
    a.segments.assign(segs.begin() + 1, segs.end());
    if (!this_rooted) {
      if (const auto it = var_types.find(a.root); it != var_types.end()) {
        if (a.segments.empty()) return;  // a bare local: not a member access
        a.root_is_var = true;
        a.root_type = it->second;
      }
    }
    a.is_write = write;
    a.in_lambda = lambda;
    a.line = t_[root_tok].line;
    a.token = root_tok;
    fn.accesses.push_back(std::move(a));
  }

  /// Normalizes the mutex expression spanning [expr_begin, expr_end) to a
  /// lock identity: "$N" for a bare mutex-typed parameter (position N),
  /// "Class::member" otherwise. Returns "" for unrecognizable expressions.
  std::string lock_expr_id(const FunctionInfo& fn,
                           const std::map<std::string, std::string>& var_types,
                           std::size_t expr_begin, std::size_t expr_end) {
    // Strip leading dereference/address-of tokens.
    std::size_t b = expr_begin;
    while (b < expr_end && (is_p(t_[b], "*") || is_p(t_[b], "&"))) ++b;
    std::vector<std::string> segments;
    for (std::size_t k = b; k < expr_end; ++k) {
      if (t_[k].kind == TokKind::Identifier) {
        if (t_[k].text == "this") continue;
        segments.push_back(t_[k].text);
      } else if (!is_p(t_[k], ".") && !is_p(t_[k], "->") &&
                 !is_p(t_[k], "(") && !is_p(t_[k], ")") && !is_p(t_[k], "*")) {
        return "";  // complex expression: not a recognizable mutex chain
      }
    }
    if (segments.empty()) return "";
    const std::string& member = segments.back();
    std::string owner_cls;
    if (segments.size() == 1) {
      // A mutex received by reference is not this function's lock: its
      // identity belongs to whoever passed it. Emit a positional
      // placeholder for finalize() to substitute per call site.
      if (const auto it = fn.mutex_params.find(member);
          it != fn.mutex_params.end())
        return "$" + std::to_string(it->second);
      // Bare member (or a local mutex). If the enclosing class is known,
      // qualify with it; a local mutex in a member function is rare enough
      // that the over-approximation is acceptable.
      owner_cls = fn.cls;
    } else {
      const std::string& root = segments.front();
      if (auto it = var_types.find(root); it != var_types.end())
        owner_cls = it->second;
    }
    return (owner_cls.empty() ? stem_ : owner_cls) + "::" + member;
  }

  /// Records one lock acquisition whose mutex expression spans tokens
  /// [expr_begin, expr_end). Simple expressions (a bare member, or a
  /// one-step chain through a typed local) resolve immediately via
  /// lock_expr_id; longer or subscripted chains are stored with their
  /// segment list and resolved through the project member tables in
  /// finalize() — unresolvable ones are dropped there.
  void record_lock(FunctionInfo& fn,
                   const std::map<std::string, std::string>& var_types,
                   std::size_t expr_begin, std::size_t expr_end, int line,
                   std::size_t site_tok, std::size_t scope_end, bool shared) {
    std::size_t b = expr_begin;
    while (b < expr_end && (is_p(t_[b], "*") || is_p(t_[b], "&"))) ++b;
    std::vector<std::string> segments;
    bool subscript = false, ok = true;
    for (std::size_t k = b; k < expr_end && ok; ++k) {
      if (t_[k].kind == TokKind::Identifier) {
        if (t_[k].text == "this" && segments.empty()) continue;
        segments.push_back(t_[k].text);
      } else if (is_p(t_[k], "[")) {
        subscript = true;
        k = find_matching(t_, k, "[", "]");
        if (k >= expr_end) ok = false;
      } else if (!is_p(t_[k], ".") && !is_p(t_[k], "->") &&
                 !is_p(t_[k], "(") && !is_p(t_[k], ")") &&
                 !is_p(t_[k], "*")) {
        ok = false;
      }
    }
    if (!ok || segments.empty()) return;
    LockSite ls;
    ls.shared = shared;
    ls.line = line;
    ls.token = site_tok;
    ls.scope_end = scope_end;
    const bool simple =
        segments.size() == 1 ||
        (segments.size() == 2 && !subscript &&
         var_types.count(segments.front()) != 0);
    if (simple) {
      ls.lock_id = lock_expr_id(fn, var_types, expr_begin, expr_end);
      if (ls.lock_id.empty()) return;
    } else {
      ls.root = segments.front();
      if (const auto it = var_types.find(ls.root); it != var_types.end())
        ls.root_type = it->second;
      ls.member = segments.back();
      ls.segments.assign(segments.begin() + 1, segments.end() - 1);
    }
    fn.locks.push_back(std::move(ls));
  }

  ProjectIndex& ix_;
  const ScannedFile& f_;
  const Tokens& t_;
  std::string stem_;
};

void ProjectIndex::add_file(const ScannedFile& file) {
  files_[file.path] = &file;
  IndexBuilder(*this, file).run();
}

const ScannedFile& ProjectIndex::file(const std::string& path) const {
  return *files_.at(path);
}

std::vector<const FunctionInfo*> ProjectIndex::functions_in(
    const std::string& path) const {
  std::vector<const FunctionInfo*> out;
  const auto it = by_path_.find(path);
  if (it == by_path_.end()) return out;
  for (std::size_t i : it->second) out.push_back(&functions_[i]);
  return out;
}

std::vector<const FunctionInfo*> ProjectIndex::functions_named(
    const std::string& base) const {
  std::vector<const FunctionInfo*> out;
  const auto it = by_base_.find(base);
  if (it == by_base_.end()) return out;
  for (std::size_t i : it->second) out.push_back(&functions_[i]);
  return out;
}

bool ProjectIndex::is_noexcept(const std::string& qualified) const {
  for (const FunctionInfo& fn : functions_)
    if (fn.qualified == qualified && fn.is_noexcept) return true;
  return false;
}

bool ProjectIndex::has_catch_all(const std::string& qualified) const {
  for (const FunctionInfo& fn : functions_)
    if (fn.qualified == qualified && fn.has_catch_all) return true;
  return false;
}

bool ProjectIndex::reaches_sync(const std::string& base) const {
  return sync_reaching_.count(base) != 0;
}

std::set<std::string> ProjectIndex::locks_of(const std::string& base) const {
  const auto it = lock_closure_.find(base);
  return it == lock_closure_.end() ? std::set<std::string>() : it->second;
}

void ProjectIndex::finalize() {
  // Resolve member types against the complete class list.
  member_types_.clear();
  for (const auto& [cls, members] : member_type_ids_) {
    for (const auto& [name, ids] : members) {
      std::string resolved = "!";
      for (const std::string& id : ids)
        if (classes_.count(id) != 0) resolved = id;
      member_types_[cls][name] = resolved;
    }
  }

  auto member_type_of = [this](const std::string& cls,
                               const std::string& member) -> std::string {
    const auto ci = member_types_.find(cls);
    if (ci == member_types_.end()) return "";
    const auto mi = ci->second.find(member);
    return mi == ci->second.end() ? std::string() : mi->second;
  };
  auto has_member = [this](const std::string& cls, const std::string& member) {
    const auto ci = member_type_ids_.find(cls);
    return ci != member_type_ids_.end() && ci->second.count(member) != 0;
  };

  // Resolve deferred lock-site chains through the member tables
  // (`c.shards_[k]->mu` becomes Shard::mu once Collection::shards_'s element
  // type is known project-wide). Sites that do not resolve to a member of a
  // project class are dropped — they were invisible before chain support
  // existed, so dropping is the conservative status quo.
  for (FunctionInfo& fn : functions_) {
    auto& ls = fn.locks;
    ls.erase(std::remove_if(
                 ls.begin(), ls.end(),
                 [&](LockSite& l) {
                   if (l.member.empty()) return false;  // resolved in pass 1
                   std::string type = l.root_type;
                   if (type.empty()) {
                     if (l.root.empty()) {
                       type = fn.cls;
                     } else if (has_member(fn.cls, l.root)) {
                       type = member_type_of(fn.cls, l.root);
                     } else {
                       return true;
                     }
                   }
                   for (const std::string& seg : l.segments) {
                     if (!has_member(type, seg)) return true;
                     type = member_type_of(type, seg);
                   }
                   if (type.empty() || type == "!" ||
                       !has_member(type, l.member))
                     return true;
                   l.lock_id = type + "::" + l.member;
                   return false;
                 }),
             ls.end());
  }

  // Merge guard contracts declared on any declaration of a function into
  // every record of it: annotating the header declaration is enough.
  {
    std::map<std::string, std::vector<LockContract>> req, ret;
    std::set<std::string> exempt_names, blocking_names;
    for (const FunctionInfo& fn : functions_) {
      for (const LockContract& c : fn.requires_locks)
        req[fn.qualified].push_back(c);
      for (const LockContract& c : fn.returns_locks)
        ret[fn.qualified].push_back(c);
      if (fn.guard_exempt) exempt_names.insert(fn.qualified);
      if (fn.blocking_exempt) blocking_names.insert(fn.qualified);
    }
    for (FunctionInfo& fn : functions_) {
      if (const auto it = req.find(fn.qualified); it != req.end())
        fn.requires_locks = it->second;
      if (const auto it = ret.find(fn.qualified); it != ret.end())
        fn.returns_locks = it->second;
      if (exempt_names.count(fn.qualified) != 0) fn.guard_exempt = true;
      if (blocking_names.count(fn.qualified) != 0) fn.blocking_exempt = true;
    }
  }

  by_base_.clear();
  by_path_.clear();
  for (std::size_t i = 0; i < functions_.size(); ++i) {
    by_base_[functions_[i].base].push_back(i);
    by_path_[functions_[i].path].push_back(i);
  }

  // Candidate definitions for a call site. Member calls with a fully
  // resolved owner chain bind to that class only (so `shards_.find(...)` on
  // a std::map member resolves to nothing, not to Collection::find); calls
  // with unresolvable owners fall back to every same-named definition.
  auto candidates = [this](const FunctionInfo& fn, const CallSite& c,
                           bool* weak_out =
                               nullptr) -> std::vector<std::size_t> {
    std::vector<std::size_t> out;
    if (weak_out != nullptr) *weak_out = false;
    const auto it = by_base_.find(c.name);
    if (it == by_base_.end()) return out;
    // `std::find(...)` is the standard library's, never a project function.
    if (c.qualifier == "std" || c.qualifier.rfind("std::", 0) == 0) return out;
    std::string type;
    bool resolved = false;
    if (c.member_call) {
      type = c.owner_root_type;
      if (type.empty() && !c.owner_root.empty()) {
        // Maybe a data member of the enclosing class.
        const auto ci = member_types_.find(fn.cls);
        if (ci != member_types_.end()) {
          const auto mi = ci->second.find(c.owner_root);
          if (mi != ci->second.end()) type = mi->second;
        }
      }
      if (!type.empty()) {
        resolved = true;
        for (const std::string& seg : c.owner_segments) {
          if (type == "!" || classes_.count(type) == 0) {
            type = "!";
            break;
          }
          const auto ci = member_types_.find(type);
          std::string next = "!";
          if (ci != member_types_.end()) {
            const auto mi = ci->second.find(seg);
            if (mi != ci->second.end()) next = mi->second;
          }
          type = next;
        }
        // A type name we know but that is not a project class (std::string,
        // std::map, ...) binds to nothing — falling back to every same-named
        // definition here would invent call edges like `text.find(...)` ->
        // Collection::find and, from them, false lock-order cycles.
        if (classes_.count(type) == 0) type = "!";
      }
    }
    if (weak_out != nullptr) *weak_out = c.member_call && !resolved;
    for (std::size_t i : it->second) {
      if (!functions_[i].is_definition) continue;
      // `::name(...)` binds to free functions only.
      if (c.qualifier == "::" && !functions_[i].cls.empty()) continue;
      if (c.member_call && resolved) {
        if (type == "!" || functions_[i].cls != type) continue;
      }
      out.push_back(i);
    }
    return out;
  };

  // The resolved call multigraph — one edge per (call site, candidate
  // definition). Every interprocedural fixpoint below, and the R12/R13
  // dataflow rules that run after finalize(), walk this one graph.
  graph_ = dataflow::CallGraph(functions_.size());
  for (std::size_t i = 0; i < functions_.size(); ++i) {
    if (!functions_[i].is_definition) continue;
    for (std::size_t ci = 0; ci < functions_[i].calls.size(); ++ci) {
      bool weak = false;
      for (std::size_t k :
           candidates(functions_[i], functions_[i].calls[ci], &weak))
        graph_.add_edge(i, k, ci, weak);
    }
  }

  // Sync-reachability (R8): a boolean closure over the call graph.
  std::vector<char> sync_seed(functions_.size(), 0);
  for (std::size_t i = 0; i < functions_.size(); ++i)
    sync_seed[i] = functions_[i].contains_sync ? 1 : 0;
  const std::vector<char> reach = dataflow::reach_closure(graph_, sync_seed);
  sync_reaching_.clear();
  for (std::size_t i = 0; i < functions_.size(); ++i)
    if (reach[i]) sync_reaching_.insert(functions_[i].base);

  // Placeholder lock ids ("$N" = the callee's N-th parameter) resolve to
  // the caller's argument identity at each call site; a site that does not
  // expose the argument falls back to a stable per-callee name so distinct
  // helpers never conflate.
  const auto is_placeholder = [](const std::string& id) {
    return !id.empty() && id[0] == '$';
  };
  const auto subst = [&](const FunctionInfo& callee, const CallSite& c,
                         const std::string& id) -> std::string {
    if (!is_placeholder(id)) return id;
    const std::size_t n =
        static_cast<std::size_t>(std::stoul(id.substr(1)));
    if (n < c.arg_lock_ids.size() && !c.arg_lock_ids[n].empty())
      return c.arg_lock_ids[n];  // may itself be the caller's placeholder
    return callee.base + "::#param" + std::to_string(n);
  };
  // The externally visible name of a lock id still parametric in function
  // `fn` (no caller resolved it).
  const auto fallback = [&](const FunctionInfo& fn, const std::string& id) {
    return is_placeholder(id) ? fn.base + "::#param" + id.substr(1) : id;
  };

  // Transitive lock sets per function (then folded per base name, matching
  // the over-approximate call resolution): a set closure whose per-edge
  // substitution resolves positional placeholders. Placeholders are
  // function-local: they are substituted whenever a set crosses a call
  // edge, so `$0` of one helper never aliases `$0` of another.
  std::vector<std::set<std::string>> locks(functions_.size());
  for (std::size_t i = 0; i < functions_.size(); ++i)
    for (const LockSite& l : functions_[i].locks) locks[i].insert(l.lock_id);
  locks = dataflow::set_closure(
      graph_, std::move(locks),
      [&](const dataflow::Edge& e, const std::string& id) {
        // A name-only fallback binding to a std-colliding method name is
        // far more likely `v.insert(...)` on a container than a call into
        // the project method; letting its lock set cross the edge invents
        // acquires-while-holding witnesses out of thin air.
        if (dataflow::untrusted_edge(e, functions_)) return std::string();
        return subst(functions_[e.to], functions_[e.from].calls[e.site], id);
      });
  lock_closure_.clear();
  for (std::size_t i = 0; i < functions_.size(); ++i)
    for (const std::string& id : locks[i])
      lock_closure_[functions_[i].base].insert(fallback(functions_[i], id));

  // Acquires-while-holding edges: lock L held (within its scope) when lock
  // M is taken directly, or when a call is made whose (transitive) lock set
  // contains M. Edges with a placeholder on either side are parametric —
  // held back as per-function summaries and instantiated at call sites
  // below, where the arguments give the locks their real identities.
  lock_edges_.clear();
  struct ParamEdge {
    std::string a, b;   // at least one side is a "$N" placeholder
    std::string via;    // qualified name of the function that takes them
    bool suppressed = false;
  };
  std::vector<std::vector<ParamEdge>> pedges(functions_.size());
  const auto add_edge = [&](const FunctionInfo& owner, std::size_t owner_ix,
                            const std::string& a, const std::string& b,
                            int line, const std::string& detail,
                            bool sup) {
    if (a == b) return;
    if (is_placeholder(a) || is_placeholder(b)) {
      for (const ParamEdge& pe : pedges[owner_ix])
        if (pe.a == a && pe.b == b) return;
      pedges[owner_ix].push_back({a, b, owner.qualified, sup});
      return;
    }
    LockEdgeWitness w;
    w.path = owner.path;
    w.line = line;
    w.function = owner.qualified;
    w.detail = detail;
    w.suppressed = sup;
    lock_edges_[{a, b}].push_back(std::move(w));
  };
  for (std::size_t i = 0; i < functions_.size(); ++i) {
    const FunctionInfo& fn = functions_[i];
    if (!fn.is_definition) continue;
    const ScannedFile& src = file(fn.path);
    for (const LockSite& l : fn.locks) {
      const bool l_ok = src.directive_at("lock-order-ok", l.line) != nullptr;
      for (const LockSite& m : fn.locks) {
        if (m.token <= l.token || m.token >= l.scope_end) continue;
        if (m.lock_id == l.lock_id) continue;
        add_edge(fn, i, l.lock_id, m.lock_id, m.line,
                 "'" + l.lock_id + "' held when '" + m.lock_id +
                     "' is acquired",
                 l_ok || src.directive_at("lock-order-ok", m.line) != nullptr);
      }
      for (std::size_t ci = 0; ci < fn.calls.size(); ++ci) {
        const CallSite& c = fn.calls[ci];
        if (c.token <= l.token || c.token >= l.scope_end) continue;
        std::set<std::string> acquired;
        for (const dataflow::Edge& e : graph_.out_edges(i)) {
          if (e.site != ci || dataflow::untrusted_edge(e, functions_))
            continue;
          for (const std::string& id : locks[e.to])
            acquired.insert(subst(functions_[e.to], c, id));
        }
        for (const std::string& id : acquired) {
          if (id == l.lock_id) continue;
          add_edge(fn, i, l.lock_id, id, c.line,
                   "'" + l.lock_id + "' held across call to '" + c.name +
                       "' which (transitively) acquires '" + id + "'",
                   l_ok ||
                       src.directive_at("lock-order-ok", c.line) != nullptr);
        }
      }
    }
  }

  // Instantiate parametric summaries at their call sites. A substitution
  // that lands on the caller's own mutex parameter stays parametric and
  // propagates another level; fully concrete edges are emitted with the
  // call site as witness. Unresolvable placeholders keep the per-callee
  // fallback name, so an order violation inside one helper still surfaces.
  // The worklist driver revisits a caller whenever a callee's summary set
  // grows (witness emission is idempotent, so re-running a node is safe).
  dataflow::solve(
      functions_.size(),
      [&](std::size_t i) {
        const FunctionInfo& fn = functions_[i];
        if (!fn.is_definition) return false;
        bool changed = false;
        for (const dataflow::Edge& edge : graph_.out_edges(i)) {
          const CallSite& c = fn.calls[edge.site];
          const std::size_t k = edge.to;
          for (std::size_t e = 0; e < pedges[k].size(); ++e) {
            const ParamEdge pe = pedges[k][e];
            const std::string a = subst(functions_[k], c, pe.a);
            const std::string b = subst(functions_[k], c, pe.b);
            if (a == b) continue;
            const bool sup =
                pe.suppressed ||
                file(fn.path).directive_at("lock-order-ok", c.line) != nullptr;
            if (is_placeholder(a) || is_placeholder(b)) {
              bool seen = false;
              for (const ParamEdge& own : pedges[i])
                if (own.a == a && own.b == b) seen = true;
              if (!seen) {
                pedges[i].push_back({a, b, pe.via, sup});
                changed = true;
              }
              continue;
            }
            LockEdgeWitness w;
            w.path = fn.path;
            w.line = c.line;
            w.function = fn.qualified;
            w.detail = "'" + a + "' then '" + b + "' through call to '" +
                       pe.via + "' (mutexes passed by reference)";
            w.suppressed = sup;
            auto& ws = lock_edges_[{a, b}];
            bool dup = false;
            for (const LockEdgeWitness& prev : ws)
              if (prev.function == w.function && prev.line == w.line)
                dup = true;
            if (!dup) ws.push_back(std::move(w));
          }
        }
        return changed;
      },
      dataflow::callers(graph_));

  // ---- Guard analysis (R10/R11) -------------------------------------------
  guard_findings_.clear();

  // Project mutex identities and whether each supports shared mode.
  std::map<std::string, bool> mutex_shared;
  for (const MutexMember& m : mutex_members_) {
    auto [it, ins] = mutex_shared.emplace(m.cls + "::" + m.name, m.shared);
    if (!ins) it->second = it->second || m.shared;
  }

  // Effective lock sites per function: body sites plus RAII handles
  // obtained from returns-lock callees (those live until the call's
  // enclosing scope closes). Persisted: the R13 held-set queries reuse it.
  eff_locks_.assign(functions_.size(), {});
  for (std::size_t i = 0; i < functions_.size(); ++i) {
    eff_locks_[i] = functions_[i].locks;
    if (!functions_[i].is_definition) continue;
    for (const CallSite& c : functions_[i].calls) {
      std::set<std::pair<std::string, bool>> got;
      for (std::size_t k : candidates(functions_[i], c))
        for (const LockContract& r : functions_[k].returns_locks)
          got.emplace(r.lock_id, r.shared);
      for (const auto& [id, sh] : got) {
        LockSite ls;
        ls.lock_id = id;
        ls.shared = sh;
        ls.line = c.line;
        ls.token = c.token;
        ls.scope_end = c.scope_end;
        eff_locks_[i].push_back(std::move(ls));
      }
    }
  }

  // Held sets: lock id -> held in exclusive mode. `top` marks "everything"
  // (the greatest-fixpoint seed for functions whose entry context is still
  // unconstrained).
  using Held = HeldSet;
  const auto add_held = [](Held& h, const std::string& id, bool excl) {
    auto [it, ins] = h.ids.emplace(id, excl);
    if (!ins) it->second = it->second || excl;
  };
  const auto local_held = [&](std::size_t i, std::size_t tok) {
    Held h;
    for (const LockSite& l : eff_locks_[i])
      if (l.token < tok && tok < l.scope_end) add_held(h, l.lock_id, !l.shared);
    return h;
  };
  const auto meet_into = [](Held& dst, const Held& src) {
    if (src.top) return;
    if (dst.top) {
      dst = src;
      return;
    }
    for (auto it = dst.ids.begin(); it != dst.ids.end();) {
      const auto s = src.ids.find(it->first);
      if (s == src.ids.end()) {
        it = dst.ids.erase(it);
      } else {
        it->second = it->second && s->second;
        ++it;
      }
    }
  };

  // Visible call sites per callee, straight off the resolved graph.
  std::vector<std::vector<std::pair<std::size_t, const CallSite*>>> incoming(
      functions_.size());
  for (std::size_t k = 0; k < functions_.size(); ++k)
    for (const dataflow::Edge& e : graph_.in_edges(k))
      incoming[k].push_back({e.from, &functions_[e.from].calls[e.site]});

  // Exempt functions: constructors/destructors, explicit guard-ok bodies,
  // and functions whose every visible call site sits inside an exempt
  // function (single-threaded setup helpers). A call from a lambda body
  // never propagates exemption — the lambda may run on a thread later.
  exempt_.assign(functions_.size(), 0);
  for (std::size_t i = 0; i < functions_.size(); ++i) {
    const FunctionInfo& fn = functions_[i];
    if (fn.guard_exempt || (!fn.cls.empty() && fn.base == fn.cls))
      exempt_[i] = 1;
  }
  // Least fixpoint: exemption only ever turns on, and when it does the
  // node's non-lambda callees must be revisited.
  const dataflow::Dependents non_lambda_callees =
      dataflow::callees(graph_, [this](const dataflow::Edge& e) {
        return !functions_[e.from].calls[e.site].in_lambda;
      });
  dataflow::solve(
      functions_.size(),
      [&](std::size_t i) {
        if (exempt_[i] || incoming[i].empty()) return false;
        for (const auto& [caller, site] : incoming[i])
          if (site->in_lambda || !exempt_[caller]) return false;
        exempt_[i] = 1;
        return true;
      },
      non_lambda_callees);

  // Held-at-entry: the locks provably held at EVERY visible non-lambda call
  // site from a non-exempt caller; greatest fixpoint over the call graph so
  // contexts propagate through call chains. Functions with no such site
  // assume nothing at entry.
  const auto requires_of = [&](std::size_t i) {
    Held h;
    for (const LockContract& r : functions_[i].requires_locks)
      add_held(h, r.lock_id, !r.shared);
    return h;
  };
  std::vector<std::vector<std::pair<std::size_t, const CallSite*>>> counted(
      functions_.size());
  for (std::size_t i = 0; i < functions_.size(); ++i) {
    if (!functions_[i].is_definition || exempt_[i]) continue;
    for (const dataflow::Edge& e : graph_.out_edges(i)) {
      const CallSite& c = functions_[i].calls[e.site];
      if (c.in_lambda) continue;
      counted[e.to].push_back({i, &c});
    }
  }
  entry_.assign(functions_.size(), Held{});
  for (std::size_t i = 0; i < functions_.size(); ++i)
    entry_[i].top = !counted[i].empty();
  const auto full_held = [&](std::size_t i, std::size_t tok) {
    Held h = local_held(i, tok);
    if (entry_[i].top) {
      h.top = true;
      return h;
    }
    for (const auto& [id, ex] : entry_[i].ids) add_held(h, id, ex);
    const Held req = requires_of(i);
    for (const auto& [id, ex] : req.ids) add_held(h, id, ex);
    return h;
  };
  // Greatest fixpoint: entry contexts only ever shrink under the meet, so
  // the chaotic worklist converges from the `top` seed in any order. When a
  // function's entry context changes, its (non-deferred) callees must be
  // revisited — their meets read it through full_held.
  dataflow::solve(
      functions_.size(),
      [&](std::size_t k) {
        if (counted[k].empty()) return false;
        Held nh;
        nh.top = true;
        for (const auto& [i, c] : counted[k])
          meet_into(nh, full_held(i, c->token));
        if (nh.top != entry_[k].top || nh.ids != entry_[k].ids) {
          entry_[k] = std::move(nh);
          return true;
        }
        return false;
      },
      non_lambda_callees);

  const auto guard_of = [&](const std::string& cls,
                            const std::string& member) -> const std::string* {
    const auto ci = guarded_by_.find(cls);
    if (ci == guarded_by_.end()) return nullptr;
    const auto mi = ci->second.find(member);
    return mi == ci->second.end() ? nullptr : &mi->second;
  };
  const auto excluded_member = [&](const std::string& cls,
                                   const std::string& member) {
    const auto ci = member_type_ids_.find(cls);
    if (ci == member_type_ids_.end()) return true;
    const auto mi = ci->second.find(member);
    if (mi == ci->second.end()) return true;
    for (const std::string& id : mi->second)
      if (guard_exempt_type_id(id)) return true;
    return false;
  };
  std::set<std::tuple<std::string, int, std::string, std::string>> emitted;
  const auto emit = [&](const std::string& path, int line, const char* rule,
                        std::string msg) {
    if (emitted.emplace(path, line, rule, msg).second)
      guard_findings_.push_back({path, line, rule, std::move(msg)});
  };

  // Per-access checks (annotated members) and evidence collection for
  // inference (unannotated ones). Accesses inside lambda bodies only trust
  // locks whose scope textually contains them — the lambda runs later.
  struct InferAcc {
    Held held;
    bool write = false;
    std::string path;
    int line = 0;
  };
  std::map<std::string, std::vector<InferAcc>> infer;
  std::map<std::string, std::string> infer_cls;
  for (std::size_t i = 0; i < functions_.size(); ++i) {
    const FunctionInfo& fn = functions_[i];
    if (!fn.is_definition || exempt_[i]) continue;
    for (const MemberAccess& a : fn.accesses) {
      std::vector<std::tuple<std::string, std::string, bool>> links;
      std::string type;
      if (a.root_is_var) {
        type = a.root_type;
      } else {
        if (fn.cls.empty() || !has_member(fn.cls, a.root)) continue;
        links.emplace_back(fn.cls, a.root, a.segments.empty() && a.is_write);
        type = member_type_of(fn.cls, a.root);
      }
      for (std::size_t si = 0; si < a.segments.size(); ++si) {
        if (type.empty() || type == "!" || !has_member(type, a.segments[si]))
          break;
        const bool last = si + 1 == a.segments.size();
        links.emplace_back(type, a.segments[si], last && a.is_write);
        type = member_type_of(type, a.segments[si]);
      }
      // A line-level guard-ok escape must give its reason.
      if (links.empty() ||
          file(fn.path).directive_at("guard-ok", a.line, 1, true) != nullptr)
        continue;
      const Held held =
          a.in_lambda ? local_held(i, a.token) : full_held(i, a.token);
      for (const auto& [cls, member, wr] : links) {
        const std::string key = cls + "::" + member;
        if (member_guard_ok_.count(key) != 0 || excluded_member(cls, member))
          continue;
        if (const std::string* g = guard_of(cls, member)) {
          if (held.top) continue;
          const auto hit = held.ids.find(*g);
          if (hit == held.ids.end()) {
            emit(fn.path, a.line, "R10",
                 "'" + key + "' " + (wr ? "written" : "read") +
                     " without holding its guard '" + *g + "' (in " +
                     fn.qualified + ")");
          } else if (wr && !hit->second) {
            const auto ms = mutex_shared.find(*g);
            if (ms != mutex_shared.end() && ms->second)
              emit(fn.path, a.line, "R11",
                   "'" + key + "' written while its guard '" + *g +
                       "' is held only in shared mode (in " + fn.qualified +
                       ")");
          }
        } else {
          infer_cls.emplace(key, cls);
          infer[key].push_back({held, wr, fn.path, a.line});
        }
      }
    }
  }

  // Inference: an unannotated member whose every visible access holds the
  // same project mutex is bound to it. By construction this can only add
  // R11 evidence (a write where that mutex is held merely shared) — it can
  // never invent an R10.
  for (const auto& [key, accs] : infer) {
    const std::string& cls = infer_cls[key];
    Held inter = accs.front().held;
    for (std::size_t n = 1; n < accs.size(); ++n) meet_into(inter, accs[n].held);
    if (inter.top) continue;
    std::string g;
    const std::string own_prefix = cls + "::";
    for (const auto& [id, ex] : inter.ids) {
      if (mutex_shared.count(id) == 0) continue;
      if (id.compare(0, own_prefix.size(), own_prefix) == 0) {
        g = id;
        break;
      }
      if (g.empty()) g = id;
    }
    if (g.empty() || !mutex_shared[g]) continue;
    for (const InferAcc& acc : accs) {
      if (!acc.write) continue;
      const auto hit = acc.held.ids.find(g);
      if (hit != acc.held.ids.end() && !hit->second)
        emit(acc.path, acc.line, "R11",
             "'" + key + "' written while '" + g +
                 "' (its inferred guard) is held only in shared mode");
    }
  }

  // Calls into requires-lock functions: the contract must hold at the call
  // site. Calls from lambda bodies are skipped (deferred execution).
  for (std::size_t i = 0; i < functions_.size(); ++i) {
    const FunctionInfo& fn = functions_[i];
    if (!fn.is_definition || exempt_[i]) continue;
    for (const CallSite& c : fn.calls) {
      if (c.in_lambda) continue;
      std::set<std::pair<std::string, bool>> contracts;
      for (std::size_t k : candidates(fn, c))
        for (const LockContract& r : functions_[k].requires_locks)
          contracts.emplace(r.lock_id, r.shared);
      if (contracts.empty() ||
          file(fn.path).directive_at("guard-ok", c.line, 1, true) != nullptr)
        continue;
      const Held held = full_held(i, c.token);
      if (held.top) continue;
      for (const auto& [id, shared_ok] : contracts) {
        const auto hit = held.ids.find(id);
        if (hit == held.ids.end()) {
          emit(fn.path, c.line, "R10",
               "call to '" + c.name + "' requires '" + id +
                   "' which is not held (in " + fn.qualified + ")");
        } else if (!shared_ok && !hit->second) {
          emit(fn.path, c.line, "R11",
               "call to '" + c.name + "' requires '" + id +
                   "' in exclusive mode but it is held only shared (in " +
                   fn.qualified + ")");
        }
      }
    }
  }

  std::sort(guard_findings_.begin(), guard_findings_.end(),
            [](const GuardFinding& x, const GuardFinding& y) {
              return std::tie(x.path, x.line, x.rule, x.message) <
                     std::tie(y.path, y.line, y.rule, y.message);
            });
}

std::set<std::string> ProjectIndex::declared_guards() const {
  std::set<std::string> out;
  for (const auto& [cls, members] : guarded_by_)
    for (const auto& [member, id] : members) out.insert(id);
  return out;
}

std::set<std::string> ProjectIndex::held_exclusive_at(std::size_t fn,
                                                      std::size_t tok,
                                                      bool local_only) const {
  std::set<std::string> out;
  if (fn >= eff_locks_.size()) return out;
  for (const LockSite& l : eff_locks_[fn])
    if (l.token < tok && tok < l.scope_end && !l.shared) out.insert(l.lock_id);
  if (local_only) return out;
  if (fn < entry_.size() && !entry_[fn].top)
    for (const auto& [id, ex] : entry_[fn].ids)
      if (ex) out.insert(id);
  for (const LockContract& r : functions_[fn].requires_locks)
    if (!r.shared) out.insert(r.lock_id);
  return out;
}

std::string ProjectIndex::innermost_held_at(std::size_t fn,
                                            std::size_t tok) const {
  if (fn >= eff_locks_.size()) return "";
  std::size_t best_tok = 0;
  std::string best;
  for (const LockSite& l : eff_locks_[fn])
    if (l.token < tok && tok < l.scope_end && l.token >= best_tok) {
      best_tok = l.token;
      best = l.lock_id;
    }
  return best;
}

const std::vector<std::string>* ProjectIndex::member_decl_type_ids(
    const std::string& cls, const std::string& member) const {
  const auto ci = member_type_ids_.find(cls);
  if (ci == member_type_ids_.end()) return nullptr;
  const auto mi = ci->second.find(member);
  return mi == ci->second.end() ? nullptr : &mi->second;
}

}  // namespace gptc::lint
