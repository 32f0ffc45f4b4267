#include "lint_rules.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <string_view>

namespace gptc::lint {

namespace {

void add(std::vector<Finding>& out, const ScannedFile& f, int line,
         std::string rule, std::string message) {
  out.push_back(Finding{f.path, line, std::move(rule), std::move(message)});
}

// ---------------------------------------------------------------------------
// R1: nondeterministic sources.
// ---------------------------------------------------------------------------

void rule_r1(const ScannedFile& f, std::vector<Finding>& out) {
  const Tokens& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::Identifier) continue;
    const std::string& s = t[i].text;
    const bool has_next = i + 1 < t.size();
    if ((s == "rand" || s == "srand") && has_next && is_p(t[i + 1], "(")) {
      // `std::rand(` / bare `rand(` / `srand(`; skip member calls
      // (`gen.rand()`) and calls qualified by a non-std namespace.
      const bool member = i > 0 && (is_p(t[i - 1], ".") || is_p(t[i - 1], "->"));
      const bool other_ns = i >= 2 && is_p(t[i - 1], "::") &&
                            !is_id(t[i - 2], "std");
      if (!member && !other_ns) {
        add(out, f, t[i].line, "R1",
            "call to '" + s +
                "' — use an index-keyed rng::Rng stream "
                "(Rng::split/split_streams) instead of the C PRNG");
      }
    } else if (s == "random_device") {
      add(out, f, t[i].line, "R1",
          "std::random_device is nondeterministic — seed an rng::Rng from "
          "the experiment seed instead");
    } else if ((s == "steady_clock" || s == "system_clock" ||
                s == "high_resolution_clock") &&
               i + 2 < t.size() && is_p(t[i + 1], "::") &&
               is_id(t[i + 2], "now")) {
      add(out, f, t[i].line, "R1",
          "std::chrono::" + s +
              "::now() in tuner code makes results wall-clock dependent — "
              "timing belongs in tools/ or bench/");
    }
  }
}

// ---------------------------------------------------------------------------
// R2: iteration over unordered containers.
// ---------------------------------------------------------------------------

/// Collects names declared with std::unordered_map / std::unordered_set
/// types in this file (variables, parameters, data members).
std::set<std::string> unordered_names(const Tokens& t) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_id(t[i], "unordered_map") && !is_id(t[i], "unordered_set") &&
        !is_id(t[i], "unordered_multimap") &&
        !is_id(t[i], "unordered_multiset"))
      continue;
    if (i + 1 >= t.size() || !is_p(t[i + 1], "<")) continue;
    std::size_t close = find_matching(t, i + 1, "<", ">");
    if (close >= t.size()) continue;
    // Skip ref/pointer/cv tokens between the template-id and the name.
    std::size_t j = close + 1;
    while (j < t.size() &&
           (is_p(t[j], "&") || is_p(t[j], "*") || is_p(t[j], "&&") ||
            is_id(t[j], "const")))
      ++j;
    if (j < t.size() && t[j].kind == TokKind::Identifier)
      names.insert(t[j].text);
  }
  return names;
}

/// R2 and R6 share one scan: a range-for over, or `.begin()`/`.cbegin()` on,
/// a name declared unordered. R2 reports names declared unordered in this
/// file; R6 (cross-file mode, `ix` non-null) reports members declared
/// unordered in another file. A name declared unordered here is R2's even
/// when another file also declares it, which keeps the two rules disjoint.
void rules_r2_r6(const ScannedFile& f, const ProjectIndex* ix,
                 std::vector<Finding>& out) {
  const Tokens& t = f.tokens;
  const std::set<std::string> local = unordered_names(t);
  std::map<std::string, const UnorderedMember*> cross;
  if (ix != nullptr) {
    for (const UnorderedMember& m : ix->unordered_members()) {
      if (m.path == f.path || local.count(m.name) != 0) continue;
      cross.emplace(m.name, &m);
    }
  }
  if (local.empty() && cross.empty()) return;

  const auto report = [&](int line, const std::string& name, bool range_for) {
    if (f.directive_at("unordered-ok", line) != nullptr) return;
    const char* how = range_for ? "range-for over" : "iterator over";
    const auto it = cross.find(name);
    if (it == cross.end()) {
      add(out, f, line, "R2",
          std::string(how) + " unordered container '" + name +
              "' — bucket order is implementation-defined; " +
              (range_for ? "iterate a sorted view, or annotate"
                         : "annotate") +
              " `// lint: unordered-ok <reason>` if provably "
              "order-independent");
      return;
    }
    const UnorderedMember& m = *it->second;
    add(out, f, line, "R6",
        std::string(how) + " unordered member '" + m.name + "' (" +
            m.container + ", declared " + m.path + ":" +
            std::to_string(m.line) +
            ") — bucket order is implementation-defined; iterate a sorted "
            "view, or annotate `// lint: unordered-ok <reason>` if provably "
            "order-independent");
  };
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (is_id(t[i], "for") && i + 1 < t.size() && is_p(t[i + 1], "(")) {
      const std::size_t close = find_matching(t, i + 1, "(", ")");
      if (close >= t.size()) continue;
      // The range-for ':' sits at parenthesis depth 1 ("::" is a distinct
      // token, so plain ':' here is unambiguous).
      std::size_t colon = t.size();
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (is_p(t[j], "(")) ++depth;
        else if (is_p(t[j], ")")) --depth;
        else if (is_p(t[j], ":") && depth == 1) {
          colon = j;
          break;
        }
      }
      // The first name of each kind in the range expression is reported.
      bool seen_local = false, seen_cross = false;
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (t[j].kind != TokKind::Identifier) continue;
        bool* seen = local.count(t[j].text) != 0   ? &seen_local
                     : cross.count(t[j].text) != 0 ? &seen_cross
                                                   : nullptr;
        if (seen == nullptr || *seen) continue;
        *seen = true;
        report(t[i].line, t[j].text, true);
      }
    }
    // Iterator loop: container.begin() / container.cbegin().
    if (t[i].kind == TokKind::Identifier &&
        (local.count(t[i].text) != 0 || cross.count(t[i].text) != 0) &&
        i + 2 < t.size() && (is_p(t[i + 1], ".") || is_p(t[i + 1], "->")) &&
        (is_id(t[i + 2], "begin") || is_id(t[i + 2], "cbegin")))
      report(t[i].line, t[i].text, false);
  }
}

// ---------------------------------------------------------------------------
// R3 + R5: writes inside [&] lambdas handed to parallel_for / parallel_map.
// ---------------------------------------------------------------------------

/// Collects float/double variable names declared anywhere in the file
/// (`double sum`, `float a, b`). Over-approximate on purpose: also catches
/// functions returning double, which never appear as `name +=` targets.
std::set<std::string> float_names(const Tokens& t) {
  std::set<std::string> names;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_id(t[i], "double") && !is_id(t[i], "float")) continue;
    std::size_t j = i + 1;
    while (j < t.size() && (is_p(t[j], "&") || is_p(t[j], "*"))) ++j;
    // Declarator list: name [init] {, name [init]}* terminated by ';'.
    while (j < t.size() && t[j].kind == TokKind::Identifier) {
      names.insert(t[j].text);
      ++j;
      if (j < t.size() &&
          (is_p(t[j], "(") || is_p(t[j], "[") || is_p(t[j], "{"))) {
        const std::string open = t[j].text;
        const std::string close = open == "(" ? ")" : open == "[" ? "]" : "}";
        j = find_matching(t, j, open, close);
        if (j >= t.size()) break;
        ++j;
      } else {
        // Skip a plain `= init` up to ',' or ';' at depth 0.
        int depth = 0;
        while (j < t.size()) {
          if (is_p(t[j], "(") || is_p(t[j], "[") || is_p(t[j], "{")) ++depth;
          else if (is_p(t[j], ")") || is_p(t[j], "]") || is_p(t[j], "}"))
            --depth;
          else if (depth == 0 && (is_p(t[j], ",") || is_p(t[j], ";")))
            break;
          ++j;
        }
      }
      if (j < t.size() && is_p(t[j], ",")) {
        ++j;
        while (j < t.size() && (is_p(t[j], "&") || is_p(t[j], "*"))) ++j;
        continue;
      }
      break;
    }
  }
  return names;
}

/// Names declared inside the token range [begin, end): locals, loop
/// variables and structured bindings. Heuristic: identifier A (not an
/// expression keyword) followed by optional &/*/&& then identifier B,
/// where B is followed by a declarator terminator.
std::set<std::string> local_names(const Tokens& t, std::size_t begin,
                                  std::size_t end) {
  std::set<std::string> locals;
  for (std::size_t i = begin; i + 1 < end; ++i) {
    if (t[i].kind != TokKind::Identifier || is_expr_keyword(t[i].text))
      continue;
    std::size_t j = i + 1;
    while (j < end && (is_p(t[j], "&") || is_p(t[j], "*") || is_p(t[j], "&&")))
      ++j;
    // Structured binding: auto& [a, b] : ...
    if (j < end && is_p(t[j], "[") && is_id(t[i], "auto")) {
      const std::size_t close = find_matching(t, j, "[", "]");
      for (std::size_t k = j + 1; k < close && k < end; ++k)
        if (t[k].kind == TokKind::Identifier) locals.insert(t[k].text);
      continue;
    }
    if (j >= end || t[j].kind != TokKind::Identifier) continue;
    const std::size_t name = j;
    if (j + 1 >= end) continue;
    const Token& after = t[j + 1];
    if (is_p(after, "=") || is_p(after, "(") || is_p(after, "{") ||
        is_p(after, ";") || is_p(after, ",") || is_p(after, "[") ||
        is_p(after, ":")) {
      locals.insert(t[name].text);
      // Multi-declarator: register the names after each depth-0 comma up
      // to the terminating ';'  (la::Vector a(dim), b(dim), ab(dim);).
      std::size_t k = name + 1;
      int depth = 0;
      while (k < end) {
        if (is_p(t[k], "(") || is_p(t[k], "[") || is_p(t[k], "{")) ++depth;
        else if (is_p(t[k], ")") || is_p(t[k], "]") || is_p(t[k], "}")) {
          if (depth == 0) break;
          --depth;
        } else if (depth == 0 && is_p(t[k], ";")) {
          break;
        } else if (depth == 0 && is_p(t[k], ",") && k + 1 < end &&
                   t[k + 1].kind == TokKind::Identifier) {
          locals.insert(t[k + 1].text);
        }
        ++k;
      }
    }
  }
  return locals;
}

/// Walks a member chain (`ev.f_a`, `obj->slot`) backwards from the written
/// identifier at `i`; returns the base identifier's index.
std::size_t chain_base(const Tokens& t, std::size_t i) {
  while (i >= 2 && (is_p(t[i - 1], ".") || is_p(t[i - 1], "->")) &&
         t[i - 2].kind == TokKind::Identifier)
    i -= 2;
  return i;
}

bool is_assign_op(const Token& t) {
  return t.kind == TokKind::Punct &&
         (t.text == "=" || t.text == "+=" || t.text == "-=" ||
          t.text == "*=" || t.text == "/=" || t.text == "%=" ||
          t.text == "&=" || t.text == "|=" || t.text == "^=" ||
          t.text == "<<=");
}

void rules_r3_r5(const ScannedFile& f, std::vector<Finding>& out) {
  const Tokens& t = f.tokens;
  const std::set<std::string> floats = float_names(t);
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_id(t[i], "parallel_for") && !is_id(t[i], "parallel_map")) continue;
    if (i + 1 >= t.size() || !is_p(t[i + 1], "(")) continue;
    const std::size_t call_close = find_matching(t, i + 1, "(", ")");
    if (call_close >= t.size()) continue;
    // Find a by-ref-default capture `[&]` among the arguments. Explicit
    // captures and `[=]` are out of scope for R3/R5 by design.
    std::size_t cap = t.size();
    for (std::size_t j = i + 2; j + 2 < call_close; ++j) {
      if (is_p(t[j], "[") && is_p(t[j + 1], "&") && is_p(t[j + 2], "]")) {
        cap = j;
        break;
      }
    }
    if (cap == t.size()) continue;
    // Parameter list: the loop index is the last identifier in it (an
    // unnamed parameter degrades gracefully: no body write can match).
    if (cap + 3 >= t.size() || !is_p(t[cap + 3], "(")) continue;
    const std::size_t params_close = find_matching(t, cap + 3, "(", ")");
    if (params_close >= t.size()) continue;
    std::string loop_var;
    for (std::size_t j = cap + 4; j < params_close; ++j)
      if (t[j].kind == TokKind::Identifier) loop_var = t[j].text;
    // Body: first '{' after the params (skipping a trailing return type).
    std::size_t body_open = t.size();
    for (std::size_t j = params_close + 1;
         j < std::min(params_close + 24, call_close); ++j) {
      if (is_p(t[j], "{")) {
        body_open = j;
        break;
      }
    }
    if (body_open >= t.size()) continue;
    const std::size_t body_close = find_matching(t, body_open, "{", "}");
    if (body_close >= t.size()) continue;

    std::set<std::string> locals = local_names(t, body_open + 1, body_close);
    if (!loop_var.empty()) locals.insert(loop_var);

    for (std::size_t j = body_open + 1; j < body_close; ++j) {
      // `name <assign-op>` — a write whose lvalue has no subscript/call,
      // otherwise the op would follow ']' or ')'.
      if (t[j].kind == TokKind::Identifier && j + 1 < body_close &&
          is_assign_op(t[j + 1])) {
        if (is_p(t[j + 1], "=") && j >= 1 &&
            (is_p(t[j - 1], "=") || t[j - 1].text == "==")) {
          continue;  // rhs of comparison chains; defensive
        }
        const std::size_t base = chain_base(t, j);
        // Declarations register the declarator as local, so `double v = ..`
        // never reaches here as a flagged write.
        if (t[base].kind != TokKind::Identifier) continue;
        if (locals.count(t[base].text) != 0) continue;
        if (base >= 1 && is_p(t[base - 1], "::")) continue;  // qualified-id
        // Declaration at the write site (`Type name = init`).
        if (base == j && base >= 1 && t[base - 1].kind == TokKind::Identifier &&
            !is_expr_keyword(t[base - 1].text))
          continue;
        const std::string& name = t[j].text;
        const bool compound_arith =
            t[j + 1].text == "+=" || t[j + 1].text == "-=";
        if (compound_arith && floats.count(name) != 0) {
          add(out, f, t[j].line, "R5",
              "floating-point reduction '" + name + " " + t[j + 1].text +
                  "' inside a parallel body — FP addition is "
                  "non-associative; reduce on the calling thread in index "
                  "order instead");
        } else {
          add(out, f, t[j].line, "R3",
              "write to by-ref captured '" + name +
                  "' is not indexed by the loop variable" +
                  (loop_var.empty() ? "" : " '" + loop_var + "'") +
                  " — parallel units must write only their own slot");
        }
      }
      // Increment/decrement of a captured variable.
      if ((is_p(t[j], "++") || is_p(t[j], "--")) && j + 1 < body_close &&
          t[j + 1].kind == TokKind::Identifier &&
          locals.count(t[j + 1].text) == 0 &&
          (j + 2 >= body_close || !is_p(t[j + 2], "["))) {
        add(out, f, t[j].line, "R3",
            "'" + t[j].text + t[j + 1].text +
                "' on a captured variable inside a parallel body — shared "
                "counters are not deterministic");
      } else if (t[j].kind == TokKind::Identifier && j + 1 < body_close &&
                 (is_p(t[j + 1], "++") || is_p(t[j + 1], "--")) &&
                 locals.count(t[j].text) == 0 &&
                 (j < 1 || (!is_p(t[j - 1], ".") && !is_p(t[j - 1], "->") &&
                            !is_p(t[j - 1], "]")))) {
        add(out, f, t[j].line, "R3",
            "'" + t[j].text + t[j + 1].text +
                "' on a captured variable inside a parallel body — shared "
                "counters are not deterministic");
      }
    }
    i = body_close;
  }
}

// ---------------------------------------------------------------------------
// R4: no objective evaluation from the parallel substrate.
// ---------------------------------------------------------------------------

void rule_r4(const ScannedFile& f, std::vector<Finding>& out) {
  static const std::set<std::string_view> entry_points = {
      "evaluate", "objective", "evaluate_objective", "run_objective",
  };
  const Tokens& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::Identifier ||
        entry_points.count(t[i].text) == 0)
      continue;
    if (i + 1 >= t.size() || !is_p(t[i + 1], "(")) continue;
    // Skip declarations/definitions (`double evaluate(...)`): the previous
    // token is then a type identifier, not an expression keyword.
    if (i >= 1 && t[i - 1].kind == TokKind::Identifier &&
        !is_expr_keyword(t[i - 1].text))
      continue;
    add(out, f, t[i].line, "R4",
        "'" + t[i].text +
            "(' — the user objective must never run on the parallel "
            "substrate (src/parallel/); evaluate on the calling thread and "
            "hand results to the pool");
  }
}

// ---------------------------------------------------------------------------
// R8: durability — file creation must reach fsync / sync_parent_dir.
// ---------------------------------------------------------------------------

void rule_r8(const ScannedFile& f, const ProjectIndex& ix,
             std::vector<Finding>& out) {
  for (const FunctionInfo* fn : ix.functions_in(f.path)) {
    if (!fn->is_definition || fn->creates.empty()) continue;
    bool durable = fn->contains_sync;
    for (const CallSite& c : fn->calls) {
      if (durable) break;
      if (ix.reaches_sync(c.name)) durable = true;
    }
    if (durable) continue;
    for (const CreateSite& cs : fn->creates) {
      if (f.directive_at("durability-ok", cs.line) != nullptr) continue;
      add(out, f, cs.line, "R8",
          "'" + cs.what + "' in '" + fn->qualified +
              "' never reaches fsync/fdatasync/sync_parent_dir before "
              "returning — a crash can lose the file or its directory "
              "entry; sync it (directly or via a helper), or annotate "
              "`// lint: durability-ok <reason>`");
    }
  }
}

// ---------------------------------------------------------------------------
// R9: noexcept boundaries — thread entry points and WAL replay application.
// ---------------------------------------------------------------------------

/// True when some known definition/declaration of `base` is safe at an
/// exception boundary: marked noexcept on any decl, or its definition holds
/// a catch-all handler. Unknown names (std:: calls etc.) are not flagged.
bool callee_safe_or_unknown(const ProjectIndex& ix, const std::string& base) {
  const auto fns = ix.functions_named(base);
  bool any_project = false;
  for (const FunctionInfo* fn : fns) {
    if (!fn->is_definition && !fn->is_noexcept) continue;  // pseudo-decls
    any_project = true;
    if (ix.is_noexcept(fn->qualified) || ix.has_catch_all(fn->qualified))
      return true;
  }
  return !any_project;
}

/// Checks the callable argument tokens [begin, end) of a thread launch. A
/// lambda is safe when its body opens with `try { ... } catch (...)`;
/// otherwise every project-resolvable call inside it must be safe. A plain
/// function reference must itself be safe.
void check_launch_callable(const ScannedFile& f, const ProjectIndex& ix,
                           std::size_t begin, std::size_t end, int line,
                           std::vector<Finding>& out) {
  const Tokens& t = f.tokens;
  if (f.directive_at("noexcept-ok", line) != nullptr) return;
  auto flag = [&](const std::string& name) {
    add(out, f, line, "R9",
        "thread entry point '" + name +
            "' is neither noexcept nor wrapped in a catch-all — an "
            "exception escaping a worker thread calls std::terminate with "
            "no context; mark it noexcept (and handle internally) or "
            "annotate `// lint: noexcept-ok <reason>`");
  };
  if (begin < end && is_p(t[begin], "[")) {
    // Lambda: locate the body and inspect its calls.
    std::size_t body = end;
    for (std::size_t j = find_matching(t, begin, "[", "]"); j < end; ++j) {
      if (is_p(t[j], "{")) {
        body = j;
        break;
      }
    }
    if (body >= end) return;
    const std::size_t body_close = find_matching(t, body, "{", "}");
    // `[...] { try { ... } catch (...) { ... } }` is a wrapped entry point.
    if (body + 1 < body_close && is_id(t[body + 1], "try")) return;
    for (std::size_t j = body + 1; j < body_close; ++j) {
      if (t[j].kind != TokKind::Identifier || j + 1 >= body_close ||
          !is_p(t[j + 1], "("))
        continue;
      if (is_expr_keyword(t[j].text)) continue;
      if (!callee_safe_or_unknown(ix, t[j].text)) flag(t[j].text);
    }
    return;
  }
  // Function reference: first identifier that names a project function.
  for (std::size_t j = begin; j < end; ++j) {
    if (t[j].kind != TokKind::Identifier) continue;
    if (ix.functions_named(t[j].text).empty()) continue;
    if (!callee_safe_or_unknown(ix, t[j].text)) flag(t[j].text);
    return;
  }
}

void rule_r9(const ScannedFile& f, const ProjectIndex& ix,
             std::vector<Finding>& out) {
  const Tokens& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    // Direct launch: `std::thread t(callable, ...)` / `std::jthread ...`.
    if ((is_id(t[i], "thread") || is_id(t[i], "jthread")) && i + 2 < t.size() &&
        t[i + 1].kind == TokKind::Identifier && is_p(t[i + 2], "(")) {
      const std::size_t close = find_matching(t, i + 2, "(", ")");
      if (close < t.size())
        check_launch_callable(f, ix, i + 3, close, t[i].line, out);
      continue;
    }
    // Launch into a std::thread container member: `workers_.emplace_back(...)`.
    if (t[i].kind == TokKind::Identifier && ix.is_thread_member(t[i].text) &&
        i + 3 < t.size() && (is_p(t[i + 1], ".") || is_p(t[i + 1], "->")) &&
        (is_id(t[i + 2], "emplace_back") || is_id(t[i + 2], "push_back")) &&
        is_p(t[i + 3], "(")) {
      const std::size_t close = find_matching(t, i + 3, "(", ")");
      if (close < t.size())
        check_launch_callable(f, ix, i + 4, close, t[i].line, out);
    }
  }

  // WAL replay application: in a function that drives replay_wal, every
  // apply_op call must sit inside a catch-all try block (or apply_op itself
  // must be safe) — a JSON/op error mid-replay must surface as the engine's
  // refusal, not as an uncaught exception with no collection context.
  for (const FunctionInfo* fn : ix.functions_in(f.path)) {
    if (!fn->is_definition) continue;
    bool drives_replay = false;
    for (const CallSite& c : fn->calls)
      if (c.name == "replay_wal") drives_replay = true;
    if (!drives_replay) continue;
    for (const CallSite& c : fn->calls) {
      if (c.name != "apply_op") continue;
      if (f.directive_at("noexcept-ok", c.line) != nullptr) continue;
      bool in_try = false;
      for (const TryRange& tr : fn->tries)
        if (tr.catch_all && c.token > tr.begin && c.token < tr.end)
          in_try = true;
      if (in_try) continue;
      if (callee_safe_or_unknown(ix, "apply_op")) continue;
      add(out, f, c.line, "R9",
          "WAL replay application call 'apply_op' in '" + fn->qualified +
              "' is not wrapped in a catch-all and 'apply_op' is not "
              "noexcept — a malformed record would escape recovery without "
              "naming the collection; wrap the call (rethrowing with "
              "context) or annotate `// lint: noexcept-ok <reason>`");
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// R7: lock-order cycles over the project-wide acquires-while-holding graph.
// ---------------------------------------------------------------------------

std::vector<Finding> run_project_rules(const ProjectIndex& index) {
  std::vector<Finding> out;
  // Active edges: at least one non-suppressed witness.
  std::map<std::string, std::set<std::string>> adj;
  for (const auto& [edge, witnesses] : index.lock_edges()) {
    for (const LockEdgeWitness& w : witnesses) {
      if (!w.suppressed) {
        adj[edge.first].insert(edge.second);
        break;
      }
    }
  }
  auto reachable = [&adj](const std::string& from, const std::string& to) {
    std::set<std::string> seen = {from};
    std::vector<std::string> stack = {from};
    while (!stack.empty()) {
      const std::string cur = stack.back();
      stack.pop_back();
      const auto it = adj.find(cur);
      if (it == adj.end()) continue;
      for (const std::string& next : it->second) {
        if (next == to) return true;
        if (seen.insert(next).second) stack.push_back(next);
      }
    }
    return false;
  };
  std::set<std::pair<std::string, std::string>> reported;
  for (const auto& [edge, witnesses] : index.lock_edges()) {
    const std::string& a = edge.first;
    const std::string& b = edge.second;
    if (adj.count(a) == 0 || adj[a].count(b) == 0) continue;  // suppressed
    const auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
    if (reported.count(key) != 0) continue;
    if (!reachable(b, a)) continue;
    reported.insert(key);
    const LockEdgeWitness* w = nullptr;
    for (const LockEdgeWitness& cand : witnesses)
      if (!cand.suppressed) {
        w = &cand;
        break;
      }
    if (w == nullptr) continue;
    // Name one witness of the opposite order when a direct reverse edge
    // exists (the common two-lock inversion).
    std::string reverse_note;
    const auto rev = index.lock_edges().find({b, a});
    if (rev != index.lock_edges().end()) {
      for (const LockEdgeWitness& cand : rev->second) {
        if (cand.suppressed) continue;
        reverse_note = "; the opposite order is taken in '" + cand.function +
                       "' (" + cand.path + ":" + std::to_string(cand.line) +
                       ")";
        break;
      }
    } else {
      reverse_note = "; the opposite order is reachable through intermediate "
                     "locks";
    }
    out.push_back(Finding{
        w->path, w->line, "R7",
        "lock-order inversion between '" + a + "' and '" + b + "': in '" +
            w->function + "' " + w->detail + reverse_note +
            " — two threads taking these locks in opposite orders can "
            "deadlock; pick one order, or annotate the site "
            "`// lint: lock-order-ok <reason>` if the orders can never "
            "interleave"});
  }
  // R10/R11: guarded-by analysis findings, computed by ProjectIndex during
  // finalize() (the checks need the interprocedural held-lock fixpoints).
  for (const GuardFinding& g : index.guard_findings())
    out.push_back(Finding{g.path, g.line, g.rule, g.message});
  // R12/R13: interprocedural dataflow rules (dataflow.cpp) over the same
  // resolved call graph, via the shared worklist framework.
  auto dataflow = run_dataflow_rules(index);
  out.insert(out.end(), std::make_move_iterator(dataflow.begin()),
             std::make_move_iterator(dataflow.end()));
  return out;
}

FileContext context_for_path(const std::string& path) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  FileContext ctx;
  const bool in_rng = p.find("src/rng/") != std::string::npos;
  const bool in_tools = p.find("tools/") != std::string::npos;
  ctx.rng_exempt = in_rng || in_tools;
  ctx.parallel_layer = p.find("src/parallel/") != std::string::npos;
  ctx.engine_layer = p.find("src/db/engine/") != std::string::npos;
  return ctx;
}

std::vector<Finding> run_rules(const ScannedFile& file, const FileContext& ctx,
                               const ProjectIndex* index) {
  std::vector<Finding> out;
  if (!ctx.rng_exempt) rule_r1(file, out);
  rules_r2_r6(file, index, out);
  rules_r3_r5(file, out);
  if (ctx.parallel_layer) rule_r4(file, out);
  if (index != nullptr) {
    if (ctx.engine_layer) rule_r8(file, *index, out);
    rule_r9(file, *index, out);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return out;
}

std::string describe_rules() {
  return
      "R1 nondeterministic-source   no std::rand/srand/random_device or "
      "*_clock::now() outside src/rng/ and tools/\n"
      "R2 unordered-iteration       no iteration over std::unordered_map/"
      "set (escape: `// lint: unordered-ok <reason>`)\n"
      "R3 unindexed-capture-write   no un-indexed write to a [&]-captured "
      "variable inside parallel_for/parallel_map\n"
      "R4 objective-in-parallel     src/parallel/ must not call evaluate/"
      "objective entry points\n"
      "R5 float-reduction           no float/double +=/-= accumulation "
      "inside a parallel body\n"
      "R6 cross-tu-unordered        [--cross-file] no iteration over an "
      "unordered member declared in another TU (escape: `// lint: "
      "unordered-ok <reason>`)\n"
      "R7 lock-order                [--cross-file] acquires-while-holding "
      "graph must be acyclic (escape: `// lint: lock-order-ok <reason>`)\n"
      "R8 durability                [--cross-file] src/db/engine/ file "
      "creation must reach fsync/sync_parent_dir (escape: `// lint: "
      "durability-ok <reason>`)\n"
      "R9 noexcept-boundary         [--cross-file] thread entry points and "
      "WAL replay apply sites must be noexcept or catch-all wrapped "
      "(escape: `// lint: noexcept-ok <reason>`)\n"
      "R10 guarded-by               [--cross-file] a member annotated "
      "`// guarded_by: mu` (or a call into a `// requires_lock: mu` "
      "function) must happen with the lock held, interprocedurally "
      "(escape: `// guard-ok: <reason>`)\n"
      "R11 shared-lock-write        [--cross-file] no write to a guarded or "
      "inferred-guarded member while its shared_mutex is held only in "
      "shared mode (escape: `// guard-ok: <reason>`)\n"
      "R12 untrusted-input-taint    [--cross-file] wire input (Socket::recv*, "
      "decoded frames, message payloads) must be compared against a named "
      "max_*/limit bound before reaching an allocation size, array index, "
      "loop bound or file path (escape: `// taint-ok: <reason>`)\n"
      "R13 blocking-under-lock      [--cross-file] no blocking syscall "
      "(fsync/write/recv/sleep/cv-wait, directly or transitively) while a "
      "guarded-by-declared mutex is held exclusive, and no handle_*/serve_* "
      "handler may enter the snapshot/compaction path (escape: "
      "`// blocking-ok: <reason>`)\n";
}

}  // namespace gptc::lint
