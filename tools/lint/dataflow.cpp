// dataflow — worklist driver, closure helpers, and the two interprocedural
// dataflow rule families built on them:
//
//   R12 untrusted-input-taint: values read off the wire (Socket::recv*,
//   frame decode results, parsed message payloads) are tainted; taint flows
//   through assignments, arithmetic, field projections and call arguments
//   (summary-based, so one call hop or five make no difference); reaching
//   an allocation size (resize/reserve/assign/new[]), an array index, a
//   loop bound or a file-open argument without first being compared against
//   a named bound is a finding. Sanitizers: a comparison against an
//   identifier containing "max"/"limit", an integer literal, or a
//   materialized `.size()`; `std::min`/`std::clamp`; `%` (modulo bounds its
//   result); and the `// taint-ok: <reason>` escape.
//
//   R13 blocking-under-lock / hot-path: a catalogue of blocking calls
//   (fsync, fdatasync, write, recv, send, accept, poll, sleep_for,
//   condition_variable::wait, ...) must not be transitively reachable while
//   a guarded-by-declared mutex is held in exclusive mode, and request
//   handlers (handle_*/serve_*) must not transitively enter the
//   snapshot/compaction paths. A condition-variable wait releases the
//   innermost lock it was handed, so that one is exempt at the wait site.
//   Escape: `// blocking-ok: <reason>` — on a call line it accepts that one
//   site; on a function declaration it tells callers the function's
//   blocking cost is an accepted part of its contract (the body is still
//   checked, so new hazards inside an annotated function still surface).
#include "dataflow.hpp"

#include <algorithm>
#include <cctype>
#include <deque>
#include <map>
#include <tuple>

#include "lint_rules.hpp"
#include "project_index.hpp"
#include "source_scanner.hpp"

namespace gptc::lint::dataflow {

void solve(std::size_t n, const std::function<bool(std::size_t)>& update,
           const Dependents& dependents) {
  std::deque<std::size_t> work;
  std::vector<char> queued(n, 1);
  for (std::size_t i = 0; i < n; ++i) work.push_back(i);
  while (!work.empty()) {
    const std::size_t i = work.front();
    work.pop_front();
    queued[i] = 0;
    if (!update(i)) continue;
    for (std::size_t d : dependents(i)) {
      if (d < n && !queued[d]) {
        queued[d] = 1;
        work.push_back(d);
      }
    }
  }
}

Dependents callers(const CallGraph& g) {
  return [&g](std::size_t node) {
    std::vector<std::size_t> out;
    for (const Edge& e : g.in_edges(node)) out.push_back(e.from);
    return out;
  };
}

Dependents callees(const CallGraph& g,
                   std::function<bool(const Edge&)> keep) {
  return [&g, keep = std::move(keep)](std::size_t node) {
    std::vector<std::size_t> out;
    for (const Edge& e : g.out_edges(node))
      if (keep(e)) out.push_back(e.to);
    return out;
  };
}

std::vector<char> reach_closure(const CallGraph& g,
                                const std::vector<char>& seed,
                                const std::function<bool(const Edge&)>& cut) {
  std::vector<char> out = seed;
  solve(
      g.size(),
      [&](std::size_t i) {
        if (out[i]) return false;
        for (const Edge& e : g.out_edges(i)) {
          if (cut && cut(e)) continue;
          if (out[e.to]) {
            out[i] = 1;
            return true;
          }
        }
        return false;
      },
      callers(g));
  return out;
}

std::vector<std::set<std::string>> set_closure(
    const CallGraph& g, std::vector<std::set<std::string>> init,
    const std::function<std::string(const Edge&, const std::string&)>& subst) {
  solve(
      g.size(),
      [&](std::size_t i) {
        bool changed = false;
        for (const Edge& e : g.out_edges(i)) {
          for (const std::string& x : init[e.to]) {
            const std::string y = subst ? subst(e, x) : x;
            if (!y.empty() && init[i].insert(y).second) changed = true;
          }
        }
        return changed;
      },
      callers(g));
  return init;
}

bool generic_method_name(const std::string& base) {
  static const std::set<std::string> kNames = {
      "at",      "find",    "rfind",     "count",    "contains", "insert",
      "erase",   "clear",   "push_back", "pop_back", "emplace",
      "emplace_back",       "front",     "back",     "data",     "get",
      "reset",   "release", "load",      "store",    "swap",     "merge",
      "substr",  "assign",  "resize",    "reserve",  "begin",    "end",
      "size",    "length",  "empty",     "add",      "eval",     "apply",
      "update",  "remove",  "str",       "push",     "pop",      "top",
      "compare", "set"};
  return kNames.count(base) != 0;
}

bool untrusted_edge(const Edge& e, const std::vector<FunctionInfo>& fns) {
  return e.weak && generic_method_name(fns[e.to].base);
}

}  // namespace gptc::lint::dataflow

// ---------------------------------------------------------------------------
// R13: blocking-under-lock and hot-path snapshot reachability.
// ---------------------------------------------------------------------------

namespace gptc::lint {

namespace {

bool starts_with(const std::string& s, std::string_view prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool contains_ci(const std::string& haystack, std::string_view needle) {
  if (needle.empty() || haystack.size() < needle.size()) return false;
  for (std::size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    bool hit = true;
    for (std::size_t k = 0; k < needle.size(); ++k) {
      if (std::tolower(static_cast<unsigned char>(haystack[i + k])) !=
          std::tolower(static_cast<unsigned char>(needle[k]))) {
        hit = false;
        break;
      }
    }
    if (hit) return true;
  }
  return false;
}

/// Blocking primitives that block regardless of call form.
const std::set<std::string> kAlwaysBlocking = {
    "fsync",       "fdatasync", "epoll_wait", "sleep_for",
    "sleep_until", "nanosleep", "usleep",     "flock"};

/// POSIX calls whose names a project reuses for its own functions (a
/// listener's accept(), an index's select()): they block when spelled
/// ::name(...), or when the call binds to no project function.
const std::set<std::string> kPosixNamed = {"accept", "poll", "select"};

/// Syscalls that block only in their free-function (::call) form — the
/// member spellings (`stream.write(...)`) are in-memory operations.
const std::set<std::string> kFreeBlocking = {"write", "read",    "recv",
                                             "send",  "recvfrom", "sendto",
                                             "connect"};

/// Condition-variable wait entry points (member calls on a
/// condition_variable-typed owner).
const std::set<std::string> kCvWait = {"wait", "wait_for", "wait_until"};

/// Candidate definitions per (function, call index) over the trusted edges
/// of the resolved call graph — what a call site may bind to for R12's
/// summaries and R13's transitive leg.
using SiteCallees =
    std::map<std::pair<std::size_t, std::size_t>, std::vector<std::size_t>>;

SiteCallees trusted_callees(const ProjectIndex& index) {
  const auto& fns = index.functions();
  const dataflow::CallGraph& g = index.call_graph();
  SiteCallees out;
  for (std::size_t i = 0; i < fns.size(); ++i)
    for (const dataflow::Edge& e : g.out_edges(i))
      if (!dataflow::untrusted_edge(e, fns)) out[{i, e.site}].push_back(e.to);
  return out;
}

/// The name of the blocking primitive a call site invokes directly, or ""
/// when the site is not in the catalogue. `project_callee`: the call binds
/// to a project function it can reach unqualified (see project_calls).
std::string direct_blocking(const ProjectIndex& index, const FunctionInfo& fn,
                            const CallSite& c, bool project_callee) {
  if (kAlwaysBlocking.count(c.name) != 0) return c.name;
  if (kPosixNamed.count(c.name) != 0)
    return c.qualifier == "::" || (!c.member_call && !project_callee) ? c.name
                                                                       : "";
  if (!c.member_call && kFreeBlocking.count(c.name) != 0) return c.name;
  if (c.member_call && kCvWait.count(c.name) != 0 && !c.owner_root.empty() &&
      c.owner_segments.empty()) {
    if (contains_ci(c.owner_root_type, "condition_variable"))
      return "condition_variable::" + c.name;
    if (const auto* ids =
            index.member_decl_type_ids(fn.cls, c.owner_root)) {
      for (const std::string& id : *ids)
        if (contains_ci(id, "condition_variable"))
          return "condition_variable::" + c.name;
    }
  }
  return "";
}

std::vector<Finding> blocking_findings(const ProjectIndex& index,
                                       const SiteCallees& resolved) {
  std::vector<Finding> out;
  const auto& fns = index.functions();
  const dataflow::CallGraph& g = index.call_graph();
  const std::set<std::string> guards = index.declared_guards();

  // Per-call-site escape: a blocking-ok with a reason covers the line.
  const auto site_ok = [&](const FunctionInfo& fn, const CallSite& c) {
    return index.file(fn.path).directive_at("blocking-ok", c.line, 1, true) !=
           nullptr;
  };

  // Call sites (function, call index) that bind to a project function an
  // unqualified call can name: a free function or a member of the caller's
  // class. There a POSIX-named call is the project's own.
  std::set<std::pair<std::size_t, std::size_t>> project_calls;
  for (std::size_t i = 0; i < fns.size(); ++i)
    for (const dataflow::Edge& e : g.out_edges(i))
      if (fns[e.to].cls.empty() || fns[e.to].cls == fns[i].cls)
        project_calls.emplace(i, e.site);
  const auto direct = [&](std::size_t i, std::size_t ci) {
    return direct_blocking(index, fns[i], fns[i].calls[ci],
                           project_calls.count({i, ci}) != 0);
  };

  // Blocking closure: fact = the name of the primitive a function
  // (transitively) reaches, "" when none. Set-once, so the lattice has
  // height one and the worklist terminates. Declaration-level blocking-ok
  // pins a function to "" — callers treat it as non-blocking by contract.
  std::vector<std::string> blocks(fns.size());
  dataflow::solve(
      fns.size(),
      [&](std::size_t i) {
        if (!blocks[i].empty() || fns[i].blocking_exempt) return false;
        if (!fns[i].is_definition) return false;
        for (std::size_t ci = 0; ci < fns[i].calls.size(); ++ci) {
          if (site_ok(fns[i], fns[i].calls[ci])) continue;
          const std::string p = direct(i, ci);
          if (!p.empty()) {
            blocks[i] = p;
            return true;
          }
        }
        for (const dataflow::Edge& e : g.out_edges(i)) {
          if (fns[e.to].blocking_exempt || blocks[e.to].empty()) continue;
          if (dataflow::untrusted_edge(e, fns)) continue;
          if (site_ok(fns[i], fns[i].calls[e.site])) continue;
          blocks[i] = blocks[e.to];
          return true;
        }
        return false;
      },
      dataflow::callers(g));

  std::set<std::tuple<std::string, int, std::string>> emitted;
  const auto emit = [&](const std::string& path, int line, std::string msg) {
    if (emitted.emplace(path, line, msg).second)
      out.push_back({path, line, "R13", std::move(msg)});
  };

  for (std::size_t i = 0; i < fns.size(); ++i) {
    const FunctionInfo& fn = fns[i];
    if (!fn.is_definition) continue;
    for (std::size_t ci = 0; ci < fn.calls.size(); ++ci) {
      const CallSite& c = fn.calls[ci];
      if (site_ok(fn, c)) continue;
      std::string prim = direct(i, ci);
      bool transitive = false;
      if (prim.empty()) {
        const auto it = resolved.find({i, ci});
        if (it != resolved.end()) {
          for (std::size_t k : it->second) {
            if (!fns[k].blocking_exempt && !blocks[k].empty()) {
              prim = blocks[k];
              transitive = true;
              break;
            }
          }
        }
      }
      if (prim.empty()) continue;
      // Held guard set at the site. A site inside a lambda runs later, so
      // only textually enclosing lock scopes count there.
      std::set<std::string> held =
          index.held_exclusive_at(i, c.token, c.in_lambda);
      // A condition-variable wait atomically releases the lock it was
      // handed — the innermost one held at the site.
      if (!transitive && starts_with(prim, "condition_variable::"))
        held.erase(index.innermost_held_at(i, c.token));
      std::set<std::string> held_guards;
      for (const std::string& id : held)
        if (guards.count(id) != 0) held_guards.insert(id);
      if (held_guards.empty()) continue;
      const std::string& lock = *held_guards.begin();
      if (transitive) {
        emit(fn.path, c.line,
             "call to '" + c.name + "' may block (transitively reaches '" +
                 prim + "') while '" + lock + "' is held exclusive (in " +
                 fn.qualified +
                 "); move the blocking work outside the critical section or "
                 "annotate the accepted design with // blocking-ok: <reason>");
      } else {
        emit(fn.path, c.line,
             "blocking call '" + prim + "' while '" + lock +
                 "' is held exclusive (in " + fn.qualified +
                 "); move the I/O outside the critical section or annotate "
                 "the accepted design with // blocking-ok: <reason>");
      }
    }
  }

  // Hot-path leg: request handlers must not transitively enter the
  // snapshot/compaction machinery. Threshold-amortized entry points opt out
  // with a declaration-level blocking-ok.
  std::vector<char> snap_seed(fns.size(), 0);
  for (std::size_t i = 0; i < fns.size(); ++i) {
    if (fns[i].blocking_exempt) continue;
    if (starts_with(fns[i].base, "checkpoint") ||
        starts_with(fns[i].base, "compact") ||
        fns[i].base == "write_snapshot")
      snap_seed[i] = 1;
  }
  const auto cut = [&](const dataflow::Edge& e) {
    return fns[e.to].blocking_exempt || dataflow::untrusted_edge(e, fns) ||
           site_ok(fns[e.from], fns[e.from].calls[e.site]);
  };
  const std::vector<char> snap = dataflow::reach_closure(g, snap_seed, cut);
  for (std::size_t i = 0; i < fns.size(); ++i) {
    const FunctionInfo& fn = fns[i];
    if (!fn.is_definition) continue;
    if (!starts_with(fn.base, "handle_") && !starts_with(fn.base, "serve_"))
      continue;
    if (snap_seed[i]) continue;
    for (const dataflow::Edge& e : g.out_edges(i)) {
      if (cut(e) || !snap[e.to]) continue;
      const CallSite& c = fn.calls[e.site];
      emit(fn.path, c.line,
           "request handler '" + fn.qualified +
               "' transitively enters the snapshot/compaction path via '" +
               c.name +
               "'; keep checkpoints off the serving hot path or annotate the "
               "amortized entry point with // blocking-ok: <reason>");
    }
  }

  return out;
}

// ---------------------------------------------------------------------------
// R12: untrusted-input taint tracking.
// ---------------------------------------------------------------------------

/// Taint labels: -1 = wire input (the source), n >= 0 = "tainted iff the
/// enclosing function's n-th parameter is".
using Labels = std::set<int>;

constexpr int kSrc = -1;

/// Calls that make their buffer argument attacker-controlled.
const std::map<std::string, std::size_t> kSourceBufArg = {
    {"recv_exact", 0}, {"recv_some", 0}, {"recv", 1}, {"recvfrom", 1}};

/// Member calls whose result is structurally bounded no matter how tainted
/// the receiver is: sizes of materialized containers are limited by the
/// bytes actually received, and positions returned by find() are limited by
/// the size. This is what keeps `ids.reserve(ds.size())` clean while
/// `body.assign(h.payload_size, 0)` — an attacker-declared count — is not.
const std::set<std::string> kNeutralMethods = {
    "size",  "length", "empty",  "count",        "capacity", "max_size",
    "begin", "end",    "cbegin", "cend",         "find",     "rfind",
    "find_first_of",   "find_last_of",           "use_count"};

/// Free functions whose result is bounded by a non-tainted argument.
const std::set<std::string> kNeutralFree = {"min", "clamp"};

/// Allocation-count member sinks (first argument is an element count).
const std::set<std::string> kAllocSinks = {"resize", "reserve"};

/// Per-function taint summary, grown monotonically across re-analyses.
struct TaintSummary {
  Labels ret;                            // labels of the return value
  std::map<std::size_t, Labels> taints;  // out-params written with taint
  std::map<std::size_t, std::string> sinks;  // param pos -> sink description
  bool operator==(const TaintSummary& o) const {
    return ret == o.ret && taints == o.taints && sinks == o.sinks;
  }
};

/// One function-body taint walk. Re-run whenever a callee summary changes;
/// all state except the summaries and emitted findings is rebuilt fresh.
class TaintWalk {
 public:
  TaintWalk(const ScannedFile& file, const FunctionInfo& fn,
            std::size_t fn_index, std::vector<TaintSummary>& summaries,
            const SiteCallees& resolved,
            std::set<std::tuple<std::string, int, std::string>>& emitted,
            std::vector<Finding>& findings)
      : file_(file),
        fn_(fn),
        i_(fn_index),
        t_(file.tokens),
        sums_(summaries),
        resolved_(resolved),
        emitted_(emitted),
        findings_(findings) {
    for (std::size_t p = 0; p < fn_.param_names.size(); ++p)
      if (!fn_.param_names[p].empty())
        taint_[fn_.param_names[p]].insert(static_cast<int>(p));
    for (std::size_t ci = 0; ci < fn_.calls.size(); ++ci)
      call_by_token_.emplace(fn_.calls[ci].token, ci);
  }

  void run() {
    const std::size_t begin = fn_.body_begin, end = fn_.body_end;
    for (std::size_t j = begin + 1; j < end; ++j) {
      const Token& tok = t_[j];
      if (tok.kind != TokKind::Identifier) {
        if (is_p(tok, "[")) check_subscript(j, end);
        if (is_cmp(tok)) apply_comparison(j, end, /*loop_bound=*/false);
        continue;
      }
      const std::string& s = tok.text;
      if (s == "return") {
        handle_return(j, end);
        continue;
      }
      if ((s == "for" || s == "while") && j + 1 < end && is_p(t_[j + 1], "(")) {
        // Record the loop-bound comparisons, then fall into the condition
        // tokens: apply_comparison skips what loop_cmp_ already covers, and
        // the init statement / nested calls still get their normal walk.
        handle_loop_condition(j, end);
        continue;
      }
      if (s == "if" || s == "switch" || s == "catch") continue;  // not a call
      if (s == "new") {
        handle_new(j, end);
        continue;
      }
      if (chained(j)) {
        // Method-call name (`sock.recv_exact(...)`, `body.assign(...)`):
        // evaluate the call for its source/sink side effects. Any other
        // chained identifier was already read via its chain root.
        if (j + 1 < end && is_p(t_[j + 1], "(") && !is_p(t_[j - 1], "::")) {
          call_labels(j, end);
          j = find_matching(t_, j + 1, "(", ")", end);
        }
        continue;
      }
      // Chain root: read the dotted name, then dispatch on what follows.
      std::size_t after = j;
      const std::string chain = read_chain(j, end, after);
      if (after < end && is_p(t_[after], "(")) {
        // Declaration-with-init (`Type name(args)`) updates `name`;
        // everything else is a call expression evaluated for side effects.
        if (is_decl_init(j))
          assign(chain, args_labels(after, end));
        else
          call_labels(j, end);
        j = find_matching(t_, after, "(", ")", end);
        continue;
      }
      if (after < end && (is_p(t_[after], "=") || is_p(t_[after], "{"))) {
        if (is_p(t_[after], "{") && !is_decl_init(j)) continue;
        // `chain = rhs;` / `Type name = rhs;` / `Type name{rhs}`.
        const std::size_t rhs_begin = after + 1;
        const std::size_t rhs_end = is_p(t_[after], "{")
                                        ? find_matching(t_, after, "{", "}", end)
                                        : stmt_end(rhs_begin, end);
        assign(chain, expr_labels(rhs_begin, rhs_end));
        j = rhs_end;
        continue;
      }
      j = after > j ? after - 1 : j;
    }
  }

  TaintSummary& summary() { return sums_[i_]; }

 private:
  // --- small token utilities ----------------------------------------------

  bool is_cmp(const Token& tok) const {
    return is_p(tok, "<") || is_p(tok, ">") || is_p(tok, "<=") ||
           is_p(tok, ">=") || is_p(tok, "==") || is_p(tok, "!=");
  }

  bool chained(std::size_t j) const {
    if (j == 0) return false;
    const Token& prev = t_[j - 1];
    return is_p(prev, ".") || is_p(prev, "->") || is_p(prev, "::");
  }

  /// True when the identifier at `j` begins a declaration-with-initializer
  /// (`Type name(init)` / `Type name{init}`): the previous token is a type
  /// name or the tail of one.
  bool is_decl_init(std::size_t j) const {
    if (j == 0) return false;
    const Token& prev = t_[j - 1];
    return (prev.kind == TokKind::Identifier) || is_p(prev, ">") ||
           is_p(prev, "&") || is_p(prev, "*");
  }

  /// Reads the dotted chain starting at root token `j`; returns the dotted
  /// name ("h.payload_size") and sets `after` to the first token past it.
  /// Subscripts inside the chain are skipped and do not extend the name.
  std::string read_chain(std::size_t j, std::size_t end,
                         std::size_t& after) const {
    std::string name = t_[j].text;
    std::size_t k = j + 1;
    while (k < end) {
      if (is_p(t_[k], "[")) {
        const std::size_t close = find_matching(t_, k, "[", "]", end);
        if (close >= end) break;
        k = close + 1;
        continue;
      }
      if (k + 1 < end && (is_p(t_[k], ".") || is_p(t_[k], "->")) &&
          t_[k + 1].kind == TokKind::Identifier) {
        // Stop before a method call: `h.decode(...)`'s chain is just `h`.
        if (k + 2 < end && is_p(t_[k + 2], "(")) break;
        name += "." + t_[k + 1].text;
        k += 2;
        continue;
      }
      if (k + 1 < end && is_p(t_[k], "::") &&
          t_[k + 1].kind == TokKind::Identifier) {
        // Namespace qualifier: restart the name at the qualified tail.
        name = t_[k + 1].text;
        k += 2;
        continue;
      }
      break;
    }
    after = k;
    return name;
  }

  /// First token index past the statement starting at `from` (the `;` at
  /// bracket depth zero, or `end`).
  std::size_t stmt_end(std::size_t from, std::size_t end) const {
    int depth = 0;
    for (std::size_t k = from; k < end; ++k) {
      if (is_p(t_[k], "(") || is_p(t_[k], "[") || is_p(t_[k], "{")) ++depth;
      else if (is_p(t_[k], ")") || is_p(t_[k], "]") || is_p(t_[k], "}"))
        --depth;
      else if (depth == 0 && is_p(t_[k], ";"))
        return k;
    }
    return end;
  }

  // --- taint map ----------------------------------------------------------

  Labels labels_of(const std::string& chain) const {
    // A chain at or under a sanitized one is clean even when its struct
    // root is tainted: `if (h.payload_size > max) ...` bounds the field
    // without saying anything about `h`'s other fields.
    for (const std::string& c : clean_)
      if (c == chain ||
          (chain.size() > c.size() && chain.compare(0, c.size(), c) == 0 &&
           chain[c.size()] == '.'))
        return {};
    Labels out;
    // The chain itself plus every dotted prefix: a tainted struct taints
    // its fields.
    for (const auto& [name, l] : taint_) {
      if (name.size() <= chain.size() &&
          chain.compare(0, name.size(), name) == 0 &&
          (name.size() == chain.size() || chain[name.size()] == '.'))
        out.insert(l.begin(), l.end());
    }
    return out;
  }

  Labels labels_with_children(const std::string& chain) const {
    Labels out = labels_of(chain);
    const std::string prefix = chain + ".";
    for (const auto& [name, l] : taint_)
      if (name.size() > prefix.size() &&
          name.compare(0, prefix.size(), prefix) == 0)
        out.insert(l.begin(), l.end());
    return out;
  }

  void assign(const std::string& chain, Labels labels) {
    // Strong update: overwrite the chain and drop its children, including
    // any sanitizer marks — a fresh value is whatever its source was.
    const std::string prefix = chain + ".";
    const auto under = [&](const std::string& name) {
      return name == chain || (name.size() > prefix.size() &&
                               name.compare(0, prefix.size(), prefix) == 0);
    };
    for (auto it = taint_.begin(); it != taint_.end();) {
      if (under(it->first)) it = taint_.erase(it);
      else ++it;
    }
    for (auto it = clean_.begin(); it != clean_.end();) {
      if (under(*it)) it = clean_.erase(it);
      else ++it;
    }
    if (!labels.empty()) taint_[chain] = std::move(labels);
  }

  void kill(const std::string& chain) {
    assign(chain, {});
    clean_.insert(chain);
  }

  // --- expressions and calls ----------------------------------------------

  /// Labels of the expression spanning [lo, hi): the union over every chain
  /// and call result inside it. A top-level `%` bounds the whole thing.
  Labels expr_labels(std::size_t lo, std::size_t hi) {
    int depth = 0;
    for (std::size_t k = lo; k < hi; ++k) {
      if (is_p(t_[k], "(") || is_p(t_[k], "[") || is_p(t_[k], "{")) ++depth;
      else if (is_p(t_[k], ")") || is_p(t_[k], "]") || is_p(t_[k], "}"))
        --depth;
      else if (depth == 0 && is_p(t_[k], "%"))
        return {};
    }
    Labels out;
    for (std::size_t k = lo; k < hi; ++k) {
      if (t_[k].kind != TokKind::Identifier) continue;
      if (chained(k)) {
        // Method-call name on a computed or chained receiver: evaluate it —
        // call_labels folds the owner's labels in unless the method is
        // neutral (size(), find(), ...).
        if (k + 1 < hi && is_p(t_[k + 1], "(") && !is_p(t_[k - 1], "::")) {
          const Labels r = call_labels(k, hi);
          out.insert(r.begin(), r.end());
          k = find_matching(t_, k + 1, "(", ")", hi);
        }
        continue;
      }
      std::size_t after = k;
      const std::string chain = read_chain(k, hi, after);
      if (after < hi && is_p(t_[after], "(")) {
        const Labels r = call_labels(k, hi);
        out.insert(r.begin(), r.end());
        k = find_matching(t_, after, "(", ")", hi);
        continue;
      }
      // Chain stopping before a method call contributes nothing here: the
      // method name itself is dispatched above and decides whether the
      // receiver's labels pass through.
      if (after < hi && (is_p(t_[after], ".") || is_p(t_[after], "->")) &&
          after + 2 < hi && t_[after + 1].kind == TokKind::Identifier &&
          is_p(t_[after + 2], "(")) {
        k = after;
        continue;
      }
      const Labels l = labels_of(chain);
      out.insert(l.begin(), l.end());
      k = after > k ? after - 1 : k;
    }
    return out;
  }

  /// Splits the argument list of the call whose name token chain starts at
  /// `j` into top-level ranges. Returns the closing ')' index via `close`.
  std::vector<std::pair<std::size_t, std::size_t>> arg_ranges(
      std::size_t open, std::size_t end, std::size_t& close) {
    std::vector<std::pair<std::size_t, std::size_t>> args;
    close = find_matching(t_, open, "(", ")", end);
    if (close >= end || close <= open + 1) return args;
    std::size_t b = open + 1;
    int depth = 0;
    for (std::size_t k = open + 1; k <= close; ++k) {
      if (is_p(t_[k], "(") || is_p(t_[k], "[") || is_p(t_[k], "{")) ++depth;
      else if (is_p(t_[k], ")") || is_p(t_[k], "]") || is_p(t_[k], "}"))
        --depth;
      if ((k == close && depth < 0) || (depth == 0 && is_p(t_[k], ","))) {
        args.emplace_back(b, k);
        b = k + 1;
      }
    }
    return args;
  }

  /// Labels produced by `Type name(args)` initializers — the union of the
  /// argument labels.
  Labels args_labels(std::size_t open, std::size_t end) {
    std::size_t close = end;
    Labels out;
    for (const auto& [lo, hi] : arg_ranges(open, end, close)) {
      const Labels l = expr_labels(lo, hi);
      out.insert(l.begin(), l.end());
    }
    return out;
  }

  /// The root chain of an argument expression (for out-param tainting):
  /// the first identifier chain after stripping `&`/`*`/casts.
  std::string arg_root(std::size_t lo, std::size_t hi) const {
    for (std::size_t k = lo; k < hi; ++k) {
      if (t_[k].kind == TokKind::Identifier && !chained(k) &&
          t_[k].text != "static_cast" && t_[k].text != "const_cast" &&
          t_[k].text != "reinterpret_cast") {
        std::size_t after = k;
        return read_chain(k, hi, after);
      }
    }
    return "";
  }

  /// Substitutes a callee summary label set into this caller's context.
  Labels map_labels(const Labels& callee_labels,
                    const std::vector<Labels>& arg_l) {
    Labels out;
    for (int l : callee_labels) {
      if (l == kSrc) {
        out.insert(kSrc);
      } else if (l >= 0 && static_cast<std::size_t>(l) < arg_l.size()) {
        out.insert(arg_l[l].begin(), arg_l[l].end());
      }
    }
    return out;
  }

  /// Evaluates the call whose name identifier is at `j` (t_[j+1] == "(").
  /// Performs source/ sink/summary side effects once per site per walk and
  /// returns the result's labels.
  Labels call_labels(std::size_t j, std::size_t end) {
    const std::string& name = t_[j].text;
    std::size_t close = end;
    const auto args = arg_ranges(j + 1, end, close);
    std::vector<Labels> arg_l(args.size());
    for (std::size_t a = 0; a < args.size(); ++a)
      arg_l[a] = expr_labels(args[a].first, args[a].second);

    const bool member = j >= 1 && (is_p(t_[j - 1], ".") || is_p(t_[j - 1], "->"));
    std::string owner;
    Labels owner_l;
    if (member) {
      // Walk back over the owner chain to its root identifier.
      std::size_t k = j - 1;
      std::vector<std::string> rev;
      while (k >= 1 && (is_p(t_[k], ".") || is_p(t_[k], "->"))) {
        std::size_t m = k - 1;
        if (is_p(t_[m], "]")) {  // owner ends in a subscript: skip it
          int depth = 0;
          while (m > 0) {
            if (is_p(t_[m], "]")) ++depth;
            else if (is_p(t_[m], "[") && --depth == 0) break;
            --m;
          }
          if (m == 0) break;
          --m;
        }
        if (t_[m].kind != TokKind::Identifier) break;
        rev.push_back(t_[m].text);
        if (m == 0) break;
        k = m - 1;
      }
      for (auto it = rev.rbegin(); it != rev.rend(); ++it)
        owner += (owner.empty() ? "" : ".") + *it;
      if (!owner.empty()) owner_l = labels_of(owner);
    }

    // Sources: the buffer argument of a recv-style call becomes tainted.
    if (const auto src = kSourceBufArg.find(name);
        src != kSourceBufArg.end() && src->second < args.size()) {
      const std::string root =
          arg_root(args[src->second].first, args[src->second].second);
      if (!root.empty()) {
        Labels l = labels_of(root);
        l.insert(kSrc);
        taint_[root] = std::move(l);
      }
      return {};  // the returned byte count is bounded by the request
    }

    // Allocation-count sinks on the receiver.
    if (member && !args.empty()) {
      const bool alloc = kAllocSinks.count(name) != 0;
      const bool assign_n = name == "assign" && args.size() >= 2;
      if ((alloc || assign_n) && !arg_l[0].empty())
        sink(owner + "." + name + "' (allocation count)", arg_l[0],
             t_[j].line);
    }
    if (!member && (name == "open" || name == "fopen" || name == "ofstream" ||
                    name == "ifstream") &&
        !args.empty()) {
      Labels all;
      for (const Labels& l : arg_l) all.insert(l.begin(), l.end());
      if (!all.empty())
        sink(name + "' (file path construction)", all, t_[j].line);
    }

    if (member && kNeutralMethods.count(name) != 0) return {};
    if (!member && kNeutralFree.count(name) != 0) return {};

    // Resolved callees: substitute their summaries.
    const auto ci = call_by_token_.find(j);
    const std::vector<std::size_t>* cands = nullptr;
    if (ci != call_by_token_.end()) {
      const auto rit = resolved_.find({i_, ci->second});
      if (rit != resolved_.end()) cands = &rit->second;
    }
    Labels result;
    if (cands != nullptr && !cands->empty()) {
      for (std::size_t k : *cands) {
        const TaintSummary& s = sums_[k];
        const Labels r = map_labels(s.ret, arg_l);
        result.insert(r.begin(), r.end());
        for (const auto& [pos, l] : s.taints) {
          if (pos >= args.size()) continue;
          const std::string root =
              arg_root(args[pos].first, args[pos].second);
          if (root.empty()) continue;
          const Labels mapped = map_labels(l, arg_l);
          taint_[root].insert(mapped.begin(), mapped.end());
          if (taint_[root].empty()) taint_.erase(root);
        }
        for (const auto& [pos, desc] : s.sinks) {
          if (pos >= arg_l.size() || arg_l[pos].empty()) continue;
          sink(name + "' -> '" + desc, arg_l[pos], t_[j].line);
        }
      }
    } else {
      // Unknown callee: conservative pass-through of the arguments.
      for (const Labels& l : arg_l) result.insert(l.begin(), l.end());
    }
    // A method invoked on a tainted receiver yields tainted data (field
    // accessors, as_string(), parse-style decoders).
    result.insert(owner_l.begin(), owner_l.end());
    return result;
  }

  // --- statement-level handlers -------------------------------------------

  void handle_return(std::size_t j, std::size_t end) {
    const std::size_t e = stmt_end(j + 1, end);
    Labels l = expr_labels(j + 1, e);
    // Returning a struct returns its fields: fold in children of a plain
    // returned chain.
    if (j + 1 < e && t_[j + 1].kind == TokKind::Identifier) {
      std::size_t after = j + 1;
      const std::string chain = read_chain(j + 1, e, after);
      if (after >= e) {
        const Labels c = labels_with_children(chain);
        l.insert(c.begin(), c.end());
      }
    }
    sums_[i_].ret.insert(l.begin(), l.end());
  }

  void handle_new(std::size_t j, std::size_t end) {
    // `new T[count]`: the count is an allocation sink.
    std::size_t k = j + 1;
    while (k < end && (t_[k].kind == TokKind::Identifier || is_p(t_[k], "::") ||
                       is_p(t_[k], "<") || is_p(t_[k], ">")))
      ++k;
    if (k >= end || !is_p(t_[k], "[")) return;
    const std::size_t close = find_matching(t_, k, "[", "]", end);
    const Labels l = expr_labels(k + 1, close);
    if (!l.empty()) sink(std::string("new[]' (allocation count)"), l, t_[j].line);
  }

  void check_subscript(std::size_t j, std::size_t end) {
    if (j == 0) return;
    const Token& prev = t_[j - 1];
    const bool indexable = prev.kind == TokKind::Identifier ||
                           is_p(prev, "]") || is_p(prev, ")");
    if (!indexable) return;
    const std::size_t close = find_matching(t_, j, "[", "]", end);
    const Labels l = expr_labels(j + 1, close);
    if (!l.empty()) sink(std::string("operator[]' (array index)"), l,
                         t_[j].line);
  }

  /// Comparisons: inside a loop condition a tainted bound is a sink; in
  /// straight-line code a comparison against a recognizable bound kills the
  /// compared chain's taint from here on.
  void handle_loop_condition(std::size_t j, std::size_t end) {
    const std::size_t open = j + 1;
    const std::size_t close = find_matching(t_, open, "(", ")", end);
    std::size_t lo = open + 1, hi = close;
    if (t_[j].text == "for") {
      // Condition = between the first and second ';' at depth 1.
      std::size_t first = close, second = close;
      int depth = 0;
      for (std::size_t k = open; k < close; ++k) {
        if (is_p(t_[k], "(") || is_p(t_[k], "[") || is_p(t_[k], "{")) ++depth;
        else if (is_p(t_[k], ")") || is_p(t_[k], "]") || is_p(t_[k], "}"))
          --depth;
        else if (depth == 1 && is_p(t_[k], ";")) {
          if (first == close) {
            first = k;
          } else {
            second = k;
            break;
          }
        }
      }
      if (first == close) return;  // range-for: bounded by a materialized set
      lo = first + 1;
      hi = second;
    }
    for (std::size_t k = lo; k < hi; ++k) {
      if (!is_cmp(t_[k])) continue;
      loop_cmp_.insert(k);
      apply_comparison(k, hi, /*loop_bound=*/true);
    }
  }

  void apply_comparison(std::size_t k, std::size_t end, bool loop_bound) {
    if (!loop_bound && loop_cmp_.count(k) != 0) return;  // already handled
    // Left chain: walk back to the root of the chain ending at k-1.
    std::string left, right;
    if (k >= 1 && (t_[k - 1].kind == TokKind::Identifier || is_p(t_[k - 1], ")"))) {
      std::size_t root = k - 1;
      if (t_[root].kind == TokKind::Identifier) {
        while (root >= 2 && (is_p(t_[root - 1], ".") || is_p(t_[root - 1], "->")) &&
               t_[root - 2].kind == TokKind::Identifier)
          root -= 2;
        std::size_t after = root;
        left = read_chain(root, k, after);
      }
    }
    bool right_sized = false, right_num = false;
    if (k + 1 < end && t_[k + 1].kind == TokKind::Identifier) {
      std::size_t after = k + 1;
      right = read_chain(k + 1, end, after);
      right_sized = after < end && is_p(t_[after], "(") &&
                    (right.size() >= 5 &&
                     (ends_with(right, ".size") || ends_with(right, ".length")));
    } else if (k + 1 < end && t_[k + 1].kind == TokKind::Number) {
      right_num = true;
    }
    const bool lt = is_p(t_[k], "<") || is_p(t_[k], "<=");
    const bool gt = is_p(t_[k], ">") || is_p(t_[k], ">=");
    if (loop_bound) {
      // `i < bound` / `bound > i`: the bound side is attacker-controlled?
      const std::string& bound = lt ? right : (gt ? left : "");
      if (bound.empty()) return;
      const Labels l = labels_of(bound);
      if (!l.empty())
        sink(std::string("loop bound '") + bound, l, t_[k].line);
      return;
    }
    const auto is_bound = [&](const std::string& chain, bool num, bool sized) {
      return num || sized || contains_ci(chain, "max") ||
             contains_ci(chain, "limit");
    };
    if (!left.empty() && !labels_of(left).empty() &&
        is_bound(right, right_num, right_sized))
      kill(left);
    if (!right.empty() && !labels_of(right).empty() &&
        is_bound(left, /*num=*/false, /*sized=*/false) &&
        (contains_ci(left, "max") || contains_ci(left, "limit")))
      kill(right);
  }

  static bool ends_with(const std::string& s, std::string_view suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  }

  void sink(const std::string& what, const Labels& labels, int line) {
    if (file_.directive_at("taint-ok", line, 1, true) != nullptr) return;
    if (labels.count(kSrc) != 0) {
      const std::string msg =
          "untrusted input reaches '" + what +
          " without a bound (in " + fn_.qualified +
          "); compare it against a named max_*/limit bound first or annotate "
          "// taint-ok: <reason>";
      if (emitted_.emplace(fn_.path, line, msg).second)
        findings_.push_back({fn_.path, line, "R12", msg});
    }
    for (int l : labels)
      if (l >= 0)
        sums_[i_].sinks.emplace(static_cast<std::size_t>(l), what);
  }

  const ScannedFile& file_;
  const FunctionInfo& fn_;
  std::size_t i_;
  const Tokens& t_;
  std::vector<TaintSummary>& sums_;
  const SiteCallees& resolved_;
  std::set<std::tuple<std::string, int, std::string>>& emitted_;
  std::vector<Finding>& findings_;
  std::map<std::string, Labels> taint_;
  std::set<std::string> clean_;  // sanitized chains: override prefix folding
  std::map<std::size_t, std::size_t> call_by_token_;
  std::set<std::size_t> loop_cmp_;
};

std::vector<Finding> taint_findings(const ProjectIndex& index,
                                    const SiteCallees& resolved) {
  std::vector<Finding> findings;
  const auto& fns = index.functions();
  std::vector<TaintSummary> sums(fns.size());
  std::set<std::tuple<std::string, int, std::string>> emitted;

  dataflow::solve(
      fns.size(),
      [&](std::size_t i) {
        if (!fns[i].is_definition) return false;
        const TaintSummary before = sums[i];
        TaintWalk walk(index.file(fns[i].path), fns[i], i, sums, resolved,
                       emitted, findings);
        walk.run();
        // Summaries only grow: monotone, so the solver terminates.
        TaintSummary& s = sums[i];
        s.ret.insert(before.ret.begin(), before.ret.end());
        for (const auto& [p, l] : before.taints)
          s.taints[p].insert(l.begin(), l.end());
        for (const auto& [p, d] : before.sinks) s.sinks.emplace(p, d);
        return !(s == before);
      },
      dataflow::callers(index.call_graph()));

  return findings;
}

}  // namespace

std::vector<Finding> run_dataflow_rules(const ProjectIndex& index) {
  const SiteCallees resolved = trusted_callees(index);
  std::vector<Finding> out = taint_findings(index, resolved);
  std::vector<Finding> blocking = blocking_findings(index, resolved);
  out.insert(out.end(), std::make_move_iterator(blocking.begin()),
             std::make_move_iterator(blocking.end()));
  return out;
}

}  // namespace gptc::lint
