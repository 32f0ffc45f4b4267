// dataflow — gptc-lint's generic interprocedural dataflow framework.
//
// Every cross-file rule before R12 grew its own ad-hoc fixpoint loop over
// the call graph: sync-reachability (R8) is a boolean closure, transitive
// lock sets (R7) are a set closure with per-call-site placeholder
// substitution, and the R10/R11 held-at-entry contexts are a greatest
// fixpoint with a meet over incoming call sites. This header factors the
// shared shape out:
//
//   - CallGraph: the resolved whole-program call multigraph — one node per
//     indexed function, one edge per (call site, candidate definition)
//     pair, with the caller-local call-site ordinal kept on the edge so
//     transfer functions can consult per-site context (argument identities,
//     escape comments, lambda-ness).
//   - solve(): a chaotic-iteration worklist driver. A client keeps its own
//     fact table; solve() calls `update(node)` to recompute one node's fact
//     from the current state and requeues the node's dependents whenever
//     the fact changed. Any lattice works as long as update() is monotone
//     and the lattice has finite height — the driver only sequences work.
//   - reach_closure(): bottom-up boolean reachability ("does this function
//     transitively reach X"), with a per-edge cut predicate for escape
//     comments.
//   - set_closure(): bottom-up string-set summaries with a per-edge
//     substitution hook — the PR-7 positional-placeholder mechanism ("$N"
//     lock identities resolving to caller arguments) plugs in here, and so
//     does any other context-sensitive renaming.
//
// The R12 (untrusted-input taint) and R13 (blocking-under-lock) analyses in
// dataflow.cpp are clients of the same driver: R12 runs summary-based taint
// with solve() re-analyzing a function body whenever a callee's summary
// changes; R13 is a reach_closure over a blocking-call catalogue plus a
// held-lock check at every blocking site.
#pragma once

#include <cstddef>
#include <functional>
#include <set>
#include <string>
#include <vector>

namespace gptc::lint {
struct FunctionInfo;
}

namespace gptc::lint::dataflow {

/// One resolved call edge: function `from` makes its `site`-th call (index
/// into FunctionInfo::calls) and it may bind to definition `to`. `weak`
/// marks the name-only fallback binding (member call whose owner chain the
/// index could not type): clients propagating expensive facts (blocking,
/// taint) may ignore weak edges to generic container-method names, where
/// the fallback is far more likely to have bound `v.insert(...)` to a
/// project method than to std::vector.
struct Edge {
  std::size_t from = 0;
  std::size_t to = 0;
  std::size_t site = 0;
  bool weak = false;
};

/// The resolved call multigraph over `n` function nodes. Over-approximate
/// by construction: one edge per candidate definition of each call site.
class CallGraph {
 public:
  explicit CallGraph(std::size_t n) : out_(n), in_(n) {}

  void add_edge(std::size_t from, std::size_t to, std::size_t site,
                bool weak = false) {
    out_[from].push_back({from, to, site, weak});
    in_[to].push_back({from, to, site, weak});
  }

  std::size_t size() const { return out_.size(); }

  /// Calls made by `node` (resolved candidates only).
  const std::vector<Edge>& out_edges(std::size_t node) const {
    return out_[node];
  }

  /// Call sites that may bind to `node`.
  const std::vector<Edge>& in_edges(std::size_t node) const {
    return in_[node];
  }

 private:
  std::vector<std::vector<Edge>> out_, in_;
};

/// The nodes to revisit when a node's fact changes.
using Dependents = std::function<std::vector<std::size_t>(std::size_t)>;

/// Chaotic-iteration worklist fixpoint. Seeds every node once, then
/// requeues `dependents(node)` whenever `update(node)` reports a change.
/// Terminates when no update changes anything; the caller's lattice must
/// have finite height for that to happen.
void solve(std::size_t n, const std::function<bool(std::size_t)>& update,
           const Dependents& dependents);

/// Dependents of a bottom-up fact (reachability, summaries): the callers
/// of a node, one entry per in-edge.
Dependents callers(const CallGraph& g);

/// Dependents of a top-down fact (held-at-entry contexts): the callees of
/// a node, one entry per out-edge that `keep` accepts.
Dependents callees(const CallGraph& g,
                   std::function<bool(const Edge&)> keep);

/// Bottom-up boolean reachability: node i holds when seed[i] holds or any
/// out-edge not rejected by `cut` leads to a holding node. Passing a null
/// `cut` keeps every edge.
std::vector<char> reach_closure(
    const CallGraph& g, const std::vector<char>& seed,
    const std::function<bool(const Edge&)>& cut = nullptr);

/// Bottom-up set summaries with per-edge substitution:
///   out[i] = init[i]  ∪  { subst(e, x) : e ∈ out_edges(i), x ∈ out[e.to] }
/// `subst` receives each element as it crosses a call edge and may rename
/// it with call-site context (positional placeholders) or return "" to
/// drop it.
std::vector<std::set<std::string>> set_closure(
    const CallGraph& g, std::vector<std::set<std::string>> init,
    const std::function<std::string(const Edge&, const std::string&)>& subst);

/// True for method names shared with the standard containers/strings
/// (insert, find, at, push_back, ...). A WEAK call edge to a definition
/// with such a base name is overwhelmingly more likely to be a call on a
/// std:: object than on the same-named project method; clients propagating
/// expensive facts (blocking reachability, taint, lock acquisition
/// witnesses) should refuse to cross weak edges to these names.
bool generic_method_name(const std::string& base);

/// True when fact propagation (blocking reachability, taint summaries,
/// lock sets) should refuse to cross this call edge: a weak edge to a
/// definition in `fns` with a generic_method_name base.
bool untrusted_edge(const Edge& e, const std::vector<FunctionInfo>& fns);

}  // namespace gptc::lint::dataflow
