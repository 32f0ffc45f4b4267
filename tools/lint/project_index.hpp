// ProjectIndex — pass 1 of gptc-lint's cross-file (whole-program) mode.
//
// The per-file rules R1–R5 see one translation unit at a time, which leaves
// exactly the contracts that span TUs unchecked: an unordered container
// declared as a class member in a header and iterated from another file, a
// lock order that is consistent inside every function but inverted between
// two of them, a WAL/snapshot writer whose fsync lives in a helper two calls
// away, and a thread entry point whose noexcept promise is made in the
// header but broken in the definition. Pass 1 walks every input file once
// and records the project-wide facts those rules need:
//
//   - class members and their container kinds (unordered containers for R6,
//     mutex/shared_mutex members and std::thread containers for R7/R9, plus
//     the member's resolved type name so member-call chains like
//     `shards_.find(...)` resolve to std::map::find, not Collection::find);
//   - every function definition/declaration with its qualified name,
//     noexcept status, catch-all handler and try-block ranges, the calls it
//     makes, the locks it acquires (in order, with the enclosing scope's
//     extent), durability markers (fsync/fdatasync/sync_parent_dir) and
//     file-creation sites (O_CREAT opens, renames, create_directories);
//   - lock identities normalized to `Class::member` via the enclosing
//     class, parameter types and local declarations, so `*mu_` inside
//     Collection::insert and `*c.mu_` inside StorageEngine::checkpoint are
//     the same lock while WalWriter::mu_ stays distinct.
//
// finalize() closes the call graph: which functions transitively reach a
// durability call, which locks a call transitively acquires, and the
// acquires-while-holding edge set (lock A held when lock B is taken, either
// directly in one scope or through a call made inside A's scope) that R7's
// cycle detection runs on. It also runs the guarded-by analysis (R10/R11):
// member read/write sites are checked against interprocedurally propagated
// held-lock sets — locks held at every visible call site flow into the
// callee, requires-lock annotations state contracts at the boundary, and
// shared_mutex acquisitions carry their mode so a write under only a shared
// lock is flagged. Everything here is the same token-level heuristic
// discipline as the per-file rules: over-approximate in the gray zone,
// escape-hatch comments for the rare legitimate exception.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "dataflow.hpp"
#include "source_scanner.hpp"

namespace gptc::lint {

/// One `std::unordered_*` data member declared inside a class body.
struct UnorderedMember {
  std::string cls;        // declaring class ("" if at namespace scope)
  std::string name;       // member identifier
  std::string container;  // "unordered_map", "unordered_set", ...
  std::string path;       // declaring file
  int line = 0;
};

/// One mutex-typed data member (std::mutex / std::shared_mutex /
/// std::recursive_mutex) — the lock identities R7 reasons about.
struct MutexMember {
  std::string cls;
  std::string name;
  std::string path;
  int line = 0;
  bool shared = false;  // shared_mutex / shared_timed_mutex (R11 cares)
};

/// One lock acquisition inside a function body, in source order.
struct LockSite {
  std::string lock_id;     // normalized "Class::member" or "file::name"
  bool shared = false;     // shared_lock / lock_shared: read mode only
  int line = 0;
  std::size_t token = 0;       // index into the file's token stream
  std::size_t scope_end = 0;   // token index of the enclosing scope's '}'
  /// Deferred owner chain for mutex expressions pass 1 cannot resolve from
  /// locals alone (subscripted member chains like a shard picked out of a
  /// container). finalize() walks the chain through the project-wide member
  /// tables; sites that still do not resolve are dropped. `member` empty
  /// means lock_id was resolved definitively during pass 1.
  std::string root;                   // first chain segment ("" = this)
  std::string root_type;              // from params/locals; "" = unknown
  std::vector<std::string> segments;  // chain between root and the mutex
  std::string member;                 // final mutex member name
};

/// One member-access chain inside a function body — the read/write sites the
/// guarded-by analysis (R10/R11) checks against held-lock sets. The chain is
/// resolved against the project-wide member tables in finalize(); links that
/// do not resolve to a known class member are dropped (under-approximate).
struct MemberAccess {
  std::string root;        // first chain identifier ("" = implicit this)
  std::string root_type;   // from params/locals when the root is a variable
  bool root_is_var = false;           // root names a local/param, not a member
  std::vector<std::string> segments;  // chain after the root, incl. the last
  bool is_write = false;   // the FINAL link is written (assign/incr/mutator)
  bool in_lambda = false;  // inside a lambda body: execution is deferred
  int line = 0;
  std::size_t token = 0;
};

/// A lock a function requires (held on entry) or returns (RAII handles whose
/// lifetime is the caller's scope), from requires-lock / returns-lock
/// annotation comments.
struct LockContract {
  std::string lock_id;  // normalized "Class::member"
  bool shared = false;  // contract is satisfied by shared mode
};

/// One R10/R11 finding computed by the guard analysis in finalize().
struct GuardFinding {
  std::string path;
  int line = 0;
  std::string rule;  // "R10" or "R11"
  std::string message;
};

/// One call expression inside a function body. For member calls the owner
/// chain (`shard.wal->append(...)` -> root "shard", segments {"wal"}) is
/// recorded; the root's type is resolved from parameter/local declarations
/// during pass 1 and the remaining member steps against the project-wide
/// member tables in finalize().
struct CallSite {
  std::string name;            // base (unqualified) callee name
  bool member_call = false;    // preceded by '.' or '->'
  /// The qualifier spelled before the name: "" (unqualified), "::" (the
  /// global namespace, `::select(...)`), or the joined segments ("std",
  /// "std::chrono", "Collection"). A templated segment (`Foo<T>::bar`)
  /// ends the walk, so such a call reads as unqualified.
  std::string qualifier;
  std::string owner_root;      // first chain segment ("" for non-chains)
  std::string owner_root_type;     // from params/locals; "" if unknown
  std::vector<std::string> owner_segments;  // chain between root and callee
  /// Per-argument normalized lock identity ("" when the argument is not a
  /// recognizable mutex expression). Position-aligned with the callee's
  /// parameter list so `$N` placeholder locks resolve at the call site.
  std::vector<std::string> arg_lock_ids;
  int line = 0;
  std::size_t token = 0;
  std::size_t scope_end = 0;  // enclosing scope's '}' (returns-lock lifetime)
  bool in_lambda = false;     // inside a lambda body: execution is deferred
};

/// A file-creating or renaming operation (R8's durability triggers).
struct CreateSite {
  std::string what;  // "open(O_CREAT)", "rename", "create_directories"
  int line = 0;
};

/// A try-block's token extent plus whether a catch(...) follows it.
struct TryRange {
  std::size_t begin = 0;  // '{' of the try block
  std::size_t end = 0;    // matching '}'
  bool catch_all = false;
};

struct FunctionInfo {
  std::string qualified;  // "WalWriter::append", "parallel_for", ...
  std::string base;       // "append"
  std::string cls;        // "WalWriter" ("" for free functions)
  std::string path;
  int line = 0;
  bool is_definition = false;
  bool is_noexcept = false;     // on this decl/def; merged view in index
  bool has_catch_all = false;   // body contains `catch (...)`
  bool contains_sync = false;   // fsync / fdatasync / sync_parent_dir
  std::size_t body_begin = 0;   // '{' token index (definitions only)
  std::size_t body_end = 0;     // matching '}'
  /// Mutex-typed parameters, name -> position in the parameter list. Locks
  /// taken on one of these get the placeholder id `$<position>` instead of a
  /// class-qualified name; finalize() substitutes the caller's argument
  /// identity at every call site, so helpers that receive mutexes by
  /// reference no longer conflate (or hide) their callers' lock orders.
  std::map<std::string, std::size_t> mutex_params;
  /// All parameter names in declaration order ("" for unrecognized slots),
  /// so the taint analysis can seed positional labels (definitions only).
  std::vector<std::string> param_names;
  std::vector<LockSite> locks;
  std::vector<CallSite> calls;
  std::vector<CreateSite> creates;
  std::vector<TryRange> tries;
  std::vector<MemberAccess> accesses;
  std::vector<LockContract> requires_locks;  // requires-lock annotations
  std::vector<LockContract> returns_locks;   // returns-lock annotations
  /// Function-level guard-ok annotation: the whole body is exempt from the
  /// guard analysis (single-threaded setup/recovery paths).
  bool guard_exempt = false;
  /// Function-level blocking-ok annotation: callers treat this function as
  /// non-blocking and outside the snapshot/compaction reachability set
  /// (R13); its own body is still checked, so the escape documents an
  /// accepted cost at the boundary without silencing new hazards inside.
  bool blocking_exempt = false;
  /// Lambda body token extents inside this definition: accesses and calls in
  /// them run deferred, so held-lock reasoning is restricted to locks whose
  /// scope textually contains the site.
  std::vector<std::pair<std::size_t, std::size_t>> lambdas;
};

/// One acquires-while-holding edge witness for R7.
struct LockEdgeWitness {
  std::string path;
  int line = 0;            // where the second lock (or the call) is taken
  std::string function;    // qualified name of the holder
  std::string detail;      // human-readable "A then B (via call to f)" text
  bool suppressed = false;     // a `// lint: lock-order-ok` covers the site
};

class ProjectIndex {
 public:
  /// Pass 1 over one scanned file. Order of add_file calls does not affect
  /// the index contents (all derived state is built in finalize()). The
  /// index keeps a pointer to `file`, which must outlive it.
  void add_file(const ScannedFile& file);

  /// Builds the derived state: call-graph closures (sync-reaching, lock
  /// sets) and the acquires-while-holding edge list. Call once, after every
  /// add_file.
  void finalize();

  // --- pass-2 queries ------------------------------------------------------

  const std::vector<UnorderedMember>& unordered_members() const {
    return unordered_members_;
  }
  const std::vector<MutexMember>& mutex_members() const {
    return mutex_members_;
  }

  /// Functions defined in `path`, in source order.
  std::vector<const FunctionInfo*> functions_in(const std::string& path) const;

  /// All declarations/definitions of base name `base`.
  std::vector<const FunctionInfo*> functions_named(
      const std::string& base) const;

  /// True when any decl/def of `qualified` is marked noexcept (noexcept on
  /// either the header declaration or the out-of-line definition counts).
  bool is_noexcept(const std::string& qualified) const;

  /// True when any definition of `qualified` contains a catch-all handler.
  bool has_catch_all(const std::string& qualified) const;

  /// True when some function with this base name transitively reaches
  /// fsync/fdatasync/sync_parent_dir (union over same-named functions —
  /// over-approximate by design).
  bool reaches_sync(const std::string& base) const;

  /// Member names of std::thread containers (e.g. `workers_` for a
  /// `std::vector<std::thread>` member) — R9's launch-site anchors.
  bool is_thread_member(const std::string& name) const {
    return thread_members_.count(name) != 0;
  }

  /// True when `name` is a class/struct seen anywhere in the project.
  bool is_project_class(const std::string& name) const {
    return classes_.count(name) != 0;
  }

  /// The acquires-while-holding graph: edge (A -> B) with its witnesses.
  const std::map<std::pair<std::string, std::string>,
                 std::vector<LockEdgeWitness>>&
  lock_edges() const {
    return lock_edges_;
  }

  /// Lock ids (transitively) acquired by functions with this base name.
  std::set<std::string> locks_of(const std::string& base) const;

  /// R10/R11 findings from the guard analysis, computed in finalize().
  const std::vector<GuardFinding>& guard_findings() const {
    return guard_findings_;
  }

  // --- dataflow-rule queries (R12/R13), available after finalize() ---------

  /// Every indexed function, addressable by node index — the node space of
  /// call_graph() and of the held-set queries below.
  const std::vector<FunctionInfo>& functions() const { return functions_; }

  /// The resolved whole-program call multigraph (one edge per call site ×
  /// candidate definition), shared by every interprocedural fixpoint.
  const dataflow::CallGraph& call_graph() const { return graph_; }

  /// Lock identities that appear as the guard in any guarded-by annotation
  /// — the mutexes R13's blocking-under-lock check is scoped to.
  std::set<std::string> declared_guards() const;

  /// Lock ids held in exclusive mode at token `tok` of function `fn`:
  /// locally scoped acquisitions plus (unless `local_only`, used for sites
  /// inside lambda bodies) the interprocedurally propagated entry context.
  /// An unconstrained entry context contributes nothing — the check only
  /// fires on positive evidence.
  std::set<std::string> held_exclusive_at(std::size_t fn, std::size_t tok,
                                          bool local_only = false) const;

  /// The most recently acquired lock still held at `tok` ("" when none) —
  /// a condition_variable wait releases exactly this one.
  std::string innermost_held_at(std::size_t fn, std::size_t tok) const;

  /// Raw identifiers of a member's declared type (nullptr when unknown), so
  /// rules can recognize std types the resolved-class table maps to "!"
  /// (e.g. a condition_variable member behind a cv.wait call).
  const std::vector<std::string>* member_decl_type_ids(
      const std::string& cls, const std::string& member) const;

  /// The scanned file `path` was indexed from: its tokens and its escape
  /// comments (ScannedFile::directive_at).
  const ScannedFile& file(const std::string& path) const;

 private:
  friend class IndexBuilder;

  std::map<std::string, const ScannedFile*> files_;  // path -> scan
  std::vector<FunctionInfo> functions_;
  std::vector<UnorderedMember> unordered_members_;
  std::vector<MutexMember> mutex_members_;
  std::set<std::string> classes_;
  std::set<std::string> thread_members_;
  /// class -> member -> identifiers appearing in the declared type. Resolved
  /// against the full class list in finalize() (the declaring header and the
  /// class definition may be different files than the use site).
  std::map<std::string, std::map<std::string, std::vector<std::string>>>
      member_type_ids_;
  /// class -> member -> resolved type ("!" = known non-project type).
  std::map<std::string, std::map<std::string, std::string>> member_types_;
  /// class -> member -> normalized guard lock id, from guarded-by
  /// annotations on member declarations.
  std::map<std::string, std::map<std::string, std::string>> guarded_by_;
  /// "Class::member" keys whose declaration carries a guard-ok escape: the
  /// member is exempt from the guard analysis entirely.
  std::set<std::string> member_guard_ok_;

  // Derived in finalize():
  std::map<std::string, std::vector<std::size_t>> by_base_;
  std::map<std::string, std::vector<std::size_t>> by_path_;
  std::set<std::string> sync_reaching_;  // base names
  std::map<std::string, std::set<std::string>> lock_closure_;  // base -> ids
  std::map<std::pair<std::string, std::string>,
           std::vector<LockEdgeWitness>>
      lock_edges_;
  std::vector<GuardFinding> guard_findings_;
  /// Resolved call multigraph over functions_ (built in finalize()).
  dataflow::CallGraph graph_{0};
  /// Per-function lock sites including RAII handles from returns-lock
  /// callees, and the greatest-fixpoint held-at-entry contexts — persisted
  /// for the R13 held-set queries.
  struct HeldSet {
    bool top = false;
    std::map<std::string, bool> ids;  // lock id -> held exclusive
  };
  std::vector<std::vector<LockSite>> eff_locks_;
  std::vector<HeldSet> entry_;
  std::vector<char> exempt_;
};

}  // namespace gptc::lint
