// gptc-lint rule definitions.
//
// Per-file rules (R1–R5) enforce the determinism and thread-safety contract
// introduced with the deterministic thread pool (src/parallel/):
//
//   R1 nondeterministic-source   No std::rand/rand()/srand, no
//                                std::random_device, no *_clock::now()
//                                outside src/rng/ and tools/. All
//                                randomness must flow through rng::Rng so
//                                crowd records replay bit-for-bit.
//   R2 unordered-iteration       No iteration over std::unordered_map /
//                                std::unordered_set (range-for or
//                                .begin()/.cbegin()): bucket order is
//                                implementation-defined, so any
//                                accumulation or output ordering built
//                                from it is nondeterministic. Escape
//                                hatch: a `// lint: unordered-ok <reason>`
//                                comment on the same or preceding line.
//   R3 unindexed-capture-write   Inside a `[&]` lambda passed to
//                                parallel_for/parallel_map, no write to a
//                                captured variable that is not indexed
//                                (`x = ...` / `++x`); every parallel unit
//                                may only write its own index's slot.
//   R4 objective-in-parallel     Files under src/parallel/ must not call
//                                the user objective (evaluate/objective
//                                entry points): the substrate stays
//                                application-agnostic and the objective
//                                runs on the calling thread only.
//   R5 float-reduction           No float/double `+=`/`-=` accumulation
//                                inside a parallel_for body: FP addition
//                                is non-associative, so a shared
//                                accumulator's value depends on thread
//                                interleaving even with a lock. Reduce on
//                                the calling thread in index order.
//
// Cross-file rules (R6–R9) run only in `--cross-file` mode, against the
// whole-program ProjectIndex (see project_index.hpp):
//
//   R6 cross-tu-unordered        An unordered-container class member
//                                declared in one file (typically a header)
//                                must not be iterated from another TU — the
//                                case R2 cannot see. Same escape hatch as
//                                R2 (`// lint: unordered-ok <reason>`).
//   R7 lock-order                The acquires-while-holding graph over all
//                                indexed functions (lock A held — directly
//                                or through a call chain — when lock B is
//                                taken) must be acyclic; a cycle is a
//                                potential deadlock between two threads
//                                taking the locks in opposite orders.
//                                Escape: `// lint: lock-order-ok <reason>`
//                                on an acquisition site.
//   R8 durability                In src/db/engine/, a function that creates
//                                a file (open with O_CREAT), renames one,
//                                or creates directories must reach
//                                fsync/fdatasync/sync_parent_dir before
//                                returning — directly or through a called
//                                helper (transitive over the index's call
//                                graph). Escape: `// lint: durability-ok
//                                <reason>` on the creating line.
//   R9 noexcept-boundary         Thread entry points (callables handed to
//                                std::thread or pushed into a std::thread
//                                container) and WAL replay application
//                                sites (`apply_op` calls in functions that
//                                drive `replay_wal`) must be noexcept or
//                                wrapped in a catch-all handler — an
//                                exception escaping either boundary
//                                terminates the process with no context.
//                                Escape: `// lint: noexcept-ok <reason>`.
//
// All rules are token-level heuristics (see source_scanner.hpp): they are
// deliberately over-eager in the gray zone and rely on the allowlist
// comment plus code review for the rare legitimate exception.
#pragma once

#include <string>
#include <vector>

#include "project_index.hpp"
#include "source_scanner.hpp"

namespace gptc::lint {

struct Finding {
  std::string path;
  int line = 0;
  std::string rule;     // "R1" .. "R9"
  std::string message;  // human-readable explanation
};

/// Path-derived rule configuration for one file.
struct FileContext {
  bool rng_exempt = false;      // src/rng/ or tools/: R1 does not apply
  bool parallel_layer = false;  // src/parallel/: R4 applies
  bool engine_layer = false;    // src/db/engine/: R8 applies
};

/// Derives the context from a (possibly absolute) file path.
FileContext context_for_path(const std::string& path);

/// Runs all applicable per-file rules over one scanned file. When `index`
/// is non-null (cross-file mode), the per-file cross-TU rules R6, R8 and R9
/// run as well.
std::vector<Finding> run_rules(const ScannedFile& file, const FileContext& ctx,
                               const ProjectIndex* index = nullptr);

/// Runs the whole-program rules (R7 lock-order, R10/R11 guarded-by, R12
/// untrusted-input taint, R13 blocking-under-lock) over a finalized index.
std::vector<Finding> run_project_rules(const ProjectIndex& index);

/// R12 interprocedural untrusted-input taint tracking and R13 blocking
/// syscalls under declared guards / handler-to-snapshot reachability
/// (dataflow.cpp), over one map of resolved call sites.
std::vector<Finding> run_dataflow_rules(const ProjectIndex& index);

/// One-line-per-rule summary for `gptc-lint --list-rules`.
std::string describe_rules();

}  // namespace gptc::lint
