// The shared crowd-tuning repository (paper Sec. III, Fig. 2).
//
// Manages user accounts with API keys, per-record access control
// (public / private / shared-with), tag-normalization databases for machine
// and software names, the function-evaluation store, and the analytics
// utilities of Sec. IV-B (QueryFunctionEvaluations, QuerySurrogateModel,
// QueryPredictOutput, QuerySensitivityAnalysis).
//
// The backing store is the JSON document store in src/db — the single-node
// equivalent of the paper's MongoDB deployment. open_durable() is the one
// way a repository reaches disk: it opens the store on the src/db/engine
// storage engine (write-ahead log + atomic snapshots + crash recovery) and
// declares the secondary indexes the crowd queries route through. A
// SharedRepo constructed directly is in-memory only. API keys are random
// 20-character strings; only a salted SipHash-2-4 hash is stored
// (hash_version 2), and a key document with any other version fails
// closed: it never authenticates and cannot be revoked.
#pragma once

#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/history.hpp"
#include "crowd/meta.hpp"
#include "crowd/variability.hpp"
#include "db/document_store.hpp"
#include "gp/lcm.hpp"
#include "rng/rng.hpp"
#include "sa/sobol.hpp"
#include "space/space.hpp"

namespace gptc::crowd {

/// Visibility of one uploaded record.
struct Accessibility {
  enum class Level { Public, Private, Shared };
  Level level = Level::Public;
  std::vector<std::string> shared_with;  // usernames, for Level::Shared

  json::Json to_json() const;
  static Accessibility from_json(const json::Json& j);
};

/// A function evaluation as uploaded to / downloaded from the repo.
struct EvalUpload {
  json::Json task_parameters;      // {"m": 10000, "n": 10000}
  json::Json tuning_parameters;    // {"mb": 4, ...}
  std::string output_name = "runtime";
  double output = 0.0;             // NaN = failed run (recorded as null)
  json::Json machine_configuration = json::Json::object();
  json::Json software_configuration = json::Json::object();
  Accessibility accessibility;

  /// Decodes one upload record in the wire / records-file shape
  /// ({"task_parameters": {...}, "output": 1.23, "output_name": ...}).
  /// Missing fields take defaults: output NaN (a failed run), output_name
  /// "runtime", accessibility public, configurations empty objects.
  static EvalUpload from_json(const json::Json& r);

  /// Encodes the upload in that same shape (a NaN output as null): the
  /// inverse of from_json, used by the client's upload request.
  json::Json to_json() const;
};

/// The objective value of a stored func_eval record. SharedRepo stores the
/// output as {<output_name>: value | null}, exactly one field; this reads
/// that field's value, NaN when it is null or not a number (a failed run)
/// or when the output is not such a one-field object.
double stored_output(const json::Json& record);

class SharedRepo;

/// Proof of a completed API-key authentication: carries the resolved
/// username and can only be minted by SharedRepo::authenticate_user(), so
/// an endpoint taking AuthedUser is unreachable without paying the salted
/// key hash — and taking it BY token means paying it exactly once per
/// request instead of once per layer. Copyable; the proof covers the whole
/// request it was minted for.
class AuthedUser {
 public:
  const std::string& username() const { return username_; }

 private:
  friend class SharedRepo;
  explicit AuthedUser(std::string username) : username_(std::move(username)) {}
  std::string username_;
};

class SharedRepo {
 public:
  explicit SharedRepo(std::uint64_t seed = 0x6a09e667f3bcc908ULL);

  // --- User management -----------------------------------------------------

  /// Registers a user and returns a fresh API key (shown once, like the
  /// website; only its hash is stored). Throws if the username is taken.
  std::string register_user(const std::string& username,
                            const std::string& email);

  /// Issues an additional API key for an existing user.
  std::string issue_api_key(const std::string& username);

  /// Resolves an API key to an AuthedUser proof token (carrying the
  /// username), or nullopt if invalid/revoked. The token drives
  /// upload_batch/query_where/explain_where without re-hashing the key:
  /// the server authenticates each request once and reuses the proof.
  std::optional<AuthedUser> authenticate_user(const std::string& api_key) const;

  /// Number of stored-key hash verifications performed by this process —
  /// observability for the one-hash-per-request contract (each
  /// authentication scans the key documents and hashes once per candidate).
  static std::uint64_t auth_hash_invocations();

  /// Revokes one API key. Returns false if it was not valid.
  bool revoke_api_key(const std::string& api_key);

  std::size_t num_users() const;

  // --- Tag normalization (machine / software alias databases) --------------

  void add_machine_alias(const std::string& canonical,
                         const std::vector<std::string>& aliases);

  /// Maps a user-provided tag to its canonical name (case-insensitive over
  /// the alias table); unknown tags pass through unchanged.
  std::string normalize_machine(const std::string& tag) const;
  std::string normalize_software(const std::string& tag) const;

  // --- Function evaluations -------------------------------------------------

  /// Receipt for an upload batch: the func_eval record ids plus the
  /// durability ticket (the engine WAL the commit frame lives in and its
  /// sequence; seq 0 when the repository is not durable).
  struct UploadReceipt {
    std::vector<std::int64_t> ids;
    db::engine::CommitTicket ticket;
  };

  /// Uploads a batch of evaluations under the given problem name.
  /// Machine/software names inside the configurations are normalized. The
  /// batch is atomic: the records (and any first-seen problem/machine
  /// catalog descriptors) are covered by one WAL commit frame and applied
  /// under the affected shard writer locks, so concurrent readers and
  /// crash recovery observe either none or all of the batch, and a run
  /// never lands without its problem or machine entry. Authentication
  /// happens once for the whole batch; throws std::invalid_argument on a
  /// bad API key.
  UploadReceipt upload_batch(const std::string& api_key,
                             const std::string& problem_name,
                             const std::vector<EvalUpload>& evals);

  /// Authenticated-caller form: the AuthedUser proof replaces the API key,
  /// so no key hash is paid here (the caller already authenticated).
  UploadReceipt upload_batch(const AuthedUser& user,
                             const std::string& problem_name,
                             const std::vector<EvalUpload>& evals);

  /// Blocks until every record of a receipt is durable (WAL fsync or
  /// covering snapshot). No-op for non-durable repositories. With async
  /// group commit this is where the server's upload ack waits; see
  /// db::engine::GroupCommitter.
  void wait_uploads_durable(const UploadReceipt& receipt);

  /// All records matching a meta description and visible to its API key's
  /// user, in insertion order. This is the paper's QueryFunctionEvaluations.
  /// A record matches when it belongs to the problem, holds every declared
  /// task/tuning parameter inside its range, passes the machine, software
  /// and user filters, and its output holds meta.output_name (null for a
  /// failed run); a record of another objective never matches. Throws
  /// std::invalid_argument on a bad API key.
  std::vector<json::Json> query_function_evaluations(
      const MetaDescription& meta) const;

  /// SQL-like programmable query (paper Sec. II-B): returns the records of
  /// `problem_name` visible to the user that satisfy the WHERE clause, e.g.
  ///   repo.query_where(*repo.authenticate_user(key), "pdgeqrf",
  ///       "tuning_parameters.mb >= 4 AND "
  ///       "machine_configuration.machine_name = 'Cori'");
  /// Throws QueryParseError on bad syntax.
  std::vector<json::Json> query_where(const AuthedUser& user,
                                      const std::string& problem_name,
                                      std::string_view where_clause) const;

  /// query_where without the copies: calls `fn` on each visible matching
  /// record, in insertion order, inside the store's reader locks (see
  /// db::Collection::visit — `fn` must not call into the repository or
  /// block). Returning false ends the visit.
  void visit_where(const AuthedUser& user, const std::string& problem_name,
                   std::string_view where_clause,
                   const std::function<bool(const json::Json&)>& fn) const;

  /// Query-plan introspection for a WHERE clause: parses and plans exactly
  /// the query query_where() would run and returns Collection::explain()'s
  /// report (per shard: index scan or full scan, every considered index
  /// with its selectivity estimate, which were applied, candidate counts).
  /// Requires the same authentication; throws QueryParseError on bad
  /// syntax.
  json::Json explain_where(const AuthedUser& user,
                           const std::string& problem_name,
                           std::string_view where_clause) const;

  /// Total records for a problem (any visibility) — diagnostics.
  std::size_t num_records(const std::string& problem_name) const;

  // --- Analytics utilities (Sec. IV-B) --------------------------------------

  /// Fits a single-task GP (a one-task LCM) to the queried records' finite
  /// outputs over meta.parameter_space, in insertion order; more than
  /// options.max_samples_per_task records are randomly subsampled. Throws
  /// std::runtime_error if fewer than 2 usable records match.
  gp::SurrogatePtr query_surrogate_model(
      const MetaDescription& meta, std::uint64_t seed = 0,
      const gp::LcmOptions& options = {}) const;

  /// Predicted output at one configuration (QueryPredictOutput).
  double query_predict_output(const MetaDescription& meta,
                              const space::Config& params,
                              std::uint64_t seed = 0) const;

  /// Sobol analysis of the surrogate (QuerySensitivityAnalysis).
  sa::SobolResult query_sensitivity_analysis(
      const MetaDescription& meta, std::uint64_t seed = 0,
      const sa::SobolOptions& options = {}) const;

  /// Variability diagnosis over the queried records (the paper's stated
  /// future work, implemented here): repeated measurements of the same
  /// configuration are grouped and checked for noise and outliers.
  VariabilityReport query_variability_report(
      const MetaDescription& meta,
      const VariabilityOptions& options = {}) const;

  /// Groups queried records into per-task histories for the Tuner's TLA
  /// source input: one TaskHistory per distinct task-parameter combination
  /// (failed runs included, as NaN), ordered by descending count of
  /// successful runs.
  std::vector<core::TaskHistory> query_source_histories(
      const MetaDescription& meta) const;

  // --- Persistence -----------------------------------------------------------

  /// Opens `dir` on the storage engine (WAL + snapshots + crash recovery;
  /// see src/db/engine/engine.hpp) and declares the default secondary
  /// indexes. Throws std::runtime_error on a directory of pre-engine JSON
  /// exports, which are no longer imported.
  static SharedRepo open_durable(const std::filesystem::path& dir,
                                 std::uint64_t seed = 0x6a09e667f3bcc908ULL,
                                 db::engine::EngineOptions options = {});

  /// Declares the ordered secondary indexes the crowd queries are planned
  /// against: func_eval.problem (the partition key of every repo query),
  /// func_eval."machine_configuration.machine_name", and — from the
  /// parameter names persisted in each problems-catalog descriptor — the
  /// per-problem "task_parameters.<p>" / "tuning_parameters.<p>" path
  /// indexes that let WHERE clauses narrow below the problem partition.
  /// Idempotent; indexing never changes query results, only how candidates
  /// are found.
  void declare_default_indexes();

  /// Fsync pending WAL batches / force snapshot + compaction. No-ops on an
  /// in-memory repo.
  void sync() { store_.sync(); }
  void checkpoint() { store_.checkpoint_all(); }

  const db::DocumentStore& store() const { return store_; }

 private:
  /// Adds the built-in machine/software alias entries the store lacks.
  void seed_alias_tables();
  void add_alias(const char* table, const std::string& canonical,
                 const std::vector<std::string>& aliases);
  std::string random_token(std::size_t length, std::uint64_t stream_tag);
  std::string generate_api_key();
  json::Json build_record(const std::string& user,
                          const std::string& problem_name,
                          const EvalUpload& e) const;
  bool record_visible(const json::Json& record,
                      const std::string& username) const;
  /// A meta description's filter names, normalized once per query.
  struct MetaNames {
    std::vector<std::string> machines;  // one per meta.machine_filters
    std::vector<std::string> software;  // one per meta.software_filters
  };
  MetaNames normalized_filter_names(const MetaDescription& meta) const;
  bool record_matches_meta(const json::Json& record,
                           const MetaDescription& meta,
                           const MetaNames& names) const;
  /// The one API-key check of the key-taking entry points: throws
  /// std::invalid_argument("invalid API key") when authenticate_user fails.
  AuthedUser require(const std::string& api_key) const;
  /// Catalog descriptors (problems / machine_catalog docs) this upload
  /// would introduce — empty when everything is already known.
  std::map<std::string, std::vector<json::Json>> missing_catalog_docs(
      const std::string& user, const std::string& problem_name,
      const std::vector<json::Json>& records) const;
  UploadReceipt upload_records(const std::string& user,
                               const std::string& problem_name,
                               std::vector<json::Json> records);
  /// The query visit_where actually plans for a WHERE clause:
  /// {"problem": name, "$and": [condition]} — collision-free merge with an
  /// identical match set, and the planner sees the clause's conjuncts.
  static json::Json planned_where(const std::string& problem_name,
                                  const json::Json& condition);
  /// Sorted union of parameter names ({"task"|"tuning"}_parameters object
  /// keys) across an upload batch, as stored in the problem descriptor.
  static json::Json parameter_names(const std::vector<json::Json>& records,
                                    const char* field);
  /// Appends the "task_parameters.<p>" / "tuning_parameters.<p>" index
  /// paths a problem descriptor declares.
  static void collect_index_paths(const json::Json& problem_doc,
                                  std::vector<std::string>& out);

  /// First-seen problem/machine catalog descriptors for one upload are
  /// detected and inserted atomically; this serializes the detect-and-
  /// insert window so two racing first uploads cannot both write the
  /// descriptor. Ordinary uploads (descriptors already present) skip it.
  /// Heap-held so SharedRepo stays movable (open_durable returns by value).
  std::unique_ptr<std::mutex> catalog_mu_ = std::make_unique<std::mutex>();
  // guard-ok: DocumentStore/Collection synchronize internally (shard locks)
  db::DocumentStore store_;
  // guard-ok: seeded once at construction; split() derives child streams
  // via const calls, so concurrent readers never mutate it
  rng::Rng key_rng_;
};

}  // namespace gptc::crowd
