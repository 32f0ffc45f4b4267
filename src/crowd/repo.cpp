#include "crowd/repo.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "crowd/envparse.hpp"
#include "crowd/query_language.hpp"
#include "db/engine/checksum.hpp"
#include "db/engine/siphash.hpp"

namespace gptc::crowd {

using json::Json;

json::Json Accessibility::to_json() const {
  switch (level) {
    case Level::Public: return Json("public");
    case Level::Private: return Json("private");
    case Level::Shared: {
      Json j = Json::object();
      Json list = Json::array();
      for (const auto& u : shared_with) list.push_back(u);
      j["shared_with"] = std::move(list);
      return j;
    }
  }
  return Json("public");
}

Accessibility Accessibility::from_json(const Json& j) {
  Accessibility a;
  if (j.is_string()) {
    a.level = j.as_string() == "private" ? Level::Private : Level::Public;
  } else if (j.is_object() && j.contains("shared_with")) {
    a.level = Level::Shared;
    for (const auto& u : j.at("shared_with").as_array())
      a.shared_with.push_back(u.as_string());
  }
  return a;
}

EvalUpload EvalUpload::from_json(const Json& r) {
  EvalUpload e;
  e.task_parameters = r.get_or("task_parameters", Json::object());
  e.tuning_parameters = r.get_or("tuning_parameters", Json::object());
  e.output_name = r.get_or("output_name", Json("runtime")).as_string();
  const Json out = r.get_or("output", Json(nullptr));
  e.output = out.is_number() ? out.as_double()
                             : std::numeric_limits<double>::quiet_NaN();
  e.machine_configuration = r.get_or("machine_configuration", Json::object());
  e.software_configuration =
      r.get_or("software_configuration", Json::object());
  e.accessibility =
      Accessibility::from_json(r.get_or("accessibility", Json("public")));
  return e;
}

Json EvalUpload::to_json() const {
  Json r = Json::object();
  r["task_parameters"] = task_parameters;
  r["tuning_parameters"] = tuning_parameters;
  r["output_name"] = output_name;
  r["output"] = std::isnan(output) ? Json(nullptr) : Json(output);
  r["machine_configuration"] = machine_configuration;
  r["software_configuration"] = software_configuration;
  r["accessibility"] = accessibility.to_json();
  return r;
}

double stored_output(const Json& record) {
  const Json* output = db::lookup_path(record, "output");
  if (!output || !output->is_object() || output->size() != 1)
    return std::numeric_limits<double>::quiet_NaN();
  const Json& v = output->as_object().begin()->second;
  return v.is_number() ? v.as_double()
                       : std::numeric_limits<double>::quiet_NaN();
}

SharedRepo::SharedRepo(std::uint64_t seed)
    : key_rng_(rng::splitmix64(seed ^ 0x243f6a8885a308d3ULL)) {
  seed_alias_tables();
}

void SharedRepo::seed_alias_tables() {
  // The machines/software the paper's experiments use; deployments add
  // their own via add_*_alias. An entry whose canonical name is already
  // present is skipped, so reopening a durable repository writes nothing.
  const auto seed = [&](const char* table, const std::string& canonical,
                        const std::vector<std::string>& aliases) {
    Json q = Json::object();
    q["canonical"] = canonical;
    if (!store_.collection(table).exists(q))
      add_alias(table, canonical, aliases);
  };
  seed("machines", "Cori", {"cori", "cori-nersc", "CoriHaswell"});
  seed("software", "gcc", {"GCC", "gnu-gcc"});
  seed("software", "cray-mpich", {"CrayMPICH", "craympich"});
  seed("software", "scalapack", {"ScaLAPACK"});
  seed("software", "superlu-dist", {"SuperLU_DIST", "superlu_dist"});
  seed("software", "hypre", {"Hypre", "HYPRE"});
  seed("software", "nimrod", {"NIMROD"});
}

std::string SharedRepo::random_token(std::size_t length,
                                     std::uint64_t stream_tag) {
  static constexpr char kAlphabet[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
  // Salt the stream with persistent store state (how many keys exist), so a
  // reloaded repository never re-mints a previously issued key: without
  // this, two `crowdctl register` runs against the same directory would
  // derive identical keys from the freshly seeded generator. stream_tag
  // separates the API-key stream from the hash-salt stream.
  const auto* keys = store_.find_collection("api_keys");
  rng::Rng stream = key_rng_.split(
      (keys ? static_cast<std::uint64_t>(keys->size()) : 0) * 2 + stream_tag);
  std::string token(length, '\0');
  for (char& c : token)
    c = kAlphabet[static_cast<std::size_t>(
        stream.uniform_int(0, sizeof(kAlphabet) - 2))];
  return token;
}

std::string SharedRepo::generate_api_key() { return random_token(20, 0); }

namespace {

/// Salted SipHash-2-4 of an API key, stored as 16 hex digits (the current
/// hash_version 2 format).
std::string hash_api_key_v2(const std::string& salt,
                            const std::string& api_key) {
  return db::engine::hex64(db::engine::siphash24(
      db::engine::siphash_key_from_salt(salt), api_key));
}

/// Process-wide count of stored-key hash verifications; the server tests
/// assert one per request (the AuthedUser proof token elides re-hashing).
std::atomic<std::uint64_t> g_auth_hash_invocations{0};

/// Verifies an API key against one stored key document. Only hash_version 2
/// (salted SipHash-2-4) documents can match; any other version fails
/// closed.
bool key_doc_matches(const Json& doc, const std::string& api_key) {
  if (doc.get_or("hash_version", Json(0)).as_int() != 2) return false;
  g_auth_hash_invocations.fetch_add(1, std::memory_order_relaxed);
  return doc.get_or("key_hash", Json("")).as_string() ==
         hash_api_key_v2(doc.get_or("key_salt", Json("")).as_string(),
                         api_key);
}

/// The live key document an API key verifies against.
struct KeyDoc {
  std::int64_t id;
  std::string username;
};

/// Salted hashes cannot be equality-queried (each document has its own
/// salt), so verification walks the key documents in insertion order,
/// skipping revoked ones and stopping at the first match — the collection
/// holds one document per issued key, not per record.
std::optional<KeyDoc> find_key_doc(const db::Collection& keys,
                                   const std::string& api_key) {
  std::optional<KeyDoc> found;
  keys.visit(Json::object(), [&](const Json& doc) {
    if (doc.get_or("revoked", Json(false)).as_bool()) return true;
    if (!key_doc_matches(doc, api_key)) return true;
    found = KeyDoc{doc.at("_id").as_int(), doc.at("username").as_string()};
    return false;
  });
  return found;
}

}  // namespace

std::string SharedRepo::register_user(const std::string& username,
                                      const std::string& email) {
  auto& users = store_.collection("users");
  Json q = Json::object();
  q["username"] = username;
  if (users.count(q) > 0)
    throw std::invalid_argument("register_user: username taken: " + username);
  Json doc = Json::object();
  doc["username"] = username;
  doc["email"] = email;
  users.insert(std::move(doc));
  return issue_api_key(username);
}

std::string SharedRepo::issue_api_key(const std::string& username) {
  auto& users = store_.collection("users");
  Json q = Json::object();
  q["username"] = username;
  if (users.count(q) == 0)
    throw std::invalid_argument("issue_api_key: unknown user: " + username);
  const std::string key = generate_api_key();
  const std::string salt = random_token(16, 1);
  Json doc = Json::object();
  doc["username"] = username;
  // Only the salted hash is stored; the plaintext key exists solely in the
  // return value, mirroring the website's show-once behaviour. The format
  // is versioned; key_doc_matches accepts version 2 only.
  doc["hash_version"] = 2;
  doc["key_salt"] = salt;
  doc["key_hash"] = hash_api_key_v2(salt, key);
  doc["revoked"] = false;
  store_.collection("api_keys").insert(std::move(doc));
  return key;
}

std::optional<AuthedUser> SharedRepo::authenticate_user(
    const std::string& api_key) const {
  const auto* keys = store_.find_collection("api_keys");
  if (!keys) return std::nullopt;
  auto key = find_key_doc(*keys, api_key);
  if (!key) return std::nullopt;
  return AuthedUser(std::move(key->username));
}

AuthedUser SharedRepo::require(const std::string& api_key) const {
  auto user = authenticate_user(api_key);
  if (!user) throw std::invalid_argument("invalid API key");
  return std::move(*user);
}

std::uint64_t SharedRepo::auth_hash_invocations() {
  return g_auth_hash_invocations.load(std::memory_order_relaxed);
}

bool SharedRepo::revoke_api_key(const std::string& api_key) {
  auto& keys = store_.collection("api_keys");
  const auto key = find_key_doc(keys, api_key);
  if (!key) return false;
  Json q = Json::object();
  q["_id"] = key->id;
  Json upd = Json::object();
  upd["revoked"] = true;
  return keys.update(q, upd) > 0;
}

std::size_t SharedRepo::num_users() const {
  const auto* users = store_.find_collection("users");
  return users ? users->size() : 0;
}

void SharedRepo::add_machine_alias(const std::string& canonical,
                                   const std::vector<std::string>& aliases) {
  add_alias("machines", canonical, aliases);
}

void SharedRepo::add_alias(const char* table, const std::string& canonical,
                           const std::vector<std::string>& aliases) {
  Json doc = Json::object();
  doc["canonical"] = canonical;
  Json list = Json::array();
  for (const auto& a : aliases) list.push_back(a);
  doc["aliases"] = std::move(list);
  store_.collection(table).insert(std::move(doc));
}

namespace {

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// The integer an uploaded number holds (8 and 8.0 alike); nullopt for a
/// non-number or a fractional value, where Json::as_int would throw.
std::optional<std::int64_t> integral(const Json& v) {
  if (v.is_int()) return v.as_int();
  if (!v.is_double()) return std::nullopt;
  const double d = v.as_double();
  if (std::nearbyint(d) != d || std::abs(d) >= 9.0e18) return std::nullopt;
  return static_cast<std::int64_t>(d);
}

std::string normalize_with(const db::Collection* table,
                           const std::string& tag) {
  if (!table) return tag;
  const std::string needle = lower(tag);
  std::string canonical;
  table->visit(Json::object(), [&](const Json& doc) {
    if (lower(doc.at("canonical").as_string()) == needle) {
      canonical = doc.at("canonical").as_string();
      return false;
    }
    for (const auto& alias : doc.at("aliases").as_array())
      if (lower(alias.as_string()) == needle) {
        canonical = doc.at("canonical").as_string();
        return false;
      }
    return true;
  });
  return canonical.empty() ? tag : canonical;
}

}  // namespace

std::string SharedRepo::normalize_machine(const std::string& tag) const {
  return normalize_with(store_.find_collection("machines"), tag);
}

std::string SharedRepo::normalize_software(const std::string& tag) const {
  return normalize_with(store_.find_collection("software"), tag);
}

json::Json SharedRepo::build_record(const std::string& user,
                                    const std::string& problem_name,
                                    const EvalUpload& e) const {
  Json record = Json::object();
  record["problem"] = problem_name;
  record["user"] = user;
  record["accessibility"] = e.accessibility.to_json();
  record["task_parameters"] = e.task_parameters;
  record["tuning_parameters"] = e.tuning_parameters;
  Json out = Json::object();
  out[e.output_name] =
      std::isfinite(e.output) ? Json(e.output) : Json(nullptr);
  record["output"] = std::move(out);

  // Normalize machine/software tags before storing (Sec. III: "the shared
  // database internally parses the user provided information to match the
  // tag names").
  Json machine = e.machine_configuration;
  if (machine.contains("machine_name"))
    machine["machine_name"] =
        normalize_machine(machine.at("machine_name").as_string());
  record["machine_configuration"] = std::move(machine);

  Json software = Json::object();
  if (e.software_configuration.is_object()) {
    for (const auto& [name, spec] : e.software_configuration.as_object())
      software[normalize_software(name)] = spec;
  }
  record["software_configuration"] = std::move(software);
  return record;
}

Json SharedRepo::parameter_names(const std::vector<Json>& records,
                                 const char* field) {
  std::vector<std::string> names;
  for (const auto& r : records) {
    const Json* params = db::lookup_path(r, field);
    if (!params || !params->is_object()) continue;
    for (const auto& [name, v] : params->as_object()) {
      (void)v;
      if (std::find(names.begin(), names.end(), name) == names.end())
        names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  Json out = Json::array();
  for (auto& n : names) out.push_back(std::move(n));
  return out;
}

std::map<std::string, std::vector<Json>> SharedRepo::missing_catalog_docs(
    const std::string& user, const std::string& problem_name,
    const std::vector<Json>& records) const {
  // The catalog collections are indexed on their name field, so each
  // presence probe plans an index scan over one posting list and stops at
  // the first match.
  std::map<std::string, std::vector<Json>> docs;
  Json pq = Json::object();
  pq["name"] = problem_name;
  const auto* problems = store_.find_collection("problems");
  if (!problems || !problems->exists(pq)) {
    Json doc = Json::object();
    doc["name"] = problem_name;
    doc["first_user"] = user;
    // Union of parameter names across the batch. These drive the
    // per-problem path indexes ("tuning_parameters.<p>", ...) the query
    // planner ranges over, and persisting them in the descriptor lets
    // declare_default_indexes() re-declare the indexes on reopen (index
    // definitions themselves are in-memory only).
    doc["task_parameters"] = parameter_names(records, "task_parameters");
    doc["tuning_parameters"] = parameter_names(records, "tuning_parameters");
    docs["problems"].push_back(std::move(doc));
  }
  std::vector<std::string> seen;
  for (const auto& r : records) {
    const Json* mn = db::lookup_path(r, "machine_configuration.machine_name");
    if (!mn || !mn->is_string()) continue;
    const std::string& name = mn->as_string();
    if (std::find(seen.begin(), seen.end(), name) != seen.end()) continue;
    seen.push_back(name);
    Json mq = Json::object();
    mq["machine_name"] = name;
    const auto* machines = store_.find_collection("machine_catalog");
    if (!machines || !machines->exists(mq)) {
      Json doc = Json::object();
      doc["machine_name"] = name;
      docs["machine_catalog"].push_back(std::move(doc));
    }
  }
  return docs;
}

SharedRepo::UploadReceipt SharedRepo::upload_batch(
    const std::string& api_key, const std::string& problem_name,
    const std::vector<EvalUpload>& evals) {
  return upload_batch(require(api_key), problem_name, evals);
}

SharedRepo::UploadReceipt SharedRepo::upload_batch(
    const AuthedUser& user, const std::string& problem_name,
    const std::vector<EvalUpload>& evals) {
  std::vector<Json> records;
  records.reserve(evals.size());
  for (const auto& e : evals)
    records.push_back(build_record(user.username(), problem_name, e));
  return upload_records(user.username(), problem_name, std::move(records));
}

SharedRepo::UploadReceipt SharedRepo::upload_records(
    const std::string& user, const std::string& problem_name,
    std::vector<Json> records) {
  // Fast path: every catalog descriptor this upload implies already
  // exists, so the runs alone are the commit — no catalog lock, writers
  // to different shards proceed concurrently.
  if (missing_catalog_docs(user, problem_name, records).empty()) {
    auto batch = store_.collection("func_eval").insert_batch(std::move(records));
    return UploadReceipt{std::move(batch.ids), std::move(batch.ticket)};
  }
  // First sighting of this problem or machine: catalog descriptors and
  // runs go down as ONE logical commit, whole-or-nothing under crash.
  // Serialized so two racing first uploads cannot both pass the existence
  // probe and double-insert the descriptor.
  std::lock_guard<std::mutex> lock(*catalog_mu_);
  auto docs = missing_catalog_docs(user, problem_name, records);  // re-probe
  // A new problem descriptor carries the parameter names: declare their
  // path indexes (after the commit, outside the insert's shard locks) so
  // this problem's queries plan against them from the first record on.
  std::vector<std::string> new_index_paths;
  const auto pit = docs.find("problems");
  if (pit != docs.end())
    for (const auto& pdoc : pit->second) collect_index_paths(pdoc, new_index_paths);
  docs["func_eval"] = std::move(records);
  auto result = store_.insert_atomic(std::move(docs));
  for (const auto& path : new_index_paths)
    store_.collection("func_eval").create_index(path);
  return UploadReceipt{std::move(result.ids["func_eval"]),
                       std::move(result.ticket)};
}

void SharedRepo::collect_index_paths(const Json& problem_doc,
                                     std::vector<std::string>& out) {
  for (const char* field : {"task_parameters", "tuning_parameters"}) {
    const Json* names = db::lookup_path(problem_doc, field);
    if (!names || !names->is_array()) continue;  // pre-existing descriptors
    for (const auto& n : names->as_array())
      if (n.is_string()) out.push_back(std::string(field) + "." + n.as_string());
  }
}

void SharedRepo::wait_uploads_durable(const UploadReceipt& receipt) {
  if (receipt.ticket.seq == 0 || !store_.durable()) return;
  store_.storage_engine()->wait_durable(receipt.ticket);
}

bool SharedRepo::record_visible(const Json& record,
                                const std::string& username) const {
  // Runs per candidate inside the collection's shared lock on every crowd
  // query, so it walks the record in place: no get_or subtree copies and
  // no Accessibility materialization. Missing/null accessibility means
  // public; a string is "private" or public; an object is Shared exactly
  // when it carries "shared_with" — the same reading as
  // Accessibility::from_json.
  const Json* acc = db::lookup_path(record, "accessibility");
  const Json* shared = nullptr;
  bool is_private = false;
  if (acc && !acc->is_null()) {
    if (acc->is_string()) {
      is_private = acc->as_string() == "private";
    } else if (acc->is_object() && acc->contains("shared_with")) {
      shared = &acc->at("shared_with");
    }
  }
  if (!is_private && !shared) return true;  // public
  const Json* user = db::lookup_path(record, "user");
  const std::string_view owner = (user && !user->is_null())
                                     ? std::string_view(user->as_string())
                                     : std::string_view();
  if (owner == username) return true;
  if (shared) {
    for (const auto& u : shared->as_array())
      if (u.as_string() == username) return true;
  }
  return false;
}

SharedRepo::MetaNames SharedRepo::normalized_filter_names(
    const MetaDescription& meta) const {
  MetaNames names;
  for (const auto& f : meta.machine_filters)
    names.machines.push_back(normalize_machine(f.machine_name));
  for (const auto& f : meta.software_filters)
    names.software.push_back(normalize_software(f.name));
  return names;
}

bool SharedRepo::record_matches_meta(const Json& record,
                                     const MetaDescription& meta,
                                     const MetaNames& names) const {
  // Problem name.
  if (record.get_or("problem", Json("")).as_string() !=
      meta.tuning_problem_name)
    return false;

  // Objective: the output must hold meta.output_name, with a value or null
  // (a failed run); records of another objective belong to another model.
  const Json* output = db::lookup_path(record, "output");
  if (!output || !output->is_object() || !output->contains(meta.output_name))
    return false;

  // problem_space ranges: every declared task/tuning parameter must be
  // present and inside the queried range.
  const auto check_space = [&](const space::Space& sp, const char* field) {
    const Json* params = db::lookup_path(record, field);
    if (sp.dim() == 0) return true;
    if (!params) return false;
    for (const auto& p : sp.params()) {
      if (!params->contains(p.name())) return false;
      if (!p.contains(params->at(p.name()))) return false;
    }
    return true;
  };
  if (!check_space(meta.input_space, "task_parameters")) return false;
  if (!check_space(meta.parameter_space, "tuning_parameters")) return false;

  // Machine filters (any-of).
  if (!meta.machine_filters.empty()) {
    const Json* mc = db::lookup_path(record, "machine_configuration");
    if (!mc) return false;
    const std::string machine =
        normalize_machine(mc->get_or("machine_name", Json("")).as_string());
    bool any = false;
    for (std::size_t i = 0; i < meta.machine_filters.size(); ++i) {
      const MachineFilter& f = meta.machine_filters[i];
      if (machine != names.machines[i]) continue;
      if (!f.partition.empty()) {
        const Json partition = mc->get_or("partition", Json(""));
        if (!partition.is_string() ||
            lower(partition.as_string()) != lower(f.partition))
          continue;
      }
      const auto in_range = [&](const char* key,
                                std::optional<std::int64_t> lo,
                                std::optional<std::int64_t> hi) {
        if (!lo && !hi) return true;
        if (!mc->contains(key)) return false;
        const auto v = integral(mc->at(key));
        if (!v) return false;  // a malformed upload fails the bound
        if (lo && *v < *lo) return false;
        if (hi && *v > *hi) return false;
        return true;
      };
      if (!in_range("nodes", f.nodes_min, f.nodes_max)) continue;
      if (!in_range("cores", f.cores_min, f.cores_max)) continue;
      any = true;
      break;
    }
    if (!any) return false;
  }

  // Software filters (all must be satisfied).
  for (std::size_t i = 0; i < meta.software_filters.size(); ++i) {
    const SoftwareFilter& f = meta.software_filters[i];
    const Json* sc = db::lookup_path(record, "software_configuration");
    if (!sc) return false;
    const std::string& canon = names.software[i];
    if (!sc->contains(canon)) return false;
    std::vector<int> version;
    const Json& spec = sc->at(canon);
    if (spec.is_object() && spec.contains("version")) {
      // A version that is not an array of integers fails the filter.
      const Json& parts = spec.at("version");
      if (!parts.is_array()) return false;
      for (const auto& part : parts.as_array()) {
        const auto v = integral(part);
        if (!v) return false;
        version.push_back(static_cast<int>(*v));
      }
    }
    if (!version_in_range(version, f.version_from, f.version_to))
      return false;
  }

  // User filters (any-of over username or email).
  if (!meta.user_filters.empty()) {
    const std::string owner = record.get_or("user", Json("")).as_string();
    if (std::find(meta.user_filters.begin(), meta.user_filters.end(),
                  owner) == meta.user_filters.end())
      return false;
  }
  return true;
}

std::vector<Json> SharedRepo::query_function_evaluations(
    const MetaDescription& meta) const {
  const AuthedUser user = require(meta.api_key);
  const auto* evals = store_.find_collection("func_eval");
  std::vector<Json> out;
  if (!evals) return out;
  const MetaNames names = normalized_filter_names(meta);
  // Partition by problem name through the store's query planner: with the
  // default indexes declared this is an index lookup instead of a full
  // scan, and results come back in insertion order either way, so they
  // are byte-identical with indexes on or off. The visibility and meta
  // filters run inside the visit, so only actual hits are copied out.
  Json q = Json::object();
  q["problem"] = meta.tuning_problem_name;
  evals->visit(q, [&](const Json& record) {
    if (record_visible(record, user.username()) &&
        record_matches_meta(record, meta, names))
      out.push_back(record);
    return true;
  });
  return out;
}

std::vector<Json> SharedRepo::query_where(const AuthedUser& user,
                                          const std::string& problem_name,
                                          std::string_view where_clause) const {
  std::vector<Json> out;
  visit_where(user, problem_name, where_clause, [&](const Json& record) {
    out.push_back(record);
    return true;
  });
  return out;
}

void SharedRepo::visit_where(
    const AuthedUser& authed, const std::string& problem_name,
    std::string_view where_clause,
    const std::function<bool(const Json&)>& fn) const {
  const std::string& user = authed.username();
  const Json condition = parse_where_clause(where_clause);
  const auto* evals = store_.find_collection("func_eval");
  if (!evals) return;
  // The WHERE condition goes INTO the planned query rather than running as
  // a post-predicate: the planner then sees every conjunct, so an indexed
  // tuning/task parameter narrows the candidate set below the whole
  // problem partition. Wrapping in $and keeps the merge collision-free
  // (the clause may itself constrain "problem") with an identical match
  // set, so results stay byte-for-byte those of the post-filter form.
  evals->visit(planned_where(problem_name, condition),
               [&](const Json& record) {
                 return !record_visible(record, user) || fn(record);
               });
}

Json SharedRepo::planned_where(const std::string& problem_name,
                               const Json& condition) {
  Json q = Json::object();
  q["problem"] = problem_name;
  q["$and"] = Json::array({condition});
  return q;
}

Json SharedRepo::explain_where(const AuthedUser&,
                               const std::string& problem_name,
                               std::string_view where_clause) const {
  const Json condition = parse_where_clause(where_clause);
  const Json q = planned_where(problem_name, condition);
  const auto* evals = store_.find_collection("func_eval");
  if (!evals) {
    Json out = Json::object();
    out["query"] = q;
    out["shards"] = Json::array();
    return out;
  }
  return evals->explain(q);
}

std::size_t SharedRepo::num_records(const std::string& problem_name) const {
  const auto* evals = store_.find_collection("func_eval");
  if (!evals) return 0;
  Json q = Json::object();
  q["problem"] = problem_name;
  return evals->count(q);
}

namespace {

/// A queried record as the analytics read it: its task and tuning
/// configurations over the meta's spaces and its objective (NaN for a
/// failed run).
struct DecodedRecord {
  const Json* task;  // the record's task_parameters, the grouping key
  space::Config task_config, tuning_config;
  double y;
};

/// nullopt when the record lacks a task/tuning parameter the meta declares.
std::optional<DecodedRecord> decode_record(const Json& record,
                                           const MetaDescription& meta) {
  const Json* task = db::lookup_path(record, "task_parameters");
  const Json* tuning = db::lookup_path(record, "tuning_parameters");
  if (!task || !tuning) return std::nullopt;
  try {
    return DecodedRecord{task, meta.input_space.config_from_json(*task),
                         meta.parameter_space.config_from_json(*tuning),
                         stored_output(record)};
  } catch (const json::JsonError&) {
    return std::nullopt;
  }
}

}  // namespace

gp::SurrogatePtr SharedRepo::query_surrogate_model(
    const MetaDescription& meta, std::uint64_t seed,
    const gp::LcmOptions& options) const {
  // One ungrouped history in insertion order: valid_data keeps the finite
  // outputs and encodes their configurations.
  core::TaskHistory all;
  for (const auto& r : query_function_evaluations(meta))
    if (auto d = decode_record(r, meta))
      all.add(std::move(d->tuning_config), d->y);
  const core::TrainingData data = all.valid_data(meta.parameter_space);
  if (data.size() < 2)
    throw std::runtime_error(
        "query_surrogate_model: fewer than 2 usable records match");
  rng::Rng rng(rng::splitmix64(seed + 0x9e3779b9ULL));
  return gp::fit_single_task(meta.parameter_space.dim(), {data.x, data.y},
                             options, rng);
}

double SharedRepo::query_predict_output(const MetaDescription& meta,
                                        const space::Config& params,
                                        std::uint64_t seed) const {
  const auto model = query_surrogate_model(meta, seed);
  return model->predict(meta.parameter_space.encode(params)).mean;
}

sa::SobolResult SharedRepo::query_sensitivity_analysis(
    const MetaDescription& meta, std::uint64_t seed,
    const sa::SobolOptions& options) const {
  const auto model = query_surrogate_model(meta, seed);
  rng::Rng rng(rng::splitmix64(seed + 0x51ab1edULL));
  return sa::analyze_surrogate(*model, meta.parameter_space, rng, options);
}

VariabilityReport SharedRepo::query_variability_report(
    const MetaDescription& meta, const VariabilityOptions& options) const {
  return detect_variability(query_function_evaluations(meta), options);
}

std::vector<core::TaskHistory> SharedRepo::query_source_histories(
    const MetaDescription& meta) const {
  // Group records by their task-parameter JSON (canonical dump).
  std::vector<std::pair<std::string, core::TaskHistory>> groups;
  for (const auto& r : query_function_evaluations(meta)) {
    auto d = decode_record(r, meta);
    if (!d) continue;
    const std::string key = d->task->dump();
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return g.first == key; });
    if (it == groups.end()) {
      groups.emplace_back(key, core::TaskHistory(std::move(d->task_config)));
      it = std::prev(groups.end());
    }
    it->second.add(std::move(d->tuning_config), d->y);
  }
  std::sort(groups.begin(), groups.end(), [](const auto& a, const auto& b) {
    return a.second.num_valid() > b.second.num_valid();
  });
  std::vector<core::TaskHistory> out;
  out.reserve(groups.size());
  for (auto& [key, h] : groups) {
    (void)key;
    out.push_back(std::move(h));
  }
  return out;
}

SharedRepo SharedRepo::open_durable(const std::filesystem::path& dir,
                                    std::uint64_t seed,
                                    db::engine::EngineOptions options) {
  SharedRepo repo(seed);
  repo.store_ = db::DocumentStore::open_durable(dir, std::move(options));
  // The constructor seeded the in-memory store just replaced; the opened
  // repository gets whichever seed aliases it does not hold yet.
  repo.seed_alias_tables();
  repo.declare_default_indexes();
  return repo;
}

void SharedRepo::declare_default_indexes() {
  auto& evals = store_.collection("func_eval");
  evals.create_index("problem");
  evals.create_index("machine_configuration.machine_name");
  store_.collection("users").create_index("username");
  // The upload path probes these on every batch (missing_catalog_docs);
  // with the index the probe is answered from posting lists alone.
  store_.collection("problems").create_index("name");
  store_.collection("machine_catalog").create_index("machine_name");
  // Per-problem parameter indexes, re-declared from the persisted problem
  // descriptors (index definitions are in-memory only). Paths are collected
  // first: create_index takes func_eval's shard writer locks and must not
  // run inside visit's reader locks on `problems`.
  const auto* problems = store_.find_collection("problems");
  if (!problems) return;
  std::vector<std::string> paths;
  problems->visit(Json::object(), [&](const Json& doc) {
    collect_index_paths(doc, paths);
    return true;
  });
  for (const auto& path : paths) evals.create_index(path);
}

}  // namespace gptc::crowd
