#include "db/document_store.hpp"

#include <algorithm>
#include <fstream>
#include <mutex>
#include <stdexcept>

#include "db/query/planner.hpp"

namespace gptc::db {

namespace {

/// Atomic max fold for the id counter: shard recovery tasks (and
/// restore_shard) run in parallel, each pushing the counter past the ids it
/// has seen.
void fold_next_id(std::atomic<std::int64_t>& next_id, std::int64_t seen) {
  std::int64_t cur = next_id.load(std::memory_order_relaxed);
  while (cur < seen && !next_id.compare_exchange_weak(cur, seen)) {
  }
}

/// Acquires every shard's reader lock (ascending shard index — the engine
/// lock order) so a fan-out query observes multi-shard mutations, which
/// apply under every affected shard's writer lock, none-or-all.
// returns_lock: Shard::mu shared
template <typename Shards>
std::vector<std::shared_lock<std::shared_mutex>> lock_shared_all(
    const Shards& shards) {
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(shards.size());
  for (const auto& s : shards) locks.emplace_back(s->mu);
  return locks;
}

}  // namespace

const Json* lookup_path(const Json& document, const std::string& path) {
  return query::lookup(document, std::string_view(path));
}

// ---------------------------------------------------------------------------
// Collection

Collection::Collection(std::string name, std::size_t shards)
    : name_(std::move(name)) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

Collection::Collection(Collection&& other) noexcept
    : name_(std::move(other.name_)),
      next_id_(other.next_id_.load()),
      shards_(std::move(other.shards_)),
      index_paths_(std::move(other.index_paths_)),
      engine_(other.engine_) {}

Collection& Collection::operator=(Collection&& other) noexcept {
  if (this != &other) {
    name_ = std::move(other.name_);
    next_id_.store(other.next_id_.load());
    shards_ = std::move(other.shards_);
    index_paths_ = std::move(other.index_paths_);
    engine_ = other.engine_;
  }
  return *this;
}

std::size_t Collection::size() const {
  const auto locks = lock_shared_all(shards_);
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->docs.size();
  return n;
}

void Collection::index_doc(Shard& s, const Json& doc) {
  const std::int64_t id = doc.at("_id").as_int();
  for (auto& [path, idx] : s.indexes) {
    (void)path;
    idx.add(doc, id);
  }
}

void Collection::unindex_doc(Shard& s, const Json& doc) {
  const std::int64_t id = doc.at("_id").as_int();
  for (auto& [path, idx] : s.indexes) {
    (void)path;
    idx.erase(doc, id);
  }
}

void Collection::insert_into_shard(Shard& s, Json document) {
  const std::int64_t id = document.at("_id").as_int();
  fold_next_id(next_id_, id + 1);
  s.id_pos[id] = s.docs.size();
  index_doc(s, document);
  s.docs.push_back(std::move(document));
}

std::int64_t Collection::insert(Json document) {
  std::vector<Json> one;
  one.push_back(std::move(document));
  return insert_batch(std::move(one)).ids.front();
}

Collection::BatchInsert Collection::insert_batch(std::vector<Json> documents) {
  for (const auto& d : documents)
    if (!d.is_object())
      throw json::JsonError(
          "Collection::insert_batch: every document must be an object");
  BatchInsert out;
  std::vector<Member> members;
  add_batch_members(std::move(documents), out.ids, members);
  out.ticket = commit(members, apply_batch);
  return out;
}

void Collection::add_batch_members(std::vector<Json> documents,
                                   std::vector<std::int64_t>& ids,
                                   std::vector<Member>& members) {
  // Assign ids up front, then bucket by shard. Ids ascend through the
  // batch, so each shard's slice stays in ascending-id (= insertion) order.
  const std::int64_t base =
      next_id_.fetch_add(static_cast<std::int64_t>(documents.size()));
  std::map<std::size_t, Json::Array> by_shard;
  ids.reserve(ids.size() + documents.size());
  for (std::size_t i = 0; i < documents.size(); ++i) {
    const std::int64_t id = base + static_cast<std::int64_t>(i);
    documents[i]["_id"] = id;
    // Stored for the collection's lifetime: drop the slack that building
    // the document up key by key left in its member vector.
    documents[i].as_object().shrink_to_fit();
    ids.push_back(id);
    by_shard[shard_of(id)].push_back(std::move(documents[i]));
  }
  for (auto& [k, docs] : by_shard) {
    Json op = Json::object();
    op["o"] = "b";
    op["ds"] = Json(std::move(docs));
    members.push_back({this, k, std::move(op)});
  }
}

void Collection::apply_batch(Member& m) {
  // The documents move out of the op: it was logged already.
  Collection& c = *m.collection;
  for (auto& d : m.op["ds"].as_array())
    c.insert_into_shard(*c.shards_[m.shard], std::move(d));
}

engine::CommitTicket Collection::commit(
    std::vector<Member>& members, const std::function<void(Member&)>& apply) {
  if (members.empty()) return {};
  engine::StorageEngine* const eng = members.front().collection->engine_;
  if (eng == nullptr) {
    std::vector<std::unique_lock<std::shared_mutex>> locks;
    locks.reserve(members.size());
    for (const auto& m : members)
      locks.emplace_back(m.collection->shards_[m.shard]->mu);
    for (auto& m : members) apply(m);
    return {};
  }
  engine::CommitTicket ticket;
  if (members.size() == 1) {
    // One shard frame is already crash-atomic (replayed whole or not at
    // all): no commit record, and no gate.
    Member& m = members.front();
    {
      std::unique_lock lock(m.collection->shards_[m.shard]->mu);
      ticket = eng->log_op(*m.collection, m.shard, m.op);  // log, then apply
      apply(m);
    }
    // Checkpoint with the shard unlocked: the snapshot I/O must not extend
    // this writer's critical section.
    eng->maybe_checkpoint(*m.collection, m.shard);
    return ticket;
  }
  {
    // Several members: one logical commit record covers them all, applied
    // under every member's writer lock — readers and recovery see none or
    // all of it. Lock order: commit gate (shared) -> shard writer locks in
    // member order -> WAL internals inside log_commit.
    std::shared_lock gate(eng->commit_gate());
    std::vector<std::unique_lock<std::shared_mutex>> locks;
    locks.reserve(members.size());
    for (const auto& m : members)
      locks.emplace_back(m.collection->shards_[m.shard]->mu);
    ticket = eng->log_commit(members);  // log, then apply
    for (auto& m : members) apply(m);
  }
  // Shard locks and the commit gate are released: checkpoints (snapshot
  // I/O) run without extending the commit's critical section.
  for (const auto& m : members) eng->maybe_checkpoint(*m.collection, m.shard);
  eng->maybe_compact_commits();  // needs the gate exclusively: call last
  return ticket;
}

const Json* Collection::doc_by_id(const Shard& s, std::int64_t id) {
  const auto it = s.id_pos.find(id);
  return it == s.id_pos.end() ? nullptr : &s.docs[it->second];
}

void Collection::visit(const Json& query,
                       const std::function<bool(const Json&)>& fn) const {
  // Compile once per query, not per record; the same program plans and
  // re-checks every shard.
  const auto cq = query::CompiledQuery::compile(query);
  const auto locks = lock_shared_all(shards_);
  // One cursor per shard, parked on its next match: an index scan walks
  // the planned candidate ids, a full scan the id map — both ascending.
  struct Cursor {
    const Shard* s;
    query::ShardPlan plan;
    std::size_t next = 0;  // guard-ok: visit-local cursor state
    // guard-ok: visit-local cursor state
    std::map<std::int64_t, std::size_t>::const_iterator it;
    const Json* head = nullptr;  // guard-ok: visit-local cursor state
    std::int64_t id = 0;         // guard-ok: visit-local cursor state
  };
  const auto advance = [&cq](Cursor& c) {
    c.head = nullptr;
    if (c.plan.index_scan) {
      while (c.next < c.plan.candidates.size() && !c.head) {
        c.id = c.plan.candidates[c.next++];
        const Json* d = doc_by_id(*c.s, c.id);
        if (d && cq.eval(*d)) c.head = d;
      }
      return;
    }
    for (; c.it != c.s->id_pos.end() && !c.head; ++c.it) {
      const Json& d = c.s->docs[c.it->second];
      if (cq.eval(d)) {
        c.head = &d;
        c.id = c.it->first;
      }
    }
  };
  std::vector<Cursor> cursors;
  cursors.reserve(shards_.size());
  for (const auto& sp : shards_) {
    Cursor c{.s = sp.get(),
             .plan = query::plan_shard(sp->indexes, cq),
             .it = sp->id_pos.begin()};
    advance(c);
    cursors.push_back(std::move(c));
  }
  // Ids come from one monotone counter, so emitting the smallest head each
  // step IS insertion order — byte-identical to the unsharded scan.
  while (true) {
    Cursor* best = nullptr;
    for (auto& c : cursors)
      if (c.head && (!best || c.id < best->id)) best = &c;
    if (!best || !fn(*best->head)) return;
    advance(*best);
  }
}

std::vector<Json> Collection::find(const Json& query) const {
  std::vector<Json> out;
  visit(query, [&out](const Json& d) { out.push_back(d); return true; });
  return out;
}

Json Collection::explain(const Json& query) const {
  const auto cq = query::CompiledQuery::compile(query);
  Json out = Json::object();
  out["query"] = query;
  Json shards = Json::array();
  const auto locks = lock_shared_all(shards_);
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const Shard& s = *shards_[k];
    const auto plan = query::plan_shard(s.indexes, cq);
    Json sj = Json::object();
    sj["shard"] = k;
    sj["shard_size"] = s.docs.size();
    sj["index_scan"] = plan.index_scan;
    sj["candidates"] =
        plan.index_scan ? Json(plan.candidates.size()) : Json(s.docs.size());
    Json idxs = Json::array();
    for (const auto& choice : plan.choices) {
      Json cj = Json::object();
      cj["path"] = *choice.path;
      cj["estimate"] = choice.estimate;
      cj["applied"] = choice.applied;
      idxs.push_back(std::move(cj));
    }
    sj["indexes"] = std::move(idxs);
    shards.push_back(std::move(sj));
  }
  out["shards"] = std::move(shards);
  return out;
}

std::size_t Collection::count(const Json& query) const {
  std::size_t n = 0;
  visit(query, [&n](const Json&) {
    ++n;
    return true;
  });
  return n;
}

bool Collection::exists(const Json& query) const {
  bool found = false;
  visit(query, [&found](const Json&) {
    found = true;
    return false;
  });
  return found;
}

std::size_t Collection::remove(const Json& query) {
  // Compiling first both hoists the per-document interpretation out of the
  // shard loop and validates the query BEFORE it is WAL-logged: a malformed
  // query used to be logged, then throw during apply, and recovery would
  // re-throw replaying it — refusing to open the store.
  const auto cq = query::CompiledQuery::compile(query);
  Json op = Json::object();
  op["o"] = "r";
  op["q"] = query;
  // A query can match documents on any shard, so every shard is a member:
  // at N > 1 recovery applies the remove everywhere or nowhere.
  std::vector<Member> members;
  for (std::size_t k = 0; k < shard_count(); ++k)
    members.push_back({this, k, op});
  std::size_t n = 0;
  commit(members, [&](Member& m) {
    n += remove_shard_locked(*shards_[m.shard], cq);
  });
  return n;
}

std::size_t Collection::remove_shard_locked(Shard& s,
                                            const query::CompiledQuery& query) {
  std::vector<Json> kept;
  kept.reserve(s.docs.size());
  std::size_t removed = 0;
  for (auto& d : s.docs) {
    if (query.eval(d)) {
      unindex_doc(s, d);
      ++removed;
    } else {
      kept.push_back(std::move(d));
    }
  }
  // Unconditionally: the loop moved every kept document out of s.docs, so
  // even a no-match remove must swap the (order-preserving) vector back in.
  s.docs = std::move(kept);
  if (removed != 0) {
    s.id_pos.clear();
    for (std::size_t i = 0; i < s.docs.size(); ++i)
      s.id_pos[s.docs[i].at("_id").as_int()] = i;
  }
  return removed;
}

std::size_t Collection::update(const Json& query, const Json& update) {
  if (!update.is_object())
    throw json::JsonError("Collection::update: update must be an object");
  // Compile (= validate) before WAL-logging, as in remove().
  const auto cq = query::CompiledQuery::compile(query);
  Json op = Json::object();
  op["o"] = "u";
  op["q"] = query;
  op["u"] = update;
  std::vector<Member> members;
  for (std::size_t k = 0; k < shard_count(); ++k)
    members.push_back({this, k, op});
  std::size_t n = 0;
  commit(members, [&](Member& m) {
    n += update_shard_locked(*shards_[m.shard], cq, update);
  });
  return n;
}

std::size_t Collection::update_shard_locked(Shard& s,
                                            const query::CompiledQuery& query,
                                            const Json& update) {
  std::size_t n = 0;
  for (auto& d : s.docs) {
    if (!query.eval(d)) continue;
    unindex_doc(s, d);
    for (const auto& [k, v] : update.as_object()) {
      if (k == "_id") continue;  // ids are immutable
      d[k] = v;
    }
    index_doc(s, d);
    ++n;
  }
  return n;
}

void Collection::create_index(const std::string& path) {
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& s : shards_) locks.emplace_back(s->mu);
  if (std::find(index_paths_.begin(), index_paths_.end(), path) ==
      index_paths_.end())
    index_paths_.push_back(path);
  for (const auto& sp : shards_) {
    Shard& s = *sp;
    auto it = s.indexes.find(path);
    if (it == s.indexes.end())
      it = s.indexes.emplace(path, engine::OrderedIndex(path)).first;
    else
      it->second.clear();
    for (const auto& [id, p] : s.id_pos) it->second.add(s.docs[p], id);
  }
}

bool Collection::has_index(const std::string& path) const {
  std::shared_lock lock(shards_[0]->mu);
  return std::find(index_paths_.begin(), index_paths_.end(), path) !=
         index_paths_.end();
}

std::vector<std::string> Collection::index_paths() const {
  std::shared_lock lock(shards_[0]->mu);
  return index_paths_;
}

void Collection::rebuild_shard_derived(Shard& s) {
  s.id_pos.clear();
  for (std::size_t i = 0; i < s.docs.size(); ++i)
    s.id_pos[s.docs[i].at("_id").as_int()] = i;
  s.indexes.clear();
  for (const auto& path : index_paths_) {
    engine::OrderedIndex idx(path);
    for (const auto& [id, p] : s.id_pos) idx.add(s.docs[p], id);
    s.indexes.emplace(path, std::move(idx));
  }
}

void Collection::configure_shards(std::size_t shards) {
  if (shards == 0) shards = 1;
  std::vector<Json> docs;
  for (auto& sp : shards_)
    for (auto& [id, p] : sp->id_pos) {
      (void)id;
      docs.push_back(std::move(sp->docs[p]));
    }
  // Re-bucket in ascending-id order so each new shard's vector is again in
  // insertion order.
  std::sort(docs.begin(), docs.end(), [](const Json& a, const Json& b) {
    return a.at("_id").as_int() < b.at("_id").as_int();
  });
  shards_.clear();
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
  for (auto& d : docs) {
    const std::size_t k = shard_of(d.at("_id").as_int());
    shards_[k]->docs.push_back(std::move(d));
  }
  for (auto& sp : shards_) rebuild_shard_derived(*sp);
}

void Collection::restore_shard(std::size_t shard, const Json& j) {
  fold_next_id(next_id_, j.at("next_id").as_int());
  Shard& s = *shards_[shard];
  s.docs.clear();
  for (const auto& d : j.at("docs").as_array()) {
    fold_next_id(next_id_, d.at("_id").as_int() + 1);
    s.docs.push_back(d);
  }
  rebuild_shard_derived(s);
}

void Collection::replay_shard_op(std::size_t shard, const Json& op) {
  Shard& s = *shards_[shard];
  const std::string& kind = op.at("o").as_string();
  if (kind == "b") {
    // One frame (or one commit member) = this shard's slice of the batch,
    // applied whole (batch crash atomicity).
    for (const auto& d : op.at("ds").as_array()) insert_into_shard(s, d);
  } else if (kind == "u") {
    update_shard_locked(s, query::CompiledQuery::compile(op.at("q")),
                        op.at("u"));
  } else if (kind == "r") {
    remove_shard_locked(s, query::CompiledQuery::compile(op.at("q")));
  } else {
    throw std::runtime_error("wal replay: unknown op '" + kind +
                             "' in collection " + name_);
  }
}

Json Collection::shard_to_json(std::size_t shard) const {
  const Shard& s = *shards_[shard];
  Json j = Json::object();
  j["name"] = name_;
  j["next_id"] = next_id_.load();
  Json docs = Json::array();
  for (const auto& [id, p] : s.id_pos) {
    (void)id;
    docs.push_back(s.docs[p]);
  }
  j["docs"] = std::move(docs);
  return j;
}

Json Collection::to_json() const {
  Json j = Json::object();
  j["name"] = name_;
  j["next_id"] = next_id_.load();
  j["docs"] = Json(find(Json::object()));
  return j;
}

// ---------------------------------------------------------------------------
// DocumentStore

Collection& DocumentStore::collection(const std::string& name) {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    it = collections_
             .emplace(name, Collection(name, engine_ ? engine_->shard_count()
                                                     : 1))
             .first;
    if (engine_) it->second.attach_engine(engine_.get());
  }
  return it->second;
}

const Collection* DocumentStore::find_collection(
    const std::string& name) const {
  const auto it = collections_.find(name);
  return it == collections_.end() ? nullptr : &it->second;
}

std::vector<std::string> DocumentStore::collection_names() const {
  std::vector<std::string> names;
  for (const auto& [name, c] : collections_) {
    (void)c;
    names.push_back(name);
  }
  return names;
}

DocumentStore::AtomicInsert DocumentStore::insert_atomic(
    std::map<std::string, std::vector<Json>> docs) {
  for (const auto& [name, ds] : docs) {
    (void)name;
    for (const auto& d : ds)
      if (!d.is_object())
        throw json::JsonError(
            "DocumentStore::insert_atomic: every document must be an object");
  }
  // Members in (collection name, shard) order — the engine lock order.
  // Resolving them first also keeps collection() from creating an entry
  // while shard locks are held.
  AtomicInsert out;
  std::vector<Collection::Member> members;
  for (auto& [name, ds] : docs)
    if (!ds.empty())
      collection(name).add_batch_members(std::move(ds), out.ids[name], members);
  out.ticket = Collection::commit(members, Collection::apply_batch);
  return out;
}

void DocumentStore::export_json(const std::filesystem::path& dir) const {
  std::filesystem::create_directories(dir);
  for (const auto& [name, c] : collections_) {
    std::ofstream out(dir / (name + ".json"));
    if (!out)
      throw std::runtime_error("DocumentStore::export_json: cannot write " +
                               (dir / (name + ".json")).string());
    out << c.to_json().dump(2) << "\n";
  }
}

DocumentStore DocumentStore::open_durable(const std::filesystem::path& dir,
                                          engine::EngineOptions options) {
  DocumentStore store;
  store.engine_ =
      std::make_unique<engine::StorageEngine>(dir, std::move(options));
  store.engine_->recover(store);
  return store;
}

void DocumentStore::sync() {
  if (engine_) engine_->sync();
}

void DocumentStore::checkpoint_all() {
  if (engine_) engine_->checkpoint_all();
}

}  // namespace gptc::db
