// crowdctl — command-line client for a file-backed shared repository.
//
// The paper's shared database ships web tools for browsing collected data;
// this is the equivalent for the file-backed repository: manage users,
// upload evaluation records, run SQL-like queries, launch the analytics
// utilities, and serve the repository over TCP (src/net), all against a
// repository directory — or, with --remote, against a running server.
//
// Usage:
//   crowdctl [--shards N] <repo-dir> register <username> <email>
//   crowdctl [--shards N] <repo-dir> upload <api-key> <problem> <records.json>
//   crowdctl [--shards N] <repo-dir> query <api-key> <problem> [<where-clause>]
//   crowdctl [--shards N] <repo-dir> explain <api-key> <problem> [<where-clause>]
//   crowdctl [--shards N] <repo-dir> stats <problem>
//   crowdctl [--shards N] <repo-dir> variability <api-key> <problem>
//   crowdctl [--shards N] <repo-dir> collections
//   crowdctl [--shards N] <repo-dir> serve <port> [<workers>]
//   crowdctl --remote <host:port> upload <api-key> <problem> <records.json>
//   crowdctl --remote <host:port> query <api-key> <problem> [<where-clause>]
//   crowdctl --remote <host:port> explain <api-key> <problem> [<where-clause>]
//   crowdctl --remote <host:port> health
//   crowdctl --remote <host:port> stats
//
// Every directory command opens the repository on the storage engine (WAL +
// snapshots, src/db/engine): each mutation is crash-safe the moment the
// command returns. `serve` additionally turns on async group commit, the
// mode the server's upload ack path is designed for. A directory holding
// only pre-engine JSON exports is refused, not imported.
//
// --shards N opens every collection split into N shards, each with its own
// WAL/snapshot — more concurrent writers, parallel recovery. A directory
// holding a different shard count is migrated in place on open (crash-safe:
// the layout flips atomically through engine.manifest). Without the flag
// the directory keeps whatever count it was written with.
//
// The records.json file holds an array of objects:
//   [{"task_parameters": {...}, "tuning_parameters": {...},
//     "output": 1.23, "machine_configuration": {...},
//     "software_configuration": {...}}, ...]
// Every record is decoded before any is stored, and the file is uploaded as
// one atomic batch, locally and with --remote alike.
#include <csignal>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

#include "crowd/query_language.hpp"
#include "crowd/repo.hpp"
#include "net/client.hpp"
#include "net/server.hpp"

using namespace gptc;
using json::Json;

namespace {

int usage() {
  std::cerr <<
      "usage: crowdctl [--shards N] <repo-dir> <command> [args]\n"
      "       crowdctl --remote <host:port> <command> [args]\n"
      "  register <username> <email>          create a user, print API key\n"
      "  upload <api-key> <problem> <file>    upload a JSON array of records\n"
      "  query <api-key> <problem> [where]    SQL-like query, print records\n"
      "  explain <api-key> <problem> [where]  print the query plan (indexes\n"
      "                                       picked, selectivity estimates,\n"
      "                                       candidate counts), not records\n"
      "  stats <problem>                      record counts\n"
      "  variability <api-key> <problem>      noise/outlier report\n"
      "  collections                          list stored collections\n"
      "  serve <port> [workers]               serve the repo over TCP\n"
      "remote commands: upload, query, explain, health, stats\n"
      "options:\n"
      "  --shards N   N shards (WALs) per collection; migrates the\n"
      "               directory if it holds a different count\n"
      "  --remote     talk to a crowdctl serve instance instead of a dir\n";
  return 2;
}

/// Decodes every record of a records file (a JSON array of upload
/// records); throws on the first malformed one, naming its 1-based
/// position ("record 2: expected string, got int").
std::vector<crowd::EvalUpload> load_uploads(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const Json records = Json::parse(buf.str());
  std::vector<crowd::EvalUpload> evals;
  for (const auto& r : records.as_array()) {
    try {
      evals.push_back(crowd::EvalUpload::from_json(r));
    } catch (const std::exception& e) {
      throw std::runtime_error("record " + std::to_string(evals.size() + 1) +
                               ": " + e.what());
    }
  }
  return evals;
}

/// Renders SharedRepo::explain_where()'s report (same shape locally and over
/// the wire): one line per shard — index scan or full scan, candidate count —
/// then each considered index with its selectivity estimate and whether the
/// planner applied it (materialized or intersected).
void print_plan(const Json& plan) {
  std::cout << "query: " << plan.get_or("query", Json::object()).dump()
            << "\n";
  std::size_t candidates = 0, total = 0;
  const Json shards = plan.get_or("shards", Json::array());  // get_or copies
  for (const Json& shard : shards.as_array()) {
    const bool index_scan =
        shard.get_or("index_scan", Json(false)).as_bool();
    const std::int64_t cand = shard.get_or("candidates", Json(0)).as_int();
    const std::int64_t size = shard.get_or("shard_size", Json(0)).as_int();
    candidates += static_cast<std::size_t>(cand);
    total += static_cast<std::size_t>(size);
    std::cout << "shard " << shard.get_or("shard", Json(0)).as_int() << ": "
              << (index_scan ? "INDEX SCAN" : "FULL SCAN") << ", " << cand
              << " of " << size << " candidate(s)\n";
    const Json idxs = shard.get_or("indexes", Json::array());
    for (const Json& idx : idxs.as_array()) {
      std::cout << "  index " << idx.get_or("path", Json("")).as_string()
                << ": estimate=" << idx.get_or("estimate", Json(0)).as_int()
                << (idx.get_or("applied", Json(false)).as_bool()
                        ? " (applied)"
                        : " (skipped)")
                << "\n";
    }
  }
  std::cout << "total: " << candidates << " candidate(s) across "
            << total << " document(s)\n";
}

int run_remote(int argc, char** argv) {
  // argv: crowdctl --remote <host:port> <command> [args...]
  if (argc < 4) return usage();
  const std::string endpoint = argv[2];
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    std::cerr << "crowdctl: --remote expects host:port\n";
    return 2;
  }
  const std::string host = endpoint.substr(0, colon);
  const int port = std::stoi(endpoint.substr(colon + 1));
  if (port <= 0 || port > 65535) {
    std::cerr << "crowdctl: bad port in " << endpoint << "\n";
    return 2;
  }
  net::CrowdClient client(host, static_cast<std::uint16_t>(port));

  const std::string command = argv[3];
  if (command == "health") {
    std::cout << client.health().dump() << "\n";
    return 0;
  }
  if (command == "stats") {
    std::cout << client.stats().dump(2) << "\n";
    return 0;
  }
  if (command == "upload") {
    if (argc != 7) return usage();
    const auto ids = client.upload(argv[4], argv[5], load_uploads(argv[6]));
    std::cout << "uploaded " << ids.size() << " record(s) to problem '"
              << argv[5] << "' (durable on ack)\n";
    return 0;
  }
  if (command == "query") {
    if (argc != 6 && argc != 7) return usage();
    const std::string where = argc == 7 ? argv[6] : "";
    const auto records = client.query(argv[4], argv[5], where);
    for (const auto& r : records) std::cout << r.dump() << "\n";
    std::cerr << records.size() << " record(s)\n";
    return 0;
  }
  if (command == "explain") {
    if (argc != 6 && argc != 7) return usage();
    const std::string where = argc == 7 ? argv[6] : "";
    print_plan(client.explain(argv[4], argv[5], where));
    return 0;
  }
  return usage();
}

int run_serve(const std::string& dir, std::size_t shards, int argc,
              char** argv) {
  // argv: crowdctl <dir> serve <port> [<workers>]
  if (argc != 4 && argc != 5) return usage();
  const int port = std::stoi(argv[3]);
  if (port < 0 || port > 65535) {
    std::cerr << "crowdctl: bad port " << argv[3] << "\n";
    return 2;
  }

  // Block SIGINT/SIGTERM before any server thread exists so every thread
  // inherits the mask and sigwait below is the only consumer.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  db::engine::EngineOptions eo;
  eo.async_commit = true;  // the upload ack path batches fsyncs
  eo.shards = shards;      // 0 = keep the directory's count
  crowd::SharedRepo repo =
      crowd::SharedRepo::open_durable(dir, 0x6a09e667f3bcc908ULL, eo);

  net::ServerOptions so;
  so.port = static_cast<std::uint16_t>(port);
  if (argc == 5) so.workers = std::stoul(argv[4]);
  net::CrowdServer server(repo, so);
  server.start();
  std::cout << "crowdctl: serving '" << dir << "' on " << so.bind_address
            << ":" << server.port() << " (" << so.workers
            << " worker(s), async group commit); Ctrl-C to drain and stop\n";

  int sig = 0;
  sigwait(&sigs, &sig);
  std::cout << "crowdctl: signal " << sig << " received, draining...\n";
  server.stop();
  std::cout << "crowdctl: stopped\n";
  return 0;
}

int run(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--remote") {
    return run_remote(argc, argv);
  }
  std::size_t shards = 0;  // 0 = keep the directory's count
  while (argc >= 2) {
    const std::string flag = argv[1];
    if (flag == "--shards") {
      if (argc < 3) return usage();
      const int n = std::stoi(argv[2]);
      if (n < 1) {
        std::cerr << "crowdctl: --shards expects a positive count\n";
        return 2;
      }
      shards = static_cast<std::size_t>(n);
      argv += 2;
      argc -= 2;
    } else if (flag.rfind("--", 0) == 0) {
      std::cerr << "crowdctl: unknown option " << flag << "\n";
      return usage();
    } else {
      break;
    }
  }
  if (argc < 3) return usage();
  const std::string dir = argv[1];
  const std::string command = argv[2];

  if (command == "serve") return run_serve(dir, shards, argc, argv);

  // Every mutation is WAL-logged as it happens; sync() fsyncs the WALs
  // before a mutating command reports success.
  db::engine::EngineOptions eo;
  eo.shards = shards;
  crowd::SharedRepo repo =
      crowd::SharedRepo::open_durable(dir, 0x6a09e667f3bcc908ULL, eo);

  if (command == "register") {
    if (argc != 5) return usage();
    const std::string key = repo.register_user(argv[3], argv[4]);
    repo.sync();
    std::cout << "user '" << argv[3]
              << "' registered; API key (shown once): " << key << "\n";
    return 0;
  }
  // The API key of query/explain, authenticated once.
  const auto authed = [&] {
    auto user = repo.authenticate_user(argv[3]);
    if (!user) throw std::invalid_argument("invalid API key");
    return std::move(*user);
  };
  if (command == "upload") {
    if (argc != 6) return usage();
    const auto evals = load_uploads(argv[5]);
    repo.upload_batch(argv[3], argv[4], evals);
    repo.sync();
    std::cout << "uploaded " << evals.size() << " record(s) to problem '"
              << argv[4] << "'\n";
    return 0;
  }
  if (command == "query") {
    if (argc != 5 && argc != 6) return usage();
    const std::string where = argc == 6 ? argv[5] : "";
    const auto records = repo.query_where(authed(), argv[4], where);
    for (const auto& r : records) std::cout << r.dump() << "\n";
    std::cerr << records.size() << " record(s)\n";
    return 0;
  }
  if (command == "explain") {
    if (argc != 5 && argc != 6) return usage();
    const std::string where = argc == 6 ? argv[5] : "";
    print_plan(repo.explain_where(authed(), argv[4], where));
    return 0;
  }
  if (command == "stats") {
    if (argc != 4) return usage();
    std::cout << "problem '" << argv[3]
              << "': " << repo.num_records(argv[3]) << " record(s), "
              << repo.num_users() << " registered user(s)\n";
    return 0;
  }
  if (command == "variability") {
    if (argc != 5) return usage();
    crowd::MetaDescription meta;
    meta.api_key = argv[3];
    meta.tuning_problem_name = argv[4];
    // One report per objective the visible records name, in sorted order;
    // a problem with no records reports on the default objective.
    std::set<std::string> objectives;
    repo.visit_where(authed(), meta.tuning_problem_name, "",
                     [&](const Json& record) {
                       if (record.contains("output") &&
                           record.at("output").is_object())
                         for (const auto& field :
                              record.at("output").as_object())
                           objectives.insert(field.first);
                       return true;
                     });
    if (objectives.empty()) objectives.insert(meta.output_name);
    // Only a problem holding the default objective alone keeps the
    // unlabelled one-report output.
    const bool label =
        objectives.size() > 1 || *objectives.begin() != meta.output_name;
    for (const std::string& objective : objectives) {
      meta.output_name = objective;
      const crowd::VariabilityReport report =
          repo.query_variability_report(meta);
      if (label) std::cout << "objective '" << objective << "': ";
      std::cout << report.summary() << "\n";
      for (const auto& g : report.groups) {
        if (g.outliers.empty() &&
            !g.noisy(report.options.noisy_relative_mad))
          continue;
        std::cout << "  group median=" << g.median
                  << " relative_mad=" << g.relative_mad << " repeats="
                  << g.outputs.size() << " outliers=" << g.outliers.size()
                  << "\n";
      }
    }
    return 0;
  }
  if (command == "collections") {
    for (const auto& name : repo.store().collection_names()) {
      const auto* c = repo.store().find_collection(name);
      std::cout << name << ": " << (c ? c->size() : 0) << " document(s)\n";
    }
    return 0;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "crowdctl: " << e.what() << "\n";
    return 1;
  }
}
