// Tests for the crowd layer: environment parsing, meta descriptions, the
// shared repository (users, API keys, access control, tag normalization,
// queries) and the analytics utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <sstream>

#include "crowd/analytics.hpp"
#include "crowd/envparse.hpp"
#include "crowd/meta.hpp"
#include "crowd/repo.hpp"
#include "crowd/variability.hpp"
#include "sa/sobol.hpp"

namespace gptc::crowd {
namespace {

using json::Json;
using space::Parameter;
using space::Space;
using space::Value;

// ---------------------------------------------------------------------------
// Environment parsing

TEST(Versions, ParseVersion) {
  EXPECT_EQ(parse_version("9.3.0"), (std::vector<int>{9, 3, 0}));
  EXPECT_EQ(parse_version("7"), (std::vector<int>{7}));
  EXPECT_EQ(parse_version("3.11.2-rc1"), (std::vector<int>{3, 11, 2}));
  EXPECT_TRUE(parse_version("abc").empty());
}

TEST(Versions, CompareAndRange) {
  EXPECT_LT(compare_versions({8, 0, 0}, {9}), 0);
  EXPECT_EQ(compare_versions({9, 0}, {9, 0, 0}), 0);
  EXPECT_GT(compare_versions({9, 0, 1}, {9}), 0);
  EXPECT_TRUE(version_in_range({8, 5}, {8, 0, 0}, {9, 0, 0}));
  EXPECT_FALSE(version_in_range({9, 1}, {8, 0, 0}, {9, 0, 0}));
  EXPECT_TRUE(version_in_range({1}, {}, {}));  // unconstrained
}

TEST(Spack, ParsesFullSpec) {
  const auto spec = parse_spack_spec(
      "superlu-dist@7.2.0%gcc@9.3.0+openmp~cuda arch=cray-cnl7-haswell");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->name, "superlu-dist");
  EXPECT_EQ(spec->version, (std::vector<int>{7, 2, 0}));
  EXPECT_EQ(spec->compiler, "gcc");
  EXPECT_EQ(spec->compiler_version, (std::vector<int>{9, 3, 0}));
  ASSERT_EQ(spec->variants.size(), 2u);
  EXPECT_EQ(spec->variants[0], "+openmp");
  EXPECT_EQ(spec->variants[1], "~cuda");
  EXPECT_EQ(spec->arch, "cray-cnl7-haswell");
}

TEST(Spack, MinimalAndInvalidSpecs) {
  const auto spec = parse_spack_spec("scalapack@2.1.0");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->name, "scalapack");
  EXPECT_TRUE(spec->compiler.empty());
  EXPECT_FALSE(parse_spack_spec("").has_value());
  EXPECT_FALSE(parse_spack_spec("# a comment").has_value());
  EXPECT_FALSE(parse_spack_spec("   ").has_value());
}

TEST(Spack, ManifestCollectsSoftwareAndCompilers) {
  const Json sw = parse_spack_manifest(R"(# spack find output
scalapack@2.1.0%gcc@9.3.0
superlu-dist@7.2.0%gcc@9.3.0+openmp

hypre@2.24.0%gcc@9.3.0
)");
  EXPECT_TRUE(sw.contains("scalapack"));
  EXPECT_TRUE(sw.contains("superlu-dist"));
  EXPECT_TRUE(sw.contains("hypre"));
  EXPECT_TRUE(sw.contains("gcc"));  // compiler recorded as software too
  EXPECT_EQ(sw.at("superlu-dist").at("version").at(std::size_t{0}).as_int(), 7);
  EXPECT_EQ(sw.at("gcc").at("version").at(std::size_t{1}).as_int(), 3);
}

TEST(Slurm, ParsesEnvironment) {
  const Json mc = parse_slurm_env({
      {"SLURM_CLUSTER_NAME", "cori"},
      {"SLURM_JOB_PARTITION", "haswell"},
      {"SLURM_JOB_NUM_NODES", "8"},
      {"SLURM_CPUS_ON_NODE", "32"},
      {"SLURM_JOB_ID", "123456"},
  });
  EXPECT_EQ(mc.at("machine_name").as_string(), "cori");
  EXPECT_EQ(mc.at("partition").as_string(), "haswell");
  EXPECT_EQ(mc.at("nodes").as_int(), 8);
  EXPECT_EQ(mc.at("cores").as_int(), 32);
  EXPECT_EQ(mc.at("scheduler").as_string(), "slurm");
}

TEST(Slurm, MissingKeysAreOmitted) {
  const Json mc = parse_slurm_env({{"SLURM_JOB_NUM_NODES", "4"}});
  EXPECT_FALSE(mc.contains("machine_name"));
  EXPECT_EQ(mc.at("nodes").as_int(), 4);
}

// ---------------------------------------------------------------------------
// Meta description

TEST(Meta, ParsesPaperExample) {
  // The meta description from Sec. IV-A of the paper (normalized JSON).
  const Json j = Json::parse(R"({
    "api_key": "k",
    "tuning_problem_name": "my_example",
    "problem_space": {
      "input_space": [
        {"name":"t","type":"integer","lower_bound":1,"upper_bound":10}
      ],
      "parameter_space": [
        {"name":"x","type":"real","lower_bound":0,"upper_bound":10}
      ],
      "output_space": [{"name":"y","type":"real"}]
    },
    "configuration_space": {
      "machine_configurations": [
        {"Cori": {"haswell": {"nodes": 1, "cores": 32}}}
      ],
      "software_configurations": [
        {"gcc": {"version_from": [8,0,0], "version_to": [9,0,0]}}
      ],
      "user_configurations": ["user_A", "user_B"]
    },
    "machine_configuration": {"machine_name": "Cori", "slurm": "yes"},
    "software_configuration": {"spack": "ScaLAPACK"},
    "sync_crowd_repo": "yes"
  })");
  const MetaDescription m = MetaDescription::from_json(j);
  EXPECT_EQ(m.tuning_problem_name, "my_example");
  EXPECT_EQ(m.input_space.dim(), 1u);
  EXPECT_EQ(m.parameter_space.dim(), 1u);
  EXPECT_EQ(m.output_name, "y");
  ASSERT_EQ(m.machine_filters.size(), 1u);
  EXPECT_EQ(m.machine_filters[0].machine_name, "Cori");
  EXPECT_EQ(m.machine_filters[0].partition, "haswell");
  EXPECT_EQ(m.machine_filters[0].nodes_min.value(), 1);
  EXPECT_EQ(m.machine_filters[0].cores_max.value(), 32);
  ASSERT_EQ(m.software_filters.size(), 1u);
  EXPECT_EQ(m.software_filters[0].name, "gcc");
  EXPECT_EQ(m.software_filters[0].version_from, (std::vector<int>{8, 0, 0}));
  ASSERT_EQ(m.user_filters.size(), 2u);
  EXPECT_TRUE(m.sync_crowd_repo);
}

TEST(Meta, RoundTripThroughJson) {
  MetaDescription m;
  m.api_key = "key";
  m.tuning_problem_name = "p";
  m.parameter_space = Space({Parameter::integer("mb", 1, 16)});
  MachineFilter f;
  f.machine_name = "Cori";
  f.partition = "knl";
  f.nodes_min = 32;
  f.nodes_max = 64;
  m.machine_filters.push_back(f);
  SoftwareFilter sf;
  sf.name = "cray-mpich";
  sf.version_from = {7, 7, 10};
  m.software_filters.push_back(sf);
  m.user_filters = {"alice"};
  const MetaDescription back = MetaDescription::from_json(m.to_json());
  EXPECT_EQ(back.tuning_problem_name, "p");
  ASSERT_EQ(back.machine_filters.size(), 1u);
  EXPECT_EQ(back.machine_filters[0].nodes_max.value(), 64);
  ASSERT_EQ(back.software_filters.size(), 1u);
  EXPECT_EQ(back.software_filters[0].version_from,
            (std::vector<int>{7, 7, 10}));
  EXPECT_EQ(back.user_filters[0], "alice");
}

// ---------------------------------------------------------------------------
// SharedRepo

class RepoTest : public ::testing::Test {
 protected:
  RepoTest() : repo_(7) {
    alice_key_ = repo_.register_user("alice", "alice@lab.gov");
    bob_key_ = repo_.register_user("bob", "bob@uni.edu");
  }

  EvalUpload make_upload(double mb, double runtime,
                         const std::string& machine = "Cori",
                         const std::string& partition = "haswell",
                         int nodes = 8) {
    EvalUpload e;
    e.task_parameters = Json::parse(R"({"m":10000,"n":10000})");
    Json tuning = Json::object();
    tuning["mb"] = static_cast<std::int64_t>(mb);
    e.tuning_parameters = std::move(tuning);
    e.output = runtime;
    Json mc = Json::object();
    mc["machine_name"] = machine;
    mc["partition"] = partition;
    mc["nodes"] = std::int64_t{nodes};
    mc["cores"] = std::int64_t{32};
    e.machine_configuration = std::move(mc);
    e.software_configuration =
        parse_spack_manifest("scalapack@2.1.0%gcc@8.3.0");
    return e;
  }

  MetaDescription base_meta(const std::string& key) {
    MetaDescription m;
    m.api_key = key;
    m.tuning_problem_name = "pdgeqrf";
    m.input_space = Space({Parameter::integer("m", 1000, 20000),
                           Parameter::integer("n", 1000, 20000)});
    m.parameter_space = Space({Parameter::integer("mb", 1, 16)});
    return m;
  }

  SharedRepo repo_;
  std::string alice_key_, bob_key_;
};

TEST_F(RepoTest, RegisterAndAuthenticate) {
  EXPECT_EQ(repo_.num_users(), 2u);
  EXPECT_EQ(repo_.authenticate_user(alice_key_).value().username(), "alice");
  EXPECT_EQ(repo_.authenticate_user(bob_key_).value().username(), "bob");
  EXPECT_FALSE(repo_.authenticate_user("bogus").has_value());
  EXPECT_THROW(repo_.register_user("alice", "dup@x.y"), std::invalid_argument);
}

TEST_F(RepoTest, ApiKeysAre20CharsAndUnique) {
  EXPECT_EQ(alice_key_.size(), 20u);
  EXPECT_NE(alice_key_, bob_key_);
  const std::string second = repo_.issue_api_key("alice");
  EXPECT_NE(second, alice_key_);
  EXPECT_EQ(repo_.authenticate_user(second).value().username(), "alice");
  EXPECT_THROW(repo_.issue_api_key("nobody"), std::invalid_argument);
}

TEST_F(RepoTest, RevokedKeyStopsWorking) {
  EXPECT_TRUE(repo_.revoke_api_key(alice_key_));
  EXPECT_FALSE(repo_.authenticate_user(alice_key_).has_value());
  EXPECT_FALSE(repo_.revoke_api_key(alice_key_));  // already revoked
}

TEST_F(RepoTest, PlaintextKeysAreNotStored) {
  // No stored document may contain the plaintext API key.
  for (const auto& name : repo_.store().collection_names()) {
    const db::Collection& c = *repo_.store().find_collection(name);
    for (const auto& d : c.find(Json::object())) {
      EXPECT_EQ(d.dump().find(alice_key_), std::string::npos)
          << "plaintext key leaked into collection " << name;
    }
  }
}

TEST_F(RepoTest, TagNormalization) {
  EXPECT_EQ(repo_.normalize_machine("cori"), "Cori");
  EXPECT_EQ(repo_.normalize_machine("CORI"), "Cori");
  EXPECT_EQ(repo_.normalize_software("ScaLAPACK"), "scalapack");
  EXPECT_EQ(repo_.normalize_software("CrayMPICH"), "cray-mpich");
  EXPECT_EQ(repo_.normalize_machine("unknown-cluster"), "unknown-cluster");
}

TEST_F(RepoTest, UploadNormalizesTags) {
  repo_.upload_batch(alice_key_, "pdgeqrf", {make_upload(4, 1.0, "cori")});
  const auto records =
      repo_.query_function_evaluations(base_meta(alice_key_));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0]
                .at("machine_configuration")
                .at("machine_name")
                .as_string(),
            "Cori");
  EXPECT_TRUE(records[0].at("software_configuration").contains("scalapack"));
}

TEST_F(RepoTest, UploadRequiresValidKey) {
  EXPECT_THROW(repo_.upload_batch("bad-key", "p", {make_upload(4, 1.0)}),
               std::invalid_argument);
}

TEST_F(RepoTest, QueryFiltersByProblemAndRanges) {
  repo_.upload_batch(alice_key_, "pdgeqrf", {make_upload(4, 1.0)});
  repo_.upload_batch(alice_key_, "other_problem", {make_upload(5, 2.0)});
  EvalUpload out_of_range = make_upload(4, 1.0);
  out_of_range.task_parameters = Json::parse(R"({"m":500,"n":500})");
  repo_.upload_batch(alice_key_, "pdgeqrf", {out_of_range});

  const auto records =
      repo_.query_function_evaluations(base_meta(alice_key_));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].at("tuning_parameters").at("mb").as_int(), 4);
  EXPECT_EQ(repo_.num_records("pdgeqrf"), 2u);
}

TEST_F(RepoTest, MachineFiltersRestrictResults) {
  repo_.upload_batch(alice_key_, "pdgeqrf",
                     {make_upload(4, 1.0, "Cori", "haswell", 8),
                      make_upload(5, 2.0, "Cori", "knl", 32),
                      make_upload(6, 3.0, "Summit", "gpu", 8)});

  MetaDescription m = base_meta(alice_key_);
  MachineFilter f;
  f.machine_name = "cori";  // alias form
  f.partition = "haswell";
  m.machine_filters.push_back(f);
  auto records = repo_.query_function_evaluations(m);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].at("tuning_parameters").at("mb").as_int(), 4);

  // Node range [16, 64] picks the KNL record.
  m.machine_filters.clear();
  MachineFilter g;
  g.machine_name = "Cori";
  g.nodes_min = 16;
  g.nodes_max = 64;
  m.machine_filters.push_back(g);
  records = repo_.query_function_evaluations(m);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].at("tuning_parameters").at("mb").as_int(), 5);
}

TEST_F(RepoTest, SoftwareVersionFilter) {
  // gcc 8.3.0
  repo_.upload_batch(alice_key_, "pdgeqrf", {make_upload(4, 1.0)});
  EvalUpload newer = make_upload(5, 2.0);
  newer.software_configuration =
      parse_spack_manifest("scalapack@2.1.0%gcc@10.1.0");
  repo_.upload_batch(alice_key_, "pdgeqrf", {newer});

  MetaDescription m = base_meta(alice_key_);
  SoftwareFilter f;
  f.name = "GCC";  // alias capitalization
  f.version_from = {8, 0, 0};
  f.version_to = {9, 0, 0};
  m.software_filters.push_back(f);
  const auto records = repo_.query_function_evaluations(m);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].at("tuning_parameters").at("mb").as_int(), 4);
}

TEST_F(RepoTest, MalformedRecordFailsBoundsWithoutBreakingQueries) {
  repo_.upload_batch(alice_key_, "pdgeqrf",
                     {make_upload(4, 1.0, "Cori", "knl", 32)});
  for (const char* nodes : {R"("two")", "32.5", "null", "[32]"}) {
    EvalUpload bad = make_upload(5, 2.0, "Cori", "knl", 32);
    bad.machine_configuration["nodes"] = Json::parse(nodes);
    repo_.upload_batch(alice_key_, "pdgeqrf", {bad});
  }
  EvalUpload bad_cores = make_upload(6, 3.0, "Cori", "knl", 32);
  bad_cores.machine_configuration["cores"] = "many";
  repo_.upload_batch(alice_key_, "pdgeqrf", {bad_cores});
  EvalUpload integral = make_upload(7, 4.0, "Cori", "knl", 32);
  integral.machine_configuration["nodes"] = 32.0;
  repo_.upload_batch(alice_key_, "pdgeqrf", {integral});

  MetaDescription m = base_meta(alice_key_);
  MachineFilter g;
  g.machine_name = "Cori";
  g.nodes_min = 16;
  g.nodes_max = 64;
  g.cores_min = 1;
  m.machine_filters.push_back(g);
  auto records = repo_.query_function_evaluations(m);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].at("tuning_parameters").at("mb").as_int(), 4);
  EXPECT_EQ(records[1].at("tuning_parameters").at("mb").as_int(), 7);
  EvalUpload bad_partition = make_upload(9, 6.0, "Cori", "knl", 32);
  bad_partition.machine_configuration["partition"] = 5;
  repo_.upload_batch(alice_key_, "pdgeqrf", {bad_partition});
  m.machine_filters.front().partition = "knl";
  EXPECT_EQ(repo_.query_function_evaluations(m).size(), 2u);

  for (const char* version : {R"("8.1")", R"([8,"1"])", "[8.5]", "8"}) {
    EvalUpload bad = make_upload(8, 5.0);
    bad.software_configuration =
        Json::parse(std::string(R"({"gcc":{"version":)") + version + "}}");
    repo_.upload_batch(alice_key_, "pdgeqrf", {bad});
  }
  m = base_meta(alice_key_);
  SoftwareFilter f;
  f.name = "gcc";
  f.version_from = {8, 0, 0};
  m.software_filters.push_back(f);
  records = repo_.query_function_evaluations(m);
  ASSERT_EQ(records.size(), 8u);  // every upload but the malformed versions
  for (const Json& r : records)
    EXPECT_NE(r.at("tuning_parameters").at("mb").as_int(), 8);
}

TEST_F(RepoTest, UserFilterTrustsSpecificUploaders) {
  repo_.upload_batch(alice_key_, "pdgeqrf", {make_upload(4, 1.0)});
  repo_.upload_batch(bob_key_, "pdgeqrf", {make_upload(5, 2.0)});
  MetaDescription m = base_meta(alice_key_);
  m.user_filters = {"bob"};
  const auto records = repo_.query_function_evaluations(m);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].at("user").as_string(), "bob");
}

TEST_F(RepoTest, AccessControlPrivateAndShared) {
  EvalUpload priv = make_upload(4, 1.0);
  priv.accessibility.level = Accessibility::Level::Private;
  repo_.upload_batch(alice_key_, "pdgeqrf", {priv});

  EvalUpload shared = make_upload(5, 2.0);
  shared.accessibility.level = Accessibility::Level::Shared;
  shared.accessibility.shared_with = {"bob"};
  repo_.upload_batch(alice_key_, "pdgeqrf", {shared});

  repo_.upload_batch(alice_key_, "pdgeqrf", {make_upload(6, 3.0)});  // public

  // Alice (owner) sees all three; Bob sees shared + public.
  EXPECT_EQ(repo_.query_function_evaluations(base_meta(alice_key_)).size(),
            3u);
  const auto bob_view = repo_.query_function_evaluations(base_meta(bob_key_));
  ASSERT_EQ(bob_view.size(), 2u);
  // A third user sees only the public record.
  const std::string carol_key = repo_.register_user("carol", "c@x.y");
  EXPECT_EQ(repo_.query_function_evaluations(base_meta(carol_key)).size(),
            1u);
}

TEST_F(RepoTest, FailedRunsStoredAsNullOutput) {
  const double failed = std::numeric_limits<double>::quiet_NaN();
  repo_.upload_batch(alice_key_, "pdgeqrf", {make_upload(4, failed)});
  const auto records =
      repo_.query_function_evaluations(base_meta(alice_key_));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].at("output").at("runtime").is_null());
}

TEST_F(RepoTest, SurrogateAndPredictionUtilities) {
  // Upload samples of a simple function runtime(mb) = (mb-8)^2 + 1.
  for (int mb = 1; mb < 16; ++mb)
    repo_.upload_batch(alice_key_, "pdgeqrf",
                       {make_upload(mb, (mb - 8.0) * (mb - 8.0) + 1.0)});
  const MetaDescription m = base_meta(alice_key_);
  const auto model =
      fit_surrogate(repo_.query_function_evaluations(m), m, /*seed=*/1);
  ASSERT_NE(model, nullptr);
  const auto predict = [&](std::int64_t mb) {
    return model->predict(m.parameter_space.encode({Value(mb)})).mean;
  };
  EXPECT_LT(predict(8), predict(1));  // surrogate learned the valley at mb=8
}

TEST_F(RepoTest, SurrogateNeedsEnoughData) {
  repo_.upload_batch(alice_key_, "pdgeqrf", {make_upload(4, 1.0)});
  const MetaDescription m = base_meta(alice_key_);
  EXPECT_THROW(fit_surrogate(repo_.query_function_evaluations(m), m),
               std::runtime_error);
}

TEST_F(RepoTest, SensitivityAnalysisRunsOnCrowdData) {
  rng::Rng noise(1);
  for (int i = 0; i < 40; ++i) {
    const int mb = 1 + i % 15;
    repo_.upload_batch(alice_key_, "pdgeqrf",
                       {make_upload(mb, (mb - 8.0) * (mb - 8.0) + 1.0)});
  }
  sa::SobolOptions opt;
  opt.base_samples = 128;
  const MetaDescription m = base_meta(alice_key_);
  const auto model = fit_surrogate(repo_.query_function_evaluations(m), m, 2);
  rng::Rng rng(rng::splitmix64(2 + 0x51ab1edULL));
  const sa::SobolResult r =
      sa::analyze_surrogate(*model, m.parameter_space, rng, opt);
  ASSERT_EQ(r.dim(), 1u);
  EXPECT_EQ(r.names[0], "mb");
  EXPECT_GT(r.st[0], 0.5);  // the only parameter carries all the variance
}

TEST_F(RepoTest, SourceHistoriesGroupByTask) {
  for (int i = 0; i < 5; ++i)
    repo_.upload_batch(alice_key_, "pdgeqrf", {make_upload(1 + i, 1.0 + i)});
  EvalUpload other_task = make_upload(3, 9.0);
  other_task.task_parameters = Json::parse(R"({"m":8000,"n":8000})");
  repo_.upload_batch(alice_key_, "pdgeqrf", {other_task});

  const MetaDescription m = base_meta(alice_key_);
  const auto histories =
      source_histories(repo_.query_function_evaluations(m), m);
  ASSERT_EQ(histories.size(), 2u);
  // Ordered by descending sample count.
  EXPECT_EQ(histories[0].size(), 5u);
  EXPECT_EQ(histories[1].size(), 1u);
  EXPECT_EQ(histories[0].task()[0].as_int(), 10000);
  EXPECT_EQ(histories[1].task()[0].as_int(), 8000);
}

TEST_F(RepoTest, QueryRequiresValidKey) {
  MetaDescription m = base_meta("not-a-key");
  EXPECT_THROW(repo_.query_function_evaluations(m), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Durable mode (src/db/engine storage engine)

/// Scratch repo directory removed on scope exit.
struct RepoDir {
  std::filesystem::path path;
  explicit RepoDir(const char* name)
      : path(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(path);
  }
  ~RepoDir() { std::filesystem::remove_all(path); }
};

TEST(SharedRepoDurable, ReopenRecoversUsersKeysAndRecords) {
  RepoDir dir("gptc_repo_durable");
  std::string key;
  {
    SharedRepo repo = SharedRepo::open_durable(dir.path);
    key = repo.register_user("alice", "alice@lab.gov");
    EvalUpload e;
    e.task_parameters = Json::parse(R"({"m":10000,"n":10000})");
    e.tuning_parameters = Json::parse(R"({"mb":4})");
    e.output = 1.5;
    repo.upload_batch(key, "pdgeqrf", {e});
    repo.sync();
  }
  // On-disk state is WAL/snapshot, not the diffable export. A fresh
  // directory opens at one shard.
  const std::string stem =
      db::engine::StorageEngine::shard_stem("api_keys", 0, 1);
  EXPECT_TRUE(std::filesystem::exists(dir.path / (stem + ".wal")) ||
              std::filesystem::exists(dir.path / (stem + ".snapshot")));
  SharedRepo repo = SharedRepo::open_durable(dir.path);
  EXPECT_EQ(repo.num_users(), 1u);
  EXPECT_EQ(repo.authenticate_user(key).value().username(), "alice");
  EXPECT_EQ(repo.num_records("pdgeqrf"), 1u);
  EXPECT_TRUE(repo.store().find_collection("func_eval")->has_index("problem"));
}

TEST(SharedRepoDurable, SeedAliasesNormalizeOnceAcrossReopens) {
  // A durable repository carries the built-in tag aliases like an
  // in-memory one: uploads are normalized ("cori" -> "Cori"), and reopening
  // adds no second copy of the seed entries.
  RepoDir dir("gptc_repo_durable_aliases");
  std::size_t machines = 0, software = 0;
  {
    SharedRepo repo = SharedRepo::open_durable(dir.path);
    const std::string key = repo.register_user("alice", "alice@lab.gov");
    EvalUpload e;
    e.tuning_parameters = Json::parse(R"({"mb":4})");
    e.machine_configuration = Json::parse(R"({"machine_name":"cori"})");
    e.output = 1.0;
    repo.upload_batch(key, "pdgeqrf", {e});
    machines = repo.store().find_collection("machines")->size();
    software = repo.store().find_collection("software")->size();
    const SharedRepo in_memory;
    EXPECT_EQ(machines, in_memory.store().find_collection("machines")->size());
    EXPECT_EQ(software, in_memory.store().find_collection("software")->size());
    repo.sync();
  }
  SharedRepo repo = SharedRepo::open_durable(dir.path);
  EXPECT_EQ(repo.store().find_collection("machines")->size(), machines);
  EXPECT_EQ(repo.store().find_collection("software")->size(), software);
  const Json rec =
      repo.store().find_collection("func_eval")->find(Json::object()).at(0);
  EXPECT_EQ(rec.at("machine_configuration").at("machine_name").as_string(),
            "Cori");
  EXPECT_EQ(repo.normalize_software("ScaLAPACK"), "scalapack");
}

TEST(SharedRepoDurable, UnversionedKeyDocNeverAuthenticates) {
  // Only hash_version 2 (salted SipHash-2-4) key documents verify. A key
  // document without a version, here carrying the unsalted FNV hash
  // pre-engine builds stored, fails closed: it neither authenticates nor
  // can be revoked.
  RepoDir dir("gptc_repo_unversioned_key");
  const std::string old_key = "legacy-api-key-00001";
  {
    auto store = db::DocumentStore::open_durable(dir.path);
    Json user = Json::object();
    user["username"] = "veteran";
    user["email"] = "veteran@lab.gov";
    store.collection("users").insert(std::move(user));
    Json doc = Json::object();
    doc["username"] = "veteran";
    doc["key_hash"] = std::to_string(rng::hash_tag(old_key));
    doc["revoked"] = false;
    store.collection("api_keys").insert(std::move(doc));
    store.sync();
  }
  SharedRepo repo = SharedRepo::open_durable(dir.path);
  EXPECT_EQ(repo.num_users(), 1u);
  EXPECT_FALSE(repo.authenticate_user(old_key).has_value());
  EXPECT_FALSE(repo.revoke_api_key(old_key));
  // A key issued now uses the current format and works alongside.
  const std::string fresh = repo.issue_api_key("veteran");
  EXPECT_EQ(repo.authenticate_user(fresh).value().username(), "veteran");
}

TEST(EvalUploadJson, MissingFieldsTakeWireDefaults) {
  // The one decoder for upload records, shared by the server and crowdctl:
  // a missing output is a failed run (NaN), the output name defaults to
  // "runtime" and a missing accessibility means public.
  const EvalUpload e =
      EvalUpload::from_json(Json::parse(R"({"tuning_parameters":{"mb":4}})"));
  EXPECT_TRUE(std::isnan(e.output));
  EXPECT_EQ(e.output_name, "runtime");
  EXPECT_EQ(e.accessibility.level, Accessibility::Level::Public);
  EXPECT_TRUE(e.accessibility.shared_with.empty());
  EXPECT_EQ(e.tuning_parameters.at("mb").as_int(), 4);
  EXPECT_EQ(e.task_parameters, Json::object());
  EXPECT_EQ(e.machine_configuration, Json::object());
  EXPECT_EQ(e.software_configuration, Json::object());

  const EvalUpload f = EvalUpload::from_json(Json::parse(
      R"({"output":2.5,"output_name":"gflops",)"
      R"("accessibility":{"shared_with":["bob"]}})"));
  EXPECT_EQ(f.output, 2.5);
  EXPECT_EQ(f.output_name, "gflops");
  EXPECT_EQ(f.accessibility.level, Accessibility::Level::Shared);
  ASSERT_EQ(f.accessibility.shared_with.size(), 1u);
  EXPECT_EQ(f.accessibility.shared_with[0], "bob");
  // A null output is a failed run as well.
  EXPECT_TRUE(std::isnan(
      EvalUpload::from_json(Json::parse(R"({"output":null})")).output));
}

TEST(EvalUploadJson, WronglyTypedOutputIsAnError) {
  // A present output must be a number or null: a typo in an upload must
  // not be stored as a failed run.
  for (const char* output : {R"("x")", "true", "[1.5]", R"({"runtime":1})"}) {
    const Json r = Json::parse(std::string(R"({"output":)") + output + "}");
    EXPECT_THROW(EvalUpload::from_json(r), std::invalid_argument) << output;
  }
  EXPECT_EQ(EvalUpload::from_json(Json::parse(R"({"output":3})")).output, 3.0);
}

TEST(EvalUploadJson, ToJsonIsTheWireShapeAndFromJsonsInverse) {
  // The client's upload request carries exactly these bytes.
  EvalUpload e;
  e.task_parameters = Json::parse(R"({"m":1000,"n":500})");
  e.tuning_parameters = Json::parse(R"({"mb":4,"order":"row"})");
  e.output_name = "gflops";
  e.output = 2.5;
  e.machine_configuration =
      Json::parse(R"({"machine_name":"Cori","nodes":8})");
  e.software_configuration = Json::parse(R"({"gcc":{"version":[8,3,0]}})");
  e.accessibility.level = Accessibility::Level::Shared;
  e.accessibility.shared_with = {"bob", "carol"};
  EXPECT_EQ(e.to_json().dump(),
            R"({"accessibility":{"shared_with":["bob","carol"]},)"
            R"("machine_configuration":{"machine_name":"Cori","nodes":8},)"
            R"("output":2.5,"output_name":"gflops",)"
            R"("software_configuration":{"gcc":{"version":[8,3,0]}},)"
            R"("task_parameters":{"m":1000,"n":500},)"
            R"("tuning_parameters":{"mb":4,"order":"row"}})");
  const EvalUpload back = EvalUpload::from_json(e.to_json());
  EXPECT_EQ(back.to_json().dump(), e.to_json().dump());

  EvalUpload failed;
  failed.output = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(failed.to_json().dump(),
            R"({"accessibility":"public","machine_configuration":{},)"
            R"("output":null,"output_name":"runtime",)"
            R"("software_configuration":{},"task_parameters":null,)"
            R"("tuning_parameters":null})");
  EXPECT_TRUE(std::isnan(EvalUpload::from_json(failed.to_json()).output));
}

TEST_F(RepoTest, QueriesByteIdenticalWithIndexesOn) {
  // Replay the same uploads into a second repo with the same seed, then
  // declare the default indexes only on the copy: every query must return
  // byte-identical results — the planner changes candidate discovery, not
  // semantics or ordering.
  SharedRepo indexed(7);
  const std::string a2 = indexed.register_user("alice", "alice@lab.gov");
  const std::string b2 = indexed.register_user("bob", "bob@uni.edu");
  for (int i = 0; i < 12; ++i) {
    const auto e = make_upload(1 + i % 8, 1.0 + i,
                               i % 3 == 0 ? "Cori" : "Summit", "haswell",
                               8 * (1 + i % 2));
    repo_.upload_batch(i % 2 == 0 ? alice_key_ : bob_key_, "pdgeqrf", {e});
    indexed.upload_batch(i % 2 == 0 ? a2 : b2, "pdgeqrf", {e});
  }
  indexed.declare_default_indexes();
  // The problem descriptor names the task parameters, so their indexes are
  // among the defaults.
  EXPECT_TRUE(indexed.store().find_collection("func_eval")->has_index(
      "task_parameters.m"));

  MetaDescription m1 = base_meta(alice_key_);
  MetaDescription m2 = base_meta(a2);
  const auto r1 = repo_.query_function_evaluations(m1);
  const auto r2 = indexed.query_function_evaluations(m2);
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i)
    EXPECT_EQ(r1[i].dump(), r2[i].dump());

  const char* where =
      "tuning_parameters.mb >= 3 AND "
      "machine_configuration.machine_name = 'Cori'";
  const auto w1 = repo_.query_where(
      repo_.authenticate_user(alice_key_).value(), "pdgeqrf", where);
  const auto w2 = indexed.query_where(indexed.authenticate_user(a2).value(),
                                      "pdgeqrf", where);
  ASSERT_EQ(w1.size(), w2.size());
  for (std::size_t i = 0; i < w1.size(); ++i)
    EXPECT_EQ(w1[i].dump(), w2[i].dump());
}


// ---------------------------------------------------------------------------
// Analytics pins: one objective, two tasks, a failed run, a record missing a
// tuning parameter and repeated measurements. Any change to how records are
// filtered, decoded or fitted shows up here as a changed bit.

class AnalyticsPins : public ::testing::Test {
 protected:
  AnalyticsPins() : repo_(11) {
    key_ = repo_.register_user("alice", "alice@lab.gov");
    struct Row {
      int m, mb, nb;
      double y;
    };
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const Row rows[] = {{1000, 1, 1, 3.0},   {2000, 2, 1, 4.0},
                        {1000, 3, 2, 1.75},  {1000, 5, 4, 1.25},
                        {2000, 6, 3, 2.5},   {1000, 14, 7, nan},
                        {1000, 7, 3, 1.5},   {2000, 8, 0, 2.0},
                        {1000, 9, 6, 2.875}, {2000, 10, 5, 3.25},
                        {1000, 12, 5, 4.5},  {1000, 5, 4, 1.25},
                        {1000, 5, 4, 1.3125}, {2000, 13, 2, 5.5},
                        {2000, 6, 3, 3.0},   {1000, 5, 4, 6.0}};
    std::vector<EvalUpload> evals;
    for (const Row& r : rows) {
      EvalUpload e;
      e.task_parameters = Json::object();
      e.task_parameters["m"] = std::int64_t{r.m};
      e.tuning_parameters = Json::object();
      e.tuning_parameters["mb"] = std::int64_t{r.mb};
      if (r.nb > 0) e.tuning_parameters["nb"] = std::int64_t{r.nb};  // 0: none
      e.output = r.y;
      e.machine_configuration = Json::parse(R"({"machine_name":"Cori"})");
      evals.push_back(std::move(e));
    }
    repo_.upload_batch(key_, "pin", evals);
  }

  MetaDescription meta() const {
    MetaDescription m;
    m.api_key = key_;
    m.tuning_problem_name = "pin";
    m.input_space = Space({Parameter::integer("m", 500, 5000)});
    m.parameter_space = Space(
        {Parameter::integer("mb", 1, 16), Parameter::integer("nb", 1, 8)});
    return m;
  }

  std::vector<Json> records() const {
    return repo_.query_function_evaluations(meta());
  }

  SharedRepo repo_;
  std::string key_;
};

TEST_F(AnalyticsPins, PredictOutputBits) {
  const std::pair<int, int> at[] = {{5, 4}, {1, 7}, {15, 1}};
  const double pinned[] = {0x1.7bf353ff4ae8dp+1, 0x1.7d05f25fa98b4p+1,
                           0x1.7dd0edc3aaed7p+1};
  const auto model = fit_surrogate(records(), meta());
  for (std::size_t i = 0; i < 3; ++i) {
    const double y =
        model
            ->predict(meta().parameter_space.encode(
                {Value(std::int64_t{at[i].first}),
                 Value(std::int64_t{at[i].second})}))
            .mean;
    EXPECT_EQ(y, pinned[i]) << "point " << i << " = " << std::hexfloat << y;
  }
}

TEST_F(AnalyticsPins, SourceHistories) {
  std::ostringstream os;
  for (const core::TaskHistory& h : source_histories(records(), meta())) {
    os << "m=" << h.task()[0].dump() << ":";
    for (const core::EvalRecord& e : h.evals())
      os << " [" << e.params[0].dump() << "," << e.params[1].dump()
         << "]=" << e.output;
    os << "\n";
  }
  // Failed runs stay in their task's history; the record without nb is
  // outside the queried parameter space.
  EXPECT_EQ(os.str(),
            "m=1000: [1,1]=3 [3,2]=1.75 [5,4]=1.25 [14,7]=nan [7,3]=1.5 "
            "[9,6]=2.875 [12,5]=4.5 [5,4]=1.25 [5,4]=1.3125 [5,4]=6\n"
            "m=2000: [2,1]=4 [6,3]=2.5 [10,5]=3.25 [13,2]=5.5 [6,3]=3\n");
}

TEST_F(AnalyticsPins, SobolIndicesBits) {
  sa::SobolOptions opts;
  opts.base_samples = 256;
  opts.bootstrap = 10;
  const std::uint64_t seed = 4;
  const auto model = fit_surrogate(records(), meta(), seed);
  rng::Rng rng(rng::splitmix64(seed + 0x51ab1edULL));
  const sa::SobolResult r =
      sa::analyze_surrogate(*model, meta().parameter_space, rng, opts);
  ASSERT_EQ(r.dim(), 2u);
  // A near-flat pooled surrogate (see PredictOutputBits) gives estimator
  // noise rather than meaningful indices; the pin is on the bits.
  const double s1[] = {0x1.dad302dfe3d3p+1, 0x1.18f57c9366f24p-6};
  const double st[] = {0x1.0495fa907addcp+0, 0x1.c2581a2df0a3p-17};
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(r.s1[i], s1[i]) << r.names[i] << " S1 = " << std::hexfloat
                              << r.s1[i];
    EXPECT_EQ(r.st[i], st[i]) << r.names[i] << " ST = " << std::hexfloat
                              << r.st[i];
  }
}

TEST_F(AnalyticsPins, VariabilitySummary) {
  EXPECT_EQ(detect_variability(records()).summary(),
            "2 repeated-measurement group(s), 1 noisy (relative MAD > 0.05), "
            "1 outlier record(s) (|z| > 3.5)");
}


TEST(MixedObjectives, AnalyticsModelTheMetaObjectiveOnly) {
  // Runtime and energy uploads share one problem. A meta description whose
  // objective is "runtime" models the runtime records alone: the same
  // surrogate, source histories and variability groups as a repository
  // holding only them.
  SharedRepo mixed(5), runtimes_only(5);
  const std::string mixed_key = mixed.register_user("alice", "a@x.y");
  const std::string runtime_key = runtimes_only.register_user("alice", "a@x.y");
  std::vector<EvalUpload> all, runtimes;
  for (int i = 0; i < 12; ++i) {
    const int mb = 1 + i % 6;
    EvalUpload r;
    r.task_parameters = Json::parse(R"({"m":1000})");
    r.tuning_parameters = Json::object();
    r.tuning_parameters["mb"] = std::int64_t{mb};
    r.output = 1.0 + 0.25 * (mb - 3) * (mb - 3) + 0.01 * i;
    EvalUpload e = r;
    e.output_name = "energy";
    e.output = i == 7 ? std::numeric_limits<double>::quiet_NaN()
                      : 1000.0 + 37.0 * mb + (i % 2 == 0 ? 400.0 : 0.0);
    all.push_back(e);
    all.push_back(r);
    runtimes.push_back(r);
  }
  mixed.upload_batch(mixed_key, "p", all);
  runtimes_only.upload_batch(runtime_key, "p", runtimes);

  const auto meta = [](const std::string& key) {
    MetaDescription m;
    m.api_key = key;
    m.tuning_problem_name = "p";
    m.input_space = Space({Parameter::integer("m", 1, 5000)});
    m.parameter_space = Space({Parameter::integer("mb", 1, 16)});
    m.output_name = "runtime";
    return m;
  };
  const MetaDescription mm = meta(mixed_key), rm = meta(runtime_key);

  const std::vector<Json> ra = mixed.query_function_evaluations(mm);
  const std::vector<Json> rb = runtimes_only.query_function_evaluations(rm);
  const auto a = fit_surrogate(ra, mm, 3);
  const auto b = fit_surrogate(rb, rm, 3);
  for (const double u : {0.0, 0.3, 0.55, 1.0}) {
    const gp::Prediction pa = a->predict({u}), pb = b->predict({u});
    EXPECT_EQ(pa.mean, pb.mean) << "u = " << u;
    EXPECT_EQ(pa.variance, pb.variance) << "u = " << u;
  }

  const auto ha = source_histories(ra, mm);
  const auto hb = source_histories(rb, rm);
  ASSERT_EQ(ha.size(), 1u);
  ASSERT_EQ(hb.size(), 1u);
  ASSERT_EQ(ha[0].size(), 12u);  // the failed energy run is not a runtime
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(ha[0].evals()[i].output, hb[0].evals()[i].output);
    EXPECT_EQ(ha[0].evals()[i].params[0], hb[0].evals()[i].params[0]);
  }

  const VariabilityReport va = detect_variability(ra);
  const VariabilityReport vb = detect_variability(rb);
  ASSERT_EQ(va.groups.size(), 6u);
  ASSERT_EQ(vb.groups.size(), 6u);
  for (std::size_t g = 0; g < 6; ++g) {
    EXPECT_EQ(va.groups[g].outputs, vb.groups[g].outputs);
    EXPECT_EQ(va.groups[g].outliers, vb.groups[g].outliers);
  }
  EXPECT_EQ(va.summary(), vb.summary());
}

}  // namespace
}  // namespace gptc::crowd
