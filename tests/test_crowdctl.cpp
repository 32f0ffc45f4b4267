// Tests for the crowdctl command-line tool (tools/crowdctl.cpp), driven as
// a separate process per command the way an operator uses it: every
// directory command opens the repository on the storage engine, so what
// one process registers or uploads must be there for the next. Also pins
// the rejection of the removed --durable flag and the refusal of a
// directory that only holds pre-engine JSON exports.
//
// The binary path is injected by tests/CMakeLists.txt as GPTC_CROWDCTL_BIN.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "db/document_store.hpp"

namespace {

namespace fs = std::filesystem;

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

/// Runs crowdctl with the given arguments, capturing combined output and
/// the exit status.
RunResult crowdctl(const std::string& args) {
  RunResult r;
  const std::string command =
      std::string(GPTC_CROWDCTL_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  std::size_t got = 0;
  while ((got = fread(buf, 1, sizeof(buf), pipe)) > 0) r.output.append(buf, got);
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(fs::temp_directory_path() / name) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// The API key `register` prints after "(shown once): ".
std::string key_from(const RunResult& r) {
  const std::string marker = "(shown once): ";
  const std::size_t at = r.output.find(marker);
  if (at == std::string::npos) return "";
  std::istringstream rest(r.output.substr(at + marker.size()));
  std::string key;
  rest >> key;
  return key;
}

TEST(Crowdctl, StateSurvivesEachProcess) {
  TempDir dir("gptc_crowdctl_workflow");
  const fs::path repo = dir.path() / "repo";
  const fs::path records = dir.path() / "records.json";
  std::ofstream(records)
      << R"([{"task_parameters": {"m": 1000}, "tuning_parameters": {"mb": 4},)"
      << R"( "output": 1.5},)"
      << R"( {"task_parameters": {"m": 1000}, "tuning_parameters": {"mb": 8},)"
      << R"( "output": 2.5, "machine_configuration": {"machine_name": "cori"}},)"
      << R"( {"task_parameters": {"m": 1000}, "tuning_parameters": {"mb": 16}}])";

  RunResult r = crowdctl(repo.string() + " register alice alice@lab.gov");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::string key = key_from(r);
  ASSERT_EQ(key.size(), 20u) << r.output;

  r = crowdctl(repo.string() + " upload " + key + " pdgeqrf " +
               records.string());
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("uploaded 3 record(s)"), std::string::npos)
      << r.output;

  r = crowdctl(repo.string() + " stats pdgeqrf");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("problem 'pdgeqrf': 3 record(s), 1 registered "
                          "user(s)"),
            std::string::npos)
      << r.output;

  r = crowdctl(repo.string() + " query " + key +
               " pdgeqrf 'tuning_parameters.mb >= 8'");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("2 record(s)"), std::string::npos) << r.output;
  // The alias table normalized the tag on upload.
  EXPECT_NE(r.output.find(R"("machine_name":"Cori")"), std::string::npos)
      << r.output;

  // A second user and a second upload land on top of the reopened state.
  r = crowdctl(repo.string() + " register bob bob@uni.edu");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(key_from(r), key);
  r = crowdctl(repo.string() + " upload " + key + " pdgeqrf " +
               records.string());
  ASSERT_EQ(r.exit_code, 0) << r.output;
  r = crowdctl(repo.string() + " stats pdgeqrf");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("problem 'pdgeqrf': 6 record(s), 2 registered "
                          "user(s)"),
            std::string::npos)
      << r.output;
}

TEST(Crowdctl, UploadIsAllOrNothing) {
  // Every record is decoded before the one batch goes down, so a malformed
  // second record leaves the first unstored too, as over --remote.
  TempDir dir("gptc_crowdctl_atomic_upload");
  const fs::path repo = dir.path() / "repo";
  const fs::path records = dir.path() / "records.json";
  std::ofstream(records)
      << R"([{"task_parameters": {"m": 1000}, "tuning_parameters": {"mb": 4},)"
      << R"( "output": 1.5},)"
      << R"( {"task_parameters": {"m": 1000}, "tuning_parameters": {"mb": 8},)"
      << R"( "output": 2.5, "output_name": 5}])";

  RunResult r = crowdctl(repo.string() + " register alice alice@lab.gov");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::string key = key_from(r);

  r = crowdctl(repo.string() + " upload " + key + " pdgeqrf " +
               records.string());
  EXPECT_NE(r.exit_code, 0) << r.output;
  // The error names the malformed record by its 1-based position.
  EXPECT_NE(r.output.find("crowdctl: record 2: expected string, got int"),
            std::string::npos)
      << r.output;
  r = crowdctl(repo.string() + " stats pdgeqrf");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("problem 'pdgeqrf': 0 record(s)"), std::string::npos)
      << r.output;

  // A bad key fails the local query and explain with the same message.
  for (const char* command : {" query ", " explain "}) {
    r = crowdctl(repo.string() + command + "not-a-key pdgeqrf");
    EXPECT_NE(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("invalid API key"), std::string::npos)
        << r.output;
  }
}

TEST(Crowdctl, VariabilityReportsEachUploadedObjective) {
  // The report follows the objectives the records name: a "gflops" problem
  // is grouped on gflops, and a problem holding two objectives prints one
  // labelled report per objective, sorted by name. A runtime-only problem
  // keeps its single unlabelled report.
  TempDir dir("gptc_crowdctl_variability");
  const fs::path repo = dir.path() / "repo";
  const auto repeated = [&](const std::string& file, const std::string& name) {
    const fs::path path = dir.path() / file;
    std::ofstream out(path);
    const char* sep = "[";
    for (const char* y : {"10.0", "10.2", "9.9"}) {
      out << sep << R"({"task_parameters": {"m": 1000}, "tuning_parameters": )"
          << R"({"mb": 4}, "output": )" << y << R"(, "output_name": ")"
          << name << R"("})";
      sep = ", ";
    }
    out << "]";
    return path.string();
  };
  RunResult r = crowdctl(repo.string() + " register alice alice@lab.gov");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::string key = key_from(r);
  const std::string gflops = repeated("gflops.json", "gflops");
  const std::string runtime = repeated("runtime.json", "runtime");

  r = crowdctl(repo.string() + " upload " + key + " qr " + gflops);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  r = crowdctl(repo.string() + " variability " + key + " qr");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.rfind("objective 'gflops': 1 repeated-measurement "
                           "group(s)",
                           0),
            0u)
      << r.output;

  r = crowdctl(repo.string() + " upload " + key + " qr " + runtime);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  r = crowdctl(repo.string() + " variability " + key + " qr");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::size_t g = r.output.find("objective 'gflops': 1 repeated");
  const std::size_t t = r.output.find("objective 'runtime': 1 repeated");
  ASSERT_NE(g, std::string::npos) << r.output;
  ASSERT_NE(t, std::string::npos) << r.output;
  EXPECT_LT(g, t) << r.output;

  r = crowdctl(repo.string() + " upload " + key + " lu " + runtime);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  r = crowdctl(repo.string() + " variability " + key + " lu");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.rfind("1 repeated-measurement group(s), ", 0), 0u)
      << r.output;
  EXPECT_EQ(r.output.find("objective"), std::string::npos) << r.output;
}

TEST(Crowdctl, ShardsOptionNeedsNoOtherFlag) {
  TempDir dir("gptc_crowdctl_shards");
  const fs::path repo = dir.path() / "repo";
  const RunResult r = crowdctl("--shards 2 " + repo.string() + " stats p");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(repo / "engine.manifest");
  std::ostringstream manifest;
  manifest << in.rdbuf();
  EXPECT_NE(manifest.str().find(R"("shards":2)"), std::string::npos)
      << manifest.str();
}

TEST(Crowdctl, RemovedDurableFlagIsAUsageError) {
  TempDir dir("gptc_crowdctl_durable_flag");
  const fs::path repo = dir.path() / "repo";
  const RunResult r = crowdctl("--durable " + repo.string() + " stats p");
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("unknown option --durable"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("usage: crowdctl"), std::string::npos) << r.output;
  EXPECT_FALSE(fs::exists(repo));
}

TEST(Crowdctl, RefusesDirectoryOfJsonExports) {
  TempDir dir("gptc_crowdctl_json_export");
  {
    gptc::db::DocumentStore dump;
    dump.collection("users").insert(
        gptc::json::Json::parse(R"({"username":"alice"})"));
    dump.export_json(dir.path());
  }
  const RunResult r = crowdctl(dir.path().string() + " stats p");
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("users.json"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("pre-engine JSON exports are no longer imported"),
            std::string::npos)
      << r.output;
  // Nothing was written next to the export.
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

}  // namespace
