// gptc-lint — repo-specific static analysis for the determinism and
// thread-safety contracts (see lint_rules.hpp for the rule catalogue).
//
// Usage:
//   gptc-lint [--list-rules] [--quiet] [--cross-file]
//             [--format=text|json|sarif] [--baseline FILE]
//             [--write-baseline FILE] <file-or-directory>...
//
// Directories are walked recursively for C++ sources/headers. Findings are
// sorted by (path, line, rule) and deduplicated, so multi-directory
// invocations are stable for baseline diffing. `--cross-file` adds a first
// pass that builds the whole-program ProjectIndex (project_index.hpp) and
// enables rules R6-R9. The exit status is 1 iff any non-baselined finding
// was produced — so the tool drops straight into a CMake custom target or a
// ctest entry; 2 signals a usage or I/O error.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "lint_output.hpp"
#include "lint_rules.hpp"
#include "project_index.hpp"
#include "source_scanner.hpp"

namespace {

namespace fs = std::filesystem;
using gptc::lint::BaselineEntry;
using gptc::lint::Finding;

constexpr const char* kUsage =
    "usage: gptc-lint [--list-rules] [--quiet] [--cross-file]\n"
    "                 [--format=text|json|sarif] [--baseline FILE]\n"
    "                 [--baseline-strict] [--write-baseline FILE]\n"
    "                 <file-or-directory>...\n";

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
         ext == ".h" || ext == ".hh";
}

/// Expands files/directories into a sorted, deduplicated list of sources.
std::vector<std::string> collect_inputs(const std::vector<std::string>& args,
                                        std::vector<std::string>& errors) {
  std::vector<std::string> files;
  for (const std::string& arg : args) {
    std::error_code ec;
    const fs::path p(arg);
    if (fs::is_directory(p, ec)) {
      for (fs::recursive_directory_iterator it(p, ec), end; it != end;
           it.increment(ec)) {
        if (ec) break;
        if (it->is_regular_file(ec) && lintable(it->path()))
          files.push_back(it->path().generic_string());
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(p.generic_string());
    } else {
      errors.push_back("gptc-lint: no such file or directory: " + arg);
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

}  // namespace

int main(int argc, char** argv) {
  bool quiet = false;
  bool cross_file = false;
  bool baseline_strict = false;
  std::string format = "text";
  std::string baseline_path;
  std::string write_baseline_path;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      std::cout << gptc::lint::describe_rules();
      return 0;
    }
    if (arg == "--quiet") {
      quiet = true;
      continue;
    }
    if (arg == "--cross-file") {
      cross_file = true;
      continue;
    }
    if (arg == "--baseline-strict") {
      baseline_strict = true;
      continue;
    }
    if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "text" && format != "json" && format != "sarif") {
        std::cerr << "gptc-lint: unknown format: " << format
                  << " (expected text, json or sarif)\n";
        return 2;
      }
      continue;
    }
    if (arg == "--baseline" || arg == "--write-baseline") {
      if (i + 1 >= argc) {
        std::cerr << "gptc-lint: " << arg << " requires a file argument\n";
        return 2;
      }
      (arg == "--baseline" ? baseline_path : write_baseline_path) =
          argv[++i];
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage << "\n" << gptc::lint::describe_rules();
      return 0;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::cerr << "gptc-lint: unknown option: " << arg << "\n";
      return 2;
    }
    paths.push_back(arg);
  }
  if (paths.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  std::vector<std::string> errors;
  const std::vector<std::string> files = collect_inputs(paths, errors);
  for (const std::string& e : errors) std::cerr << e << "\n";
  if (!errors.empty()) return 2;

  // Scan every input once; in cross-file mode the scans feed pass 1 (the
  // ProjectIndex, which keeps pointers into `scanned`) before any rule runs.
  std::vector<gptc::lint::ScannedFile> scanned;
  scanned.reserve(files.size());
  for (const std::string& file : files) {
    try {
      scanned.push_back(gptc::lint::scan_file(file));
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
  }

  gptc::lint::ProjectIndex index;
  if (cross_file) {
    for (const auto& file : scanned) index.add_file(file);
    index.finalize();
  }

  std::vector<Finding> findings;
  for (const auto& file : scanned) {
    const auto ctx = gptc::lint::context_for_path(file.path);
    auto file_findings = gptc::lint::run_rules(
        file, ctx, cross_file ? &index : nullptr);
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  if (cross_file) {
    auto project_findings = gptc::lint::run_project_rules(index);
    findings.insert(findings.end(),
                    std::make_move_iterator(project_findings.begin()),
                    std::make_move_iterator(project_findings.end()));
  }
  gptc::lint::sort_and_dedupe(findings);

  if (!write_baseline_path.empty()) {
    std::ofstream out(write_baseline_path, std::ios::binary);
    if (!out) {
      std::cerr << "gptc-lint: cannot write baseline file: "
                << write_baseline_path << "\n";
      return 2;
    }
    out << gptc::lint::to_baseline(findings);
    if (!quiet) {
      std::cerr << "gptc-lint: wrote " << findings.size()
                << " finding(s) to baseline " << write_baseline_path << "\n";
    }
    return 0;
  }

  // Baseline suppression: known findings drop out; baseline entries that no
  // longer match anything are stale and reported so the file shrinks —
  // under --baseline-strict a stale entry fails the run outright, so dead
  // suppressions cannot accumulate.
  std::size_t stale = 0;
  std::vector<BaselineEntry> baseline;
  if (!baseline_path.empty()) {
    std::string error;
    if (!gptc::lint::load_baseline(baseline_path, baseline, error)) {
      std::cerr << "gptc-lint: " << error << "\n";
      return 2;
    }
    std::vector<bool> entry_used(baseline.size(), false);
    std::vector<Finding> active;
    for (const Finding& f : findings) {
      bool suppressed = false;
      for (std::size_t i = 0; i < baseline.size(); ++i) {
        if (gptc::lint::baseline_matches(baseline[i], f)) {
          entry_used[i] = true;
          suppressed = true;
        }
      }
      if (!suppressed) active.push_back(f);
    }
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      if (entry_used[i]) continue;
      ++stale;
      std::cerr << "gptc-lint: stale baseline entry (no longer matches): "
                << baseline[i].path << " [" << baseline[i].rule << "] "
                << baseline[i].message << "\n";
    }
    if (stale != 0) {
      std::cerr << "gptc-lint: " << stale << " stale baseline entr"
                << (stale == 1 ? "y" : "ies") << " in " << baseline_path
                << " — remove or regenerate with --write-baseline"
                << (baseline_strict ? " (fatal under --baseline-strict)" : "")
                << "\n";
    }
    findings = std::move(active);
  }

  if (format == "json") {
    std::cout << gptc::lint::to_json(findings, files.size());
  } else if (format == "sarif") {
    std::cout << gptc::lint::to_sarif(findings);
  } else {
    for (const Finding& f : findings) {
      std::cout << f.path << ":" << f.line << ": [" << f.rule << "] "
                << f.message << "\n";
    }
    // One-line per-rule summary so CI logs show coverage at a glance.
    static constexpr const char* kRuleIds[] = {"R1",  "R2",  "R3",  "R4",
                                               "R5",  "R6",  "R7",  "R8",
                                               "R9",  "R10", "R11", "R12",
                                               "R13"};
    std::cout << "gptc-lint: rule summary:";
    for (const char* id : kRuleIds) {
      std::size_t n = 0;
      for (const Finding& f : findings)
        if (f.rule == id) ++n;
      std::cout << " " << id << "=" << n;
    }
    std::cout << "\n";
  }
  if (!quiet) {
    std::cerr << "gptc-lint: " << findings.size() << " finding(s) in "
              << files.size() << " file(s) scanned"
              << (baseline.empty() ? "" : " (after baseline suppression)")
              << "\n";
  }
  if (baseline_strict && stale != 0) return 1;
  return findings.empty() ? 0 : 1;
}
