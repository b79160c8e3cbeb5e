// wtlint — the wind tunnel's in-tree static analyzer.
//
// Scans src/, bench/, examples/, tools/, and fuzz/ for violations of the
// project invariants that make sweep results reproducible and the DES hot
// path allocation-free, plus whole-program structure checks over the
// include graph (rule catalog in rules.h; suppression syntax:
// `// wtlint: allow(<rule>) -- <reason>`). CI runs `wtlint --json` from the
// repo root and fails on any unsuppressed finding.
//
// Usage:
//   wtlint [--root <dir>] [--json] [--fix-nodiscard] [--changed-only]
//          [--serial] [paths...]
//
//   --root <dir>      repo root for path-relative rule config (default: .)
//   --json            emit the strict-JSON report (self-checked with
//                     wt::json::ParseJson before printing):
//                       { "tool": "wtlint", "version": 2,
//                         "files_scanned": N, "unsuppressed": N,
//                         "suppressed": N,
//                         "findings": [{rule, file, line, message}...],
//                         "suppressions": [{rule, file, line, reason}...] }
//   --fix-nodiscard   rewrite headers in place, inserting [[nodiscard]] on
//                     every flagged Status/Result-returning declaration
//   --changed-only    report findings only for files changed vs. git HEAD
//                     (plus untracked files). The whole tree is still
//                     scanned — cross-file rules (deps/) need the full
//                     graph — only the report and exit code are
//                     filtered. Made for pre-commit hooks; see README.
//   --serial          disable the worker pool (per-file passes run on the
//                     calling thread; output is byte-identical either way)
//   paths...          scan exactly these files (default: the five roots)
//
// The layering DAG is read from <root>/tools/wtlint/layers.json when
// present (exit 2 if unparseable — a broken config is an internal error,
// not a finding); otherwise the compiled-in default (the same DAG) is
// used, so fixture-driven invocations work from any directory.
//
// Exit codes: 0 clean, 1 unsuppressed findings, 2 usage/config/I-O error.

#include <cstdio>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tools/wtlint/rules.h"
#include "wt/common/json.h"
#include "wt/common/string_util.h"
#include "wt/core/thread_pool.h"

namespace fs = std::filesystem;

namespace {

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc";
}

std::string RelPath(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(p, root, ec);
  if (ec || rel.empty()) return p.generic_string();
  return rel.generic_string();
}

// Runs `git -C <root> <args>` and appends one entry per non-empty output
// line. Returns false (with stderr already written) when git fails —
// --changed-only without a usable repo is an internal error, not "no
// changes".
bool GitLines(const fs::path& root, const std::string& args,
              std::vector<std::string>* lines) {
  const std::string cmd =
      "git -C '" + root.string() + "' " + args + " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    std::fprintf(stderr, "wtlint: cannot run git for --changed-only\n");
    return false;
  }
  std::string output;
  char buf[4096];
  size_t got = 0;
  while ((got = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    output.append(buf, got);
  }
  const int rc = pclose(pipe);
  if (rc != 0) {
    std::fprintf(stderr,
                 "wtlint: 'git %s' failed (rc=%d); --changed-only needs a "
                 "git checkout\n",
                 args.c_str(), rc);
    return false;
  }
  for (const std::string& line : wt::StrSplit(output, '\n')) {
    if (!line.empty()) lines->push_back(line);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool fix_nodiscard = false;
  bool changed_only = false;
  bool serial = false;
  fs::path root = ".";
  std::vector<std::string> explicit_paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--fix-nodiscard") {
      fix_nodiscard = true;
    } else if (arg == "--changed-only") {
      changed_only = true;
    } else if (arg == "--serial") {
      serial = true;
    } else if (arg == "--root") {
      if (++i >= argc) {
        std::fprintf(stderr, "wtlint: --root needs a directory\n");
        return 2;
      }
      root = argv[i];
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: wtlint [--root <dir>] [--json] [--fix-nodiscard] "
          "[--changed-only] [--serial] [paths...]\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "wtlint: unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      explicit_paths.push_back(arg);
    }
  }

  // Collect the file set, sorted by root-relative path so reports (and the
  // JSON artifact) are byte-stable across filesystems.
  std::vector<fs::path> paths;
  if (!explicit_paths.empty()) {
    for (const std::string& p : explicit_paths) paths.emplace_back(p);
  } else {
    for (const char* dir : {"src", "bench", "examples", "tools", "fuzz"}) {
      const fs::path base = root / dir;
      if (!fs::exists(base)) continue;
      for (const auto& entry : fs::recursive_directory_iterator(base)) {
        if (entry.is_regular_file() && IsSourceFile(entry.path())) {
          paths.push_back(entry.path());
        }
      }
    }
  }

  std::vector<wt::wtlint::FileInput> files;
  files.reserve(paths.size());
  std::map<std::string, fs::path> rel_to_disk;
  for (const fs::path& p : paths) {
    wt::wtlint::FileInput f;
    f.path = RelPath(p, root);
    if (!ReadFile(p, &f.content)) {
      std::fprintf(stderr, "wtlint: cannot read %s\n", p.string().c_str());
      return 2;
    }
    rel_to_disk[f.path] = p;
    files.push_back(std::move(f));
  }
  std::sort(files.begin(), files.end(),
            [](const wt::wtlint::FileInput& a,
               const wt::wtlint::FileInput& b) { return a.path < b.path; });

  wt::wtlint::Config config;
  const fs::path layers_path = root / "tools" / "wtlint" / "layers.json";
  if (fs::exists(layers_path)) {
    std::string layers_text;
    if (!ReadFile(layers_path, &layers_text)) {
      std::fprintf(stderr, "wtlint: cannot read %s\n",
                   layers_path.string().c_str());
      return 2;
    }
    wt::Result<wt::wtlint::LayerConfig> parsed =
        wt::wtlint::ParseLayersJson(layers_text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "wtlint: %s: %s\n", layers_path.string().c_str(),
                   parsed.status().ToString().c_str());
      return 2;
    }
    config.layer_config = *std::move(parsed);
  }

  // The per-file passes parallelize well (one buffer per file, merged in
  // path order), so default to a pool sized for the host.
  std::unique_ptr<wt::ThreadPool> pool;
  if (!serial && files.size() > 1) {
    const unsigned hw = std::thread::hardware_concurrency();
    const int workers = std::max(1, static_cast<int>(hw == 0 ? 2 : hw) - 1);
    pool = std::make_unique<wt::ThreadPool>(workers);
  }
  wt::wtlint::AnalysisResult result =
      wt::wtlint::Analyze(files, config, pool.get());

  if (changed_only) {
    std::vector<std::string> changed;
    if (!GitLines(root, "diff --name-only HEAD", &changed) ||
        !GitLines(root, "ls-files --others --exclude-standard", &changed)) {
      return 2;
    }
    const std::set<std::string> changed_set(changed.begin(), changed.end());
    auto untouched = [&](const wt::wtlint::Finding& f) {
      return changed_set.count(f.file) == 0;
    };
    result.findings.erase(std::remove_if(result.findings.begin(),
                                         result.findings.end(), untouched),
                          result.findings.end());
  }

  if (fix_nodiscard) {
    int fixed_files = 0;
    for (size_t i = 0; i < files.size(); ++i) {
      const std::string fixed = wt::wtlint::ApplyNodiscardFixes(
          files[i].path, files[i].content, result.findings);
      if (fixed == files[i].content) continue;
      std::ofstream out(rel_to_disk.at(files[i].path),
                        std::ios::binary | std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "wtlint: cannot write %s\n",
                     files[i].path.c_str());
        return 2;
      }
      out << fixed;
      ++fixed_files;
    }
    std::fprintf(stderr, "wtlint: inserted [[nodiscard]] in %d file(s); "
                         "re-run to verify\n",
                 fixed_files);
    return 0;
  }

  int unsuppressed = 0;
  for (const auto& f : result.findings) {
    if (!f.suppressed) ++unsuppressed;
  }

  if (json) {
    const std::string report = wt::wtlint::ResultToJson(result);
    // The report is itself an artifact; hold it to the same bar as the
    // trace/metrics exporters.
    const wt::Status valid = wt::json::ParseJson(report).status();
    if (!valid.ok()) {
      std::fprintf(stderr, "wtlint: internal error: report is not valid "
                           "JSON: %s\n",
                   valid.ToString().c_str());
      return 2;
    }
    std::fputs(report.c_str(), stdout);
  } else {
    std::fputs(wt::wtlint::ResultToText(result).c_str(), stdout);
  }
  return unsuppressed == 0 ? 0 : 1;
}
