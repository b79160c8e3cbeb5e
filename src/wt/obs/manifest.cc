#include "wt/obs/manifest.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "wt/common/string_util.h"
#include "wt/obs/wallclock.h"

namespace wt {
namespace obs {

namespace {

std::string DetectCompiler() {
#if defined(__clang__)
  return StrFormat("clang %d.%d.%d", __clang_major__, __clang_minor__,
                   __clang_patchlevel__);
#elif defined(__GNUC__)
  return StrFormat("gcc %d.%d.%d", __GNUC__, __GNUC_MINOR__,
                   __GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

std::string DetectBuildType() {
#ifdef WT_BUILD_TYPE
  return WT_BUILD_TYPE;
#elif defined(NDEBUG)
  return "Release";
#else
  return "Debug";
#endif
}

std::string DetectCpuModel() {
  std::string model = "unknown";
  if (FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "model name", 10) == 0) {
        const char* colon = std::strchr(line, ':');
        if (colon != nullptr) {
          model = std::string(StrTrim(colon + 1));
          break;
        }
      }
    }
    std::fclose(f);
  }
  return model;
}

std::string DetectHostname() {
  char buf[256] = {0};
  if (gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0') return buf;
  return "unknown";
}

int DetectHardwareThreads() {
  // hardware_concurrency() is allowed to return 0 ("unknown"), and on some
  // containerized hosts reports the cgroup limit while sysconf reports the
  // online CPUs (or vice versa). Take the larger positive answer so the
  // manifest records the machine, not whichever probe happened to fail —
  // a wrong 1 here silently poisoned the committed BENCH_e7.json curve.
  int n = static_cast<int>(std::thread::hardware_concurrency());
#if defined(_SC_NPROCESSORS_ONLN)
  const long onln = sysconf(_SC_NPROCESSORS_ONLN);
  if (onln > 0 && static_cast<int>(onln) > n) n = static_cast<int>(onln);
#endif
  return n > 0 ? n : 0;  // 0 = genuinely unknown
}

// Commit id for provenance: $WT_BENCH_COMMIT if set, else `git rev-parse
// --short HEAD`, else "unknown".
std::string GitCommitOrUnknown() {
  std::string out;
  if (const char* env = std::getenv("WT_BENCH_COMMIT")) {
    out = env;
  } else if (FILE* p = popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64];
    if (fgets(buf, sizeof(buf), p) != nullptr) out = buf;
    pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  if (out.empty()) out = "unknown";
  return out;
}

// Host + toolchain facts never change within a process; collect them once.
const RunManifest& HostFacts() {
  static const RunManifest* facts = [] {
    auto* m = new RunManifest();
    m->git_commit = GitCommitOrUnknown();
    m->compiler = DetectCompiler();
    m->build_type = DetectBuildType();
    m->cpu_model = DetectCpuModel();
    m->hardware_threads = DetectHardwareThreads();
    m->hostname = DetectHostname();
    return m;
  }();
  return *facts;
}

}  // namespace

int DetectedHardwareThreads() { return HostFacts().hardware_threads; }

RunManifest CollectRunManifest(uint64_t seed, std::string config_hash) {
  RunManifest m = HostFacts();
  m.seed = seed;
  m.config_hash = std::move(config_hash);
  m.created_at_utc = UtcNowIso8601();
  return m;
}

Status StoreManifest(ResultStore* store, const std::string& table,
                     const RunManifest& m) {
  Schema schema({{"key", ValueType::kString}, {"value", ValueType::kString}});
  // Build privately, publish complete (store copy-on-publish discipline).
  Table built(schema);
  Table* t = &built;
  auto put = [&](const char* key, std::string value) {
    return t->AppendRow({Value(std::string(key)), Value(std::move(value))});
  };
  WT_RETURN_IF_ERROR(put("seed", StrFormat("%llu", static_cast<unsigned long long>(m.seed))));
  WT_RETURN_IF_ERROR(put("config_hash", m.config_hash));
  WT_RETURN_IF_ERROR(put("scenario_hash", m.scenario_hash));
  WT_RETURN_IF_ERROR(put("git_commit", m.git_commit));
  WT_RETURN_IF_ERROR(put("compiler", m.compiler));
  WT_RETURN_IF_ERROR(put("build_type", m.build_type));
  WT_RETURN_IF_ERROR(put("cpu_model", m.cpu_model));
  WT_RETURN_IF_ERROR(put("hardware_threads", StrFormat("%d", m.hardware_threads)));
  WT_RETURN_IF_ERROR(put("hostname", m.hostname));
  WT_RETURN_IF_ERROR(put("created_at_utc", m.created_at_utc));
  WT_RETURN_IF_ERROR(put("wall_seconds", StrFormat("%.6f", m.wall_seconds)));
  return store->PublishTable(table, std::move(built));
}

Result<RunManifest> LoadManifest(const ResultStore& store,
                                 const std::string& table) {
  WT_ASSIGN_OR_RETURN(const Table* t, store.GetTableConst(table));
  RunManifest m;
  for (size_t row = 0; row < t->num_rows(); ++row) {
    WT_ASSIGN_OR_RETURN(Value key, t->Get(row, "key"));
    WT_ASSIGN_OR_RETURN(Value value, t->Get(row, "value"));
    const std::string& k = key.AsString();
    const std::string& v = value.AsString();
    if (k == "seed") {
      // Full uint64 range (ParseInt is signed); strict like the other
      // parses: the whole field must be consumed.
      char* end = nullptr;
      errno = 0;
      uint64_t s = std::strtoull(v.c_str(), &end, 10);
      if (errno != 0 || end == v.c_str() || *end != '\0') {
        return Status::ParseError("bad manifest seed: '" + v + "'");
      }
      m.seed = s;
    } else if (k == "config_hash") {
      m.config_hash = v;
    } else if (k == "scenario_hash") {
      m.scenario_hash = v;
    } else if (k == "git_commit") {
      m.git_commit = v;
    } else if (k == "compiler") {
      m.compiler = v;
    } else if (k == "build_type") {
      m.build_type = v;
    } else if (k == "cpu_model") {
      m.cpu_model = v;
    } else if (k == "hardware_threads") {
      WT_ASSIGN_OR_RETURN(long long n, ParseInt(v));
      m.hardware_threads = static_cast<int>(n);
    } else if (k == "hostname") {
      m.hostname = v;
    } else if (k == "created_at_utc") {
      m.created_at_utc = v;
    } else if (k == "wall_seconds") {
      WT_ASSIGN_OR_RETURN(double w, ParseDouble(v));
      m.wall_seconds = w;
    }
    // Unknown keys are forward-compatible: ignored.
  }
  return m;
}

}  // namespace obs
}  // namespace wt
