#include "tools/wtlint/rules.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <string_view>

#include "tools/wtlint/lexer.h"
#include "wt/common/json.h"
#include "wt/common/string_util.h"
#include "wt/core/thread_pool.h"

namespace wt {
namespace wtlint {

namespace {

// Rule ids. The family is everything before '/'.
constexpr const char* kRawRandom = "determinism/raw-random";
constexpr const char* kWallClock = "determinism/wall-clock";
constexpr const char* kSleep = "determinism/sleep";
constexpr const char* kStdFunction = "hotpath/std-function";
constexpr const char* kThrow = "hotpath/throw";
constexpr const char* kDynamicCast = "hotpath/dynamic-cast";
constexpr const char* kIostream = "hotpath/iostream";
constexpr const char* kNodiscard = "error/nodiscard-status";
constexpr const char* kDroppedStatus = "error/dropped-status";
constexpr const char* kUsingNamespace = "hygiene/using-namespace-header";
constexpr const char* kIncludeGuard = "hygiene/include-guard";
constexpr const char* kUnorderedSer = "hygiene/unordered-serialization";
constexpr const char* kBadSuppression = "hygiene/bad-suppression";
constexpr const char* kUnusedSuppression = "hygiene/unused-suppression";
constexpr const char* kSingleParser = "scenario/single-parser";
constexpr const char* kImplicitSeqCst = "concurrency/implicit-seq-cst";
constexpr const char* kManualLock = "concurrency/manual-lock";
constexpr const char* kRawThread = "concurrency/raw-thread";
constexpr const char* kThreadDetach = "concurrency/thread-detach";
constexpr const char* kUnorderedSink = "determinism-flow/unordered-sink";

bool PathEndsWith(const std::string& path, const std::string& suffix) {
  return StrEndsWith(path, suffix);
}

bool PathStartsWithAny(const std::string& path,
                       const std::vector<std::string>& prefixes) {
  for (const std::string& p : prefixes) {
    if (StrStartsWith(path, p)) return true;
  }
  return false;
}

bool IsHeader(const std::string& path) { return StrEndsWith(path, ".h"); }

bool IsIdent(const Token& t, std::string_view text) {
  return t.kind == TokKind::kIdent && t.text == text;
}
bool IsPunct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

// Shared scan state for one file. Findings go into the file's own buffer
// so per-file checks can run concurrently (Analyze merges in path order).
struct FileCtx {
  const FileInput* file = nullptr;
  const LexedFile* lexed = nullptr;
  bool determinism_exempt = false;
  bool hot = false;
  bool serialization = false;
  bool json_parser_exempt = false;
  bool atomic_order_scoped = false;
  bool raw_thread_allowed = false;
  std::vector<Finding>* findings = nullptr;

  void Add(const char* rule, int line, std::string message,
           size_t fix_offset = static_cast<size_t>(-1)) const {
    Finding f;
    f.rule = rule;
    f.file = file->path;
    f.line = line;
    f.message = std::move(message);
    f.fix_offset = fix_offset;
    findings->push_back(std::move(f));
  }
};

// True if tokens[i] names a function being *called*: the next token is '('
// and the previous token is neither a member access, a non-std qualifier,
// nor an identifier (which would make this a declaration like
// `SimTime time(x)`).
bool IsCallPosition(const std::vector<Token>& toks, size_t i) {
  if (i + 1 >= toks.size() || !IsPunct(toks[i + 1], "(")) return false;
  if (i == 0) return true;
  const Token& prev = toks[i - 1];
  if (IsPunct(prev, ".") ||
      (prev.kind == TokKind::kPunct && prev.text == ">" && i >= 2 &&
       IsPunct(toks[i - 2], "-"))) {
    return false;  // member call on some object: x.time(), x->rand()
  }
  if (prev.kind == TokKind::kIdent) {
    // `return time(0)` is a call; `SimTime time(x)` is a declaration.
    return prev.text == "return" || prev.text == "co_return";
  }
  if (IsPunct(prev, "::")) {
    // Qualified: banned only when the qualifier is std (or the global
    // namespace, `::time(...)`).
    if (i < 2) return true;
    const Token& qual = toks[i - 2];
    return IsIdent(qual, "std") || qual.kind != TokKind::kIdent;
  }
  return true;
}

// True if tokens[i] is the method of a member call: `x.name(` / `x->name(`.
bool IsMemberCall(const std::vector<Token>& toks, size_t i) {
  if (toks[i].kind != TokKind::kIdent) return false;
  if (i + 1 >= toks.size() || !IsPunct(toks[i + 1], "(")) return false;
  if (i == 0) return false;
  const Token& prev = toks[i - 1];
  if (IsPunct(prev, ".")) return true;
  return prev.kind == TokKind::kPunct && prev.text == ">" && i >= 2 &&
         IsPunct(toks[i - 2], "-");
}

// ---------------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------------

void CheckDeterminism(const FileCtx& ctx) {
  if (ctx.determinism_exempt) return;
  const std::vector<Token>& toks = ctx.lexed->tokens;
  static const std::set<std::string> kRandomIdents = {
      "random_device", "random_shuffle", "drand48", "lrand48", "mrand48",
      "getrandom"};
  static const std::set<std::string> kRandomCalls = {"rand", "srand",
                                                     "srandom"};
  static const std::set<std::string> kClockCalls = {
      "time", "clock", "gettimeofday", "clock_gettime", "localtime",
      "gmtime", "localtime_r", "gmtime_r", "ftime"};
  static const std::set<std::string> kSleepIdents = {"sleep_for",
                                                     "sleep_until"};
  static const std::set<std::string> kSleepCalls = {"usleep", "nanosleep",
                                                    "sleep"};
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    if (kRandomIdents.count(t.text) != 0) {
      ctx.Add(kRawRandom, t.line,
              t.text + ": all randomness must flow through a named "
                       "wt::RngStream (seed, run_id, replicate)");
      continue;
    }
    if (kRandomCalls.count(t.text) != 0 && IsCallPosition(toks, i)) {
      ctx.Add(kRawRandom, t.line,
              t.text + "(): all randomness must flow through a named "
                       "wt::RngStream");
      continue;
    }
    if (StrEndsWith(t.text, "_clock") && i + 2 < toks.size() &&
        IsPunct(toks[i + 1], "::") && IsIdent(toks[i + 2], "now")) {
      ctx.Add(kWallClock, t.line,
              t.text + "::now(): read wall time via wt/obs/wallclock.h");
      continue;
    }
    if (kClockCalls.count(t.text) != 0 && IsCallPosition(toks, i)) {
      ctx.Add(kWallClock, t.line,
              t.text + "(): read wall time via wt/obs/wallclock.h");
      continue;
    }
    if (kSleepIdents.count(t.text) != 0 ||
        (kSleepCalls.count(t.text) != 0 && IsCallPosition(toks, i))) {
      ctx.Add(kSleep, t.line,
              t.text + ": simulated time never needs host sleeps; use "
                       "Simulator::Schedule");
      continue;
    }
  }
}

// ---------------------------------------------------------------------------
// hotpath
// ---------------------------------------------------------------------------

void CheckHotPath(const FileCtx& ctx) {
  if (!ctx.hot) return;
  const std::vector<Token>& toks = ctx.lexed->tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPreproc) {
      for (const char* banned :
           {"<iostream>", "<ostream>", "<istream>", "<sstream>", "<fstream>",
            "<iomanip>"}) {
        if (t.text.find("include") != std::string::npos &&
            t.text.find(banned) != std::string::npos) {
          ctx.Add(kIostream, t.line,
                  std::string(banned) +
                      " in a hot file: stream formatting allocates and "
                      "locks; use logging.h or report via wt::obs");
        }
      }
      continue;
    }
    if (t.kind != TokKind::kIdent) continue;
    if (t.text == "function" && i >= 1 && IsPunct(toks[i - 1], "::") &&
        i >= 2 && IsIdent(toks[i - 2], "std")) {
      ctx.Add(kStdFunction, t.line,
              "std::function in a hot file: event callbacks must use "
              "wt::InlineFn (allocation-free, see common/inline_fn.h)");
      continue;
    }
    if (t.text == "throw") {
      ctx.Add(kThrow, t.line,
              "throw in a hot file: the DES kernel is exception-free; "
              "return Status/Result instead");
      continue;
    }
    if (t.text == "dynamic_cast") {
      ctx.Add(kDynamicCast, t.line,
              "dynamic_cast in a hot file: RTTI dispatch on the event path; "
              "use an explicit tag or visitor");
      continue;
    }
    if ((t.text == "cout" || t.text == "cerr" || t.text == "clog") && i >= 2 &&
        IsPunct(toks[i - 1], "::") && IsIdent(toks[i - 2], "std")) {
      ctx.Add(kIostream, t.line,
              "std::" + t.text + " in a hot file: use logging.h or wt::obs");
    }
  }
}

// ---------------------------------------------------------------------------
// error-handling
// ---------------------------------------------------------------------------

const std::set<std::string>& DeclSpecifiers() {
  static const std::set<std::string> kSpecs = {
      "static", "virtual", "inline",  "constexpr", "consteval",
      "explicit", "friend", "extern", "const",     "mutable"};
  return kSpecs;
}

// Skips a balanced <...> group starting at toks[i] == "<". Returns the index
// one past the closing ">", or `i` if unbalanced.
size_t SkipAngles(const std::vector<Token>& toks, size_t i) {
  int depth = 0;
  for (size_t j = i; j < toks.size(); ++j) {
    if (IsPunct(toks[j], "<")) {
      ++depth;
    } else if (IsPunct(toks[j], ">")) {
      if (--depth == 0) return j + 1;
    } else if (IsPunct(toks[j], ";") || IsPunct(toks[j], "{")) {
      break;  // never balanced; bail out
    }
  }
  return i;
}

// Scans one header for Status/Result-returning declarations. Adds
// error/nodiscard-status findings and collects declared function names into
// `status_fns`.
void ScanStatusDecls(const FileCtx& ctx, bool report,
                     std::set<std::string>* status_fns) {
  const std::vector<Token>& toks = ctx.lexed->tokens;
  size_t decl_start = 0;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPreproc || IsPunct(t, ";") || IsPunct(t, "{") ||
        IsPunct(t, "}")) {
      decl_start = i + 1;
      continue;
    }
    if (IsPunct(t, ":") && i >= 1 &&
        (IsIdent(toks[i - 1], "public") || IsIdent(toks[i - 1], "private") ||
         IsIdent(toks[i - 1], "protected"))) {
      decl_start = i + 1;
      continue;
    }
    const bool is_status = IsIdent(t, "Status");
    const bool is_result = IsIdent(t, "Result");
    if (!is_status && !is_result) continue;

    // Backward validation: decl_start .. i must be only attributes,
    // decl-specifiers, a template prefix, and a namespace qualification.
    size_t j = decl_start;
    bool saw_nodiscard = false;
    bool ok_prefix = true;
    // Where --fix-nodiscard inserts: the decl start, or just after a
    // template<...> clause (an attribute may not precede one).
    size_t insert_at = toks[decl_start].offset;
    while (j < i) {
      if (IsPunct(toks[j], "[") && j + 1 < i && IsPunct(toks[j + 1], "[")) {
        size_t k = j + 2;
        int closes = 0;
        while (k < i && closes < 2) {
          if (IsIdent(toks[k], "nodiscard")) saw_nodiscard = true;
          closes = IsPunct(toks[k], "]") ? closes + 1 : 0;
          ++k;
        }
        j = k;
        continue;
      }
      if (toks[j].kind == TokKind::kIdent &&
          DeclSpecifiers().count(toks[j].text) != 0) {
        ++j;
        continue;
      }
      if (IsIdent(toks[j], "template") && j + 1 < i &&
          IsPunct(toks[j + 1], "<")) {
        const size_t after = SkipAngles(toks, j + 1);
        if (after == j + 1 || after > i) {
          ok_prefix = false;
          break;
        }
        j = after;
        if (j <= i) insert_at = toks[j == i ? i : j].offset;
        continue;
      }
      // Namespace qualification directly before the type: (ident ::)+
      if (toks[j].kind == TokKind::kIdent && j + 1 < i &&
          IsPunct(toks[j + 1], "::")) {
        j += 2;
        continue;
      }
      ok_prefix = false;
      break;
    }
    if (!ok_prefix || j != i) continue;

    // Forward validation: [<...>] [&*const]* name[::name]* '('
    size_t k = i + 1;
    if (is_result) {
      if (k >= toks.size() || !IsPunct(toks[k], "<")) continue;
      const size_t after = SkipAngles(toks, k);
      if (after == k) continue;
      k = after;
    }
    while (k < toks.size() &&
           (IsPunct(toks[k], "&") || IsPunct(toks[k], "*") ||
            IsIdent(toks[k], "const"))) {
      ++k;
    }
    if (k >= toks.size() || toks[k].kind != TokKind::kIdent) continue;
    std::string name = toks[k].text;
    while (k + 2 < toks.size() && IsPunct(toks[k + 1], "::") &&
           toks[k + 2].kind == TokKind::kIdent) {
      k += 2;
      name = toks[k].text;
    }
    if (k + 1 >= toks.size() || !IsPunct(toks[k + 1], "(")) continue;

    status_fns->insert(name);
    if (report && !saw_nodiscard) {
      ctx.Add(kNodiscard, t.line,
              name + "() returns " + (is_result ? "Result" : "Status") +
                  " but is not [[nodiscard]]; a dropped error is a silent "
                  "one (--fix-nodiscard can insert it)",
              insert_at);
    }
  }
}

// Flags `(void)Call(...)` drops of known Status/Result-returning functions.
void CheckDroppedStatus(const FileCtx& ctx,
                        const std::set<std::string>& status_fns) {
  const std::vector<Token>& toks = ctx.lexed->tokens;
  for (size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!(IsPunct(toks[i], "(") && IsIdent(toks[i + 1], "void") &&
          IsPunct(toks[i + 2], ")"))) {
      continue;
    }
    // Walk the casted expression: identifiers joined by :: . -> up to a '('.
    size_t k = i + 3;
    std::string last_ident;
    while (k < toks.size()) {
      const Token& t = toks[k];
      if (t.kind == TokKind::kIdent) {
        last_ident = t.text;
        ++k;
        continue;
      }
      if (IsPunct(t, "::") || IsPunct(t, ".")) {
        ++k;
        continue;
      }
      if (IsPunct(t, "-") && k + 1 < toks.size() && IsPunct(toks[k + 1], ">")) {
        k += 2;
        continue;
      }
      break;
    }
    if (k >= toks.size() || !IsPunct(toks[k], "(") || last_ident.empty()) {
      continue;
    }
    if (status_fns.count(last_ident) == 0) continue;
    ctx.Add(kDroppedStatus, toks[i].line,
            "(void)" + last_ident + "(...) drops a Status/Result; handle "
            "it, WT_CHECK it, or suppress with a reason");
  }
}

// ---------------------------------------------------------------------------
// hygiene
// ---------------------------------------------------------------------------

std::string ExpectedGuard(const std::string& path) {
  std::string rel = path;
  if (StrStartsWith(rel, "src/")) rel = rel.substr(4);
  std::string guard;
  for (char c : rel) {
    guard += std::isalnum(static_cast<unsigned char>(c))
                 ? static_cast<char>(
                       std::toupper(static_cast<unsigned char>(c)))
                 : '_';
  }
  guard += '_';
  if (!StrStartsWith(guard, "WT_")) guard = "WT_" + guard;
  return guard;
}

void CheckHygiene(const FileCtx& ctx) {
  const std::vector<Token>& toks = ctx.lexed->tokens;
  const bool header = IsHeader(ctx.file->path);

  if (header) {
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (IsIdent(toks[i], "using") && IsIdent(toks[i + 1], "namespace")) {
        ctx.Add(kUsingNamespace, toks[i].line,
                "using namespace in a header leaks into every includer");
      }
    }

    // Include guard: the first two directives must be the derived
    // #ifndef/#define pair.
    const std::string expected = ExpectedGuard(ctx.file->path);
    std::vector<const Token*> directives;
    for (const Token& t : toks) {
      if (t.kind == TokKind::kPreproc) directives.push_back(&t);
      if (directives.size() >= 2) break;
    }
    bool guard_ok = false;
    if (directives.size() >= 2) {
      const std::vector<std::string> ifndef =
          StrSplit(std::string(StrTrim(directives[0]->text)), ' ');
      const std::vector<std::string> define =
          StrSplit(std::string(StrTrim(directives[1]->text)), ' ');
      guard_ok = ifndef.size() >= 2 && define.size() >= 2 &&
                 StrStartsWith(ifndef[0], "#") &&
                 ifndef[0].find("ifndef") != std::string::npos &&
                 define[0].find("define") != std::string::npos &&
                 ifndef[1] == expected && define[1] == expected;
      // Tolerate "#ifndef" split as "#" "ifndef" (rare formatting).
    }
    if (!guard_ok) {
      ctx.Add(kIncludeGuard, 1,
              "header must open with '#ifndef " + expected + "' / '#define " +
                  expected + "' (guard name is derived from the path)");
    }
  }

  if (ctx.serialization) {
    for (const Token& t : toks) {
      if (t.kind == TokKind::kIdent &&
          (t.text == "unordered_map" || t.text == "unordered_set" ||
           t.text == "unordered_multimap" || t.text == "unordered_multiset")) {
        ctx.Add(kUnorderedSer, t.line,
                "std::" + t.text + " in a serialization layer: iteration "
                "order is nondeterministic; use std::map/set or sort before "
                "emitting");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// concurrency
// ---------------------------------------------------------------------------

// Scans the argument list opened at toks[open] == "(". Reports the number
// of top-level arguments and whether any token names a std::memory_order
// (enum value `memory_order_acquire` or scoped `memory_order::acquire`).
// Returns false when the parens never balance (macro soup): the caller
// skips the site rather than guess.
bool ScanCallArgs(const std::vector<Token>& toks, size_t open, int* num_args,
                  bool* has_memory_order) {
  *num_args = 0;
  *has_memory_order = false;
  int depth = 0;
  for (size_t j = open; j < toks.size(); ++j) {
    const Token& t = toks[j];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(" || t.text == "[" || t.text == "{") {
        ++depth;
        continue;
      }
      if (t.text == ")" || t.text == "]" || t.text == "}") {
        if (--depth == 0) return true;
        continue;
      }
      if (t.text == "," && depth == 1 && *num_args > 0) {
        continue;  // separator inside the top-level list
      }
      if (t.text == ";") return false;  // unbalanced; statement ended
    }
    if (depth >= 1 && *num_args == 0 && !IsPunct(t, ")")) *num_args = 1;
    if (t.kind == TokKind::kPunct && t.text == "," && depth == 1) {
      ++*num_args;
    }
    if (t.kind == TokKind::kIdent &&
        (t.text == "memory_order" || StrStartsWith(t.text, "memory_order_"))) {
      *has_memory_order = true;
    }
  }
  return false;
}

void CheckConcurrency(const FileCtx& ctx) {
  const std::vector<Token>& toks = ctx.lexed->tokens;

  // manual-lock only applies where a mutex type is in scope; weak_ptr's
  // .lock() (a shared_ptr factory, not a lock acquisition) stays legal in
  // mutex-free TUs.
  static const std::set<std::string> kMutexTypes = {
      "mutex",       "shared_mutex",       "recursive_mutex",
      "timed_mutex", "shared_timed_mutex", "recursive_timed_mutex"};
  bool names_mutex = false;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kIdent && kMutexTypes.count(t.text) != 0) {
      names_mutex = true;
      break;
    }
  }

  static const std::set<std::string> kAtomicOps = {
      "load",      "store",     "exchange",  "fetch_add",
      "fetch_sub", "fetch_and", "fetch_or",  "fetch_xor",
      "test_and_set", "compare_exchange_weak", "compare_exchange_strong"};

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;

    // concurrency/raw-thread: std::thread/jthread object creation in
    // src/wt outside the licensed TUs. References, vector elements, and
    // qualified names (std::thread::id) pass; `std::thread t(...)`,
    // members, and temporaries do not.
    if ((t.text == "thread" || t.text == "jthread") && i >= 2 &&
        IsPunct(toks[i - 1], "::") && IsIdent(toks[i - 2], "std") &&
        StrStartsWith(ctx.file->path, "src/") && !ctx.raw_thread_allowed) {
      if (i + 1 < toks.size() &&
          (toks[i + 1].kind == TokKind::kIdent || IsPunct(toks[i + 1], "(") ||
           IsPunct(toks[i + 1], "{"))) {
        ctx.Add(kRawThread, t.line,
                "std::" + t.text + " construction outside core/thread_pool "
                "and serve/server: borrow workers from wt::ThreadPool (or "
                "serve's connection threads) so shutdown and observability "
                "stay centralized");
        continue;
      }
    }

    if (!IsMemberCall(toks, i)) continue;
    int num_args = 0;
    bool has_order = false;
    const bool balanced = ScanCallArgs(toks, i + 1, &num_args, &has_order);

    // concurrency/thread-detach: tree-wide; a detached thread outlives
    // every join/shutdown guarantee the server and pool make.
    if (t.text == "detach" && balanced && num_args == 0) {
      ctx.Add(kThreadDetach, t.line,
              ".detach(): detached threads outlive Shutdown() and TSan "
              "coverage; keep the handle and join it (see serve/server's "
              "reap list)");
      continue;
    }

    // concurrency/manual-lock: RAII-only lock discipline.
    if ((t.text == "lock" || t.text == "unlock") && names_mutex && balanced &&
        num_args == 0) {
      ctx.Add(kManualLock, t.line,
              "." + t.text + "(): manual lock discipline leaks on early "
              "return; use std::lock_guard / std::unique_lock / "
              "std::shared_lock");
      continue;
    }

    // concurrency/implicit-seq-cst: every atomic access in the scoped
    // paths names its order. Zero-argument .store()/.exchange()/.fetch_*()
    // cannot be atomic accesses (they all take a value), so accessors like
    // wind_tunnel.store() pass untouched.
    if (ctx.atomic_order_scoped && kAtomicOps.count(t.text) != 0 &&
        balanced && !has_order) {
      const bool atomic_shaped =
          t.text == "load" ? true : num_args >= 1;
      if (atomic_shaped) {
        ctx.Add(kImplicitSeqCst, t.line,
                "." + t.text + "() without a memory order defaults to "
                "seq_cst: name the order (and the reasoning it encodes) "
                "explicitly, e.g. std::memory_order_relaxed/acquire/"
                "release/acq_rel");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// determinism-flow
// ---------------------------------------------------------------------------

// Generalizes hygiene/unordered-serialization tree-wide: a TU that both
// uses an unordered container and calls (or defines) a serialization/hash
// sink can leak iteration order into bytes that must be reproducible. The
// serialization layers themselves are excluded — there the unconditional
// hygiene rule already fires.
void CheckDeterminismFlow(const FileCtx& ctx,
                          const std::vector<std::string>& sinks) {
  if (ctx.serialization) return;
  const std::vector<Token>& toks = ctx.lexed->tokens;

  std::vector<const Token*> unordered;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kIdent &&
        (t.text == "unordered_map" || t.text == "unordered_set" ||
         t.text == "unordered_multimap" || t.text == "unordered_multiset")) {
      unordered.push_back(&t);
    }
  }
  if (unordered.empty()) return;

  const Token* sink = nullptr;
  for (size_t i = 0; i < toks.size() && sink == nullptr; ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    if (i + 1 >= toks.size() || !IsPunct(toks[i + 1], "(")) continue;
    for (const std::string& s : sinks) {
      if (toks[i].text == s) {
        sink = &toks[i];
        break;
      }
    }
  }
  if (sink == nullptr) return;

  for (const Token* t : unordered) {
    ctx.Add(kUnorderedSink, t->line,
            "std::" + t->text + " in a TU that serializes or hashes (" +
                sink->text + "() at line " + std::to_string(sink->line) +
                "): iteration order can reach reproducible bytes; use "
                "std::map/set or sort before the sink");
  }
}

// ---------------------------------------------------------------------------
// scenario
// ---------------------------------------------------------------------------

// The strict JSON reader is the only scenario-file parser.
void CheckSingleParser(const FileCtx& ctx) {
  if (ctx.json_parser_exempt) return;
  for (const Token& t : ctx.lexed->tokens) {
    if (t.kind == TokKind::kIdent && t.text == "ParseJson") {
      ctx.Add(kSingleParser, t.line,
              "ParseJson outside wt/common and wt/scenario: the strict "
              "JSON reader is the only scenario-file parser; load files "
              "via scenario::LoadScenarioFile");
    }
  }
}

// ---------------------------------------------------------------------------
// suppression application
// ---------------------------------------------------------------------------

bool RuleMatches(const std::string& pattern, const std::string& rule) {
  if (pattern == rule) return true;
  // Family pattern: "determinism" matches "determinism/x".
  return rule.size() > pattern.size() && rule[pattern.size()] == '/' &&
         StrStartsWith(rule, pattern);
}

bool KnownRuleOrFamily(const std::string& pattern) {
  static const std::set<std::string> kKnown = {
      kRawRandom,    kWallClock,      kSleep,          kStdFunction,
      kThrow,        kDynamicCast,    kIostream,       kNodiscard,
      kDroppedStatus, kUsingNamespace, kIncludeGuard,  kUnorderedSer,
      kBadSuppression, kUnusedSuppression, kSingleParser,
      "deps/include-cycle", "deps/layer-back-edge", "deps/unknown-module",
      kImplicitSeqCst, kManualLock, kRawThread, kThreadDetach,
      kUnorderedSink,
      "determinism", "hotpath", "error", "hygiene", "scenario", "deps",
      "concurrency", "determinism-flow"};
  return kKnown.count(pattern) != 0;
}

// Resolves suppressions against the file's complete finding buffer (every
// pass for this file, cross-file ones included, has run by now).
void ApplySuppressions(const FileCtx& ctx, std::vector<Finding>* findings) {
  std::vector<bool> used(ctx.lexed->suppressions.size(), false);
  for (Finding& f : *findings) {
    for (size_t si = 0; si < ctx.lexed->suppressions.size(); ++si) {
      const Suppression& sup = ctx.lexed->suppressions[si];
      if (sup.malformed || sup.target_line != f.line) continue;
      for (const std::string& pattern : sup.rules) {
        if (RuleMatches(pattern, f.rule)) {
          f.suppressed = true;
          f.suppress_reason = sup.reason;
          used[si] = true;
          break;
        }
      }
      if (f.suppressed) break;
    }
  }
  for (size_t si = 0; si < ctx.lexed->suppressions.size(); ++si) {
    const Suppression& sup = ctx.lexed->suppressions[si];
    if (sup.malformed) {
      ctx.Add(kBadSuppression, sup.comment_line,
              "wtlint suppression needs 'allow(<rule>) -- <reason>' with a "
              "non-empty reason");
      continue;
    }
    for (const std::string& pattern : sup.rules) {
      if (!KnownRuleOrFamily(pattern)) {
        ctx.Add(kBadSuppression, sup.comment_line,
                "unknown rule '" + pattern + "' in suppression");
      }
    }
    if (!used[si]) {
      ctx.Add(kUnusedSuppression, sup.comment_line,
              "suppression matched no finding; delete it (allow(" +
                  StrJoin(sup.rules, ", ") + "))");
    }
  }
}

// Runs body(i) for i in [0, n) — on the pool when provided, else inline.
// Bodies write only to per-index slots, so scheduling cannot reorder
// results.
void ForEachFile(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& body) {
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  pool->ParallelFor(0, n, body);
}

}  // namespace

AnalysisResult Analyze(const std::vector<FileInput>& files,
                       const Config& config, ThreadPool* pool) {
  AnalysisResult result;
  result.files_scanned = static_cast<int>(files.size());
  const size_t n = files.size();

  // Per-file state: everything below writes only to its own index, which
  // is what makes the parallel passes race-free and the merge
  // deterministic.
  std::vector<LexedFile> lexed(n);
  std::vector<std::vector<Finding>> per_file(n);
  std::vector<std::set<std::string>> per_file_status_fns(n);

  ForEachFile(pool, n, [&](size_t i) { lexed[i] = Lex(files[i].content); });

  auto make_ctx = [&](size_t i) {
    FileCtx ctx;
    ctx.file = &files[i];
    ctx.lexed = &lexed[i];
    ctx.findings = &per_file[i];
    for (const std::string& suffix : config.determinism_allowlist) {
      if (PathEndsWith(files[i].path, suffix)) ctx.determinism_exempt = true;
    }
    ctx.hot = PathStartsWithAny(files[i].path, config.hot_paths);
    ctx.serialization =
        PathStartsWithAny(files[i].path, config.serialization_paths);
    ctx.json_parser_exempt =
        PathStartsWithAny(files[i].path, config.json_parser_allowlist);
    ctx.atomic_order_scoped =
        PathStartsWithAny(files[i].path, config.atomic_order_paths);
    ctx.raw_thread_allowed =
        PathStartsWithAny(files[i].path, config.raw_thread_allowlist);
    return ctx;
  };

  // Pass 1 (parallel): headers, to learn which function names return
  // Status/Result; nodiscard findings ride along.
  ForEachFile(pool, n, [&](size_t i) {
    if (!IsHeader(files[i].path)) return;
    FileCtx ctx = make_ctx(i);
    ScanStatusDecls(ctx, /*report=*/true, &per_file_status_fns[i]);
  });
  std::set<std::string> status_fns;
  for (const std::set<std::string>& fns : per_file_status_fns) {
    status_fns.insert(fns.begin(), fns.end());
  }

  // Pass 2 (parallel): every per-file rule.
  ForEachFile(pool, n, [&](size_t i) {
    FileCtx ctx = make_ctx(i);
    CheckDeterminism(ctx);
    CheckHotPath(ctx);
    CheckDroppedStatus(ctx, status_fns);
    CheckHygiene(ctx);
    CheckConcurrency(ctx);
    CheckDeterminismFlow(ctx, config.flow_sinks);
    CheckSingleParser(ctx);
  });

  // Pass 3 (sequential): the include graph. Files arrive sorted by path,
  // so its traversal order is deterministic.
  CheckDependencies(files, lexed, config.layer_config, &per_file);

  // Pass 4 (parallel): per-file suppression resolution over the complete
  // per-file buffers.
  ForEachFile(pool, n, [&](size_t i) {
    FileCtx ctx = make_ctx(i);
    ApplySuppressions(ctx, &per_file[i]);
  });

  // Merge in path order, then sort for a report independent of rule
  // execution order.
  for (std::vector<Finding>& findings : per_file) {
    for (Finding& f : findings) result.findings.push_back(std::move(f));
  }
  std::stable_sort(result.findings.begin(), result.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
  return result;
}

std::string ResultToJson(const AnalysisResult& result) {
  int unsuppressed = 0;
  int suppressed = 0;
  for (const Finding& f : result.findings) {
    (f.suppressed ? suppressed : unsuppressed)++;
  }
  std::string out = "{\n";
  out += StrFormat("  \"tool\": \"wtlint\",\n  \"version\": 2,\n");
  out += StrFormat("  \"files_scanned\": %d,\n", result.files_scanned);
  out += StrFormat("  \"unsuppressed\": %d,\n", unsuppressed);
  out += StrFormat("  \"suppressed\": %d,\n", suppressed);
  out += "  \"findings\": [";
  bool first = true;
  for (const Finding& f : result.findings) {
    if (f.suppressed) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += StrFormat(
        "    {\"rule\": %s, \"file\": %s, \"line\": %d, \"message\": %s}",
        json::Quote(f.rule).c_str(), json::Quote(f.file).c_str(), f.line,
        json::Quote(f.message).c_str());
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"suppressions\": [";
  first = true;
  for (const Finding& f : result.findings) {
    if (!f.suppressed) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += StrFormat(
        "    {\"rule\": %s, \"file\": %s, \"line\": %d, \"reason\": %s}",
        json::Quote(f.rule).c_str(), json::Quote(f.file).c_str(), f.line,
        json::Quote(f.suppress_reason).c_str());
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

std::string ResultToText(const AnalysisResult& result) {
  std::string out;
  int unsuppressed = 0;
  for (const Finding& f : result.findings) {
    if (f.suppressed) continue;
    ++unsuppressed;
    out += StrFormat("%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                     f.rule.c_str(), f.message.c_str());
  }
  out += StrFormat("wtlint: %d file(s), %d finding(s)\n",
                   result.files_scanned, unsuppressed);
  return out;
}

std::string ApplyNodiscardFixes(const std::string& path,
                                const std::string& content,
                                const std::vector<Finding>& findings) {
  std::vector<size_t> offsets;
  for (const Finding& f : findings) {
    if (f.file == path && f.rule == kNodiscard && !f.suppressed &&
        f.fix_offset != static_cast<size_t>(-1)) {
      offsets.push_back(f.fix_offset);
    }
  }
  std::sort(offsets.rbegin(), offsets.rend());
  std::string out = content;
  for (size_t off : offsets) {
    if (off <= out.size()) out.insert(off, "[[nodiscard]] ");
  }
  return out;
}

}  // namespace wtlint
}  // namespace wt
