// Strict JSON reader and string quoter (DESIGN.md §9).
//
// This is the project's ONE JSON parser: scenario files, wtlint's layer
// config and the tests that check every exporter's output all read
// through ParseJson, and wtlint's scenario/single-parser rule keeps
// ad-hoc scenario parsers from sprouting elsewhere. The exporters (trace,
// metrics, manifest, BENCH json, wtlint --json) print their own layouts
// but write every string through Quote. The reader is a strict RFC 8259
// recursive-descent parser building a small DOM:
//
//  * strict: no comments, no trailing commas, no unquoted keys, exactly
//    one top-level value; errors carry line:column of the first violation;
//  * duplicate object keys are rejected (a scenario that sets "seed"
//    twice is a bug, not a last-writer-wins surprise);
//  * object key order is PRESERVED (ObjectKeys) so scenario hashing and
//    error messages are stable, while lookup stays O(log n);
//  * numbers are held as double plus an exact-int64 flag, matching the
//    store's Value model (wt/store/value.h).
//
// Depth is bounded (kMaxJsonDepth) so a hostile file cannot overflow the
// stack. Inputs are small (scenario files, golden reports), so the DOM
// favors clarity over allocation thrift.

#ifndef WT_COMMON_JSON_H_
#define WT_COMMON_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "wt/common/result.h"
#include "wt/common/status.h"

namespace wt {
namespace json {

/// Nesting bound for arrays/objects; deeper input is a parse error.
inline constexpr int kMaxJsonDepth = 64;

enum class JsonKind {
  kNull,
  kBool,
  kNumber,
  kString,
  kArray,
  kObject,
};

const char* JsonKindToString(JsonKind kind);

/// One JSON value. Copyable; a parsed document is a tree of these.
class JsonValue {
 public:
  /// Constructs null.
  JsonValue() = default;

  static JsonValue Null();
  static JsonValue Bool(bool b);
  static JsonValue Number(double d);
  static JsonValue Int(int64_t i);
  static JsonValue Str(std::string s);
  static JsonValue Array();
  static JsonValue Object();

  JsonKind kind() const { return kind_; }
  bool is_null() const { return kind_ == JsonKind::kNull; }
  bool is_bool() const { return kind_ == JsonKind::kBool; }
  bool is_number() const { return kind_ == JsonKind::kNumber; }
  bool is_string() const { return kind_ == JsonKind::kString; }
  bool is_array() const { return kind_ == JsonKind::kArray; }
  bool is_object() const { return kind_ == JsonKind::kObject; }

  /// True iff the value is a number that was written as an integer and
  /// fits int64 exactly (no fraction, no exponent-induced rounding).
  bool is_int() const { return kind_ == JsonKind::kNumber && exact_int_; }

  /// Typed accessors; each requires the matching kind() (checked).
  bool AsBool() const;
  double AsDouble() const;
  int64_t AsInt() const;  // requires is_int()
  const std::string& AsString() const;

  // --- arrays ---
  size_t size() const;  // array: element count; object: member count
  const JsonValue& At(size_t i) const;          // array element (checked)
  void Append(JsonValue v);                     // array only

  // --- objects ---
  bool Has(const std::string& key) const;
  /// The member value, or nullptr if absent. Object only.
  const JsonValue* Find(const std::string& key) const;
  /// Member keys in file order (insertion order).
  const std::vector<std::string>& ObjectKeys() const;
  /// Adds a member; returns false (and ignores the write) on duplicate.
  bool Insert(const std::string& key, JsonValue v);

  /// Canonical single-line serialization (keys in file order, shortest
  /// round-trip doubles). Parse(Serialize(v)) == v.
  std::string Serialize() const;

 private:
  JsonKind kind_ = JsonKind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  bool exact_int_ = false;
  int64_t int_ = 0;
  std::string str_;
  std::vector<JsonValue> arr_;
  // Key order preserved separately from the lookup map.
  std::vector<std::string> keys_;
  std::map<std::string, JsonValue> obj_;
};

/// `s` as a JSON string literal, quotes included. Quote and backslash are
/// backslash-escaped, \b \f \n \r \t get their short escapes, other
/// control bytes become \u00XX, and every other byte passes through.
std::string Quote(std::string_view s);

/// Parses exactly one JSON value (plus surrounding whitespace).
/// Errors are Status::ParseError with "line:col: message".
[[nodiscard]] Result<JsonValue> ParseJson(std::string_view text);

}  // namespace json
}  // namespace wt

#endif  // WT_COMMON_JSON_H_
