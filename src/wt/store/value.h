// Dynamically-typed cell value for the result store and the query layer.

#ifndef WT_STORE_VALUE_H_
#define WT_STORE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "wt/common/result.h"

namespace wt {

/// Column/value type tags.
enum class ValueType { kNull, kBool, kInt, kDouble, kString };

const char* ValueTypeToString(ValueType type);

/// A single cell: null, bool, int64, double, or string.
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  Value(bool b) : v_(b) {}                       // NOLINT(runtime/explicit)
  Value(int64_t i) : v_(i) {}                    // NOLINT(runtime/explicit)
  Value(int i) : v_(static_cast<int64_t>(i)) {}  // NOLINT(runtime/explicit)
  Value(double d) : v_(d) {}                     // NOLINT(runtime/explicit)
  Value(std::string s) : v_(std::move(s)) {}     // NOLINT(runtime/explicit)
  Value(const char* s) : v_(std::string(s)) {}   // NOLINT(runtime/explicit)

  ValueType type() const;
  bool is_null() const { return type() == ValueType::kNull; }

  /// Typed accessors; wrong-type access is a programming error (aborts).
  bool AsBool() const;
  int64_t AsInt() const;
  double AsDouble() const;
  const std::string& AsString() const;

  /// Numeric view: int and double convert, bool -> 0/1; error otherwise.
  [[nodiscard]] Result<double> ToNumeric() const;

  /// Renders for CSV / debugging.
  std::string ToString() const;
  /// Appends ToString()'s text to `*out`: the one renderer behind the debug
  /// text, Table::ToCsv and SweepConfigHash, so they cannot drift apart.
  void AppendTo(std::string* out) const;

  /// Total order within same type; numerics compare cross-type (int vs
  /// double); everything else compares by type tag then value.
  bool operator==(const Value& other) const;
  bool operator<(const Value& other) const;

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string> v_;
};

}  // namespace wt

#endif  // WT_STORE_VALUE_H_
