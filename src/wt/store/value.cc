#include "wt/store/value.h"

#include <charconv>
#include <cstdio>

#include "wt/common/macros.h"

namespace wt {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return "bool";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

ValueType Value::type() const {
  switch (v_.index()) {
    case 0:
      return ValueType::kNull;
    case 1:
      return ValueType::kBool;
    case 2:
      return ValueType::kInt;
    case 3:
      return ValueType::kDouble;
    case 4:
      return ValueType::kString;
  }
  return ValueType::kNull;
}

bool Value::AsBool() const {
  WT_CHECK(type() == ValueType::kBool) << "Value is not bool";
  return std::get<bool>(v_);
}
int64_t Value::AsInt() const {
  WT_CHECK(type() == ValueType::kInt) << "Value is not int";
  return std::get<int64_t>(v_);
}
double Value::AsDouble() const {
  WT_CHECK(type() == ValueType::kDouble) << "Value is not double";
  return std::get<double>(v_);
}
const std::string& Value::AsString() const {
  WT_CHECK(type() == ValueType::kString) << "Value is not string";
  return std::get<std::string>(v_);
}

Result<double> Value::ToNumeric() const {
  switch (type()) {
    case ValueType::kBool:
      return AsBool() ? 1.0 : 0.0;
    case ValueType::kInt:
      return static_cast<double>(AsInt());
    case ValueType::kDouble:
      return AsDouble();
    default:
      return Status::InvalidArgument("value is not numeric: " + ToString());
  }
}

std::string Value::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Value::AppendTo(std::string* out) const {
  char buf[32] = {};  // "%.10g" takes at most 17 ("-1.234567891e-308")
  switch (type()) {
    case ValueType::kNull:
      out->append("null");
      return;
    case ValueType::kBool:
      out->append(AsBool() ? "true" : "false");
      return;
    case ValueType::kInt:
      out->append(buf, std::to_chars(buf, buf + sizeof(buf), AsInt()).ptr);
      return;
    case ValueType::kDouble:
      out->append(buf, static_cast<size_t>(std::snprintf(
                           buf, sizeof(buf), "%.10g", AsDouble())));
      return;
    case ValueType::kString:
      out->append(AsString());
      return;
  }
}

namespace {
bool IsNumeric(ValueType t) {
  return t == ValueType::kInt || t == ValueType::kDouble;
}
}  // namespace

bool Value::operator==(const Value& other) const {
  if (IsNumeric(type()) && IsNumeric(other.type())) {
    return ToNumeric().value() == other.ToNumeric().value();
  }
  return v_ == other.v_;
}

bool Value::operator<(const Value& other) const {
  if (IsNumeric(type()) && IsNumeric(other.type())) {
    return ToNumeric().value() < other.ToNumeric().value();
  }
  if (type() != other.type()) {
    return static_cast<int>(type()) < static_cast<int>(other.type());
  }
  return v_ < other.v_;
}

}  // namespace wt
