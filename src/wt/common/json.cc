#include "wt/common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

#include "wt/common/macros.h"
#include "wt/common/string_util.h"

namespace wt {
namespace json {

const char* JsonKindToString(JsonKind kind) {
  switch (kind) {
    case JsonKind::kNull:   return "null";
    case JsonKind::kBool:   return "bool";
    case JsonKind::kNumber: return "number";
    case JsonKind::kString: return "string";
    case JsonKind::kArray:  return "array";
    case JsonKind::kObject: return "object";
  }
  return "?";
}

JsonValue JsonValue::Null() { return JsonValue(); }

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = JsonKind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double d) {
  JsonValue v;
  v.kind_ = JsonKind::kNumber;
  v.num_ = d;
  return v;
}

JsonValue JsonValue::Int(int64_t i) {
  JsonValue v;
  v.kind_ = JsonKind::kNumber;
  v.num_ = static_cast<double>(i);
  v.exact_int_ = true;
  v.int_ = i;
  return v;
}

JsonValue JsonValue::Str(std::string s) {
  JsonValue v;
  v.kind_ = JsonKind::kString;
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = JsonKind::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = JsonKind::kObject;
  return v;
}

bool JsonValue::AsBool() const {
  WT_CHECK(is_bool()) << "AsBool on " << JsonKindToString(kind_);
  return bool_;
}

double JsonValue::AsDouble() const {
  WT_CHECK(is_number()) << "AsDouble on " << JsonKindToString(kind_);
  return num_;
}

int64_t JsonValue::AsInt() const {
  WT_CHECK(is_int()) << "AsInt on non-integer " << JsonKindToString(kind_);
  return int_;
}

const std::string& JsonValue::AsString() const {
  WT_CHECK(is_string()) << "AsString on " << JsonKindToString(kind_);
  return str_;
}

size_t JsonValue::size() const {
  if (kind_ == JsonKind::kArray) return arr_.size();
  if (kind_ == JsonKind::kObject) return keys_.size();
  return 0;
}

const JsonValue& JsonValue::At(size_t i) const {
  WT_CHECK(is_array()) << "At on " << JsonKindToString(kind_);
  WT_CHECK(i < arr_.size()) << "index " << i << " >= " << arr_.size();
  return arr_[i];
}

void JsonValue::Append(JsonValue v) {
  WT_CHECK(is_array()) << "Append on " << JsonKindToString(kind_);
  arr_.push_back(std::move(v));
}

bool JsonValue::Has(const std::string& key) const {
  return is_object() && obj_.count(key) > 0;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  auto it = obj_.find(key);
  return it == obj_.end() ? nullptr : &it->second;
}

const std::vector<std::string>& JsonValue::ObjectKeys() const {
  WT_CHECK(is_object()) << "ObjectKeys on " << JsonKindToString(kind_);
  return keys_;
}

bool JsonValue::Insert(const std::string& key, JsonValue v) {
  WT_CHECK(is_object()) << "Insert on " << JsonKindToString(kind_);
  if (obj_.count(key) > 0) return false;
  keys_.push_back(key);
  obj_.emplace(key, std::move(v));
  return true;
}

namespace {

void AppendNumber(double d, std::string* out) {
  // Shortest representation that round-trips (to_chars general form).
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), d);
  WT_CHECK(ec == std::errc()) << "to_chars failed";
  out->append(buf, end);
}

void SerializeTo(const JsonValue& v, std::string* out);

void SerializeTo(const JsonValue& v, std::string* out) {
  switch (v.kind()) {
    case JsonKind::kNull:
      out->append("null");
      break;
    case JsonKind::kBool:
      out->append(v.AsBool() ? "true" : "false");
      break;
    case JsonKind::kNumber:
      if (v.is_int()) {
        out->append(std::to_string(v.AsInt()));
      } else {
        AppendNumber(v.AsDouble(), out);
      }
      break;
    case JsonKind::kString:
      out->append(Quote(v.AsString()));
      break;
    case JsonKind::kArray: {
      out->push_back('[');
      for (size_t i = 0; i < v.size(); ++i) {
        if (i > 0) out->push_back(',');
        SerializeTo(v.At(i), out);
      }
      out->push_back(']');
      break;
    }
    case JsonKind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const std::string& key : v.ObjectKeys()) {
        if (!first) out->push_back(',');
        first = false;
        out->append(Quote(key));
        out->push_back(':');
        SerializeTo(*v.Find(key), out);
      }
      out->push_back('}');
      break;
    }
  }
}

/// Recursive-descent parser over the raw bytes. Tracks line/column for
/// error messages; depth for the nesting bound.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWs();
    JsonValue v;
    WT_RETURN_IF_ERROR(ParseValue(0, &v));
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing content after top-level value");
    }
    return v;
  }

 private:
  Status Error(const std::string& msg) const {
    return Status::ParseError(
        StrFormat("%d:%d: %s", line_, Column(), msg.c_str()));
  }

  int Column() const {
    return static_cast<int>(pos_ - line_start_) + 1;
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void Advance() {
    if (text_[pos_] == '\n') {
      ++line_;
      line_start_ = pos_ + 1;
    }
    ++pos_;
  }

  void SkipWs() {
    while (!AtEnd()) {
      const char c = Peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        Advance();
      } else {
        break;
      }
    }
  }

  Status Expect(char c) {
    if (AtEnd() || Peek() != c) {
      return Error(StrFormat("expected '%c'", c));
    }
    Advance();
    return Status::OK();
  }

  Status ParseLiteral(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return Error(StrFormat("invalid literal (expected '%s')",
                             std::string(word).c_str()));
    }
    for (size_t i = 0; i < word.size(); ++i) Advance();
    return Status::OK();
  }

  Status ParseValue(int depth, JsonValue* out) {
    if (depth > kMaxJsonDepth) {
      return Error(StrFormat("nesting deeper than %d", kMaxJsonDepth));
    }
    if (AtEnd()) return Error("unexpected end of input");
    switch (Peek()) {
      case '{': return ParseObject(depth, out);
      case '[': return ParseArray(depth, out);
      case '"': return ParseString(out);
      case 't':
        WT_RETURN_IF_ERROR(ParseLiteral("true"));
        *out = JsonValue::Bool(true);
        return Status::OK();
      case 'f':
        WT_RETURN_IF_ERROR(ParseLiteral("false"));
        *out = JsonValue::Bool(false);
        return Status::OK();
      case 'n':
        WT_RETURN_IF_ERROR(ParseLiteral("null"));
        *out = JsonValue::Null();
        return Status::OK();
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(int depth, JsonValue* out) {
    WT_RETURN_IF_ERROR(Expect('{'));
    *out = JsonValue::Object();
    SkipWs();
    if (!AtEnd() && Peek() == '}') {
      Advance();
      return Status::OK();
    }
    while (true) {
      SkipWs();
      if (AtEnd() || Peek() != '"') {
        return Error("expected '\"' to start object key");
      }
      JsonValue key;
      WT_RETURN_IF_ERROR(ParseString(&key));
      SkipWs();
      WT_RETURN_IF_ERROR(Expect(':'));
      SkipWs();
      JsonValue member;
      WT_RETURN_IF_ERROR(ParseValue(depth + 1, &member));
      if (!out->Insert(key.AsString(), std::move(member))) {
        return Error(
            StrFormat("duplicate object key \"%s\"", key.AsString().c_str()));
      }
      SkipWs();
      if (AtEnd()) return Error("unterminated object");
      if (Peek() == ',') {
        Advance();
        continue;
      }
      if (Peek() == '}') {
        Advance();
        return Status::OK();
      }
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(int depth, JsonValue* out) {
    WT_RETURN_IF_ERROR(Expect('['));
    *out = JsonValue::Array();
    SkipWs();
    if (!AtEnd() && Peek() == ']') {
      Advance();
      return Status::OK();
    }
    while (true) {
      SkipWs();
      JsonValue element;
      WT_RETURN_IF_ERROR(ParseValue(depth + 1, &element));
      out->Append(std::move(element));
      SkipWs();
      if (AtEnd()) return Error("unterminated array");
      if (Peek() == ',') {
        Advance();
        continue;
      }
      if (Peek() == ']') {
        Advance();
        return Status::OK();
      }
      return Error("expected ',' or ']' in array");
    }
  }

  /// Appends `cp` (a Unicode code point) as UTF-8.
  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseHex4(uint32_t* out) {
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      if (AtEnd()) return Error("unterminated \\u escape");
      const char c = Peek();
      uint32_t digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
      value = value * 16 + digit;
      Advance();
    }
    *out = value;
    return Status::OK();
  }

  Status ParseString(JsonValue* out) {
    WT_RETURN_IF_ERROR(Expect('"'));
    std::string s;
    while (true) {
      if (AtEnd()) return Error("unterminated string");
      const char c = Peek();
      if (c == '"') {
        Advance();
        *out = JsonValue::Str(std::move(s));
        return Status::OK();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        s.push_back(c);
        Advance();
        continue;
      }
      Advance();  // backslash
      if (AtEnd()) return Error("unterminated escape");
      const char esc = Peek();
      Advance();
      switch (esc) {
        case '"':  s.push_back('"'); break;
        case '\\': s.push_back('\\'); break;
        case '/':  s.push_back('/'); break;
        case 'b':  s.push_back('\b'); break;
        case 'f':  s.push_back('\f'); break;
        case 'n':  s.push_back('\n'); break;
        case 'r':  s.push_back('\r'); break;
        case 't':  s.push_back('\t'); break;
        case 'u': {
          uint32_t cp = 0;
          WT_RETURN_IF_ERROR(ParseHex4(&cp));
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (AtEnd() || Peek() != '\\') {
              return Error("unpaired high surrogate");
            }
            Advance();
            if (AtEnd() || Peek() != 'u') {
              return Error("unpaired high surrogate");
            }
            Advance();
            uint32_t low = 0;
            WT_RETURN_IF_ERROR(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("unpaired low surrogate");
          }
          AppendUtf8(cp, &s);
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (!AtEnd() && Peek() == '-') Advance();
    // Integer part: "0" or [1-9][0-9]*.
    if (AtEnd() || Peek() < '0' || Peek() > '9') {
      return Error("invalid number");
    }
    if (Peek() == '0') {
      Advance();
      if (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
        return Error("leading zero in number");
      }
    } else {
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') Advance();
    }
    bool integral = true;
    if (!AtEnd() && Peek() == '.') {
      integral = false;
      Advance();
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        return Error("expected digit after decimal point");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') Advance();
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      integral = false;
      Advance();
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) Advance();
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        return Error("expected digit in exponent");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') Advance();
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (integral) {
      int64_t i = 0;
      auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), i);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        *out = JsonValue::Int(i);
        return Status::OK();
      }
      // Integer syntax but out of int64 range: fall through to double.
    }
    double d = 0.0;
    auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), d);
    if (ec != std::errc() || ptr != token.data() + token.size() ||
        !std::isfinite(d)) {
      return Error("number out of range");
    }
    *out = JsonValue::Number(d);
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
  size_t line_start_ = 0;
};

}  // namespace

std::string Quote(std::string_view s) {
  std::string out = "\"";
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':  out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\b': out.append("\\b"); break;
      case '\f': out.append("\\f"); break;
      case '\n': out.append("\\n"); break;
      case '\r': out.append("\\r"); break;
      case '\t': out.append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out.append(buf);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonValue::Serialize() const {
  std::string out;
  SerializeTo(*this, &out);
  return out;
}

Result<JsonValue> ParseJson(std::string_view text) {
  Parser parser(text);
  return parser.Parse();
}

}  // namespace json
}  // namespace wt
