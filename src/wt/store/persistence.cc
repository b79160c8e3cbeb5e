#include "wt/store/persistence.h"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "wt/common/string_util.h"

namespace wt {

namespace {

// CSV field escaping: quote when the field contains separators/quotes.
std::string EscapeField(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

// Splits one CSV line honoring quotes.
Result<std::vector<std::string>> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (quoted) return Status::ParseError("unterminated quote in CSV line");
  fields.push_back(std::move(cur));
  return fields;
}

Result<ValueType> TypeFromName(const std::string& name) {
  if (name == "bool") return ValueType::kBool;
  if (name == "int") return ValueType::kInt;
  if (name == "double") return ValueType::kDouble;
  if (name == "string") return ValueType::kString;
  return Status::ParseError("unknown column type: '" + name + "'");
}

Result<Value> ParseCell(const std::string& text, ValueType type) {
  if (text.empty() && type != ValueType::kString) return Value();  // null
  switch (type) {
    case ValueType::kBool: {
      WT_ASSIGN_OR_RETURN(bool b, ParseBool(text));
      return Value(b);
    }
    case ValueType::kInt: {
      WT_ASSIGN_OR_RETURN(long long v, ParseInt(text));
      return Value(static_cast<int64_t>(v));
    }
    case ValueType::kDouble: {
      WT_ASSIGN_OR_RETURN(double v, ParseDouble(text));
      return Value(v);
    }
    case ValueType::kString:
      return Value(text);
    case ValueType::kNull:
      return Value();
  }
  return Value();
}

}  // namespace

std::string TableToTypedCsv(const Table& table) {
  std::string out;
  const Schema& schema = table.schema();
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (c > 0) out += ",";
    out += EscapeField(schema.column(c).name + ":" +
                       ValueTypeToString(schema.column(c).type));
  }
  out += "\n";
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      if (c > 0) out += ",";
      const Value& v = table.At(r, c);
      if (v.type() == ValueType::kDouble) {
        // Shortest round-trip form, not ToString's %.10g: a stored metric
        // loads back bit for bit. No double text needs CSV quoting.
        char buf[32];  // longest: "-2.2250738585072014e-308", 24 chars
        out.append(buf,
                   std::to_chars(buf, buf + sizeof(buf), v.AsDouble()).ptr);
      } else if (!v.is_null()) {
        out += EscapeField(v.ToString());
      }
    }
    out += "\n";
  }
  return out;
}

Result<Table> TableFromTypedCsv(const std::string& csv) {
  std::vector<std::string> lines = StrSplit(csv, '\n');
  if (lines.empty() || StrTrim(lines[0]).empty()) {
    return Status::ParseError("typed CSV missing header");
  }
  WT_ASSIGN_OR_RETURN(std::vector<std::string> header,
                      SplitCsvLine(lines[0]));
  std::vector<ColumnDef> defs;
  for (const std::string& col : header) {
    size_t sep = col.rfind(':');
    if (sep == std::string::npos) {
      return Status::ParseError("header column missing ':type': '" + col +
                                "'");
    }
    ColumnDef def;
    def.name = col.substr(0, sep);
    WT_ASSIGN_OR_RETURN(def.type, TypeFromName(col.substr(sep + 1)));
    defs.push_back(std::move(def));
  }
  Table table((Schema(defs)));
  for (size_t i = 1; i < lines.size(); ++i) {
    if (StrTrim(lines[i]).empty()) continue;
    WT_ASSIGN_OR_RETURN(std::vector<std::string> fields,
                        SplitCsvLine(lines[i]));
    if (fields.size() != defs.size()) {
      return Status::ParseError(
          StrFormat("row %zu has %zu fields, expected %zu", i,
                    fields.size(), defs.size()));
    }
    std::vector<Value> row;
    row.reserve(fields.size());
    for (size_t c = 0; c < fields.size(); ++c) {
      WT_ASSIGN_OR_RETURN(Value v, ParseCell(fields[c], defs[c].type));
      row.push_back(std::move(v));
    }
    WT_RETURN_IF_ERROR(table.AppendRow(std::move(row)));
  }
  return table;
}

Status SaveResultStore(const ResultStore& store, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create directory '" + dir +
                            "': " + ec.message());
  }
  for (const std::string& name : store.TableNames()) {
    auto table = store.GetTableConst(name);
    if (!table.ok()) return table.status();
    std::filesystem::path path =
        std::filesystem::path(dir) / (name + ".wt.csv");
    std::ofstream out(path);
    if (!out) {
      return Status::Internal("cannot open '" + path.string() +
                              "' for writing");
    }
    out << TableToTypedCsv(**table);
    if (!out.good()) {
      return Status::Internal("write failed for '" + path.string() + "'");
    }
  }
  return Status::OK();
}

Status LoadResultStore(ResultStore* store, const std::string& dir) {
  std::error_code ec;
  auto iter = std::filesystem::directory_iterator(dir, ec);
  if (ec) {
    return Status::NotFound("cannot read directory '" + dir +
                            "': " + ec.message());
  }
  for (const auto& entry : iter) {
    std::string filename = entry.path().filename().string();
    if (!StrEndsWith(filename, ".wt.csv")) continue;
    std::ifstream in(entry.path());
    if (!in) {
      return Status::Internal("cannot open '" + entry.path().string() + "'");
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    WT_ASSIGN_OR_RETURN(Table table, TableFromTypedCsv(buffer.str()));
    std::string name = filename.substr(0, filename.size() - 7);
    WT_RETURN_IF_ERROR(store->CreateTable(name, table.schema()));
    WT_ASSIGN_OR_RETURN(Table * dst, store->GetTable(name));
    *dst = std::move(table);
  }
  return Status::OK();
}

}  // namespace wt
