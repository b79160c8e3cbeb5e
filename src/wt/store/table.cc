#include "wt/store/table.h"

#include <algorithm>
#include <map>

#include "wt/common/macros.h"
#include "wt/common/string_util.h"

namespace wt {

Schema::Schema(std::vector<ColumnDef> columns) : columns_(std::move(columns)) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    for (size_t j = i + 1; j < columns_.size(); ++j) {
      WT_CHECK(columns_[i].name != columns_[j].name)
          << "duplicate column name: " << columns_[i].name;
    }
  }
}

Result<size_t> Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return Status::NotFound("no such column: '" + name + "'");
}

bool Schema::Has(const std::string& name) const {
  return IndexOf(name).ok();
}

std::string Schema::ToString() const {
  // Built with sequential appends: the "(" + StrJoin(...) + ")" form trips
  // GCC 12's -Werror=restrict false positive (GCC bug 105651).
  std::string out = "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i].name;
    out += ":";
    out += ValueTypeToString(columns_[i].type);
  }
  out += ")";
  return out;
}

Status Table::AppendRow(std::vector<Value> row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        StrFormat("row arity %zu != schema arity %zu", row.size(),
                  schema_.num_columns()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!row[i].is_null() && row[i].type() != schema_.column(i).type) {
      return Status::InvalidArgument(StrFormat(
          "column '%s' expects %s, got %s", schema_.column(i).name.c_str(),
          ValueTypeToString(schema_.column(i).type),
          ValueTypeToString(row[i].type())));
    }
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

const Value& Table::At(size_t row, size_t col) const {
  WT_CHECK(row < rows_.size() && col < schema_.num_columns());
  return rows_[row][col];
}

Result<Value> Table::Get(size_t row, const std::string& column) const {
  if (row >= rows_.size()) return Status::OutOfRange("row out of range");
  WT_ASSIGN_OR_RETURN(size_t col, schema_.IndexOf(column));
  return rows_[row][col];
}

Table Table::Filter(
    const std::function<bool(const Table&, size_t row)>& pred) const {
  Table out(schema_);
  for (size_t r = 0; r < rows_.size(); ++r) {
    if (pred(*this, r)) out.rows_.push_back(rows_[r]);
  }
  return out;
}

Result<Table> Table::Project(const std::vector<std::string>& columns) const {
  std::vector<ColumnDef> defs;
  std::vector<size_t> idx;
  for (const std::string& name : columns) {
    WT_ASSIGN_OR_RETURN(size_t i, schema_.IndexOf(name));
    idx.push_back(i);
    defs.push_back(schema_.column(i));
  }
  Table out((Schema(defs)));
  for (const auto& row : rows_) {
    std::vector<Value> projected;
    projected.reserve(idx.size());
    for (size_t i : idx) projected.push_back(row[i]);
    out.rows_.push_back(std::move(projected));
  }
  return out;
}

Result<Table> Table::SortBy(const std::string& column, bool ascending) const {
  WT_ASSIGN_OR_RETURN(size_t col, schema_.IndexOf(column));
  Table out = *this;
  std::stable_sort(out.rows_.begin(), out.rows_.end(),
                   [col, ascending](const std::vector<Value>& a,
                                    const std::vector<Value>& b) {
                     return ascending ? a[col] < b[col] : b[col] < a[col];
                   });
  return out;
}

Table Table::Head(size_t n) const {
  Table out(schema_);
  for (size_t r = 0; r < std::min(n, rows_.size()); ++r) {
    out.rows_.push_back(rows_[r]);
  }
  return out;
}

Result<Table::ColumnStats> Table::Aggregate(const std::string& column) const {
  WT_ASSIGN_OR_RETURN(size_t col, schema_.IndexOf(column));
  ColumnStats stats;
  for (const auto& row : rows_) {
    if (row[col].is_null()) continue;
    WT_ASSIGN_OR_RETURN(double v, row[col].ToNumeric());
    if (stats.count == 0) {
      stats.min = v;
      stats.max = v;
    } else {
      stats.min = std::min(stats.min, v);
      stats.max = std::max(stats.max, v);
    }
    stats.sum += v;
    ++stats.count;
  }
  stats.mean = stats.count > 0 ? stats.sum / static_cast<double>(stats.count)
                               : 0.0;
  return stats;
}

Result<Table> Table::GroupByMean(const std::string& key,
                                 const std::string& value) const {
  WT_ASSIGN_OR_RETURN(size_t kcol, schema_.IndexOf(key));
  WT_ASSIGN_OR_RETURN(size_t vcol, schema_.IndexOf(value));
  // Ordered map keyed by Value's total order keeps output deterministic.
  std::map<Value, std::pair<double, int64_t>> groups;
  for (const auto& row : rows_) {
    if (row[vcol].is_null()) continue;
    WT_ASSIGN_OR_RETURN(double v, row[vcol].ToNumeric());
    auto& [sum, count] = groups[row[kcol]];
    sum += v;
    ++count;
  }
  Schema schema({ColumnDef{key, schema_.column(kcol).type},
                 ColumnDef{"mean_" + value, ValueType::kDouble},
                 ColumnDef{"count", ValueType::kInt}});
  Table out(schema);
  for (const auto& [k, agg] : groups) {
    WT_RETURN_IF_ERROR(out.AppendRow(
        {k, Value(agg.first / static_cast<double>(agg.second)),
         Value(agg.second)}));
  }
  return out;
}

std::string Table::ToCsv() const {
  std::string out;
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    if (c > 0) out += ",";
    out += schema_.column(c).name;
  }
  out += "\n";
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += ",";
      const size_t start = out.size();
      row[c].AppendTo(&out);
      // Quote cells containing separators.
      if (out.find_first_of(",\"", start) != std::string::npos) {
        const std::string cell = out.substr(start);
        out.resize(start);
        out += '"';
        for (char ch : cell) {
          if (ch == '"') out += '"';
          out += ch;
        }
        out += '"';
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace wt
