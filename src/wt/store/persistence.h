// Persistence for the result store (§4.4).
//
// Simulation output "will be collected over time" and explored across
// sessions; tables therefore round-trip through a typed CSV format whose
// header carries column types ("nodes:int,placement:string,..."), and a
// ResultStore can be saved to / loaded from a directory of such files.

#ifndef WT_STORE_PERSISTENCE_H_
#define WT_STORE_PERSISTENCE_H_

#include <string>

#include "wt/store/result_store.h"

namespace wt {

/// Serializes a table with a typed header ("name:type" per column).
/// Null cells render as empty fields; doubles in shortest round-trip form,
/// so TableFromTypedCsv restores them bit for bit.
std::string TableToTypedCsv(const Table& table);

/// Parses the typed CSV form back into a Table.
[[nodiscard]] Result<Table> TableFromTypedCsv(const std::string& csv);

/// Writes every table of `store` as `<dir>/<table>.wt.csv`. Creates the
/// directory if needed; existing files are overwritten.
[[nodiscard]] Status SaveResultStore(const ResultStore& store, const std::string& dir);

/// Loads every `*.wt.csv` in `dir` into `store` (table name = file stem).
/// Fails if a table name already exists in the store.
[[nodiscard]] Status LoadResultStore(ResultStore* store, const std::string& dir);

}  // namespace wt

#endif  // WT_STORE_PERSISTENCE_H_
