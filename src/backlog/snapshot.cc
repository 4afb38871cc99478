#include "src/backlog/snapshot.h"

namespace auditdb {

Result<Table*> Snapshot::AddTable(TableSchema schema) {
  std::string name = schema.name();
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table already in snapshot: " + name);
  }
  auto table = std::make_unique<Table>(std::move(schema));
  Table* ptr = table.get();
  tables_.emplace(std::move(name), std::move(table));
  return ptr;
}

void Snapshot::PutTable(std::unique_ptr<Table> table) {
  std::string name = table->name();
  tables_[std::move(name)] = std::move(table);
}

Result<const Table*> Snapshot::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no such table in snapshot: " + name);
  }
  return const_cast<const Table*>(it->second.get());
}

Result<Table*> Snapshot::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no such table in snapshot: " + name);
  }
  return it->second.get();
}

DatabaseView Snapshot::View() const {
  DatabaseView view;
  for (const auto& [name, table] : tables_) view.AddTable(table.get());
  return view;
}

}  // namespace auditdb
