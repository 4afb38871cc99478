#ifndef AUDITDB_BACKLOG_SNAPSHOT_H_
#define AUDITDB_BACKLOG_SNAPSHOT_H_

#include <map>
#include <memory>
#include <string>

#include "src/common/timestamp.h"
#include "src/storage/database.h"

namespace auditdb {

/// A materialized past database state, reconstructed by the backlog. Owns
/// its tables; View() exposes them to the executor exactly like a live
/// database, so queries and audit target views run unchanged on history.
class Snapshot {
 public:
  explicit Snapshot(Timestamp time) : time_(time) {}

  Snapshot(Snapshot&&) = default;
  Snapshot& operator=(Snapshot&&) = default;

  Timestamp time() const { return time_; }
  void set_time(Timestamp time) { time_ = time; }

  /// Adds an (empty) table with the given schema; returns it for filling.
  Result<Table*> AddTable(TableSchema schema);

  /// Adds `table`, replacing any table of the same name.
  void PutTable(std::unique_ptr<Table> table);

  Result<const Table*> GetTable(const std::string& name) const;
  Result<Table*> GetTable(const std::string& name);

  /// Read view over all tables in the snapshot.
  DatabaseView View() const;

 private:
  Timestamp time_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace auditdb

#endif  // AUDITDB_BACKLOG_SNAPSHOT_H_
