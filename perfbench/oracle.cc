#include "oracle.h"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace perfbench {

using auditdb::ChangeEvent;
using auditdb::Tid;
using auditdb::Value;

namespace {

using TableState = std::map<Tid, std::vector<Value>>;

int ColumnPosition(const auditdb::TableSchema& schema,
                   const std::string& name) {
  const auto& columns = schema.columns();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

std::string FactKey(const std::vector<Tid>& tids,
                    const std::vector<Value>& values) {
  std::string key;
  for (Tid tid : tids) key += std::to_string(tid) + ",";
  key += "|";
  for (const Value& value : values) key += value.ToString() + "\x1f";
  return key;
}

std::string OracleFacts(const auditdb::Backlog& backlog,
                        const auditdb::DatabaseView& live,
                        const auditdb::TimeInterval& interval,
                        const std::vector<std::string>& tables,
                        const std::vector<auditdb::ColumnRef>& columns,
                        size_t event_limit, std::set<std::string>* facts) {
  const std::string kPersonal = "P-Personal";
  const std::string kHealth = "P-Health";
  if (tables != std::vector<std::string>{kPersonal, kHealth}) {
    return "oracle covers FROM P-Personal, P-Health only";
  }
  auto personal_schema = live.GetTable(kPersonal);
  auto health_schema = live.GetTable(kHealth);
  if (!personal_schema.ok() || !health_schema.ok()) {
    return "oracle: hospital tables missing";
  }
  const int personal_pid = ColumnPosition((*personal_schema)->schema(), "pid");
  const int health_pid = ColumnPosition((*health_schema)->schema(), "pid");
  const int disease = ColumnPosition((*health_schema)->schema(), "disease");
  if (personal_pid < 0 || health_pid < 0 || disease < 0) {
    return "oracle: join or filter column missing";
  }
  // Where each view column's value sits: (0 = P-Personal | 1 = P-Health,
  // position in that table's rows).
  std::vector<std::pair<int, int>> slots;
  for (const auto& col : columns) {
    int side = col.table == kPersonal ? 0 : col.table == kHealth ? 1 : -1;
    if (side < 0) return "oracle: column " + col.ToString() + " outside FROM";
    int pos = ColumnPosition(
        side == 0 ? (*personal_schema)->schema() : (*health_schema)->schema(),
        col.column);
    if (pos < 0) return "oracle: unknown column " + col.ToString();
    slots.emplace_back(side, pos);
  }

  std::unordered_map<std::string, TableState> state;
  const size_t n = std::min(event_limit, backlog.event_count());
  for (size_t i = 1; i < n; ++i) {
    if (backlog.EventAt(i).timestamp < backlog.EventAt(i - 1).timestamp) {
      return "oracle replays forward and needs time-ordered events";
    }
  }
  size_t next = 0;
  // Applies every event stamped <= t; reports whether one touched U's
  // tables (otherwise the new version has the previous version's facts).
  auto apply_through = [&](auditdb::Timestamp t) {
    bool touched = false;
    for (; next < n && backlog.EventAt(next).timestamp <= t; ++next) {
      const ChangeEvent& event = backlog.EventAt(next);
      TableState& table = state[event.table];
      if (event.op == ChangeEvent::Op::kDelete) {
        table.erase(event.row.tid);
      } else {
        table[event.row.tid] = event.row.values;
      }
      touched = touched || event.table == kPersonal || event.table == kHealth;
    }
    return touched;
  };
  const Value diabetic = Value::String("diabetic");
  auto evaluate = [&]() {
    const TableState& personal = state[kPersonal];
    const TableState& health = state[kHealth];
    // Nested loops, with the single-table filter tested in the outer loop.
    for (const auto& [htid, hrow] : health) {
      if (!(hrow[static_cast<size_t>(disease)] == diabetic)) continue;
      const Value& hpid = hrow[static_cast<size_t>(health_pid)];
      if (hpid.is_null()) continue;
      for (const auto& [ptid, prow] : personal) {
        if (!(prow[static_cast<size_t>(personal_pid)] == hpid)) continue;
        std::vector<Value> values;
        for (const auto& [side, pos] : slots) {
          values.push_back((side == 0 ? prow : hrow)[static_cast<size_t>(pos)]);
        }
        facts->insert(FactKey({ptid, htid}, values));
      }
    }
  };

  apply_through(interval.start);
  evaluate();
  while (next < n && backlog.EventAt(next).timestamp <= interval.end) {
    if (apply_through(backlog.EventAt(next).timestamp)) evaluate();
  }
  return "";
}

std::string CheckAgainstOracle(const auditdb::audit::TargetView& view,
                               const auditdb::Backlog& backlog,
                               const auditdb::DatabaseView& live,
                               const auditdb::TimeInterval& interval,
                               size_t event_limit) {
  std::set<std::string> expected;
  std::string error = OracleFacts(backlog, live, interval, view.tables,
                                  view.columns, event_limit, &expected);
  if (!error.empty()) return error;
  std::set<std::string> got;
  for (const auto& fact : view.facts) {
    got.insert(FactKey(fact.tids, fact.values));
  }
  if (got.size() != view.facts.size()) {
    return "target view holds duplicate facts";
  }
  if (got != expected) {
    size_t missing = 0, extra = 0;
    for (const auto& key : expected) missing += got.count(key) == 0;
    for (const auto& key : got) extra += expected.count(key) == 0;
    return "target view differs from the history oracle: " +
           std::to_string(view.facts.size()) + " facts vs " +
           std::to_string(expected.size()) + " (" + std::to_string(missing) +
           " missing, " + std::to_string(extra) + " extra)";
  }
  return "";
}

}  // namespace perfbench
