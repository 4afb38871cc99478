#ifndef AUDITDB_PERFBENCH_FLAT_JSON_H_
#define AUDITDB_PERFBENCH_FLAT_JSON_H_

#include <map>
#include <string>

namespace perfbench {

/// Every number in a JSON document, keyed by its path with '/' between
/// object keys (metric names contain dots), e.g.
/// "service/pool.job_wait_micros/sum_micros". Strings, booleans and
/// nulls are skipped. Returns false on malformed input.
bool FlattenJsonNumbers(const std::string& json,
                        std::map<std::string, double>* out);

/// out[key] of a flattened document, or 0 when absent.
double Get(const std::map<std::string, double>& flat, const std::string& key);

}  // namespace perfbench

#endif  // AUDITDB_PERFBENCH_FLAT_JSON_H_
