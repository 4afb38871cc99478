#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

namespace {

constexpr int kTableSets = 5;
const char* const kTableSetNames[kTableSets] = {
    "P-Personal", "P-Health", "P-Employ", "P-Personal, P-Health",
    "P-Personal, P-Health, P-Employ"};
/// Share of join queries that also join P-Employ in GenerateQueryText.
constexpr double kThreeWayShare = 0.4;

/// Class of a generated query: 2 * (its FROM set) + (projects disease or
/// salary); -1 for a shape the generator is not known to produce.
int QueryClass(const std::string& sql) {
  size_t from = sql.find(" FROM ");
  size_t where = sql.find(" WHERE ");
  if (from == std::string::npos || where == std::string::npos ||
      where < from) {
    return -1;
  }
  std::string select = sql.substr(0, from);
  std::string tables = sql.substr(from + 6, where - from - 6);
  bool sensitive = select.find("disease") != std::string::npos ||
                   select.find("salary") != std::string::npos;
  for (int t = 0; t < kTableSets; ++t) {
    if (tables == kTableSetNames[t]) return 2 * t + (sensitive ? 1 : 0);
  }
  return -1;
}

/// Expected share of each class under the generator's probabilities: a
/// single-table query picks its table uniformly, except that sensitive
/// ones never read P-Personal; a join adds P-Employ with kThreeWayShare.
std::vector<double> ClassShares(const auditdb::workload::WorkloadConfig& c) {
  const double single = 1.0 - c.join_fraction;
  const double s = c.sensitive_fraction;
  std::vector<double> share(2 * kTableSets, 0.0);
  for (int t = 0; t < 3; ++t) share[2 * t] = single * (1 - s) / 3;
  share[2 * 1 + 1] = single * s / 2;
  share[2 * 2 + 1] = single * s / 2;
  share[2 * 3] = c.join_fraction * (1 - kThreeWayShare) * (1 - s);
  share[2 * 3 + 1] = c.join_fraction * (1 - kThreeWayShare) * s;
  share[2 * 4] = c.join_fraction * kThreeWayShare * (1 - s);
  share[2 * 4 + 1] = c.join_fraction * kThreeWayShare * s;
  return share;
}

/// Largest-remainder rounding of count * share.
std::vector<size_t> Quotas(const std::vector<double>& share, size_t count) {
  std::vector<size_t> quota(share.size());
  std::vector<std::pair<double, size_t>> remainders;
  size_t assigned = 0;
  for (size_t i = 0; i < share.size(); ++i) {
    double exact = share[i] * static_cast<double>(count);
    quota[i] = static_cast<size_t>(std::floor(exact));
    assigned += quota[i];
    remainders.emplace_back(-(exact - std::floor(exact)), i);
  }
  std::sort(remainders.begin(), remainders.end());
  for (size_t i = 0; assigned < count && i < remainders.size(); ++i) {
    ++quota[remainders[i].second];
    ++assigned;
  }
  return quota;
}

}  // namespace

uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<std::string> StratifiedQueries(
    uint64_t seed, size_t count,
    const auditdb::workload::WorkloadConfig& config,
    const auditdb::workload::HospitalConfig& hospital, std::string* error) {
  std::vector<size_t> quota = Quotas(ClassShares(config), count);
  std::vector<std::string> out;
  uint64_t state = seed;
  // Rare classes fill last; a class the generator cannot produce would
  // never fill, so the draw is capped.
  for (size_t draws = 0; out.size() < count; ++draws) {
    if (draws > 1000 * count + 1000) {
      *error = "the query generator does not produce the expected classes";
      return {};
    }
    std::string sql = auditdb::workload::GenerateQueryText(
        NextRandom(&state), config, hospital);
    int c = QueryClass(sql);
    if (c < 0 || quota[static_cast<size_t>(c)] == 0) continue;
    --quota[static_cast<size_t>(c)];
    out.push_back(std::move(sql));
  }
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[NextRandom(&state) % i]);
  }
  return out;
}

}  // namespace perfbench
