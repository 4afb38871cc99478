#ifndef AUDITDB_PERFBENCH_INPUTS_H_
#define AUDITDB_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/workload/generator.h"
#include "src/workload/hospital.h"

namespace perfbench {

/// Deterministic 64-bit generator (SplitMix64) for the benchmark's own
/// draws, so inputs depend on the seed alone and not on the standard
/// library's distributions.
uint64_t NextRandom(uint64_t* state);

/// `count` queries from auditdb's generator (workload::GenerateQueryText)
/// in a fixed mix: every query falls in a class given by its FROM tables
/// and whether it projects a sensitive column, and each class gets the
/// share the generator's own probabilities give it (rounded), instead of
/// a binomial draw. Queries are drawn from successive seeds derived from
/// `seed`, a class taking them until its share is full, then shuffled.
/// A run's cost then depends much less on how many joins or sensitive
/// queries one seed happened to draw. Fills `error` and returns an empty
/// vector if the generator never yields some class.
std::vector<std::string> StratifiedQueries(
    uint64_t seed, size_t count, const auditdb::workload::WorkloadConfig& config,
    const auditdb::workload::HospitalConfig& hospital, std::string* error);

}  // namespace perfbench

#endif  // AUDITDB_PERFBENCH_INPUTS_H_
