/**
 * @file
 * The benchmark's named workloads and how a seed turns into the spec
 * each one runs.
 */

#ifndef STFMBENCH_WORKLOADS_HH
#define STFMBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/spec.hh"

namespace stfmbench
{

struct BenchWorkload
{
    std::string name;
    /** Worker threads the sweep runs on. */
    unsigned workers = 1;
};

/** fig09, fig11-8core and low16, in that order. */
const std::vector<BenchWorkload> &benchWorkloads();

/** Lookup by name; nullptr when unknown. */
const BenchWorkload *findBenchWorkload(const std::string &name);

/**
 * The spec @p workload runs under seed @p seed. The mixes are always
 * the checked-in ones; the seed picks the trace-RNG salts, so seed 0
 * is the checked-in sweep (canonical streams) and any other seed runs
 * the same mixes on other instruction and address streams. Resampling
 * the mixes instead would change the simulated work by up to 18 %
 * from seed to seed (fig09), which no bound on host time could absorb.
 * @p budget, when nonzero, replaces the per-thread instruction budget
 * (smoke runs). fig09 reads `specs/fig09.json` relative to the working
 * directory, which makes the spec load part of set-up time.
 * @throws stfm::SimError when the spec cannot be read or parsed.
 */
stfm::ExperimentSpec buildSpec(const BenchWorkload &workload,
                               std::uint64_t seed, std::uint64_t budget);

} // namespace stfmbench

#endif // STFMBENCH_WORKLOADS_HH
