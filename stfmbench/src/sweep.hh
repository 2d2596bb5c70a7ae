/**
 * @file
 * Set-up, the timed sweep, the traced sweep and the correctness checks.
 *
 * Every sweep goes through the public harness API: set-up resolves the
 * spec with planExperiment and fills the alone-baseline cache through
 * ExperimentRunner::aloneResult; the untraced sweep is
 * ExperimentRunner::runMany at the spec's worker count (what
 * runExperiment does), timed per run through the runner's attempt
 * hook. The traced sweep builds the same systems itself on a pool of
 * the same width, so it can hand CmpSystem trace sources that time
 * themselves and read each layer's counters once the run ends.
 */

#ifndef STFMBENCH_SWEEP_HH
#define STFMBENCH_SWEEP_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "stats/histogram.hh"
#include "workloads.hh"

namespace stfmbench
{

/** Spec load, plan, runner and alone-baseline prewarm. */
struct Setup
{
    stfm::ExperimentPlan plan;
    std::unique_ptr<stfm::ExperimentRunner> runner;
    /** Distinct alone baselines simulated by the prewarm. */
    unsigned aloneRuns = 0;
    /** Host seconds of the prewarm alone. */
    double aloneSeconds = 0;
    /** Host seconds from spec load to the end of the prewarm. */
    double seconds = 0;
};

Setup prepare(const BenchWorkload &workload, std::uint64_t seed,
              std::uint64_t budget);

/** One untraced pass over the plan's jobs. */
struct Sweep
{
    /** Host seconds of the runMany call. */
    double seconds = 0;
    /** Host seconds of each run, in no particular order. */
    std::vector<double> runSeconds;
    std::vector<stfm::RunOutcome> outcomes;
};

Sweep runSweep(Setup &setup);

/** What one traced run measured, beside its result. */
struct TracedRun
{
    stfm::SimResult result;
    /** Construction or run error (the run then has no result). */
    std::string error;
    double simSeconds = 0;       ///< Host seconds in CmpSystem::run.
    std::uint64_t nextCalls = 0; ///< TraceSource::next calls.
    double nextSeconds = 0;      ///< Host seconds inside them.
    std::uint64_t dramCycles = 0; ///< DRAM cycles the run advanced.
    unsigned channels = 0;
    std::uint64_t channelReads = 0;
    std::uint64_t activates = 0;
    std::uint64_t busBusyCycles = 0;
    stfm::LatencyHistogram readLatency; ///< Merged over threads.
    std::uint64_t fairnessToggles = 0;  ///< STFM runs only.
    std::uint64_t hotGrants = 0;        ///< STFM runs only.
};

struct TracedSweep
{
    double seconds = 0;
    std::vector<TracedRun> runs; ///< Job order.
};

TracedSweep runTracedSweep(const Setup &setup);

/** Every field of the two results is equal. */
bool sameResult(const stfm::SimResult &a, const stfm::SimResult &b);

/** Same result and the same metrics, bit for bit. */
bool sameOutcome(const stfm::RunOutcome &a, const stfm::RunOutcome &b);

/** Why @p outcome does not count as a good run; empty when it does. */
std::string runProblem(const stfm::RunOutcome &outcome);

/**
 * The fixed subset re-run on the reference path: scheduler s of the
 * plan on row s * rows / schedulers, so every scheduler is covered
 * once and the rows spread over the sweep.
 */
std::vector<std::size_t> referenceSubset(const stfm::ExperimentPlan &plan);

/**
 * Re-run the reference subset with fast-forwarding off, on a fresh
 * runner (so the alone baselines are recomputed on that path too), and
 * compare with @p sweep. Returns one message per mismatch.
 */
std::vector<std::string> referenceCheck(const Setup &setup,
                                        const Sweep &sweep);

/** Index of the STFM entry in the plan's scheduler list. */
std::size_t stfmIndex(const stfm::ExperimentPlan &plan);

} // namespace stfmbench

#endif // STFMBENCH_SWEEP_HH
