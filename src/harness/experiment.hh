/**
 * @file
 * The generalized experiment engine: executes an ExperimentSpec on
 * ExperimentRunner::runMany and renders the outcome as the classic
 * human-readable report and/or machine-readable JSON.
 *
 * The engine is the single execution path behind the figure registry
 * and the stfm CLI. Resolution is strictly layered:
 *
 *   SimConfig::baseline(cores of the first workload)
 *     + spec "config" overrides (sim/config_io applyJson)
 *     + spec "budget"
 *     + environment overrides (EnvOverrides)
 *     -> validateConfig() -> run.
 *
 * Job order is workload-major, repeat-mid, scheduler-minor; runMany
 * writes outcomes by job index and GeoMean accumulation follows job
 * order, so aggregates do not depend on the pool width.
 */

#ifndef STFM_HARNESS_EXPERIMENT_HH
#define STFM_HARNESS_EXPERIMENT_HH

#include <iostream>
#include <string>
#include <vector>

#include "harness/env_overrides.hh"
#include "harness/runner.hh"
#include "harness/spec.hh"
#include "stats/summary.hh"

namespace stfm
{

/** Aggregates of one scheduler over an experiment's rows. */
struct SweepResult
{
    std::string policyName;
    SweepSummary summary;
    /** Rows whose run failed under this scheduler. */
    unsigned failures = 0;
};

/** A fully resolved + executed experiment. */
struct ExperimentResult
{
    /** The spec as given (echoed into results files). */
    ExperimentSpec spec;
    /** Resolved workload list: explicit workloads, then samples. */
    std::vector<Workload> workloads;
    /** Resolved scheduler list (spec's, or the five paper policies). */
    std::vector<SchedulerEntry> schedulers;
    /** Fully resolved base configuration every run derived from. */
    SimConfig base;
    /** Environment overrides active during the run. */
    EnvOverrides env;
    /**
     * One outcome per (row, scheduler): row r, scheduler s is
     * outcomes[r * schedulers.size() + s]. A row is one (workload,
     * repetition) pairing: row = workloadIndex * repeat + repetition.
     */
    std::vector<RunOutcome> outcomes;
    /** Per-scheduler aggregates over all rows (failures excluded). */
    std::vector<SweepResult> aggregates;

    std::size_t rows() const { return workloads.size() * spec.repeat; }

    const Workload &
    rowWorkload(std::size_t row) const
    {
        return workloads[row / spec.repeat];
    }

    unsigned
    rowRepetition(std::size_t row) const
    {
        return static_cast<unsigned>(row % spec.repeat);
    }

    const RunOutcome &
    outcome(std::size_t row, std::size_t scheduler) const
    {
        return outcomes[row * schedulers.size() + scheduler];
    }
};

/** Report rendering style. */
enum class ReportStyle
{
    /** Sweep report for > 1 row, case study for a single row. */
    Auto,
    /** Per-workload unfairness rows + GMEAN tables (Figures 9/11/12). */
    Sweep,
    /** Per-thread slowdown + throughput tables (Figures 6/7/8/10/13). */
    CaseStudy,
};

/**
 * The fully resolved execution plan of a spec: everything derived and
 * validated, nothing yet run. The plan is a pure function of the spec
 * plus the captured environment, so two processes resolving the same
 * spec under the same environment derive byte-identical job grids —
 * the contract the fleet tier (src/fleet/) builds on: a supervisor
 * ships only a job *range* and the worker re-derives the grid.
 */
struct ExperimentPlan
{
    ExperimentSpec spec;
    std::vector<Workload> workloads;
    std::vector<SchedulerEntry> schedulers;
    SimConfig base;
    EnvOverrides env;
    /** Workload-major, repeat-mid, scheduler-minor (see above). */
    std::vector<RunJob> jobs;

    std::size_t rows() const { return workloads.size() * spec.repeat; }
    /** Jobs per result row (= scheduler count). */
    std::size_t jobsPerRow() const { return schedulers.size(); }
};

/**
 * Resolve and validate @p spec into its execution plan. @throws
 * SimError on spec-level problems (unknown workloads, invalid
 * configuration, scheduler/core-count mismatches).
 */
ExperimentPlan planExperiment(const ExperimentSpec &spec);

/** An ExperimentResult shell for @p plan (outcomes still empty). */
ExperimentResult resultFromPlan(const ExperimentPlan &plan);

/**
 * Configure @p runner (constructed over plan.base) exactly as
 * runExperiment would: spec attempts and inline benchmarks.
 */
void configureRunner(ExperimentRunner &runner,
                     const ExperimentPlan &plan);

/**
 * (Re)compute @p result.aggregates from its outcomes, in job order
 * with failures excluded, shared by the in-process and fleet merge
 * paths.
 */
void aggregateOutcomes(ExperimentResult &result);

/** Expand the spec's workload list (explicit + sampled). */
std::vector<Workload> resolveWorkloads(const ExperimentSpec &spec);

/**
 * Resolve the spec's base configuration (baseline + overrides + budget
 * + @p env) without running anything. @throws SimError (including
 * every validateConfig problem) on an invalid configuration.
 */
SimConfig resolveConfig(const ExperimentSpec &spec,
                        const EnvOverrides &env);

/**
 * Execute @p spec: resolve, validate, fan the (workload x repeat x
 * scheduler) grid out over the worker pool, and aggregate. Run-level
 * failures stay contained in their RunOutcome; spec-level problems
 * (unknown workload names, invalid configuration) throw SimError.
 */
ExperimentResult runExperiment(const ExperimentSpec &spec);

/** Render the human-readable report. */
void printExperiment(const ExperimentResult &result,
                     std::ostream &os = std::cout,
                     ReportStyle style = ReportStyle::Auto);

/**
 * The machine-readable results document ("stfm-results-v1"): spec
 * echo, active env overrides, the full resolved configuration, every
 * run's metrics and per-thread stats, and the per-scheduler aggregates.
 */
Json resultsJson(const ExperimentResult &result);

/** Write resultsJson pretty-printed to @p path. @throws SimError. */
void writeResultsJson(const ExperimentResult &result,
                      const std::string &path);

/**
 * Write every run's observability artifacts (telemetry documents,
 * Chrome traces) to the paths the resolved configuration names,
 * defaulting the telemetry path to "<name>_telemetry.json". Multi-run
 * experiments tag each path with workload + scheduler. Returns the
 * paths written (empty when observability was off). @throws SimError
 * on I/O failure.
 */
std::vector<std::string> writeObsArtifacts(const ExperimentResult &result);

} // namespace stfm

#endif // STFM_HARNESS_EXPERIMENT_HH
