/**
 * @file
 * Integrity-layer tests:
 *
 *  - the observation-only guarantee: enabling the full integrity layer
 *    must leave every simulation result bit-identical;
 *  - request lifetime auditor semantics (leaks, duplicates, double
 *    issues, starvation) in record and throw modes;
 *  - harness degradation: a failing workload yields a failed
 *    RunOutcome (optionally after reseeded retries) and a sweep
 *    reports it while completing every remaining workload.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "check/auditor.hh"
#include "check/integrity.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "sim/system.hh"
#include "trace/generator.hh"

namespace stfm
{
namespace
{

// --------------------------------------------------------------------
// Determinism: the integrity layer observes, never steers.
// --------------------------------------------------------------------

SimResult
runShared(const IntegrityConfig &integrity)
{
    SimConfig config = SimConfig::baseline(2);
    config.instructionBudget = 6000;
    config.warmupInstructions = 2000;
    config.scheduler.kind = PolicyKind::Stfm;
    config.memory.controller.refreshEnabled = true;
    config.memory.controller.integrity = integrity;

    AddressMapping mapping(config.memory.channels,
                           config.memory.banksPerChannel,
                           config.memory.rowBytes, config.memory.lineBytes,
                           config.memory.rowsPerBank,
                           config.memory.xorBankMapping);
    TraceProfile heavy;
    heavy.mpki = 60;
    heavy.rowBufferHitRate = 0.9;
    TraceProfile light;
    light.mpki = 8;
    light.rowBufferHitRate = 0.3;
    light.dependentFraction = 1.0;

    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(std::make_unique<SyntheticTraceGenerator>(
        heavy, mapping, 0, 2, 91));
    traces.push_back(std::make_unique<SyntheticTraceGenerator>(
        light, mapping, 1, 2, 92));
    CmpSystem system(config, std::move(traces));
    return system.run();
}

TEST(IntegrityDeterminism, CheckerOnOffResultsAreBitIdentical)
{
    const SimResult off = runShared(IntegrityConfig{});
    const SimResult on = runShared(IntegrityConfig::full());

    EXPECT_EQ(off.totalCycles, on.totalCycles);
    EXPECT_EQ(off.hitCycleLimit, on.hitCycleLimit);
    ASSERT_EQ(off.threads.size(), on.threads.size());
    for (std::size_t t = 0; t < off.threads.size(); ++t) {
        const ThreadResult &a = off.threads[t];
        const ThreadResult &b = on.threads[t];
        EXPECT_EQ(a.instructions, b.instructions) << "thread " << t;
        EXPECT_EQ(a.cycles, b.cycles) << "thread " << t;
        EXPECT_EQ(a.memStallCycles, b.memStallCycles) << "thread " << t;
        EXPECT_EQ(a.l2Misses, b.l2Misses) << "thread " << t;
        EXPECT_EQ(a.dramReads, b.dramReads) << "thread " << t;
        EXPECT_EQ(a.dramWrites, b.dramWrites) << "thread " << t;
        EXPECT_EQ(a.rowHits, b.rowHits) << "thread " << t;
        EXPECT_EQ(a.rowClosed, b.rowClosed) << "thread " << t;
        EXPECT_EQ(a.rowConflicts, b.rowConflicts) << "thread " << t;
        // Bit-identical, not approximately equal.
        EXPECT_EQ(a.readLatencyMean, b.readLatencyMean) << "thread " << t;
        EXPECT_EQ(a.readLatencyP50, b.readLatencyP50) << "thread " << t;
        EXPECT_EQ(a.readLatencyP99, b.readLatencyP99) << "thread " << t;
        EXPECT_EQ(a.readLatencyMax, b.readLatencyMax) << "thread " << t;
    }
}

// --------------------------------------------------------------------
// Request lifetime auditor.
// --------------------------------------------------------------------

TEST(RequestAuditor, CleanLifecycleHasNoViolations)
{
    RequestAuditor auditor(0, 1000, /*throw_on_violation=*/false);
    auditor.onEnqueue(1, 0, 2, false, 10);
    auditor.onEnqueue(2, 1, 3, true, 11);
    auditor.onForward(3, 0, 2, 12); // Write-to-read forwarding.
    auditor.onIssue(1, 40);
    auditor.onIssue(2, 50);
    auditor.onComplete(1, 60);
    auditor.onComplete(2, 70);
    auditor.onComplete(3, 14);
    auditor.checkProgress(500);
    auditor.checkDrained(600);
    EXPECT_TRUE(auditor.violations().empty());
    EXPECT_EQ(auditor.accepted(), 3u);
    EXPECT_EQ(auditor.completed(), 3u);
    EXPECT_EQ(auditor.outstanding(), 0u);
}

TEST(RequestAuditor, FlagsLeakedRequestsAtDrain)
{
    RequestAuditor auditor(0, 1000, false);
    auditor.onEnqueue(1, 0, 0, false, 10);
    auditor.onEnqueue(2, 1, 1, false, 20);
    auditor.onIssue(1, 30);
    auditor.onComplete(1, 40);
    auditor.checkDrained(100);
    ASSERT_EQ(auditor.violations().size(), 1u);
    EXPECT_EQ(auditor.violations()[0].constraint, "leak");
    EXPECT_EQ(auditor.violations()[0].requestId, 2u);
    EXPECT_EQ(auditor.violations()[0].thread, 1u);
}

TEST(RequestAuditor, FlagsDuplicateIdAndDoubleIssue)
{
    RequestAuditor auditor(0, 1000, false);
    auditor.onEnqueue(7, 0, 0, false, 1);
    auditor.onEnqueue(7, 1, 1, false, 2);
    auditor.onIssue(7, 3);
    auditor.onIssue(7, 4);
    ASSERT_EQ(auditor.violations().size(), 2u);
    EXPECT_EQ(auditor.violations()[0].constraint, "duplicate-id");
    EXPECT_EQ(auditor.violations()[1].constraint, "double-issue");
}

TEST(RequestAuditor, FlagsUnknownIssueAndCompletionAnomalies)
{
    RequestAuditor auditor(0, 1000, false);
    auditor.onIssue(9, 1); // Never enqueued.
    auditor.onEnqueue(10, 0, 0, false, 2);
    auditor.onComplete(10, 3); // Completed without issuing.
    auditor.onComplete(10, 4); // And again, after it left the tracker.
    ASSERT_EQ(auditor.violations().size(), 3u);
    EXPECT_EQ(auditor.violations()[0].constraint, "issue-unknown");
    EXPECT_EQ(auditor.violations()[1].constraint, "complete-unissued");
    EXPECT_EQ(auditor.violations()[2].constraint, "duplicate-completion");
}

TEST(RequestAuditor, FlagsStarvationOnlyForUnissuedRequests)
{
    RequestAuditor auditor(0, /*starvation_bound=*/100, false);
    auditor.onEnqueue(1, 2, 5, false, 0);
    auditor.checkProgress(100); // At the bound: still fine.
    EXPECT_TRUE(auditor.violations().empty());
    auditor.checkProgress(101);
    ASSERT_EQ(auditor.violations().size(), 1u);
    EXPECT_EQ(auditor.violations()[0].constraint, "starvation");
    EXPECT_EQ(auditor.violations()[0].thread, 2u);

    // Once in service, a request is bounded by DRAM timing and is no
    // longer the starvation monitor's business.
    RequestAuditor served(0, 100, false);
    served.onEnqueue(1, 2, 5, false, 0);
    served.onIssue(1, 50);
    served.checkProgress(500);
    EXPECT_TRUE(served.violations().empty());
}

TEST(RequestAuditor, ThrowModeRaisesCheckFailureOnLeak)
{
    RequestAuditor auditor(1, 1000, /*throw_on_violation=*/true);
    auditor.onEnqueue(42, 3, 6, true, 10);
    try {
        auditor.checkDrained(99);
        FAIL() << "leak not thrown";
    } catch (const CheckFailure &e) {
        EXPECT_EQ(e.constraint, "leak");
        EXPECT_EQ(e.channel, 1u);
        EXPECT_EQ(e.requestId, 42u);
        EXPECT_EQ(e.thread, 3u);
    }
}

// --------------------------------------------------------------------
// Harness degradation: failures are isolated, reported, and retried.
// --------------------------------------------------------------------

TEST(HarnessDegradation, FailedRunIsIsolatedNotFatal)
{
    SimConfig base = SimConfig::baseline(2);
    base.instructionBudget = 3000;
    base.warmupInstructions = 1000;
    ExperimentRunner runner(base);

    const RunOutcome outcome =
        runner.run({"gcc", "no-such-benchmark"},
                   ExperimentRunner::paperSchedulers()[0]);
    EXPECT_TRUE(outcome.failed);
    EXPECT_NE(outcome.error.find("no-such-benchmark"), std::string::npos);
    EXPECT_EQ(outcome.attempts, 1u);
    EXPECT_FALSE(outcome.policyName.empty());

    // The same runner still completes good workloads afterwards.
    const RunOutcome good = runner.run(
        {"povray", "sjeng"}, ExperimentRunner::paperSchedulers()[0]);
    EXPECT_FALSE(good.failed);
    EXPECT_EQ(good.attempts, 1u);
    EXPECT_GT(good.metrics.unfairness, 0.0);
}

TEST(HarnessDegradation, RetriesConsumeAllAttemptsOnPersistentFailure)
{
    SimConfig base = SimConfig::baseline(2);
    base.instructionBudget = 3000;
    base.warmupInstructions = 1000;
    ExperimentRunner runner(base);
    EXPECT_EQ(runner.maxAttempts(), 1u);
    runner.setMaxAttempts(3);

    const RunOutcome outcome =
        runner.run({"gcc", "no-such-benchmark"},
                   ExperimentRunner::paperSchedulers()[0]);
    EXPECT_TRUE(outcome.failed);
    EXPECT_EQ(outcome.attempts, 3u);
}

TEST(HarnessDegradation, SweepCompletesAroundAFailingWorkload)
{
    // One deliberately failing workload among good ones: the sweep
    // must finish every other workload, mark the bad one FAIL, list
    // the error, and exclude it from the aggregates.
    setenv("STFM_INSTRUCTIONS", "3000", 1);
    const std::vector<Workload> workload_list{
        {"povray", "sjeng"},
        {"gcc", "no-such-benchmark"},
        {"namd", "tonto"},
    };
    ExperimentSpec spec;
    spec.name = spec.title = "Degradation sweep";
    spec.workloads = workload_list;
    spec.budget = 3000;
    spec.labelRows = 3;
    const ExperimentResult result = runExperiment(spec);
    unsetenv("STFM_INSTRUCTIONS");
    std::ostringstream os;
    printExperiment(result, os, ReportStyle::Sweep);
    const std::vector<SweepResult> &results = result.aggregates;

    ASSERT_EQ(results.size(), 5u);
    for (const SweepResult &r : results) {
        EXPECT_EQ(r.failures, 1u) << r.policyName;
        // The two good workloads still aggregate.
        EXPECT_EQ(r.summary.unfairness.count(), 2u) << r.policyName;
        EXPECT_GT(r.summary.unfairness.value(), 0.0) << r.policyName;
    }

    const std::string report = os.str();
    EXPECT_NE(report.find("FAIL"), std::string::npos);
    EXPECT_NE(report.find("no-such-benchmark"), std::string::npos);
    EXPECT_NE(report.find("Failed runs"), std::string::npos);
    EXPECT_NE(report.find("povray+sjeng"), std::string::npos);
    EXPECT_NE(report.find("namd+tonto"), std::string::npos);
}

/** Occurrences of @p needle in @p text. */
std::size_t
countOf(const std::string &text, const std::string &needle)
{
    std::size_t count = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
        ++count;
    return count;
}

RunOutcome
goodOutcome(const char *policy, std::vector<double> slowdowns,
            double unfairness)
{
    RunOutcome o;
    o.policyName = policy;
    o.metrics.slowdowns = std::move(slowdowns);
    o.metrics.unfairness = unfairness;
    o.metrics.weightedSpeedup = 1.5;
    o.metrics.hmeanSpeedup = 0.5;
    o.metrics.sumOfIpcs = 1.0;
    return o;
}

RunOutcome
failedOutcome(const char *policy)
{
    RunOutcome o;
    o.policyName = policy;
    o.failed = true;
    o.error = "injected failure";
    return o;
}

/** @p figure's result shell over its own spec's first @p rows rows. */
ExperimentResult
figureResult(const char *figure, std::size_t rows,
             std::vector<RunOutcome> outcomes)
{
    ExperimentResult result;
    result.spec = findFigure(figure)->spec(/*full=*/false);
    result.workloads.assign(result.spec.workloads.begin(),
                            result.spec.workloads.begin() + rows);
    result.schedulers = result.spec.schedulers;
    result.outcomes = std::move(outcomes);
    aggregateOutcomes(result);
    return result;
}

std::string
render(const char *figure, const ExperimentResult &result)
{
    std::ostringstream os;
    findFigure(figure)->report(result, os);
    return os.str();
}

TEST(HarnessDegradation, FigureRenderersPrintFailCellsForFailedRuns)
{
    // A failed RunOutcome has no slowdowns: the figure renderers must
    // print FAIL cells for it rather than index them, and leave it
    // out of the GMEANs.
    ExperimentResult fig05 = figureResult(
        "fig05", 2,
        {goodOutcome("FR-FCFS", {2.0, 1.0}, 2.0),
         goodOutcome("STFM", {1.5, 1.2}, 1.25),
         goodOutcome("FR-FCFS", {4.0, 1.0}, 4.0),
         failedOutcome("STFM")});
    std::string report = render("fig05", fig05);
    EXPECT_EQ(countOf(report, "FAIL"), 3u) << report;
    EXPECT_NE(report.find("GMEAN unfairness:      FR-FCFS 2.83  STFM "
                          "1.25\n"),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("max STFM unfairness:   1.25\n"),
              std::string::npos)
        << report;

    // With every STFM run failed there is nothing to average.
    fig05.outcomes[1] = failedOutcome("STFM");
    aggregateOutcomes(fig05);
    report = render("fig05", fig05);
    EXPECT_EQ(countOf(report, "FAIL"), 6u) << report;
    EXPECT_NE(report.find("FR-FCFS 2.83  STFM n/a\n"), std::string::npos)
        << report;
    EXPECT_NE(report.find("max STFM unfairness:   n/a\n"),
              std::string::npos)
        << report;

    // fig14: entry 2 (STFM under the first weight assignment) failed.
    const std::vector<double> slowdowns{1.0, 2.0, 3.0, 4.0};
    const ExperimentResult fig14 = figureResult(
        "fig14", 1,
        {goodOutcome("FR-FCFS", slowdowns, 4.0),
         goodOutcome("NFQ", slowdowns, 4.0), failedOutcome("STFM"),
         goodOutcome("NFQ", slowdowns, 4.0),
         goodOutcome("STFM", slowdowns, 4.0)});
    report = render("fig14", fig14);
    // One row of FAIL cells: four threads plus the unfairness column.
    EXPECT_EQ(countOf(report, "FAIL"), 5u) << report;
    EXPECT_EQ(countOf(report, "weights:"), 2u) << report;
}

TEST(HarnessDegradation, StfmCheckEnvironmentEnablesIntegrity)
{
    SimConfig base = SimConfig::baseline(2);
    EXPECT_FALSE(base.memory.controller.integrity.enabled());

    setenv("STFM_CHECK", "1", 1);
    ExperimentRunner on(base);
    unsetenv("STFM_CHECK");
    EXPECT_TRUE(on.base().memory.controller.integrity.protocolCheck);
    EXPECT_TRUE(on.base().memory.controller.integrity.watchdog);

    setenv("STFM_CHECK", "0", 1);
    ExperimentRunner off(base);
    unsetenv("STFM_CHECK");
    EXPECT_FALSE(off.base().memory.controller.integrity.enabled());
}

} // namespace
} // namespace stfm
