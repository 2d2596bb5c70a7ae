/**
 * @file
 * Tests for the fleet reporting tier (src/report/): distribution
 * blocks against a sorted-vector oracle, the ReportBuilder rollup
 * semantics (grouping, SLO counting, order independence), the
 * regression diff gate, and the HTML renderer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "common/logging.hh"
#include "harness/runner.hh"
#include "obs/telemetry.hh"
#include "report/diff.hh"
#include "report/html.hh"
#include "report/rollup.hh"

namespace stfm
{
namespace report
{
namespace
{

/** Nearest-rank quantile against a raw sample vector: the value at
 *  rank ceil(p * n), 1-based, ascending — the stfm-report-v1
 *  percentile definition distributionJson must match exactly. */
double
oracleQuantile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto n = static_cast<double>(values.size());
    auto rank = static_cast<std::size_t>(std::ceil(p * n));
    if (rank == 0)
        rank = 1;
    return values[rank - 1];
}

double
field(const Json &dist, const char *name)
{
    return dist.at(name, "distribution").asDouble(name);
}

// Distribution blocks (distributionJson) ----------------------------

TEST(MetricSketch, EmptyIsZero)
{
    const Json d = distributionJson({});
    EXPECT_EQ(d.at("count", "distribution").asUint(), 0u);
    for (const char *name : {"min", "max", "mean", "p50", "p95", "p99"})
        EXPECT_DOUBLE_EQ(field(d, name), 0.0) << name;
    EXPECT_EQ(d.at("samples", "distribution").size(), 0u);
}

TEST(MetricSketch, SingleSample)
{
    const Json d = distributionJson({1.37});
    EXPECT_EQ(d.at("count", "distribution").asUint(), 1u);
    // Every statistic of one sample is that sample.
    for (const char *name : {"min", "max", "mean", "p50", "p95", "p99"})
        EXPECT_DOUBLE_EQ(field(d, name), 1.37) << name;
}

TEST(MetricSketch, ExactQuantilesMatchSortedOracle)
{
    std::mt19937 rng(20070712); // MICRO 2007 submission-ish seed.
    std::lognormal_distribution<double> dist(0.3, 0.6);
    std::vector<double> values;
    for (int i = 0; i < 1000; ++i)
        values.push_back(dist(rng));
    const Json d = distributionJson(values);
    EXPECT_EQ(d.at("count", "distribution").asUint(), 1000u);
    EXPECT_DOUBLE_EQ(field(d, "p50"), oracleQuantile(values, 0.5));
    EXPECT_DOUBLE_EQ(field(d, "p95"), oracleQuantile(values, 0.95));
    EXPECT_DOUBLE_EQ(field(d, "p99"), oracleQuantile(values, 0.99));
    EXPECT_DOUBLE_EQ(field(d, "min"),
                     *std::min_element(values.begin(), values.end()));
    EXPECT_DOUBLE_EQ(field(d, "max"),
                     *std::max_element(values.begin(), values.end()));
    // The mean is summed in ascending order, whatever the fold order.
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    double sum = 0.0;
    for (const double v : sorted)
        sum += v;
    EXPECT_EQ(field(d, "mean"), sum / 1000.0);
    std::reverse(values.begin(), values.end());
    EXPECT_EQ(distributionJson(values).dump(), d.dump());
}

TEST(MetricSketch, SerializationIsCanonicallySorted)
{
    const Json d = distributionJson({5.0, 1.0, 3.0});
    const Json &samples = d.at("samples", "distribution");
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_DOUBLE_EQ(samples.at(std::size_t{0}).asDouble(), 1.0);
    EXPECT_DOUBLE_EQ(samples.at(std::size_t{1}).asDouble(), 3.0);
    EXPECT_DOUBLE_EQ(samples.at(std::size_t{2}).asDouble(), 5.0);
}

// Latency-histogram serialization (telemetry <-> report fold) -------

TEST(ReportLatencyJson, HistogramRoundTripsThroughJson)
{
    LatencyHistogram h;
    std::mt19937 rng(5);
    std::uniform_int_distribution<std::uint64_t> dist(1, 4000);
    for (int i = 0; i < 500; ++i)
        h.add(dist(rng));

    const LatencyHistogram back =
        latencyHistogramFromJson(latencyHistogramToJson(h), "test");
    EXPECT_EQ(back.count(), h.count());
    EXPECT_EQ(back.min(), h.min());
    EXPECT_EQ(back.max(), h.max());
    EXPECT_NEAR(back.mean(), h.mean(), 0.5);
    for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i)
        EXPECT_EQ(back.bucket(i), h.bucket(i)) << "bucket " << i;
    EXPECT_EQ(back.quantile(0.99), h.quantile(0.99));
}

TEST(ReportLatencyJson, RejectsInconsistentBucketSum)
{
    LatencyHistogram h;
    h.add(10);
    h.add(20);
    Json doc = latencyHistogramToJson(h);
    doc.set("count", Json(std::int64_t{99})); // != bucket sum
    EXPECT_THROW(latencyHistogramFromJson(doc, "test"), SimError);
}

// ReportBuilder -----------------------------------------------------

RunOutcome
makeOutcome(double unfairness, std::vector<double> slowdowns,
            double weighted_speedup = 1.5)
{
    RunOutcome outcome;
    outcome.metrics.unfairness = unfairness;
    outcome.metrics.slowdowns = std::move(slowdowns);
    outcome.metrics.weightedSpeedup = weighted_speedup;
    return outcome;
}

RunOutcome
makeFailedOutcome()
{
    RunOutcome outcome;
    outcome.failed = true;
    outcome.error = "injected";
    return outcome;
}

TEST(ReportBuilder, GroupsBySchedulerAndDeviceWithSuffixStripping)
{
    ReportBuilder builder("unit");
    // The cross-device plan labels schedulers "NAME@DEVICE"; the group
    // key must strip the suffix when it names the run's device.
    builder.addOutcome("STFM@DDR4-2400", "DDR4-2400", "mix1",
                       makeOutcome(1.2, {1.1, 1.2}), 0);
    builder.addOutcome("STFM@DDR4-2400", "DDR4-2400", "mix2",
                       makeOutcome(1.4, {1.3, 1.4}), 0);
    builder.addOutcome("FR-FCFS@DDR4-2400", "DDR4-2400", "mix1",
                       makeOutcome(2.6, {1.0, 2.6}), 1);

    const Json doc = builder.toJson();
    EXPECT_EQ(doc.at("schema", "report").asString(), "stfm-report-v1");
    EXPECT_EQ(doc.at("name", "report").asString(), "unit");
    const Json &totals = doc.at("totals", "report");
    EXPECT_EQ(totals.at("runs", "totals").asUint(), 3u);
    EXPECT_EQ(totals.at("groups", "totals").asUint(), 2u);
    EXPECT_EQ(totals.at("schedulers", "totals").asUint(), 2u);
    EXPECT_EQ(totals.at("devices", "totals").asUint(), 1u);
    EXPECT_EQ(totals.at("workloads", "totals").asUint(), 2u);

    const Json &groups = doc.at("groups", "report");
    ASSERT_EQ(groups.size(), 2u);
    // Order hints (plan scheduler index) fix serialization order.
    EXPECT_EQ(groups.at(std::size_t{0}).at("scheduler", "g").asString(),
              "STFM");
    EXPECT_EQ(groups.at(std::size_t{1}).at("scheduler", "g").asString(),
              "FR-FCFS");
    EXPECT_EQ(groups.at(std::size_t{0}).at("device", "g").asString(),
              "DDR4-2400");
    EXPECT_EQ(groups.at(std::size_t{0}).at("runs", "g").asUint(), 2u);

    const Json &unf =
        groups.at(std::size_t{0}).at("unfairness", "g");
    EXPECT_EQ(unf.at("count", "d").asUint(), 2u);
    EXPECT_DOUBLE_EQ(unf.at("max", "d").asDouble(), 1.4);
}

TEST(ReportBuilder, CountsSloViolationsAgainstThresholds)
{
    SloConfig slo;
    slo.unfairness = 2.0;
    slo.slowdown = 4.0;
    ReportBuilder builder("slo", slo);
    // One fair run, one unfair run; the unfair one also has two
    // threads past the slowdown SLO.
    builder.addOutcome("STFM", "", "a", makeOutcome(1.1, {1.0, 1.2}), 0);
    builder.addOutcome("STFM", "", "b",
                       makeOutcome(3.0, {1.0, 4.5, 5.0}), 0);

    const Json doc = builder.toJson();
    const Json &viol =
        doc.at("totals", "report").at("sloViolations", "totals");
    EXPECT_EQ(viol.at("unfairness", "v").asUint(), 1u);
    EXPECT_EQ(viol.at("slowdown", "v").asUint(), 2u);
    const Json &slo_doc = doc.at("slo", "report");
    EXPECT_DOUBLE_EQ(slo_doc.at("unfairness", "slo").asDouble(), 2.0);
    EXPECT_DOUBLE_EQ(slo_doc.at("slowdown", "slo").asDouble(), 4.0);
}

TEST(ReportBuilder, FailedRunsCountedButExcludedFromDistributions)
{
    ReportBuilder builder("failures");
    builder.addOutcome("STFM", "", "w", makeOutcome(1.3, {1.3}), 0);
    builder.addOutcome("STFM", "", "w", makeFailedOutcome(), 0);

    const Json doc = builder.toJson();
    EXPECT_EQ(doc.at("totals", "report").at("runs", "t").asUint(), 2u);
    EXPECT_EQ(doc.at("totals", "report").at("failed", "t").asUint(), 1u);
    const Json &group = doc.at("groups", "report").at(std::size_t{0});
    EXPECT_EQ(group.at("runs", "g").asUint(), 2u);
    EXPECT_EQ(group.at("failed", "g").asUint(), 1u);
    // Only the successful run's metrics fold into the distribution.
    EXPECT_EQ(group.at("unfairness", "g").at("count", "d").asUint(), 1u);
}

TEST(ReportBuilder, SerializationIsFoldOrderIndependent)
{
    const auto fold = [](const std::vector<int> &order) {
        ReportBuilder builder("order");
        const std::vector<std::tuple<const char *, const char *, double>>
            runs = {{"STFM", "alpha", 1.1},
                    {"STFM", "beta", 1.3},
                    {"FR-FCFS", "alpha", 2.2},
                    {"FR-FCFS", "beta", 2.7}};
        for (const int i : order)
        {
            const auto &[sched, wl, unf] = runs[i];
            builder.addOutcome(sched, "DDR3-1600", wl,
                               makeOutcome(unf, {unf}),
                               sched == std::string("STFM") ? 0 : 1);
        }
        return builder.toJson().dump();
    };
    const std::string forward = fold({0, 1, 2, 3});
    EXPECT_EQ(forward, fold({3, 2, 1, 0}));
    EXPECT_EQ(forward, fold({2, 0, 3, 1}));
}

// diffReports -------------------------------------------------------

Json
unitReport(double mix1_unfairness)
{
    ReportBuilder builder("diff-unit");
    builder.addOutcome("STFM", "DDR4-2400", "mix1",
                       makeOutcome(mix1_unfairness, {1.2}), 0);
    builder.addOutcome("STFM", "DDR4-2400", "mix2",
                       makeOutcome(1.5, {1.5}), 0);
    builder.addOutcome("FR-FCFS", "DDR4-2400", "mix1",
                       makeOutcome(2.4, {2.4}), 1);
    return builder.toJson();
}

TEST(ReportDiffTest, IdenticalReportsDiffClean)
{
    const Json report = unitReport(1.2);
    const ReportDiff diff = diffReports(report, report, DiffOptions{});
    EXPECT_FALSE(diff.regressed());
    EXPECT_EQ(diff.comparedGroups, 2u);
    EXPECT_EQ(diff.comparedWorkloads, 3u);
    EXPECT_EQ(diff.improvements, 0u);
}

TEST(ReportDiffTest, FlagsRegressionPastThreshold)
{
    // +5 % on a 2 % gate: regressed.
    const ReportDiff diff =
        diffReports(unitReport(1.2 * 1.05), unitReport(1.2),
                    DiffOptions{});
    ASSERT_TRUE(diff.regressed());
    bool saw_workload = false;
    for (const Regression &r : diff.regressions)
    {
        if (r.kind == "workload-unfairness")
        {
            saw_workload = true;
            EXPECT_EQ(r.scheduler, "STFM");
            EXPECT_EQ(r.device, "DDR4-2400");
            EXPECT_EQ(r.workload, "mix1");
            EXPECT_GT(r.current, r.baseline);
        }
    }
    EXPECT_TRUE(saw_workload);
}

TEST(ReportDiffTest, ToleratesIncreaseWithinThreshold)
{
    // +1 % on a 2 % gate: clean.
    const ReportDiff diff = diffReports(unitReport(1.2 * 1.01),
                                        unitReport(1.2), DiffOptions{});
    EXPECT_FALSE(diff.regressed());
}

TEST(ReportDiffTest, ThresholdIsConfigurable)
{
    DiffOptions loose;
    loose.threshold = 0.10;
    EXPECT_FALSE(
        diffReports(unitReport(1.2 * 1.05), unitReport(1.2), loose)
            .regressed());
    DiffOptions strict;
    strict.threshold = 0.001;
    EXPECT_TRUE(
        diffReports(unitReport(1.2 * 1.01), unitReport(1.2), strict)
            .regressed());
}

TEST(ReportDiffTest, CountsImprovements)
{
    const ReportDiff diff = diffReports(unitReport(1.2 * 0.9),
                                        unitReport(1.2), DiffOptions{});
    EXPECT_FALSE(diff.regressed());
    EXPECT_GE(diff.improvements, 1u);
}

TEST(ReportDiffTest, MissingBaselineCoverageIsRegression)
{
    // Current report lost the FR-FCFS group entirely.
    ReportBuilder builder("diff-unit");
    builder.addOutcome("STFM", "DDR4-2400", "mix1",
                       makeOutcome(1.2, {1.2}), 0);
    builder.addOutcome("STFM", "DDR4-2400", "mix2",
                       makeOutcome(1.5, {1.5}), 0);
    const ReportDiff diff = diffReports(builder.toJson(),
                                        unitReport(1.2), DiffOptions{});
    ASSERT_TRUE(diff.regressed());
    bool saw_missing = false;
    for (const Regression &r : diff.regressions)
        if (r.kind == "missing-group" && r.scheduler == "FR-FCFS")
            saw_missing = true;
    EXPECT_TRUE(saw_missing);

    // The reverse — coverage growth — is fine.
    EXPECT_FALSE(diffReports(unitReport(1.2), builder.toJson(),
                             DiffOptions{})
                     .regressed());
}

TEST(ReportDiffTest, DiffJsonCarriesSchemaAndRegressions)
{
    const ReportDiff diff =
        diffReports(unitReport(1.2 * 1.05), unitReport(1.2),
                    DiffOptions{});
    const Json doc = diffJson(diff, DiffOptions{});
    EXPECT_EQ(doc.at("schema", "diff").asString(), "stfm-reportdiff-v1");
    EXPECT_DOUBLE_EQ(doc.at("threshold", "diff").asDouble(), 0.02);
    EXPECT_TRUE(doc.at("regressed", "diff").asBool("diff"));
    EXPECT_EQ(doc.at("regressions", "diff").size(),
              diff.regressions.size());
}

TEST(ReportDiffTest, RejectsNonReportDocuments)
{
    const Json bogus = Json::parse("{\"schema\": \"stfm-results-v1\"}");
    EXPECT_THROW(diffReports(bogus, unitReport(1.2), DiffOptions{}),
                 SimError);
    EXPECT_THROW(diffReports(unitReport(1.2), bogus, DiffOptions{}),
                 SimError);
}

// HTML renderer -----------------------------------------------------

TEST(ReportHtml, RendersSelfContainedDocumentWithMarkers)
{
    const std::string html = renderReportHtml(unitReport(1.2));
    EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
    EXPECT_NE(html.find("<svg"), std::string::npos);
    EXPECT_NE(html.find("STFM"), std::string::npos);
    EXPECT_NE(html.find("FR-FCFS"), std::string::npos);
    EXPECT_NE(html.find("DDR4-2400"), std::string::npos);
    EXPECT_NE(html.find("prefers-color-scheme"), std::string::npos);
    // Self-contained: no external fetches of any kind.
    EXPECT_EQ(html.find("http://"), std::string::npos);
    EXPECT_EQ(html.find("https://"), std::string::npos);
    EXPECT_EQ(html.find("<script"), std::string::npos);
}

TEST(ReportHtml, EscapesMarkupInLabels)
{
    ReportBuilder builder("<b>evil & name</b>");
    builder.addOutcome("S<1>", "", "w&w", makeOutcome(1.0, {1.0}), 0);
    const std::string html = renderReportHtml(builder.toJson());
    EXPECT_EQ(html.find("<b>evil"), std::string::npos);
    EXPECT_NE(html.find("&lt;b&gt;evil &amp; name&lt;/b&gt;"),
              std::string::npos);
    EXPECT_NE(html.find("S&lt;1&gt;"), std::string::npos);
}

TEST(ReportHtml, RejectsNonReportDocuments)
{
    EXPECT_THROW(renderReportHtml(Json::parse("{\"schema\": \"nope\"}")),
                 SimError);
}

} // namespace
} // namespace report
} // namespace stfm
