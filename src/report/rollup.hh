/**
 * @file
 * The fleet rollup builder: folds per-run artifacts — stfm-results-v1
 * documents and stfm-telemetry-v1 samples — into one fleet-level
 * `stfm-report-v1` document (docs/REPORTING.md is the schema contract).
 *
 * Folding is streaming and order-independent: every distribution keeps
 * its raw samples and is serialized sorted, and all serialization
 * orders are canonical (groups by plan order then key, workloads by
 * label). The fleet supervisor folds shard outcomes the moment they
 * complete, in whatever order workers finish, and still writes the
 * document an after-the-fact `stfm report` over the merged results
 * produces, apart from the `sources` provenance list.
 *
 * Grouping: one group per (scheduler, device) pair. Failed runs are
 * counted per group and per workload but excluded from the metric
 * distributions (there are no valid metrics to fold). SLO violations
 * are counted against the configured thresholds: one per run whose
 * unfairness exceeds `slo.unfairness`, one per thread whose memory
 * slowdown exceeds `slo.slowdown`.
 */

#ifndef STFM_REPORT_ROLLUP_HH
#define STFM_REPORT_ROLLUP_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "stats/histogram.hh"

namespace stfm
{

struct RunOutcome;

namespace report
{

/** Fleet SLO thresholds (folded into the report; see REPORTING.md). */
struct SloConfig
{
    /** A run whose unfairness exceeds this violates the fairness SLO. */
    double unfairness = 2.0;
    /** A thread whose memory slowdown exceeds this violates the
     *  per-thread SLO. */
    double slowdown = 4.0;
};

class ReportBuilder
{
  public:
    explicit ReportBuilder(std::string name, SloConfig slo = {});

    /**
     * Fold one run outcome under its labels (the fleet streaming
     * path). @p scheduler may carry the plan's "@<device>" suffix; it
     * is stripped when it names @p device. @p order_hint fixes the
     * group's position in the serialized report (plan scheduler
     * index); pass -1 to assign first-seen order.
     */
    void addOutcome(const std::string &scheduler,
                    const std::string &device,
                    const std::string &workload,
                    const RunOutcome &outcome, int order_hint);

    /**
     * Fold every run of a stfm-results-v1 document. Returns the runs
     * folded. @throws SimError on a malformed document.
     */
    std::uint64_t addResultsDoc(const Json &doc,
                                const std::string &source_path);

    /**
     * Merge a stfm-telemetry-v1 document's read-latency histograms
     * into the fleet-level latency distribution. Documents without
     * histograms fold as a no-op. @throws SimError on malformed input.
     */
    void addTelemetryDoc(const Json &doc,
                         const std::string &source_path);

    /** Record an ingested source in the report's provenance list. */
    void noteSource(const std::string &path, const std::string &kind,
                    std::uint64_t runs);

    /** Total outcomes folded so far (failed included). */
    std::uint64_t runs() const { return runs_; }

    /** The stfm-report-v1 document (docs/REPORTING.md). */
    Json toJson() const;

  private:
    struct WorkloadStats
    {
        std::uint64_t runs = 0;
        std::uint64_t failed = 0;
        std::vector<double> unfairness;
    };

    struct Group
    {
        int order = -1;
        std::uint64_t runs = 0;
        std::uint64_t failed = 0;
        std::uint64_t sloUnfairness = 0;
        std::uint64_t sloSlowdown = 0;
        std::vector<double> unfairness;
        std::vector<double> slowdown;
        std::vector<double> weightedSpeedup;
        std::map<std::string, WorkloadStats> workloads;
    };

    struct Source
    {
        std::string path;
        std::string kind;
        std::uint64_t runs = 0;
    };

    Group &groupFor(const std::string &scheduler,
                    const std::string &device, int order_hint);
    void addRun(Group &group, const std::string &workload, bool failed,
                double unfairness, const std::vector<double> &slowdowns,
                double weighted_speedup);

    std::string name_;
    SloConfig slo_;
    std::uint64_t runs_ = 0;
    std::uint64_t failedRuns_ = 0;
    int nextOrder_ = 0;
    /** Keyed (scheduler, device); serialization sorts by (order, key). */
    std::map<std::pair<std::string, std::string>, Group> groups_;
    std::vector<Source> sources_;
    std::uint64_t streamedRuns_ = 0;
    LatencyHistogram readLatency_;
    bool haveReadLatency_ = false;
};

/**
 * Serialize one distribution block: count, min, max, mean, p50, p95,
 * p99 and the ascending raw "samples". Every field is a pure function
 * of the sample multiset: the mean is summed in ascending order, and
 * each percentile is the nearest-rank statistic — the value of rank
 * ceil(p * count), 1-based, in ascending order. An empty distribution
 * reads 0 throughout.
 */
Json distributionJson(std::vector<double> samples);

// Input discovery ----------------------------------------------------

/** True when @p path exists at all (any file type). */
bool pathExists(const std::string &path);

/** True when @p path names a directory. */
bool isDirectory(const std::string &path);

/**
 * Regular files directly inside directory @p path, sorted by name
 * (canonical ingestion order). @throws SimError when unreadable.
 */
std::vector<std::string> listDirectoryFiles(const std::string &path);

} // namespace report
} // namespace stfm

#endif // STFM_REPORT_ROLLUP_HH
