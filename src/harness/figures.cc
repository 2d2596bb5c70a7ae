#include "harness/figures.hh"

#include <algorithm>
#include <ostream>

#include "harness/experiment.hh"
#include "harness/table.hh"
#include "trace/catalog.hh"

namespace stfm
{

namespace
{

// Spec builders -------------------------------------------------------
//
// Budgets and sample seeds are the historical per-figure values; the
// reports must stay bit-for-bit what they have always been (the seed,
// budget and workload order feed the deterministic trace generator and
// the GMEAN accumulation order).

/** Append a @p kind scheduler entry labelled @p label to @p spec;
 *  returns its config for the caller to set knobs on. */
SchedulerConfig &
addScheduler(ExperimentSpec &spec, std::string label, PolicyKind kind)
{
    spec.schedulers.push_back({std::move(label), SchedulerConfig{}, ""});
    spec.schedulers.back().config.kind = kind;
    return spec.schedulers.back().config;
}

ExperimentSpec
caseStudySpec(const char *name, const char *title,
              const char *workload, std::uint64_t budget)
{
    ExperimentSpec spec;
    spec.name = name;
    spec.title = title;
    spec.workloads = namedWorkloads(workload);
    spec.budget = budget;
    return spec;
}

ExperimentSpec
fig05Spec(bool)
{
    ExperimentSpec spec;
    spec.name = "fig05";
    spec.title = "Figure 5: mcf paired with every other benchmark (2-core)";
    for (const BenchmarkProfile &profile : benchmarkCatalog()) {
        if (profile.name != "mcf")
            spec.workloads.push_back({"mcf", profile.name});
    }
    addScheduler(spec, "FR-FCFS", PolicyKind::FrFcfs);
    addScheduler(spec, "STFM", PolicyKind::Stfm);
    spec.budget = 50000;
    return spec;
}

ExperimentSpec
fig06Spec(bool)
{
    return caseStudySpec("fig06",
                         "Figure 6: memory-intensive 4-core workload",
                         "case_intensive", 60000);
}

ExperimentSpec
fig07Spec(bool)
{
    return caseStudySpec("fig07",
                         "Figure 7: mixed-behavior 4-core workload",
                         "case_mixed", 60000);
}

ExperimentSpec
fig08Spec(bool)
{
    return caseStudySpec(
        "fig08", "Figure 8: non-memory-intensive 4-core workload",
        "case_non_intensive", 60000);
}

ExperimentSpec
fig09Spec(bool full)
{
    ExperimentSpec spec;
    spec.name = "fig09";
    spec.title = "Figure 9: 4-core category-balanced workload sweep";
    spec.sample = WorkloadSample{4, full ? 256u : 32u, 0x5174f09};
    spec.labelRows = 10;
    spec.budget = 50000;
    return spec;
}

ExperimentSpec
fig10Spec(bool)
{
    return caseStudySpec("fig10",
                         "Figure 10: non-intensive 8-core workload",
                         "eight_core_case", 50000);
}

ExperimentSpec
fig11Spec(bool full)
{
    ExperimentSpec spec;
    spec.name = "fig11";
    spec.title = "Figure 11: 8-core workload sweep";
    spec.workloads = namedWorkloads("eight_core_samples");
    spec.sample = WorkloadSample{8, full ? 22u : 6u, 0x8c03e5};
    spec.labelRows = 10;
    spec.budget = 40000;
    return spec;
}

ExperimentSpec
fig12Spec(bool)
{
    ExperimentSpec spec;
    spec.name = "fig12";
    spec.title =
        "Figure 12: 16-core workloads (high16, high8+low8, low16)";
    spec.workloads = namedWorkloads("sixteen_core");
    spec.labelRows = 3;
    spec.budget = 30000;
    return spec;
}

ExperimentSpec
fig13Spec(bool)
{
    return caseStudySpec(
        "fig13", "Figure 13: desktop-application 4-core workload",
        "desktop", 60000);
}

/**
 * Figure 14: FR-FCFS once, then per weight assignment NFQ (bandwidth
 * shares = weights) and STFM (thread weights = weights) — the (NFQ,
 * STFM) pairs fig14Report reads back.
 */
ExperimentSpec
fig14Spec(bool)
{
    ExperimentSpec spec;
    spec.name = "fig14";
    spec.title = "Figure 14: thread weights";
    spec.workloads = namedWorkloads("weighted");
    addScheduler(spec, "FR-FCFS", PolicyKind::FrFcfs);
    for (const std::vector<double> &weights :
         {std::vector<double>{1, 16, 1, 1}, {1, 4, 8, 1}}) {
        std::string tag;
        for (const double w : weights)
            tag += (tag.empty() ? " " : ":") + fmt(w, 0);
        addScheduler(spec, "NFQ" + tag, PolicyKind::Nfq).shares = weights;
        addScheduler(spec, "STFM" + tag, PolicyKind::Stfm).weights = weights;
    }
    spec.budget = 60000;
    return spec;
}

ExperimentSpec
fig15Spec(bool)
{
    ExperimentSpec spec = caseStudySpec(
        "fig15", "Figure 15: effect of alpha", "case_intensive", 60000);
    for (const double alpha : {1.0, 1.05, 1.1, 1.2, 2.0, 5.0, 20.0}) {
        addScheduler(spec, "Alpha=" + fmt(alpha, 2), PolicyKind::Stfm)
            .alpha = alpha;
    }
    addScheduler(spec, "FR-FCFS", PolicyKind::FrFcfs);
    return spec;
}

ExperimentSpec
ablationStfmSpec(bool)
{
    ExperimentSpec spec = caseStudySpec("ablation_stfm", "STFM ablations",
                                        "case_intensive", 60000);
    const auto variant = [&](std::string label) -> SchedulerConfig & {
        return addScheduler(spec, std::move(label), PolicyKind::Stfm);
    };
    variant("baseline (gamma=0.5, 2^24, quantized)");
    for (const double gamma : {0.25, 1.0, 2.0})
        variant("gamma=" + fmt(gamma, 2)).gamma = gamma;
    for (const unsigned shift : {14u, 18u, 28u}) {
        variant("interval=2^" + std::to_string(shift)).intervalLength =
            1ULL << shift;
    }
    variant("exact slowdown registers").quantizeSlowdowns = false;
    variant("with per-event bus term").busInterference = true;
    variant("request-level estimator").requestLevelEstimator = true;
    return spec;
}

// Figure-specific renderers -------------------------------------------
//
// A failed run prints FAIL cells and stays out of every aggregate, as
// in the generic reports.

/** A GMEAN cell; "n/a" when every run behind it failed. */
std::string
gmeanCell(const GeoMean &mean, int precision)
{
    return mean.count() == 0 ? "n/a" : fmt(mean.value(), precision);
}

/** Figure 5: per pairing, mcf's and the other benchmark's slowdown and
 *  the unfairness under FR-FCFS (entry 0) and STFM (entry 1). */
void
fig05Report(const ExperimentResult &result, std::ostream &os)
{
    os << result.spec.heading() << "\n\n";
    TextTable table({"other benchmark", "mcf(FR-FCFS)", "other(FR-FCFS)",
                     "unfair(FR)", "mcf(STFM)", "other(STFM)",
                     "unfair(STFM)"});
    double max_unfair = 0.0; // STFM's, over the pairings.
    for (std::size_t r = 0; r < result.rows(); ++r) {
        std::vector<std::string> row{result.rowWorkload(r)[1]};
        for (std::size_t s = 0; s < 2; ++s) {
            const RunOutcome &o = result.outcome(r, s);
            if (o.failed) {
                row.insert(row.end(), 3, std::string("FAIL"));
                continue;
            }
            row.insert(row.end(), {fmt(o.metrics.slowdowns[0]),
                                   fmt(o.metrics.slowdowns[1]),
                                   fmt(o.metrics.unfairness)});
            if (s == 1)
                max_unfair = std::max(max_unfair, o.metrics.unfairness);
        }
        table.addRow(std::move(row));
    }
    table.print(os);

    const SweepSummary &fr = result.aggregates[0].summary;
    const SweepSummary &st = result.aggregates[1].summary;
    const auto gmeans = [&](const char *label, GeoMean SweepSummary::*metric,
                            int precision) {
        os << label << "FR-FCFS " << gmeanCell(fr.*metric, precision)
           << "  STFM " << gmeanCell(st.*metric, precision) << "\n";
    };
    gmeans("\nGMEAN unfairness:      ", &SweepSummary::unfairness, 2);
    os << "max STFM unfairness:   "
       << (st.unfairness.count() == 0 ? "n/a" : fmt(max_unfair))
       << "\n";
    gmeans("GMEAN weighted speedup: ", &SweepSummary::weightedSpeedup, 2);
    gmeans("GMEAN hmean speedup:    ", &SweepSummary::hmeanSpeedup, 3);
    gmeans("GMEAN sum-of-IPCs:      ", &SweepSummary::sumOfIpcs, 2);
}

/** Figure 14: one table per weight assignment — FR-FCFS (entry 0) and
 *  that assignment's (NFQ, STFM) pair — with per-thread slowdowns and
 *  the unfairness among the weight-1 threads. */
void
fig14Report(const ExperimentResult &result, std::ostream &os)
{
    const Workload &workload = result.workloads.front();
    os << result.spec.heading() << " (" << workloadLabel(workload)
       << ")\n\n";
    for (std::size_t s = 1; s + 1 < result.schedulers.size(); s += 2) {
        const std::vector<double> &weights =
            result.schedulers[s + 1].config.weights;
        os << "weights:";
        for (const double w : weights)
            os << ' ' << fmt(w, 0);
        os << '\n';

        std::vector<std::string> headers{"scheduler"};
        for (std::size_t i = 0; i < workload.size(); ++i)
            headers.push_back(workload[i] + "(w" + fmt(weights[i], 0) + ")");
        headers.push_back("equal-pri unfairness");
        TextTable table(std::move(headers));

        for (const std::size_t entry : {std::size_t{0}, s, s + 1}) {
            const RunOutcome &o = result.outcome(0, entry);
            std::vector<std::string> row{o.policyName};
            if (o.failed) {
                row.insert(row.end(), workload.size() + 1,
                           std::string("FAIL"));
                table.addRow(std::move(row));
                continue;
            }
            double max_s = 0.0, min_s = 1e30;
            for (std::size_t i = 0; i < weights.size(); ++i) {
                if (weights[i] == 1.0) {
                    max_s = std::max(max_s, o.metrics.slowdowns[i]);
                    min_s = std::min(min_s, o.metrics.slowdowns[i]);
                }
            }
            for (const double slowdown : o.metrics.slowdowns)
                row.push_back(fmt(slowdown));
            row.push_back(fmt(max_s / min_s));
            table.addRow(std::move(row));
        }
        table.print(os);
        os << '\n';
    }
}

} // namespace

const std::vector<Figure> &
figureRegistry()
{
    static const std::vector<Figure> registry = {
        {"fig01", "motivation: slowdown variance under FR-FCFS",
         nullptr, figures::motivation},
        {"fig03", "the NFQ idleness problem, quantified", nullptr,
         figures::idleness},
        {"fig05", "2-core: mcf paired with every other benchmark",
         fig05Spec, nullptr, fig05Report},
        {"fig06", "case study I: memory-intensive 4-core workload",
         fig06Spec, nullptr},
        {"fig07", "case study II: mixed-behavior 4-core workload",
         fig07Spec, nullptr},
        {"fig08", "case study III: non-intensive 4-core workload",
         fig08Spec, nullptr},
        {"fig09", "4-core category-balanced sweep (GMEAN aggregates)",
         fig09Spec, nullptr},
        {"fig10", "8-core case study: mcf vs seven non-intensive",
         fig10Spec, nullptr},
        {"fig11", "8-core workload sweep", fig11Spec, nullptr},
        {"fig12", "16-core workloads (high16, high8+low8, low16)",
         fig12Spec, nullptr},
        {"fig13", "desktop-application 4-core workload", fig13Spec,
         nullptr},
        {"fig14", "system-software support: thread weights", fig14Spec,
         nullptr, fig14Report},
        {"fig15", "sensitivity to the alpha threshold", fig15Spec,
         nullptr},
        {"table3", "benchmark characteristics measured alone", nullptr,
         figures::table3Characteristics},
        {"table5", "sensitivity to banks and row-buffer size", nullptr,
         figures::table5Sensitivity},
        {"ablation_stfm", "STFM design-choice ablations",
         ablationStfmSpec, nullptr},
        {"ablation_controller", "controller substrate ablations",
         nullptr, figures::ablationController},
    };
    return registry;
}

const Figure *
findFigure(const std::string &name)
{
    for (const Figure &figure : figureRegistry()) {
        if (figure.name == name)
            return &figure;
    }
    return nullptr;
}

} // namespace stfm
