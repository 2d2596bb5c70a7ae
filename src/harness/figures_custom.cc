/**
 * @file
 * The custom figure harnesses — figures whose structure does not fit
 * the declarative (workload x scheduler) experiment grid: the fig03
 * idleness schedule (hand-built staggered traces), the fig05 pairing
 * sweep, fig14's per-assignment weight tables, fig15's alpha series,
 * the calibration tables and the design-choice ablations. Each is
 * reached as `stfm <name>` through the registry in figures.cc.
 */

#include "harness/figures.hh"

#include <algorithm>
#include <iostream>
#include <memory>

#include "harness/runner.hh"
#include "harness/table.hh"
#include "sim/system.hh"
#include "stats/summary.hh"
#include "trace/catalog.hh"
#include "trace/generator.hh"

namespace stfm
{
namespace figures
{

// --------------------------------------------------------------------
// Figure 1 — motivation: slowdown variance under FR-FCFS.

namespace
{

void
motivationCase(unsigned cores, const Workload &workload)
{
    SimConfig base = SimConfig::baseline(cores);
    base.instructionBudget = ExperimentRunner::budgetFromEnv(60000);
    ExperimentRunner runner(base);

    SchedulerConfig fr_fcfs; // Default-constructed = FR-FCFS.
    const RunOutcome outcome = runner.run(workload, fr_fcfs);

    std::cout << cores << "-core workload under FR-FCFS\n";
    TextTable table({"core", "benchmark", "memory slowdown"});
    for (unsigned t = 0; t < workload.size(); ++t) {
        table.addRow({std::to_string(t + 1), workload[t],
                      fmt(outcome.metrics.slowdowns[t])});
    }
    table.print(std::cout);
    std::cout << "unfairness (max/min): "
              << fmt(outcome.metrics.unfairness) << "\n\n";
}

} // namespace

int
motivation(bool)
{
    std::cout << "Figure 1: memory slowdown of programs under the "
                 "thread-unaware FR-FCFS baseline\n\n";
    motivationCase(4, workloads::fig1FourCore());
    motivationCase(8, workloads::fig1EightCore());
    return 0;
}

// --------------------------------------------------------------------
// Figure 3 — the NFQ idleness problem, demonstrated quantitatively.

namespace
{

/** Prepends an idle (pure-compute) phase to another trace. */
class DelayedTrace : public TraceSource
{
  public:
    DelayedTrace(std::unique_ptr<TraceSource> inner,
                 std::uint64_t idle_instructions)
        : inner_(std::move(inner)), remaining_(idle_instructions)
    {}

    TraceOp
    next() override
    {
        if (remaining_ > 0) {
            TraceOp idle;
            idle.kind = TraceOp::Kind::None;
            idle.aluBefore = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(remaining_, 100000));
            remaining_ -= idle.aluBefore;
            return idle;
        }
        return inner_->next();
    }

    void
    warmupFootprint(std::size_t lines, std::vector<WarmLine> &out) override
    {
        inner_->warmupFootprint(lines, out);
    }

  private:
    std::unique_ptr<TraceSource> inner_;
    std::uint64_t remaining_;
};

TraceProfile
continuousProfile()
{
    TraceProfile p;
    p.mpki = 40;
    p.rowBufferHitRate = 0.9;
    p.burstDuty = 1.0; // Thread 1: never idle.
    p.streamCount = 8;
    p.storeFraction = 0.3;
    return p;
}

TraceProfile
burstyProfile()
{
    TraceProfile p = continuousProfile();
    p.burstDuty = 0.4; // Threads 2-4: bursts with idle gaps.
    p.burstLength = 64;
    return p;
}

SimResult
idlenessRun(PolicyKind kind, double *alone_mcpi)
{
    SimConfig config = SimConfig::baseline(4);
    config.instructionBudget = 40000;
    config.scheduler.kind = kind;
    AddressMapping mapping(config.memory.channels,
                           config.memory.banksPerChannel,
                           config.memory.rowBytes, config.memory.lineBytes,
                           config.memory.rowsPerBank,
                           config.memory.xorBankMapping);

    // Alone baselines (FR-FCFS, no initial delays).
    for (unsigned t = 0; t < 4; ++t) {
        SimConfig alone = config;
        alone.cores = 1;
        alone.scheduler = SchedulerConfig{};
        std::vector<std::unique_ptr<TraceSource>> solo;
        solo.push_back(std::make_unique<SyntheticTraceGenerator>(
            t == 0 ? continuousProfile() : burstyProfile(), mapping, 0,
            1, 100 + t));
        CmpSystem system(alone, std::move(solo));
        alone_mcpi[t] = system.run().threads[0].mcpi();
    }

    // Shared run: Thread 1 starts immediately; Threads 2-4 join at
    // staggered times t1 < t2 < t3 (Figure 3's schedule).
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(std::make_unique<SyntheticTraceGenerator>(
        continuousProfile(), mapping, 0, 4, 100));
    for (unsigned t = 1; t < 4; ++t) {
        traces.push_back(std::make_unique<DelayedTrace>(
            std::make_unique<SyntheticTraceGenerator>(burstyProfile(),
                                                      mapping, t, 4,
                                                      100 + t),
            /*idle_instructions=*/8000u * t));
    }
    CmpSystem system(config, std::move(traces));
    return system.run();
}

} // namespace

int
idleness(bool)
{
    std::cout << "Figure 3: the idleness problem — one continuous "
                 "thread vs three staggered bursty threads\n\n";
    TextTable table({"scheduler", "T1 (continuous)", "T2 (bursty)",
                     "T3 (bursty)", "T4 (bursty)",
                     "T1 vs bursty-max"});
    for (const PolicyKind kind :
         {PolicyKind::FrFcfs, PolicyKind::Nfq, PolicyKind::Stfm}) {
        double alone[4] = {};
        const SimResult result = idlenessRun(kind, alone);
        double slowdown[4];
        for (unsigned t = 0; t < 4; ++t)
            slowdown[t] = result.threads[t].mcpi() / alone[t];
        const double bursty_max =
            std::max({slowdown[1], slowdown[2], slowdown[3]});
        const char *name = kind == PolicyKind::FrFcfs ? "FR-FCFS"
                           : kind == PolicyKind::Nfq  ? "NFQ"
                                                      : "STFM";
        table.addRow({name, fmt(slowdown[0]), fmt(slowdown[1]),
                      fmt(slowdown[2]), fmt(slowdown[3]),
                      fmt(slowdown[0] / bursty_max)});
    }
    table.print(std::cout);
    std::cout << "\nT1-vs-bursty-max > 1 means the continuous thread is "
                 "treated worse than the bursty ones; the paper "
                 "predicts NFQ shows the largest such bias.\n";
    return 0;
}

// --------------------------------------------------------------------
// Figure 5 — 2-core: mcf runs against every other SPEC benchmark.

namespace
{

/**
 * Per-run observability artifacts for a custom (non-spec-driven)
 * figure: the configured paths get a "<figure>.<tag>" suffix before
 * the extension because the pairing sweep produces one document per
 * (workload, scheduler) run.
 */
void
writeOutcomeArtifacts(const TelemetryConfig &telemetry,
                      const std::string &figure, const RunOutcome &o,
                      const std::string &tag)
{
    const auto tagged = [&](const std::string &path) {
        const std::size_t dot = path.rfind('.');
        const std::string suffix = "." + tag;
        if (dot == std::string::npos)
            return path + suffix;
        return path.substr(0, dot) + suffix + path.substr(dot);
    };
    if (o.hasTelemetry()) {
        const std::string base_path = telemetry.output.empty()
                                          ? figure + "_telemetry.json"
                                          : telemetry.output;
        const std::string path = tagged(base_path);
        writeJsonFile(o.telemetry, path);
        std::cout << "observability artifact written to " << path
                  << "\n";
    }
    if (o.hasTrace() && !telemetry.trace.empty()) {
        const std::string path = tagged(telemetry.trace);
        writeJsonFile(o.trace, path);
        std::cout << "observability artifact written to " << path
                  << "\n";
    }
}

} // namespace

int
twoCore(bool)
{
    SimConfig base = SimConfig::baseline(2);
    base.instructionBudget = ExperimentRunner::budgetFromEnv(50000);
    ExperimentRunner runner(base);

    SchedulerConfig fr_fcfs;
    SchedulerConfig stfm_cfg;
    stfm_cfg.kind = PolicyKind::Stfm;

    std::cout << "Figure 5: mcf paired with every other benchmark "
                 "(2-core)\n\n";

    TextTable table({"other benchmark", "mcf(FR-FCFS)", "other(FR-FCFS)",
                     "unfair(FR)", "mcf(STFM)", "other(STFM)",
                     "unfair(STFM)"});
    GeoMean unfair_fr, unfair_stfm;
    SweepSummary sum_fr, sum_stfm;
    double max_unfair_stfm = 0.0;

    for (const auto &profile : benchmarkCatalog()) {
        if (profile.name == "mcf")
            continue;
        const Workload workload = {"mcf", profile.name};
        const RunOutcome fr = runner.run(workload, fr_fcfs);
        const RunOutcome st = runner.run(workload, stfm_cfg);
        const TelemetryConfig &telemetry = runner.base().telemetry;
        if (telemetry.collecting()) {
            writeOutcomeArtifacts(telemetry, "fig05", fr,
                                  "mcf-" + profile.name + ".FR-FCFS");
            writeOutcomeArtifacts(telemetry, "fig05", st,
                                  "mcf-" + profile.name + ".STFM");
        }
        table.addRow({profile.name, fmt(fr.metrics.slowdowns[0]),
                      fmt(fr.metrics.slowdowns[1]),
                      fmt(fr.metrics.unfairness),
                      fmt(st.metrics.slowdowns[0]),
                      fmt(st.metrics.slowdowns[1]),
                      fmt(st.metrics.unfairness)});
        unfair_fr.add(fr.metrics.unfairness);
        unfair_stfm.add(st.metrics.unfairness);
        sum_fr.add(fr.metrics);
        sum_stfm.add(st.metrics);
        max_unfair_stfm =
            std::max(max_unfair_stfm, st.metrics.unfairness);
    }
    table.print(std::cout);

    std::cout << "\nGMEAN unfairness:      FR-FCFS "
              << fmt(unfair_fr.value()) << "  STFM "
              << fmt(unfair_stfm.value()) << "\n";
    std::cout << "max STFM unfairness:   " << fmt(max_unfair_stfm)
              << "\n";
    std::cout << "GMEAN weighted speedup: FR-FCFS "
              << fmt(sum_fr.weightedSpeedup.value()) << "  STFM "
              << fmt(sum_stfm.weightedSpeedup.value()) << "\n";
    std::cout << "GMEAN hmean speedup:    FR-FCFS "
              << fmt(sum_fr.hmeanSpeedup.value(), 3) << "  STFM "
              << fmt(sum_stfm.hmeanSpeedup.value(), 3) << "\n";
    std::cout << "GMEAN sum-of-IPCs:      FR-FCFS "
              << fmt(sum_fr.sumOfIpcs.value()) << "  STFM "
              << fmt(sum_stfm.sumOfIpcs.value()) << "\n";
    return 0;
}

// --------------------------------------------------------------------
// Figure 14 — system-software support: thread weights.

namespace
{

void
runWeights(ExperimentRunner &runner, const Workload &workload,
           const std::vector<double> &weights)
{
    std::cout << "weights:";
    for (const double w : weights)
        std::cout << ' ' << static_cast<int>(w);
    std::cout << '\n';

    SchedulerConfig fr_fcfs;
    SchedulerConfig nfq;
    nfq.kind = PolicyKind::Nfq;
    nfq.shares = weights; // NFQ: bandwidth share proportional to weight.
    SchedulerConfig stfm_cfg;
    stfm_cfg.kind = PolicyKind::Stfm;
    stfm_cfg.weights = weights;

    std::vector<std::string> headers{"scheduler"};
    for (std::size_t i = 0; i < workload.size(); ++i) {
        headers.push_back(workload[i] + "(w" +
                          std::to_string(static_cast<int>(weights[i])) +
                          ")");
    }
    headers.push_back("equal-pri unfairness");
    TextTable table(std::move(headers));

    for (const auto &sched : {fr_fcfs, nfq, stfm_cfg}) {
        const RunOutcome o = runner.run(workload, sched);
        // Unfairness among the weight-1 threads only.
        double max_s = 0.0, min_s = 1e30;
        for (std::size_t i = 0; i < weights.size(); ++i) {
            if (weights[i] == 1.0) {
                max_s = std::max(max_s, o.metrics.slowdowns[i]);
                min_s = std::min(min_s, o.metrics.slowdowns[i]);
            }
        }
        std::vector<std::string> row{o.policyName};
        for (const double s : o.metrics.slowdowns)
            row.push_back(fmt(s));
        row.push_back(fmt(max_s / min_s));
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    std::cout << '\n';
}

} // namespace

int
threadWeights(bool)
{
    SimConfig base = SimConfig::baseline(4);
    base.instructionBudget = ExperimentRunner::budgetFromEnv(60000);
    ExperimentRunner runner(base);
    const Workload workload = workloads::weighted();

    std::cout << "Figure 14: thread weights (" << workloadLabel(workload)
              << ")\n\n";
    runWeights(runner, workload, {1, 16, 1, 1});
    runWeights(runner, workload, {1, 4, 8, 1});
    return 0;
}

// --------------------------------------------------------------------
// Figure 15 — sensitivity to the alpha threshold.

int
alphaSweep(bool)
{
    SimConfig base = SimConfig::baseline(4);
    base.instructionBudget = ExperimentRunner::budgetFromEnv(60000);
    ExperimentRunner runner(base);
    const Workload workload = workloads::caseIntensive();

    std::cout << "Figure 15: effect of alpha ("
              << workloadLabel(workload) << ")\n\n";

    TextTable table({"config", "unfairness", "weighted-speedup",
                     "sum-of-IPCs", "hmean-speedup"});
    for (const double alpha : {1.0, 1.05, 1.1, 1.2, 2.0, 5.0, 20.0}) {
        SchedulerConfig sched;
        sched.kind = PolicyKind::Stfm;
        sched.alpha = alpha;
        const RunOutcome o = runner.run(workload, sched);
        table.addRow({"Alpha=" + fmt(alpha, 2),
                      fmt(o.metrics.unfairness),
                      fmt(o.metrics.weightedSpeedup),
                      fmt(o.metrics.sumOfIpcs),
                      fmt(o.metrics.hmeanSpeedup, 3)});
    }
    const RunOutcome fr = runner.run(workload, SchedulerConfig{});
    table.addRow({"FR-FCFS", fmt(fr.metrics.unfairness),
                  fmt(fr.metrics.weightedSpeedup),
                  fmt(fr.metrics.sumOfIpcs),
                  fmt(fr.metrics.hmeanSpeedup, 3)});
    table.print(std::cout);
    return 0;
}

// --------------------------------------------------------------------
// Table 3 (and Table 4) — benchmark characteristics measured alone.

namespace
{

void
characteristicsReport(ExperimentRunner &runner,
                      const std::vector<BenchmarkProfile> &catalog,
                      const char *title)
{
    std::cout << title << "\n";
    TextTable table({"#", "benchmark", "type", "MCPI", "(paper)",
                     "L2 MPKI", "(paper)", "RBhit%", "(paper)", "cat"});
    unsigned index = 1;
    for (const auto &profile : catalog) {
        const ThreadResult &r = runner.aloneResult(profile.name);
        table.addRow({std::to_string(index++), profile.name, profile.type,
                      fmt(r.mcpi()), fmt(profile.paperMcpi),
                      fmt(r.mpki(), 1), fmt(profile.paperMpki, 1),
                      fmt(100.0 * r.rowHitRate(), 1),
                      fmt(100.0 * profile.paperRowHit, 1),
                      std::to_string(profile.category)});
    }
    table.print(std::cout);
    std::cout << '\n';
}

} // namespace

int
table3Characteristics(bool)
{
    SimConfig base = SimConfig::baseline(4);
    base.instructionBudget = ExperimentRunner::budgetFromEnv(60000);
    ExperimentRunner runner(base);

    characteristicsReport(runner, benchmarkCatalog(),
                          "Table 3: SPEC CPU2006 benchmark "
                          "characteristics (measured alone, FR-FCFS)");
    characteristicsReport(runner, desktopCatalog(),
                          "Table 4: Windows desktop application "
                          "characteristics (measured alone, FR-FCFS)");
    return 0;
}

// --------------------------------------------------------------------
// Table 5 — sensitivity to DRAM banks and row-buffer size.

namespace
{

struct SensitivityCell
{
    double unfairnessFr = 0.0, wsFr = 0.0;
    double unfairnessStfm = 0.0, wsStfm = 0.0;
};

SensitivityCell
measureSensitivity(unsigned banks, std::uint64_t row_bytes,
                   const std::vector<Workload> &workload_list,
                   std::uint64_t budget)
{
    SimConfig base = SimConfig::baseline(8);
    base.memory.banksPerChannel = banks;
    base.memory.rowBytes = row_bytes;
    base.instructionBudget = budget;
    ExperimentRunner runner(base);

    SchedulerConfig fr_fcfs;
    SchedulerConfig stfm_cfg;
    stfm_cfg.kind = PolicyKind::Stfm;

    SweepSummary fr, stfm_summary;
    for (const Workload &w : workload_list) {
        fr.add(runner.run(w, fr_fcfs).metrics);
        stfm_summary.add(runner.run(w, stfm_cfg).metrics);
    }
    return {fr.unfairness.value(), fr.weightedSpeedup.value(),
            stfm_summary.unfairness.value(),
            stfm_summary.weightedSpeedup.value()};
}

void
sensitivityReport(const char *dimension, const std::string &label,
                  const SensitivityCell &c)
{
    std::cout << dimension << "=" << label << ": FR-FCFS unfairness "
              << fmt(c.unfairnessFr) << " WS " << fmt(c.wsFr)
              << " | STFM unfairness " << fmt(c.unfairnessStfm) << " WS "
              << fmt(c.wsStfm) << " | improvement "
              << fmt(c.unfairnessFr / c.unfairnessStfm) << "X / "
              << fmt(100.0 * (c.wsStfm / c.wsFr - 1.0), 1) << "%\n";
}

} // namespace

int
table5Sensitivity(bool full)
{
    const auto workload_list =
        sampleWorkloads(8, full ? 32 : 8, /*seed=*/0x7ab1e5);
    const std::uint64_t budget =
        ExperimentRunner::budgetFromEnv(40000);

    std::cout << "Table 5: sensitivity to DRAM banks and row-buffer "
                 "size (8-core sweep, "
              << workload_list.size() << " workloads)\n\n";

    std::cout << "-- DRAM banks (16 KB effective rows) --\n";
    for (const unsigned banks : {4u, 8u, 16u}) {
        sensitivityReport(
            "banks", std::to_string(banks),
            measureSensitivity(banks, 16 * 1024, workload_list, budget));
    }
    std::cout << "\n-- Row-buffer size (8 banks) --\n";
    for (const std::uint64_t row : {8u * 1024, 16u * 1024, 32u * 1024}) {
        sensitivityReport(
            "row", std::to_string(row / 1024) + "KB",
            measureSensitivity(8, row, workload_list, budget));
    }
    return 0;
}

// --------------------------------------------------------------------
// STFM design-choice ablations.

namespace
{

void
ablationRow(ExperimentRunner &runner, const Workload &workload,
            TextTable &table, const std::string &label,
            const SchedulerConfig &sched)
{
    const RunOutcome o = runner.run(workload, sched);
    table.addRow({label, fmt(o.metrics.unfairness),
                  fmt(o.metrics.weightedSpeedup),
                  fmt(o.metrics.hmeanSpeedup, 3)});
}

} // namespace

int
ablationStfm(bool)
{
    SimConfig base = SimConfig::baseline(4);
    base.instructionBudget = ExperimentRunner::budgetFromEnv(60000);
    ExperimentRunner runner(base);
    const Workload workload = workloads::caseIntensive();

    std::cout << "STFM ablations (" << workloadLabel(workload) << ")\n\n";
    TextTable table({"variant", "unfairness", "weighted-speedup",
                     "hmean-speedup"});

    SchedulerConfig stfm_cfg;
    stfm_cfg.kind = PolicyKind::Stfm;
    ablationRow(runner, workload, table,
                "baseline (gamma=0.5, 2^24, quantized)", stfm_cfg);

    for (const double gamma : {0.25, 1.0, 2.0}) {
        SchedulerConfig s = stfm_cfg;
        s.gamma = gamma;
        ablationRow(runner, workload, table, "gamma=" + fmt(gamma, 2), s);
    }
    for (const unsigned shift : {14u, 18u, 28u}) {
        SchedulerConfig s = stfm_cfg;
        s.intervalLength = 1ULL << shift;
        ablationRow(runner, workload, table,
                    "interval=2^" + std::to_string(shift), s);
    }
    {
        SchedulerConfig s = stfm_cfg;
        s.quantizeSlowdowns = false;
        ablationRow(runner, workload, table, "exact slowdown registers",
                    s);
    }
    {
        SchedulerConfig s = stfm_cfg;
        s.busInterference = true;
        ablationRow(runner, workload, table, "with per-event bus term",
                    s);
    }
    {
        SchedulerConfig s = stfm_cfg;
        s.requestLevelEstimator = true;
        ablationRow(runner, workload, table, "request-level estimator",
                    s);
    }
    table.print(std::cout);
    return 0;
}

// --------------------------------------------------------------------
// Controller/substrate design-choice ablations.

namespace
{

void
controllerRow(TextTable &table, const std::string &label,
              const SimConfig &base, const Workload &workload)
{
    ExperimentRunner runner(base);
    const RunOutcome o = runner.run(workload, SchedulerConfig{});
    table.addRow({label, fmt(o.metrics.unfairness),
                  fmt(o.metrics.weightedSpeedup),
                  fmt(o.metrics.hmeanSpeedup, 3)});
}

} // namespace

int
ablationController(bool)
{
    SimConfig base = SimConfig::baseline(4);
    base.instructionBudget = ExperimentRunner::budgetFromEnv(50000);
    const Workload workload = workloads::caseNonIntensive();

    std::cout << "Controller design ablations under FR-FCFS ("
              << workloadLabel(workload) << ")\n\n";
    TextTable table({"variant", "unfairness", "weighted-speedup",
                     "hmean-speedup"});

    controllerRow(table, "baseline", base, workload);
    {
        SimConfig c = base;
        c.memory.controller.rowProtection = false;
        controllerRow(table, "no row protection", c, workload);
    }
    {
        SimConfig c = base;
        c.memory.xorBankMapping = false;
        controllerRow(table, "linear bank mapping", c, workload);
    }
    {
        SimConfig c = base;
        c.memory.controller.refreshEnabled = true;
        controllerRow(table, "with auto-refresh", c, workload);
    }
    for (const unsigned banks : {4u, 16u}) {
        SimConfig c = base;
        c.memory.banksPerChannel = banks;
        controllerRow(table, std::to_string(banks) + " banks", c,
                      workload);
    }
    table.print(std::cout);
    return 0;
}

} // namespace figures
} // namespace stfm
