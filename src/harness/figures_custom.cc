/**
 * @file
 * The custom figure harnesses — figures whose structure does not fit
 * the declarative (workload x scheduler) experiment grid: fig01's two
 * core counts, the fig03 idleness schedule (hand-built staggered
 * traces), the alone-run calibration tables, table5's geometry grid
 * and the controller ablations. Each is reached as `stfm <name>`
 * through the registry in figures.cc.
 */

#include "harness/figures.hh"

#include <algorithm>
#include <iostream>
#include <memory>

#include "harness/env_overrides.hh"
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
    base.instructionBudget = 60000;
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
    // The run flags (--instructions, --device, --check, --reference)
    // reach this harness only through the environment.
    EnvOverrides::capture().apply(config);
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
    base.instructionBudget = 60000;
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
                   const std::vector<Workload> &workload_list)
{
    SimConfig base = SimConfig::baseline(8);
    base.memory.banksPerChannel = banks;
    base.memory.rowBytes = row_bytes;
    base.instructionBudget = 40000;
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

    std::cout << "Table 5: sensitivity to DRAM banks and row-buffer "
                 "size (8-core sweep, "
              << workload_list.size() << " workloads)\n\n";

    std::cout << "-- DRAM banks (16 KB effective rows) --\n";
    for (const unsigned banks : {4u, 8u, 16u}) {
        sensitivityReport("banks", std::to_string(banks),
                          measureSensitivity(banks, 16 * 1024, workload_list));
    }
    std::cout << "\n-- Row-buffer size (8 banks) --\n";
    for (const std::uint64_t row : {8u * 1024, 16u * 1024, 32u * 1024}) {
        sensitivityReport("row", std::to_string(row / 1024) + "KB",
                          measureSensitivity(8, row, workload_list));
    }
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
    base.instructionBudget = 50000;
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
