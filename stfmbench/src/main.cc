/**
 * @file
 * stfmbench: end-to-end and per-layer benchmark of the STFM simulator.
 *
 *   stfmbench --workload fig09|fig11-8core|low16 [--seed N]
 *             [--seconds S] [--trace 0|1] [--budget N] [--commit ID]
 *   stfmbench --workload NAME [--seed N] --print-plan
 *
 * --trace 0 repeats a block of set-ups + one sweep (at least 3 times,
 * more while the next one and a closing block fit in S seconds from the
 * start) and reports the end-to-end metrics as medians over the sweeps,
 * every host time scaled to the reference speed (see speed.hh).
 * --trace 1 runs one untimed sweep, one traced sweep and the layer
 * probes, and reports the per-layer metrics. Either way the last line
 * of stdout is one JSON object {"correct", "attempted", "failed",
 * "metrics"}; earlier lines give the host fingerprint and every metric
 * by name and unit. The exit code is 1 when a correctness check
 * failed and 2 on a usage or set-up error (no result line then).
 * See stfmbench/README.md for the metrics and why each workload exists.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "probes.hh"
#include "speed.hh"
#include "sweep.hh"
#include "workloads.hh"

extern char **environ;

namespace
{

using namespace stfm;
using namespace stfmbench;
using Clock = std::chrono::steady_clock;

/** Sweeps per timed run, at least; more while they fit in --seconds. */
constexpr std::size_t kMinSweeps = 3;
/** Set-ups in each block behind setup_s. A block runs before every
    sweep (its last set-up's runner runs the sweep) and after the last. */
constexpr std::size_t kSetupsPerBlock = 5;

struct Options
{
    const BenchWorkload *workload = nullptr;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::uint64_t budget = 0;
    std::string commit = "unknown";
    bool printPlan = false;
};

[[noreturn]] void
usage(const std::string &problem)
{
    std::fprintf(stderr,
                 "stfmbench: %s\nusage: stfmbench --workload "
                 "fig09|fig11-8core|low16 [--seed N] [--seconds S] "
                 "[--trace 0|1] [--budget N] [--commit ID] "
                 "[--print-plan]\n",
                 problem.c_str());
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno || end == text || *end || text[0] == '-')
        usage("bad value for " + flag + ": " + text);
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--print-plan") {
            o.printPlan = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const char *value = argv[++i];
        if (arg == "--workload") {
            o.workload = findBenchWorkload(value);
            if (!o.workload)
                usage(std::string("unknown workload ") + value);
        } else if (arg == "--seed") {
            o.seed = parseUint(arg, value);
        } else if (arg == "--seconds") {
            o.seconds = static_cast<double>(parseUint(arg, value));
        } else if (arg == "--trace") {
            o.trace = parseUint(arg, value) != 0;
        } else if (arg == "--budget") {
            o.budget = parseUint(arg, value);
        } else if (arg == "--commit") {
            o.commit = value;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (!o.workload)
        usage("--workload is required");
    return o;
}

/** Runs must not pick up STFM_* knobs from the caller's environment. */
void
clearStfmEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "STFM_", 5) == 0) {
            const char *eq = std::strchr(*e, '=');
            names.emplace_back(*e, eq ? eq - *e : std::strlen(*e));
        }
    }
    for (const std::string &name : names)
        unsetenv(name.c_str());
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

Json
hostFingerprint(const Options &o)
{
    Json host = Json::object();
    host.set("cpu_model", cpuModel());
    host.set("nproc", std::thread::hardware_concurrency());
#if defined(__clang__)
    host.set("compiler", "Clang " __clang_version__);
#elif defined(__GNUC__)
    host.set("compiler", "GCC " __VERSION__);
#else
    host.set("compiler", "unknown");
#endif
    host.set("cxx_flags", STFMBENCH_CXX_FLAGS);
    host.set("build_type", STFMBENCH_BUILD_TYPE);
    host.set("lto", STFMBENCH_LTO != 0);
    host.set("commit", o.commit);
    host.set("workload", o.workload->name);
    host.set("workers", o.workload->workers);
    return host;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/**
 * Harrell-Davis estimate of quantile @p q: the mean of all order
 * statistics weighted by the Beta(q(n+1), (1-q)(n+1)) density at their
 * ranks. Per-run host times are bimodal (light and intensive mixes) and
 * the median rank falls in the gap between the modes, where a single
 * order statistic jumps whenever one run crosses it: on fig09 over
 * seeds 1-7 the interpolated p50 had a quartile spread of 15 %, this
 * estimate 7 %. Set-up times are bimodal too: the host's speed flips
 * between two levels about 40 % apart for seconds at a time, so the
 * plain median of a run's set-ups takes whichever level held longer.
 */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto n = static_cast<double>(v.size());
    const double a = q * (n + 1);
    const double b = (1 - q) * (n + 1);
    std::vector<double> log_weight(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
        const double x = (static_cast<double>(i) + 0.5) / n;
        log_weight[i] = (a - 1) * std::log(x) + (b - 1) * std::log1p(-x);
    }
    const double top =
        *std::max_element(log_weight.begin(), log_weight.end());
    double sum = 0, weighted = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
        const double w = std::exp(log_weight[i] - top);
        sum += w;
        weighted += w * v[i];
    }
    return weighted / sum;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Collects metrics in print order, each with its unit. */
class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        Json m = Json::object();
        m.set("value", value);
        m.set("unit", unit);
        metrics_.set(name, std::move(m));
        std::printf("  %-34s %.6g %s\n", name.c_str(), value, unit.c_str());
    }

    /** Count one failed run (also printed). */
    void
    fail(const std::string &why)
    {
        ++failed_;
        std::printf("  FAILED: %s\n", why.c_str());
    }

    void attempt(std::uint64_t runs) { attempted_ += runs; }
    bool correct() const { return failed_ == 0; }

    /** The final stdout line. */
    void
    finish()
    {
        std::printf("  %-34s %.6g (%llu of %llu runs)\n", "failed_frac",
                    attempted_ ? static_cast<double>(failed_) /
                                     static_cast<double>(attempted_)
                               : 0.0,
                    static_cast<unsigned long long>(failed_),
                    static_cast<unsigned long long>(attempted_));
        Json out = Json::object();
        out.set("correct", correct());
        out.set("attempted", attempted_);
        out.set("failed", failed_);
        out.set("metrics", metrics_);
        std::printf("%s\n", out.dump().c_str());
        std::fflush(stdout);
    }

  private:
    Json metrics_ = Json::object();
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Count the sweep's bad runs into @p report. */
void
checkRuns(const Sweep &sweep, const ExperimentPlan &plan, Report &report)
{
    report.attempt(sweep.outcomes.size());
    for (std::size_t i = 0; i < sweep.outcomes.size(); ++i) {
        const std::string problem = runProblem(sweep.outcomes[i]);
        if (!problem.empty()) {
            report.fail(formatMessage(
                "job %zu (%s, %s): %s", i,
                workloadLabel(plan.jobs[i].workload).c_str(),
                toString(plan.jobs[i].scheduler.kind), problem.c_str()));
        }
    }
}

void
printPlan(const Options &o)
{
    const ExperimentPlan plan =
        planExperiment(buildSpec(*o.workload, o.seed, o.budget));
    Json mixes = Json::array();
    for (const Workload &w : plan.workloads) {
        Json mix = Json::array();
        for (const std::string &b : w)
            mix.push(b);
        mixes.push(std::move(mix));
    }
    Json salts = Json::array();
    for (unsigned r = 0; r < plan.spec.repeat; ++r)
        salts.push(plan.spec.seed + r);
    Json out = Json::object();
    out.set("workload", o.workload->name);
    out.set("seed", o.seed);
    out.set("budget", plan.base.instructionBudget);
    out.set("runs", static_cast<std::uint64_t>(plan.jobs.size()));
    out.set("mixes", std::move(mixes));
    out.set("salts", std::move(salts));
    std::printf("%s\n", out.dump().c_str());
}

/** One measured set-up + sweep. */
struct Rep
{
    double setup = 0;
    double sweep = 0;
    double instructions = 0; ///< Threads x budget, summed over runs.
    double dramCycles = 0;
    /** What the rep's host times are multiplied by (see speedScale). */
    double scale = 1;
};

/**
 * kReferenceLapSeconds over the median lap @p sampler timed in
 * [@p from, @p to]: multiplying a host time taken in that interval by
 * it gives the time at the reference speed. With fewer than
 * @p min_laps laps in the interval, @p otherwise.
 */
double
speedScale(SpeedSampler &sampler, Clock::time_point from,
           Clock::time_point to, std::size_t min_laps, double otherwise)
{
    const auto [lap, laps] = sampler.lapBetween(from, to);
    return laps >= min_laps && lap > 0 ? kReferenceLapSeconds / lap
                                       : otherwise;
}

void
runTimed(const Options &o, Report &report)
{
    const auto start = Clock::now();
    const auto elapsed = [&] {
        return std::chrono::duration<double>(Clock::now() - start).count();
    };

    SpeedSampler sampler;
    std::vector<Rep> reps;
    std::vector<double> setups; // Scaled, like every time below.
    double block_seconds = 0; // Host seconds of the latest set-up block.
    const auto setup_block = [&] {
        const auto block_start = Clock::now();
        Setup setup;
        for (std::size_t k = 0; k < kSetupsPerBlock; ++k) {
            setup = prepare(*o.workload, o.seed, o.budget);
            setups.push_back(setup.seconds);
        }
        block_seconds = std::chrono::duration<double>(Clock::now() -
                                                      block_start)
                            .count();
        return setup;
    };
    const auto scale_setups = [&](std::size_t from, double scale) {
        for (std::size_t k = from; k < setups.size(); ++k)
            setups[k] *= scale;
    };
    std::vector<double> raw_sweeps, run_seconds;
    Setup first_setup;
    Sweep first;
    double rep_seconds = 0; // Host seconds of the latest block + sweep.
    do {
        const auto rep_start = Clock::now();
        const std::size_t first_of_block = setups.size();
        Setup setup = setup_block();
        Sweep sweep = runSweep(setup);
        const auto rep_end = Clock::now();
        rep_seconds =
            std::chrono::duration<double>(rep_end - rep_start).count();

        Rep rep;
        // A rep lasts seconds, so the sampler timed laps during it; a
        // lap timed here covers a rep too short for one.
        rep.scale = speedScale(sampler, rep_start, rep_end, 1,
                               kReferenceLapSeconds / referenceLap());
        scale_setups(first_of_block, rep.scale);
        rep.setup = setup.seconds * rep.scale;
        rep.sweep = sweep.seconds * rep.scale;
        raw_sweeps.push_back(sweep.seconds);
        const SimConfig &base = setup.plan.base;
        for (const RunOutcome &outcome : sweep.outcomes) {
            rep.instructions += static_cast<double>(
                outcome.shared.threads.size() * base.instructionBudget);
            rep.dramCycles += static_cast<double>(
                outcome.shared.totalCycles / base.memory.cpuPerDram());
        }
        reps.push_back(rep);
        for (const double s : sweep.runSeconds)
            run_seconds.push_back(s * rep.scale);

        checkRuns(sweep, setup.plan, report);
        if (reps.size() == 1) {
            // Once, right after the first sweep, so its cost is spent
            // before deciding how many more sweeps fit in --seconds.
            const std::vector<std::string> mismatches =
                referenceCheck(setup, sweep);
            report.attempt(referenceSubset(setup.plan).size());
            for (const std::string &m : mismatches)
                report.fail(m);
            first_setup = std::move(setup);
            first = std::move(sweep);
            continue;
        }
        for (std::size_t i = 0; i < sweep.outcomes.size(); ++i) {
            if (!sameOutcome(sweep.outcomes[i], first.outcomes[i]))
                report.fail(formatMessage(
                    "job %zu differs between repeated sweeps", i));
        }
    } while (reps.size() < kMinSweeps ||
             elapsed() + rep_seconds + block_seconds <= o.seconds);
    const auto close_start = Clock::now();
    const std::size_t first_of_close = setups.size();
    setup_block();
    // The closing block is short: below 3 laps of its own it takes the
    // last rep's speed.
    scale_setups(first_of_close,
                 speedScale(sampler, close_start, Clock::now(), 3,
                            reps.back().scale));

    const ExperimentPlan &plan = first_setup.plan;
    ExperimentResult result = resultFromPlan(plan);
    result.outcomes = first.outcomes;
    aggregateOutcomes(result);
    const SweepSummary &stfm = result.aggregates[stfmIndex(plan)].summary;
    const double unfairness = stfm.unfairness.value();
    const double speedup = stfm.weightedSpeedup.value();
    if (!std::isfinite(unfairness) || !std::isfinite(speedup) ||
        unfairness < 1.0 || speedup <= 0.0)
        report.fail("STFM GMEANs are not valid numbers");

    std::printf("%s seed %llu: %zu mixes x %zu schedulers = %zu runs, "
                "budget %llu, %u worker(s); %zu sweeps, %zu set-ups\n",
                o.workload->name.c_str(),
                static_cast<unsigned long long>(o.seed), plan.rows(),
                plan.jobsPerRow(), plan.jobs.size(),
                static_cast<unsigned long long>(plan.base.instructionBudget),
                o.workload->workers, reps.size(), setups.size());

    std::vector<double> wall, kips, mcycles;
    std::printf("  each sweep simulates %.0f DRAM cycles\n  host s per "
                "sweep:",
                reps.front().dramCycles);
    for (const double s : raw_sweeps)
        std::printf(" %.3f", s);
    std::printf("\n  speed scale per sweep (%.1f ms reference lap / "
                "median lap):",
                kReferenceLapSeconds * 1e3);
    for (const Rep &r : reps)
        std::printf(" %.3f", r.scale);
    std::printf("\n  scaled s per set-up:");
    for (const double s : setups)
        std::printf(" %.4f", s);
    std::printf("\n");
    for (const Rep &r : reps) {
        wall.push_back(r.setup + r.sweep);
        kips.push_back(r.instructions / r.sweep / 1e3);
        mcycles.push_back(r.dramCycles / r.sweep / 1e6);
    }
    std::printf("  (host times at the reference speed; setup_s and "
                "run_s.*: Harrell-Davis quantiles over %zu set-ups and "
                "%zu runs)\n",
                setups.size(), run_seconds.size());
    report.add("wall_s", median(wall), "s");
    report.add("setup_s", quantile(setups, 0.50), "s");
    report.add("sim_kips", median(kips), "kinst/s");
    report.add("dram_mcycles_per_s", median(mcycles), "Mcycles/s");
    report.add("run_s.p50", quantile(run_seconds, 0.50), "s");
    report.add("run_s.p75", quantile(run_seconds, 0.75), "s");
    report.add("peak_rss_mb", peakRssMb(), "MiB");
    report.add("unfairness.stfm", unfairness, "ratio");
    report.add("weighted_speedup.stfm", speedup, "ratio");
}

const char *
policyMetricName(PolicyKind kind)
{
    switch (kind) {
    case PolicyKind::FrFcfs: return "frfcfs";
    case PolicyKind::Fcfs: return "fcfs";
    case PolicyKind::FrFcfsCap: return "cap";
    case PolicyKind::Nfq: return "nfq";
    case PolicyKind::Stfm: return "stfm";
    }
    return "unknown";
}

void
runTraced(const Options &o, Report &report)
{
    Setup setup = prepare(*o.workload, o.seed, o.budget);
    const ExperimentPlan &plan = setup.plan;
    const Sweep plain = runSweep(setup);
    checkRuns(plain, plan, report);
    const TracedSweep traced = runTracedSweep(setup);
    report.attempt(traced.runs.size());

    // Sums over the traced runs.
    double sim_s = 0, next_s = 0;
    std::uint64_t next_calls = 0, dram_cycles = 0, cpu_cycles = 0;
    std::uint64_t channel_cycles = 0, channel_reads = 0, activates = 0;
    std::uint64_t bus_busy = 0, toggles = 0, hot_grants = 0;
    std::uint64_t instructions = 0, cycles = 0, stall = 0, l2_misses = 0;
    std::uint64_t reads = 0, writes = 0, row_hits = 0, row_accesses = 0;
    LatencyHistogram latency;
    for (std::size_t i = 0; i < traced.runs.size(); ++i) {
        const TracedRun &r = traced.runs[i];
        if (!r.error.empty()) {
            report.fail(
                formatMessage("traced job %zu: %s", i, r.error.c_str()));
            continue;
        }
        if (!sameResult(r.result, plain.outcomes[i].shared))
            report.fail(formatMessage(
                "traced job %zu differs from the untraced run", i));
        sim_s += r.simSeconds;
        next_s += r.nextSeconds;
        next_calls += r.nextCalls;
        dram_cycles += r.dramCycles;
        cpu_cycles += r.result.totalCycles;
        channel_cycles += r.dramCycles * r.channels;
        channel_reads += r.channelReads;
        activates += r.activates;
        bus_busy += r.busBusyCycles;
        toggles += r.fairnessToggles;
        hot_grants += r.hotGrants;
        latency.merge(r.readLatency);
        for (const ThreadResult &t : r.result.threads) {
            instructions += t.instructions;
            cycles += t.cycles;
            stall += t.memStallCycles;
            l2_misses += t.l2Misses;
            reads += t.dramReads;
            writes += t.dramWrites;
            row_hits += t.rowHits;
            row_accesses += t.rowHits + t.rowClosed + t.rowConflicts;
        }
    }
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    ProbeShape shape;
    shape.base = plan.base;
    shape.mix = plan.workloads.front();
    for (const SchedulerEntry &entry : plan.schedulers)
        shape.schedulers.push_back(entry.config);
    // Little's law: reads in a channel = arrival rate x mean latency.
    shape.readLatencyDram = std::max(latency.mean(), 1.0);
    shape.queueDepth = ratio(static_cast<double>(channel_reads),
                             static_cast<double>(channel_cycles)) *
                       shape.readLatencyDram;
    shape.rowHitFrac = ratio(static_cast<double>(row_hits),
                             static_cast<double>(row_accesses));
    shape.writeShare = ratio(static_cast<double>(writes),
                             static_cast<double>(reads + writes));
    shape.seed = o.seed;
    const ProbeResults probes = runProbes(shape);

    std::printf("%s seed %llu: %zu runs, %u worker(s); traced layer "
                "split and probes\n",
                o.workload->name.c_str(),
                static_cast<unsigned long long>(o.seed), plan.jobs.size(),
                o.workload->workers);
    const double busy = std::accumulate(plain.runSeconds.begin(),
                                        plain.runSeconds.end(), 0.0);
    report.add("harness.alone.runs", setup.aloneRuns, "count");
    report.add("harness.alone.s", setup.aloneSeconds, "s");
    report.add("harness.pool.busy_frac",
               ratio(busy, plan.spec.jobs * plain.seconds), "fraction");
    report.add("sim.run.s", sim_s, "s");
    report.add("sim.ns_per_dram_cycle",
               ratio(sim_s * 1e9, static_cast<double>(dram_cycles)), "ns");
    report.add("sim.dram_cycles", static_cast<double>(dram_cycles),
               "dram_cycles");
    report.add("sim.cpu_cycles", static_cast<double>(cpu_cycles),
               "cpu_cycles");
    report.add("trace.next.calls", static_cast<double>(next_calls), "count");
    report.add("trace.next.s", next_s, "s");
    report.add("trace.overhead_frac",
               ratio(traced.seconds - plain.seconds, plain.seconds),
               "fraction");
    report.add("cpu.l2_mpki",
               ratio(1e3 * static_cast<double>(l2_misses),
                     static_cast<double>(instructions)),
               "per_kinst");
    report.add("cpu.stall_frac",
               ratio(static_cast<double>(stall), static_cast<double>(cycles)),
               "fraction");
    report.add("cpu.probe.ns_per_inst", probes.nsPerInst, "ns");
    report.add("cpu.probe.ns_per_cache_access", probes.nsPerCacheAccess,
               "ns");
    report.add("cpu.probe.ns_per_mshr_op", probes.nsPerMshrOp, "ns");
    report.add("mem.reads", static_cast<double>(reads), "count");
    report.add("mem.writes", static_cast<double>(writes), "count");
    report.add("mem.write_share", shape.writeShare, "fraction");
    report.add("mem.row_hit_frac", shape.rowHitFrac, "fraction");
    report.add("mem.read_latency_p50",
               static_cast<double>(latency.quantile(0.5)), "dram_cycles");
    report.add("mem.read_latency_mean", latency.mean(), "dram_cycles");
    report.add("mem.queue_depth", shape.queueDepth, "requests");
    report.add("mem.probe.ns_per_tick",
               std::accumulate(probes.nsPerTick.begin(),
                               probes.nsPerTick.end(), 0.0) /
                   static_cast<double>(probes.nsPerTick.size()),
               "ns");
    for (std::size_t s = 0; s < plan.schedulers.size(); ++s)
        report.add(std::string("sched.probe.ns_per_tick.") +
                       policyMetricName(plan.schedulers[s].config.kind),
                   probes.nsPerTick[s], "ns");
    report.add("core.stfm.fairness_toggles", static_cast<double>(toggles),
               "count");
    report.add("core.stfm.hot_grants", static_cast<double>(hot_grants),
               "count");
    report.add("core.probe.ns_per_begin_cycle", probes.nsPerBeginCycle,
               "ns");
    report.add("dram.bus_util",
               ratio(static_cast<double>(bus_busy),
                     static_cast<double>(channel_cycles)),
               "fraction");
    report.add("dram.activates", static_cast<double>(activates), "count");
    report.add("dram.probe.ns_per_earliest_issue", probes.nsPerEarliestIssue,
               "ns");
    report.add("dram.probe.ns_per_issue", probes.nsPerIssue, "ns");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseArgs(argc, argv);
    clearStfmEnvironment();
    try {
        if (options.printPlan) {
            printPlan(options);
            return 0;
        }
        std::printf("host %s\n", hostFingerprint(options).dump().c_str());
        Report report;
        if (options.trace)
            runTraced(options, report);
        else
            runTimed(options, report);
        report.finish();
        return report.correct() ? 0 : 1;
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "stfmbench: %s\n", e.what());
        return 2;
    }
}
