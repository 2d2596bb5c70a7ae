#include "sweep.hh"

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "core/stfm.hh"
#include "sim/device_io.hh"
#include "sim/system.hh"
#include "trace/catalog.hh"

namespace stfmbench
{

using namespace stfm;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Run body(i) for every i < jobs on @p workers threads that claim the
 * next unclaimed index. Returns the host seconds of the whole pass.
 * @p body must not throw.
 */
template <typename Body>
double
runPool(std::size_t jobs, unsigned workers, Body body)
{
    std::atomic<std::size_t> next{0};
    const auto worker = [&]() {
        for (std::size_t i = next.fetch_add(1); i < jobs;
             i = next.fetch_add(1))
            body(i);
    };
    const auto start = Clock::now();
    if (workers <= 1) {
        worker();
    } else {
        std::vector<std::jthread> pool;
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(worker);
    }
    return secondsSince(start);
}

/**
 * Per-run host times taken from ExperimentRunner's attempt hook.
 * runMany keeps a job on one worker thread from its first attempt to
 * its result, so a run lasts from its first attempt's hook call to the
 * next hook call on the same thread that is a first attempt or an end
 * marker (see runSweep). A run still open at finish() ends there.
 */
class RunClock
{
  public:
    /** The attempt hook for a real job. */
    void
    attempt(unsigned number)
    {
        if (number == 1)
            lap(true);
    }

    /** The attempt hook for an end marker: the thread's runs are done. */
    void end() { lap(false); }

    /** Close every open run at @p end; the runs' seconds. */
    std::vector<double>
    finish(Clock::time_point end)
    {
        for (const auto &[thread, start] : open_)
            done_.push_back(
                std::chrono::duration<double>(end - start).count());
        open_.clear();
        return std::move(done_);
    }

  private:
    /** Close this thread's open run, if any; open a new one if @p next. */
    void
    lap(bool next)
    {
        const auto now = Clock::now();
        std::lock_guard<std::mutex> guard(mutex_);
        const auto it = open_.find(std::this_thread::get_id());
        if (it != open_.end()) {
            done_.push_back(
                std::chrono::duration<double>(now - it->second).count());
            open_.erase(it);
        }
        if (next)
            open_.emplace(std::this_thread::get_id(), now);
    }

    std::mutex mutex_;
    std::map<std::thread::id, Clock::time_point> open_;
    std::vector<double> done_;
};

/** Host time and call count of a run's TraceSource::next calls. */
struct NextClock
{
    std::uint64_t calls = 0;
    Clock::duration busy{};
};

/** Decorator that times every next() of the source it wraps. */
class TimedTrace : public TraceSource
{
  public:
    TimedTrace(std::unique_ptr<TraceSource> inner, NextClock &clock)
        : inner_(std::move(inner)), clock_(clock)
    {}

    TraceOp
    next() override
    {
        const auto start = Clock::now();
        const TraceOp op = inner_->next();
        clock_.busy += Clock::now() - start;
        ++clock_.calls;
        return op;
    }

    void
    warmupFootprint(std::size_t lines, std::vector<WarmLine> &out) override
    {
        inner_->warmupFootprint(lines, out);
    }

  private:
    std::unique_ptr<TraceSource> inner_;
    NextClock &clock_;
};

/** The configuration ExperimentRunner::run derives for @p job. */
SimConfig
jobConfig(const SimConfig &base, const RunJob &job)
{
    SimConfig config = base;
    config.cores = static_cast<unsigned>(job.workload.size());
    config.scheduler = job.scheduler;
    if (!job.device.empty())
        applyDevice(config.memory, job.device);
    return config;
}

TracedRun
tracedRun(const SimConfig &base, const RunJob &job)
{
    const SimConfig config = jobConfig(base, job);
    const MemoryConfig &m = config.memory;
    const AddressMapping mapping(m.channels, m.banksPerChannel, m.rowBytes,
                                 m.lineBytes, m.rowsPerBank,
                                 m.xorBankMapping, m.bankGroups);
    NextClock clock;
    std::vector<std::unique_ptr<TraceSource>> traces;
    for (unsigned t = 0; t < config.cores; ++t) {
        traces.push_back(std::make_unique<TimedTrace>(
            makeBenchmarkTrace(findBenchmark(job.workload[t]), mapping, t,
                               config.cores, job.seedSalt),
            clock));
    }
    CmpSystem system(config, std::move(traces));

    TracedRun out;
    const auto start = Clock::now();
    out.result = system.run();
    out.simSeconds = secondsSince(start);
    out.nextCalls = clock.calls;
    out.nextSeconds = std::chrono::duration<double>(clock.busy).count();

    const MemorySystem &memory = system.memory();
    out.dramCycles = memory.dramNow();
    out.channels = m.channels;
    for (unsigned c = 0; c < m.channels; ++c) {
        const ChannelStats &s = memory.controller(c).channel().stats();
        out.channelReads += s.reads;
        out.activates += s.activates;
        out.busBusyCycles += s.dataBusBusyCycles;
    }
    for (unsigned t = 0; t < config.cores; ++t)
        out.readLatency.merge(memory.readLatency(t));
    if (const auto *stfm =
            dynamic_cast<const StfmPolicy *>(&memory.policy())) {
        out.fairnessToggles = stfm->fairnessModeToggles();
        out.hotGrants = stfm->hotGrants();
    }
    return out;
}

bool
sameThread(const ThreadResult &x, const ThreadResult &y)
{
    return x.instructions == y.instructions && x.cycles == y.cycles &&
           x.memStallCycles == y.memStallCycles &&
           x.l2Misses == y.l2Misses && x.dramReads == y.dramReads &&
           x.dramWrites == y.dramWrites && x.rowHits == y.rowHits &&
           x.rowClosed == y.rowClosed && x.rowConflicts == y.rowConflicts &&
           x.readLatencyMean == y.readLatencyMean &&
           x.readLatencyP50 == y.readLatencyP50 &&
           x.readLatencyP99 == y.readLatencyP99 &&
           x.readLatencyMax == y.readLatencyMax;
}

} // namespace

Setup
prepare(const BenchWorkload &workload, std::uint64_t seed,
        std::uint64_t budget)
{
    Setup setup;
    const auto start = Clock::now();
    setup.plan = planExperiment(buildSpec(workload, seed, budget));
    setup.runner = std::make_unique<ExperimentRunner>(setup.plan.base);
    configureRunner(*setup.runner, setup.plan);

    std::set<std::pair<std::string, std::string>> baselines;
    for (const RunJob &job : setup.plan.jobs)
        for (const std::string &name : job.workload)
            baselines.emplace(name, job.device);
    const auto alone_start = Clock::now();
    for (const auto &[name, device] : baselines)
        setup.runner->aloneResult(name, device);
    setup.aloneSeconds = secondsSince(alone_start);
    setup.aloneRuns = static_cast<unsigned>(baselines.size());
    setup.seconds = secondsSince(start);
    return setup;
}

Sweep
runSweep(Setup &setup)
{
    // One end marker per worker after the real jobs, with an empty
    // workload that no real job has. The first marker a worker claims
    // ends that worker's last run, so a worker's idle tail stays out of
    // its run times; the hook then fails the marker before it builds
    // anything.
    const unsigned workers = setup.plan.spec.jobs;
    std::vector<RunJob> jobs = setup.plan.jobs;
    jobs.insert(jobs.end(), workers, RunJob{});
    RunClock clock;
    setup.runner->setAttemptHook(
        [&clock](const Workload &workload, unsigned attempt) {
            if (!workload.empty())
                return clock.attempt(attempt);
            clock.end();
            throw SimError("end of sweep");
        });
    Sweep sweep;
    const auto start = Clock::now();
    sweep.outcomes = setup.runner->runMany(jobs, workers);
    const auto end = Clock::now();
    setup.runner->setAttemptHook(nullptr);
    sweep.outcomes.resize(setup.plan.jobs.size());
    sweep.seconds = std::chrono::duration<double>(end - start).count();
    sweep.runSeconds = clock.finish(end);
    return sweep;
}

TracedSweep
runTracedSweep(const Setup &setup)
{
    const std::vector<RunJob> &jobs = setup.plan.jobs;
    TracedSweep sweep;
    sweep.runs.resize(jobs.size());
    sweep.seconds = runPool(jobs.size(), setup.plan.spec.jobs,
                            [&](std::size_t i) {
                                try {
                                    sweep.runs[i] =
                                        tracedRun(setup.plan.base, jobs[i]);
                                } catch (const std::exception &e) {
                                    sweep.runs[i].error = e.what();
                                }
                            });
    return sweep;
}

bool
sameResult(const SimResult &a, const SimResult &b)
{
    if (a.totalCycles != b.totalCycles ||
        a.hitCycleLimit != b.hitCycleLimit ||
        a.threads.size() != b.threads.size())
        return false;
    for (std::size_t t = 0; t < a.threads.size(); ++t)
        if (!sameThread(a.threads[t], b.threads[t]))
            return false;
    return true;
}

bool
sameOutcome(const RunOutcome &a, const RunOutcome &b)
{
    const MetricsReport &x = a.metrics;
    const MetricsReport &y = b.metrics;
    return a.failed == b.failed && sameResult(a.shared, b.shared) &&
           x.slowdowns == y.slowdowns && x.relIpc == y.relIpc &&
           x.unfairness == y.unfairness &&
           x.weightedSpeedup == y.weightedSpeedup &&
           x.hmeanSpeedup == y.hmeanSpeedup && x.sumOfIpcs == y.sumOfIpcs;
}

std::string
runProblem(const RunOutcome &outcome)
{
    if (outcome.failed)
        return "failed: " + outcome.error;
    if (outcome.shared.hitCycleLimit)
        return "hit the cycle limit";
    return {};
}

std::vector<std::size_t>
referenceSubset(const ExperimentPlan &plan)
{
    const std::size_t schedulers = plan.jobsPerRow();
    const std::size_t rows = plan.rows();
    std::vector<std::size_t> subset;
    for (std::size_t s = 0; s < schedulers; ++s)
        subset.push_back((s * rows / schedulers) * schedulers + s);
    return subset;
}

std::vector<std::string>
referenceCheck(const Setup &setup, const Sweep &sweep)
{
    SimConfig base = setup.plan.base;
    base.fastForward = false;
    ExperimentRunner reference(base);
    configureRunner(reference, setup.plan);

    std::vector<std::string> problems;
    for (const std::size_t i : referenceSubset(setup.plan)) {
        const RunJob &job = setup.plan.jobs[i];
        const RunOutcome outcome = reference.run(
            job.workload, job.scheduler, job.seedSalt, job.device);
        if (!sameOutcome(outcome, sweep.outcomes[i])) {
            problems.push_back(formatMessage(
                "job %zu (%s, %s) differs on the reference path", i,
                workloadLabel(job.workload).c_str(),
                toString(job.scheduler.kind)));
        }
    }
    return problems;
}

std::size_t
stfmIndex(const ExperimentPlan &plan)
{
    for (std::size_t s = 0; s < plan.schedulers.size(); ++s)
        if (plan.schedulers[s].config.kind == PolicyKind::Stfm)
            return s;
    throw SimError("the plan has no STFM scheduler");
}

} // namespace stfmbench
