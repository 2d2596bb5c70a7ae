#include "harness/runner.hh"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/logging.hh"
#include "harness/env_overrides.hh"
#include "sim/device_io.hh"

namespace stfm
{

ExperimentRunner::ExperimentRunner(SimConfig base) : base_(std::move(base))
{
    EnvOverrides::capture().apply(base_);
}

void
ExperimentRunner::setMaxAttempts(unsigned attempts)
{
    maxAttempts_ = attempts > 0 ? attempts : 1;
}

SimConfig
ExperimentRunner::configFor(const Workload &workload,
                            const SchedulerConfig &scheduler,
                            const std::string &device) const
{
    SimConfig config = base_;
    config.cores = static_cast<unsigned>(workload.size());
    config.scheduler = scheduler;
    if (!device.empty())
        applyDevice(config.memory, device);
    return config;
}

void
ExperimentRunner::addBenchmark(const std::string &name,
                               const BenchmarkProfile &profile)
{
    // Same-mutex rule as the alone cache: registration and lookup are
    // serialized, so concurrent runMany() workers can never observe a
    // half-inserted map node (runner.hh's catalog contract).
    std::lock_guard<std::mutex> guard(catalogMutex_);
    customBenchmarks_[name] = profile;
}

const BenchmarkProfile &
ExperimentRunner::profileFor(const std::string &name) const
{
    {
        std::lock_guard<std::mutex> guard(catalogMutex_);
        const auto it = customBenchmarks_.find(name);
        if (it != customBenchmarks_.end())
            return it->second;
    }
    return findBenchmark(name);
}

std::string
ExperimentRunner::aloneKey(const std::string &benchmark,
                           const std::string &device) const
{
    std::string key = benchmark + "#" +
                      std::to_string(base_.memory.channels) + "x" +
                      std::to_string(base_.memory.banksPerChannel) + "x" +
                      std::to_string(base_.memory.rowBytes) + "@" +
                      std::to_string(base_.instructionBudget);
    if (!device.empty())
        key += "+" + device;
    return key;
}

const ThreadResult &
ExperimentRunner::aloneResult(const std::string &benchmark,
                              const std::string &device)
{
    const std::string key = aloneKey(benchmark, device);
    // Held across the miss-path simulation: see aloneCache_'s comment.
    std::lock_guard<std::mutex> guard(aloneMutex_);
    const auto it = aloneCache_.find(key);
    if (it != aloneCache_.end())
        return it->second;

    // Alone baseline: the benchmark runs by itself on the same memory
    // system with FR-FCFS (Section 6.2). Observability stays off for
    // baselines — their documents would shadow the shared run's, and
    // the baseline is memoized across runs with different settings.
    SimConfig config = base_;
    config.cores = 1;
    config.scheduler = SchedulerConfig{}; // FR-FCFS, no knobs.
    config.telemetry = TelemetryConfig{};
    if (!device.empty())
        applyDevice(config.memory, device);

    const BenchmarkProfile &profile = profileFor(benchmark);
    AddressMapping mapping(config.memory.channels,
                           config.memory.banksPerChannel,
                           config.memory.rowBytes, config.memory.lineBytes,
                           config.memory.rowsPerBank,
                           config.memory.xorBankMapping,
                           config.memory.bankGroups);
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(makeBenchmarkTrace(profile, mapping, 0, 1));

    CmpSystem system(config, std::move(traces));
    const SimResult result = system.run();
    if (result.hitCycleLimit) {
        throw SimError(formatMessage(
            "alone run of '%s' hit the cycle limit", benchmark.c_str()));
    }
    return aloneCache_.emplace(key, result.threads[0]).first->second;
}

void
ExperimentRunner::seedAloneBaseline(const std::string &key,
                                    const ThreadResult &result)
{
    std::lock_guard<std::mutex> guard(aloneMutex_);
    aloneCache_.emplace(key, result);
}

std::map<std::string, ThreadResult>
ExperimentRunner::aloneSnapshot() const
{
    std::lock_guard<std::mutex> guard(aloneMutex_);
    return aloneCache_;
}

void
ExperimentRunner::setAttemptHook(
    std::function<void(const Workload &, unsigned)> hook)
{
    attemptHook_ = std::move(hook);
}

RunOutcome
ExperimentRunner::attemptRun(const Workload &workload,
                             const SchedulerConfig &scheduler,
                             std::uint64_t seed_salt, unsigned attempt,
                             const std::string &device)
{
    if (attemptHook_)
        attemptHook_(workload, attempt);
    const SimConfig config = configFor(workload, scheduler, device);

    AddressMapping mapping(config.memory.channels,
                           config.memory.banksPerChannel,
                           config.memory.rowBytes, config.memory.lineBytes,
                           config.memory.rowsPerBank,
                           config.memory.xorBankMapping,
                           config.memory.bankGroups);
    std::vector<std::unique_ptr<TraceSource>> traces;
    for (unsigned t = 0; t < workload.size(); ++t) {
        traces.push_back(makeBenchmarkTrace(profileFor(workload[t]),
                                            mapping, t, config.cores,
                                            seed_salt));
    }

    CmpSystem system(config, std::move(traces));

    RunOutcome outcome;
    outcome.policyName = system.memory().policy().name();
    outcome.shared = system.run();
    if (const ObsSession *obs = system.obs()) {
        if (obs->hasTelemetryDoc())
            outcome.telemetry = obs->telemetryJson();
        if (obs->hasTraceDoc())
            outcome.trace = obs->traceJson();
    }

    std::vector<ThreadResult> alone;
    alone.reserve(workload.size());
    for (const auto &name : workload)
        alone.push_back(aloneResult(name, device));
    outcome.metrics = computeMetrics(outcome.shared, alone);
    return outcome;
}

RunOutcome
ExperimentRunner::run(const Workload &workload,
                      const SchedulerConfig &scheduler,
                      std::uint64_t seed_salt, const std::string &device)
{
    RunOutcome outcome;
    for (unsigned attempt = 1; attempt <= maxAttempts_; ++attempt) {
        try {
            // The base salt on the first attempt (0 = the canonical
            // trace streams); retries reseed on top of it.
            outcome = attemptRun(workload, scheduler,
                                 seed_salt + (attempt - 1), attempt,
                                 device);
            outcome.attempts = attempt;
            return outcome;
        } catch (const SimError &e) {
            outcome.failed = true;
            outcome.error = e.what();
        } catch (const std::exception &e) {
            outcome.failed = true;
            outcome.error = e.what();
        }
        outcome.attempts = attempt;
    }
    // All attempts failed; name the policy for report rows anyway.
    outcome.policyName = toString(scheduler.kind);
    return outcome;
}

unsigned
ExperimentRunner::defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return EnvOverrides::capture().jobsOr(hw > 0 ? hw : 1);
}

std::vector<RunOutcome>
ExperimentRunner::runMany(const std::vector<RunJob> &jobs,
                          unsigned threads)
{
    std::vector<RunOutcome> out(jobs.size());
    if (jobs.empty())
        return out;
    if (threads == 0)
        threads = defaultJobs();
    threads = static_cast<unsigned>(
        std::min<std::size_t>(threads, jobs.size()));

    // Self-scheduling work queue: workers claim the next unclaimed job
    // index and write its outcome into the matching output slot, so
    // results always land in job order no matter which worker ran
    // what, or in what order they finished. run() never throws for
    // run-level failures, so a worker can only stop early on
    // std::bad_alloc-class catastrophes — not worth a recovery path.
    std::atomic<std::size_t> next{0};
    const auto worker = [&]() {
        for (std::size_t i = next.fetch_add(1); i < jobs.size();
             i = next.fetch_add(1)) {
            out[i] = run(jobs[i].workload, jobs[i].scheduler,
                         jobs[i].seedSalt, jobs[i].device);
        }
    };

    if (threads == 1) {
        worker();
        return out;
    }
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();
    return out;
}

std::vector<SchedulerConfig>
ExperimentRunner::paperSchedulers()
{
    std::vector<SchedulerConfig> out(5);
    out[0].kind = PolicyKind::FrFcfs;
    out[1].kind = PolicyKind::Fcfs;
    out[2].kind = PolicyKind::FrFcfsCap;
    out[2].cap = 4;
    out[3].kind = PolicyKind::Nfq;
    out[4].kind = PolicyKind::Stfm;
    out[4].alpha = 1.10;
    return out;
}

} // namespace stfm
