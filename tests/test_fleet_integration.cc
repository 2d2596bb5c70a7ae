/**
 * @file
 * Integration tests for supervised sharded execution: real `stfm
 * worker` subprocesses (the built CLI, named by the STFM_CLI
 * environment variable) run under runShardedExperiment, with STFM_FAULT
 * making them misbehave at exact points. The recurring assertion is
 * the tentpole acceptance bar: whatever goes wrong mid-sweep, the
 * merged stfm-results-v1 document is byte-identical to an
 * uninterrupted in-process run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>

#include "common/logging.hh"
#include "fleet/fault.hh"
#include "fleet/supervisor.hh"
#include "harness/experiment.hh"
#include "harness/spec.hh"
#include "report/rollup.hh"

namespace stfm
{
namespace fleet
{
namespace
{

constexpr const char *kSpecText = R"({
    "name": "fleet_it",
    "workloads": [["mcf", "hmmer"]],
    "schedulers": ["FR-FCFS", "STFM"],
    "budget": 4000
})";

/** Four jobs: enough shards to checkpoint two and still resume two. */
constexpr const char *kWideSpecText = R"({
    "name": "fleet_it_wide",
    "workloads": [["mcf", "h264ref"], ["mcf", "hmmer"]],
    "schedulers": ["FR-FCFS", "STFM"],
    "budget": 4000
})";

/** Worker argv for the built CLI, or empty when STFM_CLI is unset. */
std::vector<std::string>
workerArgv()
{
    const char *cli = std::getenv("STFM_CLI");
    if (!cli || !*cli)
        return {};
    return {cli, "worker"};
}

#define REQUIRE_CLI(argv)                                               \
    if ((argv).empty())                                                 \
        GTEST_SKIP() << "STFM_CLI is not set (run via ctest)";

/** Sets STFM_FAULT for spawned workers; always cleans up. */
class FaultGuard
{
  public:
    explicit FaultGuard(const char *plan)
    {
        setenv("STFM_FAULT", plan, 1);
    }
    ~FaultGuard() { unsetenv("STFM_FAULT"); }
};

/** A throwaway file under the gtest temp dir. */
class TempFile
{
  public:
    TempFile(const std::string &name, const std::string &contents)
        : path_(std::string(::testing::TempDir()) + name)
    {
        std::ofstream out(path_, std::ios::binary);
        out << contents;
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** A fresh checkpoint directory under the gtest temp dir. */
class TempDir
{
  public:
    explicit TempDir(const std::string &name)
        : path_(std::string(::testing::TempDir()) + name)
    {
        removeAll();
        ::mkdir(path_.c_str(), 0755);
    }
    ~TempDir() { removeAll(); }
    const std::string &path() const { return path_; }

  private:
    void
    removeAll()
    {
        std::remove((path_ + "/manifest.jsonl").c_str());
        std::remove((path_ + "/fleet_counters.json").c_str());
        std::remove((path_ + "/report.json").c_str());
        std::remove((path_ + "/report.html").c_str());
        ::rmdir(path_.c_str());
    }
    std::string path_;
};

FleetOptions
baseOptions()
{
    FleetOptions options;
    options.workerArgv = workerArgv();
    options.quiet = true;
    options.backoffSec = 0.01; // Tests should not sleep for real.
    options.heartbeatMs = 50;
    return options;
}

std::string
referenceBytes(const ExperimentSpec &spec)
{
    return resultsJson(runExperiment(spec)).dump();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

bool
fileExists(const std::string &path)
{
    struct stat info;
    return ::stat(path.c_str(), &info) == 0;
}

/** Exit code of `stfm <args>` (output discarded), or -1. */
int
runCli(const char *cli, const std::string &args)
{
    const int rc = std::system(
        (std::string(cli) + " " + args + " >/dev/null 2>&1").c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(FleetIntegration, CleanShardedRunIsByteIdenticalToInProcess)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    options.shards = 2;
    options.workers = 2;

    const FleetOutcome outcome = runShardedExperiment(spec, options);
    EXPECT_FALSE(outcome.interrupted);
    EXPECT_FALSE(outcome.anyFailed());
    EXPECT_EQ(outcome.stats.shardsCompleted, 2u);
    EXPECT_EQ(resultsJson(outcome.result).dump(),
              referenceBytes(spec));
}

TEST(FleetIntegration, CountersRecordPerShardWallClock)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    TempDir checkpoint("fleet_it_wallclock");
    options.checkpoint = checkpoint.path();
    options.shards = 2;
    options.workers = 2;

    const FleetOutcome outcome = runShardedExperiment(spec, options);
    EXPECT_FALSE(outcome.anyFailed());

    std::ifstream in(checkpoint.path() + "/fleet_counters.json",
                     std::ios::binary);
    ASSERT_TRUE(in.is_open());
    std::ostringstream text;
    text << in.rdbuf();
    const Json doc = Json::parse(text.str());
    EXPECT_EQ(doc.at("schema", "counters").asString(),
              "stfm-fleet-counters-v1");
    const Json &shards = doc.at("shards", "counters");
    ASSERT_EQ(shards.size(), 2u);
    std::uint64_t jobs = 0;
    for (std::size_t i = 0; i < shards.size(); ++i) {
        const Json &record = shards.at(i);
        EXPECT_EQ(record.at("shard", "record").asUint(), i);
        EXPECT_EQ(record.at("status", "record").asString(), "done");
        EXPECT_EQ(record.at("attempts", "record").asUint(), 1u);
        // Executed shards record real (possibly sub-millisecond,
        // hence >= 0 after rounding) wall clock.
        EXPECT_GE(record.at("wall_seconds", "record").asDouble(), 0.0);
        jobs += record.at("jobs", "record").asUint();
    }
    // Every (workload x scheduler) job is accounted to some shard.
    EXPECT_EQ(jobs, 2u);
}

TEST(FleetIntegration, CheckpointedRunWritesReportArtifacts)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    TempDir checkpoint("fleet_it_report");
    options.checkpoint = checkpoint.path();
    options.shards = 2;
    options.workers = 2;

    const FleetOutcome outcome = runShardedExperiment(spec, options);
    EXPECT_FALSE(outcome.anyFailed());

    // The supervisor folds shard outcomes into a stfm-report-v1
    // rollup as they complete and writes it beside the manifest.
    std::ifstream json_in(checkpoint.path() + "/report.json",
                          std::ios::binary);
    ASSERT_TRUE(json_in.is_open());
    std::ostringstream json_text;
    json_text << json_in.rdbuf();
    const Json report = Json::parse(json_text.str());
    EXPECT_EQ(report.at("schema", "report").asString(),
              "stfm-report-v1");
    EXPECT_EQ(report.at("totals", "report").at("runs", "t").asUint(),
              2u);
    EXPECT_EQ(report.at("totals", "report").at("failed", "t").asUint(),
              0u);

    std::ifstream html_in(checkpoint.path() + "/report.html",
                          std::ios::binary);
    ASSERT_TRUE(html_in.is_open());
    std::ostringstream html_text;
    html_text << html_in.rdbuf();
    EXPECT_NE(html_text.str().find("<!DOCTYPE html>"),
              std::string::npos);
    EXPECT_NE(html_text.str().find("<svg"), std::string::npos);

    // The streamed rollup is the after-the-fact rollup of the merged
    // results document; only the provenance list differs.
    report::ReportBuilder builder(spec.name);
    builder.addResultsDoc(resultsJson(outcome.result), "results.json");
    const auto withoutSources = [](Json doc) {
        doc.set("sources", Json());
        return Json::parse(doc.dump()).dump();
    };
    EXPECT_EQ(withoutSources(report), withoutSources(builder.toJson()));

    // A checkpoint that lost its report gets it back from a resume,
    // byte for byte, without simulating or appending anything.
    const std::string json_path = checkpoint.path() + "/report.json";
    const std::string html_path = checkpoint.path() + "/report.html";
    const std::string manifest_path =
        checkpoint.path() + "/manifest.jsonl";
    const std::string manifest = readFile(manifest_path);
    std::remove(json_path.c_str());
    std::remove(html_path.c_str());
    FleetOptions resume = options;
    resume.resume = true;
    const FleetOutcome again = runShardedExperiment(spec, resume);
    EXPECT_EQ(again.stats.shardsCompleted, 0u);
    EXPECT_EQ(readFile(json_path), json_text.str());
    EXPECT_EQ(readFile(html_path), html_text.str());
    EXPECT_EQ(readFile(manifest_path), manifest);
}

TEST(FleetIntegration, CrashIsRetriedToAnIdenticalResult)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    options.shards = 2;

    FaultGuard fault("crash@0");
    const FleetOutcome outcome = runShardedExperiment(spec, options);
    EXPECT_FALSE(outcome.anyFailed());
    EXPECT_GE(outcome.stats.crashes, 1u);
    EXPECT_GE(outcome.stats.retries, 1u);
    // The replay runs with identical seeds: environmental faults must
    // not perturb the simulated bytes.
    EXPECT_EQ(resultsJson(outcome.result).dump(),
              referenceBytes(spec));
}

TEST(FleetIntegration, SignalDeathIsClassifiedAndRetried)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    options.shards = 2;

    FaultGuard fault("abort@1");
    const FleetOutcome outcome = runShardedExperiment(spec, options);
    EXPECT_FALSE(outcome.anyFailed());
    EXPECT_GE(outcome.stats.crashes, 1u);
    EXPECT_EQ(resultsJson(outcome.result).dump(),
              referenceBytes(spec));
}

TEST(FleetIntegration, GarbageOnTheStreamIsClassifiedAndRetried)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    options.shards = 2;

    FaultGuard fault("garbage@0");
    const FleetOutcome outcome = runShardedExperiment(spec, options);
    EXPECT_FALSE(outcome.anyFailed());
    EXPECT_GE(outcome.stats.protocolErrors, 1u);
    EXPECT_EQ(resultsJson(outcome.result).dump(),
              referenceBytes(spec));
}

TEST(FleetIntegration, HangIsKilledByTheLivenessWindowAndRetried)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    options.shards = 2;
    options.livenessSec = 0.3;

    FaultGuard fault("hang@0");
    const FleetOutcome outcome = runShardedExperiment(spec, options);
    EXPECT_FALSE(outcome.anyFailed());
    EXPECT_GE(outcome.stats.hangs, 1u);
    EXPECT_EQ(resultsJson(outcome.result).dump(),
              referenceBytes(spec));
}

TEST(FleetIntegration, TimeoutIsEnforcedAndRetried)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    options.shards = 2;
    // Generous enough that a *clean* shard always finishes inside it,
    // even under the sanitizers (~0.5 s measured under ASan); the
    // hanging first attempt still trips it because a hang never ends.
    options.timeoutSec = 5.0;
    options.livenessSec = 60.0; // The deadline must win, not liveness.

    FaultGuard fault("hang@0");
    const FleetOutcome outcome = runShardedExperiment(spec, options);
    EXPECT_FALSE(outcome.anyFailed());
    EXPECT_GE(outcome.stats.timeouts, 1u);
    EXPECT_EQ(outcome.stats.hangs, 0u);
    EXPECT_EQ(resultsJson(outcome.result).dump(),
              referenceBytes(spec));
}

TEST(FleetIntegration, SlowShardWithHeartbeatsIsNotKilled)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    options.shards = 2;
    // The slow fault stalls 8 heartbeat periods (0.4 s), well past
    // this window; flowing heartbeats must keep the worker alive.
    options.livenessSec = 0.3;

    FaultGuard fault("slow@0");
    const FleetOutcome outcome = runShardedExperiment(spec, options);
    EXPECT_FALSE(outcome.anyFailed());
    EXPECT_EQ(outcome.stats.hangs, 0u);
    EXPECT_EQ(outcome.stats.retries, 0u);
    EXPECT_GE(outcome.stats.heartbeats, 1u);
    EXPECT_EQ(resultsJson(outcome.result).dump(),
              referenceBytes(spec));
}

TEST(FleetIntegration, ExhaustedRetriesDegradeToFailedRows)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    options.shards = 2;
    options.retries = 0;

    FaultGuard fault("crash@0");
    const FleetOutcome outcome = runShardedExperiment(spec, options);
    ASSERT_EQ(outcome.failedShards,
              (std::vector<unsigned>{0}));
    EXPECT_EQ(outcome.stats.shardsFailed, 1u);
    EXPECT_EQ(outcome.stats.shardsCompleted, 1u);
    EXPECT_FALSE(outcome.interrupted);

    // Shard 0 is job 0: FAILED with structured diagnostics. The rest
    // of the sweep completed and aggregated.
    const RunOutcome &failed = outcome.result.outcomes[0];
    EXPECT_TRUE(failed.failed);
    EXPECT_EQ(failed.attempts, 1u);
    EXPECT_NE(failed.error.find("exited with code 42"),
              std::string::npos);
    EXPECT_FALSE(outcome.result.outcomes[1].failed);
    EXPECT_EQ(outcome.result.aggregates.size(),
              outcome.result.schedulers.size());
}

TEST(FleetIntegration, InterruptedRunResumesToByteIdenticalOutput)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    TempDir checkpoint("fleet_it_resume");
    options.shards = 2;
    options.workers = 1;
    options.checkpoint = checkpoint.path();
    options.stopAfter = 1; // As if the supervisor were killed here.

    const FleetOutcome first = runShardedExperiment(spec, options);
    EXPECT_TRUE(first.interrupted);
    EXPECT_EQ(first.stats.shardsCompleted, 1u);

    FleetOptions resume = options;
    resume.stopAfter = 0;
    resume.resume = true;
    const FleetOutcome second = runShardedExperiment(spec, resume);
    EXPECT_FALSE(second.interrupted);
    EXPECT_EQ(second.stats.shardsResumed, 1u);
    EXPECT_EQ(second.stats.shardsCompleted, 1u);
    EXPECT_EQ(resultsJson(second.result).dump(),
              referenceBytes(spec));

    // Resuming a fully checkpointed sweep re-simulates nothing.
    const FleetOutcome third = runShardedExperiment(spec, resume);
    EXPECT_EQ(third.stats.shardsResumed, 2u);
    EXPECT_EQ(third.stats.shardsCompleted, 0u);
    EXPECT_EQ(resultsJson(third.result).dump(),
              referenceBytes(spec));
}

TEST(FleetIntegration, ResumeRejectsADifferentExperiment)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    TempDir checkpoint("fleet_it_foreign");
    options.checkpoint = checkpoint.path();
    options.shards = 2;

    const ExperimentSpec spec = specFromText(kSpecText);
    const FleetOutcome seeded = runShardedExperiment(spec, options);
    EXPECT_FALSE(seeded.anyFailed());

    ExperimentSpec other = spec;
    other.budget = 5000; // A different experiment entirely.
    FleetOptions resume = options;
    resume.resume = true;
    EXPECT_THROW(runShardedExperiment(other, resume), SimError);
}

TEST(FleetIntegration, AloneBaselinesAreSharedThroughTheManifest)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    TempDir checkpoint("fleet_it_alone");
    options.checkpoint = checkpoint.path();
    options.shards = 2;
    options.workers = 1;
    options.stopAfter = 1;

    // Shard one computes the baselines and checkpoints them; the
    // resumed shard receives them through the manifest.
    (void)runShardedExperiment(spec, options);
    FleetOptions resume = options;
    resume.stopAfter = 0;
    resume.resume = true;
    const FleetOutcome second = runShardedExperiment(spec, resume);
    EXPECT_EQ(resultsJson(second.result).dump(),
              referenceBytes(spec));

    std::FILE *manifest = std::fopen(
        (checkpoint.path() + "/manifest.jsonl").c_str(), "rb");
    ASSERT_NE(manifest, nullptr);
    std::string text(1 << 20, '\0');
    text.resize(std::fread(text.data(), 1, text.size(), manifest));
    std::fclose(manifest);
    EXPECT_NE(text.find("\"type\":\"alone\""), std::string::npos)
        << "baselines should be checkpointed for cross-shard reuse";
}

TEST(FleetIntegration, SigkilledWorkerIsClassifiedAndRetried)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    options.shards = 2;

    // SIGKILL mid-shard is what the OOM killer looks like from here:
    // no exit frame, no signal handler, just a reaped corpse.
    FaultGuard fault("sigkill@0");
    const FleetOutcome outcome = runShardedExperiment(spec, options);
    EXPECT_FALSE(outcome.anyFailed());
    EXPECT_GE(outcome.stats.sigkills, 1u);
    EXPECT_GE(outcome.stats.crashes, 1u); // Also counted as a crash.
    EXPECT_GE(outcome.stats.retries, 1u);
    EXPECT_EQ(resultsJson(outcome.result).dump(),
              referenceBytes(spec));
}

TEST(FleetIntegration, SigkillDiagnosticsNameTheLikelyOomKiller)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    options.shards = 2;
    options.retries = 0;

    FaultGuard fault("sigkill@0");
    const FleetOutcome outcome = runShardedExperiment(spec, options);
    ASSERT_EQ(outcome.failedShards, (std::vector<unsigned>{0}));
    const RunOutcome &failed = outcome.result.outcomes[0];
    EXPECT_TRUE(failed.failed);
    EXPECT_NE(failed.error.find("SIGKILL"), std::string::npos)
        << failed.error;
    EXPECT_NE(failed.error.find("OOM"), std::string::npos)
        << failed.error;
}

TEST(FleetIntegration, PreNodeManifestResumesByteIdentically)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    TempDir checkpoint("fleet_it_prenode");
    options.shards = 2;
    options.workers = 1;
    options.checkpoint = checkpoint.path();
    options.stopAfter = 1;

    const FleetOutcome first = runShardedExperiment(spec, options);
    EXPECT_TRUE(first.interrupted);

    // Shard records carry no "node" key: the shape manifests had
    // before node provenance existed.
    EXPECT_EQ(readFile(checkpoint.path() + "/manifest.jsonl")
                  .find("\"node\""),
              std::string::npos);

    FleetOptions resume = options;
    resume.stopAfter = 0;
    resume.resume = true;
    const FleetOutcome second = runShardedExperiment(spec, resume);
    EXPECT_FALSE(second.interrupted);
    EXPECT_EQ(second.stats.shardsResumed, 1u);
    EXPECT_EQ(resultsJson(second.result).dump(),
              referenceBytes(spec));
}

TEST(FleetIntegration, NodeTaggedManifestResumesByteIdentically)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kWideSpecText);
    TempDir checkpoint("fleet_it_nodetag");
    options.shards = 4;
    options.workers = 1;
    options.checkpoint = checkpoint.path();
    options.stopAfter = 2;

    const FleetOutcome first = runShardedExperiment(spec, options);
    EXPECT_TRUE(first.interrupted);

    // Tag the two shard records the way builds with remote fault
    // domains wrote them: "local" for a plain run, "n0" for a shard
    // placed on a registered node of that name.
    const std::string manifestPath =
        checkpoint.path() + "/manifest.jsonl";
    std::istringstream lines(readFile(manifestPath));
    std::string tagged;
    const char *nodes[] = {"local", "n0"};
    std::size_t shardLines = 0;
    for (std::string line; std::getline(lines, line);) {
        Json entry = Json::parse(line);
        const Json *type = entry.find("type");
        if (type && type->isString() && type->asString() == "shard") {
            ASSERT_LT(shardLines, 2u);
            entry.set("node", nodes[shardLines++]);
        }
        tagged += entry.dump() + "\n";
    }
    ASSERT_EQ(shardLines, 2u);
    ASSERT_NE(tagged.find("\"node\":\"n0\""), std::string::npos);
    {
        std::ofstream out(manifestPath,
                          std::ios::binary | std::ios::trunc);
        out << tagged;
    }

    FleetOptions resume = options;
    resume.stopAfter = 0;
    resume.resume = true;
    const FleetOutcome second = runShardedExperiment(spec, resume);
    EXPECT_FALSE(second.interrupted);
    EXPECT_EQ(second.stats.shardsResumed, 2u);
    EXPECT_EQ(second.stats.shardsCompleted, 2u);
    EXPECT_EQ(resultsJson(second.result).dump(),
              referenceBytes(spec));
}

TEST(FleetIntegration, TornManifestTailResumesByteIdentically)
{
    FleetOptions options = baseOptions();
    REQUIRE_CLI(options.workerArgv);
    const ExperimentSpec spec = specFromText(kSpecText);
    TempDir checkpoint("fleet_it_torntail");
    options.shards = 2;
    options.workers = 1;
    options.checkpoint = checkpoint.path();
    options.stopAfter = 1;

    const FleetOutcome first = runShardedExperiment(spec, options);
    EXPECT_TRUE(first.interrupted);

    // SIGKILL residue: cut the final manifest record mid-JSON. The
    // resume must discard the torn record, re-execute whatever it
    // described, and still merge byte-identically.
    const std::string manifestPath =
        checkpoint.path() + "/manifest.jsonl";
    std::string text;
    {
        std::ifstream in(manifestPath, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    }
    ASSERT_GE(text.size(), 2u);
    ASSERT_EQ(text.back(), '\n');
    const std::size_t recordStart =
        text.rfind('\n', text.size() - 2) + 1;
    const std::size_t cut =
        recordStart + (text.size() - 1 - recordStart) / 2;
    {
        std::ofstream out(manifestPath,
                          std::ios::binary | std::ios::trunc);
        out.write(text.data(), static_cast<std::streamsize>(cut));
    }

    FleetOptions resume = options;
    resume.stopAfter = 0;
    resume.resume = true;
    const FleetOutcome second = runShardedExperiment(spec, resume);
    EXPECT_FALSE(second.interrupted);
    EXPECT_FALSE(second.anyFailed());
    EXPECT_EQ(resultsJson(second.result).dump(),
              referenceBytes(spec));
}

TEST(FleetIntegration, ReportCliRejectsUselessInputs)
{
    const char *cli = std::getenv("STFM_CLI");
    if (!cli || !*cli)
        GTEST_SKIP() << "STFM_CLI is not set (run via ctest)";

    // A directory with no artifacts and a path that does not exist
    // must both be loud usage errors, not empty-but-successful
    // reports.
    TempDir empty("fleet_it_report_empty");
    const std::string quiet = " >/dev/null 2>&1";
    const int emptyRc = std::system(
        (std::string(cli) + " report " + empty.path() + quiet)
            .c_str());
    ASSERT_TRUE(WIFEXITED(emptyRc));
    EXPECT_EQ(WEXITSTATUS(emptyRc), 1);

    const int missingRc = std::system(
        (std::string(cli) + " report " + empty.path() +
         "/no_such_artifact.json" + quiet)
            .c_str());
    ASSERT_TRUE(WIFEXITED(missingRc));
    EXPECT_EQ(WEXITSTATUS(missingRc), 1);

    // A checkpoint manifest is not a report input (its rollup is the
    // checkpoint's report.json), and --spec is no report flag.
    TempFile manifest("fleet_it_report_manifest.jsonl",
                      "{\"schema\": \"stfm-manifest-v1\"}\n");
    EXPECT_EQ(runCli(cli, "report " + manifest.path()), 1);
    TempFile results("fleet_it_report_results.json",
                     resultsJson(runExperiment(specFromText(kSpecText)))
                         .dump());
    EXPECT_EQ(runCli(cli, "report " + results.path()), 0);
    EXPECT_EQ(runCli(cli, "report " + results.path() + " --spec x"), 1);
}

TEST(FleetIntegration, NonFiniteOrHugeNumbersAreUsageErrors)
{
    const char *cli = std::getenv("STFM_CLI");
    if (!cli || !*cli)
        GTEST_SKIP() << "STFM_CLI is not set (run via ctest)";
    TempFile spec("fleet_it_flags_spec.json", kSpecText);
    TempDir checkpoint("fleet_it_flags_timeout");
    const std::string manifest = checkpoint.path() + "/manifest.jsonl";

    // A deadline of now + timeout must fit the steady clock; these
    // once overflowed and killed every shard on its first attempt.
    for (const char *timeout : {"inf", "1e300", "nan"}) {
        EXPECT_EQ(runCli(cli, "run " + spec.path() + " --shards 2 " +
                                  "--workers 2 --checkpoint " +
                                  checkpoint.path() + " --timeout " +
                                  timeout),
                  1)
            << "--timeout " << timeout;
        EXPECT_FALSE(fileExists(manifest))
            << "--timeout " << timeout << " started a sweep";
    }

    // A NaN threshold would make the regression gate unable to fail.
    const std::string diffOut =
        std::string(::testing::TempDir()) + "fleet_it_flags_diff.json";
    std::remove(diffOut.c_str());
    EXPECT_EQ(runCli(cli, "report " + spec.path() + " --diff " +
                              spec.path() + " --diff-out " + diffOut +
                              " --threshold nan"),
              1);
    EXPECT_FALSE(fileExists(diffOut));
}

TEST(FleetIntegration, SignedOrOversizedCountsAreUsageErrors)
{
    const char *cli = std::getenv("STFM_CLI");
    if (!cli || !*cli)
        GTEST_SKIP() << "STFM_CLI is not set (run via ctest)";
    TempFile spec("fleet_it_counts_spec.json", kSpecText);
    TempDir checkpoint("fleet_it_flags_counts");
    const std::string manifest = checkpoint.path() + "/manifest.jsonl";

    // -1 once wrapped to 4294967295 retries; 2^32 was truncated to 0.
    // The budget once fell back to the spec's on "abc" and "-5" and
    // read "5000x" as 5000.
    for (const char *flag :
         {"--retries -1", "--workers 4294967296", "--shards ''",
          "--instructions abc", "--instructions -5",
          "--instructions 5000x", "--jobs 4294967296"}) {
        EXPECT_EQ(runCli(cli, "run " + spec.path() + " --checkpoint " +
                                  checkpoint.path() + " " + flag),
                  1)
            << flag;
        EXPECT_FALSE(fileExists(manifest)) << flag << " started a sweep";
    }
}

TEST(FleetIntegration, FigureCommandsShareTheRunFlagParser)
{
    const char *cli = std::getenv("STFM_CLI");
    if (!cli || !*cli)
        GTEST_SKIP() << "STFM_CLI is not set (run via ctest)";
    const std::string json =
        std::string(::testing::TempDir()) + "fleet_it_figure.json";
    std::remove(json.c_str());

    // Figures once dropped --instructions, so this was the 60k table.
    ASSERT_EQ(runCli(cli, "fig06 --instructions 2000 --json " + json),
              0);
    const Json doc = Json::parse(readFile(json));
    EXPECT_EQ(doc.at("resolvedConfig", "results")
                  .at("instructionBudget", "resolvedConfig")
                  .asUint("instructionBudget"),
              2000u);
    std::remove(json.c_str());

    // A misspelt flag once ran the whole figure and exited 0.
    EXPECT_EQ(runCli(cli, "fig06 --jsno " + json), 1);
    EXPECT_FALSE(fileExists(json));

    // A spec-driven figure with its own report renderer still writes
    // the results document (fig14 was once a custom figure).
    ASSERT_EQ(runCli(cli, "fig14 --instructions 2000 --json " + json),
              0);
    const Json weights = Json::parse(readFile(json));
    EXPECT_EQ(weights.at("schema", "results").asString("schema"),
              "stfm-results-v1");
    EXPECT_EQ(weights.at("runs", "results").asArray("runs").size(), 5u);
    std::remove(json.c_str());

    // A custom figure writes no results document.
    EXPECT_EQ(runCli(cli, "table5 --json " + json), 1);
    EXPECT_FALSE(fileExists(json));

    // Nor telemetry or traces: asking for them is an error rather
    // than a run that silently writes nothing.
    const std::string trace =
        std::string(::testing::TempDir()) + "fleet_it_figure_trace.json";
    std::remove(trace.c_str());
    EXPECT_EQ(runCli(cli, "table5 --trace " + trace), 1);
    EXPECT_FALSE(fileExists(trace));
    EXPECT_EQ(runCli(cli, "fig03 --telemetry"), 1);
    TempDir traces("fleet_it_fig05_traces");
    ASSERT_EQ(runCli(cli, "fig05 --instructions 2000 --trace " +
                              traces.path() + "/t.json"),
              0);
    const std::string one = traces.path() + "/t.mcf-hmmer.STFM.json";
    EXPECT_EQ(Json::parse(readFile(one)).type(), Json::Type::Object);
    EXPECT_EQ(std::system(("rm -f " + traces.path() + "/t.*.json")
                              .c_str()),
              0);

    // --full belongs to the figures; the spec itself is fine.
    const std::string smoke =
        std::string(STFM_REPO_ROOT) + "/specs/smoke.json";
    EXPECT_EQ(runCli(cli, "validate " + smoke), 0);
    EXPECT_EQ(runCli(cli, "run " + smoke + " --full --json " + json), 1);
    EXPECT_FALSE(fileExists(json));
}

TEST(FleetIntegration, Fig03HonorsTheRunFlags)
{
    const char *cli = std::getenv("STFM_CLI");
    if (!cli || !*cli)
        GTEST_SKIP() << "STFM_CLI is not set (run via ctest)";
    // fig03 builds its systems by hand; it once skipped the
    // environment overrides, so every budget printed one table and an
    // unknown device ran anyway.
    const std::string out =
        std::string(::testing::TempDir()) + "fleet_it_fig03_";
    for (const char *budget : {"2000", "3000"}) {
        ASSERT_EQ(std::system((std::string(cli) +
                               " fig03 --instructions " + budget +
                               " > " + out + budget + ".txt")
                                  .c_str()),
                  0);
    }
    EXPECT_NE(readFile(out + "2000.txt"), readFile(out + "3000.txt"));
    std::remove((out + "2000.txt").c_str());
    std::remove((out + "3000.txt").c_str());
    EXPECT_EQ(runCli(cli, "fig03 --instructions 2000 --device "
                          "no-such-device"),
              1);
}

} // namespace
} // namespace fleet
} // namespace stfm
