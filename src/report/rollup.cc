#include "report/rollup.hh"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/logging.hh"
#include "harness/runner.hh"
#include "obs/telemetry.hh"

namespace stfm
{
namespace report
{

namespace
{

/**
 * Device-axis scheduler labels carry an "@<device>" suffix
 * ("STFM@DDR4-2400"); the report keys groups by (scheduler, device),
 * so the suffix would double-encode the device. Strip it when it names
 * exactly this group's device.
 */
std::string
stripDeviceSuffix(const std::string &scheduler, const std::string &device)
{
    if (device.empty())
        return scheduler;
    const std::string suffix = "@" + device;
    if (scheduler.size() > suffix.size() &&
        scheduler.compare(scheduler.size() - suffix.size(),
                          suffix.size(), suffix) == 0) {
        return scheduler.substr(0, scheduler.size() - suffix.size());
    }
    return scheduler;
}

} // namespace

ReportBuilder::ReportBuilder(std::string name, SloConfig slo)
    : name_(std::move(name)), slo_(slo)
{
}

ReportBuilder::Group &
ReportBuilder::groupFor(const std::string &scheduler,
                        const std::string &device, int order_hint)
{
    Group &group = groups_[{scheduler, device}];
    if (group.order < 0)
        group.order = order_hint >= 0 ? order_hint : nextOrder_;
    nextOrder_ = std::max(nextOrder_, group.order + 1);
    return group;
}

void
ReportBuilder::addRun(Group &group, const std::string &workload,
                      bool failed, double unfairness,
                      const std::vector<double> &slowdowns,
                      double weighted_speedup)
{
    ++runs_;
    ++group.runs;
    WorkloadStats &ws = group.workloads[workload];
    ++ws.runs;
    if (failed) {
        ++failedRuns_;
        ++group.failed;
        ++ws.failed;
        return;
    }
    group.unfairness.push_back(unfairness);
    ws.unfairness.push_back(unfairness);
    group.weightedSpeedup.push_back(weighted_speedup);
    if (unfairness > slo_.unfairness)
        ++group.sloUnfairness;
    for (const double slowdown : slowdowns) {
        group.slowdown.push_back(slowdown);
        if (slowdown > slo_.slowdown)
            ++group.sloSlowdown;
    }
}

void
ReportBuilder::addOutcome(const std::string &scheduler,
                          const std::string &device,
                          const std::string &workload,
                          const RunOutcome &outcome, int order_hint)
{
    Group &group =
        groupFor(stripDeviceSuffix(scheduler, device), device, order_hint);
    if (outcome.failed)
        addRun(group, workload, true, 0.0, {}, 0.0);
    else
        addRun(group, workload, false, outcome.metrics.unfairness,
               outcome.metrics.slowdowns, outcome.metrics.weightedSpeedup);
    ++streamedRuns_;
}

std::uint64_t
ReportBuilder::addResultsDoc(const Json &doc,
                             const std::string &source_path)
{
    const std::string context = "results " + source_path;
    const std::string schema =
        doc.at("schema", context).asString(context + ".schema");
    if (schema != "stfm-results-v1") {
        throw SimError("report: " + source_path +
                       ": unexpected schema '" + schema + "'");
    }
    const auto &runs =
        doc.at("runs", context).asArray(context + ".runs");
    std::uint64_t folded = 0;
    for (const Json &run : runs) {
        const std::string rc = context + ".runs[]";
        std::string workload;
        for (const Json &bench :
             run.at("workload", rc).asArray(rc + ".workload")) {
            if (!workload.empty())
                workload += '+';
            workload += bench.asString(rc + ".workload[]");
        }
        const std::string scheduler =
            run.at("scheduler", rc).asString(rc + ".scheduler");
        std::string device;
        if (const Json *d = run.find("device"))
            device = d->asString(rc + ".device");
        const bool failed =
            run.at("failed", rc).asBool(rc + ".failed");
        Group &group = groupFor(stripDeviceSuffix(scheduler, device),
                                device, -1);
        if (failed) {
            addRun(group, workload, true, 0.0, {}, 0.0);
        } else {
            const Json &metrics = run.at("metrics", rc);
            std::vector<double> slowdowns;
            for (const Json &v : metrics.at("slowdowns", rc)
                                     .asArray(rc + ".slowdowns"))
                slowdowns.push_back(v.asDouble(rc + ".slowdowns[]"));
            addRun(group, workload, false,
                   metrics.at("unfairness", rc)
                       .asDouble(rc + ".unfairness"),
                   slowdowns,
                   metrics.at("weightedSpeedup", rc)
                       .asDouble(rc + ".weightedSpeedup"));
        }
        ++folded;
    }
    noteSource(source_path, "results", folded);
    return folded;
}

void
ReportBuilder::addTelemetryDoc(const Json &doc,
                               const std::string &source_path)
{
    const std::string context = "telemetry " + source_path;
    const std::string schema =
        doc.at("schema", context).asString(context + ".schema");
    if (schema != "stfm-telemetry-v1") {
        throw SimError("report: " + source_path +
                       ": unexpected schema '" + schema + "'");
    }
    if (const Json *histograms = doc.find("histograms")) {
        for (const Json &hist :
             histograms->asArray(context + ".histograms")) {
            const std::string hc = context + ".histograms[]";
            const std::string name =
                hist.at("name", hc).asString(hc + ".name");
            if (name.find(".readLatency.") == std::string::npos)
                continue;
            readLatency_.merge(latencyHistogramFromJson(hist, hc));
            haveReadLatency_ = true;
        }
    }
    noteSource(source_path, "telemetry", 0);
}

void
ReportBuilder::noteSource(const std::string &path,
                          const std::string &kind, std::uint64_t runs)
{
    sources_.push_back({path, kind, runs});
}

Json
ReportBuilder::toJson() const
{
    Json out = Json::object();
    out.set("schema", "stfm-report-v1");
    out.set("name", name_);

    Json slo = Json::object();
    slo.set("unfairness", slo_.unfairness);
    slo.set("slowdown", slo_.slowdown);
    out.set("slo", std::move(slo));

    // Canonical group order: plan order first (the scheduler axis as
    // the spec listed it), then key — independent of fold order.
    std::vector<const std::pair<const std::pair<std::string, std::string>,
                                Group> *> ordered;
    for (const auto &entry : groups_)
        ordered.push_back(&entry);
    std::sort(ordered.begin(), ordered.end(),
              [](const auto *a, const auto *b) {
                  if (a->second.order != b->second.order)
                      return a->second.order < b->second.order;
                  return a->first < b->first;
              });

    std::set<std::string> schedulers;
    std::set<std::string> devices;
    std::set<std::string> workloads;
    std::uint64_t slo_unfairness = 0;
    std::uint64_t slo_slowdown = 0;
    for (const auto &[key, group] : groups_) {
        schedulers.insert(key.first);
        devices.insert(key.second);
        slo_unfairness += group.sloUnfairness;
        slo_slowdown += group.sloSlowdown;
        for (const auto &[label, ws] : group.workloads)
            workloads.insert(label);
    }

    Json totals = Json::object();
    totals.set("runs", runs_);
    totals.set("failed", failedRuns_);
    totals.set("groups", groups_.size());
    totals.set("schedulers", schedulers.size());
    totals.set("devices", devices.size());
    totals.set("workloads", workloads.size());
    Json violations = Json::object();
    violations.set("unfairness", slo_unfairness);
    violations.set("slowdown", slo_slowdown);
    totals.set("sloViolations", std::move(violations));
    out.set("totals", std::move(totals));

    Json sources = Json::array();
    for (const Source &source : sources_) {
        Json entry = Json::object();
        entry.set("path", source.path);
        entry.set("kind", source.kind);
        entry.set("runs", source.runs);
        sources.push(std::move(entry));
    }
    if (streamedRuns_ > 0) {
        Json entry = Json::object();
        entry.set("path", "<streamed>");
        entry.set("kind", "stream");
        entry.set("runs", streamedRuns_);
        sources.push(std::move(entry));
    }
    out.set("sources", std::move(sources));

    Json groups = Json::array();
    for (const auto *entry : ordered) {
        const auto &[key, group] = *entry;
        Json g = Json::object();
        g.set("scheduler", key.first);
        g.set("device", key.second);
        g.set("runs", group.runs);
        g.set("failed", group.failed);
        Json gv = Json::object();
        gv.set("unfairness", group.sloUnfairness);
        gv.set("slowdown", group.sloSlowdown);
        g.set("sloViolations", std::move(gv));
        g.set("unfairness", distributionJson(group.unfairness));
        g.set("slowdown", distributionJson(group.slowdown));
        g.set("weightedSpeedup",
              distributionJson(group.weightedSpeedup));
        Json wl = Json::array();
        // std::map iteration: workloads already sorted by label.
        for (const auto &[label, ws] : group.workloads) {
            Json w = Json::object();
            w.set("label", label);
            w.set("runs", ws.runs);
            w.set("failed", ws.failed);
            const Json dist = distributionJson(ws.unfairness);
            Json u = Json::object();
            for (const char *field : {"count", "mean", "max"})
                u.set(field, dist.at(field, "distribution"));
            w.set("unfairness", std::move(u));
            wl.push(std::move(w));
        }
        g.set("workloads", std::move(wl));
        groups.push(std::move(g));
    }
    out.set("groups", std::move(groups));

    if (haveReadLatency_) {
        Json latency = latencyHistogramToJson(readLatency_);
        latency.set("unit", "dram-cycles");
        out.set("readLatency", std::move(latency));
    }
    return out;
}

Json
distributionJson(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    const std::size_t count = samples.size();
    // Nearest rank: the value of rank ceil(p * count), 1-based.
    const auto quantile = [&](double p) {
        if (count == 0)
            return 0.0;
        const std::size_t rank = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::ceil(p * static_cast<double>(count))));
        return samples[rank - 1];
    };
    // Summed in ascending order, so fold order cannot move the mean.
    double sum = 0.0;
    for (const double value : samples)
        sum += value;

    Json out = Json::object();
    out.set("count", count);
    out.set("min", count ? samples.front() : 0.0);
    out.set("max", count ? samples.back() : 0.0);
    out.set("mean", count ? sum / static_cast<double>(count) : 0.0);
    out.set("p50", quantile(0.5));
    out.set("p95", quantile(0.95));
    out.set("p99", quantile(0.99));
    Json values = Json::array();
    for (const double value : samples)
        values.push(Json(value));
    out.set("samples", std::move(values));
    return out;
}

bool
pathExists(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0;
}

bool
isDirectory(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

std::vector<std::string>
listDirectoryFiles(const std::string &path)
{
    DIR *dir = ::opendir(path.c_str());
    if (dir == nullptr)
        throw SimError("report: cannot open directory: " + path);
    std::vector<std::string> files;
    while (const dirent *entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (name == "." || name == "..")
            continue;
        const std::string full = path + "/" + name;
        struct stat st{};
        if (::stat(full.c_str(), &st) == 0 && S_ISREG(st.st_mode))
            files.push_back(full);
    }
    ::closedir(dir);
    std::sort(files.begin(), files.end());
    return files;
}

} // namespace report
} // namespace stfm
