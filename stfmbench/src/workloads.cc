#include "workloads.hh"

#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "harness/figures.hh"
#include "harness/workloads.hh"

namespace stfmbench
{

using namespace stfm;

namespace
{

ExperimentSpec
fig09Spec()
{
    const char *path = "specs/fig09.json";
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SimError(formatMessage("cannot open '%s'", path));
    std::ostringstream text;
    text << in.rdbuf();
    return specFromText(text.str());
}

ExperimentSpec
fig11Spec()
{
    const Figure *figure = findFigure("fig11");
    if (!figure || !figure->specDriven())
        throw SimError("figure registry has no spec-driven fig11");
    return figure->spec(/*full=*/false);
}

ExperimentSpec
low16Spec()
{
    ExperimentSpec spec;
    spec.name = "low16";
    spec.title = "Figure 12 low16 mix, 16 trace salts";
    spec.workloads = {workloads::sixteenCore().at(2)};
    // The STFM unfairness GMEAN of this one mix swings with the trace
    // streams: over seeds 1-10 its quartile spread is 23 % with 8 salts
    // and 10 % with 16.
    spec.repeat = 16;
    spec.budget = 50000;
    return spec;
}

} // namespace

const std::vector<BenchWorkload> &
benchWorkloads()
{
    static const std::vector<BenchWorkload> list = {
        {"fig09", 2},
        {"fig11-8core", 2},
        {"low16", 1},
    };
    return list;
}

const BenchWorkload *
findBenchWorkload(const std::string &name)
{
    for (const BenchWorkload &w : benchWorkloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

ExperimentSpec
buildSpec(const BenchWorkload &workload, std::uint64_t seed,
          std::uint64_t budget)
{
    ExperimentSpec spec;
    if (workload.name == "fig09") {
        spec = fig09Spec();
    } else if (workload.name == "fig11-8core") {
        spec = fig11Spec();
    } else {
        spec = low16Spec();
    }
    // Disjoint salt blocks: seed n runs salts n * repeat .. + repeat - 1.
    spec.seed = seed * spec.repeat;
    spec.jobs = workload.workers;
    if (budget)
        spec.budget = budget;
    return spec;
}

} // namespace stfmbench
