/**
 * @file
 * Layer probes: tight loops over one layer's public entry points, fed
 * call streams shaped like the workload the traced sweep just measured
 * (its memory geometry, mixes, queue depth, row-hit mix, write share
 * and read latency). Each probe reports host nanoseconds per call.
 */

#ifndef STFMBENCH_PROBES_HH
#define STFMBENCH_PROBES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"

namespace stfmbench
{

/** The workload shape the probes reproduce. */
struct ProbeShape
{
    /** Resolved base configuration (memory geometry, timing, core). */
    stfm::SimConfig base;
    /** One mix of the workload: a benchmark per thread. */
    std::vector<std::string> mix;
    /** Policies of the sweep, in plan order. */
    std::vector<stfm::SchedulerConfig> schedulers;
    /** Mean demand reads queued or in service per channel. */
    double queueDepth = 1;
    double rowHitFrac = 0;
    /** Writes / (reads + writes) serviced by DRAM. */
    double writeShare = 0;
    /** Mean demand-read latency in DRAM cycles. */
    double readLatencyDram = 1;
    std::uint64_t seed = 0;
};

struct ProbeResults
{
    double nsPerInst = 0;         ///< Core::tick / runAhead.
    double nsPerCacheAccess = 0;  ///< Cache::access / fill.
    double nsPerMshrOp = 0;       ///< MshrFile allocate / complete.
    /** beginCycle + MemoryController::tick, per policy in plan order. */
    std::vector<double> nsPerTick;
    double nsPerBeginCycle = 0;   ///< StfmPolicy::beginCycle alone.
    double nsPerEarliestIssue = 0; ///< DramChannel::earliestIssue.
    double nsPerIssue = 0;        ///< DramChannel::issue.
};

ProbeResults runProbes(const ProbeShape &shape);

} // namespace stfmbench

#endif // STFMBENCH_PROBES_HH
