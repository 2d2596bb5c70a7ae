#include "probes.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <utility>

#include "common/rng.hh"
#include "cpu/cache.hh"
#include "cpu/core.hh"
#include "cpu/mshr.hh"
#include "dram/address_mapping.hh"
#include "dram/channel.hh"
#include "mem/controller.hh"
#include "trace/catalog.hh"

namespace stfmbench
{

using namespace stfm;

namespace
{

using Clock = std::chrono::steady_clock;

/** Keeps probe results observable so the loops are not optimized out. */
volatile std::uint64_t g_sink = 0;

double
nsPer(Clock::time_point start, std::uint64_t calls)
{
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start)
            .count();
    return calls ? ns / static_cast<double>(calls) : 0.0;
}

AddressMapping
mappingFor(const MemoryConfig &m, unsigned channels)
{
    return AddressMapping(channels, m.banksPerChannel, m.rowBytes,
                          m.lineBytes, m.rowsPerBank, m.xorBankMapping,
                          m.bankGroups);
}

// DRAM channel ----------------------------------------------------------

struct DramOp
{
    DramCommand cmd;
    BankId bank;
    RowId row;
    DramCycles at;
};

/**
 * Serve random accesses one after another on a throwaway channel, each
 * with the commands its row-buffer state needs, and record them with
 * the cycle they issued. Accesses reopen the bank's last row with the
 * workload's row-hit probability and write with its write share.
 */
std::vector<DramOp>
dramStream(const ProbeShape &shape, Rng &rng, std::size_t accesses)
{
    const MemoryConfig &m = shape.base.memory;
    DramChannel channel(m.banksPerChannel, m.timing, m.bankGroups);
    std::vector<RowId> last_row(m.banksPerChannel, 0);
    std::vector<DramOp> ops;
    DramCycles now = 0;
    for (std::size_t i = 0; i < accesses; ++i) {
        const auto bank =
            static_cast<BankId>(rng.nextBelow(m.banksPerChannel));
        if (!rng.nextBool(shape.rowHitFrac))
            last_row[bank] = static_cast<RowId>(rng.nextBelow(m.rowsPerBank));
        const RowId row = last_row[bank];
        const bool write = rng.nextBool(shape.writeShare);
        for (;;) {
            const RowBufferState state = channel.rowState(bank, row);
            const DramCommand cmd =
                state == RowBufferState::Hit
                    ? (write ? DramCommand::Write : DramCommand::Read)
                : state == RowBufferState::Closed ? DramCommand::Activate
                                                  : DramCommand::Precharge;
            const DramCycles at =
                std::max(now, channel.earliestIssue(cmd, bank));
            channel.issue(cmd, bank, row, at);
            ops.push_back({cmd, bank, row, at});
            now = at + 1;
            if (isColumnCommand(cmd))
                break;
        }
    }
    return ops;
}

void
probeDram(const ProbeShape &shape, Rng &rng, ProbeResults &out)
{
    const MemoryConfig &m = shape.base.memory;
    const std::vector<DramOp> ops = dramStream(shape, rng, 200000);

    DramChannel channel(m.banksPerChannel, m.timing, m.bankGroups);
    auto start = Clock::now();
    std::uint64_t sink = 0;
    for (const DramOp &op : ops)
        sink += channel.issue(op.cmd, op.bank, op.row, op.at);
    out.nsPerIssue = nsPer(start, ops.size());

    static constexpr DramCommand kCommands[] = {
        DramCommand::Activate, DramCommand::Precharge, DramCommand::Read,
        DramCommand::Write};
    std::vector<std::pair<DramCommand, BankId>> queries(1 << 20);
    for (auto &q : queries) {
        q.first = kCommands[rng.nextBelow(4)];
        q.second = static_cast<BankId>(rng.nextBelow(m.banksPerChannel));
    }
    start = Clock::now();
    for (const auto &[cmd, bank] : queries)
        sink += channel.earliestIssue(cmd, bank);
    out.nsPerEarliestIssue = nsPer(start, queries.size());
    g_sink = sink;
}

// Caches and MSHRs --------------------------------------------------------

struct MemOp
{
    Addr line;
    bool store;
};

/** The first @p per_thread memory ops of every trace in the mix. */
std::vector<std::vector<MemOp>>
mixMemOps(const ProbeShape &shape, std::size_t per_thread)
{
    const MemoryConfig &m = shape.base.memory;
    const AddressMapping mapping = mappingFor(m, m.channels);
    const auto threads = static_cast<unsigned>(shape.mix.size());
    std::vector<std::vector<MemOp>> out(threads);
    for (unsigned t = 0; t < threads; ++t) {
        auto trace = makeBenchmarkTrace(findBenchmark(shape.mix[t]),
                                        mapping, t, threads);
        while (out[t].size() < per_thread) {
            const TraceOp op = trace->next();
            if (op.kind == TraceOp::Kind::None)
                continue;
            out[t].push_back({op.addr & ~(m.lineBytes - 1),
                              op.kind == TraceOp::Kind::Store});
        }
    }
    return out;
}

void
probeCachesAndMshrs(const ProbeShape &shape, ProbeResults &out)
{
    const CoreParams &params = shape.base.cpu;
    const MemoryConfig &m = shape.base.memory;
    const std::vector<std::vector<MemOp>> streams = mixMemOps(
        shape, 400000 / std::max<std::size_t>(shape.mix.size(), 1));

    // One L1/L2 pair per thread, walked the way a load or store looks
    // the line up: L1, then L2, filling on a miss. Misses feed the MSHR
    // stream below.
    std::vector<Addr> misses;
    std::uint64_t accesses = 0;
    Clock::duration busy{};
    const AddressMapping mapping = mappingFor(m, m.channels);
    const auto threads = static_cast<unsigned>(shape.mix.size());
    for (unsigned t = 0; t < threads; ++t) {
        Cache l1(params.l1);
        Cache l2(params.l2);
        std::vector<WarmLine> footprint;
        makeBenchmarkTrace(findBenchmark(shape.mix[t]), mapping, t, threads)
            ->warmupFootprint(params.l2.sizeBytes / params.l2.lineBytes,
                              footprint);
        for (const WarmLine &line : footprint)
            l2.fill(line.addr & ~(params.l2.lineBytes - 1), line.dirty);

        std::vector<char> missed(streams[t].size(), 0);
        const auto start = Clock::now();
        for (std::size_t i = 0; i < streams[t].size(); ++i) {
            const MemOp &op = streams[t][i];
            ++accesses;
            if (l1.access(op.line, false))
                continue;
            ++accesses;
            if (!l2.access(op.line, op.store)) {
                const Eviction victim = l2.fill(op.line, op.store);
                if (victim.valid)
                    l1.invalidate(victim.addr);
                missed[i] = 1;
            }
            l1.fill(op.line, false);
        }
        busy += Clock::now() - start;
        for (std::size_t i = 0; i < missed.size(); ++i)
            if (missed[i])
                misses.push_back(streams[t][i].line);
    }
    out.nsPerCacheAccess =
        accesses ? std::chrono::duration<double, std::nano>(busy).count() /
                       static_cast<double>(accesses)
                 : 0.0;

    // MSHRs: keep the workload's per-thread reads in flight, completing
    // the oldest miss whenever the file holds that many.
    const double per_thread =
        shape.queueDepth * m.channels / std::max(threads, 1u);
    const auto depth = static_cast<unsigned>(std::clamp(
        std::lround(per_thread), 1L, static_cast<long>(params.mshrs)));
    MshrFile mshrs(params.mshrs);
    std::deque<Addr> outstanding;
    std::vector<std::uint64_t> waiters;
    std::uint64_t ops = 0;
    std::uint64_t pos = 0;
    const auto start = Clock::now();
    for (int pass = 0; pass < 8; ++pass) {
        for (const Addr line : misses) {
            if (!mshrs.has(line) && mshrs.inUse() >= depth) {
                bool dirty = false;
                mshrs.complete(outstanding.front(), waiters, dirty);
                outstanding.pop_front();
                waiters.clear();
                ++ops;
            }
            if (mshrs.allocate(line, pos++, false) ==
                MshrFile::Result::Allocated)
                outstanding.push_back(line);
            ++ops;
        }
    }
    out.nsPerMshrOp = nsPer(start, ops);
    g_sink = mshrs.allocations();
}

// Core ------------------------------------------------------------------

/** Memory that accepts everything and answers reads after a fixed
 *  latency, in issue order. */
class StubMemory : public MemoryPort
{
  public:
    explicit StubMemory(Cycles latency) : latency_(latency) {}

    bool canAcceptRead(Addr) const override { return true; }
    bool canAcceptWrite(Addr) const override { return true; }
    void
    issueRead(Addr addr, ThreadId, bool) override
    {
        pending_.push_back({now + latency_, addr});
    }
    void issueWrite(Addr, ThreadId) override {}

    /** The cycle the core is executing (set before each tick). */
    Cycles now = 0;

    /** Earliest pending completion, kNever when none. */
    Cycles
    nextDue() const
    {
        return pending_.empty() ? kNever : pending_.front().first;
    }

    /** Deliver every read due before @p cycle to @p core. */
    void
    deliverBefore(Cycles cycle, Core &core)
    {
        while (!pending_.empty() && pending_.front().first < cycle) {
            core.onReadComplete(pending_.front().second,
                                pending_.front().first);
            pending_.pop_front();
        }
    }

  private:
    Cycles latency_;
    std::deque<std::pair<Cycles, Addr>> pending_;
};

void
probeCore(const ProbeShape &shape, ProbeResults &out)
{
    const CoreParams &params = shape.base.cpu;
    const MemoryConfig &m = shape.base.memory;
    const AddressMapping mapping = mappingFor(m, m.channels);
    const auto threads = static_cast<unsigned>(shape.mix.size());
    const auto latency = static_cast<Cycles>(
        std::llround(shape.readLatencyDram * m.cpuPerDram()));
    const std::uint64_t per_thread = 2000000 / std::max(threads, 1u);
    static constexpr Cycles kChunk = 65536;

    std::uint64_t committed = 0;
    Clock::duration busy{};
    for (unsigned t = 0; t < threads; ++t) {
        auto trace = makeBenchmarkTrace(findBenchmark(shape.mix[t]),
                                        mapping, t, threads);
        StubMemory memory(latency);
        Core core(t, params, *trace, memory);
        std::vector<WarmLine> footprint;
        trace->warmupFootprint(params.l2.sizeBytes / params.l2.lineBytes,
                               footprint);
        core.prewarmCaches(footprint);

        // The CmpSystem loop for one core: completions land after the
        // core's tick of their cycle, and a run-ahead burst stops at
        // the first cycle a pending completion could be seen.
        Cycles now = 0;
        const auto start = Clock::now();
        while (core.instructionsCommitted() < per_thread) {
            memory.deliverBefore(now, core);
            const Cycles due = memory.nextDue();
            const Cycles end = due == kNever ? now + kChunk : due + 1;
            memory.now = now;
            const Cycles next = core.runAhead(now, end, ~0ULL);
            if (next > now) {
                now = next;
                continue;
            }
            core.tick(now);
            ++now;
        }
        busy += Clock::now() - start;
        committed += core.instructionsCommitted();
    }
    out.nsPerInst = std::chrono::duration<double, std::nano>(busy).count() /
                    static_cast<double>(std::max<std::uint64_t>(committed, 1));
}

// Controller and policies -----------------------------------------------

/**
 * One channel's controller under @p config, kept at the workload's
 * read-queue depth with its row-hit and write mix. Times beginCycle +
 * tick per DRAM cycle (refills included); for STFM also times
 * beginCycle alone on the loaded queue.
 */
double
probeController(const ProbeShape &shape, const SchedulerConfig &config,
                Rng &rng, double *ns_per_begin_cycle)
{
    const MemoryConfig &m = shape.base.memory;
    const auto threads = static_cast<unsigned>(shape.mix.size());
    const unsigned banks = m.banksPerChannel;
    auto policy = makeSchedulingPolicy(config, threads, banks);
    ThreadBankOccupancy occupancy(threads, banks);
    MemoryController controller(0, banks, m.timing, m.controller, *policy,
                                occupancy, threads, m.bankGroups);
    controller.setReadCallback([](const Request &) {});
    const AddressMapping mapping = mappingFor(m, 1);
    std::vector<Cycles> stalls(threads, 0);

    SchedContext ctx;
    ctx.numThreads = threads;
    ctx.banksPerChannel = banks;
    ctx.cpuPerDram = m.cpuPerDram();
    ctx.timing = &m.timing;
    ctx.occupancy = &occupancy;
    ctx.stallCycles = &stalls;

    const auto depth = static_cast<unsigned>(
        std::clamp(std::lround(shape.queueDepth), 1L,
                   static_cast<long>(m.controller.requestBufferEntries)));
    // Writes per read so that writes make up writeShare of the traffic.
    const double write_per_read =
        std::min(shape.writeShare / std::max(1.0 - shape.writeShare, 1e-9),
                 1.0);
    std::vector<RowId> last_row(banks, 0);
    const auto access = [&](ThreadId &thread) {
        AddrDecode coords;
        coords.bank = static_cast<BankId>(rng.nextBelow(banks));
        if (!rng.nextBool(shape.rowHitFrac))
            last_row[coords.bank] =
                static_cast<RowId>(rng.nextBelow(m.rowsPerBank));
        coords.row = last_row[coords.bank];
        coords.column = static_cast<ColumnId>(
            rng.nextBelow(m.rowBytes / m.lineBytes));
        thread = static_cast<ThreadId>(rng.nextBelow(threads));
        return coords;
    };

    DramCycles dram = 0;
    const auto cycle = [&]() {
        ctx.dramNow = ++dram;
        ctx.cpuNow = dram * ctx.cpuPerDram;
        while (controller.buffer().readCount() < depth &&
               controller.canAcceptRead()) {
            ThreadId thread = 0;
            AddrDecode coords = access(thread);
            controller.enqueueRead(mapping.compose(coords), coords, thread,
                                   true, ctx.cpuNow, dram);
            if (rng.nextBool(write_per_read) && controller.canAcceptWrite()) {
                coords = access(thread);
                controller.enqueueWrite(mapping.compose(coords), coords,
                                        thread, ctx.cpuNow, dram);
            }
        }
        for (Cycles &s : stalls)
            s += ctx.cpuPerDram;
        policy->beginCycle(ctx);
        controller.tick(ctx);
    };

    for (int i = 0; i < 5000; ++i)
        cycle();
    static constexpr std::uint64_t kCycles = 200000;
    auto start = Clock::now();
    for (std::uint64_t i = 0; i < kCycles; ++i)
        cycle();
    const double ns_per_tick = nsPer(start, kCycles);

    if (ns_per_begin_cycle) {
        start = Clock::now();
        for (std::uint64_t i = 0; i < kCycles; ++i) {
            ctx.dramNow = ++dram;
            ctx.cpuNow = dram * ctx.cpuPerDram;
            for (Cycles &s : stalls)
                s += ctx.cpuPerDram;
            policy->beginCycle(ctx);
        }
        *ns_per_begin_cycle = nsPer(start, kCycles);
    }
    g_sink = controller.columnIssues();
    return ns_per_tick;
}

} // namespace

ProbeResults
runProbes(const ProbeShape &shape)
{
    ProbeResults out;
    Rng rng(shape.seed ^ 0x5eedULL);
    probeDram(shape, rng, out);
    probeCachesAndMshrs(shape, out);
    probeCore(shape, out);
    for (const SchedulerConfig &config : shape.schedulers) {
        const bool stfm = config.kind == PolicyKind::Stfm;
        out.nsPerTick.push_back(probeController(
            shape, config, rng, stfm ? &out.nsPerBeginCycle : nullptr));
    }
    return out;
}

} // namespace stfmbench
