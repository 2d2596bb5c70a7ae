/**
 * @file
 * Unit tests for the trace-driven core: commit/stall accounting, cache
 * interaction, MLP and dependence serialization, writeback flow, and
 * run-ahead bursts against a cycle-by-cycle twin.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "common/rng.hh"
#include "cpu/core.hh"

namespace stfm
{
namespace
{

/** Scripted trace: replays a fixed op list, then idles. */
class ScriptedTrace : public TraceSource
{
  public:
    explicit ScriptedTrace(std::vector<TraceOp> ops) : ops_(std::move(ops))
    {}

    TraceOp
    next() override
    {
        if (cursor_ < ops_.size())
            return ops_[cursor_++];
        TraceOp idle;
        idle.kind = TraceOp::Kind::None;
        idle.aluBefore = 1000;
        return idle;
    }

  private:
    std::vector<TraceOp> ops_;
    std::size_t cursor_ = 0;
};

/** Memory stub with a fixed latency and full visibility. */
class StubMemory : public MemoryPort
{
  public:
    bool canAcceptRead(Addr) const override { return acceptReads; }
    bool canAcceptWrite(Addr) const override { return acceptWrites; }

    void
    issueRead(Addr addr, ThreadId, bool blocking) override
    {
        reads.push_back({addr, blocking});
    }

    void
    issueWrite(Addr addr, ThreadId) override
    {
        writes.push_back(addr);
    }

    void
    noteEnqueueBlocked(Addr, ThreadId) override
    {
        ++blockedNotes;
    }

    struct Issued
    {
        Addr addr;
        bool blocking;
    };
    std::vector<Issued> reads;
    std::vector<Addr> writes;
    unsigned blockedNotes = 0;
    bool acceptReads = true;
    bool acceptWrites = true;
};

TraceOp
loadOp(Addr addr, std::uint32_t alu = 0, bool dep = false)
{
    TraceOp op;
    op.kind = TraceOp::Kind::Load;
    op.addr = addr;
    op.aluBefore = alu;
    op.dependsOnPrev = dep;
    return op;
}

TraceOp
storeOp(Addr addr, bool non_temporal = false)
{
    TraceOp op;
    op.kind = TraceOp::Kind::Store;
    op.addr = addr;
    op.nonTemporal = non_temporal;
    return op;
}

void
run(Core &core, Cycles from, Cycles to)
{
    for (Cycles c = from; c < to; ++c)
        core.tick(c);
}

TEST(Core, AluOnlyCommitsAtFullWidth)
{
    ScriptedTrace trace({});
    StubMemory memory;
    Core core(0, CoreParams{}, trace, memory);
    run(core, 0, 101);
    // 3-wide minus the 1-cycle completion pipeline warmup.
    EXPECT_GE(core.instructionsCommitted(), 295u);
    EXPECT_EQ(core.memStallCycles(), 0u);
}

TEST(Core, LoadMissGoesToDramAndStalls)
{
    ScriptedTrace trace({loadOp(0x100000)});
    StubMemory memory;
    Core core(0, CoreParams{}, trace, memory);
    run(core, 0, 50);
    ASSERT_EQ(memory.reads.size(), 1u);
    EXPECT_TRUE(memory.reads[0].blocking);
    EXPECT_GT(core.memStallCycles(), 30u); // Stalled since the miss.
    EXPECT_EQ(core.l2Misses(), 1u);

    // Completion wakes the load after the return-path overhead.
    core.onReadComplete(memory.reads[0].addr, 50);
    run(core, 50, 50 + CoreParams{}.dramOverhead + 5);
    EXPECT_GT(core.instructionsCommitted(), 0u);
}

TEST(Core, StallAttributedOnlyWhileMissAtHead)
{
    // 60 ALU instructions before the load: no stall while the commit
    // stream still has ALU work (~20 cycles at 3-wide).
    ScriptedTrace trace({loadOp(0x100000, 60)});
    StubMemory memory;
    Core core(0, CoreParams{}, trace, memory);
    run(core, 0, 15); // ALU work only so far.
    EXPECT_EQ(core.memStallCycles(), 0u);
    run(core, 15, 80);
    EXPECT_GT(core.memStallCycles(), 20u);
}

TEST(Core, SecondAccessToLineHitsCache)
{
    // Enough ALU padding that the second load is fetched after the
    // first one's fill has landed in the caches.
    ScriptedTrace trace({loadOp(0x100000), loadOp(0x100000, 600)});
    StubMemory memory;
    Core core(0, CoreParams{}, trace, memory);
    run(core, 0, 10);
    ASSERT_EQ(memory.reads.size(), 1u);
    core.onReadComplete(memory.reads[0].addr, 10);
    run(core, 10, 400);
    EXPECT_EQ(memory.reads.size(), 1u); // Second load hit the L1/L2.
    EXPECT_GE(core.l1Hits() + core.l2Hits(), 1u);
}

TEST(Core, ConcurrentAccessToSameMissMerges)
{
    // A second load to an in-flight line merges into the MSHR and does
    // not issue another DRAM read.
    ScriptedTrace trace({loadOp(0x100000), loadOp(0x100000, 1)});
    StubMemory memory;
    Core core(0, CoreParams{}, trace, memory);
    run(core, 0, 20);
    EXPECT_EQ(memory.reads.size(), 1u);
    core.onReadComplete(memory.reads[0].addr, 20);
    run(core, 20, 120);
    EXPECT_GT(core.instructionsCommitted(), 1u); // Both woke up.
}

TEST(Core, IndependentMissesOverlap)
{
    ScriptedTrace trace({loadOp(0x100000), loadOp(0x200000, 1)});
    StubMemory memory;
    Core core(0, CoreParams{}, trace, memory);
    run(core, 0, 20);
    EXPECT_EQ(memory.reads.size(), 2u); // Both in flight together.
}

TEST(Core, DependentMissSerializes)
{
    ScriptedTrace trace(
        {loadOp(0x100000), loadOp(0x200000, 1, /*dep=*/true)});
    StubMemory memory;
    Core core(0, CoreParams{}, trace, memory);
    run(core, 0, 30);
    EXPECT_EQ(memory.reads.size(), 1u); // Second waits on the first.
    core.onReadComplete(memory.reads[0].addr, 30);
    run(core, 30, 120);
    EXPECT_EQ(memory.reads.size(), 2u);
}

TEST(Core, StoreMissFetchesNonBlockingFill)
{
    ScriptedTrace trace({storeOp(0x300000)});
    StubMemory memory;
    Core core(0, CoreParams{}, trace, memory);
    run(core, 0, 30);
    ASSERT_EQ(memory.reads.size(), 1u);
    EXPECT_FALSE(memory.reads[0].blocking);
    EXPECT_EQ(core.memStallCycles(), 0u); // Stores do not stall.
    EXPECT_GT(core.instructionsCommitted(), 0u);
}

TEST(Core, NonTemporalStoreWritesDirectly)
{
    ScriptedTrace trace({storeOp(0x400000, /*non_temporal=*/true)});
    StubMemory memory;
    Core core(0, CoreParams{}, trace, memory);
    run(core, 0, 10);
    EXPECT_TRUE(memory.reads.empty());
    ASSERT_EQ(memory.writes.size(), 1u);
    EXPECT_EQ(memory.writes[0], 0x400000u);
}

TEST(Core, DirtyFillEvictionWritesBack)
{
    // Fill enough distinct dirty lines through one L2 set to force a
    // dirty eviction. L2: 1024 sets, so lines 64 B * 1024 sets apart
    // collide in set 0.
    std::vector<TraceOp> ops;
    const Addr stride = 64 * 1024; // Same L2 set, different tags.
    for (int i = 0; i < 10; ++i)
        ops.push_back(storeOp(0x10000000 + i * stride));
    ScriptedTrace trace(ops);
    StubMemory memory;
    Core core(0, CoreParams{}, trace, memory);
    run(core, 0, 50);
    // Complete the fills so evictions can happen.
    for (unsigned i = 0; i < memory.reads.size(); ++i)
        core.onReadComplete(memory.reads[i].addr, 60 + i);
    run(core, 100, 200);
    EXPECT_GE(memory.writes.size(), 1u); // Dirty victim written back.
}

TEST(Core, BlockedEnqueueNotifiesMemory)
{
    ScriptedTrace trace({loadOp(0x100000)});
    StubMemory memory;
    memory.acceptReads = false;
    Core core(0, CoreParams{}, trace, memory);
    run(core, 0, 20);
    EXPECT_TRUE(memory.reads.empty());
    EXPECT_GT(memory.blockedNotes, 0u);
}

TEST(Core, MshrFullStallsFetchWithoutNotify)
{
    CoreParams params;
    params.mshrs = 1;
    ScriptedTrace trace({loadOp(0x100000), loadOp(0x200000, 1)});
    StubMemory memory;
    Core core(0, params, trace, memory);
    run(core, 0, 30);
    EXPECT_EQ(memory.reads.size(), 1u);
    EXPECT_EQ(memory.blockedNotes, 0u); // Self-limited, not interference.
}

TEST(Core, PrewarmMakesLinesResident)
{
    ScriptedTrace trace({loadOp(0x500000)});
    StubMemory memory;
    Core core(0, CoreParams{}, trace, memory);
    core.prewarmCaches({{0x500000, false}});
    run(core, 0, 30);
    EXPECT_TRUE(memory.reads.empty()); // L2 hit thanks to the warmup.
}

TEST(Core, WindowLimitsMlp)
{
    // 128-entry window with 127 ALU ops between misses: at most two
    // misses can coexist.
    std::vector<TraceOp> ops;
    for (int i = 0; i < 6; ++i)
        ops.push_back(loadOp(0x100000 + i * 0x100000, 127));
    ScriptedTrace trace(ops);
    StubMemory memory;
    Core core(0, CoreParams{}, trace, memory);
    run(core, 0, 120);
    EXPECT_LE(memory.reads.size(), 2u);
}

// ---------------------------------------------------------------------
// runAhead() twin: one core bursts ahead wherever it may, its twin
// ticks every cycle; they must agree wherever the burst core stops.
// ---------------------------------------------------------------------

constexpr Addr kWarmBase = 0x2000000;
constexpr unsigned kWarmLines = 4096; // 256 KiB: L2-resident, not L1.
constexpr unsigned kHotLines = 16;    // Reused, so mostly L1 hits.

/** Prewarm every line the twin traces touch, so no access misses the
 *  L2 and the memory system is never involved. */
void
prewarmTwin(Core &core)
{
    std::vector<WarmLine> lines;
    for (unsigned i = 0; i < kWarmLines; ++i)
        lines.push_back({kWarmBase + Addr{i} * 64, false});
    core.prewarmCaches(lines);
}

/** ALU runs of varied length between L1-hit loads, L2-hit loads and
 *  store hits: every load that commits late lifts the window above
 *  the fetch width, so steady ALU stretches run at many occupancies. */
std::vector<TraceOp>
twinOps(unsigned count)
{
    Rng rng(0x7e1ULL);
    std::vector<TraceOp> ops;
    for (unsigned i = 0; i < count; ++i) {
        const bool hot = rng.nextBool(0.5);
        const Addr line = rng.nextBelow(hot ? kHotLines : kWarmLines);
        const Addr addr = kWarmBase + line * 64;
        const auto alu = static_cast<std::uint32_t>(rng.nextBelow(48));
        if (rng.nextBool(0.25)) {
            TraceOp op = storeOp(addr);
            op.aluBefore = alu;
            ops.push_back(op);
        } else {
            ops.push_back(loadOp(addr, alu, rng.nextBool(0.2)));
        }
    }
    return ops;
}

void
expectTwins(const Core &fast, const Core &slow)
{
    EXPECT_EQ(fast.instructionsCommitted(), slow.instructionsCommitted());
    EXPECT_EQ(fast.memStallCycles(), slow.memStallCycles());
    EXPECT_EQ(fast.l1Hits(), slow.l1Hits());
    EXPECT_EQ(fast.l2Hits(), slow.l2Hits());
    EXPECT_EQ(fast.l2Misses(), slow.l2Misses());
    EXPECT_EQ(fast.windowOccupancy(), slow.windowOccupancy());
}

/** Tick @p core through cycles [@p from, @p to). */
void
tickTo(Core &core, Cycles &from, Cycles to)
{
    while (from < to)
        core.tick(from++);
}

TEST(CoreRunAhead, MatchesTickTwinAtEveryOccupancy)
{
    const std::vector<TraceOp> ops = twinOps(3000);
    ScriptedTrace fast_trace(ops);
    ScriptedTrace slow_trace(ops);
    StubMemory fast_memory;
    StubMemory slow_memory;
    const CoreParams params;
    Core fast(0, params, fast_trace, fast_memory);
    Core slow(0, params, slow_trace, slow_memory);
    prewarmTwin(fast);
    prewarmTwin(slow);

    // Nothing here touches memory, so one burst could run to the end;
    // bursts of random length give the twins many meeting points.
    constexpr Cycles kEnd = 40000;
    constexpr std::uint64_t kNoCap = ~0ULL;
    Rng chunks(0xc4c5ULL);
    Cycles now = 0;
    Cycles slow_now = 0;
    Cycles burst_cycles = 0;
    std::uint64_t max_burst_occupancy = 0;
    while (now < kEnd) {
        const std::uint64_t occupancy = fast.windowOccupancy();
        const Cycles end =
            std::min(kEnd, now + 1 + chunks.nextBelow(64));
        const Cycles ahead = fast.runAhead(now, end, kNoCap);
        EXPECT_LE(ahead, end);
        if (ahead == now) {
            fast.tick(now++);
        } else {
            burst_cycles += ahead - now;
            if (ahead > now + 1)
                max_burst_occupancy =
                    std::max(max_burst_occupancy, occupancy);
            now = ahead;
        }
        tickTo(slow, slow_now, now);
        expectTwins(fast, slow);
        if (::testing::Test::HasFailure())
            FAIL() << "twins diverged by cycle " << now;
    }
    EXPECT_EQ(now, kEnd);
    EXPECT_GT(burst_cycles, kEnd / 2);
    EXPECT_GT(max_burst_occupancy, params.commitWidth);
    EXPECT_GT(fast.l1Hits(), 0u);
    EXPECT_GT(fast.l2Hits(), 0u);
    EXPECT_TRUE(fast_memory.reads.empty());
    EXPECT_TRUE(fast_memory.writes.empty());

    // Both cores predict the same next event from the same state.
    fast.tick(now);
    slow.tick(now);
    bool fast_stalls = false, fast_waits = false;
    bool slow_stalls = false, slow_waits = false;
    EXPECT_EQ(fast.nextEventCycle(now, fast_stalls, fast_waits),
              slow.nextEventCycle(now, slow_stalls, slow_waits));
    EXPECT_EQ(fast_stalls, slow_stalls);
    EXPECT_EQ(fast_waits, slow_waits);
}

TEST(CoreRunAhead, StopsAtEndAndBelowCommitCapAboveFetchWidth)
{
    // 30 ALU ops, then an L2-hit load: commit waits 14 cycles on the
    // load while fetch keeps filling, so the ALU stretch after it
    // runs with more than fetch-width entries in flight.
    const std::vector<TraceOp> ops = {loadOp(kWarmBase, 30)};
    ScriptedTrace fast_trace(ops);
    ScriptedTrace slow_trace(ops);
    StubMemory memory;
    const CoreParams params;
    const unsigned width = params.commitWidth;
    Core fast(0, params, fast_trace, memory);
    Core slow(0, params, slow_trace, memory);
    prewarmTwin(fast);
    prewarmTwin(slow);

    Cycles now = 0;
    Cycles slow_now = 0;
    tickTo(fast, now, 40);
    tickTo(slow, slow_now, 40);
    ASSERT_EQ(fast.l2Hits(), 1u);
    const std::uint64_t occupancy = fast.windowOccupancy();
    ASSERT_GT(occupancy, width);

    // End bound: the burst covers exactly [40, 100).
    EXPECT_EQ(fast.runAhead(now, 100, ~0ULL), 100u);
    now = 100;
    tickTo(slow, slow_now, now);
    expectTwins(fast, slow);
    EXPECT_EQ(fast.windowOccupancy(), occupancy);

    // Commit cap: every executed cycle stays strictly below it, and the
    // burst stops at the first cycle that could reach it. A whole
    // number of cycles away, so a guard off by one lands on the cap.
    const std::uint64_t cap = fast.instructionsCommitted() + 17 * width;
    now = fast.runAhead(now, 10000, cap);
    EXPECT_LT(fast.instructionsCommitted(), cap);
    EXPECT_GE(fast.instructionsCommitted() + width, cap);
    tickTo(slow, slow_now, now);
    expectTwins(fast, slow);

    // The crossing cycle runs through tick() and matches the twin.
    fast.tick(now);
    slow.tick(now);
    EXPECT_GE(fast.instructionsCommitted(), cap);
    expectTwins(fast, slow);
}

} // namespace
} // namespace stfm
