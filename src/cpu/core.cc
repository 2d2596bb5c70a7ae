#include "cpu/core.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "obs/telemetry.hh"

namespace stfm
{

Core::Core(ThreadId id, const CoreParams &params, TraceSource &trace,
           MemoryPort &memory)
    : id_(id), params_(params), trace_(trace), memory_(memory),
      l1_(params.l1), l2_(params.l2), mshr_(params.mshrs),
      window_(std::bit_ceil(std::uint64_t{params.windowSize}))
{
    STFM_ASSERT(params.windowSize > 0, "window size must be positive");
    // The store is a power of two (>= windowSize) purely so slot
    // lookup is a mask; at most windowSize entries are live at once,
    // so every live position still maps to a distinct slot.
    windowMask_ = window_.size() - 1;
}

void
Core::registerTelemetry(TelemetryRegistry &registry)
{
    registry.gauge(formatMessage("core.t%u.mshrOccupancy", id_),
                   "entries", "core",
                   [this] { return static_cast<double>(mshrInUse()); });
    registry.counter(formatMessage("core.t%u.stallCycles", id_),
                     "cpu-cycles", "core", [this] {
                         return static_cast<double>(memStallCycles());
                     });
    registry.counter(
        formatMessage("core.t%u.instructions", id_), "instructions",
        "core", [this] {
            return static_cast<double>(instructionsCommitted());
        });
    // "llc", not "l2": digits in series names are reserved for
    // instance indices (normalizeSeriesName folds them to <n>).
    registry.counter(formatMessage("core.t%u.llcMisses", id_),
                     "requests", "core", [this] {
                         return static_cast<double>(l2Misses());
                     });
}

void
Core::prewarmCaches(const std::vector<WarmLine> &lines)
{
    for (const WarmLine &line : lines) {
        // Overflowing sets silently drop their LRU victim: the warmup
        // happened "before time zero", so no writeback traffic results.
        l2_.fill(line.addr & ~(params_.l2.lineBytes - 1), line.dirty);
    }
}

bool
Core::tick(Cycles now)
{
    const std::uint64_t head_before = head_;
    const std::uint64_t tail_before = tail_;
    const bool drained = drainWritebacks();
    commit(now);
    fetch(now);
    return drained || head_ != head_before || tail_ != tail_before;
}

Cycles
Core::nextEventCycle(Cycles now, bool &stalls,
                     bool &waits_capacity) const
{
    stalls = false;
    waits_capacity = false;

    // Writeback drain would hand a write to the controller.
    if (!pendingWritebacks_.empty()) {
        if (memory_.canAcceptWrite(pendingWritebacks_.front()))
            return now + 1;
        // The blocked drain resumes when the controller frees write
        // capacity — a memory-side event this core must be woken for.
        waits_capacity = true;
    }

    Cycles wake = kNever;

    // Commit side. A blocked oldest instruction accrues stall per
    // cycle exactly when it is an L2 miss (the Tshared rule); one
    // waiting on its cache latency wakes by itself at readyAt.
    if (head_ != tail_) {
        const WindowEntry &e = window_[head_ & windowMask_];
        if (!e.memWait && e.readyAt <= now + 1)
            return now + 1; // Commit progresses next cycle.
        stalls = e.l2Miss;
        if (!e.memWait)
            wake = e.readyAt;
        // memWait: only onReadComplete can wake it (external).
    } else {
        // Drained window: stall is attributed while fetch is blocked
        // on memory structures, mirroring commit().
        stalls = fetchBlockedByMemory_;
    }

    // Fetch side: would the first fetch-loop iteration make progress?
    if (windowFull())
        return wake; // Slots free only via commit (covered by wake).
    if (pendingWritebacks_.size() >= params_.maxPendingWritebacks)
        return wake; // Frees only via the drain (external).
    if (aluCredit_ > 0 || !memPending_)
        return now + 1; // Would fetch an ALU op / refill the trace.

    // A memory op is pending. Address dependence first.
    if (pendingOp_.dependsOnPrev && lastMissPos_ != ~0ULL &&
        lastMissPos_ >= head_) {
        const WindowEntry &p = window_[lastMissPos_ & windowMask_];
        if (p.memWait)
            return wake; // Producer waits on DRAM (external).
        if (p.readyAt > now + 1)
            return std::min(wake, p.readyAt);
        // Producer done by now + 1: issue is attempted.
    }

    // Mirror issueMemOp() without side effects. Any issue attempt that
    // succeeds, hits a cache, or merges an MSHR is progress.
    const Addr line = pendingOp_.addr & ~(params_.l1.lineBytes - 1);
    const bool is_store = pendingOp_.kind == TraceOp::Kind::Store;
    if (is_store && pendingOp_.nonTemporal)
        return now + 1; // Writeback capacity was checked above.
    if (is_store) {
        if (l2_.probe(line) || mshr_.has(line))
            return now + 1;
        if (mshr_.full() || !memory_.canAcceptRead(line)) {
            // Structural stall; frees only externally (a column issue
            // frees buffer capacity, a completion frees an MSHR).
            waits_capacity = true;
            return wake;
        }
        return now + 1;
    }
    // Load path.
    if (l1_.probe(line) || l2_.probe(line) || mshr_.has(line))
        return now + 1;
    if (mshr_.full()) {
        // Frees when own data returns; flagged anyway — a spurious
        // capacity wake is sound, a missed wake would not be.
        waits_capacity = true;
        return wake;
    }
    // A load locked out of a full request buffer retries every cycle
    // *with* a policy side effect (noteEnqueueBlocked); it must not be
    // skipped. A load that can issue is progress outright.
    return now + 1;
}

void
Core::commit(Cycles now)
{
    for (unsigned n = 0; n < params_.commitWidth; ++n) {
        if (head_ == tail_) {
            // Drained window while fetch is blocked on memory
            // structures: the thread is stalled on its misses.
            if (n == 0 && fetchBlockedByMemory_)
                ++memStall_;
            return;
        }
        const WindowEntry &e = window_[head_ & windowMask_];
        if (e.memWait || e.readyAt > now) {
            // In-order commit is blocked. Attribute the stall to memory
            // only when the oldest instruction is an L2 miss (the
            // paper's Tshared rule).
            if (n == 0 && e.l2Miss)
                ++memStall_;
            return;
        }
        ++head_;
        ++committed_;
    }
}

void
Core::fetch(Cycles now)
{
    fetchBlockedByMemory_ = false;
    bool mem_op_fetched = false;
    for (unsigned n = 0; n < params_.fetchWidth; ++n) {
        if (windowFull())
            return;
        if (pendingWritebacks_.size() >= params_.maxPendingWritebacks)
            return; // Backpressure from the write path.

        // Refill the decode state from the trace.
        if (aluCredit_ == 0 && !memPending_) {
            pendingOp_ = trace_.next();
            aluCredit_ = pendingOp_.aluBefore;
            memPending_ = pendingOp_.kind != TraceOp::Kind::None;
        }

        if (aluCredit_ > 0) {
            WindowEntry &e = at(tail_);
            e.readyAt = now + 1;
            e.memWait = false;
            e.l2Miss = false;
            ++tail_;
            --aluCredit_;
            continue;
        }

        STFM_ASSERT(memPending_, "decode state exhausted");
        if (mem_op_fetched)
            return; // At most one memory operation per cycle (Table 2).
        if (pendingOp_.dependsOnPrev && lastMissPos_ != ~0ULL &&
            lastMissPos_ >= head_ && !entryDone(lastMissPos_, now)) {
            return; // Address-dependent load: wait for the producer.
        }
        if (!issueMemOp(now)) {
            // Structural stall (MSHRs / request buffer full).
            fetchBlockedByMemory_ = true;
            return;
        }
        mem_op_fetched = true;
        memPending_ = false;
    }
}

bool
Core::issueMemOp(Cycles now)
{
    const Addr line = pendingOp_.addr & ~(params_.l1.lineBytes - 1);
    const bool is_store = pendingOp_.kind == TraceOp::Kind::Store;

    if (is_store && pendingOp_.nonTemporal) {
        // Streaming store: bypass the caches, write straight to DRAM.
        if (pendingWritebacks_.size() >= params_.maxPendingWritebacks)
            return false;
        if (memory_.canAcceptWrite(line))
            memory_.issueWrite(line, id_);
        else
            pendingWritebacks_.push_back(line);
        WindowEntry &e = at(tail_);
        e.readyAt = now + 1;
        e.memWait = false;
        e.l2Miss = false;
        ++tail_;
        return true;
    }

    if (is_store) {
        // Stores commit immediately (write buffering); the cache fill
        // happens in the background.
        if (!l2_.access(line, /*is_store=*/true)) {
            // Store fill: fetch the line, install dirty.
            const bool merged = mshr_.has(line);
            if (!merged) {
                if (mshr_.full() || !memory_.canAcceptRead(line))
                    return false;
                mshr_.allocate(line, MshrFile::kNoWaiter,
                               /*dirty_fill=*/true);
                memory_.issueRead(line, id_, /*blocking=*/false);
            } else {
                mshr_.allocate(line, MshrFile::kNoWaiter,
                               /*dirty_fill=*/true);
            }
        } else {
            l1_.access(line, /*is_store=*/false); // Keep L1 LRU warm.
        }
        WindowEntry &e = at(tail_);
        e.readyAt = now + 1;
        e.memWait = false;
        e.l2Miss = false;
        ++tail_;
        return true;
    }

    // Load path.
    WindowEntry &e = at(tail_);
    e.memWait = false;
    e.l2Miss = false;
    if (l1_.access(line, /*is_store=*/false)) {
        e.readyAt = now + params_.l1.latency;
    } else if (l2_.access(line, /*is_store=*/false)) {
        e.readyAt = now + params_.l1.latency + params_.l2.latency;
        l1_.fill(line, /*dirty=*/false); // L1 is write-through: clean.
    } else {
        // L2 miss: allocate or merge an MSHR and go to DRAM.
        const bool merged = mshr_.has(line);
        if (!merged) {
            if (mshr_.full())
                return false;
            if (!memory_.canAcceptRead(line)) {
                // Request buffer full: a wait the memory system should
                // see (it is usually full of other threads' requests).
                memory_.noteEnqueueBlocked(line, id_);
                return false;
            }
        }
        mshr_.allocate(line, tail_, /*dirty_fill=*/false);
        if (!merged)
            memory_.issueRead(line, id_, /*blocking=*/true);
        e.memWait = true;
        e.l2Miss = true;
        e.readyAt = kNever;
        lastMissPos_ = tail_;
    }
    ++tail_;
    return true;
}

void
Core::onReadComplete(Addr line_addr, Cycles now)
{
    bool dirty = false;
    wakeScratch_.clear();
    if (!mshr_.complete(line_addr, wakeScratch_, dirty))
        return; // Spurious (e.g. after a reset); ignore.
    handleFill(line_addr, dirty, now);
    for (const std::uint64_t pos : wakeScratch_) {
        if (pos < head_ || pos >= tail_)
            continue; // The waiter is gone (should not happen for loads).
        WindowEntry &e = at(pos);
        e.memWait = false;
        // The fixed controller/interconnect overhead is charged on the
        // return path.
        e.readyAt = now + params_.dramOverhead;
    }
}

void
Core::handleFill(Addr line_addr, bool dirty, Cycles now)
{
    (void)now;
    const Eviction victim = l2_.fill(line_addr, dirty);
    if (victim.valid) {
        l1_.invalidate(victim.addr); // Maintain inclusion.
        if (victim.dirty)
            pendingWritebacks_.push_back(victim.addr);
    }
    l1_.fill(line_addr, /*dirty=*/false);
}

Cycles
Core::runAhead(Cycles now, Cycles end, std::uint64_t commit_cap)
{
    // Eligibility, all O(1): no buffered writeback (drain traffic
    // interacts with controller write capacity every cycle), no
    // memory-blocked fetch retry (that path has a per-cycle policy
    // side effect, noteEnqueueBlocked), and a fetch width the slot-undo
    // buffer can hold. Outstanding misses do NOT disqualify: executing
    // in their shadow is core-local as long as every burst cycle stays
    // stall-free (checked per cycle below) and no completion can land
    // inside the burst — which the caller guarantees by capping @p end
    // at the memory system's next interesting cycle while
    // mshrInUse() != 0 (see the header contract).
    if (!pendingWritebacks_.empty() || fetchBlockedByMemory_ ||
        params_.fetchWidth > kMaxBurstFetch)
        return now;

    Cycles c = now;
    // `committed_ + commitWidth < commit_cap` keeps every executed
    // cycle strictly below the cap, so the caller's threshold scan can
    // never fire early off run-ahead state; the crossing cycle itself
    // runs through the normal tick() path.
    while (c < end && committed_ + params_.commitWidth < commit_cap) {
        // Stall cycles stay outside bursts: when the oldest instruction
        // is a blocked L2 miss (in flight, merged, or still paying its
        // DRAM return-path overhead), this cycle would increment the
        // memory-stall counter — hand it back to the normal tick()
        // path, whose quiescence machinery accounts it exactly.
        if (head_ != tail_) {
            const WindowEntry &h = window_[head_ & windowMask_];
            if (h.l2Miss && (h.memWait || h.readyAt > c))
                return c;
        }
        // Steady-state ALU stretch, in closed form at any occupancy.
        // With fetch width == commit width == F, W = tail_ - head_ >= F
        // entries in flight and banked ALU credits, a cycle that commits
        // F entries and fetches F ALU slots leaves W unchanged, so over
        // a run of such cycles entry head_ + k commits at cycle
        // c + k/F. An entry fetched inside the run commits W/F >= 1
        // cycles after its fetch, so on or after its readyAt (fetch
        // cycle + 1): only the first min(W, nF) entries already in the
        // window can hold the run up. The run lasts
        //   n = min(aluCredit_/F, end - c, cap_room)
        // cycles, cut to k/F at the first such entry k not ready by its
        // commit cycle (an entry waiting on DRAM has readyAt == kNever).
        // ALU slots never touch the caches, the trace decode state or
        // lastMissPos_, so the stretch reduces to bumping the counters
        // and writing the slots still live at its end — the last
        // min(W, nF) fetched — exactly as a cycle-by-cycle run would
        // leave them. Slots fetched and committed inside the run are
        // dead: nothing reads a position below head_.
        const unsigned F = params_.commitWidth;
        const std::uint64_t W = tail_ - head_;
        if (params_.fetchWidth == F && W >= F && aluCredit_ >= F) {
            // committed_ + jF + F < commit_cap for every executed cycle
            // j in [0, n), matching the loop guard.
            const std::uint64_t cap_room =
                (commit_cap - committed_ - 1) / F;
            std::uint64_t n = std::min<std::uint64_t>(
                {aluCredit_ / F, end - c, cap_room});
            const std::uint64_t scan = std::min(W, n * F);
            Cycles due = c;
            unsigned lane = 0;
            for (std::uint64_t k = 0; k < scan; ++k) {
                if (window_[(head_ + k) & windowMask_].readyAt > due) {
                    n = due - c;
                    break;
                }
                if (++lane == F) {
                    lane = 0;
                    ++due;
                }
            }
            if (n > 0) {
                const std::uint64_t fetched = n * F;
                const std::uint64_t dead = fetched - std::min(W, fetched);
                Cycles ready = c + 1 + dead / F;
                lane = static_cast<unsigned>(dead % F);
                for (std::uint64_t m = dead; m < fetched; ++m) {
                    WindowEntry &e = window_[(tail_ + m) & windowMask_];
                    e.readyAt = ready;
                    e.memWait = false;
                    e.l2Miss = false;
                    if (++lane == F) {
                        lane = 0;
                        ++ready;
                    }
                }
                head_ += fetched;
                tail_ += fetched;
                committed_ += fetched;
                aluCredit_ -= static_cast<std::uint32_t>(fetched);
                c += n;
                continue;
            }
        }
        const std::uint64_t head0 = head_;
        const std::uint64_t tail0 = tail_;
        const std::uint64_t committed0 = committed_;

        // Commit replica. The head is never a blocked L2 miss (checked
        // at the top of the cycle; memWait implies l2Miss), so — unlike
        // commit() — no memory stall can accrue.
        for (unsigned n = 0; n < params_.commitWidth; ++n) {
            if (head_ == tail_ ||
                window_[head_ & windowMask_].readyAt > c)
                break;
            ++head_;
            ++committed_;
        }

        // Fetch replica. Mirrors fetch()/issueMemOp() slot for slot,
        // except the memory operation probes the caches first and the
        // whole cycle is rolled back if it would leave the core (the
        // pre-abort slots are ALU-only, so the rollback just returns
        // their anonymous credits; trace decode state stays put, which
        // is exactly where a cycle-by-cycle rerun would land).
        //
        // Slot writes must be undone too: once the commit replica's
        // head advance is rolled back, a new tail position can alias a
        // still-live slot (pos and pos - windowSize share backing), so
        // each written slot's prior contents are saved. The aborting
        // memory op itself writes nothing before the abort decision,
        // leaving only the ALU slots (at most fetchWidth per cycle).
        bool aborted = false;
        bool mem_op_fetched = false;
        std::uint64_t dep_block = ~0ULL;
        unsigned alu_taken = 0;
        WindowEntry slot_undo[kMaxBurstFetch]; // Left uninitialised.
        for (unsigned n = 0; n < params_.fetchWidth; ++n) {
            if (windowFull())
                break;
            if (aluCredit_ == 0 && !memPending_) {
                pendingOp_ = trace_.next();
                aluCredit_ = pendingOp_.aluBefore;
                memPending_ = pendingOp_.kind != TraceOp::Kind::None;
            }
            if (aluCredit_ > 0) {
                WindowEntry &e = window_[tail_ & windowMask_];
                slot_undo[alu_taken] = e;
                e.readyAt = c + 1;
                e.memWait = false;
                e.l2Miss = false;
                ++tail_;
                --aluCredit_;
                ++alu_taken;
                continue;
            }
            if (mem_op_fetched)
                break; // At most one memory operation per cycle.
            if (pendingOp_.dependsOnPrev && lastMissPos_ != ~0ULL &&
                lastMissPos_ >= head_ && !entryDone(lastMissPos_, c)) {
                dep_block = lastMissPos_;
                break; // Wait for the producer (no memory touch).
            }

            const Addr line =
                pendingOp_.addr & ~(params_.l1.lineBytes - 1);
            if (pendingOp_.kind == TraceOp::Kind::Store) {
                if (pendingOp_.nonTemporal) {
                    aborted = true; // Streaming write: leaves the core.
                    break;
                }
                if (l2_.probe(line)) {
                    l2_.access(line, /*is_store=*/true);
                    l1_.access(line, /*is_store=*/false); // LRU warm.
                } else if (mshr_.has(line)) {
                    // Store fill coalescing into an outstanding miss
                    // stays core-local: issueMemOp() sends no request
                    // on a merge, the entry just turns dirty. Replay
                    // its exact access sequence (the L2 miss counts).
                    l2_.access(line, /*is_store=*/true);
                    mshr_.allocate(line, MshrFile::kNoWaiter,
                                   /*dirty_fill=*/true);
                } else {
                    aborted = true; // New store fill: leaves the core.
                    break;
                }
                WindowEntry &e = window_[tail_ & windowMask_];
                e.readyAt = c + 1;
                e.memWait = false;
                e.l2Miss = false;
            } else {
                // Probe first (no counters, no slot writes); once the
                // cycle is known to stay core-local, replay the exact
                // access sequence of issueMemOp() so hit/miss counters
                // match a cycle-by-cycle run. The aborted case bumps
                // nothing here — the rerun through tick() bumps once.
                WindowEntry &e = window_[tail_ & windowMask_];
                if (l1_.probe(line)) {
                    l1_.access(line, /*is_store=*/false);
                    e.readyAt = c + params_.l1.latency;
                    e.memWait = false;
                    e.l2Miss = false;
                } else if (l2_.probe(line)) {
                    l1_.access(line, /*is_store=*/false); // Miss count.
                    l2_.access(line, /*is_store=*/false);
                    e.readyAt =
                        c + params_.l1.latency + params_.l2.latency;
                    e.memWait = false;
                    e.l2Miss = false;
                    l1_.fill(line, /*dirty=*/false);
                } else if (mshr_.has(line)) {
                    // Merged load: coalesces into the outstanding miss
                    // without touching the memory system — exactly
                    // issueMemOp()'s merge path (both cache misses
                    // count; allocate() adds this waiter and bumps no
                    // allocation). Woken by the eventual completion,
                    // which the end cap keeps outside this burst.
                    l1_.access(line, /*is_store=*/false);
                    l2_.access(line, /*is_store=*/false);
                    mshr_.allocate(line, tail_, /*dirty_fill=*/false);
                    e.memWait = true;
                    e.l2Miss = true;
                    e.readyAt = kNever;
                    lastMissPos_ = tail_;
                } else {
                    aborted = true; // New L2 miss: needs DRAM.
                    break;
                }
            }
            ++tail_;
            mem_op_fetched = true;
            memPending_ = false;
        }

        if (aborted) {
            // Only ALU slots can precede the aborting memory op (a
            // merge never aborts, so no MSHR state needs undoing).
            while (alu_taken > 0) {
                --alu_taken;
                --tail_;
                window_[tail_ & windowMask_] = slot_undo[alu_taken];
                ++aluCredit_;
            }
            head_ = head0;
            tail_ = tail0;
            committed_ = committed0;
            return c;
        }

        if (committed_ == committed0 && tail_ == tail0) {
            // Idle cycle: nothing commits or fetches until some
            // readyAt arrives, and idle cycles in a burst are
            // stall-free no-ops (a stalling head ended the burst
            // above). Jump straight to the earliest unblocking time;
            // if every blocker waits on DRAM, end the burst — only an
            // external completion can revive the core.
            Cycles unblock = kNever;
            if (head_ != tail_) {
                const WindowEntry &h = window_[head_ & windowMask_];
                if (!h.memWait)
                    unblock = h.readyAt;
            }
            if (dep_block != ~0ULL) {
                const WindowEntry &p =
                    window_[dep_block & windowMask_];
                if (!p.memWait)
                    unblock = std::min(unblock, p.readyAt);
            }
            if (unblock == kNever)
                return c;
            c = std::min(unblock, end);
            continue;
        }
        ++c;
    }
    return c;
}

bool
Core::drainWritebacks()
{
    bool drained = false;
    while (!pendingWritebacks_.empty() &&
           memory_.canAcceptWrite(pendingWritebacks_.front())) {
        memory_.issueWrite(pendingWritebacks_.front(), id_);
        pendingWritebacks_.pop_front();
        drained = true;
    }
    return drained;
}

} // namespace stfm
