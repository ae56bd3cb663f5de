/**
 * @file
 * Determinism tests for the weave machinery (DESIGN.md §15):
 *
 *  - merge fidelity: the k-way ladder reproduces the reference
 *    (ts, core, seq) comparison sort exactly, including on a log filled
 *    exactly to its pooled capacity;
 *  - zero-shared-event round: an empty stream through the serial weave
 *    leaves the hierarchy (tags, LRU stamps and clocks, dirty bits,
 *    DRAM banks) and its stats untouched.
 *
 * Byte-identity of the whole system across BF_WORKERS is pinned by
 * ParallelSystem.WorkersByteIdentical (tests/test_parallel_system.cc).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/snapshot.hh"
#include "common/stats_export.hh"
#include "core/epoch.hh"
#include "mem/hierarchy.hh"

using namespace bf;

namespace
{

constexpr unsigned kCores = 4;

/** L3 set stride of the default Table I geometry (8 MiB, 16-way, 64 B
 *  lines -> 8192 sets): addresses one stride apart share a set. */
constexpr Addr kL3SetStride = 64ull * 8192;

std::unique_ptr<mem::CacheHierarchy>
makeHierarchy(stats::StatGroup *root)
{
    return std::make_unique<mem::CacheHierarchy>(mem::HierarchyParams{},
                                                 kCores, root);
}

/** Identical direct-path warmup: seed the private levels and the L3 so
 *  weave probes find lines to invalidate and fills find victims. */
void
warm(mem::CacheHierarchy &h)
{
    Cycles now = 0;
    for (unsigned c = 0; c < kCores; ++c) {
        for (unsigned k = 0; k < 64; ++k) {
            h.access(c, 0x4000 + k * kL3SetStride, AccessType::Read,
                     now += 20);
            h.access(c, 0x9000 + k * 64, AccessType::Write, now += 20);
        }
    }
}

/** Serialize the full hierarchy state (tags, LRU, dirty bits, DRAM). */
std::vector<std::uint8_t>
stateBytes(const mem::CacheHierarchy &h)
{
    snap::ArchiveWriter ar;
    h.save(ar);
    return ar.payload();
}

/** Reference merge: the comparison sort the ladder replaced. */
void
referenceMerge(const std::vector<std::unique_ptr<core::EpochLog>> &logs,
               core::WeaveStream &out, bool write_probes)
{
    struct Key
    {
        Cycles ts;
        std::uint32_t core;
        std::uint32_t seq;
    };
    std::vector<Key> keys;
    for (unsigned c = 0; c < logs.size(); ++c) {
        for (std::size_t i = 0; i < logs[c]->size(); ++i)
            keys.push_back(
                {logs[c]->ts(i), c, static_cast<std::uint32_t>(i)});
    }
    std::sort(keys.begin(), keys.end(), [](const Key &a, const Key &b) {
        if (a.ts != b.ts)
            return a.ts < b.ts;
        if (a.core != b.core)
            return a.core < b.core;
        return a.seq < b.seq;
    });
    out.clear();
    for (const Key &k : keys) {
        const core::EpochLog &log = *logs[k.core];
        const std::uint8_t flags = log.flags(k.seq);
        if (write_probes && (flags & core::EpochLog::flagWrite)) {
            out.probe_paddr.push_back(log.paddr(k.seq));
            out.probe_core.push_back(static_cast<std::uint8_t>(k.core));
        }
        if (!(flags & core::EpochLog::flagProbe)) {
            out.ts.push_back(k.ts);
            out.paddr.push_back(log.paddr(k.seq));
            out.core.push_back(static_cast<std::uint8_t>(k.core));
            out.flags.push_back(flags);
        }
    }
}

void
expectStreamsEqual(const core::WeaveStream &a, const core::WeaveStream &b)
{
    EXPECT_EQ(a.ts, b.ts);
    EXPECT_EQ(a.paddr, b.paddr);
    EXPECT_EQ(a.core, b.core);
    EXPECT_EQ(a.flags, b.flags);
    EXPECT_EQ(a.probe_paddr, b.probe_paddr);
    EXPECT_EQ(a.probe_core, b.probe_core);
}

/** Seeded per-core logs with interleaved timestamps, writes, probes and
 *  walker events. */
std::vector<std::unique_ptr<core::EpochLog>>
makeLogs(std::size_t events_per_core)
{
    std::vector<std::unique_ptr<core::EpochLog>> logs;
    std::uint64_t rng = 0x9E3779B97F4A7C15ull;
    for (unsigned c = 0; c < kCores; ++c) {
        auto log = std::make_unique<core::EpochLog>();
        Cycles ts = 100 + 7 * c;
        for (std::size_t i = 0; i < events_per_core; ++i) {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            ts += rng % 50; // Zero strides: cross-core ts ties happen.
            const Addr paddr = (rng >> 8) % (1ull << 30) & ~Addr{63};
            if ((rng & 15) == 0) {
                log->appendProbe(ts, paddr);
            } else {
                log->appendAccess(ts, paddr,
                                  (rng & 3) == 0 ? AccessType::Write
                                                 : AccessType::Read,
                                  (rng & 7) == 0);
            }
        }
        logs.push_back(std::move(log));
    }
    return logs;
}

} // namespace

// ---------------------------------------------------------------------
// Merge fidelity
// ---------------------------------------------------------------------

// The ladder merge is an exact replacement for the comparison sort it
// retired: same access lanes, same probe lanes, on logs with cross-core
// timestamp ties, explicit probes, writes and walker events.
TEST(WeaveMerge, LadderMatchesReferenceSort)
{
    for (const bool write_probes : {true, false}) {
        const auto logs = makeLogs(2000);
        core::WeaveStream ladder, reference;
        core::mergeEpochLogs(logs, ladder, write_probes);
        referenceMerge(logs, reference, write_probes);
        expectStreamsEqual(ladder, reference);
    }
}

// A pooled log filled to exactly its reserved capacity (the boundary
// where one more event would reallocate) merges like any other.
TEST(WeaveMerge, ExactlyFullPooledLog)
{
    auto logs = makeLogs(512);
    // Refill log 0 to exactly its pooled capacity.
    logs[0]->clearEvents();
    const std::size_t cap = logs[0]->capacity();
    ASSERT_GT(cap, 0u);
    for (std::size_t i = 0; i < cap; ++i)
        logs[0]->appendAccess(200 + 3 * i, (i * 64) & ~Addr{63},
                              (i & 1) ? AccessType::Write
                                      : AccessType::Read,
                              false);
    ASSERT_EQ(logs[0]->size(), logs[0]->capacity());

    core::WeaveStream ladder, reference;
    core::mergeEpochLogs(logs, ladder, true);
    referenceMerge(logs, reference, true);
    expectStreamsEqual(ladder, reference);
}

// Single-core fast path: one active log must stream through unchanged.
TEST(WeaveMerge, SingleLogFastPath)
{
    std::vector<std::unique_ptr<core::EpochLog>> logs;
    logs.push_back(std::make_unique<core::EpochLog>());
    for (std::size_t i = 0; i < 100; ++i)
        logs[0]->appendAccess(10 + i, i * 64, AccessType::Read, false);
    core::WeaveStream ladder, reference;
    core::mergeEpochLogs(logs, ladder, false);
    referenceMerge(logs, reference, false);
    expectStreamsEqual(ladder, reference);
    EXPECT_EQ(ladder.accesses(), 100u);
}

// ---------------------------------------------------------------------
// Serial weave
// ---------------------------------------------------------------------

// A round with no shared-level events at all leaves the hierarchy
// byte-identical to its pre-weave state, bills nothing and moves no
// stat. (The suite keeps its historical name so the test id is stable.)
TEST(WeaveShards, ZeroEventRoundIsNoOp)
{
    core::WeaveStream empty;
    stats::StatGroup root("mem_z");
    auto h = makeHierarchy(&root);
    warm(*h);
    const auto before = stateBytes(*h);
    const std::string stats_before = stats::toJsonString(root);

    std::vector<mem::DramExcess> core_excess(kCores);
    std::vector<mem::DramExcess> slot_excess;
    h->weave(empty, core_excess, slot_excess);
    EXPECT_EQ(before, stateBytes(*h));
    EXPECT_EQ(stats_before, stats::toJsonString(root));
    for (const mem::DramExcess &e : core_excess) {
        EXPECT_EQ(e.data, 0u);
        EXPECT_EQ(e.walk, 0u);
    }
}
