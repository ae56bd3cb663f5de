/**
 * @file
 * Shootdown fan-out tests (DESIGN.md §18).
 *
 * System::broadcastInvalidate skips every core whose presence summary
 * proves a shootdown would change nothing there. The differential test
 * drives two identical multi-core Systems through the same random
 * sequence of translations, CoW writes, munmaps, forks and exits: one
 * keeps the filtered fan-out, its twin applies every shootdown to every
 * core itself (the unfiltered broadcast). After each kernel shootdown,
 * every core's checkpoint bytes and the whole stats tree must match.
 * The remaining tests pin the summary's invariant and the fault-batch
 * nesting contract that batched prefault relies on.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/snapshot.hh"
#include "common/stats_export.hh"
#include "core/system.hh"
#include "workloads/apps.hh"

using namespace bf;
using namespace bf::core;
using namespace bf::vm;

namespace
{

constexpr unsigned kCores = 4;
constexpr Addr kFileVa = 0x7f00'0000'0000ull;
constexpr Addr kAnonVa = 0x7f10'0000'0000ull;
constexpr std::uint64_t kFilePages = 1536; // spans three leaf tables
constexpr std::uint64_t kAnonPages = 256;

/** One System plus the handles the op sequence addresses by index. */
struct World
{
    std::unique_ptr<System> sys;
    std::vector<Process *> procs;   //!< nullptr once exited.
    std::vector<unsigned> group_of; //!< Group (0 or 1) of each proc.
    /** Per shootdown: kCores checkpoint digests, then the stats one. */
    std::vector<std::uint64_t> digests;
    std::uint64_t skipped = 0; //!< Core deliveries the filter saved.
    Cycles now = 0;
};

SystemParams
paramsFor(translate::BackendKind backend)
{
    SystemParams p = SystemParams::babelfish();
    p.mmu.backend = backend;
    p.num_cores = kCores;
    p.workers = 1;
    p.kernel.mem_frames = 1 << 22;
    return p;
}

/** 64-bit FNV-style digest of an archive payload, a word at a time. */
std::uint64_t
digest(const snap::ArchiveWriter &ar)
{
    const std::vector<std::uint8_t> &bytes = ar.payload();
    std::uint64_t h = 1469598103934665603ull ^ bytes.size();
    std::size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8) {
        std::uint64_t word;
        std::memcpy(&word, bytes.data() + i, 8);
        h = (h ^ word) * 1099511628211ull;
    }
    for (; i < bytes.size(); ++i)
        h = (h ^ bytes[i]) * 1099511628211ull;
    return h;
}

/** Digests after one shootdown: each core's checkpoint, then stats. */
void
record(World &w)
{
    for (unsigned c = 0; c < kCores; ++c) {
        snap::ArchiveWriter ar;
        w.sys->core(c).mmu().save(ar);
        w.digests.push_back(digest(ar));
    }
    snap::ArchiveWriter tree;
    w.sys->stats().saveStats(tree);
    w.digests.push_back(digest(tree));
}

/** Two groups, each a runtime with a private file and anon mapping. */
void
build(World &w, translate::BackendKind backend, bool filtered)
{
    w.sys = std::make_unique<System>(paramsFor(backend));
    System &sys = *w.sys;
    Kernel &k = sys.kernel();
    if (filtered) {
        k.setTlbInvalidateHook([&w](const TlbInvalidate &inv) {
            for (unsigned c = 0; c < kCores; ++c)
                w.skipped += !w.sys->core(c).mmu().backend().mayHold(inv);
            w.sys->broadcastInvalidate(inv);
            record(w);
        });
    } else {
        k.setTlbInvalidateHook([&w](const TlbInvalidate &inv) {
            for (unsigned c = 0; c < kCores; ++c)
                w.sys->core(c).mmu().applyInvalidate(inv);
            record(w);
        });
    }
    for (unsigned g = 0; g < 2; ++g) {
        const Ccid ccid = k.createGroup("g" + std::to_string(g), 11 + g);
        MappedObject *file = k.createFile("f" + std::to_string(g),
                                          kFilePages * basePageBytes);
        Process *rt = k.createProcess(ccid, "rt" + std::to_string(g));
        k.mmapObject(*rt, file, kFileVa, kFilePages * basePageBytes, 0,
                     /*writable=*/true, /*exec=*/false, /*shared=*/false);
        k.mmapAnon(*rt, kAnonVa, kAnonPages * basePageBytes,
                   /*writable=*/true, /*allow_huge=*/false);
        // Populate before the forks so the children share leaf tables
        // and their writes take the CoW/privatization paths.
        workloads::prefault(k, *rt, kFileVa, kFilePages * basePageBytes,
                            AccessType::Read);
        workloads::prefault(k, *rt, kAnonVa, 64 * basePageBytes,
                            AccessType::Write);
        w.procs.push_back(rt);
        w.group_of.push_back(g);
        for (unsigned i = 0; i < 2; ++i) {
            w.procs.push_back(
                k.fork(*rt, "c" + std::to_string(g) + std::to_string(i)));
            w.group_of.push_back(g);
        }
    }
}

/** Index of a live process chosen by @p r, or -1 when none is. */
int
pickLive(const World &w, std::uint64_t r)
{
    const std::size_t n = w.procs.size();
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = (r + i) % n;
        if (w.procs[j])
            return static_cast<int>(j);
    }
    return -1;
}

void
touch(World &w, unsigned core, Process &p, Addr va, AccessType type)
{
    const Translation t =
        w.sys->core(core).mmu().translate(p, va, type, w.now);
    ASSERT_FALSE(t.blocked);
    w.now += t.cycles + 1;
}

/**
 * Apply one op of the seeded sequence. Every choice comes from
 * @p rng, and both worlds consume it identically.
 */
void
step(World &w, std::mt19937_64 &rng)
{
    Kernel &k = w.sys->kernel();
    const unsigned op = rng() % 100;
    const unsigned core = rng() % kCores;
    const int idx = pickLive(w, rng());
    if (idx < 0)
        return;
    Process &p = *w.procs[idx];
    if (op < 60) {
        // One access: file pages (shared, CoW on write) or anon pages.
        const bool file = rng() % 2;
        const std::uint64_t page =
            rng() % (file ? kFilePages : kAnonPages);
        const Addr va = (file ? kFileVa : kAnonVa) + page * basePageBytes;
        const AccessType type =
            rng() % 3 == 0 ? AccessType::Write : AccessType::Read;
        touch(w, core, p, va, type);
    } else if (op < 80) {
        // A sequential run of private writes: contiguous frames feed
        // the coalesced backend's run detector.
        const std::uint64_t first = rng() % (kAnonPages - 8);
        for (std::uint64_t i = 0; i < 8; ++i)
            touch(w, core, p, kAnonVa + (first + i) * basePageBytes,
                  AccessType::Write);
    } else if (op < 86) {
        // Unmap and remap the anon buffer (Pcid shootdown).
        k.munmap(p, kAnonVa);
        k.mmapAnon(p, kAnonVa, kAnonPages * basePageBytes,
                   /*writable=*/true, /*allow_huge=*/false);
    } else if (op < 93) {
        if (w.procs.size() < 16) {
            w.procs.push_back(k.fork(p, "f" + std::to_string(op)));
            w.group_of.push_back(w.group_of[idx]);
        }
    } else {
        // Exit, keeping at least one member per group alive.
        unsigned alive = 0;
        for (std::size_t i = 0; i < w.procs.size(); ++i)
            alive += w.procs[i] && w.group_of[i] == w.group_of[idx];
        if (alive > 1) {
            k.exitProcess(p);
            w.procs[idx] = nullptr;
        }
    }
}

/** Each core's tlb_live equals its TLBs' valid entries. */
void
expectSummaryExact(System &sys)
{
    for (unsigned c = 0; c < sys.numCores(); ++c) {
        Mmu &mmu = sys.core(c).mmu();
        unsigned live = mmu.l1i().validCount();
        for (PageSize size : {PageSize::Size4K, PageSize::Size2M,
                              PageSize::Size1G})
            live += mmu.l1d(size).validCount() + mmu.l2(size).validCount();
        EXPECT_EQ(mmu.backend().presence().tlb_live, live) << "core " << c;
    }
}

const translate::BackendKind kBackends[] = {
    translate::BackendKind::BabelFish,
    translate::BackendKind::Victima,
    translate::BackendKind::Coalesced,
};

} // namespace

TEST(Shootdown, FilteredEqualsBroadcast)
{
    for (const translate::BackendKind backend : kBackends) {
        SCOPED_TRACE(translate::backendName(backend));
        World filtered;
        World reference;
        build(filtered, backend, true);
        build(reference, backend, false);
        std::mt19937_64 rng_f(20261020);
        std::mt19937_64 rng_r(20261020);
        for (unsigned i = 0; i < 400; ++i) {
            step(filtered, rng_f);
            step(reference, rng_r);
            ASSERT_EQ(filtered.digests.size(), reference.digests.size())
                << "op " << i;
        }
        constexpr std::size_t per = kCores + 1;
        ASSERT_GT(filtered.digests.size(), 100 * per);
        for (std::size_t i = 0; i < filtered.digests.size(); ++i) {
            const std::size_t part = i % per;
            ASSERT_EQ(filtered.digests[i], reference.digests[i])
                << "shootdown " << i / per << ": "
                << (part < kCores ? "checkpoint of core " +
                                        std::to_string(part)
                                  : std::string("stats tree"));
        }
        EXPECT_EQ(stats::toJsonString(filtered.sys->stats()),
                  stats::toJsonString(reference.sys->stats()));
        // Not vacuous: the filter skipped real deliveries.
        EXPECT_GT(filtered.skipped, 0u);
        expectSummaryExact(*filtered.sys);
    }
}

TEST(Shootdown, EmptyCoresSkipEveryKind)
{
    System sys(paramsFor(translate::BackendKind::BabelFish));
    for (unsigned c = 0; c < kCores; ++c) {
        const translate::Backend &b = sys.core(c).mmu().backend();
        for (const auto kind : {TlbInvalidate::Kind::Page,
                                TlbInvalidate::Kind::SharedRange,
                                TlbInvalidate::Kind::Pcid}) {
            TlbInvalidate inv;
            inv.kind = kind;
            inv.ccid = 1;
            inv.pcid = 1;
            EXPECT_FALSE(b.mayHold(inv));
        }
    }
}

TEST(Shootdown, SummaryFollowsFillsAndDrops)
{
    World w;
    build(w, translate::BackendKind::BabelFish, true);
    Process &child = *w.procs[1];
    Mmu &mmu = w.sys->core(0).mmu();
    // A read of a shared file page fills shared (O-clear) entries.
    touch(w, 0, child, kFileVa, AccessType::Read);
    const tlb::Presence &pres = mmu.backend().presence();
    EXPECT_GT(pres.tlb_live, 0u);
    EXPECT_GT(pres.shared[tlb::Presence::bucket(child.ccid())], 0u);
    EXPECT_GT(pres.pwc_live, 0u);
    TlbInvalidate other;
    other.kind = TlbInvalidate::Kind::SharedRange;
    other.ccid = static_cast<Ccid>(child.ccid() + 1);
    EXPECT_FALSE(mmu.backend().mayHold(other));
    expectSummaryExact(*w.sys);
    // Exit drops the child's entries everywhere (Pcid shootdown).
    w.sys->kernel().exitProcess(child);
    w.procs[1] = nullptr;
    expectSummaryExact(*w.sys);
    EXPECT_EQ(pres.tlb_live, 0u);
    EXPECT_EQ(pres.pwc_live, 0u);
    // A checkpoint round trip rebuilds the same summary.
    touch(w, 1, *w.procs[2], kFileVa, AccessType::Read);
    snap::ArchiveWriter ar;
    w.sys->core(1).mmu().save(ar);
    const tlb::Presence before = w.sys->core(1).mmu().backend().presence();
    w.sys->core(1).mmu().flushAll();
    EXPECT_EQ(w.sys->core(1).mmu().backend().presence().tlb_live, 0u);
    snap::ArchiveReader rd(ar.payload());
    w.sys->core(1).mmu().restore(rd);
    const tlb::Presence &after = w.sys->core(1).mmu().backend().presence();
    EXPECT_EQ(after.tlb_live, before.tlb_live);
    EXPECT_EQ(after.shared, before.shared);
    EXPECT_EQ(after.pwc_live, before.pwc_live);
}

TEST(Shootdown, CoalescedRunCountsAsPresence)
{
    World w;
    build(w, translate::BackendKind::Coalesced, true);
    Process &child = *w.procs[1];
    // One private 4K write fill starts a run (no range yet): the core
    // is not empty, because the next shootdown resets the detector.
    w.sys->core(0).mmu().flushAll();
    touch(w, 0, child, kAnonVa + 200 * basePageBytes, AccessType::Write);
    const tlb::Presence &pres = w.sys->core(0).mmu().backend().presence();
    EXPECT_GT(pres.extra, 0u);
    TlbInvalidate inv;
    inv.kind = TlbInvalidate::Kind::SharedRange;
    inv.ccid = static_cast<Ccid>(child.ccid() + 1);
    EXPECT_TRUE(w.sys->core(0).mmu().backend().mayHold(inv));
}

TEST(Shootdown, NestedFaultBatchPanics)
{
    SystemParams p = paramsFor(translate::BackendKind::BabelFish);
    Kernel kernel(p.kernel);
    {
        const FaultBatch outer(kernel);
        EXPECT_TRUE(kernel.faultBatchActive());
        EXPECT_DEATH({ const FaultBatch inner(kernel); },
                     "nested fault batches are not supported");
        EXPECT_TRUE(kernel.faultBatchActive());
    }
    EXPECT_FALSE(kernel.faultBatchActive());
    EXPECT_DEATH(kernel.endFaultBatch(), "no fault batch is open");
    // prefault opens its own batch, so calling it inside one is loud.
    const Ccid ccid = kernel.createGroup("g", 1);
    Process *proc = kernel.createProcess(ccid, "p");
    kernel.mmapAnon(*proc, kAnonVa, 4 * basePageBytes, true, false);
    EXPECT_DEATH(
        {
            const FaultBatch outer(kernel);
            workloads::prefault(kernel, *proc, kAnonVa, 4 * basePageBytes,
                                AccessType::Write);
        },
        "nested fault batches are not supported");
    workloads::prefault(kernel, *proc, kAnonVa, 4 * basePageBytes,
                        AccessType::Write);
    EXPECT_FALSE(kernel.faultBatchActive());
}
