/**
 * @file
 * Hostile-input tests of the binary readers: the event-trace reader
 * (common/trace) and the checkpoint archive with the component
 * restores behind it (common/snapshot, Kernel, translation backend,
 * stats tree).
 *
 * Each test writes a small, valid file, then feeds the reader every
 * truncated prefix, seeded single-byte flips and length fields that
 * lie. Every case must end in the reader's own error (TraceError /
 * SnapshotError) or in a clean read — never a crash, a hang, another
 * exception type or an allocation the input cannot justify. A guard
 * on operator new turns any single request above kAllocLimit into a
 * test failure, so an unchecked length field shows up here rather than
 * as an out-of-memory kill.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <new>
#include <random>
#include <string>
#include <typeinfo>
#include <vector>

#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/stats.hh"
#include "common/trace/trace.hh"
#include "core/mmu.hh"
#include "mem/hierarchy.hh"
#include "vm/kernel.hh"
#include "workloads/apps.hh"

namespace
{

/** Far above anything these small files justify. */
constexpr std::size_t kAllocLimit = 256ull << 20;
bool g_oversized = false;

void *
guardedAlloc(std::size_t size)
{
    if (size > kAllocLimit) {
        g_oversized = true;
        throw std::bad_alloc();
    }
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return guardedAlloc(size); }
void *operator new[](std::size_t size) { return guardedAlloc(size); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

using namespace bf;

namespace
{

using Bytes = std::vector<std::uint8_t>;

const bool quiet = [] {
    bf::detail::setVerbose(false);
    return true;
}();

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

Bytes
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
spit(const std::string &path, const Bytes &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

void
putU32(Bytes &bytes, std::size_t at, std::uint32_t v)
{
    for (unsigned i = 0; i < 4 && at + i < bytes.size(); ++i)
        bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/**
 * The hostile variants of @p good: every truncated prefix, @p flips
 * seeded single-byte flips, and every aligned u32 in the first
 * @p length_span bytes overwritten with lying lengths.
 */
std::vector<Bytes>
variants(const Bytes &good, unsigned flips, std::size_t length_span,
         std::uint64_t seed)
{
    std::vector<Bytes> out;
    for (std::size_t n = 0; n < good.size(); ++n)
        out.emplace_back(good.begin(), good.begin() + n);
    std::mt19937_64 rng(seed);
    for (unsigned i = 0; i < flips; ++i) {
        Bytes bad = good;
        bad[rng() % bad.size()] ^= static_cast<std::uint8_t>(1 + rng() % 255);
        out.push_back(std::move(bad));
    }
    for (std::size_t at = 0; at + 4 <= std::min(length_span, good.size());
         at += 4) {
        for (const std::uint32_t lie : {0xffffffffu, 0x7fffffffu,
                                        0x00010000u}) {
            Bytes bad = good;
            putU32(bad, at, lie);
            out.push_back(std::move(bad));
        }
    }
    return out;
}

/** Run @p decode, which must end cleanly or in @p Error. */
template <typename Error, typename Fn>
void
expectRejectsOrReads(Fn &&decode, const std::string &what)
{
    g_oversized = false;
    try {
        decode();
    } catch (const Error &) {
    } catch (const std::exception &err) {
        ADD_FAILURE() << what << ": unexpected " << typeid(err).name()
                      << ": " << err.what();
    }
    EXPECT_FALSE(g_oversized) << what << ": allocation over the limit";
}

// ---- Trace ---------------------------------------------------------------

void
decodeTrace(const std::string &path)
{
    trace::validateTrace(path);
    trace::TraceReader reader(path);
    std::vector<trace::Record> block;
    while (reader.nextBlock(block)) {
    }
}

TEST(HostileInput, TraceRejectsOrReads)
{
    const std::string path = tmpPath("hostile.trace");
    {
        trace::Tracer tracer(path, 2);
        for (std::uint64_t i = 0; i < 12; ++i) {
            tracer.record(i % 2, trace::EventType::TlbMiss, 10 * i, 1,
                          100 + i % 3, 0x1000 * i);
            if (i % 4 == 3)
                tracer.flushBarrier();
        }
        tracer.finish();
    }
    const Bytes good = slurp(path);
    ASSERT_NO_THROW(decodeTrace(path));

    const auto cases =
        variants(good, 400, trace::headerBytes + 16, 0x7ace);
    for (std::size_t i = 0; i < cases.size(); ++i) {
        spit(path, cases[i]);
        expectRejectsOrReads<trace::TraceError>(
            [&] { decodeTrace(path); }, "trace case " + std::to_string(i));
    }
}

// ---- Checkpoint ----------------------------------------------------------

constexpr Addr kVa = 0x7f00'0000'0000ull;

/**
 * A tiny one-core world: one group, a runtime with a prefaulted
 * private anon buffer, a forked child that shares its tables, and an
 * MMU with small TLBs warmed by both. Rebuilt identically per case so
 * every restore starts from the same shape.
 */
struct World
{
    core::SystemParams params;
    stats::StatGroup root{"root"};
    vm::Kernel kernel;
    mem::CacheHierarchy &mem;
    core::Mmu mmu;

    static core::SystemParams
    smallParams()
    {
        core::SystemParams p = core::SystemParams::babelfish();
        p.kernel.mem_frames = 1 << 16;
        for (tlb::TlbParams *t : {&p.mmu.l1i_4k, &p.mmu.l1d_4k,
                                  &p.mmu.l1d_2m, &p.mmu.l1d_1g,
                                  &p.mmu.l2_4k, &p.mmu.l2_2m,
                                  &p.mmu.l2_1g}) {
            t->entries = 8;
            t->assoc = 4;
        }
        p.mmu.aslr = p.kernel.aslr;
        return p;
    }

    explicit World(mem::CacheHierarchy &hierarchy)
        : params(smallParams()), kernel(params.kernel, &root),
          mem(hierarchy), mmu(0, params.mmu, mem, kernel, &root)
    {
        kernel.setTlbInvalidateHook(
            [this](const vm::TlbInvalidate &inv) {
                mmu.applyInvalidate(inv);
            });
        const Ccid ccid = kernel.createGroup("g", 3);
        vm::Process *rt = kernel.createProcess(ccid, "rt");
        kernel.mmapAnon(*rt, kVa, 16 * basePageBytes, true, false);
        workloads::prefault(kernel, *rt, kVa, 16 * basePageBytes,
                            AccessType::Write);
        vm::Process *child = kernel.fork(*rt, "c");
        for (unsigned i = 0; i < 16; ++i) {
            mmu.translate(*rt, kVa + i * basePageBytes, AccessType::Read,
                          i);
            mmu.translate(*child, kVa + i * basePageBytes,
                          AccessType::Read, i);
        }
    }

    void
    save(snap::ArchiveWriter &ar) const
    {
        ar.beginSection("KERN");
        kernel.save(ar);
        ar.endSection();
        ar.beginSection("CORE");
        mmu.save(ar);
        ar.endSection();
        ar.beginSection("STAT");
        root.saveStats(ar);
        ar.endSection();
    }

    void
    restore(snap::ArchiveReader &ar)
    {
        ar.enterSection("KERN");
        kernel.restore(ar);
        ar.exitSection();
        ar.enterSection("CORE");
        mmu.restore(ar);
        ar.exitSection();
        ar.enterSection("STAT");
        root.restoreStats(ar);
        ar.exitSection();
    }
};

mem::CacheHierarchy &
sharedHierarchy()
{
    static mem::CacheHierarchy hierarchy(World::smallParams().mem, 1);
    return hierarchy;
}

TEST(HostileInput, CheckpointRejectsOrRestores)
{
    const std::string path = tmpPath("hostile.ckpt");
    snap::ArchiveWriter writer;
    {
        World world(sharedHierarchy());
        world.save(writer);
    }
    ASSERT_TRUE(writer.writeFile(path));
    const Bytes good_file = slurp(path);
    const Bytes &good_payload = writer.payload();
    {
        World world(sharedHierarchy());
        snap::ArchiveReader ar = snap::ArchiveReader::fromFile(path);
        ASSERT_NO_THROW(world.restore(ar));
    }

    // The whole file through the validating reader: header, length and
    // CRC checks. Survivors restore into a fresh world.
    const auto file_cases = variants(good_file, 300, 64, 0xc4c4);
    for (std::size_t i = 0; i < file_cases.size(); ++i) {
        spit(path, file_cases[i]);
        expectRejectsOrReads<snap::SnapshotError>(
            [&] {
                snap::ArchiveReader ar = snap::ArchiveReader::fromFile(path);
                World world(sharedHierarchy());
                world.restore(ar);
            },
            "file case " + std::to_string(i));
    }

    // The payload behind the CRC, as a forger would write it: the
    // section, length and content decoders see every mutation. Prefixes
    // at a stride (each costs a world); every u32 that reads as a
    // plausible count (1..4096), which covers each length field, turned
    // into a lie; then flips and lies at seeded positions.
    std::vector<Bytes> payload_cases;
    for (std::size_t n = 0; n < good_payload.size(); n += 61)
        payload_cases.emplace_back(good_payload.begin(),
                                   good_payload.begin() + n);
    for (std::size_t at = 0; at + 4 <= good_payload.size(); ++at) {
        std::uint32_t v = 0;
        for (unsigned i = 0; i < 4; ++i)
            v |= std::uint32_t{good_payload[at + i]} << (8 * i);
        if (v >= 1 && v <= 4096) {
            Bytes bad = good_payload;
            putU32(bad, at, 0xffffffffu);
            payload_cases.push_back(std::move(bad));
        }
    }
    std::mt19937_64 rng(0x5eed);
    for (unsigned i = 0; i < 600; ++i) {
        Bytes bad = good_payload;
        const std::size_t at = rng() % bad.size();
        if (i % 2)
            bad[at] ^= static_cast<std::uint8_t>(1 + rng() % 255);
        else
            putU32(bad, at, i % 4 ? 0xffffffffu : 0x7fffffffu);
        payload_cases.push_back(std::move(bad));
    }
    for (std::size_t i = 0; i < payload_cases.size(); ++i) {
        expectRejectsOrReads<snap::SnapshotError>(
            [&] {
                World world(sharedHierarchy());
                snap::ArchiveReader ar(payload_cases[i]);
                world.restore(ar);
            },
            "payload case " + std::to_string(i));
    }
}

} // namespace
