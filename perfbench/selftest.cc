/**
 * @file
 * Self-test of the benchmark's probes. Exits non-zero on any failure.
 *
 *  1. TimedThread forwards nextBatch() with the caller's max, and
 *     forwards next(), completed(), finished(), saveState() and
 *     restoreState() to the wrapped generator, counting references.
 *  2. A small serve configuration (a 2-core mongodb cell and the
 *     sparse FaaS group) gives the same stats digest with and without
 *     the wrapper, and passes the cell checks.
 *  3. The reconcile rule catches a tenant row that drifts from the
 *     global counters.
 *  4. Layer counts are read from the right stats paths.
 *
 * perfbench/run.py runs it after every rebuild of the benchmark.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "cells.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"
#include "timed_thread.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
        ++failures;
    }
}

/** A generator that logs every call the wrapper forwards. */
class Recorder : public bf::core::Thread
{
  public:
    std::vector<unsigned> batch_max;
    unsigned next_calls = 0;
    std::vector<bf::Cycles> completions;
    bool done = false;
    std::uint64_t restored = 0;
    std::string name_ = "recorder";

    bf::vm::Process *process() override { return nullptr; }

    bool
    next(bf::core::MemRef &ref) override
    {
        ++next_calls;
        ref.va = 0x1000;
        return !done;
    }

    unsigned
    nextBatch(bf::core::MemRef *out, unsigned max) override
    {
        batch_max.push_back(max);
        const unsigned n = max > 3 ? 3 : max;
        for (unsigned i = 0; i < n; ++i)
            out[i].va = 0x2000 + i;
        return n;
    }

    void
    completed(const bf::core::MemRef &ref, bf::Cycles now) override
    {
        (void)ref;
        completions.push_back(now);
    }

    bool finished() const override { return done; }
    const std::string &name() const override { return name_; }

    void
    saveState(bf::snap::ArchiveWriter &ar) const override
    {
        ar.u64(0xfeedfacecafebeefull);
    }

    void
    restoreState(bf::snap::ArchiveReader &ar) override
    {
        restored = ar.u64();
    }
};

void
testForwarding()
{
    Recorder inner;
    TimedThread wrapped(inner);
    bf::core::MemRef refs[16];

    expect(wrapped.nextBatch(refs, 16) == 3, "nextBatch count forwarded");
    expect(wrapped.nextBatch(refs, 1) == 1, "nextBatch(max=1) forwarded");
    expect(inner.batch_max == std::vector<unsigned>{ 16, 1 },
           "nextBatch forwards the caller's max");
    expect(refs[0].va == 0x2000, "nextBatch output reaches the caller");

    bf::core::MemRef one;
    expect(wrapped.next(one) && inner.next_calls == 1 && one.va == 0x1000,
           "next forwarded");
    wrapped.completed(one, 77);
    expect(inner.completions == std::vector<bf::Cycles>{ 77 },
           "completed forwarded with the core's cycle");
    expect(wrapped.refs() == 5, "references counted");

    expect(!wrapped.finished(), "finished forwarded (false)");
    inner.done = true;
    expect(wrapped.finished(), "finished forwarded (true)");
    expect(!wrapped.next(one), "next forwards end of stream");
    expect(wrapped.refs() == 5, "end of stream adds no reference");
    expect(&wrapped.name() == &inner.name_, "name forwarded");

    bf::snap::ArchiveWriter writer;
    wrapped.saveState(writer);
    bf::snap::ArchiveReader reader(writer.payload());
    wrapped.restoreState(reader);
    expect(inner.restored == 0xfeedfacecafebeefull,
           "saveState and restoreState forwarded");
    expect(wrapped.genTicks() > 0, "generator time accumulated");
}

void
testTransparency()
{
    CellSpec app;
    app.name = "mongodb-small";
    app.app = bf::workloads::AppProfile::mongodb();
    app.cores = 2;
    CellSpec faas = serveCells().back();
    for (const CellSpec &spec : { app, faas }) {
        CellOptions opt;
        opt.seed = 7;
        const CellResult plain = runCell(spec, opt);
        opt.wrap = true;
        SpanLog spans;
        opt.spans = &spans;
        const CellResult wrapped = runCell(spec, opt);
        expect(plain.problems.empty() && wrapped.problems.empty(),
               spec.name + ": cell checks pass");
        expect(plain.digest == wrapped.digest,
               spec.name + ": identical stats with and without wrapper");
        expect(wrapped.refs > 0 && wrapped.gen_s > 0,
               spec.name + ": wrapper saw the generator");
        expect(wrapped.counts.instructions > 0 &&
                   wrapped.counts.translations > 0,
               spec.name + ": layer counts read from the stats tree");
        expect(!spans.spans().empty(), spec.name + ": spans recorded");
    }
}

void
testReconcile()
{
    FlatStats stats;
    stats["system.core0.instructions"] = 10;
    stats["system.core0.mmu.l1_hits"] = 4;
    stats["system.attrib.t0.instructions"] = 10;
    stats["system.attrib.t0.l1_hits"] = 4;
    expect(reconcile(stats).empty(), "reconcile accepts matching sums");
    stats["system.attrib.t1.l1_hits"] = 1;
    expect(reconcile(stats).size() == 1, "reconcile flags a drifted row");
    expect(!reconcile(FlatStats{}).empty(),
           "reconcile refuses a tree without tenants");
}

void
testLayerCounts()
{
    FlatStats before, after;
    before["system.core0.instructions"] = 100;
    after["system.core0.instructions"] = 150;
    after["system.core1.instructions"] = 20;
    after["system.core0.mmu.l1_hits"] = 9;
    after["system.core0.mmu.l1_misses"] = 1;
    after["system.core1.mmu.l2_tlb4k.invalidations"] = 3;
    after["system.core0.mmu.pwc.hits"] = 4;
    before["system.kernel.minor_faults"] = 10;
    after["system.kernel.minor_faults"] = 12;
    after["system.kernel.shootdowns"] = 2;
    after["system.caches.l3.misses"] = 5;
    const LayerCounts c = LayerCounts::between(before, after);
    expect(c.cores == 2 && c.instructions == 70,
           "instructions counted per core, as differences");
    expect(c.translations == 10 && c.pwc_hits == 4,
           "translation counters summed");
    expect(c.minor_faults == 2 && c.l3_misses == 5,
           "kernel and cache counters read");
    expect(c.tlb_invalidations == 3 &&
               c.inval_slots == 2 * 2 * LayerCounts::kTlbStructures,
           "shootdown fan-out: entries dropped over slots reached");
}

} // namespace

int
main()
{
    bf::detail::setVerbose(false);
    testForwarding();
    testTransparency();
    testReconcile();
    testLayerCounts();
    if (failures) {
        std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
        return 1;
    }
    std::printf("selftest: ok\n");
    return 0;
}
