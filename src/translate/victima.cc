#include "translate/victima.hh"

namespace bf::translate
{

VictimaBackend::VictimaBackend(unsigned core_id,
                               const core::MmuParams &params,
                               mem::CacheHierarchy &hierarchy,
                               vm::Kernel &kernel, TranslateStats &stats,
                               stats::StatGroup &group)
    : PipelineBackend(core_id, params, hierarchy, kernel, stats, group),
      vgroup_("victima", &group)
{
    vgroup_.addStat("spills", &spills_);
    vgroup_.addStat("probes", &probes_);
    vgroup_.addStat("store_hits", &store_hits_);
}

Addr
VictimaBackend::storeAddr(std::size_t slot) const
{
    // One cache line per slot, placed above the top of simulated DRAM
    // so the metadata lines never alias real data. Per-core disjoint:
    // parked translations live in the owning core's private cache and
    // must not be probed away by another core's spills.
    const Addr base = kernel_.params().mem_frames << 12;
    const Addr core_base = static_cast<Addr>(core_id_) *
                           kStoreEntries * 64;
    return base + core_base + static_cast<Addr>(slot) * 64;
}

void
VictimaBackend::fillL2(const tlb::TlbEntry &entry, vm::Process &proc,
                       Cycles now)
{
    (void)now;
    tlb::TlbEntry copy = entry;
    copy.ccid = proc.ccid();
    copy.pcid = proc.pcid();
    copy.fill_pcid = proc.pcid();
    tlb::TlbEntry evicted;
    if (l2_[sizeIndex(copy.size)]->fill(copy, params_.babelfish,
                                        &evicted)) {
        noteL2Evicted(proc, evicted);
        const std::size_t slot = store_.insert(evicted);
        syncPresence();
        ++spills_;
        // The spill models data-array occupancy of the parked line in
        // the core's private L2 — where Victima stores translations —
        // off the translation's critical path, so no latency is billed
        // and no epoch event is logged (an unbilled logged access would
        // carry a timestamp ahead of the core's next billed event and
        // break the per-core append-order invariant; see core/epoch.cc).
        // If L2 later evicts the line, the backfill probe's billed read
        // naturally pays the L3/DRAM trip to fetch it back.
        bool dirty = false;
        hierarchy_.l2(core_id_).accessAndFill(storeAddr(slot),
                                              /*is_write=*/true, dirty);
        (void)dirty;
    }
}

bool
VictimaBackend::backfill(vm::Process &proc, Addr va, AccessType type,
                         int process_bit, Cycles now, Cycles &cycles,
                         tlb::TlbEntry &out)
{
    ++probes_;
    for (PageSize size : {PageSize::Size4K, PageSize::Size2M,
                          PageSize::Size1G}) {
        std::size_t slot = 0;
        const tlb::TlbEntry *e = store_.probe(
            va >> pageShift(size), size, proc.pcid(), proc.ccid(),
            params_.babelfish, process_bit, &slot);
        if (!e)
            continue;
        // A write to a CoW-marked spilled entry must fault: fall
        // through to the walk so the kernel privatizes the page.
        if (type == AccessType::Write && e->cow)
            return false;
        const mem::MemAccessResult res = hierarchy_.access(
            core_id_, storeAddr(slot), AccessType::Read, now,
            /*start_at_l2=*/true);
        cycles += res.latency;
        out = *e;
        out.lru = 0;
        store_.erase(slot); // migrate back into the TLBs
        syncPresence();
        ++store_hits_;
        return true;
    }
    return false;
}

void
VictimaBackend::invalidateExtra(const vm::TlbInvalidate &inv)
{
    store_.invalidate(inv);
    syncPresence();
}

void
VictimaBackend::flushExtra()
{
    store_.clear();
    syncPresence();
}

void
VictimaBackend::resetExtraStats()
{
    spills_.reset();
    probes_.reset();
    store_hits_.reset();
}

void
VictimaBackend::saveExtra(snap::ArchiveWriter &ar) const
{
    store_.save(ar);
}

void
VictimaBackend::restoreExtra(snap::ArchiveReader &ar)
{
    store_.restore(ar);
    syncPresence();
}

} // namespace bf::translate
