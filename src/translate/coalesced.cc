#include "translate/coalesced.hh"

namespace bf::translate
{

CoalescedBackend::CoalescedBackend(unsigned core_id,
                                   const core::MmuParams &params,
                                   mem::CacheHierarchy &hierarchy,
                                   vm::Kernel &kernel,
                                   TranslateStats &stats,
                                   stats::StatGroup &group)
    : PipelineBackend(core_id, params, hierarchy, kernel, stats, group),
      cgroup_("coalesced", &group)
{
    cgroup_.addStat("range_hits", &range_hits_);
    cgroup_.addStat("range_installs", &range_installs_);
}

tlb::TlbLookup
CoalescedBackend::lookupL2(vm::Process &proc, Addr va, AccessType type,
                           PageSize &size_out, int process_bit)
{
    tlb::TlbLookup base =
        PipelineBackend::lookupL2(proc, va, type, size_out, process_bit);
    if (base.hit())
        return base;

    const Vpn vpn = va >> pageShift(PageSize::Size4K);
    const RangeEntry *range = ranges_.lookup(vpn, proc.pcid());
    if (!range)
        return base;

    ++range_hits_;
    scratch_ = tlb::TlbEntry{};
    scratch_.valid = true;
    scratch_.vpn = vpn;
    scratch_.ppn = range->base_ppn + (vpn - range->base_vpn);
    scratch_.size = PageSize::Size4K;
    scratch_.pcid = proc.pcid();
    scratch_.ccid = range->ccid;
    scratch_.writable = true;
    scratch_.user = true;
    // Private entry: the PCID matched, so it behaves as owned with no
    // private-copy bitmask (coalescing excludes all O-PC cases).
    scratch_.owned = true;
    scratch_.fill_pcid = proc.pcid();

    tlb::TlbLookup lookup;
    lookup.entry = &scratch_;
    lookup.bitmask_checked = base.bitmask_checked;
    size_out = PageSize::Size4K;
    return lookup;
}

void
CoalescedBackend::fillL2(const tlb::TlbEntry &entry, vm::Process &proc,
                         Cycles now)
{
    PipelineBackend::fillL2(entry, proc, now);
    if (entry.size != PageSize::Size4K || entry.cow || entry.orpc ||
        entry.pc_bitmask != 0)
        return;
    RunDetector::Run run;
    if (detector_.note(proc.pcid(), entry.vpn, entry.ppn, run)) {
        ranges_.insert(run.base_vpn, run.base_ppn, run.len, proc.pcid(),
                       proc.ccid());
        ++range_installs_;
    }
    syncPresence();
}

void
CoalescedBackend::invalidateExtra(const vm::TlbInvalidate &inv)
{
    ranges_.invalidate(inv);
    // A live run could span a just-remapped page and later install a
    // stale range; resetting the detector forfeits only coalescing
    // opportunity, never correctness.
    detector_.clear();
    syncPresence();
}

void
CoalescedBackend::flushExtra()
{
    ranges_.clear();
    detector_.clear();
    syncPresence();
}

void
CoalescedBackend::resetExtraStats()
{
    range_hits_.reset();
    range_installs_.reset();
}

void
CoalescedBackend::saveExtra(snap::ArchiveWriter &ar) const
{
    ranges_.save(ar);
    detector_.save(ar);
}

void
CoalescedBackend::restoreExtra(snap::ArchiveReader &ar)
{
    ranges_.restore(ar);
    detector_.restore(ar);
    syncPresence();
}

} // namespace bf::translate
