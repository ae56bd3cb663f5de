#include "translate/pipeline.hh"

#include "common/attrib/attrib.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"

#include <cstdlib>

namespace bf::translate
{

PipelineBackend::PipelineBackend(unsigned core_id,
                                 const core::MmuParams &params,
                                 mem::CacheHierarchy &hierarchy,
                                 vm::Kernel &kernel,
                                 TranslateStats &stats,
                                 stats::StatGroup &group)
    : core_id_(core_id), params_(params), hierarchy_(hierarchy),
      kernel_(kernel), st_(stats), group_(group)
{
    l1i_4k_ = std::make_unique<tlb::Tlb>(params_.l1i_4k, &group_);
    l1d_[sizeIndex(PageSize::Size4K)] =
        std::make_unique<tlb::Tlb>(params_.l1d_4k, &group_);
    l1d_[sizeIndex(PageSize::Size2M)] =
        std::make_unique<tlb::Tlb>(params_.l1d_2m, &group_);
    l1d_[sizeIndex(PageSize::Size1G)] =
        std::make_unique<tlb::Tlb>(params_.l1d_1g, &group_);
    l2_[sizeIndex(PageSize::Size4K)] =
        std::make_unique<tlb::Tlb>(params_.l2_4k, &group_);
    l2_[sizeIndex(PageSize::Size2M)] =
        std::make_unique<tlb::Tlb>(params_.l2_2m, &group_);
    l2_[sizeIndex(PageSize::Size1G)] =
        std::make_unique<tlb::Tlb>(params_.l2_1g, &group_);
    pwc_ = std::make_unique<tlb::Pwc>(params_.pwc, &group_);
    l1i_4k_->attachPresence(&presence_);
    for (auto &tlb : l1d_)
        tlb->attachPresence(&presence_);
    for (auto &tlb : l2_)
        tlb->attachPresence(&presence_);
    pwc_->attachPresence(&presence_);
    walker_ = std::make_unique<tlb::PageWalker>(
        core_id_, hierarchy_, kernel_, *pwc_, params_.babelfish,
        &group_);

    // The L0 front cache replays conventional-lookup side effects; with
    // CCID-shared L1 structures the candidate scan of Fig. 8 is left on
    // the slow path (see the header comment on L0Entry).
    l0_enabled_ = !params_.l1Sharing() && !std::getenv("BF_NO_L0");
}

void
PipelineBackend::setTracer(trace::Tracer *tracer)
{
    tracer_ = tracer;
    walker_->setTracer(tracer);
}

namespace
{

/** Flag byte of the TLB hit/miss events. */
std::uint8_t
hitFlags(AccessType type, const tlb::TlbLookup &lookup)
{
    std::uint8_t flags = 0;
    if (isIfetch(type))
        flags |= trace::flagInstr;
    if (type == AccessType::Write)
        flags |= trace::flagWrite;
    if (lookup.shared_hit)
        flags |= trace::flagSharedHit;
    if (lookup.entry) {
        if (lookup.entry->owned)
            flags |= trace::flagOwned;
        if (lookup.entry->orpc)
            flags |= trace::flagOrpc;
    }
    return flags;
}

} // namespace

tlb::TlbLookup
PipelineBackend::lookupL1(vm::Process &proc, Addr va, AccessType type,
                          PageSize &size_out, int process_bit)
{
    const bool share = params_.l1Sharing();

    auto probeOne = [&](tlb::Tlb &tlb, PageSize size) {
        const Vpn vpn = va >> pageShift(size);
        tlb::TlbLookup lookup =
            share ? tlb.lookupBabelFish(vpn, proc.ccid(), proc.pcid(),
                                        process_bit)
                  : tlb.lookupConventional(vpn, proc.pcid());
        if (lookup.hit())
            size_out = size;
        return lookup;
    };

    if (isIfetch(type))
        return probeOne(*l1i_4k_, PageSize::Size4K);

    // The three size structures are probed in parallel in hardware.
    for (PageSize size : {PageSize::Size4K, PageSize::Size2M,
                          PageSize::Size1G}) {
        tlb::TlbLookup lookup = probeOne(*l1d_[sizeIndex(size)], size);
        if (lookup.hit())
            return lookup;
    }
    return {};
}

tlb::TlbLookup
PipelineBackend::lookupL2(vm::Process &proc, Addr va, AccessType type,
                          PageSize &size_out, int process_bit)
{
    (void)type;
    tlb::TlbLookup result;
    for (PageSize size : {PageSize::Size4K, PageSize::Size2M,
                          PageSize::Size1G}) {
        tlb::Tlb &tlb = *l2_[sizeIndex(size)];
        const Vpn vpn = va >> pageShift(size);
        tlb::TlbLookup lookup =
            params_.babelfish
                ? tlb.lookupBabelFish(vpn, proc.ccid(), proc.pcid(),
                                      process_bit)
                : tlb.lookupConventional(vpn, proc.pcid());
        result.bitmask_checked |= lookup.bitmask_checked;
        if (lookup.hit()) {
            size_out = size;
            lookup.bitmask_checked = result.bitmask_checked;
            return lookup;
        }
    }
    return result;
}

void
PipelineBackend::noteL1Evicted(const vm::Process &proc,
                               const tlb::TlbEntry &evicted)
{
    // L1 copies are per-process: the PCID tag is the victim's owner.
    if (sink_)
        sink_->noteL1Eviction(proc.attribSlot(),
                              areg_->slotOfPcid(evicted.pcid));
}

void
PipelineBackend::noteL2Evicted(const vm::Process &proc,
                               const tlb::TlbEntry &evicted)
{
    // Owned entries are tagged with the owner; shared (O-clear) entries
    // carry the filler in fill_pcid — bill the victim that paid for the
    // fill.
    if (sink_)
        sink_->noteL2Eviction(
            proc.attribSlot(),
            areg_->slotOfPcid(evicted.owned ? evicted.pcid
                                            : evicted.fill_pcid));
}

void
PipelineBackend::fillL1(const tlb::TlbEntry &entry, vm::Process &proc,
                        AccessType type)
{
    tlb::TlbEntry copy = entry;
    copy.pcid = proc.pcid();
    copy.ccid = proc.ccid();
    tlb::TlbEntry evicted;
    if (isIfetch(type)) {
        if (copy.size == PageSize::Size4K &&
            l1i_4k_->fill(copy, params_.l1Sharing(),
                          sink_ ? &evicted : nullptr))
            noteL1Evicted(proc, evicted);
        return;
    }
    // A data fill can turn a "structure probed before the owner still
    // misses" assumption stale; retire the huge-page L0 slots.
    ++l0_gen_;
    if (l1d_[sizeIndex(copy.size)]->fill(copy, params_.l1Sharing(),
                                         sink_ ? &evicted : nullptr))
        noteL1Evicted(proc, evicted);
}

void
PipelineBackend::fillL2(const tlb::TlbEntry &entry, vm::Process &proc,
                        Cycles now)
{
    (void)now;
    tlb::TlbEntry copy = entry;
    copy.ccid = proc.ccid();
    // Shared entries keep the PCID of the filler so Shared Hits can be
    // recognized; owned entries are tagged with the owner.
    copy.pcid = proc.pcid();
    copy.fill_pcid = proc.pcid();
    tlb::TlbEntry evicted;
    if (l2_[sizeIndex(copy.size)]->fill(copy, params_.babelfish,
                                        sink_ ? &evicted : nullptr))
        noteL2Evicted(proc, evicted);
}

bool
PipelineBackend::backfill(vm::Process &proc, Addr va, AccessType type,
                          int process_bit, Cycles now, Cycles &cycles,
                          tlb::TlbEntry &out)
{
    (void)proc;
    (void)va;
    (void)type;
    (void)process_bit;
    (void)now;
    (void)cycles;
    (void)out;
    return false;
}

void
PipelineBackend::invalidateExtra(const vm::TlbInvalidate &inv)
{
    (void)inv;
}

void
PipelineBackend::flushExtra()
{
}

void
PipelineBackend::resetExtraStats()
{
}

void
PipelineBackend::saveExtra(snap::ArchiveWriter &ar) const
{
    (void)ar;
}

void
PipelineBackend::restoreExtra(snap::ArchiveReader &ar)
{
    (void)ar;
}

void
PipelineBackend::installL0(Addr va, Pcid pcid, AccessType type,
                           PageSize size, const tlb::TlbEntry *entry)
{
    if (!l0_enabled_)
        return;
    const bool ifetch = isIfetch(type);
    const unsigned kind = ifetch ? 0 : 1 + sizeIndex(size);
    L0Entry &slot = l0_[l0Index(va >> 12, pcid, ifetch)];
    slot.vpn4k = va >> 12;
    // The entry pointer stays valid for the structure's lifetime
    // (entries_ never reallocates); the fast path re-validates its
    // identity and re-reads the payload on every use.
    slot.entry = const_cast<tlb::TlbEntry *>(entry);
    slot.owner = ifetch ? l1i_4k_.get() : l1d_[sizeIndex(size)].get();
    slot.gen = l0_gen_;
    slot.pcid = pcid;
    slot.shift = static_cast<std::uint8_t>(pageShift(size));
    slot.owner_kind = static_cast<std::uint8_t>(kind);
    slot.is_ifetch = ifetch;
    // A huge-page hit replays misses of the structures probed first;
    // those replays die with the generation on the next data fill.
    slot.gen_sensitive = kind > 1;
}

int
PipelineBackend::cachedProcessBit(const vm::Process &proc,
                                  Addr canonical_va)
{
    // processBit() depends on the VA only through the region bases at
    // the three possible leaf levels, and the finest (1 GB) base
    // determines the coarser two — so {pid, 1 GB region} keys the
    // answer exactly.
    const Addr region = vm::tableBase(canonical_va, vm::LevelPte + 1);
    // 1 GB regions make the low 30 bits of `region` zero; fold the
    // next bits with the pid for the slot index.
    const std::size_t slot =
        ((region >> 30) ^ proc.pid()) & (kPbCacheSize - 1);
    PbCache &pb = pb_cache_[slot];
    if (pb.gen_ptr && pb.pid == proc.pid() && pb.region == region &&
        *pb.gen_ptr == pb.gen)
        return pb.bit;

    const std::uint64_t *gen_ptr = kernel_.maskGenerationPtr(proc.ccid());
    pb.gen_ptr = gen_ptr;
    pb.gen = gen_ptr ? *gen_ptr : 0;
    pb.pid = proc.pid();
    pb.region = region;
    pb.bit = kernel_.processBit(proc, canonical_va);
    return pb.bit;
}

Translation
PipelineBackend::translate(vm::Process &proc, Addr canonical_va,
                           AccessType type, Cycles now)
{
    Translation result;
    const bool is_write = type == AccessType::Write;

    // ---- L0 fast path: a direct-mapped memo of the last slow-path L1
    // hit for this {page, PCID, kind}. A hit re-validates the live TLB
    // entry and replays the bypassed probe sequence's exact side
    // effects, so stats and traces are byte-identical either way.
    // Faulting accesses always fall through to the slow path, as do
    // the retries after a fault (the loop below never consults L0).
    if (l0_enabled_) {
        const bool ifetch = isIfetch(type);
        L0Entry &slot =
            l0_[l0Index(canonical_va >> 12, proc.pcid(), ifetch)];
        if (slot.vpn4k == (canonical_va >> 12) &&
            slot.pcid == proc.pcid() && slot.is_ifetch == ifetch &&
            (!slot.gen_sensitive || slot.gen == l0_gen_)) {
            tlb::TlbEntry *e = slot.entry;
            // Live re-validation: fills never duplicate a {VPN, PCID}
            // in a conventional structure (a stale match is shot down
            // before the refill), so a live identity match means this
            // entry is exactly what lookupL1 would return — with its
            // current ppn/cow/O-PC payload, re-read below.
            if (e->valid && e->pcid == slot.pcid &&
                e->vpn == (canonical_va >> slot.shift) &&
                !(is_write && e->cow)) {
                for (unsigned k = 1; k < slot.owner_kind; ++k)
                    l1d_[k - 1]->recordL0Miss();
                const bool shared = e->fill_pcid != slot.pcid;
                slot.owner->recordL0Hit(e, shared);
                ++st_.l1_hits;
                result.cycles += 1;
                if (tracer_) {
                    tlb::TlbLookup lk;
                    lk.entry = e;
                    lk.shared_hit = shared;
                    const int pbit =
                        params_.babelfish
                            ? cachedProcessBit(proc, canonical_va)
                            : -1;
                    tracer_->record(core_id_, trace::EventType::TlbL1Hit,
                                    now + result.cycles, proc.ccid(),
                                    proc.pid(), canonical_va,
                                    trace::packAttempt(proc.pcid(), pbit),
                                    hitFlags(type, lk));
                }
                result.size = e->size;
                result.paddr = (e->ppn << pageShift(e->size)) |
                               (canonical_va &
                                (pageBytes(e->size) - 1));
                return result;
            }
        }
    }

    // The PC-bitmask bit this process owns for the page's region (-1 for
    // the common case of no private copies). Computed once per translate,
    // as before — the cache only changes who does the computing.
    const int process_bit =
        params_.babelfish ? cachedProcessBit(proc, canonical_va) : -1;

    for (int attempt = 0; attempt < 8; ++attempt) {
        PageSize size = PageSize::Size4K;

        // ---- L1 TLB: 1 cycle.
        tlb::TlbLookup l1 = lookupL1(proc, canonical_va, type, size,
                                     process_bit);
        result.cycles += 1;
        if (l1.hit()) {
            const tlb::TlbEntry &entry = *l1.entry;
            if (is_write && entry.cow) {
                // Write to a CoW page: declared as a CoW page fault
                // (Fig. 8, step 6). No hit is counted and no L1 state
                // beyond the probe changes; the flagCowFault event lets
                // replay tell this apart from a counted hit.
                const PageSize esize = entry.size;
                if (tracer_) {
                    tracer_->record(
                        core_id_, trace::EventType::TlbL1Hit,
                        now + result.cycles, proc.ccid(), proc.pid(),
                        canonical_va,
                        trace::packAttempt(proc.pcid(), process_bit),
                        static_cast<std::uint8_t>(hitFlags(type, l1) |
                                                  trace::flagCowFault));
                }
                if (epoch_log_ && epoch_log_->active()) {
                    epoch_log_->deferFault(
                        {&proc, canonical_va, type, true, esize},
                        now + result.cycles);
                    result.blocked = true;
                    return result;
                }
                if (tracer_)
                    tracer_->setKernelContext(core_id_,
                                              now + result.cycles);
                const auto outcome =
                    kernel_.handleFault(proc, canonical_va, type);
                bf_assert(outcome.kind != vm::FaultKind::Protection,
                          "protection fault at ", canonical_va);
                if (tracer_) {
                    tracer_->record(
                        core_id_, trace::EventType::FaultService,
                        now + result.cycles, proc.ccid(), proc.pid(),
                        canonical_va,
                        trace::packFault(outcome.cycles, proc.pcid(),
                                         static_cast<unsigned>(esize),
                                         true),
                        static_cast<std::uint8_t>(outcome.kind));
                    tracer_->clearKernelContext();
                }
                if (outcome.kind == vm::FaultKind::None) {
                    // Already resolved; only this core's copy is stale.
                    applyInvalidate({vm::TlbInvalidate::Kind::Page,
                                     proc.ccid(), proc.pcid(),
                                     canonical_va >> pageShift(esize), 1,
                                     esize});
                }
                result.cycles += outcome.cycles;
                st_.fault_cycles += outcome.cycles;
                result.faulted = true;
                ++st_.cow_faults;
                continue; // retry; the stale entries were shot down
            }
            ++st_.l1_hits;
            installL0(canonical_va, proc.pcid(), type, size, l1.entry);
            if (tracer_)
                tracer_->record(core_id_, trace::EventType::TlbL1Hit,
                                now + result.cycles, proc.ccid(),
                                proc.pid(), canonical_va,
                                trace::packAttempt(proc.pcid(),
                                                   process_bit),
                                hitFlags(type, l1));
            result.size = entry.size;
            result.paddr = (entry.ppn << pageShift(entry.size)) |
                           (canonical_va & (pageBytes(entry.size) - 1));
            return result;
        }
        ++st_.l1_misses;

        // ---- ASLR-HW transform between L1 and L2 (paper §IV-D).
        if (params_.babelfish && params_.aslr == vm::AslrMode::Hw)
            result.cycles += params_.aslr_transform_cycles;

        // ---- L2 TLB: 10 cycles, 12 when the PC bitmask is consulted.
        tlb::TlbLookup l2 = lookupL2(proc, canonical_va, type, size,
                                     process_bit);
        const bool long_access =
            l2.bitmask_checked ||
            (params_.force_long_l2 && params_.babelfish);
        const Cycles l2_time =
            params_.l2_4k.access_cycles +
            (long_access ? params_.l2_4k.bitmask_extra_cycles : 0);
        result.cycles += l2_time;
        if (long_access)
            ++st_.l2_long_accesses;

        if (l2.hit()) {
            const tlb::TlbEntry &entry = *l2.entry;
            if (isIfetch(type)) {
                ++st_.l2_instr_hits;
                if (l2.shared_hit)
                    ++st_.l2_instr_shared_hits;
            } else {
                ++st_.l2_data_hits;
                if (l2.shared_hit)
                    ++st_.l2_data_shared_hits;
            }
            if (tracer_) {
                std::uint8_t flags = hitFlags(type, l2);
                if (long_access)
                    flags |= trace::flagLongL2;
                if (is_write && entry.cow)
                    flags |= trace::flagCowFault;
                tracer_->record(core_id_, trace::EventType::TlbL2Hit,
                                now + result.cycles, proc.ccid(),
                                proc.pid(), canonical_va,
                                trace::packAttempt(proc.pcid(),
                                                   process_bit),
                                flags);
            }
            if (is_write && entry.cow) {
                const PageSize esize = entry.size;
                if (epoch_log_ && epoch_log_->active()) {
                    epoch_log_->deferFault(
                        {&proc, canonical_va, type, true, esize},
                        now + result.cycles);
                    result.blocked = true;
                    return result;
                }
                if (tracer_)
                    tracer_->setKernelContext(core_id_,
                                              now + result.cycles);
                const auto outcome =
                    kernel_.handleFault(proc, canonical_va, type);
                bf_assert(outcome.kind != vm::FaultKind::Protection,
                          "protection fault at ", canonical_va);
                if (tracer_) {
                    tracer_->record(
                        core_id_, trace::EventType::FaultService,
                        now + result.cycles, proc.ccid(), proc.pid(),
                        canonical_va,
                        trace::packFault(outcome.cycles, proc.pcid(),
                                         static_cast<unsigned>(esize),
                                         true),
                        static_cast<std::uint8_t>(outcome.kind));
                    tracer_->clearKernelContext();
                }
                if (outcome.kind == vm::FaultKind::None) {
                    applyInvalidate({vm::TlbInvalidate::Kind::Page,
                                     proc.ccid(), proc.pcid(),
                                     canonical_va >> pageShift(esize), 1,
                                     esize});
                }
                result.cycles += outcome.cycles;
                st_.fault_cycles += outcome.cycles;
                result.faulted = true;
                ++st_.cow_faults;
                continue;
            }
            fillL1(*l2.entry, proc, type);
            result.size = entry.size;
            result.paddr = (entry.ppn << pageShift(entry.size)) |
                           (canonical_va & (pageBytes(entry.size) - 1));
            return result;
        }
        if (isIfetch(type))
            ++st_.l2_instr_misses;
        else
            ++st_.l2_data_misses;
        if (tracer_) {
            std::uint8_t flags = hitFlags(type, tlb::TlbLookup{});
            if (long_access)
                flags |= trace::flagLongL2;
            tracer_->record(core_id_, trace::EventType::TlbMiss,
                            now + result.cycles, proc.ccid(), proc.pid(),
                            canonical_va,
                            trace::packAttempt(proc.pcid(), process_bit),
                            flags);
        }

        // ---- Backend backfill probe (e.g. Victima's backing store):
        // a last chance to recover the translation without walking.
        {
            tlb::TlbEntry recovered;
            Cycles probe_cycles = 0;
            if (backfill(proc, canonical_va, type, process_bit,
                         now + result.cycles, probe_cycles, recovered)) {
                result.cycles += probe_cycles;
                st_.miss_latency.sample(result.cycles);
                if (tracer_) {
                    std::uint8_t flags = 0;
                    if (isIfetch(type))
                        flags |= trace::flagInstr;
                    if (is_write)
                        flags |= trace::flagWrite;
                    tracer_->record(
                        core_id_, trace::EventType::TlbFill,
                        now + result.cycles, proc.ccid(), proc.pid(),
                        canonical_va,
                        trace::packFill(
                            proc.pcid(),
                            static_cast<unsigned>(recovered.size),
                            recovered.owned, recovered.orpc,
                            recovered.cow, recovered.pc_bitmask),
                        flags);
                }
                fillL2(recovered, proc, now + result.cycles);
                fillL1(recovered, proc, type);
                result.size = recovered.size;
                result.paddr =
                    (recovered.ppn << pageShift(recovered.size)) |
                    (canonical_va & (pageBytes(recovered.size) - 1));
                return result;
            }
        }

        // ---- Page walk.
        tlb::WalkResult walk =
            walker_->walk(proc, canonical_va, type, now + result.cycles);
        result.cycles += walk.cycles;

        if (walk.status == tlb::WalkStatus::Ok) {
            st_.miss_latency.sample(result.cycles);
            if (tracer_) {
                // Recorded before the fills so replay sees the walked
                // entry's attributes exactly as they go into the TLBs.
                std::uint8_t flags = 0;
                if (isIfetch(type))
                    flags |= trace::flagInstr;
                if (is_write)
                    flags |= trace::flagWrite;
                tracer_->record(
                    core_id_, trace::EventType::TlbFill,
                    now + result.cycles, proc.ccid(), proc.pid(),
                    canonical_va,
                    trace::packFill(
                        proc.pcid(),
                        static_cast<unsigned>(walk.fill.size),
                        walk.fill.owned, walk.fill.orpc, walk.fill.cow,
                        walk.fill.pc_bitmask),
                    flags);
            }
            fillL2(walk.fill, proc, now + result.cycles);
            fillL1(walk.fill, proc, type);
            result.size = walk.fill.size;
            result.paddr =
                (walk.fill.ppn << pageShift(walk.fill.size)) |
                (canonical_va & (pageBytes(walk.fill.size) - 1));
            return result;
        }

        bf_assert(walk.status != tlb::WalkStatus::Protection,
                  "protection fault on walk: va=", canonical_va,
                  " pid=", proc.pid());

        // Page fault (not-present or CoW): invoke the OS and retry.
        if (epoch_log_ && epoch_log_->active()) {
            epoch_log_->deferFault(
                {&proc, canonical_va, type, false, PageSize::Size4K},
                now + result.cycles);
            result.blocked = true;
            return result;
        }
        if (tracer_)
            tracer_->setKernelContext(core_id_, now + result.cycles);
        const auto outcome = kernel_.handleFault(proc, canonical_va, type);
        bf_assert(outcome.kind != vm::FaultKind::Protection,
                  "kernel protection fault at va=", canonical_va,
                  " pid=", proc.pid());
        if (tracer_) {
            tracer_->record(
                core_id_, trace::EventType::FaultService,
                now + result.cycles, proc.ccid(), proc.pid(),
                canonical_va,
                trace::packFault(
                    outcome.cycles, proc.pcid(),
                    static_cast<unsigned>(PageSize::Size4K), false),
                static_cast<std::uint8_t>(outcome.kind));
            tracer_->clearKernelContext();
        }
        result.cycles += outcome.cycles;
        st_.fault_cycles += outcome.cycles;
        result.faulted = true;
        switch (outcome.kind) {
          case vm::FaultKind::Minor: ++st_.minor_faults; break;
          case vm::FaultKind::Major: ++st_.major_faults; break;
          case vm::FaultKind::Cow: ++st_.cow_faults; break;
          case vm::FaultKind::SharedInstall: ++st_.shared_installs; break;
          default: break;
        }
    }
    bf_panic("translation did not converge at va=", canonical_va);
}

void
PipelineBackend::applyInvalidate(const vm::TlbInvalidate &inv)
{
    using Kind = vm::TlbInvalidate::Kind;
    // Conservative: live-entry re-validation already catches every
    // shot-down slot, but a shootdown that reaches this core is rare
    // enough that retiring the whole L0 generation costs nothing and
    // keeps the argument simple. (One the fan-out filters away drops
    // nothing, so it leaves every L0 slot exact without the bump.)
    ++l0_gen_;
    auto forEachTlb = [&](auto &&fn) {
        fn(*l1i_4k_);
        for (auto &tlb : l1d_)
            fn(*tlb);
        for (auto &tlb : l2_)
            fn(*tlb);
    };

    switch (inv.kind) {
      case Kind::Page:
        forEachTlb([&](tlb::Tlb &tlb) {
            if (tlb.params().page_size == inv.size)
                tlb.invalidatePage(inv.pcid, inv.vpn);
        });
        break;
      case Kind::SharedRange:
        // Shared (O-clear) entries and their L1 copies: the per-process
        // L1 copies of shared fills keep owned=false, so the range drop
        // removes them on every core (conservative, like a remote
        // shootdown IPI).
        forEachTlb([&](tlb::Tlb &tlb) {
            if (tlb.params().page_size == inv.size) {
                tlb.invalidateSharedRange(inv.ccid, inv.vpn,
                                          inv.num_pages);
            } else if (inv.size == PageSize::Size4K) {
                // Region shootdowns expressed in 4K VPNs also cover any
                // huge entries overlapping the range.
                const int shift = pageShift(tlb.params().page_size) -
                                  pageShift(PageSize::Size4K);
                const Vpn first = inv.vpn >> shift;
                const Vpn last = (inv.vpn + inv.num_pages - 1) >> shift;
                tlb.invalidateSharedRange(inv.ccid, first,
                                          last - first + 1);
            }
        });
        break;
      case Kind::Pcid:
        forEachTlb([&](tlb::Tlb &tlb) { tlb.invalidatePcid(inv.pcid); });
        pwc_->invalidateAll();
        break;
    }
    invalidateExtra(inv);
}

void
PipelineBackend::flushAll()
{
    l1i_4k_->invalidateAll();
    for (auto &tlb : l1d_)
        tlb->invalidateAll();
    for (auto &tlb : l2_)
        tlb->invalidateAll();
    pwc_->invalidateAll();
    ++l0_gen_;
    l0_.fill(L0Entry{});
    flushExtra();
}

void
PipelineBackend::resetStats()
{
    l1i_4k_->resetStats();
    for (auto &tlb : l1d_)
        tlb->resetStats();
    for (auto &tlb : l2_)
        tlb->resetStats();
    pwc_->resetStats();
    walker_->resetStats();
    resetExtraStats();
}

void
PipelineBackend::save(snap::ArchiveWriter &ar) const
{
    l1i_4k_->save(ar);
    for (const auto &tlb : l1d_)
        tlb->save(ar);
    for (const auto &tlb : l2_)
        tlb->save(ar);
    pwc_->save(ar);
    saveExtra(ar);
}

void
PipelineBackend::restore(snap::ArchiveReader &ar)
{
    l1i_4k_->restore(ar);
    for (auto &tlb : l1d_)
        tlb->restore(ar);
    for (auto &tlb : l2_)
        tlb->restore(ar);
    pwc_->restore(ar);
    restoreExtra(ar);
    // Drop the processBit memo and the L0 front cache: both re-warm on
    // first use and replay/answer with no stat side effects, so
    // resuming cold here is invisible to stats.
    pb_cache_.fill(PbCache{});
    ++l0_gen_;
    l0_.fill(L0Entry{});
}

} // namespace bf::translate
