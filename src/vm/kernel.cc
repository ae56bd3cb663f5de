#include "vm/kernel.hh"

#include <algorithm>

#include "common/attrib/attrib.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"

namespace bf::vm
{

namespace
{

/** FNV-1a step for region signatures. */
std::uint64_t
hashCombine(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
}

} // namespace

Kernel::Kernel(const KernelParams &params, stats::StatGroup *parent)
    : params_(params), stat_group_("kernel", parent),
      allocator_(params.mem_frames, &stat_group_)
{
    stat_group_.addStat("minor_faults", &minor_faults);
    stat_group_.addStat("major_faults", &major_faults);
    stat_group_.addStat("cow_faults", &cow_faults);
    stat_group_.addStat("shared_installs", &shared_installs);
    stat_group_.addStat("tables_allocated", &tables_allocated);
    stat_group_.addStat("tables_shared", &tables_shared);
    stat_group_.addStat("tables_freed", &tables_freed);
    stat_group_.addStat("fork_entries_copied", &fork_entries_copied);
    stat_group_.addStat("cow_privatizations", &cow_privatizations);
    stat_group_.addStat("mask_fallbacks", &mask_fallbacks);
    stat_group_.addStat("shootdowns", &shootdowns);
}

Kernel::~Kernel() = default;

PageTablePage *
Kernel::allocateTable(int level)
{
    noteMutation();
    const Ppn frame = allocator_.allocate();
    auto table = table_pool_.make(level, frame);
    PageTablePage *raw = table.get();
    tables_[frame] = std::move(table);
    ++tables_allocated;
    return raw;
}

void
Kernel::freeTable(PageTablePage *table)
{
    noteMutation();
    ++tables_freed;
    const Ppn frame = table->frame();
    allocator_.free(frame);
    tables_.erase(frame);
}

PageTablePage *
Kernel::tableByFrame(Ppn frame)
{
    auto it = tables_.find(frame);
    return it == tables_.end() ? nullptr : it->second.get();
}

Kernel::Group &
Kernel::groupOf(const Process &proc)
{
    auto it = groups_.find(proc.ccid());
    bf_assert(it != groups_.end(), "process ", proc.pid(), " has no group");
    return it->second;
}

const Kernel::Group &
Kernel::groupOf(const Process &proc) const
{
    return const_cast<Kernel *>(this)->groupOf(proc);
}

Ccid
Kernel::createGroup(const std::string &name, std::uint64_t aslr_seed)
{
    const Ccid ccid = next_ccid_++;
    Group group;
    group.ccid = ccid;
    group.name = name;
    group.aslr_seed = aslr_seed;
    group.offsets = AslrOffsets::randomize(aslr_seed);
    groups_[ccid] = std::move(group);
    inform("created CCID group ", ccid, " (", name, ")");
    return ccid;
}

Process *
Kernel::createProcess(Ccid ccid, const std::string &name)
{
    auto git = groups_.find(ccid);
    bf_assert(git != groups_.end(), "unknown CCID ", ccid);
    Group &group = git->second;

    const Pid pid = next_pid_++;
    const Pcid pcid = next_pcid_++ & 0xfff;
    PageTablePage *pgd = allocateTable(LevelPgd);

    auto proc = process_pool_.make(pid, pcid, ccid, name, pgd);
    if (params_.aslr == AslrMode::Hw) {
        proc->aslr_offsets =
            AslrOffsets::randomize(group.aslr_seed ^ (0x5bd1e995ull * pid));
        proc->aslr_transform =
            AslrTransform(group.offsets, proc->aslr_offsets);
    } else {
        proc->aslr_offsets = group.offsets;
        proc->aslr_transform = AslrTransform(group.offsets, group.offsets);
    }

    Process *raw = proc.get();
    processes_[pid] = std::move(proc);
    group.members.push_back(pid);
    if (attrib_) {
        const int slot = attrib_->registerTenant(pid, ccid, pcid, name);
        raw->setAttribSlot(slot);
        group.receivers.push_back(&attrib_->tenant(slot));
    }
    return raw;
}

Process *
Kernel::processByPid(Pid pid)
{
    auto it = processes_.find(pid);
    return it == processes_.end() ? nullptr : it->second.get();
}

const std::vector<Pid> &
Kernel::groupMembers(Ccid ccid) const
{
    auto it = groups_.find(ccid);
    bf_assert(it != groups_.end(), "unknown CCID ", ccid);
    return it->second.members;
}

MappedObject *
Kernel::createFile(const std::string &name, std::uint64_t bytes)
{
    objects_.push_back(std::make_unique<MappedObject>(
        next_object_id_++, name, bytes, /*is_file=*/true));
    return objects_.back().get();
}

MappedObject *
Kernel::createAnonObject(std::uint64_t bytes)
{
    objects_.push_back(std::make_unique<MappedObject>(
        next_object_id_++, "anon", bytes, /*is_file=*/false));
    return objects_.back().get();
}

void
Kernel::mmapObject(Process &proc, MappedObject *object, Addr canonical_va,
                   std::uint64_t bytes, std::uint64_t object_offset,
                   bool writable, bool exec, bool shared,
                   PageSize page_size)
{
    const std::uint64_t align = pageBytes(page_size);
    bf_assert(canonical_va % align == 0, "unaligned mmap va");
    bf_assert(object_offset % align == 0, "unaligned mmap offset");
    bf_assert(bytes % align == 0 || page_size == PageSize::Size4K,
              "huge mmap length not a multiple of the page size");
    bf_assert(object_offset + bytes <= object->bytes(),
              "mmap beyond object ", object->name());
    Vma vma;
    vma.start = canonical_va;
    vma.end = canonical_va + bytes;
    vma.writable = writable;
    vma.exec = exec;
    vma.shared = shared;
    vma.page_size = page_size;
    vma.object = object;
    vma.object_offset = object_offset;
    object->addMapper();
    proc.addVma(vma); // may reallocate the VMA list
    noteMutation();
}

void
Kernel::mmapAnon(Process &proc, Addr canonical_va, std::uint64_t bytes,
                 bool writable, bool allow_huge)
{
    bf_assert(canonical_va % basePageBytes == 0, "unaligned mmap va");
    MappedObject *object = createAnonObject(bytes);
    Vma vma;
    vma.start = canonical_va;
    vma.end = canonical_va + bytes;
    vma.writable = writable;
    vma.exec = false;
    vma.shared = false;
    vma.object = object;
    vma.object_offset = 0;
    const std::uint64_t huge_bytes = pageBytes(PageSize::Size2M);
    if (params_.thp && allow_huge && bytes >= huge_bytes &&
        canonical_va % huge_bytes == 0 && bytes % huge_bytes == 0)
        vma.page_size = PageSize::Size2M;
    object->addMapper();
    proc.addVma(vma); // may reallocate the VMA list
    noteMutation();
}

int
Kernel::leafTableLevel(const Process &proc, Addr va) const
{
    const Vma *vma = proc.findVma(va);
    return vma ? vma->leafLevel() : LevelPte;
}

PageTablePage *
Kernel::tableAt(const Process &proc, Addr va, int level) const
{
    PageTablePage *table = proc.pgd();
    for (int cur = LevelPgd; cur > level; --cur) {
        const Entry &entry = table->entryFor(va);
        if (!entry.present() || entry.huge())
            return nullptr;
        auto it = tables_.find(entry.frame());
        if (it == tables_.end())
            return nullptr;
        table = it->second.get();
    }
    return table;
}

PageTablePage *
Kernel::ensurePrivateChain(Process &proc, Addr va, int leaf_table_level)
{
    PageTablePage *table = proc.pgd();
    for (int cur = LevelPgd; cur > leaf_table_level; --cur) {
        Entry &entry = table->entryFor(va);
        if (!entry.present()) {
            PageTablePage *next = allocateTable(cur - 1);
            entry.setFrame(next->frame());
            entry.set(bits::present);
            entry.set(bits::writable);
            entry.set(bits::user);
            if (params_.babelfish && cur - 1 == leafTableLevel(proc, va)) {
                // A freshly created private leaf table: translations in it
                // are owned, not shared (paper O bit in the upper entry).
                entry.set(bits::owned);
            }
            table = next;
        } else {
            bf_assert(!entry.huge(), "chain hits huge leaf at level ", cur);
            table = tableByFrame(entry.frame());
            bf_assert(table, "dangling table frame");
        }
    }
    return table;
}

std::uint64_t
Kernel::regionSignature(const Process &proc, Addr base,
                        std::uint64_t span) const
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const auto &vma : proc.vmas()) {
        const Addr lo = std::max(vma.start, base);
        const Addr hi = std::min(vma.end, base + span);
        if (lo >= hi)
            continue;
        h = hashCombine(h, lo - base);
        h = hashCombine(h, hi - base);
        h = hashCombine(h, vma.object->id());
        h = hashCombine(h, vma.object_offset + (lo - vma.start));
        h = hashCombine(h, (vma.writable ? 1 : 0) | (vma.exec ? 2 : 0) |
                               (vma.shared ? 4 : 0) |
                               (static_cast<std::uint64_t>(vma.page_size)
                                << 3));
    }
    return h;
}

bool
Kernel::regionReadOnly(const Process &proc, Addr base,
                       std::uint64_t span) const
{
    bool any = false;
    for (const auto &vma : proc.vmas()) {
        if (vma.start >= base + span || vma.end <= base)
            continue;
        if (vma.writable)
            return false;
        any = true;
    }
    return any;
}

bool
Kernel::pointerTableShareable(const PageTablePage &table)
{
    // Every present entry must point at a group-shared table (never a
    // huge leaf or a private subtree).
    for (unsigned i = 0; i < entriesPerTable; ++i) {
        const Entry &entry = table.entry(i);
        if (!entry.present())
            continue;
        if (entry.huge())
            return false;
        PageTablePage *child = tableByFrame(entry.frame());
        if (!child || !child->group_shared)
            return false;
    }
    return true;
}

bool
Kernel::tableDiverged(const Process &proc, const PageTablePage &table,
                      Addr region_base) const
{
    const std::uint64_t span = entrySpan(table.level());
    for (unsigned i = 0; i < entriesPerTable; ++i) {
        const Entry &entry = table.entry(i);
        if (!entry.present())
            continue;
        const Addr va = region_base + i * span;
        const Vma *vma = proc.findVma(va);
        if (!vma)
            return true;
        if (vma->hugeBacked() != entry.huge())
            return true;
        const std::uint64_t page = vma->objectPageFor(va);
        if (!vma->object->resident(page))
            return true;
        bool dummy = false;
        // resident() guarantees no allocation happens here.
        const Ppn expect = vma->object->frameFor(page,
            const_cast<Kernel *>(this)->allocator_, dummy);
        if (entry.frame() != expect)
            return true;
    }
    return false;
}

FaultOutcome
Kernel::fillLeaf(Process &proc, Vma &vma, Addr va,
                 PageTablePage &leaf_table, AccessType type)
{
    Entry &entry = leaf_table.entryFor(va);
    bf_assert(!entry.present(), "fillLeaf on present entry");

    const bool is_write = type == AccessType::Write;
    bool was_major = false;
    FaultOutcome outcome;

    if (vma.hugeBacked()) {
        bf_assert(leaf_table.level() == vma.leafLevel(),
                  "huge fill at wrong level");
        const std::uint64_t chunk = vma.objectChunkFor(va);
        const std::uint64_t chunk_pages =
            pageBytes(vma.page_size) / basePageBytes;
        entry.set(bits::huge);

        if (is_write && vma.writable && !vma.shared) {
            // Private write on first touch: back with a fresh huge frame.
            entry.setFrame(allocator_.allocateContiguous(chunk_pages));
            entry.set(bits::writable);
        } else {
            entry.setFrame(vma.object->chunkFrameFor(chunk, chunk_pages,
                                                     allocator_,
                                                     was_major));
            if (vma.writable && vma.shared)
                entry.set(bits::writable);
            else if (vma.writable)
                entry.set(bits::cow);
        }
    } else {
        const std::uint64_t page = vma.objectPageFor(va);
        if (is_write && vma.writable && !vma.shared) {
            if (vma.object->isFile()) {
                // MAP_PRIVATE file write: copy the file page immediately.
                bool file_major = false;
                vma.object->frameFor(page, allocator_, file_major);
                was_major = file_major;
                entry.setFrame(allocator_.allocate());
                outcome.kind = FaultKind::Cow;
            } else {
                entry.setFrame(allocator_.allocate());
            }
            entry.set(bits::writable);
        } else {
            entry.setFrame(vma.object->frameFor(page, allocator_,
                                                was_major));
            if (vma.writable && vma.shared)
                entry.set(bits::writable);
            else if (vma.writable)
                entry.set(bits::cow);
        }
    }

    entry.set(bits::present);
    entry.set(bits::user);
    entry.set(bits::nx, !vma.exec);
    entry.set(bits::accessed);
    if (is_write)
        entry.set(bits::dirty);
    if (params_.babelfish && !leaf_table.group_shared) {
        // Translations in private tables are owned entries in the TLB.
        entry.set(bits::owned);
    }

    if (params_.babelfish && is_write && vma.writable && !vma.shared &&
        !leaf_table.group_shared) {
        // The fill created a diverged private translation; drop any
        // stale shared (O-clear) entry other sharers may have cached for
        // this VPN — its PC bitmask predates this process' privatization
        // of the region.
        const PageSize size = vma.page_size;
        invalidateTlbs(TlbInvalidate{TlbInvalidate::Kind::SharedRange,
                                     proc.ccid(), 0,
                                     va >> pageShift(size), 1, size});
    }

    if (was_major) {
        ++major_faults;
        outcome.kind = FaultKind::Major;
        outcome.cycles = params_.major_fault_cycles;
    } else if (outcome.kind == FaultKind::Cow) {
        ++cow_faults;
        outcome.cycles = params_.cow_fault_cycles;
    } else {
        ++minor_faults;
        outcome.kind = FaultKind::Minor;
        outcome.cycles = params_.minor_fault_cycles;
    }
    return outcome;
}

PageTablePage *
Kernel::privatizeLeafTable(Process &proc, Addr va,
                           PageTablePage &shared_table)
{
    Group &group = groupOf(proc);
    const int level = shared_table.level();
    const Addr mask_region = tableBase(va, level + 1);

    auto &mask_ptr = group.masks[mask_region];
    if (!mask_ptr) {
        mask_ptr = mask_pool_.make(allocator_.allocate(), mask_region);
    }
    MaskPage &mask = *mask_ptr;

    int bit = mask.bitFor(proc.pid());
    if (bit < 0) {
        bit = mask.writerCount() < params_.max_cow_writers
                  ? mask.addWriter(proc.pid())
                  : -1;
        if (bit < 0) {
            // 33rd writer: the PC bitmask is out of space. Revert every
            // sharer in this PMD table set to private translations
            // (paper Appendix, Fig. 12(b)).
            ++mask_fallbacks;
            revertMaskRegion(group, mask_region);
            return nullptr;
        }
        proc.setBitIn(mask_region, bit);
        ++group.mask_generation; // Cached processBit() answers are stale.
    }

    const unsigned pmd_index = tableIndex(va, level + 1);
    mask.setBit(pmd_index, bit);

    // Copy the 512 pte_t translations; every copy is an owned entry.
    PageTablePage *priv = allocateTable(level);
    for (unsigned i = 0; i < entriesPerTable; ++i) {
        priv->entry(i) = shared_table.entry(i);
        if (priv->entry(i).present())
            priv->entry(i).set(bits::owned);
    }

    PageTablePage *upper = tableAt(proc, va, level + 1);
    bf_assert(upper, "privatize without upper table");
    Entry &upper_entry = upper->entryFor(va);
    bf_assert(upper_entry.present() &&
                  upper_entry.frame() == shared_table.frame(),
              "privatize: upper entry does not point at shared table");
    upper_entry.setFrame(priv->frame());
    upper_entry.set(bits::owned);
    upper_entry.set(bits::orpc, false);

    bf_assert(shared_table.sharers > 0, "sharer underflow");
    if (--shared_table.sharers == 0) {
        group.shared_tables.erase(
            SharedTableKey{entryBase(va, level + 1), level});
        freeTable(&shared_table);
    }

    ++cow_privatizations;
    if (attrib_)
        attrib_->noteCow(proc.attribSlot());
    if (tracer_)
        tracer_->recordKernel(trace::EventType::CowPrivatize, proc.ccid(),
                              proc.pid(), va);
    propagateOrpc(group, va, level);
    return priv;
}

void
Kernel::propagateOrpc(Group &group, Addr va, int leaf_table_level)
{
    for (const Pid pid : group.members) {
        Process *member = processByPid(pid);
        if (!member || !member->alive())
            continue;
        PageTablePage *upper = tableAt(*member, va, leaf_table_level + 1);
        if (!upper)
            continue;
        Entry &entry = upper->entryFor(va);
        if (entry.present() && !entry.owned())
            entry.set(bits::orpc);
    }
}

void
Kernel::revertMaskRegion(Group &group, Addr mask_region_base)
{
    if (tracer_)
        tracer_->recordKernel(trace::EventType::MaskFallback, group.ccid,
                              0, mask_region_base);
    // Collect the shared tables of this PMD table set.
    std::vector<std::pair<SharedTableKey, SharedTableRecord>> victims;
    for (const auto &[key, rec] : group.shared_tables) {
        const std::uint64_t set_span = tableSpan(rec.table->level() + 1);
        if (tableBase(key.region_base, rec.table->level() + 1) ==
                mask_region_base &&
            set_span == tableSpan(rec.table->level() + 1) &&
            key.region_base >= mask_region_base &&
            key.region_base < mask_region_base + set_span) {
            victims.emplace_back(key, rec);
        }
    }

    for (auto &[key, rec] : victims) {
        PageTablePage *shared = rec.table;
        const int level = shared->level();
        for (const Pid pid : group.members) {
            Process *member = processByPid(pid);
            if (!member || !member->alive())
                continue;
            PageTablePage *upper = tableAt(*member, key.region_base,
                                           level + 1);
            if (!upper)
                continue;
            Entry &entry = upper->entryFor(key.region_base);
            if (!entry.present() || entry.frame() != shared->frame())
                continue;
            PageTablePage *priv = allocateTable(level);
            for (unsigned i = 0; i < entriesPerTable; ++i) {
                priv->entry(i) = shared->entry(i);
                if (priv->entry(i).present())
                    priv->entry(i).set(bits::owned);
            }
            entry.setFrame(priv->frame());
            entry.set(bits::owned);
            entry.set(bits::orpc, false);
            bf_assert(shared->sharers > 0, "sharer underflow in revert");
            --shared->sharers;
        }
        group.shared_tables.erase(key);
        freeTable(shared);

        // Drop every shared TLB entry of the reverted 2 MB region.
        invalidateTlbs(TlbInvalidate{
            TlbInvalidate::Kind::SharedRange, group.ccid, 0,
            addrToVpn(key.region_base), tableSpan(level) / basePageBytes,
            PageSize::Size4K});
    }

    group.mask_fallback[mask_region_base] = true;
    ++group.mask_generation;
}

FaultOutcome
Kernel::resolveCow(Process &proc, Vma &vma, Addr va,
                   PageTablePage &leaf_table, Entry &leaf)
{
    FaultOutcome outcome;
    outcome.kind = FaultKind::Cow;
    outcome.cycles = params_.cow_fault_cycles;

    PageTablePage *target_table = &leaf_table;
    Entry *target = &leaf;

    if (params_.babelfish && leaf_table.group_shared) {
        PageTablePage *priv = privatizeLeafTable(proc, va, leaf_table);
        if (!priv) {
            // Mask overflow: region reverted; our translations are now in
            // a private table installed by revertMaskRegion.
            priv = tableAt(proc, va, leafTableLevel(proc, va));
            bf_assert(priv, "revert left no private table");
        }
        target_table = priv;
        target = &target_table->entryFor(va);
        outcome.cycles += params_.shootdown_cycles;
        // Single-entry shootdown: only the shared (O=0) entry for this
        // VPN is stale (its PC bitmask changed); the other 511 shared
        // translations stay valid in all TLBs (paper §III-A).
        invalidateTlbs(TlbInvalidate{
            TlbInvalidate::Kind::SharedRange, proc.ccid(), 0,
            va >> pageShift(vma.page_size), 1, vma.page_size});
    } else {
        const PageSize size = vma.page_size;
        invalidateTlbs(TlbInvalidate{TlbInvalidate::Kind::Page,
                                     proc.ccid(), proc.pcid(),
                                     va >> pageShift(size), 1, size});
        if (params_.babelfish) {
            // Even a CoW in an already-private table must drop the
            // shared (O-clear) entry for this VPN from all TLBs: other
            // sharers' cached copies carry a PC bitmask that predates
            // this process' privatization of the region (paper §III-A:
            // the OS invalidates the O=0 entry on every CoW event).
            invalidateTlbs(TlbInvalidate{TlbInvalidate::Kind::SharedRange,
                                         proc.ccid(), 0,
                                         va >> pageShift(size), 1, size});
        }
        outcome.cycles += params_.shootdown_cycles;
    }

    // Allocate the private copy of the written page only; for huge pages
    // the whole chunk is copied.
    if (vma.hugeBacked()) {
        const std::uint64_t chunk_pages =
            pageBytes(vma.page_size) / basePageBytes;
        target->setFrame(allocator_.allocateContiguous(chunk_pages));
        outcome.cycles += chunk_pages * 40; // copy the chunk
    } else {
        target->setFrame(allocator_.allocate());
    }
    target->set(bits::writable);
    target->set(bits::cow, false);
    target->set(bits::dirty);
    target->set(bits::accessed);
    if (params_.babelfish)
        target->set(bits::owned);

    ++cow_faults;
    return outcome;
}

FaultOutcome
Kernel::serviceFault(const DeferredFault &fault)
{
    bf_assert(fault.proc, "deferred fault without a process");
    return handleFault(*fault.proc, fault.canonical_va, fault.type);
}

FaultOutcome
Kernel::handleFault(Process &proc, Addr canonical_va, AccessType type)
{
    // Any shootdown this fault triggers (CoW privatization, mask-region
    // revert, raced-fill flush) is billed to the faulting container.
    noteAttribCauser(proc);
    // Batched service (beginFaultBatch): same-region fault storms skip
    // the linear VMA scan and the root-to-leaf table walk when the memo
    // epoch proves nothing structural changed since the last fault.
    Vma *vma;
    if (fault_batch_active_ && vma_memo_.epoch == mutation_epoch_ &&
        vma_memo_.pid == proc.pid() &&
        vma_memo_.vma->contains(canonical_va)) {
        vma = vma_memo_.vma;
    } else {
        vma = proc.findVma(canonical_va);
        if (fault_batch_active_ && vma)
            vma_memo_ = {proc.pid(), vma, mutation_epoch_};
    }
    if (!vma)
        return {FaultKind::Protection, 0};
    if (type == AccessType::Write && !vma->writable)
        return {FaultKind::Protection, 0};
    if (type == AccessType::Ifetch && !vma->exec)
        return {FaultKind::Protection, 0};

    const int leaf_level = vma->leafLevel();
    PageTablePage *leaf_table;
    if (fault_batch_active_ && table_memo_.epoch == mutation_epoch_ &&
        table_memo_.pid == proc.pid() &&
        table_memo_.level == leaf_level &&
        table_memo_.region_base ==
            entryBase(canonical_va, leaf_level + 1)) {
        leaf_table = table_memo_.table;
    } else {
        leaf_table = tableAt(proc, canonical_va, leaf_level);
        if (fault_batch_active_ && leaf_table)
            table_memo_ = {proc.pid(),
                           entryBase(canonical_va, leaf_level + 1),
                           leaf_level, leaf_table, mutation_epoch_};
    }

    // Fill a leaf entry, keeping group-shared tables clean: a write
    // first-touch of a private-writable page in a shared table fills the
    // clean CoW translation (the view every sharer must see) and then
    // resolves the write through the privatization machinery.
    auto fillAndResolve = [&](PageTablePage &table) -> FaultOutcome {
        if (params_.babelfish && table.group_shared &&
            type == AccessType::Write && vma->writable && !vma->shared) {
            FaultOutcome fill =
                fillLeaf(proc, *vma, canonical_va, table, AccessType::Read);
            Entry &leaf = table.entryFor(canonical_va);
            bf_assert(leaf.cow(), "clean fill of private-writable not CoW");
            FaultOutcome cow =
                resolveCow(proc, *vma, canonical_va, table, leaf);
            cow.cycles += fill.cycles;
            if (fill.kind == FaultKind::Major)
                cow.kind = FaultKind::Major;
            return cow;
        }
        return fillLeaf(proc, *vma, canonical_va, table, type);
    };

    if (leaf_table) {
        Entry &leaf = leaf_table->entryFor(canonical_va);
        if (leaf.present()) {
            if (type == AccessType::Write && leaf.cow())
                return resolveCow(proc, *vma, canonical_va, *leaf_table,
                                  leaf);
            if (type == AccessType::Write && !leaf.writable())
                return {FaultKind::Protection, 0};
            // Already resolved (e.g. filled through a shared table by a
            // sibling between the walk and the fault).
            leaf.set(bits::accessed);
            return {FaultKind::None, 0};
        }
        return fillAndResolve(*leaf_table);
    }

    // No leaf table yet: build the chain. Under BabelFish, try to attach
    // to (or create) a group-shared leaf table.
    Group &group = groupOf(proc);
    const Addr region_base = entryBase(canonical_va, leaf_level + 1);
    const Addr mask_region = tableBase(canonical_va, leaf_level + 1);

    // A region is worth registering for sharing only if some overlapping
    // VMA could produce identical translations in another process: file
    // backing, or an anon object that more than one process maps.
    bool shareworthy = false;
    for (const auto &region_vma : proc.vmas()) {
        if (region_vma.start >= region_base + entrySpan(leaf_level + 1) ||
            region_vma.end <= region_base)
            continue;
        if (region_vma.object->isFile() ||
            region_vma.object->mappers() > 1) {
            shareworthy = true;
            break;
        }
    }

    if (params_.babelfish && shareworthy &&
        !group.mask_fallback[mask_region]) {
        const std::uint64_t sig =
            regionSignature(proc, region_base, entrySpan(leaf_level + 1));
        const SharedTableKey key{region_base, leaf_level};
        PageTablePage *upper =
            ensurePrivateChain(proc, canonical_va, leaf_level + 1);
        Entry &upper_entry = upper->entryFor(canonical_va);
        bf_assert(!upper_entry.present(), "upper entry races leaf table");

        auto it = group.shared_tables.find(key);
        if (it != group.shared_tables.end() &&
            it->second.signature == sig && !it->second.fork_only) {
            // Attach to the existing shared table. No table is
            // allocated or freed, yet the walkable tree changed shape.
            noteMutation();
            PageTablePage *shared = it->second.table;
            upper_entry.setFrame(shared->frame());
            upper_entry.set(bits::present);
            upper_entry.set(bits::writable);
            upper_entry.set(bits::user);
            auto mit = group.masks.find(mask_region);
            if (mit != group.masks.end() &&
                mit->second->orpc(tableIndex(canonical_va, leaf_level + 1)))
                upper_entry.set(bits::orpc);
            bf_assert(shared->sharers < 0xffff,
                      "16-bit sharer counter saturated");
            ++shared->sharers;
            ++tables_shared;
            ++shared_installs;

            Entry &leaf = shared->entryFor(canonical_va);
            if (leaf.present()) {
                if (type == AccessType::Write && leaf.cow())
                    return resolveCow(proc, *vma, canonical_va, *shared,
                                      leaf);
                leaf.set(bits::accessed);
                return {FaultKind::SharedInstall,
                        params_.shared_install_cycles};
            }
            FaultOutcome outcome = fillAndResolve(*shared);
            outcome.cycles += params_.shared_install_cycles;
            return outcome;
        }

        if (it == group.shared_tables.end()) {
            // First process to touch the region: create the table and
            // register it for the group.
            PageTablePage *table = allocateTable(leaf_level);
            table->group_shared = true;
            group.shared_tables[key] = SharedTableRecord{table, sig};
            upper_entry.setFrame(table->frame());
            upper_entry.set(bits::present);
            upper_entry.set(bits::writable);
            upper_entry.set(bits::user);
            return fillAndResolve(*table);
        }
        // Signature mismatch: fall through to a private table.
        upper_entry.clear();
    }

    PageTablePage *table =
        ensurePrivateChain(proc, canonical_va, leaf_level);
    return fillLeaf(proc, *vma, canonical_va, *table, type);
}

Process *
Kernel::fork(Process &parent, const std::string &name, Cycles &work_cycles)
{
    Process *child = createProcess(parent.ccid(), name);
    work_cycles = params_.fork_base_cycles;
    // The end-of-fork CoW-protection flush is the parent's doing.
    noteAttribCauser(parent);

    // Children inherit the parent's mappings (objects shared by pointer).
    for (const auto &vma : parent.vmas()) {
        vma.object->addMapper();
        child->addVma(vma);
    }

    Group &group = groupOf(parent);

    // Copy the page tables level by level. At the leaf-table level, clean
    // tables are group-shared under BabelFish instead of being copied.
    struct Frame
    {
        PageTablePage *src;
        PageTablePage *dst;
        Addr base;
    };
    std::vector<Frame> stack{{parent.pgd(), child->pgd(), 0}};

    while (!stack.empty()) {
        auto [src, dst, base] = stack.back();
        stack.pop_back();
        const int level = src->level();
        const std::uint64_t span = entrySpan(level);

        for (unsigned i = 0; i < entriesPerTable; ++i) {
            Entry &src_entry = src->entry(i);
            if (!src_entry.present())
                continue;
            const Addr va = base + i * span;

            const bool is_leaf = level == LevelPte || src_entry.huge();
            if (is_leaf) {
                // CoW-protect writable private translations in both.
                const Vma *vma = parent.findVma(va);
                if (vma && vma->writable && !vma->shared &&
                    src_entry.writable()) {
                    src_entry.set(bits::writable, false);
                    src_entry.set(bits::cow);
                }
                dst->entry(i) = src_entry;
                if (params_.babelfish && !dst->group_shared)
                    dst->entry(i).set(bits::owned);
                ++fork_entries_copied;
                work_cycles += params_.fork_per_entry_cycles;
                continue;
            }

            PageTablePage *next = tableByFrame(src_entry.frame());
            bf_assert(next, "fork: dangling table");
            const int next_level = next->level();
            const Addr next_base = va;

            bool next_is_leaf_table = next_level == LevelPte;
            if (!next_is_leaf_table && next_level < LevelPgd) {
                // A PMD/PUD table whose first present entry is a huge
                // leaf holds leaf entries; mixed tables are treated as
                // pointer tables (their huge leaves copy entry-wise
                // above).
                for (unsigned j = 0; j < entriesPerTable; ++j) {
                    if (next->entry(j).present()) {
                        next_is_leaf_table = next->entry(j).huge();
                        break;
                    }
                }
            }

            if (params_.babelfish && next_is_leaf_table) {
                const std::uint64_t sig = regionSignature(
                    parent, next_base, entrySpan(next_level + 1));
                const Addr mask_region =
                    tableBase(next_base, next_level + 1);
                const SharedTableKey key{next_base, next_level};

                if (!group.mask_fallback[mask_region]) {
                    auto it = group.shared_tables.find(key);
                    PageTablePage *shared = nullptr;
                    if (it != group.shared_tables.end() &&
                        it->second.signature == sig &&
                        it->second.table == next) {
                        shared = next;
                    } else if (it == group.shared_tables.end() &&
                               !next->group_shared) {
                        // Promote the parent's table to group-shared. If
                        // the parent already CoW'ed pages in it, only
                        // fork descendants may join.
                        next->group_shared = true;
                        for (unsigned j = 0; j < entriesPerTable; ++j) {
                            if (next->entry(j).present())
                                next->entry(j).set(bits::owned, false);
                        }
                        group.shared_tables[key] = SharedTableRecord{
                            next, sig,
                            tableDiverged(parent, *next, next_base)};
                        shared = next;
                    }
                    if (shared) {
                        // CoW-protect writable private leaves inside the
                        // shared table (one update covers every sharer).
                        for (unsigned j = 0; j < entriesPerTable; ++j) {
                            Entry &leaf = shared->entry(j);
                            if (!leaf.present())
                                continue;
                            const Addr lva =
                                next_base + j * entrySpan(next_level);
                            const Vma *vma = parent.findVma(lva);
                            if (vma && vma->writable && !vma->shared &&
                                leaf.writable()) {
                                leaf.set(bits::writable, false);
                                leaf.set(bits::cow);
                            }
                        }
                        Entry &dst_entry = dst->entry(i);
                        dst_entry = src_entry;
                        dst_entry.setFrame(shared->frame());
                        dst_entry.set(bits::owned, false);
                        src_entry.set(bits::owned, false);
                        bf_assert(shared->sharers < 0xffff,
                      "16-bit sharer counter saturated");
            ++shared->sharers;
                        ++tables_shared;
                        work_cycles += params_.fork_per_table_cycles;
                        continue;
                    }
                }
            }

            // Higher-level sharing (paper §III-B): a PMD (or PUD) table
            // of an all-read-only region whose present entries all point
            // at group-shared tables can itself be group-shared, so PUD
            // entries of multiple processes point at the same PMD table.
            if (params_.babelfish &&
                next_level <= params_.max_share_level &&
                regionReadOnly(parent, next_base, entrySpan(next_level + 1))) {
                const SharedTableKey key{next_base, next_level};
                const std::uint64_t sig = regionSignature(
                    parent, next_base, entrySpan(next_level + 1));
                auto it = group.shared_tables.find(key);
                PageTablePage *shared = nullptr;
                if (it != group.shared_tables.end() &&
                    it->second.signature == sig &&
                    it->second.table == next) {
                    shared = next;
                } else if (it == group.shared_tables.end() &&
                           !next->group_shared &&
                           pointerTableShareable(*next)) {
                    next->group_shared = true;
                    group.shared_tables[key] = SharedTableRecord{next, sig};
                    shared = next;
                }
                if (shared) {
                    Entry &dst_entry = dst->entry(i);
                    dst_entry = src_entry;
                    dst_entry.setFrame(shared->frame());
                    dst_entry.set(bits::owned, false);
                    src_entry.set(bits::owned, false);
                    bf_assert(shared->sharers < 0xffff,
                      "16-bit sharer counter saturated");
            ++shared->sharers;
                    ++tables_shared;
                    work_cycles += params_.fork_per_table_cycles;
                    continue;
                }
            }

            // Private copy of the next-level table.
            PageTablePage *copy = allocateTable(next_level);
            Entry &dst_entry = dst->entry(i);
            dst_entry = src_entry;
            dst_entry.setFrame(copy->frame());
            work_cycles += params_.fork_per_table_cycles;
            stack.push_back({next, copy, next_base});
        }
    }

    // The parent's cached translations may have lost write permission
    // (CoW protection); drop them in one flush, as Linux does.
    invalidateTlbs(TlbInvalidate{TlbInvalidate::Kind::Pcid, parent.ccid(),
                                 parent.pcid(), 0, 0, PageSize::Size4K});

    return child;
}

void
Kernel::releaseTablePointer(Group &group, PageTablePage *table)
{
    if (table->group_shared) {
        bf_assert(table->sharers > 0, "sharer underflow on release");
        if (--table->sharers > 0)
            return; // other sharers keep the subtree alive
        // Last pointer removed: unregister (the paper's 16-bit counter
        // reaching zero) and fall through to free the subtree.
        for (auto it = group.shared_tables.begin();
             it != group.shared_tables.end(); ++it) {
            if (it->second.table == table) {
                group.shared_tables.erase(it);
                break;
            }
        }
    }
    if (table->level() > LevelPte) {
        for (unsigned i = 0; i < entriesPerTable; ++i) {
            const Entry &entry = table->entry(i);
            if (entry.present() && !entry.huge()) {
                PageTablePage *next = tableByFrame(entry.frame());
                if (next)
                    releaseTablePointer(group, next);
            }
        }
    }
    freeTable(table);
}

Cycles
Kernel::munmap(Process &proc, Addr start)
{
    noteAttribCauser(proc);
    Vma *vma = proc.findVma(start);
    bf_assert(vma && vma->start == start,
              "munmap: no VMA starts at ", start);
    Group &group = groupOf(proc);
    const int leaf_level = vma->leafLevel();
    const Addr end = vma->end;
    Cycles work = 1200; // base syscall + VMA bookkeeping

    // Drop the pointer to every leaf table overlapping the VMA.
    const std::uint64_t region_span = entrySpan(leaf_level + 1);
    for (Addr region = entryBase(start, leaf_level + 1); region < end;
         region += region_span) {
        PageTablePage *upper = tableAt(proc, region, leaf_level + 1);
        if (!upper)
            continue;
        Entry &entry = upper->entryFor(region);
        if (!entry.present() || entry.huge())
            continue;
        PageTablePage *leaf = tableByFrame(entry.frame());
        if (!leaf)
            continue;
        entry.clear();
        work += 300;
        releaseTablePointer(group, leaf);
    }
    vma->object->removeMapper();
    proc.removeVma(start);
    noteMutation();

    // Flush the process' cached translations (coarse, like a full-VMA
    // shootdown with an invpcid).
    invalidateTlbs(TlbInvalidate{TlbInvalidate::Kind::Pcid, proc.ccid(),
                                 proc.pcid(), 0, 0, PageSize::Size4K});
    return work;
}

void
Kernel::exitProcess(Process &proc)
{
    noteAttribCauser(proc);
    Group &group = groupOf(proc);

    // Release the page-table tree: one pointer drop at the root cascades
    // through shared subtrees via the sharer counters.
    releaseTablePointer(group, proc.pgd());

    invalidateTlbs(TlbInvalidate{TlbInvalidate::Kind::Pcid, proc.ccid(),
                                 proc.pcid(), 0, 0, PageSize::Size4K});
    proc.markDead();
    std::erase(group.members, proc.pid());
    if (attrib_ && proc.attribSlot() >= 0)
        std::erase(group.receivers, &attrib_->tenant(proc.attribSlot()));
    processes_.erase(proc.pid());
    noteMutation();
    // Pids are never reused, so stale {pid, region} cache entries can
    // never match a future process — the bump is belt and braces.
    ++group.mask_generation;
}

MaskPage *
Kernel::maskFor(Ccid ccid, Addr canonical_va)
{
    auto git = groups_.find(ccid);
    if (git == groups_.end())
        return nullptr;
    // Mask regions are keyed by the base of the span of the table above
    // the leaf table (1 GB for 4 KB leaves); try every leaf level.
    for (int leaf_level : {LevelPte, LevelPmd, LevelPud}) {
        const Addr base = tableBase(canonical_va, leaf_level + 1);
        auto it = git->second.masks.find(base);
        if (it != git->second.masks.end())
            return it->second.get();
    }
    return nullptr;
}

int
Kernel::processBit(const Process &proc, Addr canonical_va) const
{
    // Fast path: a process that never CoW'ed in a shared region owns no
    // bit anywhere, and that is the overwhelmingly common translate-time
    // case. One flag test, no per-level region lookups.
    if (!proc.hasMaskBits())
        return -1;
    for (int leaf_level : {LevelPte, LevelPmd, LevelPud}) {
        const Addr base = tableBase(canonical_va, leaf_level + 1);
        const int bit = proc.bitIn(base);
        if (bit >= 0)
            return bit;
    }
    return -1;
}

const std::uint64_t *
Kernel::maskGenerationPtr(Ccid ccid) const
{
    const auto it = groups_.find(ccid);
    return it == groups_.end() ? nullptr : &it->second.mask_generation;
}

void
Kernel::invalidateTlbs(const TlbInvalidate &inv)
{
    ++shootdowns;
    if (attrib_) {
        // Causer: the container the current kernel entry point stamped.
        // Every shootdown bills exactly one causer, so the per-tenant
        // sums reconcile with the global `shootdowns` counter.
        attrib_->noteShootdownCaused(attrib_causer_slot_,
                                     inv.ccid != attrib_causer_ccid_);
        // Receivers: who loses cached translations. Page/Pcid kinds
        // target one PCID; SharedRange reaches every live group member
        // (their shared O-clear entries are the ones dropped), billed
        // from the group's receiver rows.
        if (inv.kind == TlbInvalidate::Kind::SharedRange) {
            const auto git = groups_.find(inv.ccid);
            if (git != groups_.end()) {
                const bool cross = inv.ccid != attrib_causer_ccid_;
                for (attrib::Tenant *row : git->second.receivers)
                    attrib::Registry::noteShootdownReceived(*row, cross);
            }
        } else {
            const int slot = attrib_->slotOfPcid(inv.pcid);
            if (slot >= 0)
                attrib_->noteShootdownReceived(
                    slot, attrib_->tenant(slot).ccid !=
                              attrib_causer_ccid_);
        }
    }
    if (tracer_)
        tracer_->recordKernel(
            trace::EventType::Shootdown, inv.ccid, 0,
            inv.vpn << pageShift(inv.size),
            trace::packShootdown(inv.num_pages, inv.pcid,
                                 static_cast<unsigned>(inv.size)),
            static_cast<std::uint8_t>(inv.kind));
    if (tlb_hook_)
        tlb_hook_(inv);
}

void
Kernel::forEachTranslation(
    const Process &proc,
    const std::function<void(Addr, const Entry &, PageSize)> &fn) const
{
    struct Frame
    {
        const PageTablePage *table;
        Addr base;
    };
    std::vector<Frame> stack{{proc.pgd(), 0}};
    while (!stack.empty()) {
        auto [table, base] = stack.back();
        stack.pop_back();
        const int level = table->level();
        const std::uint64_t span = entrySpan(level);
        for (unsigned i = 0; i < entriesPerTable; ++i) {
            const Entry &entry = table->entry(i);
            if (!entry.present())
                continue;
            const Addr va = base + i * span;
            if (level == LevelPte) {
                fn(va, entry, PageSize::Size4K);
            } else if (entry.huge()) {
                fn(va, entry,
                   level == LevelPmd ? PageSize::Size2M : PageSize::Size1G);
            } else {
                auto it = tables_.find(entry.frame());
                if (it != tables_.end())
                    stack.push_back({it->second.get(), va});
            }
        }
    }
}

void
Kernel::clearAccessedBits()
{
    for (auto &[frame, table] : tables_) {
        for (unsigned i = 0; i < entriesPerTable; ++i) {
            Entry &entry = table->entry(i);
            if (entry.present() &&
                (table->level() == LevelPte || entry.huge()))
                entry.set(bits::accessed, false);
        }
    }
}

std::vector<Process *>
Kernel::processes()
{
    std::vector<Process *> result;
    for (auto &[pid, proc] : processes_)
        result.push_back(proc.get());
    return result;
}

std::uint64_t
Kernel::countTablePages(const Process &proc) const
{
    std::uint64_t count = 0;
    std::vector<const PageTablePage *> stack{proc.pgd()};
    while (!stack.empty()) {
        const PageTablePage *table = stack.back();
        stack.pop_back();
        ++count;
        if (table->level() == LevelPte)
            continue;
        for (unsigned i = 0; i < entriesPerTable; ++i) {
            const Entry &entry = table->entry(i);
            if (!entry.present() || entry.huge())
                continue;
            auto it = tables_.find(entry.frame());
            if (it != tables_.end())
                stack.push_back(it->second.get());
        }
    }
    return count;
}

namespace
{

/** Restore-side invariant check: throw, never crash, on divergence. */
void
ckptCheck(bool ok, const char *what)
{
    if (!ok) {
        throw snap::SnapshotError(
            std::string("kernel checkpoint mismatch: ") + what);
    }
}

} // namespace

void
Kernel::save(snap::ArchiveWriter &ar) const
{
    // Configuration fingerprint first: restore() refuses a checkpoint
    // taken under a different OS model before touching any state.
    ar.b(params_.babelfish);
    ar.u32(static_cast<std::uint32_t>(params_.max_share_level));
    ar.b(params_.thp);
    ar.u32(params_.max_cow_writers);
    ar.u8(static_cast<std::uint8_t>(params_.aslr));
    ar.u64(params_.mem_frames);

    ar.u64(next_pid_);
    ar.u64(next_pcid_);
    ar.u64(next_ccid_);
    ar.u64(next_object_id_);

    ar.u64(allocator_.nextFrame());
    ar.u64(allocator_.freeList().size());
    for (const Ppn ppn : allocator_.freeList())
        ar.u64(ppn);

    ar.u32(static_cast<std::uint32_t>(objects_.size()));
    for (const auto &obj : objects_) {
        ar.u64(obj->id());
        ar.u64(obj->bytes());
        ar.b(obj->isFile());
        ar.b(obj->preloaded());
        ar.u32(obj->mappers());
        ar.u64(obj->frames().size());
        for (const Ppn frame : obj->frames())
            ar.u64(frame);
    }

    // Emit tables sorted by frame so the archive bytes are independent
    // of the unordered_map's iteration order.
    std::vector<const PageTablePage *> tables;
    tables.reserve(tables_.size());
    for (const auto &[frame, table] : tables_)
        tables.push_back(table.get());
    std::sort(tables.begin(), tables.end(),
              [](const PageTablePage *a, const PageTablePage *b) {
                  return a->frame() < b->frame();
              });
    ar.u32(static_cast<std::uint32_t>(tables.size()));
    for (const PageTablePage *table : tables) {
        ar.u64(table->frame());
        ar.u8(static_cast<std::uint8_t>(table->level()));
        ar.u16(table->sharers);
        ar.b(table->group_shared);
        for (unsigned i = 0; i < entriesPerTable; ++i)
            ar.u64(table->entry(i).raw);
    }

    ar.u32(static_cast<std::uint32_t>(processes_.size()));
    for (const auto &[pid, proc] : processes_) {
        ar.u32(pid);
        ar.str(proc->name());
        ar.u16(proc->pcid());
        ar.u16(proc->ccid());
        ar.u64(proc->pgd() ? proc->pgd()->frame() : 0);

        ar.u32(static_cast<std::uint32_t>(proc->vmas().size()));
        for (const Vma &vma : proc->vmas()) {
            ar.u64(vma.start);
            ar.u64(vma.end);
            ar.b(vma.writable);
            ar.b(vma.exec);
            ar.b(vma.shared);
            ar.u8(static_cast<std::uint8_t>(vma.page_size));
            ar.u64(vma.object ? vma.object->id() : 0);
            ar.u64(vma.object_offset);
        }

        ar.u32(static_cast<std::uint32_t>(proc->maskBits().size()));
        for (const auto &[region, bit] : proc->maskBits()) {
            ar.u64(region);
            ar.u32(static_cast<std::uint32_t>(bit));
        }

        for (unsigned s = 0; s < numSegments; ++s)
            ar.i64(proc->aslr_offsets.offset[s]);
        for (unsigned s = 0; s < numSegments; ++s)
            ar.i64(proc->aslr_transform.diff().offset[s]);
    }

    ar.u32(static_cast<std::uint32_t>(groups_.size()));
    for (const auto &[ccid, group] : groups_) {
        ar.u16(ccid);
        ar.str(group.name);
        for (unsigned s = 0; s < numSegments; ++s)
            ar.i64(group.offsets.offset[s]);
        ar.u64(group.aslr_seed);

        ar.u32(static_cast<std::uint32_t>(group.members.size()));
        for (const Pid member : group.members)
            ar.u32(member);
        ar.u64(group.mask_generation);

        ar.u32(static_cast<std::uint32_t>(group.masks.size()));
        for (const auto &[region_base, mask] : group.masks) {
            ar.u64(region_base);
            ar.u64(mask->frame());
            for (unsigned i = 0; i < entriesPerTable; ++i)
                ar.u32(mask->bitmasks()[i]);
            ar.u32(static_cast<std::uint32_t>(mask->pidList().size()));
            for (const Pid writer : mask->pidList())
                ar.u32(writer);
        }

        ar.u32(static_cast<std::uint32_t>(group.mask_fallback.size()));
        for (const auto &[region_base, reverted] : group.mask_fallback) {
            ar.u64(region_base);
            ar.b(reverted);
        }

        ar.u32(static_cast<std::uint32_t>(group.shared_tables.size()));
        for (const auto &[key, rec] : group.shared_tables) {
            ar.u64(key.region_base);
            ar.u8(static_cast<std::uint8_t>(key.level));
            ar.u64(rec.table->frame());
            ar.u64(rec.signature);
            ar.b(rec.fork_only);
        }
    }
}

void
Kernel::restore(snap::ArchiveReader &ar)
{
    noteMutation(); // everything the fault memos point at is replaced
    ckptCheck(ar.b() == params_.babelfish, "babelfish flag");
    ckptCheck(ar.u32() ==
                  static_cast<std::uint32_t>(params_.max_share_level),
              "max_share_level");
    ckptCheck(ar.b() == params_.thp, "thp");
    ckptCheck(ar.u32() == params_.max_cow_writers, "max_cow_writers");
    ckptCheck(ar.u8() == static_cast<std::uint8_t>(params_.aslr),
              "aslr mode");
    ckptCheck(ar.u64() == params_.mem_frames, "mem_frames");

    next_pid_ = static_cast<Pid>(ar.u64());
    next_pcid_ = static_cast<Pcid>(ar.u64());
    next_ccid_ = static_cast<Ccid>(ar.u64());
    next_object_id_ = ar.u64();

    const Ppn alloc_next = ar.u64();
    std::vector<Ppn> free_list(ar.bounded(ar.u64(), 8));
    for (Ppn &ppn : free_list)
        ppn = ar.u64();
    allocator_.restoreState(alloc_next, std::move(free_list));

    // Objects are matched by id: ids are assigned sequentially and
    // objects are never destroyed, so the rebuilt world created the
    // same set in the same order.
    std::map<std::uint64_t, MappedObject *> objects_by_id;
    for (const auto &obj : objects_)
        objects_by_id[obj->id()] = obj.get();
    ckptCheck(ar.u32() == objects_.size(), "object count");
    for (std::size_t i = 0; i < objects_.size(); ++i) {
        const std::uint64_t id = ar.u64();
        const auto it = objects_by_id.find(id);
        ckptCheck(it != objects_by_id.end(), "unknown object id");
        MappedObject &obj = *it->second;
        ckptCheck(ar.u64() == obj.bytes(), "object size");
        ckptCheck(ar.b() == obj.isFile(), "object kind");
        const bool preloaded = ar.b();
        const unsigned mappers = ar.u32();
        std::vector<Ppn> frames(ar.bounded(ar.u64(), 8));
        ckptCheck(frames.size() == obj.frames().size(),
                  "object frame count");
        for (Ppn &frame : frames)
            frame = ar.u64();
        obj.restoreState(preloaded, mappers, std::move(frames));
    }

    // Page tables are rebuilt wholesale, keyed by backing frame. Direct
    // construction, not allocateTable(): frames come from the archive
    // and the allocation stats were already counted by the saving run.
    tables_.clear();
    const std::uint32_t table_count = ar.u32();
    for (std::uint32_t t = 0; t < table_count; ++t) {
        const Ppn frame = ar.u64();
        const int level = ar.u8();
        auto table = table_pool_.make(level, frame);
        table->sharers = ar.u16();
        table->group_shared = ar.b();
        for (unsigned i = 0; i < entriesPerTable; ++i)
            table->entry(i).raw = ar.u64();
        tables_[frame] = std::move(table);
    }

    ckptCheck(ar.u32() == processes_.size(), "process count");
    for (std::size_t i = 0; i < processes_.size(); ++i) {
        const Pid pid = ar.u32();
        const auto it = processes_.find(pid);
        ckptCheck(it != processes_.end(), "unknown pid");
        Process &proc = *it->second;
        ckptCheck(ar.str() == proc.name(), "process name");
        ckptCheck(ar.u16() == proc.pcid(), "process pcid");
        ckptCheck(ar.u16() == proc.ccid(), "process ccid");
        PageTablePage *pgd = tableByFrame(ar.u64());
        ckptCheck(pgd != nullptr, "process pgd frame");
        proc.setPgd(pgd);

        proc.vmas().clear();
        const std::uint32_t vma_count = ar.u32();
        for (std::uint32_t v = 0; v < vma_count; ++v) {
            Vma vma;
            vma.start = ar.u64();
            vma.end = ar.u64();
            vma.writable = ar.b();
            vma.exec = ar.b();
            vma.shared = ar.b();
            vma.page_size = static_cast<PageSize>(ar.u8());
            const std::uint64_t object_id = ar.u64();
            if (object_id != 0) {
                const auto obj_it = objects_by_id.find(object_id);
                ckptCheck(obj_it != objects_by_id.end(),
                          "vma object id");
                vma.object = obj_it->second;
            }
            vma.object_offset = ar.u64();
            proc.vmas().push_back(vma);
        }

        std::vector<std::pair<Addr, int>> mask_bits(
            ar.bounded(ar.u32(), 12));
        for (auto &[region, bit] : mask_bits) {
            region = ar.u64();
            bit = static_cast<int>(ar.u32());
        }
        proc.setMaskBits(std::move(mask_bits));

        for (unsigned s = 0; s < numSegments; ++s)
            proc.aslr_offsets.offset[s] = ar.i64();
        // The transform stores diff = group - process; feeding the
        // saved diff as "group" against zero "process" offsets rebuilds
        // the identical module state.
        AslrOffsets diff;
        for (unsigned s = 0; s < numSegments; ++s)
            diff.offset[s] = ar.i64();
        proc.aslr_transform = AslrTransform(diff, AslrOffsets{});
    }

    ckptCheck(ar.u32() == groups_.size(), "group count");
    for (std::size_t i = 0; i < groups_.size(); ++i) {
        const Ccid ccid = ar.u16();
        const auto it = groups_.find(ccid);
        ckptCheck(it != groups_.end(), "unknown ccid");
        Group &group = it->second;
        ckptCheck(ar.str() == group.name, "group name");
        for (unsigned s = 0; s < numSegments; ++s)
            group.offsets.offset[s] = ar.i64();
        group.aslr_seed = ar.u64();

        ckptCheck(ar.u32() == group.members.size(), "group member count");
        for (const Pid member : group.members)
            ckptCheck(ar.u32() == member, "group member pid");
        group.mask_generation = ar.u64();

        group.masks.clear();
        const std::uint32_t mask_count = ar.u32();
        for (std::uint32_t m = 0; m < mask_count; ++m) {
            const Addr region_base = ar.u64();
            const Ppn frame = ar.u64();
            auto mask = mask_pool_.make(frame, region_base);
            std::array<std::uint32_t, entriesPerTable> bitmasks;
            for (auto &bits : bitmasks)
                bits = ar.u32();
            std::vector<Pid> pid_list(ar.bounded(ar.u32(), 4));
            for (Pid &writer : pid_list)
                writer = ar.u32();
            mask->restoreState(bitmasks, std::move(pid_list));
            group.masks[region_base] = std::move(mask);
        }

        group.mask_fallback.clear();
        const std::uint32_t fallback_count = ar.u32();
        for (std::uint32_t f = 0; f < fallback_count; ++f) {
            const Addr region_base = ar.u64();
            group.mask_fallback[region_base] = ar.b();
        }

        group.shared_tables.clear();
        const std::uint32_t shared_count = ar.u32();
        for (std::uint32_t s = 0; s < shared_count; ++s) {
            SharedTableKey key;
            key.region_base = ar.u64();
            key.level = ar.u8();
            SharedTableRecord rec;
            rec.table = tableByFrame(ar.u64());
            ckptCheck(rec.table != nullptr, "shared table frame");
            rec.signature = ar.u64();
            rec.fork_only = ar.b();
            group.shared_tables[key] = rec;
        }
    }
}

} // namespace bf::vm
