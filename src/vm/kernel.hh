/**
 * @file
 * The OS model: processes, containers (CCID groups), fork with lazy CoW,
 * file-backed mmap, page-fault handling, and the BabelFish page-table
 * fusion machinery (shared lower-level tables, MaskPages, sharer counters,
 * the >32-writer fallback).
 *
 * The kernel operates on canonical (group) virtual addresses. Under
 * ASLR-HW the hardware diff-offset module converts per-process VAs to
 * canonical ones below the L1 TLB (see vm/aslr.hh); the timing of that
 * transform is charged by the MMU.
 */

#ifndef BF_VM_KERNEL_HH
#define BF_VM_KERNEL_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "common/object_pool.hh"
#include "common/stats.hh"
#include "common/trace/trace.hh"
#include "common/types.hh"
#include "vm/aslr.hh"
#include "vm/frame_allocator.hh"
#include "vm/mask_page.hh"
#include "vm/object.hh"
#include "vm/page_table.hh"
#include "vm/paging.hh"
#include "vm/process.hh"
#include "vm/tlb_hooks.hh"

namespace bf::attrib
{
class Registry;
struct Tenant;
}

namespace bf::vm
{

/** What a page fault turned out to be. */
enum class FaultKind : std::uint8_t
{
    None,          //!< No fault was needed (raced fill).
    Minor,         //!< Page resident, pte filled.
    Major,         //!< Page "read from disk" into the page cache.
    Cow,           //!< Copy-on-write resolution.
    SharedInstall, //!< BabelFish: pointed an upper entry at a shared table.
    Protection,    //!< Access not permitted by any VMA.
};

/** Result of Kernel::handleFault. */
struct FaultOutcome
{
    FaultKind kind = FaultKind::None;
    Cycles cycles = 0; //!< Kernel time to charge the faulting core.
};

/**
 * A page fault captured during a bound phase (see core/epoch.hh) and
 * serviced later through Kernel::serviceFault, outside any parallel
 * section. Carries everything the MMU knew at the fault site so the
 * serialized service can reproduce the serial-mode handling exactly.
 */
struct DeferredFault
{
    Process *proc = nullptr;
    Addr canonical_va = 0;
    AccessType type = AccessType::Read;
    /**
     * The fault site pre-declared this a CoW fault (a write hit a
     * TLB entry with the CoW mark) — the MMU counts it as cow_faults
     * regardless of the service outcome, as the serial path does.
     */
    bool declared_cow = false;
    /** Page size of the stale TLB entry (for the raced-fill shootdown). */
    PageSize stale_size = PageSize::Size4K;
};

/** Tunables of the OS model. */
struct KernelParams
{
    bool babelfish = true;      //!< Enable page-table fusion.
    /**
     * Highest table level that may be group-shared: 1 shares tables that
     * hold 4 KB leaf entries (paper default), 2 additionally shares PMD
     * tables of read-only regions, 3 PUD tables likewise.
     */
    int max_share_level = 1;
    bool thp = true;            //!< Transparent huge pages for large anon.
    /**
     * CoW writers per PMD table set before the fallback reverts the set
     * to private translations. 32 matches the PC bitmask; 0 models the
     * paper's no-PC-bitmask design, where the first CoW write
     * immediately stops sharing for the whole set (Section VII-D).
     */
    unsigned max_cow_writers = 32;
    AslrMode aslr = AslrMode::Hw;
    std::uint64_t mem_frames = (32ull << 30) / basePageBytes;

    /** @{ @name Kernel work costs in cycles (2 GHz core) */
    Cycles minor_fault_cycles = 2200;
    Cycles major_fault_cycles = 24000;
    Cycles cow_fault_cycles = 3400;
    Cycles shared_install_cycles = 650;
    Cycles fork_base_cycles = 18000;
    Cycles fork_per_entry_cycles = 14;
    Cycles fork_per_table_cycles = 180;
    Cycles shootdown_cycles = 900;
    /** @} */
};

/**
 * The operating-system model. One instance per simulated machine; all
 * cores' MMUs walk the page tables it maintains.
 */
class Kernel
{
  public:
    /**
     * @param params OS tunables.
     * @param parent stat group to register under, may be null.
     */
    explicit Kernel(const KernelParams &params,
                    stats::StatGroup *parent = nullptr);
    ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /** @{ @name Containers and processes */

    /**
     * Create a container security-domain group (one user, one
     * application). All containers in it share a CCID.
     */
    Ccid createGroup(const std::string &name, std::uint64_t aslr_seed);

    /** Create a fresh process (e.g.\ a container runtime) in a group. */
    Process *createProcess(Ccid ccid, const std::string &name);

    /**
     * Fork a child from a parent — how containers are created. Copies the
     * VMA list and the page tables; present writable-private translations
     * become CoW in both parent and child. Under BabelFish, clean lower
     * tables are group-shared instead of copied.
     * @param[out] work_cycles kernel time the fork cost.
     */
    Process *fork(Process &parent, const std::string &name,
                  Cycles &work_cycles);

    /** Convenience overload discarding the cost. */
    Process *
    fork(Process &parent, const std::string &name)
    {
        Cycles ignored;
        return fork(parent, name, ignored);
    }

    /** Tear down a process: unmap everything, drop table sharer counts. */
    void exitProcess(Process &proc);

    Process *processByPid(Pid pid);
    const std::vector<Pid> &groupMembers(Ccid ccid) const;
    /** @} */

    /** @{ @name Memory mapping */

    /** Create a file-like object (image layer, library, data set). */
    MappedObject *createFile(const std::string &name, std::uint64_t bytes);

    /** Create an anonymous backing object (used internally and by shm). */
    MappedObject *createAnonObject(std::uint64_t bytes);

    /**
     * Map an object into a process.
     * @param canonical_va page-aligned canonical address (segments come
     *        from vm/aslr.hh's canonical map).
     * @param shared MAP_SHARED (writes hit the object) vs MAP_PRIVATE
     *        (writes CoW).
     */
    void mmapObject(Process &proc, MappedObject *object, Addr canonical_va,
                    std::uint64_t bytes, std::uint64_t object_offset,
                    bool writable, bool exec, bool shared,
                    PageSize page_size = PageSize::Size4K);

    /**
     * Map fresh anonymous memory (heap, buffers). THP-backed when the
     * region is >= 2 MB, thp is on, and @p allow_huge.
     */
    void mmapAnon(Process &proc, Addr canonical_va, std::uint64_t bytes,
                  bool writable, bool allow_huge = true);

    /**
     * Unmap the whole VMA starting at @p start. Drops the process'
     * pointers to the covered leaf tables — decrementing the sharer
     * counter of group-shared ones and freeing tables whose count
     * reaches zero (paper §IV-B: "when the last sharer of the table
     * terminates or removes its pointer to the table"). Leaf tables that
     * also map a neighbouring VMA are dropped too; the survivor refaults
     * and re-attaches on its next access.
     * @return kernel work cycles.
     */
    Cycles munmap(Process &proc, Addr start);
    /** @} */

    /** @{ @name Fault handling and walking */

    /**
     * Resolve a page fault at a canonical VA. Called by the MMU when the
     * walk finds a non-present entry or a write to a read-only/CoW page.
     */
    FaultOutcome handleFault(Process &proc, Addr canonical_va,
                             AccessType type);

    /**
     * Service a fault deferred by a bound phase. Must only be called
     * from a serialized window (no core is executing): fault handling
     * mutates page tables, MaskPages and sharer counters, and may
     * broadcast TLB shootdowns through the invalidate hook.
     */
    FaultOutcome serviceFault(const DeferredFault &fault);

    /**
     * @{
     * @name Fault-service batching
     * A chunk's deferred faults form one service batch: between
     * beginFaultBatch() and endFaultBatch() the kernel may memoize the
     * VMA and leaf-table lookups at the top of handleFault, which
     * same-region fault storms (a thread touching a fresh mapping page
     * by page) amortize to O(1). Exactly behavior-preserving: memos are
     * keyed by a mutation epoch that every structural change (table
     * alloc/free, mmap/munmap, fork/exit, shared-table attach, restore)
     * bumps, so a memo is only ever consulted when a fresh walk would
     * return the identical result. Batches do not nest: opening one
     * while another is open panics, and so does closing none. Prefer
     * the FaultBatch scope guard below.
     */
    void
    beginFaultBatch()
    {
        bf_assert(!fault_batch_active_,
                  "nested fault batches are not supported");
        fault_batch_active_ = true;
    }

    void
    endFaultBatch()
    {
        bf_assert(fault_batch_active_, "no fault batch is open");
        fault_batch_active_ = false;
    }

    bool faultBatchActive() const { return fault_batch_active_; }
    /** @} */

    /** Table object for a physical frame (used by the page walker). */
    PageTablePage *tableByFrame(Ppn frame);

    /**
     * MaskPage covering @p canonical_va for a group, or nullptr. The
     * hardware reads the PC bitmask from it on walks when ORPC is set.
     */
    MaskPage *maskFor(Ccid ccid, Addr canonical_va);

    /**
     * PC-bitmask bit index of a process for the mask region covering
     * @p canonical_va, or -1 when the process never CoW'ed there.
     * O(1) for the common process with no private copies anywhere
     * (Process::hasMaskBits), O(log regions) otherwise.
     */
    int processBit(const Process &proc, Addr canonical_va) const;

    /**
     * Address of a group's mask-generation counter, or nullptr for an
     * unknown CCID. The counter's address is stable for the life of the
     * Kernel (groups are never destroyed); MMUs watch it to know when a
     * cached processBit() answer may be stale.
     */
    const std::uint64_t *maskGenerationPtr(Ccid ccid) const;

    /** Register the TLB shootdown callback (System wires the MMUs in). */
    void setTlbInvalidateHook(TlbInvalidateFn hook) { tlb_hook_ = std::move(hook); }

    /**
     * Issue one TLB shootdown: count it, bill its causer and receivers
     * to their tenants, trace it, and hand it to the invalidate hook.
     * The kernel's own mutation paths call this; it is public so
     * benches and tests can drive the fan-out directly.
     */
    void invalidateTlbs(const TlbInvalidate &inv);

    /**
     * Attach the run's event tracer (System wires it; null detaches).
     * Kernel events record through the tracer's kernel context, which
     * the fault-service drivers stamp with the faulting core and time;
     * mutations outside a fault-service window (setup-time forks,
     * mmap/munmap) record nothing.
     */
    void setTracer(trace::Tracer *tracer) { tracer_ = tracer; }

    /**
     * Attach the per-container attribution registry (System wires it;
     * null detaches). With a registry attached, createProcess registers
     * every new process as a tenant, CoW privatizations and shootdowns
     * (caused and received, same- vs cross-group) are booked to the
     * responsible container, and the kernel entry points (fault
     * service, fork, munmap, exit) stamp the causing container for
     * shootdown attribution. All of these run in single-threaded
     * windows, so booking goes straight into the registry's scalars.
     */
    void setAttribRegistry(attrib::Registry *registry)
    {
        attrib_ = registry;
    }
    /** @} */

    /** @{ @name Introspection (Fig. 9 pagemap scans, tests) */

    /** Visit every present leaf translation of a process. */
    void forEachTranslation(
        const Process &proc,
        const std::function<void(Addr va, const Entry &leaf,
                                 PageSize size)> &fn) const;

    /** Clear all accessed bits (LRU aging between measurements). */
    void clearAccessedBits();

    /** All live processes. */
    std::vector<Process *> processes();

    /** Number of distinct page-table pages owned/shared by a process. */
    std::uint64_t countTablePages(const Process &proc) const;

    FrameAllocator &frames() { return allocator_; }
    const KernelParams &params() const { return params_; }

    /** Number of mapped objects ever created (checkpoint manifest). */
    std::size_t objectCount() const { return objects_.size(); }

    /** All group CCIDs, ascending (checkpoint manifest). */
    std::vector<Ccid>
    groupCcids() const
    {
        std::vector<Ccid> ccids;
        for (const auto &[ccid, group] : groups_)
            ccids.push_back(ccid);
        return ccids;
    }
    /** @} */

    /**
     * @{
     * @name Checkpointing (DESIGN.md §11)
     * Serialize / overwrite all mutable OS state: counters, the frame
     * allocator, object residency, every page-table page (raw entries
     * including O/ORPC/CoW bits), process VMAs + ASLR transforms, and the
     * group sharing registries (shared tables, MaskPages, fallbacks).
     * restore() expects a world rebuilt with the identical configuration;
     * identity is matched by pid / object id / ccid / table frame, and
     * any divergence throws snap::SnapshotError. Stats are restored by
     * the owner of the stats tree, not here.
     */
    void save(snap::ArchiveWriter &ar) const;
    void restore(snap::ArchiveReader &ar);
    /** @} */

    /** @{ @name Statistics */
    stats::Scalar minor_faults;
    stats::Scalar major_faults;
    stats::Scalar cow_faults;
    stats::Scalar shared_installs;     //!< Upper entries pointed at shared tables.
    stats::Scalar tables_allocated;
    stats::Scalar tables_shared;       //!< Sharer-count increments.
    stats::Scalar tables_freed;
    stats::Scalar fork_entries_copied;
    stats::Scalar cow_privatizations;  //!< 512-entry private table copies.
    stats::Scalar mask_fallbacks;      //!< >32-writer reverts.
    stats::Scalar shootdowns;
    /** @} */

  private:
    struct SharedTableKey
    {
        Addr region_base; //!< First canonical VA covered by the table.
        int level;        //!< Table level.
        auto operator<=>(const SharedTableKey &) const = default;
    };

    struct SharedTableRecord
    {
        PageTablePage *table = nullptr;
        std::uint64_t signature = 0; //!< VMA identity hash of the region.
        /**
         * The table's translations diverged from the backing objects
         * (the creator CoW'ed pages before forking). Fork children may
         * still share it — their clean view IS the parent's view — but a
         * demand fault of an unrelated group member must not attach.
         */
        bool fork_only = false;
    };

    struct Group
    {
        Ccid ccid;
        std::string name;
        AslrOffsets offsets; //!< Canonical (group) layout.
        std::uint64_t aslr_seed = 0;
        std::vector<Pid> members;
        /**
         * Tenant rows of the live members that have one, kept in step
         * with members (create, fork, exit): a SharedRange shootdown
         * bills every row here without a pid or slot lookup.
         */
        std::vector<attrib::Tenant *> receivers;
        std::map<SharedTableKey, SharedTableRecord> shared_tables;
        std::map<Addr, PoolPtr<MaskPage>> masks; //!< By region base.
        std::map<Addr, bool> mask_fallback; //!< Regions past 32 writers.
        /**
         * Bumped whenever mask/PC-bitmask bookkeeping that can change a
         * processBit() answer mutates (bit assignment, region revert,
         * process exit). MMUs cache processBit() per {pid, region} and
         * use this counter to invalidate (see Mmu::cachedProcessBit);
         * starts at 1 so a zero-initialized cache never matches.
         */
        std::uint64_t mask_generation = 1;
    };

    KernelParams params_;
    stats::StatGroup stat_group_;
    FrameAllocator allocator_;

    /**
     * @{
     * @name Object pools (common/object_pool.hh)
     * Declared before every container that stores PoolPtr handles:
     * members destroy in reverse declaration order, so the containers
     * release their objects while the pools are still alive.
     */
    ObjectPool<PageTablePage> table_pool_;
    ObjectPool<MaskPage> mask_pool_;
    ObjectPool<Process> process_pool_;
    /** @} */
    Pid next_pid_ = 100;
    Pcid next_pcid_ = 1;
    Ccid next_ccid_ = 1;
    std::uint64_t next_object_id_ = 1;

    std::map<Pid, PoolPtr<Process>> processes_;
    std::map<Ccid, Group> groups_;
    std::vector<std::unique_ptr<MappedObject>> objects_;
    std::unordered_map<Ppn, PoolPtr<PageTablePage>> tables_;
    TlbInvalidateFn tlb_hook_;
    trace::Tracer *tracer_ = nullptr;

    /**
     * @{
     * @name Shootdown attribution (common/attrib)
     * The kernel entry points stamp the container on whose behalf the
     * kernel is mutating; invalidateTlbs bills the shootdown it causes
     * to that slot. Kept as slot + ccid (not a Process*) so a stale
     * stamp can never dangle.
     */
    attrib::Registry *attrib_ = nullptr;
    int attrib_causer_slot_ = -1;
    Ccid attrib_causer_ccid_ = invalidCcid;

    void
    noteAttribCauser(const Process &proc)
    {
        attrib_causer_slot_ = proc.attribSlot();
        attrib_causer_ccid_ = proc.ccid();
    }
    /** @} */

    /**
     * @{
     * @name Fault-batch memos (beginFaultBatch)
     * Consulted only while a batch is active and only when their epoch
     * matches mutation_epoch_, which every structural mutation bumps —
     * so a matching memo is provably what the fresh lookup would
     * return. Both start with epoch 0 (never matches: the counter
     * starts at 1) and survive across batches, staying valid exactly
     * as long as nothing mutated.
     */
    bool fault_batch_active_ = false;
    std::uint64_t mutation_epoch_ = 1;
    struct
    {
        Pid pid = 0;
        Vma *vma = nullptr;
        std::uint64_t epoch = 0;
    } vma_memo_;
    struct
    {
        Pid pid = 0;
        Addr region_base = 0;
        int level = -1;
        PageTablePage *table = nullptr;
        std::uint64_t epoch = 0;
    } table_memo_;
    /** Structural mutation: any cached fault-path lookup may be stale. */
    void noteMutation() { ++mutation_epoch_; }
    /** @} */

    /** Allocate a fresh table page at a level. */
    PageTablePage *allocateTable(int level);
    /** Free a table page. */
    void freeTable(PageTablePage *table);

    /**
     * Get or create the chain of tables so that the entry for @p va at
     * level @p leaf_level exists in a table owned (not shared) by proc.
     * Never creates the leaf entry itself.
     */
    PageTablePage *ensurePrivateChain(Process &proc, Addr va,
                                      int leaf_table_level);

    /** Table at @p level reached by walking proc's tables, or nullptr. */
    PageTablePage *tableAt(const Process &proc, Addr va, int level) const;

    /** Identity hash of the VMAs overlapping [base, base+span). */
    std::uint64_t regionSignature(const Process &proc, Addr base,
                                  std::uint64_t span) const;

    /** Whether any translation in the table diverged from its object. */
    bool tableDiverged(const Process &proc, const PageTablePage &table,
                       Addr region_base) const;

    /** Fill one leaf entry from the VMA's backing object. */
    FaultOutcome fillLeaf(Process &proc, Vma &vma, Addr va,
                          PageTablePage &leaf_table, AccessType type);

    /** Resolve a write to a CoW translation. */
    FaultOutcome resolveCow(Process &proc, Vma &vma, Addr va,
                            PageTablePage &leaf_table, Entry &leaf);

    /**
     * BabelFish: privatize the 512-entry leaf table covering @p va for
     * proc (copy entries, set O bits, update mask bookkeeping).
     * @return the private table, or nullptr when the MaskPage overflowed
     * and the whole region reverted (mask_fallbacks path).
     */
    PageTablePage *privatizeLeafTable(Process &proc, Addr va,
                                      PageTablePage &shared_table);

    /** >32 writers: revert every sharer of the mask region to private. */
    void revertMaskRegion(Group &group, Addr mask_region_base);

    /**
     * Drop one pointer to a table: decrement its sharer counter if it
     * is group-shared, and when the last pointer disappears, cascade
     * through its children and free the subtree.
     */
    void releaseTablePointer(Group &group, PageTablePage *table);

    /** Whether every VMA overlapping [base, base+span) is read-only. */
    bool regionReadOnly(const Process &proc, Addr base,
                        std::uint64_t span) const;

    /** Whether all present entries point at group-shared tables. */
    bool pointerTableShareable(const PageTablePage &table);

    /** Update O/ORPC bits in every group member's upper entry for va. */
    void propagateOrpc(Group &group, Addr va, int leaf_table_level);

    /** The leaf-table level for va in proc (2 for huge VMAs, else 1). */
    int leafTableLevel(const Process &proc, Addr va) const;

    Group &groupOf(const Process &proc);
    const Group &groupOf(const Process &proc) const;
};

/**
 * Scope of one fault-service batch (Kernel::beginFaultBatch): opens it
 * on construction and closes it on destruction, on every exit path.
 * Opening a second guard while one is alive panics.
 */
class FaultBatch
{
  public:
    explicit FaultBatch(Kernel &kernel) : kernel_(kernel)
    {
        kernel_.beginFaultBatch();
    }
    ~FaultBatch() { kernel_.endFaultBatch(); }

    FaultBatch(const FaultBatch &) = delete;
    FaultBatch &operator=(const FaultBatch &) = delete;

  private:
    Kernel &kernel_;
};

} // namespace bf::vm

#endif // BF_VM_KERNEL_HH
