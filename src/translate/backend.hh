/**
 * @file
 * The translation-backend interface (DESIGN.md §16).
 *
 * A Backend owns everything between a core's "translate this VA" request
 * and the returned physical address: the TLB structures, the page-walk
 * machinery and whatever extra reach mechanism the design adds. The
 * surrounding world — core::Mmu (the facade), System, the kernel's
 * shootdown hook, checkpointing and the golden-stats gate — talks only
 * through this interface, so competing designs from the literature drop
 * in behind one knob (BF_BACKEND / MmuParams::backend).
 *
 * Contract highlights:
 *  - translate() performs the full lookup→fill→walk→fault sequence and
 *    books its access-level statistics into the TranslateStats the
 *    facade registered (the stats-tree shape is part of the contract:
 *    the reference backend's tree is byte-identical to the
 *    pre-interface Mmu, which the golden gate enforces).
 *  - applyInvalidate() must reach *every* translation-caching structure
 *    the backend owns — including competitor-specific ones like the
 *    Victima backing store or coalesced range entries — so kernel
 *    shootdowns keep all backends architecturally coherent.
 *  - save()/restore() round-trip all backend state byte-identically.
 *  - Bound-phase discipline: while the attached EpochLog is active,
 *    faults are deferred into it (never call the kernel) and any
 *    cache-hierarchy traffic must go through CacheHierarchy::access,
 *    which defers shared-level state to the weave. This is what keeps
 *    every backend byte-identical at any BF_WORKERS.
 */

#ifndef BF_TRANSLATE_BACKEND_HH
#define BF_TRANSLATE_BACKEND_HH

#include <memory>

#include "common/stats.hh"
#include "common/types.hh"
#include "core/epoch.hh"
#include "tlb/presence.hh"
#include "translate/kind.hh"
#include "vm/kernel.hh"
#include "vm/tlb_hooks.hh"

namespace bf::attrib
{
class CoreSink;
class Registry;
}

namespace bf::core
{
struct MmuParams;
}

namespace bf::mem
{
class CacheHierarchy;
}

namespace bf::tlb
{
class Tlb;
class Pwc;
class PageWalker;
}

namespace bf::trace
{
class Tracer;
}

namespace bf::translate
{

/** Result of one address translation. */
struct Translation
{
    Cycles cycles = 0;     //!< Total translation latency incl. faults.
    Addr paddr = 0;        //!< Physical address of the access.
    PageSize size = PageSize::Size4K;
    bool faulted = false;  //!< Any page fault was taken.
    /**
     * Bound phase only: the translation hit a page fault, which was
     * deferred to the core's epoch log instead of being handled. cycles
     * holds the probe time spent up to the fault; paddr is invalid. The
     * core suspends and re-issues after the fault is serviced.
     */
    bool blocked = false;
};

/**
 * The access-level counters every backend books (the facade owns and
 * registers them, so their stats-tree names and order are identical
 * across backends — and identical to the pre-interface Mmu).
 */
struct TranslateStats
{
    stats::Scalar l1_hits;
    stats::Scalar l1_misses;
    stats::Scalar l2_data_hits;
    stats::Scalar l2_data_misses;
    stats::Scalar l2_instr_hits;
    stats::Scalar l2_instr_misses;
    stats::Scalar l2_data_shared_hits;
    stats::Scalar l2_instr_shared_hits;
    stats::Scalar l2_long_accesses;   //!< 12-cycle PC-bitmask lookups.
    stats::Scalar minor_faults;
    stats::Scalar major_faults;
    stats::Scalar cow_faults;
    stats::Scalar shared_installs;
    stats::Scalar fault_cycles;
    /** Full translate() latency of accesses that missed both TLB levels. */
    stats::Distribution miss_latency;
};

/** One core's translation backend. */
class Backend
{
  public:
    virtual ~Backend() = default;

    virtual BackendKind kind() const = 0;

    /**
     * Translate a canonical VA for a process, handling faults.
     * @param now the core's current cycle.
     */
    virtual Translation translate(vm::Process &proc, Addr canonical_va,
                                  AccessType type, Cycles now) = 0;

    /**
     * Apply a kernel shootdown. Must reach every structure that caches
     * translations, including backend-specific ones.
     */
    virtual void applyInvalidate(const vm::TlbInvalidate &inv) = 0;

    /**
     * Whether applyInvalidate(@p inv) could change anything: false is
     * a proof that it would drop no entry and touch no counter, so the
     * shootdown fan-out may skip this core. Non-virtual and O(1): it
     * reads the presence summary the structures keep current.
     */
    bool mayHold(const vm::TlbInvalidate &inv) const
    {
        return presence_.mayHold(inv);
    }

    /** The presence summary behind mayHold() (tests, fan-out). */
    const tlb::Presence &presence() const { return presence_; }

    /**
     * Attach the core's bound-phase event log (null detaches). While
     * the log is active, translate() defers page faults into it and
     * returns Translation::blocked instead of calling the kernel.
     */
    virtual void setEpochLog(core::EpochLog *log) = 0;

    /** Attach the run's event tracer (null detaches). */
    virtual void setTracer(trace::Tracer *tracer) = 0;

    /**
     * Attach the per-container attribution registry and this core's
     * private sink (System wires them; nulls detach). A backend with a
     * sink books per-tenant counters at the same sites as the
     * TranslateStats it already books — the sum over tenants must
     * equal the global counters bit-for-bit — and attributes TLB
     * evictions via the owner tags of displaced entries. Part of the
     * shared Backend surface so the zoo stays comparable per-tenant;
     * the default keeps attribution off for backends that opt out.
     */
    virtual void setAttrib(attrib::Registry *registry,
                           attrib::CoreSink *sink)
    {
        (void)registry;
        (void)sink;
    }

    /** Drop all cached translation state (tests / phase changes). */
    virtual void flushAll() = 0;

    /** Reset statistics of the owned structures (not TranslateStats). */
    virtual void resetStats() = 0;

    /**
     * @{
     * @name Checkpointing
     * Full backend state: the TLB structures, the PWC, and any
     * competitor-specific structures, in a fixed order.
     */
    virtual void save(snap::ArchiveWriter &ar) const = 0;
    virtual void restore(snap::ArchiveReader &ar) = 0;
    /** @} */

    /**
     * @{
     * @name Structure access
     * Every backend in the zoo is built around the common TLB/PWC/
     * walker pipeline (the competitors extend it); tests, the sampler
     * and the benches reach the shared structures through these.
     */
    virtual tlb::Tlb &l1i() = 0;
    virtual tlb::Tlb &l1d(PageSize size) = 0;
    virtual tlb::Tlb &l2(PageSize size) = 0;
    virtual tlb::Pwc &pwc() = 0;
    virtual tlb::PageWalker &walker() = 0;
    /** @} */

  protected:
    /**
     * Kept by the backend's structures: its TLBs and PWC report every
     * fill and drop (Tlb/Pwc::attachPresence), and a backend with extra
     * structures publishes their live count in presence_.extra after
     * every change to them.
     */
    tlb::Presence presence_;
};

/**
 * Build the backend selected by @p params.backend (see MmuParams).
 *
 * @param core_id owning core.
 * @param params TLB geometry and BabelFish/ASLR/backend configuration.
 * @param hierarchy cache hierarchy for walks (and, for Victima, the
 *        spilled-entry traffic).
 * @param kernel page-table owner / fault handler.
 * @param stats the facade's registered access-level counters.
 * @param group the facade's "mmu" stat group; the backend registers
 *        its structure subgroups under it.
 */
std::unique_ptr<Backend> createBackend(unsigned core_id,
                                       const core::MmuParams &params,
                                       mem::CacheHierarchy &hierarchy,
                                       vm::Kernel &kernel,
                                       TranslateStats &stats,
                                       stats::StatGroup &group);

} // namespace bf::translate

#endif // BF_TRANSLATE_BACKEND_HH
