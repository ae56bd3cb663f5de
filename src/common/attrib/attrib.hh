/**
 * @file
 * Per-container (tenant) attribution of translation and memory events
 * (DESIGN.md §17).
 *
 * BabelFish's whole argument is about what containers *share* — fused
 * PTEs, shared TLB entries, group shootdowns — so the machine-global
 * counters alone cannot say which tenant paid for a walk or whose
 * entries evicted whose. The Registry keeps one stats subtree per
 * container (`system.attrib.t<slot>`) mirroring the access-level
 * counters plus the interference edges the global tree cannot express:
 * per-tenant "evicted-by" matrices (TLB victim attribution via the
 * owner tag already present in entries), shootdowns caused vs.
 * received split by same/cross CCID group, and weave-phase DRAM-excess
 * billing.
 *
 * Determinism contract: bound-phase threads never touch the shared
 * Registry. Each core books into its private CoreSink (flat integer
 * lanes, written only by the thread running that core, exactly like
 * the per-core stats); the single-threaded end-of-chunk drain folds
 * the sinks into the tenant subtree in fixed core order. Every lane is
 * an integer add or a bucket-wise Distribution merge, both
 * order-independent, so the drained values — like every other stat —
 * are byte-identical at any BF_WORKERS.
 *
 * The mirrored access counters are not booked per event. A core serves
 * exactly one process between scheduler switch points, so the core
 * snapshots its global counters (the MMU's TranslateStats, the
 * walker's walks, its own instructions) and credits the *delta* to the
 * tenant's sink lanes only at slot switches and chunk barriers
 * (Core::flushAttribWindow) — per-event cost is one predicted compare,
 * and the reconciliation invariant (sum over tenants == global
 * counter, bit for bit) holds by construction: the windows partition
 * the global counters' growth. Only the event kinds with no global
 * mirror book at their sites: TLB eviction edges (need the displaced
 * entry's owner tag) and the kernel/weave interference scalars.
 *
 * Tenant slots are dense registration-order indices. Processes are
 * created only in single-threaded windows (workload setup, fault
 * service), registration is deterministic, and slots are never reused
 * — a tenant's subtree outlives its process exit, so the stats-tree
 * topology at any point depends only on the (deterministic) creation
 * history and checkpoint restore rebuilds it identically.
 */

#ifndef BF_COMMON_ATTRIB_HH
#define BF_COMMON_ATTRIB_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace bf::attrib
{

/**
 * Per-tenant counter indices. The first block mirrors
 * translate::TranslateStats member-for-member (same booking sites);
 * kWalks and kInstructions extend it with the walker and core counters
 * the reconciliation test sums against.
 */
enum Counter : unsigned
{
    kL1Hits,
    kL1Misses,
    kL2DataHits,
    kL2DataMisses,
    kL2InstrHits,
    kL2InstrMisses,
    kL2DataSharedHits,
    kL2InstrSharedHits,
    kL2Long,
    kMinorFaults,
    kMajorFaults,
    kCowFaults,
    kSharedInstalls,
    kFaultCycles,
    kWalks,
    kInstructions,
    kNumCounters
};

/** Stats-tree name of a counter (matches the global counterpart). */
const char *counterName(Counter c);

/**
 * Eviction-matrix column cap. Tenants with slot >= this fold into the
 * per-row "other" column, bounding the matrix at
 * O(tenants × kMaxEdgeSlots) scalars so fleet-churn scenarios with
 * thousands of short-lived containers don't explode the stats tree.
 * Totals stay exact; only the column resolution degrades.
 */
inline constexpr int kMaxEdgeSlots = 64;

/**
 * One core's private attribution scratch. Written only by the host
 * thread executing that core's bound phase (plus the single-threaded
 * fault-service window), read and zeroed only by Registry::drain().
 * All lanes are flat integer arrays indexed by tenant slot, grown in
 * single-threaded windows when tenants register.
 */
class CoreSink
{
  public:
    /** Eviction-matrix column stride: aggressor columns + "other". */
    static constexpr std::size_t kEdgeCols = kMaxEdgeSlots + 1;

    /** Book @p v into counter @p c of tenant @p slot (-1 ignored). */
    void
    add(int slot, Counter c, std::uint64_t v = 1)
    {
        if (slot < 0)
            return;
        counts_[static_cast<std::size_t>(slot) * kNumCounters + c] += v;
        dirty_[static_cast<std::size_t>(slot)] = 1;
    }

    /**
     * Fold a miss-latency window — the samples the core's global
     * distribution @p cur received since snapshot @p base — into tenant
     * @p slot (see stats::Distribution::mergeDiff). The core calls this
     * at slot switches and chunk barriers instead of double-sampling
     * every miss.
     */
    void
    mergeMissLatencyWindow(int slot, const stats::Distribution &cur,
                           const stats::Distribution &base)
    {
        if (slot < 0 || cur.count() == base.count())
            return;
        lat_[static_cast<std::size_t>(slot)].mergeDiff(cur, base);
        dirty_[static_cast<std::size_t>(slot)] = 1;
    }

    /** @{
     * @name Eviction edges
     * @p aggressor's fill displaced a valid entry owned by @p victim.
     * Either side may be -1 (untracked process): the edge is dropped —
     * eviction matrices have no global counterpart to reconcile.
     */
    void
    noteL1Eviction(int aggressor, int victim)
    {
        if (aggressor < 0 || victim < 0)
            return;
        l1_ev_[static_cast<std::size_t>(victim) * kEdgeCols +
               edgeCol(aggressor)] += 1;
        dirty_[static_cast<std::size_t>(victim)] = 1;
    }

    void
    noteL2Eviction(int aggressor, int victim)
    {
        if (aggressor < 0 || victim < 0)
            return;
        l2_ev_[static_cast<std::size_t>(victim) * kEdgeCols +
               edgeCol(aggressor)] += 1;
        dirty_[static_cast<std::size_t>(victim)] = 1;
    }
    /** @} */

    /** Grow all lanes to @p slots tenants (single-threaded windows). */
    void grow(std::size_t slots);

    std::size_t slots() const { return slots_; }

  private:
    friend class Registry;

    /** Column of an aggressor slot (capped tenants fold into last). */
    static std::size_t
    edgeCol(int aggressor)
    {
        return aggressor < kMaxEdgeSlots
                   ? static_cast<std::size_t>(aggressor)
                   : static_cast<std::size_t>(kMaxEdgeSlots);
    }

    std::vector<std::uint64_t> counts_; //!< [slot * kNumCounters + c].
    std::vector<stats::Distribution> lat_; //!< Miss latency per slot.
    std::vector<std::uint8_t> dirty_;   //!< Per-slot any-activity flag.
    std::vector<std::uint64_t> l1_ev_;  //!< [victim * kEdgeCols + col].
    std::vector<std::uint64_t> l2_ev_;
    std::size_t slots_ = 0;
};

/**
 * One container's attribution subtree: `attrib.t<slot>` with the
 * mirrored access counters, interference scalars and the evicted-by
 * row (columns `l1_t<j>` / `l2_t<j>` for every tenant j below
 * kMaxEdgeSlots, plus `l1_other` / `l2_other`).
 */
struct Tenant
{
    Tenant(stats::StatGroup *parent, int slot, Pid pid, Ccid ccid,
           Pcid pcid, const std::string &name);

    Tenant(const Tenant &) = delete;
    Tenant &operator=(const Tenant &) = delete;

    int slot;
    Pid pid;
    Ccid ccid;
    Pcid pcid;
    std::string name;

    stats::StatGroup group;      //!< "t<slot>".
    stats::StatGroup evicted_by; //!< Child group holding the matrix row.

    stats::Scalar pid_stat;  //!< Identity, exported as attrib.t<N>.pid.
    stats::Scalar ccid_stat; //!< Identity, exported as attrib.t<N>.ccid.

    stats::Scalar counters[kNumCounters];
    stats::Distribution miss_latency;

    /** @{ @name Kernel-sourced (not reset by resetCoreStats) */
    stats::Scalar cow_privatizations;
    stats::Scalar shootdowns_caused;
    stats::Scalar shootdowns_caused_cross;
    stats::Scalar shootdowns_received;
    stats::Scalar shootdowns_received_cross;
    /** @} */

    /** @{ @name Weave DRAM-excess billing (cycles) */
    stats::Scalar dram_data_extra;
    stats::Scalar dram_walk_extra;
    /** @} */

    /**
     * Evicted-by columns, index = aggressor slot (< kMaxEdgeSlots).
     * Deques so addresses registered with the StatGroup stay stable
     * while later tenant registrations append columns.
     */
    std::deque<stats::Scalar> l1_evicted_by;
    std::deque<stats::Scalar> l2_evicted_by;
    stats::Scalar l1_evicted_by_other;
    stats::Scalar l2_evicted_by_other;
};

/**
 * The per-machine tenant registry: owns the `attrib` stats subtree,
 * the per-core sinks, and the pid/pcid → slot maps the hot paths and
 * the TLB victim attribution use.
 */
class Registry
{
  public:
    /**
     * @param parent the System's root stat group (subtree registers as
     *        child "attrib").
     * @param num_cores sinks to create (one per core).
     */
    Registry(stats::StatGroup *parent, unsigned num_cores);

    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /**
     * Register a container; returns its dense slot. Call only from
     * single-threaded windows (process creation already is).
     */
    int registerTenant(Pid pid, Ccid ccid, Pcid pcid,
                       const std::string &name);

    /** Slot of a pid, -1 if unregistered. */
    int
    slotOfPid(Pid pid) const
    {
        const std::size_t i = pid - firstPid;
        return pid >= firstPid && i < slot_by_pid_.size()
                   ? slot_by_pid_[i]
                   : -1;
    }

    /**
     * Slot of the *latest* owner of a PCID (the 12-bit hardware space
     * wraps; TLB victim attribution uses this, and a stale entry of a
     * prior owner bills its eviction to the current one — bounded,
     * documented imprecision only after 4096 process creations).
     */
    int slotOfPcid(Pcid pcid) const { return slot_by_pcid_[pcid & 0xfff]; }

    CoreSink *sink(unsigned core) { return &sinks_[core]; }

    std::size_t numTenants() const { return tenants_.size(); }
    const Tenant &tenant(int slot) const { return tenants_[slot]; }
    /** A tenant's row; the address is stable for the registry's life. */
    Tenant &tenant(int slot) { return tenants_[slot]; }

    /**
     * Fold every core's sink into the tenant subtree and zero the
     * sinks. Single-threaded (end of chunk / before export); fixed
     * core order, and every fold is an integer add or bucket-wise
     * merge, so the result is schedule-independent.
     */
    void drain();

    /** @{ @name Single-threaded booking (kernel / weave commit) */
    void
    noteCow(int slot)
    {
        if (slot >= 0)
            ++tenants_[slot].cow_privatizations;
    }

    void
    noteShootdownCaused(int slot, bool cross)
    {
        if (slot < 0)
            return;
        ++tenants_[slot].shootdowns_caused;
        if (cross)
            ++tenants_[slot].shootdowns_caused_cross;
    }

    void
    noteShootdownReceived(int slot, bool cross)
    {
        if (slot >= 0)
            noteShootdownReceived(tenants_[slot], cross);
    }

    static void
    noteShootdownReceived(Tenant &row, bool cross)
    {
        ++row.shootdowns_received;
        if (cross)
            ++row.shootdowns_received_cross;
    }

    void
    addDramExtra(int slot, bool walker, std::uint64_t extra)
    {
        if (slot < 0)
            return;
        (walker ? tenants_[slot].dram_walk_extra
                : tenants_[slot].dram_data_extra) += extra;
    }
    /** @} */

    /**
     * Reset the core-sourced tenant stats (access counters, latency,
     * eviction rows, DRAM extras) — the attribution mirror of
     * System::resetStats. Kernel-sourced scalars (CoW privatizations,
     * shootdowns) survive, exactly like the kernel's own stats, so the
     * reconciliation invariant holds on both sides of a reset.
     */
    void resetCoreStats();

    /**
     * Total L2 evictions whose aggressor and victim are in different
     * CCID groups — the headline cross-tenant interference signal the
     * sampler time series tracks.
     */
    std::uint64_t crossL2Evictions() const;

    /** JSON array of per-tenant summary rows (bench report `tenants`). */
    std::string tenantsJson() const;

    /**
     * Render the per-tenant table bf_top shows (fixed-width text).
     * @param sim_mips headline simulation speed line, <= 0 omits it.
     */
    std::string renderTable(double sim_mips = -1.0) const;

    stats::StatGroup &group() { return group_; }

    /** Lowest pid the kernel hands out (slot map base). */
    static constexpr Pid firstPid = 100;

  private:
    stats::StatGroup group_;
    std::deque<Tenant> tenants_; //!< Stable addresses; slot-indexed.
    std::vector<int> slot_by_pid_;    //!< [pid - firstPid] → slot.
    std::vector<int> slot_by_pcid_;   //!< [pcid & 0xfff] → latest slot.
    std::deque<CoreSink> sinks_;      //!< One per core.
};

} // namespace bf::attrib

#endif // BF_COMMON_ATTRIB_HH
