/**
 * @file
 * A set-associative TLB for one page size, supporting both the
 * conventional lookup (VPN + PCID, paper Fig. 1) and the BabelFish lookup
 * of paper Fig. 8 (VPN + CCID with the O-PC checks).
 */

#ifndef BF_TLB_TLB_HH
#define BF_TLB_TLB_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "tlb/presence.hh"
#include "tlb/tlb_entry.hh"

namespace bf::tlb
{

/** Geometry of one TLB structure. */
struct TlbParams
{
    /**
     * Replacement policy within a set. Lru is the recorded-hardware
     * default; Fifo never promotes on hit (fill-order eviction); Random
     * picks a victim from a deterministic per-structure xorshift stream
     * so runs stay reproducible.
     */
    enum class Policy : std::uint8_t { Lru = 0, Fifo = 1, Random = 2 };

    std::string name = "tlb";
    unsigned entries = 64;
    unsigned assoc = 4;      //!< 0 or >= entries => fully associative.
    PageSize page_size = PageSize::Size4K;
    Cycles access_cycles = 1;
    /**
     * Extra cycles when the PC bitmask must be consulted on a lookup
     * (the 12- vs 10-cycle L2 TLB access times of Table I).
     */
    Cycles bitmask_extra_cycles = 2;
    Policy policy = Policy::Lru;
};

/** Stable lower-case policy name ("lru", "fifo", "random"). */
const char *policyName(TlbParams::Policy policy);

/** Result of a TLB lookup. */
struct TlbLookup
{
    const TlbEntry *entry = nullptr; //!< nullptr on miss.
    bool hit() const { return entry != nullptr; }
    /** The PC bitmask was consulted (charges the long access time). */
    bool bitmask_checked = false;
    /**
     * Hit on an entry filled by a different process — the paper's
     * "Shared Hit" metric (Fig. 10b).
     */
    bool shared_hit = false;
};

/** One set-associative TLB structure. */
class Tlb
{
  public:
    /**
     * @param params geometry.
     * @param parent stat group to register under, may be null.
     */
    explicit Tlb(const TlbParams &params,
                 stats::StatGroup *parent = nullptr);

    /**
     * Conventional lookup: VPN and PCID must match (paper §II-B).
     * Updates LRU and hit/miss statistics.
     */
    TlbLookup lookupConventional(Vpn vpn, Pcid pcid);

    /**
     * BabelFish lookup (paper Fig. 8). All ways with a matching VPN and
     * CCID are candidates:
     *  - Ownership set: usable only on a PCID match.
     *  - Ownership clear: usable unless ORPC is set and the requesting
     *    process' bit in the PC bitmask is set (it privatized the page's
     *    region and must use its own owned entry instead).
     *
     * @param process_bit the bit index the process owns in the region's
     *        PC bitmask, or -1 when it never privatized there.
     */
    TlbLookup lookupBabelFish(Vpn vpn, Ccid ccid, Pcid pcid,
                              int process_bit);

    /**
     * Insert a translation, evicting LRU within the set.
     *
     * @param shared_dedup BabelFish semantics for shared (Ownership-
     *        clear) entries: one entry per {VPN, CCID} regardless of the
     *        filling PCID, so refills by different group members coalesce
     *        instead of replicating. Conventional fills keep per-PCID
     *        entries.
     * @param evicted when non-null, receives the valid entry this fill
     *        displaced (entry-capacity backends spill it elsewhere);
     *        left untouched when the fill replaced an invalid way or
     *        refreshed the same identity.
     * @return true when a valid, different-identity entry was evicted
     *        (i.e. @p evicted was written).
     */
    bool fill(const TlbEntry &entry, bool shared_dedup = false,
              TlbEntry *evicted = nullptr);

    /** @{ @name Invalidation */
    /** Drop the (pcid, vpn) entry if present. */
    void invalidatePage(Pcid pcid, Vpn vpn);
    /** Drop shared (Ownership-clear) entries of a CCID in a VPN range. */
    void invalidateSharedRange(Ccid ccid, Vpn first, std::uint64_t count);
    /** Drop every entry of a PCID. */
    void invalidatePcid(Pcid pcid);
    /** Drop everything. */
    void invalidateAll();
    /** @} */

    /**
     * Return the structure to its post-construction state: all entries
     * invalid, LRU clock and replacement RNG reseeded. Unlike
     * invalidateAll() this does not count invalidations — it is for
     * standalone reuse (the replay engine), not a modeled shootdown.
     * Statistics are left untouched; pair with resetStats() if needed.
     */
    void reset();

    /** Probe without stats/LRU side effects (tests). */
    const TlbEntry *probe(Vpn vpn, Pcid pcid) const;

    /**
     * @{
     * @name L0 inline-cache stat replay (see core::Mmu)
     * The Mmu's L0 front cache short-circuits a lookup it has proven
     * (by re-validating the live entry) would hit this structure. These
     * replay exactly the side effects the bypassed scan would have had:
     * the LRU touch under the Lru policy, and the hit/miss counters.
     */
    void
    recordL0Hit(TlbEntry *entry, bool shared)
    {
        if (params_.policy == TlbParams::Policy::Lru)
            entry->lru = ++lru_clock_;
        ++hits;
        if (shared)
            ++shared_hits;
    }

    void recordL0Miss() { ++misses; }
    /** @} */

    /**
     * Number of valid entries. O(1): a counter maintained by fill and
     * the invalidate paths; debug builds cross-check it against a full
     * scan.
     */
    unsigned validCount() const;

    /**
     * Report this structure's valid and shared entries into a backend's
     * presence summary from now on (null detaches). The current
     * contents are added on attach and withdrawn on detach.
     */
    void attachPresence(Presence *presence);

    const TlbParams &params() const { return params_; }

    /**
     * @{
     * @name Checkpointing
     * Full content dump: every way of every set with all tags, O-PC
     * state and LRU stamps, plus the LRU clock. restore() verifies the
     * geometry fingerprint first and throws snap::SnapshotError on
     * mismatch. Stats ride the stats tree, not this path.
     */
    void save(snap::ArchiveWriter &ar) const;
    void restore(snap::ArchiveReader &ar);
    /** @} */

    /** @{ @name Statistics */
    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar shared_hits;      //!< Hits on entries filled by others.
    stats::Scalar bitmask_checks;   //!< Lookups paying the long access.
    stats::Scalar fills;
    stats::Scalar invalidations;
    /** @} */

    void resetStats();

  private:
    TlbParams params_;
    unsigned num_sets_;
    std::uint64_t set_mask_ = 0;    //!< num_sets_ - 1 when pow2.
    bool sets_pow2_ = false;
    unsigned valid_count_ = 0;
    std::vector<TlbEntry> entries_; //!< set-major.

    /**
     * @{
     * @name SoA shadow keys
     * One packed word per way, kept in sync with entries_ by every
     * mutating path. Lookup and invalidation scans — above all the
     * full-structure range shootdowns, which dominate host time —
     * touch these dense arrays instead of striding 64-byte TlbEntry
     * structs. entries_ stays authoritative (probe, save, payload).
     */
    /** key_[i] = vpn << 2 | owned << 1 | valid (0 when invalid). */
    std::vector<std::uint64_t> key_;
    /** id_[i] = pcid << 16 | ccid. */
    std::vector<std::uint32_t> id_;
    /** @} */

    /**
     * Occupancy filter for range shootdowns: per CCID hash bucket, the
     * number of valid shared (Ownership-clear) entries plus a
     * conservative VPN interval around them. Broadcast shootdowns for
     * a CCID this structure holds nothing for — the overwhelmingly
     * common case on remote cores — exit in O(1). The interval only
     * widens on fill and snaps back when the bucket empties, so the
     * test can only ever be conservative.
     */
    struct CcidBucket
    {
        std::uint32_t count = 0;
        Vpn vpn_min = ~0ull;
        Vpn vpn_max = 0;
    };
    std::array<CcidBucket, Presence::kCcidBuckets> shared_buckets_{};

    std::uint64_t lru_clock_ = 0;
    std::uint64_t rng_state_ = 0;   //!< Random-policy xorshift state.
    Presence *presence_ = nullptr;  //!< Owning backend's summary.

    stats::StatGroup stat_group_;

    static std::uint64_t
    packKey(Vpn vpn, bool owned)
    {
        return (vpn << 2) | (owned ? 2u : 0u) | 1u;
    }

    CcidBucket &
    bucket(Ccid ccid)
    {
        return shared_buckets_[Presence::bucket(ccid)];
    }

    void
    liveAdd()
    {
        ++valid_count_;
        if (presence_)
            ++presence_->tlb_live;
    }

    void
    liveRemove()
    {
        --valid_count_;
        if (presence_)
            --presence_->tlb_live;
    }

    void
    bucketAdd(Ccid ccid, Vpn vpn)
    {
        if (presence_)
            ++presence_->shared[Presence::bucket(ccid)];
        CcidBucket &b = bucket(ccid);
        ++b.count;
        if (vpn < b.vpn_min)
            b.vpn_min = vpn;
        if (vpn > b.vpn_max)
            b.vpn_max = vpn;
    }

    void
    bucketRemove(Ccid ccid)
    {
        if (presence_)
            --presence_->shared[Presence::bucket(ccid)];
        CcidBucket &b = bucket(ccid);
        --b.count;
        if (b.count == 0) {
            b.vpn_min = ~0ull;
            b.vpn_max = 0;
        }
    }

    /** Write the shadow key/id words for entries_[i]. */
    void
    syncKeys(std::size_t i)
    {
        const TlbEntry &e = entries_[i];
        key_[i] = e.valid ? packKey(e.vpn, e.owned) : 0;
        id_[i] = (static_cast<std::uint32_t>(e.pcid) << 16) | e.ccid;
    }

    /** Rebuild every shadow key and occupancy bucket from entries_. */
    void rebuildShadow();

    /**
     * Add (or withdraw) the whole contents to (from) presence_: around
     * the bulk paths that rewrite valid_count_ and the buckets at once.
     */
    void reportContents(bool add);

    /**
     * Set selection. Unlike the caches, a TLB's set count is not
     * guaranteed to be a power of two (entries/assoc is arbitrary), so
     * the constructor precomputes whether the modulo reduces to a mask
     * and this helper — shared by the lookup, fill, invalidate and
     * probe paths — picks the divide-free form when it can.
     */
    unsigned
    setIndex(Vpn vpn) const
    {
        return sets_pow2_ ? static_cast<unsigned>(vpn & set_mask_)
                          : static_cast<unsigned>(vpn % num_sets_);
    }

    TlbEntry *setBase(Vpn vpn) { return &entries_[setIndex(vpn) *
                                                  params_.assoc]; }
    const TlbEntry *
    setBase(Vpn vpn) const
    {
        return &entries_[setIndex(vpn) * params_.assoc];
    }

    /** Full-scan recount, for the debug cross-check of valid_count_. */
    unsigned recountValid() const;

    /** Deterministic per-structure seed for the Random policy. */
    std::uint64_t policySeed() const;

    /** Advance the xorshift64 stream and return the new state. */
    std::uint64_t nextRand();
};

} // namespace bf::tlb

#endif // BF_TLB_TLB_HH
