/**
 * @file
 * The per-core Page Walk Cache (PWC).
 *
 * Caches recently used entries of the first three tables of the walk
 * (PGD, PUD, PMD — paper §II-B). Entries are tagged with the physical
 * address of the page-table entry they cache, so BabelFish's shared
 * tables naturally let one process reuse PWC state another process of the
 * same core loaded, while per-process baseline tables never alias.
 */

#ifndef BF_TLB_PAGE_WALK_CACHE_HH
#define BF_TLB_PAGE_WALK_CACHE_HH

#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "tlb/presence.hh"

namespace bf::tlb
{

/** Geometry of one PWC level (Table I: 16 entries/level, 4-way). */
struct PwcParams
{
    std::string name = "pwc";
    unsigned entries_per_level = 16;
    unsigned assoc = 4;
    Cycles access_cycles = 1;
    unsigned levels = 3; //!< PGD, PUD, PMD.
};

/** Per-core translation cache for upper page-table levels. */
class Pwc
{
  public:
    explicit Pwc(const PwcParams &params,
                 stats::StatGroup *parent = nullptr);

    /**
     * Look up the cached pte for a walk step.
     * @param level walk level (LevelPgd=4 down to LevelPmd=2).
     * @param entry_paddr physical address of the page-table entry.
     * @return true on hit.
     */
    bool lookup(int level, Addr entry_paddr);

    /** Insert after a walk step that missed. */
    void fill(int level, Addr entry_paddr);

    /** Drop a cached entry if present (kernel updated the table). */
    void invalidate(Addr entry_paddr);

    /** Drop everything. */
    void invalidateAll();

    /**
     * Return the structure to its post-construction state (all lines
     * invalid, LRU clock zeroed). For standalone reuse (the replay
     * engine); statistics are left untouched.
     */
    void
    reset()
    {
        setLive(0);
        for (Line &line : lines_)
            line = Line{};
        lru_clock_ = 0;
    }

    /**
     * Report the valid-line count into a backend's presence summary
     * from now on (null detaches; see Tlb::attachPresence).
     */
    void
    attachPresence(Presence *presence)
    {
        const std::uint32_t live = live_;
        setLive(0);
        presence_ = presence;
        setLive(live);
    }

    Cycles accessCycles() const { return params_.access_cycles; }

    const PwcParams &params() const { return params_; }

    /** @{ @name Checkpointing (geometry-verified full content dump) */
    void save(snap::ArchiveWriter &ar) const;
    void restore(snap::ArchiveReader &ar);
    /** @} */

    /** @{ @name Statistics */
    stats::Scalar hits;
    stats::Scalar misses;
    /** @} */

    void resetStats();

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        std::uint64_t lru = 0;
    };

    PwcParams params_;
    unsigned num_sets_;
    std::vector<Line> lines_; //!< level-major, then set, then way.
    std::uint64_t lru_clock_ = 0;
    std::uint32_t live_ = 0;        //!< Valid lines.
    Presence *presence_ = nullptr;  //!< Owning backend's summary.
    stats::StatGroup stat_group_;

    Line *setBase(int level, Addr entry_paddr);
    unsigned levelIndex(int level) const;

    /** Set live_, mirroring the change into presence_. */
    void
    setLive(std::uint32_t live)
    {
        if (presence_)
            presence_->pwc_live = presence_->pwc_live - live_ + live;
        live_ = live;
    }
};

} // namespace bf::tlb

#endif // BF_TLB_PAGE_WALK_CACHE_HH
