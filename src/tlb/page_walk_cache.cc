#include "tlb/page_walk_cache.hh"

#include "common/logging.hh"
#include "common/snapshot.hh"
#include "vm/paging.hh"

namespace bf::tlb
{

Pwc::Pwc(const PwcParams &params, stats::StatGroup *parent)
    : params_(params), stat_group_(params.name, parent)
{
    bf_assert(params_.entries_per_level % params_.assoc == 0,
              "PWC entries not divisible by assoc");
    num_sets_ = params_.entries_per_level / params_.assoc;
    lines_.resize(params_.levels * params_.entries_per_level);

    stat_group_.addStat("hits", &hits);
    stat_group_.addStat("misses", &misses);
}

unsigned
Pwc::levelIndex(int level) const
{
    // Levels 4..2 map to slices 0..2.
    bf_assert(level >= vm::LevelPmd && level <= vm::LevelPgd,
              "PWC caches only PGD/PUD/PMD, got level ", level);
    return static_cast<unsigned>(vm::LevelPgd - level);
}

Pwc::Line *
Pwc::setBase(int level, Addr entry_paddr)
{
    const unsigned slice = levelIndex(level);
    const unsigned set =
        static_cast<unsigned>((entry_paddr / vm::bytesPerEntry) %
                              num_sets_);
    return &lines_[slice * params_.entries_per_level +
                   set * params_.assoc];
}

bool
Pwc::lookup(int level, Addr entry_paddr)
{
    Line *base = setBase(level, entry_paddr);
    for (unsigned way = 0; way < params_.assoc; ++way) {
        if (base[way].valid && base[way].tag == entry_paddr) {
            base[way].lru = ++lru_clock_;
            ++hits;
            return true;
        }
    }
    ++misses;
    return false;
}

void
Pwc::fill(int level, Addr entry_paddr)
{
    Line *base = setBase(level, entry_paddr);
    Line *victim = &base[0];
    for (unsigned way = 0; way < params_.assoc; ++way) {
        if (!base[way].valid) {
            victim = &base[way];
            break;
        }
        if (base[way].lru < victim->lru)
            victim = &base[way];
    }
    if (!victim->valid)
        setLive(live_ + 1);
    victim->tag = entry_paddr;
    victim->valid = true;
    victim->lru = ++lru_clock_;
}

void
Pwc::invalidate(Addr entry_paddr)
{
    for (auto &line : lines_) {
        if (line.valid && line.tag == entry_paddr) {
            line.valid = false;
            setLive(live_ - 1);
        }
    }
}

void
Pwc::invalidateAll()
{
    for (auto &line : lines_)
        line.valid = false;
    setLive(0);
}

void
Pwc::resetStats()
{
    hits.reset();
    misses.reset();
}

void
Pwc::save(snap::ArchiveWriter &ar) const
{
    ar.str(params_.name);
    ar.u32(static_cast<std::uint32_t>(lines_.size()));
    ar.u32(params_.assoc);
    ar.u64(lru_clock_);
    for (const Line &line : lines_) {
        ar.u64(line.tag);
        ar.b(line.valid);
        ar.u64(line.lru);
    }
}

void
Pwc::restore(snap::ArchiveReader &ar)
{
    if (ar.str() != params_.name || ar.u32() != lines_.size() ||
        ar.u32() != params_.assoc) {
        throw snap::SnapshotError("PWC '" + params_.name +
                                  "' checkpoint geometry mismatch");
    }
    lru_clock_ = ar.u64();
    std::uint32_t live = 0;
    for (Line &line : lines_) {
        line.tag = ar.u64();
        line.valid = ar.b();
        line.lru = ar.u64();
        live += line.valid;
    }
    setLive(live);
}

} // namespace bf::tlb
