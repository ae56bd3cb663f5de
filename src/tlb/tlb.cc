#include "tlb/tlb.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/snapshot.hh"

namespace bf::tlb
{

const char *
policyName(TlbParams::Policy policy)
{
    switch (policy) {
      case TlbParams::Policy::Lru: return "lru";
      case TlbParams::Policy::Fifo: return "fifo";
      case TlbParams::Policy::Random: return "random";
    }
    return "?";
}

std::uint64_t
Tlb::policySeed() const
{
    // FNV-1a over the structure name: per-structure distinct, but
    // identical across runs and hosts.
    std::uint64_t h = 1469598103934665603ull;
    for (char c : params_.name) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 1099511628211ull;
    }
    return h | 1; // xorshift64 must not start at 0
}

std::uint64_t
Tlb::nextRand()
{
    std::uint64_t x = rng_state_;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    rng_state_ = x;
    return x;
}

Tlb::Tlb(const TlbParams &params, stats::StatGroup *parent)
    : params_(params), stat_group_(params.name, parent)
{
    rng_state_ = policySeed();
    if (params_.assoc == 0 || params_.assoc >= params_.entries)
        params_.assoc = params_.entries; // fully associative
    bf_assert(params_.entries % params_.assoc == 0,
              "TLB ", params_.name, ": entries not divisible by assoc");
    num_sets_ = params_.entries / params_.assoc;
    sets_pow2_ = (num_sets_ & (num_sets_ - 1)) == 0;
    set_mask_ = num_sets_ - 1;
    entries_.resize(params_.entries);
    key_.resize(params_.entries, 0);
    id_.resize(params_.entries, 0);

    stat_group_.addStat("hits", &hits);
    stat_group_.addStat("misses", &misses);
    stat_group_.addStat("shared_hits", &shared_hits);
    stat_group_.addStat("bitmask_checks", &bitmask_checks);
    stat_group_.addStat("fills", &fills);
    stat_group_.addStat("invalidations", &invalidations);
}

TlbLookup
Tlb::lookupConventional(Vpn vpn, Pcid pcid)
{
    TlbLookup result;
    const std::size_t base = setIndex(vpn) * params_.assoc;
    // Shadow-key scan: valid + VPN in one compare (the owned bit is
    // masked off — conventional lookups ignore it), PCID from the id
    // word. The mismatching ways never touch the entry structs.
    const std::uint64_t want = packKey(vpn, true);
    const unsigned assoc = params_.assoc;
    for (unsigned way = 0; way < assoc; ++way) {
        const std::size_t i = base + way;
        if ((key_[i] | 2u) != want || (id_[i] >> 16) != pcid)
            continue;
        TlbEntry &entry = entries_[i];
        if (params_.policy == TlbParams::Policy::Lru)
            entry.lru = ++lru_clock_;
        result.entry = &entry;
        result.shared_hit = entry.fill_pcid != pcid;
        ++hits;
        if (result.shared_hit)
            ++shared_hits;
        return result;
    }
    ++misses;
    return result;
}

TlbLookup
Tlb::lookupBabelFish(Vpn vpn, Ccid ccid, Pcid pcid, int process_bit)
{
    TlbLookup result;
    const std::size_t base = setIndex(vpn) * params_.assoc;
    TlbEntry *match = nullptr;

    const std::uint64_t want = packKey(vpn, true);
    const unsigned assoc = params_.assoc;
    for (unsigned way = 0; way < assoc; ++way) {
        const std::size_t i = base + way;
        const std::uint64_t key = key_[i];
        if ((key | 2u) != want || (id_[i] & 0xffffu) != ccid)
            continue;                                   // step 1 of Fig. 8
        TlbEntry &entry = entries_[i];
        if (key & 2u) {                                 // owned
            if (entry.pcid == pcid) {                   // step 9
                match = &entry;
                break;                                  // owned hit wins
            }
            continue;                                   // step 10 (miss)
        }
        // Shared entry. The ORPC bit short-circuits the bitmask check
        // (Fig. 5(b)): only when it is set do we pay the long access.
        if (entry.orpc) {
            result.bitmask_checked = true;
            if (process_bit >= 0 &&
                (entry.pc_bitmask >> process_bit) & 1u) {
                // The process has its own private copy of this page; the
                // shared translation is not for it (step 3 -> miss).
                continue;
            }
        }
        match = &entry;                                 // step 4 (hit)
        // Keep scanning: an owned entry for this PCID takes precedence
        // (the process may have both after privatizing).
    }

    if (result.bitmask_checked)
        ++bitmask_checks;

    if (match) {
        if (params_.policy == TlbParams::Policy::Lru)
            match->lru = ++lru_clock_;
        result.entry = match;
        result.shared_hit = match->fill_pcid != pcid;
        ++hits;
        if (result.shared_hit)
            ++shared_hits;
        return result;
    }
    ++misses;
    return result;
}

bool
Tlb::fill(const TlbEntry &new_entry, bool shared_dedup,
          TlbEntry *evicted)
{
    bf_assert(new_entry.size == params_.page_size,
              "TLB ", params_.name, ": wrong page size fill");
    TlbEntry *base = setBase(new_entry.vpn);

    // Replace an existing entry with the same tags if present (never
    // duplicate a translation), else an invalid way, else LRU.
    const bool dedup_shared = shared_dedup && !new_entry.owned;
    const unsigned assoc = params_.assoc;
    TlbEntry *victim = nullptr;
    bool same_identity_refill = false;
    for (unsigned way = 0; way < assoc; ++way) {
        TlbEntry &entry = base[way];
        const bool same_identity =
            entry.vpn == new_entry.vpn && entry.valid &&
            entry.ccid == new_entry.ccid &&
            entry.owned == new_entry.owned &&
            (dedup_shared || entry.pcid == new_entry.pcid);
        if (same_identity) {
            victim = &entry;
            same_identity_refill = true;
            break;
        }
    }
    if (!victim) {
        victim = &base[0];
        bool found_invalid = false;
        for (unsigned way = 0; way < assoc; ++way) {
            TlbEntry &entry = base[way];
            if (!entry.valid) {
                victim = &entry;
                found_invalid = true;
                break;
            }
            if (entry.lru < victim->lru)
                victim = &entry;
        }
        // A full set defers to the policy: Lru and Fifo both take the
        // oldest stamp (Fifo never refreshed it on hits), Random picks
        // a deterministic pseudo-random way.
        if (!found_invalid &&
            params_.policy == TlbParams::Policy::Random) {
            victim = &base[nextRand() % params_.assoc];
        }
    }
    bool spilled = false;
    if (!victim->valid) {
        liveAdd();
    } else if (!same_identity_refill) {
        if (!victim->owned)
            bucketRemove(victim->ccid);
        if (evicted) {
            *evicted = *victim;
            spilled = true;
        }
    } else if (!victim->owned) {
        bucketRemove(victim->ccid);
    }
    *victim = new_entry;
    victim->valid = true;
    victim->lru = ++lru_clock_;
    if (!victim->owned)
        bucketAdd(victim->ccid, victim->vpn);
    syncKeys(static_cast<std::size_t>(victim - entries_.data()));
    ++fills;
    return spilled;
}

void
Tlb::invalidatePage(Pcid pcid, Vpn vpn)
{
    if (valid_count_ == 0)
        return;
    const std::size_t base = setIndex(vpn) * params_.assoc;
    const std::uint64_t want = packKey(vpn, true);
    for (unsigned way = 0; way < params_.assoc; ++way) {
        const std::size_t i = base + way;
        const std::uint64_t key = key_[i];
        if ((key | 2u) == want && (id_[i] >> 16) == pcid) {
            entries_[i].valid = false;
            key_[i] = 0;
            liveRemove();
            ++invalidations;
            if (!(key & 2u))
                bucketRemove(static_cast<Ccid>(id_[i] & 0xffffu));
        }
    }
}

void
Tlb::invalidateSharedRange(Ccid ccid, Vpn first, std::uint64_t count)
{
    // Shootdowns are broadcast to every core; on most of them this
    // structure holds nothing for the CCID (or nothing in the range),
    // so the occupancy filter answers without scanning.
    if (valid_count_ == 0)
        return;
    const CcidBucket &b = bucket(ccid);
    if (b.count == 0 || first > b.vpn_max || first + count <= b.vpn_min)
        return;
    // Range shootdowns scan the whole structure — over the packed
    // shadow keys, not the entry structs.
    const std::size_t n = key_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t key = key_[i];
        if ((key & 3u) != 1u)           // valid shared entries only
            continue;
        if ((id_[i] & 0xffffu) != ccid)
            continue;
        const Vpn vpn = key >> 2;
        if (vpn < first || vpn >= first + count)
            continue;
        entries_[i].valid = false;
        key_[i] = 0;
        liveRemove();
        ++invalidations;
        bucketRemove(ccid);
    }
}

void
Tlb::invalidatePcid(Pcid pcid)
{
    if (valid_count_ == 0)
        return;
    const std::size_t n = key_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t key = key_[i];
        if (!(key & 1u) || (id_[i] >> 16) != pcid)
            continue;
        entries_[i].valid = false;
        key_[i] = 0;
        liveRemove();
        ++invalidations;
        if (!(key & 2u))
            bucketRemove(static_cast<Ccid>(id_[i] & 0xffffu));
    }
}

void
Tlb::invalidateAll()
{
    if (valid_count_ == 0)
        return;
    reportContents(false);
    for (auto &entry : entries_)
        entry.valid = false;
    std::fill(key_.begin(), key_.end(), 0);
    shared_buckets_.fill(CcidBucket{});
    valid_count_ = 0;
}

void
Tlb::reset()
{
    reportContents(false);
    for (auto &entry : entries_)
        entry = TlbEntry{};
    std::fill(key_.begin(), key_.end(), 0);
    std::fill(id_.begin(), id_.end(), 0);
    shared_buckets_.fill(CcidBucket{});
    valid_count_ = 0;
    lru_clock_ = 0;
    rng_state_ = policySeed();
}

void
Tlb::attachPresence(Presence *presence)
{
    reportContents(false);
    presence_ = presence;
    reportContents(true);
}

void
Tlb::reportContents(bool add)
{
    if (!presence_)
        return;
    const auto apply = [add](std::uint32_t &total, std::uint32_t n) {
        total = add ? total + n : total - n;
    };
    apply(presence_->tlb_live, valid_count_);
    for (unsigned b = 0; b < Presence::kCcidBuckets; ++b)
        apply(presence_->shared[b], shared_buckets_[b].count);
}

void
Tlb::rebuildShadow()
{
    shared_buckets_.fill(CcidBucket{});
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        syncKeys(i);
        const TlbEntry &entry = entries_[i];
        if (entry.valid && !entry.owned)
            bucketAdd(entry.ccid, entry.vpn);
    }
}

const TlbEntry *
Tlb::probe(Vpn vpn, Pcid pcid) const
{
    const TlbEntry *base = setBase(vpn);
    for (unsigned way = 0; way < params_.assoc; ++way) {
        if (base[way].valid && base[way].vpn == vpn &&
            base[way].pcid == pcid)
            return &base[way];
    }
    return nullptr;
}

unsigned
Tlb::recountValid() const
{
    unsigned count = 0;
    for (const auto &entry : entries_)
        if (entry.valid)
            ++count;
    return count;
}

unsigned
Tlb::validCount() const
{
#ifndef NDEBUG
    bf_assert(recountValid() == valid_count_,
              "TLB ", params_.name, ": valid_count_ (", valid_count_,
              ") out of sync with scan (", recountValid(), ")");
#endif
    return valid_count_;
}

void
Tlb::resetStats()
{
    hits.reset();
    misses.reset();
    shared_hits.reset();
    bitmask_checks.reset();
    fills.reset();
    invalidations.reset();
}

void
Tlb::save(snap::ArchiveWriter &ar) const
{
    ar.str(params_.name);
    ar.u32(static_cast<std::uint32_t>(entries_.size()));
    ar.u32(params_.assoc);
    ar.u8(static_cast<std::uint8_t>(params_.page_size));
    ar.u8(static_cast<std::uint8_t>(params_.policy));

    ar.u64(lru_clock_);
    ar.u64(rng_state_);
    ar.u32(valid_count_);
    for (const TlbEntry &entry : entries_) {
        ar.b(entry.valid);
        ar.u64(entry.vpn);
        ar.u64(entry.ppn);
        ar.u8(static_cast<std::uint8_t>(entry.size));
        ar.u16(entry.pcid);
        ar.u16(entry.ccid);
        std::uint8_t flags = 0;
        flags |= entry.writable ? 1u << 0 : 0;
        flags |= entry.user ? 1u << 1 : 0;
        flags |= entry.no_exec ? 1u << 2 : 0;
        flags |= entry.cow ? 1u << 3 : 0;
        flags |= entry.owned ? 1u << 4 : 0;
        flags |= entry.orpc ? 1u << 5 : 0;
        ar.u8(flags);
        ar.u32(entry.pc_bitmask);
        ar.u16(entry.fill_pcid);
        ar.u64(entry.lru);
    }
}

void
Tlb::restore(snap::ArchiveReader &ar)
{
    auto geometry = [&](bool ok, const char *what) {
        if (!ok) {
            throw snap::SnapshotError(std::string("TLB '") +
                                      params_.name +
                                      "' checkpoint mismatch: " + what);
        }
    };
    geometry(ar.str() == params_.name, "name");
    geometry(ar.u32() == entries_.size(), "entry count");
    geometry(ar.u32() == params_.assoc, "associativity");
    geometry(ar.u8() == static_cast<std::uint8_t>(params_.page_size),
             "page size");
    geometry(ar.u8() == static_cast<std::uint8_t>(params_.policy),
             "replacement policy");

    // Detached while the contents are rewritten; re-attaching reports
    // the restored contents once.
    Presence *presence = presence_;
    attachPresence(nullptr);
    lru_clock_ = ar.u64();
    rng_state_ = ar.u64();
    valid_count_ = ar.u32();
    for (TlbEntry &entry : entries_) {
        entry.valid = ar.b();
        entry.vpn = ar.u64();
        entry.ppn = ar.u64();
        entry.size = static_cast<PageSize>(ar.u8());
        entry.pcid = ar.u16();
        entry.ccid = ar.u16();
        const std::uint8_t flags = ar.u8();
        entry.writable = flags & (1u << 0);
        entry.user = flags & (1u << 1);
        entry.no_exec = flags & (1u << 2);
        entry.cow = flags & (1u << 3);
        entry.owned = flags & (1u << 4);
        entry.orpc = flags & (1u << 5);
        entry.pc_bitmask = ar.u32();
        entry.fill_pcid = ar.u16();
        entry.lru = ar.u64();
    }
    // The shootdown filters trust valid_count_: a count that disagrees
    // with the entries is a corrupt archive, not a state to resume.
    geometry(valid_count_ == recountValid(), "valid count");
    rebuildShadow();
    attachPresence(presence);
}

} // namespace bf::tlb
