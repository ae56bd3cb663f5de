/**
 * @file
 * Header-only functional models shared by the competitor backends and
 * the replay engine's backend models (DESIGN.md §16):
 *
 *  - VictimStore: a direct-mapped store of L2-TLB evictions, the
 *    functional half of a Victima-style design (arxiv 2310.04158) that
 *    parks TLB-reach overflow in the data cache arrays.
 *  - RangeTlb + RunDetector: a CoLT-style coalesced range TLB (arxiv
 *    1908.08774) and the fill-time detector that feeds it.
 *
 * Both are pure containers: no statistics, no latency — owners bill
 * cycles and count events so full-sim and replay can share the exact
 * same eviction/coalescing decisions.
 */

#ifndef BF_TRANSLATE_STRUCTURES_HH
#define BF_TRANSLATE_STRUCTURES_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/snapshot.hh"
#include "common/types.hh"
#include "tlb/tlb_entry.hh"
#include "vm/tlb_hooks.hh"

namespace bf::translate
{

/**
 * Direct-mapped store of spilled TLB entries. Conflict misses are part
 * of the model (Victima's cache-resident metadata is direct-mapped by
 * set); shootdowns scan the whole array, which is fine because they are
 * orders of magnitude rarer than probes.
 */
class VictimStore
{
  public:
    /** @param entries slot count, must be a power of two. */
    explicit VictimStore(std::size_t entries = 8192) : slots_(entries) {}

    std::size_t capacity() const { return slots_.size(); }

    /** Slot a {VPN, size} pair maps to (also keys the synthetic paddr). */
    std::size_t
    slotIndex(Vpn vpn, PageSize size) const
    {
        const std::uint64_t h =
            vpn ^ (vpn >> 13) ^
            (static_cast<std::uint64_t>(size) * 0x9e3779b1ull);
        return h & (slots_.size() - 1);
    }

    /** Park an evicted entry, replacing any conflict victim. */
    std::size_t
    insert(const tlb::TlbEntry &entry)
    {
        const std::size_t slot = slotIndex(entry.vpn, entry.size);
        live_ -= slots_[slot].valid;
        slots_[slot] = entry;
        live_ += slots_[slot].valid;
        return slot;
    }

    /**
     * Probe for a translation, mirroring the TLB match rules: owned (or
     * conventional) entries need a PCID match; shared entries need a
     * CCID match and pass the ORPC/process-bit check of paper Fig. 8.
     * @return the entry, or nullptr; @p slot_out gets its slot on a hit.
     */
    const tlb::TlbEntry *
    probe(Vpn vpn, PageSize size, Pcid pcid, Ccid ccid, bool babelfish,
          int process_bit, std::size_t *slot_out = nullptr) const
    {
        const std::size_t slot = slotIndex(vpn, size);
        const tlb::TlbEntry &e = slots_[slot];
        if (!e.valid || e.vpn != vpn || e.size != size)
            return nullptr;
        bool match;
        if (!babelfish || e.owned) {
            match = e.pcid == pcid;
        } else {
            match = e.ccid == ccid &&
                    !(e.orpc && process_bit >= 0 &&
                      (e.pc_bitmask >> process_bit) & 1u);
        }
        if (!match)
            return nullptr;
        if (slot_out)
            *slot_out = slot;
        return &e;
    }

    /** Drop one slot (entry migrated back into the TLB). */
    void
    erase(std::size_t slot)
    {
        live_ -= slots_[slot].valid;
        slots_[slot].valid = false;
    }

    /** Apply a kernel shootdown (same reach rules as the TLBs). */
    void
    invalidate(const vm::TlbInvalidate &inv)
    {
        using Kind = vm::TlbInvalidate::Kind;
        if (live_ == 0)
            return;
        for (auto &e : slots_) {
            if (!e.valid)
                continue;
            switch (inv.kind) {
              case Kind::Page:
                if (e.pcid == inv.pcid && e.size == inv.size &&
                    e.vpn == inv.vpn)
                    drop(e);
                break;
              case Kind::SharedRange: {
                if (e.owned || e.ccid != inv.ccid)
                    break;
                // Cover huge entries overlapping a 4K-expressed range.
                Vpn first = inv.vpn;
                Vpn last = inv.vpn + inv.num_pages - 1;
                if (e.size != inv.size) {
                    if (inv.size != PageSize::Size4K)
                        break;
                    const int shift = pageShift(e.size) -
                                      pageShift(PageSize::Size4K);
                    first >>= shift;
                    last >>= shift;
                }
                if (e.vpn >= first && e.vpn <= last)
                    drop(e);
                break;
              }
              case Kind::Pcid:
                if (e.pcid == inv.pcid)
                    drop(e);
                break;
            }
        }
    }

    void
    clear()
    {
        for (auto &e : slots_)
            e.valid = false;
        live_ = 0;
    }

    /** Valid slots, O(1). */
    std::size_t validCount() const { return live_; }

    /** @{ @name Checkpointing (valid slots only, fixed order) */
    void
    save(snap::ArchiveWriter &ar) const
    {
        ar.u64(slots_.size());
        ar.u64(validCount());
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            const tlb::TlbEntry &e = slots_[i];
            if (!e.valid)
                continue;
            ar.u64(i);
            ar.u64(e.vpn);
            ar.u64(e.ppn);
            ar.u8(static_cast<std::uint8_t>(e.size));
            ar.u32(e.pcid);
            ar.u32(e.ccid);
            ar.b(e.writable);
            ar.b(e.user);
            ar.b(e.no_exec);
            ar.b(e.cow);
            ar.b(e.owned);
            ar.b(e.orpc);
            ar.u32(e.pc_bitmask);
            ar.u32(e.fill_pcid);
        }
    }

    void
    restore(snap::ArchiveReader &ar)
    {
        const std::uint64_t n_slots = ar.u64();
        if (n_slots != slots_.size())
            throw snap::SnapshotError("victim-store size mismatch");
        clear();
        const std::uint64_t n = ar.u64();
        for (std::uint64_t i = 0; i < n; ++i) {
            const std::uint64_t slot = ar.u64();
            if (slot >= slots_.size())
                throw snap::SnapshotError("victim-store slot out of range");
            tlb::TlbEntry &e = slots_[slot];
            e.valid = true;
            e.vpn = ar.u64();
            e.ppn = ar.u64();
            e.size = static_cast<PageSize>(ar.u8());
            e.pcid = ar.u32();
            e.ccid = ar.u32();
            e.writable = ar.b();
            e.user = ar.b();
            e.no_exec = ar.b();
            e.cow = ar.b();
            e.owned = ar.b();
            e.orpc = ar.b();
            e.pc_bitmask = ar.u32();
            e.fill_pcid = ar.u32();
            e.lru = 0;
        }
        // Recount: a repeated slot index must not inflate the count.
        live_ = 0;
        for (const auto &e : slots_)
            live_ += e.valid;
    }
    /** @} */

  private:
    std::vector<tlb::TlbEntry> slots_;
    std::size_t live_ = 0; //!< Valid slots.

    void
    drop(tlb::TlbEntry &e)
    {
        e.valid = false;
        --live_;
    }
};

/** One coalesced range: len contiguous 4K VPN→PPN pairs. */
struct RangeEntry
{
    bool valid = false;
    Vpn base_vpn = 0;
    Ppn base_ppn = 0;
    std::uint32_t len = 0;
    Pcid pcid = 0;
    Ccid ccid = invalidCcid;
    std::uint64_t lru = 0;
};

/**
 * Fully-associative LRU range TLB over 4K pages. Entries are private
 * (PCID-tagged): only non-CoW, bitmask-free fills are coalesced, so the
 * O-PC machinery never applies inside a range.
 */
class RangeTlb
{
  public:
    explicit RangeTlb(std::size_t entries = 64) : entries_(entries) {}

    std::size_t capacity() const { return entries_.size(); }

    /**
     * Find the range covering @p vpn for @p pcid, touch its LRU and
     * return it (nullptr on miss). The covered PPN is
     * base_ppn + (vpn - base_vpn).
     */
    const RangeEntry *
    lookup(Vpn vpn, Pcid pcid)
    {
        for (auto &e : entries_) {
            if (e.valid && e.pcid == pcid && vpn >= e.base_vpn &&
                vpn < e.base_vpn + e.len) {
                e.lru = ++lru_clock_;
                return &e;
            }
        }
        return nullptr;
    }

    /**
     * Install or grow a detected run. A range with the same {pcid,
     * base_vpn} is updated in place (the detector re-announces a run as
     * it extends); otherwise the LRU entry is evicted.
     */
    void
    insert(Vpn base_vpn, Ppn base_ppn, std::uint32_t len, Pcid pcid,
           Ccid ccid)
    {
        RangeEntry *victim = nullptr;
        for (auto &e : entries_) {
            if (e.valid && e.pcid == pcid && e.base_vpn == base_vpn) {
                victim = &e;
                break;
            }
        }
        if (!victim) {
            for (auto &e : entries_) {
                if (!e.valid) {
                    victim = &e;
                    break;
                }
            }
        }
        if (!victim) {
            victim = &entries_[0];
            for (auto &e : entries_)
                if (e.lru < victim->lru)
                    victim = &e;
        }
        live_ += !victim->valid;
        victim->valid = true;
        victim->base_vpn = base_vpn;
        victim->base_ppn = base_ppn;
        victim->len = len;
        victim->pcid = pcid;
        victim->ccid = ccid;
        victim->lru = ++lru_clock_;
    }

    /**
     * Apply a kernel shootdown. Ranges cache only private 4K leaf
     * translations, but invalidation is conservative: any overlap of
     * the shot-down VPN range — whatever its kind, tag or page size —
     * drops the whole range entry.
     */
    void
    invalidate(const vm::TlbInvalidate &inv)
    {
        using Kind = vm::TlbInvalidate::Kind;
        if (live_ == 0)
            return;
        if (inv.kind == Kind::Pcid) {
            for (auto &e : entries_)
                if (e.valid && e.pcid == inv.pcid)
                    drop(e);
            return;
        }
        // Express the shot-down range in 4K VPNs.
        const int shift = pageShift(inv.size) - pageShift(PageSize::Size4K);
        const Vpn first = inv.vpn << shift;
        const Vpn last = ((inv.vpn + inv.num_pages) << shift) - 1;
        for (auto &e : entries_) {
            if (e.valid && e.base_vpn <= last &&
                e.base_vpn + e.len - 1 >= first)
                drop(e);
        }
    }

    void
    clear()
    {
        for (auto &e : entries_)
            e.valid = false;
        live_ = 0;
    }

    /** Valid ranges, O(1). */
    std::size_t validCount() const { return live_; }

    /** @{ @name Checkpointing (full array, LRU clock included) */
    void
    save(snap::ArchiveWriter &ar) const
    {
        ar.u64(entries_.size());
        ar.u64(lru_clock_);
        for (const auto &e : entries_) {
            ar.b(e.valid);
            ar.u64(e.base_vpn);
            ar.u64(e.base_ppn);
            ar.u32(e.len);
            ar.u32(e.pcid);
            ar.u32(e.ccid);
            ar.u64(e.lru);
        }
    }

    void
    restore(snap::ArchiveReader &ar)
    {
        const std::uint64_t n = ar.u64();
        if (n != entries_.size())
            throw snap::SnapshotError("range-tlb size mismatch");
        lru_clock_ = ar.u64();
        live_ = 0;
        for (auto &e : entries_) {
            e.valid = ar.b();
            e.base_vpn = ar.u64();
            e.base_ppn = ar.u64();
            e.len = ar.u32();
            e.pcid = ar.u32();
            e.ccid = ar.u32();
            e.lru = ar.u64();
            live_ += e.valid;
        }
    }
    /** @} */

  private:
    std::vector<RangeEntry> entries_;
    std::uint64_t lru_clock_ = 0;
    std::size_t live_ = 0; //!< Valid ranges.

    void
    drop(RangeEntry &e)
    {
        e.valid = false;
        --live_;
    }
};

/**
 * Fill-time contiguity detector: per-process tracking of the last
 * filled {VPN, PPN}. A fill at {vpn+1, ppn+1} extends the current run;
 * once a run reaches two pages it is announced (and re-announced as it
 * grows, up to the cap) for installation into the RangeTlb. Slots are
 * direct-mapped by PCID — a conflict just resets a run, costing
 * coalescing opportunity, never correctness.
 */
class RunDetector
{
  public:
    static constexpr std::uint32_t kMaxRun = 32;

    struct Run
    {
        Vpn base_vpn = 0;
        Ppn base_ppn = 0;
        std::uint32_t len = 0;
    };

    /**
     * Note one 4K fill. Returns true and sets @p out when the run is
     * worth (re-)installing (length >= 2).
     */
    bool
    note(Pcid pcid, Vpn vpn, Ppn ppn, Run &out)
    {
        Slot &s = slots_[pcid & (kSlots - 1)];
        if (s.live && s.pcid == pcid && vpn == s.last_vpn + 1 &&
            ppn == s.last_ppn + 1 && s.len < kMaxRun) {
            ++s.len;
        } else {
            live_ += !s.live;
            s.live = true;
            s.pcid = pcid;
            s.base_vpn = vpn;
            s.base_ppn = ppn;
            s.len = 1;
        }
        s.last_vpn = vpn;
        s.last_ppn = ppn;
        if (s.len < 2)
            return false;
        out = {s.base_vpn, s.base_ppn, s.len};
        return true;
    }

    void
    clear()
    {
        for (auto &s : slots_)
            s.live = false;
        live_ = 0;
    }

    /** Slots with a run in progress, O(1). */
    std::size_t liveCount() const { return live_; }

    /** @{ @name Checkpointing */
    void
    save(snap::ArchiveWriter &ar) const
    {
        ar.u64(kSlots);
        for (const auto &s : slots_) {
            ar.b(s.live);
            ar.u32(s.pcid);
            ar.u64(s.base_vpn);
            ar.u64(s.base_ppn);
            ar.u64(s.last_vpn);
            ar.u64(s.last_ppn);
            ar.u32(s.len);
        }
    }

    void
    restore(snap::ArchiveReader &ar)
    {
        if (ar.u64() != kSlots)
            throw snap::SnapshotError("run-detector size mismatch");
        live_ = 0;
        for (auto &s : slots_) {
            s.live = ar.b();
            live_ += s.live;
            s.pcid = ar.u32();
            s.base_vpn = ar.u64();
            s.base_ppn = ar.u64();
            s.last_vpn = ar.u64();
            s.last_ppn = ar.u64();
            s.len = ar.u32();
        }
    }
    /** @} */

  private:
    static constexpr std::size_t kSlots = 32; //!< Power of two.

    struct Slot
    {
        bool live = false;
        Pcid pcid = 0;
        Vpn base_vpn = 0;
        Ppn base_ppn = 0;
        Vpn last_vpn = 0;
        Ppn last_ppn = 0;
        std::uint32_t len = 0;
    };
    std::array<Slot, kSlots> slots_{};
    std::size_t live_ = 0; //!< Slots with live set.
};

} // namespace bf::translate

#endif // BF_TRANSLATE_STRUCTURES_HH
