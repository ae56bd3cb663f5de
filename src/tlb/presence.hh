/**
 * @file
 * Presence summary of one core's translation structures: what a kernel
 * shootdown could possibly find there. The structures keep it current
 * as they fill and drain (Tlb, Pwc; the backend for its extras), and
 * the shootdown fan-out reads it before dispatching to the core, so a
 * broadcast that reaches nothing costs one load per core (DESIGN.md
 * §18).
 *
 * Invariant: every count is at least the number of live items it
 * covers. The summary may claim presence that is gone (then the
 * shootdown is simply applied), never the reverse — a "holds nothing"
 * answer is a proof that applying the shootdown would change no entry,
 * no counter and no checkpoint byte.
 */

#ifndef BF_TLB_PRESENCE_HH
#define BF_TLB_PRESENCE_HH

#include <array>
#include <cstdint>

#include "vm/tlb_hooks.hh"

namespace bf::tlb
{

struct Presence
{
    /** Buckets of the shared-entry counts (CCID modulo this). */
    static constexpr unsigned kCcidBuckets = 64;

    /** Valid entries across the attached TLBs. */
    std::uint32_t tlb_live = 0;
    /** Valid shared (Ownership-clear) TLB entries, per CCID bucket. */
    std::array<std::uint32_t, kCcidBuckets> shared{};
    /** Valid page-walk-cache lines. */
    std::uint32_t pwc_live = 0;
    /**
     * Live items in backend-specific structures (Victima store, range
     * TLB, a coalescing run in progress). Their shootdown rules are
     * coarser than the TLBs', so any extra presence admits every
     * shootdown.
     */
    std::uint32_t extra = 0;

    static unsigned bucket(Ccid ccid) { return ccid % kCcidBuckets; }

    /**
     * Whether applying @p inv could change anything. SharedRange drops
     * only shared entries of its CCID (huge ones included); Page and
     * Pcid need a live TLB entry, and Pcid also flushes the PWC.
     */
    bool
    mayHold(const vm::TlbInvalidate &inv) const
    {
        using Kind = vm::TlbInvalidate::Kind;
        if (extra)
            return true;
        switch (inv.kind) {
          case Kind::SharedRange: return shared[bucket(inv.ccid)] != 0;
          case Kind::Page: return tlb_live != 0;
          case Kind::Pcid: return tlb_live != 0 || pwc_live != 0;
        }
        return true;
    }
};

} // namespace bf::tlb

#endif // BF_TLB_PRESENCE_HH
