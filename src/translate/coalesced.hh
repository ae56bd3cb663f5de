/**
 * @file
 * Coalesced-TLB translation backend (CoLT-style, arxiv 1908.08774): the
 * reference pipeline plus a small fully-associative range TLB fed by a
 * fill-time contiguity detector.
 *
 * What is modeled:
 *  - Each 4K L2-TLB fill is run through a per-process detector; a fill
 *    at {vpn+1, ppn+1} extends the current run, and runs of two or more
 *    pages are packed into a range entry {base_vpn, base_ppn, len}
 *    (cap RunDetector::kMaxRun) in the RangeTlb.
 *  - The range TLB is probed alongside the L2 TLB (after a base miss,
 *    at no extra cycles — it is a small parallel structure); a covering
 *    range synthesizes the 4K translation and counts as an L2 hit.
 *
 * What is approximated (see DESIGN.md §16):
 *  - Only private, non-CoW, bitmask-free 4K fills coalesce, so the
 *    O-PC machinery never applies inside a range; range entries are
 *    PCID-tagged and never produce Shared Hits.
 *  - Permission bits are not re-derived on a range hit: the pipeline
 *    consults only the CoW bit, which coalescing excludes.
 *  - Shootdown handling is conservative: any overlapping invalidation
 *    drops the whole range entry and resets the detector.
 */

#ifndef BF_TRANSLATE_COALESCED_HH
#define BF_TRANSLATE_COALESCED_HH

#include "translate/pipeline.hh"
#include "translate/structures.hh"

namespace bf::translate
{

/** The reference pipeline plus a coalesced range TLB. */
class CoalescedBackend : public PipelineBackend
{
  public:
    CoalescedBackend(unsigned core_id, const core::MmuParams &params,
                     mem::CacheHierarchy &hierarchy, vm::Kernel &kernel,
                     TranslateStats &stats, stats::StatGroup &group);

    BackendKind kind() const override { return BackendKind::Coalesced; }

    /** Range entries in the coalesced structure. */
    static constexpr std::size_t kRangeEntries = 64;

    /** The range TLB (tests inspect install/shootdown reach). */
    const RangeTlb &ranges() const { return ranges_; }

  protected:
    tlb::TlbLookup lookupL2(vm::Process &proc, Addr va, AccessType type,
                            PageSize &size_out,
                            int process_bit) override;
    void fillL2(const tlb::TlbEntry &entry, vm::Process &proc,
                Cycles now) override;
    void invalidateExtra(const vm::TlbInvalidate &inv) override;
    void flushExtra() override;
    void resetExtraStats() override;
    void saveExtra(snap::ArchiveWriter &ar) const override;
    void restoreExtra(snap::ArchiveReader &ar) override;

  private:
    RangeTlb ranges_{ kRangeEntries };
    RunDetector detector_;

    /**
     * Publish ranges plus live runs as presence_.extra. A live run
     * counts: every shootdown resets the detector (invalidateExtra),
     * so a core with a run in progress is not "empty".
     */
    void
    syncPresence()
    {
        presence_.extra = static_cast<std::uint32_t>(
            ranges_.validCount() + detector_.liveCount());
    }
    /**
     * A range hit synthesizes the covered 4K entry here so the base
     * translate() loop can treat it exactly like an L2 TLB hit (the
     * member outlives the lookup; fillL1 copies it immediately).
     */
    tlb::TlbEntry scratch_;
    stats::StatGroup cgroup_;
    stats::Scalar range_hits_;     //!< Base-L2 misses covered by a range.
    stats::Scalar range_installs_; //!< Range (re-)installs from runs.
};

} // namespace bf::translate

#endif // BF_TRANSLATE_COALESCED_HH
