#include "replay/replay.hh"

#include <algorithm>
#include <map>
#include <utility>

#include "common/parallel.hh"
#include "common/stats.hh"
#include "common/stats_export.hh"
#include "tlb/page_walker.hh"
#include "translate/structures.hh"
#include "vm/kernel.hh"
#include "vm/paging.hh"
#include "vm/tlb_hooks.hh"

namespace bf::replay
{

Counters &
Counters::operator+=(const Counters &o)
{
    accesses += o.accesses;
    l1_hits += o.l1_hits;
    l1_misses += o.l1_misses;
    l2_data_hits += o.l2_data_hits;
    l2_data_misses += o.l2_data_misses;
    l2_instr_hits += o.l2_instr_hits;
    l2_instr_misses += o.l2_instr_misses;
    l2_data_shared_hits += o.l2_data_shared_hits;
    l2_instr_shared_hits += o.l2_instr_shared_hits;
    l2_long_accesses += o.l2_long_accesses;
    walks += o.walks;
    pwc_hits += o.pwc_hits;
    pwc_misses += o.pwc_misses;
    miss_latency_count += o.miss_latency_count;
    miss_latency_sum += o.miss_latency_sum;
    return *this;
}

ReplayParams
paramsFromTrace(const trace::TraceConfig &config)
{
    ReplayParams p;
    auto cvt = [](const trace::TraceTlbConfig &t, const char *name,
                  PageSize size) {
        tlb::TlbParams tp;
        tp.name = name;
        tp.entries = t.entries;
        tp.assoc = t.assoc;
        tp.page_size = size;
        tp.access_cycles = t.access_cycles;
        tp.bitmask_extra_cycles = t.bitmask_extra_cycles;
        tp.policy = static_cast<tlb::TlbParams::Policy>(t.policy);
        return tp;
    };
    p.l1i_4k = cvt(config.tlb[trace::TraceL1i4k], "l1i_4k",
                   PageSize::Size4K);
    p.l1d_4k = cvt(config.tlb[trace::TraceL1d4k], "l1d_4k",
                   PageSize::Size4K);
    p.l1d_2m = cvt(config.tlb[trace::TraceL1d2m], "l1d_2m",
                   PageSize::Size2M);
    p.l1d_1g = cvt(config.tlb[trace::TraceL1d1g], "l1d_1g",
                   PageSize::Size1G);
    p.l2_4k = cvt(config.tlb[trace::TraceL24k], "l2_4k", PageSize::Size4K);
    p.l2_2m = cvt(config.tlb[trace::TraceL22m], "l2_2m", PageSize::Size2M);
    p.l2_1g = cvt(config.tlb[trace::TraceL21g], "l2_1g", PageSize::Size1G);
    p.pwc.name = "pwc";
    p.pwc.entries_per_level = config.pwc_entries_per_level;
    p.pwc.assoc = config.pwc_assoc;
    p.pwc.levels = config.pwc_levels;
    p.pwc.access_cycles = config.pwc_access_cycles;
    p.babelfish = config.babelfish;
    p.l1_sharing = config.l1_sharing;
    p.force_long_l2 = config.force_long_l2;
    p.aslr_hw = config.aslr_hw;
    p.aslr_transform_cycles = config.aslr_transform_cycles;
    p.opc_width = config.opc_width ? config.opc_width : 32;
    p.backend = static_cast<translate::BackendKind>(config.backend);
    return p;
}

namespace
{

int
sizeIndex(PageSize size)
{
    return static_cast<int>(size);
}

/** Leaf page-table level of a page size (1G leaf lives in the PUD). */
int
leafLevel(PageSize size)
{
    switch (size) {
      case PageSize::Size4K: return vm::LevelPte;
      case PageSize::Size2M: return vm::LevelPmd;
      case PageSize::Size1G: return vm::LevelPud;
    }
    return vm::LevelPte;
}

bool
isKernelEvent(std::uint8_t type)
{
    switch (static_cast<trace::EventType>(type)) {
      case trace::EventType::FaultService:
      case trace::EventType::CowPrivatize:
      case trace::EventType::MaskFallback:
      case trace::EventType::Shootdown:
        return true;
      default:
        return false;
    }
}

/** The event kinds replay cannot work without (DESIGN.md §13). */
std::uint32_t
requiredEventMask()
{
    std::uint32_t mask = 0;
    for (trace::EventType t : {
             trace::EventType::TlbL1Hit, trace::EventType::TlbL2Hit,
             trace::EventType::TlbMiss, trace::EventType::PwcHit,
             trace::EventType::WalkStart, trace::EventType::WalkStep,
             trace::EventType::WalkEnd, trace::EventType::FaultService,
             trace::EventType::Shootdown, trace::EventType::TlbFill,
             trace::EventType::StatsReset})
        mask |= 1u << static_cast<unsigned>(t);
    return mask;
}

/** One recorded walk: the events between a TlbMiss and its outcome. */
struct WalkInfo
{
    /** PwcHit / WalkStep records; a 4-level walk has at most one per
     *  level, so 8 slots is comfortably enough. */
    static constexpr unsigned max_steps = 8;
    const trace::Record *steps[max_steps];
    unsigned num_steps = 0;
    const trace::Record *end = nullptr;       //!< WalkEnd.
    const trace::Record *fill = nullptr;      //!< TlbFill iff status Ok.
};

/** Outcome of re-executing (or synthesizing) one walk. */
struct WalkOutcome
{
    Cycles cycles = 0;
    bool ok = false;
    tlb::TlbEntry fill;
};

/** Leaf attributes learned from a TlbFill event (synthetic walks). */
struct LeafAttr
{
    bool owned = false;
    bool orpc = false;
    bool cow = false;
    std::uint32_t pc_bitmask = 0;
};

/**
 * Open-addressing hash map keyed by (key, owner), written once while
 * the schedule learns and then probed read-only on every synthesized
 * walk — hot enough that std::unordered_map's prime-modulo hashing and
 * node chasing showed up as ~25% of a sweep point. Linear probing at
 * <= 50% load, last insert wins (the learning semantics).
 */
template <typename V>
class FlatMap
{
  public:
    void
    insert(std::uint64_t key, std::uint32_t owner, const V &value)
    {
        if ((used_ + 1) * 2 > slots_.size())
            grow();
        Slot &s = slot(key, owner);
        if (!s.used) {
            s.used = true;
            s.key = key;
            s.owner = owner;
            ++used_;
        }
        s.value = value;
    }

    const V *
    find(std::uint64_t key, std::uint32_t owner) const
    {
        if (slots_.empty())
            return nullptr;
        const std::uint64_t mask = slots_.size() - 1;
        for (std::uint64_t i = hash(key, owner) & mask; slots_[i].used;
             i = (i + 1) & mask) {
            if (slots_[i].key == key && slots_[i].owner == owner)
                return &slots_[i].value;
        }
        return nullptr;
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        std::uint32_t owner = 0;
        bool used = false;
        V value{};
    };

    static std::uint64_t
    hash(std::uint64_t key, std::uint32_t owner)
    {
        // splitmix64 finalizer over the combined identity.
        std::uint64_t x =
            key ^ (std::uint64_t{owner} * 0x9E3779B97F4A7C15ull);
        x ^= x >> 30;
        x *= 0xBF58476D1CE4E5B9ull;
        x ^= x >> 27;
        x *= 0x94D049BB133111EBull;
        x ^= x >> 31;
        return x;
    }

    Slot &
    slot(std::uint64_t key, std::uint32_t owner)
    {
        const std::uint64_t mask = slots_.size() - 1;
        std::uint64_t i = hash(key, owner) & mask;
        while (slots_[i].used &&
               !(slots_[i].key == key && slots_[i].owner == owner))
            i = (i + 1) & mask;
        return slots_[i];
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(old.empty() ? 1024 : old.size() * 2, Slot{});
        for (const Slot &s : old) {
            if (s.used) {
                Slot &d = slot(s.key, s.owner);
                d = s;
            }
        }
    }

    std::vector<Slot> slots_;
    std::size_t used_ = 0;
};

} // namespace

/** The per-core functional machine: 7 TLBs + PWC + mirrored counters. */
struct CoreModel
{
    CoreModel(unsigned id, const ReplayParams &p, stats::StatGroup *root)
        : group("core" + std::to_string(id), root), mmu("mmu", &group)
    {
        l1i = std::make_unique<tlb::Tlb>(p.l1i_4k, &mmu);
        l1d[sizeIndex(PageSize::Size4K)] =
            std::make_unique<tlb::Tlb>(p.l1d_4k, &mmu);
        l1d[sizeIndex(PageSize::Size2M)] =
            std::make_unique<tlb::Tlb>(p.l1d_2m, &mmu);
        l1d[sizeIndex(PageSize::Size1G)] =
            std::make_unique<tlb::Tlb>(p.l1d_1g, &mmu);
        l2[sizeIndex(PageSize::Size4K)] =
            std::make_unique<tlb::Tlb>(p.l2_4k, &mmu);
        l2[sizeIndex(PageSize::Size2M)] =
            std::make_unique<tlb::Tlb>(p.l2_2m, &mmu);
        l2[sizeIndex(PageSize::Size1G)] =
            std::make_unique<tlb::Tlb>(p.l2_1g, &mmu);
        pwc = std::make_unique<tlb::Pwc>(p.pwc, &mmu);

        // Backend-model structures (unused and unregistered for the
        // reference backend, so its stats shape is unchanged).
        if (p.backend == translate::BackendKind::Victima) {
            store = std::make_unique<translate::VictimStore>(
                p.victima_store_entries);
            mmu.addStat("victima_spills", &victima_spills);
            mmu.addStat("victima_hits", &victima_hits);
        } else if (p.backend == translate::BackendKind::Coalesced) {
            ranges = std::make_unique<translate::RangeTlb>(
                p.range_tlb_entries);
            detector = std::make_unique<translate::RunDetector>();
            mmu.addStat("range_hits", &range_hits);
            mmu.addStat("range_installs", &range_installs);
        }

        mmu.addStat("accesses", &accesses);
        mmu.addStat("l1_hits", &l1_hits);
        mmu.addStat("l1_misses", &l1_misses);
        mmu.addStat("l2_data_hits", &l2_data_hits);
        mmu.addStat("l2_data_misses", &l2_data_misses);
        mmu.addStat("l2_instr_hits", &l2_instr_hits);
        mmu.addStat("l2_instr_misses", &l2_instr_misses);
        mmu.addStat("l2_data_shared_hits", &l2_data_shared_hits);
        mmu.addStat("l2_instr_shared_hits", &l2_instr_shared_hits);
        mmu.addStat("l2_long_accesses", &l2_long_accesses);
        mmu.addStat("walks", &walks);
        mmu.addStat("mem_steps", &mem_steps);
        mmu.addStat("synth_walks", &synth_walks);
        mmu.addStat("miss_latency", &miss_latency);
    }

    /** System::resetStats, mirrored: zero every counter of this core. */
    void
    resetStats()
    {
        accesses.reset();
        l1_hits.reset();
        l1_misses.reset();
        l2_data_hits.reset();
        l2_data_misses.reset();
        l2_instr_hits.reset();
        l2_instr_misses.reset();
        l2_data_shared_hits.reset();
        l2_instr_shared_hits.reset();
        l2_long_accesses.reset();
        walks.reset();
        mem_steps.reset();
        synth_walks.reset();
        miss_latency.reset();
        l1i->resetStats();
        for (auto &t : l1d)
            t->resetStats();
        for (auto &t : l2)
            t->resetStats();
        pwc->resetStats();
        rec = Counters{};
    }

    stats::StatGroup group;
    stats::StatGroup mmu;
    std::unique_ptr<tlb::Tlb> l1i;
    std::unique_ptr<tlb::Tlb> l1d[numPageSizes];
    std::unique_ptr<tlb::Tlb> l2[numPageSizes];
    std::unique_ptr<tlb::Pwc> pwc;
    std::unique_ptr<translate::VictimStore> store;     //!< Victima only.
    std::unique_ptr<translate::RangeTlb> ranges;       //!< Coalesced only.
    std::unique_ptr<translate::RunDetector> detector;  //!< Coalesced only.

    stats::Scalar accesses;
    stats::Scalar l1_hits;
    stats::Scalar l1_misses;
    stats::Scalar l2_data_hits;
    stats::Scalar l2_data_misses;
    stats::Scalar l2_instr_hits;
    stats::Scalar l2_instr_misses;
    stats::Scalar l2_data_shared_hits;
    stats::Scalar l2_instr_shared_hits;
    stats::Scalar l2_long_accesses;
    stats::Scalar walks;
    stats::Scalar mem_steps;
    stats::Scalar synth_walks; //!< Walks synthesized (sweeps only).
    stats::Scalar victima_spills; //!< L2 evictions parked in the store.
    stats::Scalar victima_hits;   //!< Walks avoided by a store hit.
    stats::Scalar range_hits;     //!< Base-L2 misses covered by a range.
    stats::Scalar range_installs; //!< Range (re-)installs from runs.
    stats::Distribution miss_latency;

    Counters rec; //!< Tallied from the trace events themselves.
};

/**
 * The analyzed form of a trace: everything replay derives that depends
 * only on the records, not on the replayed machine. Shared
 * read-only between engines in a sweep.
 */
struct ReplaySchedule::Impl
{
    struct Range
    {
        std::size_t begin, end;
    };

    /**
     * One parsed access unit: a translate attempt and its walk. The
     * attempt's fields are copied out of the records into a compact
     * array so the replay loop streams each core's units sequentially.
     */
    struct Unit
    {
        static constexpr std::uint32_t no_walk = ~std::uint32_t{0};
        Addr vpage = 0;
        std::uint32_t pid = 0;
        std::uint32_t walk = no_walk; //!< Index into Block::walks[core].
        Pcid pcid = 0;
        Ccid ccid = 0;
        std::int8_t process_bit = -1;
        std::uint8_t type = 0; //!< TlbL1Hit / TlbL2Hit / TlbMiss.
        std::uint8_t flags = 0;

        static Unit
        fromRecord(const trace::Record &r, std::uint32_t walk_index)
        {
            Unit u;
            u.vpage = r.vpage;
            u.pid = r.pid;
            u.walk = walk_index;
            u.pcid = trace::attemptPcid(r.arg);
            u.ccid = r.ccid;
            u.process_bit =
                static_cast<std::int8_t>(trace::attemptProcessBit(r.arg));
            u.type = r.type;
            u.flags = r.flags;
            return u;
        }
    };

    /**
     * Recorded-side tallies of one block, per core. Everything except
     * the miss-latency sum is config-independent; the sum's configured
     * per-access terms stay factored out (ml_long, ml_end_sum) and are
     * folded in by the engine per replay.
     */
    struct RecTally
    {
        Counters rec; //!< miss_latency_sum deliberately left 0.
        std::uint64_t ml_long = 0;    //!< Successful long-L2 walks.
        std::uint64_t ml_end_sum = 0; //!< Sum of recorded walk cycles.
    };

    /**
     * One TLB invalidation a fault-service span applies, decoded from
     * its record. A Shootdown reaches every core; a raced CoW fault's
     * stale-entry drop reaches only the faulting core (Mmu::translate's
     * FaultKind::None path).
     */
    struct Invalidation
    {
        static constexpr unsigned all_cores = ~0u;
        vm::TlbInvalidate inv;
        unsigned core = all_cores; //!< The one core it reaches, if not all.
    };

    struct Block
    {
        unsigned resets = 0;
        /**
         * Per core, the block's records in seq order (the causal
         * stream), owned; WalkInfo points into these. Keeping each
         * core's records contiguous means a core's replay job streams
         * only its own records instead of every core's interleaved ones.
         */
        std::vector<std::vector<trace::Record>> streams;
        /**
         * Per fault-service round, the invalidations its spans apply, in
         * the recording's span order: (fault ts, core).
         */
        std::vector<std::vector<Invalidation>> rounds;
        /** Parsed units of all exec segments, in stream order;
         *  exec_units[c][k] is the unit range of exec segment k, and
         *  segment k > 0 resumes after fault-service round k - 1. */
        std::vector<std::vector<Unit>> units;
        std::vector<std::vector<WalkInfo>> walks;
        std::vector<std::vector<Range>> exec_units;
        std::vector<RecTally> tallies;
    };

    unsigned num_cores = 0;
    bool babelfish = false;
    /**
     * The analyzed blocks. They own the records (Block::streams) and are
     * never touched again after construction — that immutability is
     * what makes a schedule shareable across threads.
     */
    std::vector<Block> blocks;

    /**
     * @{
     * @name Synthesis knowledge (sweeps only)
     * Leaf attributes learned from every TlbFill event and page-table
     * entry addresses learned from every walk step, so walks the
     * recording skipped (it hit, a smaller replayed TLB missed) can be
     * synthesized with the right depth, O-PC attributes and PWC tags.
     * Keyed by PID with a CCID fallback so BabelFish's group-shared
     * tables keep aliasing in the replayed PWC. Learned once from the
     * whole trace (canonical order, last fill wins) and shared
     * read-only by every engine.
     */
    FlatMap<LeafAttr> attr_owned[numPageSizes]; //!< Owner: filling PCID.
    FlatMap<LeafAttr> attr_shared[numPageSizes]; //!< Owner: CCID.
    FlatMap<Addr> memo_pid;  //!< (levelBaseKey, PID) -> table base.
    FlatMap<Addr> memo_ccid; //!< (levelBaseKey, CCID) -> table base.
    /** @} */

    /** Sub-4K-page key identifying (level, table) for the memo maps. */
    static std::uint64_t
    levelBaseKey(Addr va, int level)
    {
        return (vm::tableBase(va, level) >> basePageShift) |
               (std::uint64_t{static_cast<unsigned>(level)} << 50);
    }

    void
    learnFill(const trace::Record &f)
    {
        const auto size = static_cast<PageSize>(trace::fillSize(f.arg));
        const Vpn vpn = (f.vpage << basePageShift) >> pageShift(size);
        LeafAttr a;
        a.owned = trace::fillOwned(f.arg);
        a.orpc = trace::fillOrpc(f.arg);
        a.cow = trace::fillCow(f.arg);
        a.pc_bitmask = trace::fillBitmask(f.arg);
        if (babelfish && !a.owned)
            attr_shared[sizeIndex(size)].insert(vpn, f.ccid, a);
        else
            attr_owned[sizeIndex(size)].insert(vpn, trace::fillPcid(f.arg),
                                               a);
    }

    void
    learnStep(const trace::Record &s)
    {
        const auto level = static_cast<int>(trace::walkStepLevel(s.arg));
        const Addr va = s.vpage << basePageShift;
        const Addr base = trace::walkStepPaddr(s.arg) -
                          8ull * vm::tableIndex(va, level);
        const std::uint64_t key = levelBaseKey(va, level);
        memo_pid.insert(key, s.pid, base);
        memo_ccid.insert(key, s.ccid, base);
    }

    void
    learn(const std::vector<trace::Record> &block)
    {
        for (const trace::Record &r : block) {
            switch (static_cast<trace::EventType>(r.type)) {
              case trace::EventType::PwcHit:
              case trace::EventType::WalkStep:
                learnStep(r);
                break;
              case trace::EventType::TlbFill:
                learnFill(r);
                break;
              default:
                break;
            }
        }
    }

    /** Parse one exec segment's records into access units. */
    static void
    parseExec(const std::vector<trace::Record> &s, Range e,
              std::vector<Unit> &units, std::vector<WalkInfo> &walks)
    {
        std::size_t i = e.begin;
        while (i < e.end) {
            const trace::Record *r = &s[i];
            const auto type = static_cast<trace::EventType>(r->type);
            if (type == trace::EventType::TlbL1Hit ||
                type == trace::EventType::TlbL2Hit) {
                units.push_back(Unit::fromRecord(*r, Unit::no_walk));
                ++i;
                continue;
            }
            if (type != trace::EventType::TlbMiss)
                throw ReplayError(std::string("unexpected ") +
                                  trace::eventTypeName(type) +
                                  " event outside a walk (corrupt or "
                                  "unreplayable trace)");
            if (i + 1 >= e.end ||
                s[i + 1].type !=
                    static_cast<std::uint8_t>(
                        trace::EventType::WalkStart))
                throw ReplayError("TlbMiss not followed by WalkStart");
            WalkInfo w;
            std::size_t j = i + 2;
            while (j < e.end &&
                   (s[j].type ==
                        static_cast<std::uint8_t>(
                            trace::EventType::PwcHit) ||
                    s[j].type ==
                        static_cast<std::uint8_t>(
                            trace::EventType::WalkStep))) {
                if (w.num_steps == WalkInfo::max_steps)
                    throw ReplayError("walk with more steps than a "
                                      "4-level page table can produce");
                w.steps[w.num_steps++] = &s[j++];
            }
            if (j >= e.end ||
                s[j].type !=
                    static_cast<std::uint8_t>(trace::EventType::WalkEnd))
                throw ReplayError("walk without a WalkEnd");
            w.end = &s[j++];
            if (static_cast<tlb::WalkStatus>(w.end->flags) ==
                tlb::WalkStatus::Ok) {
                if (j >= e.end ||
                    s[j].type !=
                        static_cast<std::uint8_t>(
                            trace::EventType::TlbFill))
                    throw ReplayError(
                        "successful walk without a TlbFill");
                w.fill = &s[j++];
            }
            units.push_back(Unit::fromRecord(
                *r, static_cast<std::uint32_t>(walks.size())));
            walks.push_back(w);
            i = j;
        }
    }

    /** Tally one unit's recorded-side counters (tallyRecorded's
     *  config-independent half; see RecTally). */
    static void
    tally(RecTally &t, const Unit &att, const WalkInfo *walk)
    {
        const std::uint8_t f = att.flags;
        const bool instr = f & trace::flagInstr;
        ++t.rec.accesses;
        switch (static_cast<trace::EventType>(att.type)) {
          case trace::EventType::TlbL1Hit:
            if (!(f & trace::flagCowFault))
                ++t.rec.l1_hits;
            return;
          case trace::EventType::TlbL2Hit:
            ++t.rec.l1_misses;
            ++(instr ? t.rec.l2_instr_hits : t.rec.l2_data_hits);
            if (f & trace::flagSharedHit)
                ++(instr ? t.rec.l2_instr_shared_hits
                         : t.rec.l2_data_shared_hits);
            if (f & trace::flagLongL2)
                ++t.rec.l2_long_accesses;
            return;
          default:
            break;
        }
        ++t.rec.l1_misses;
        ++(instr ? t.rec.l2_instr_misses : t.rec.l2_data_misses);
        if (f & trace::flagLongL2)
            ++t.rec.l2_long_accesses;
        ++t.rec.walks;
        for (unsigned si = 0; si < walk->num_steps; ++si) {
            const trace::Record *s = walk->steps[si];
            if (s->type ==
                static_cast<std::uint8_t>(trace::EventType::PwcHit))
                ++t.rec.pwc_hits;
            else if (trace::walkStepLevel(s->arg) >=
                     static_cast<unsigned>(vm::LevelPmd))
                ++t.rec.pwc_misses;
        }
        if (static_cast<tlb::WalkStatus>(walk->end->flags) ==
            tlb::WalkStatus::Ok) {
            ++t.rec.miss_latency_count;
            if (f & trace::flagLongL2)
                ++t.ml_long;
            t.ml_end_sum += walk->end->arg;
        }
    }

    /**
     * The invalidation a kernel-span record applies, if any.
     * CowPrivatize / MaskFallback records are informational.
     */
    static bool
    invalidationOf(const trace::Record &r, unsigned owner,
                   Invalidation &out)
    {
        vm::TlbInvalidate &inv = out.inv;
        inv.ccid = r.ccid;
        if (r.type ==
            static_cast<std::uint8_t>(trace::EventType::Shootdown)) {
            inv.kind = static_cast<vm::TlbInvalidate::Kind>(r.flags);
            inv.pcid = trace::shootdownPcid(r.arg);
            inv.size =
                static_cast<PageSize>(trace::shootdownSize(r.arg));
            inv.num_pages = trace::shootdownPages(r.arg);
            out.core = Invalidation::all_cores;
        } else if (r.type == static_cast<std::uint8_t>(
                                 trace::EventType::FaultService) &&
                   trace::faultDeclaredCow(r.arg) &&
                   static_cast<vm::FaultKind>(r.flags) ==
                       vm::FaultKind::None) {
            inv.kind = vm::TlbInvalidate::Kind::Page;
            inv.pcid = trace::faultPcid(r.arg);
            inv.size =
                static_cast<PageSize>(trace::faultStaleSize(r.arg));
            inv.num_pages = 1;
            out.core = owner;
        } else {
            return false;
        }
        inv.vpn = r.vpage >> (pageShift(inv.size) - basePageShift);
        return true;
    }

    /** Analyze one block: everything about it replay needs that does
     *  not depend on the replayed machine. */
    static Block
    analyze(unsigned n, const std::vector<trace::Record> &block)
    {
        Block sb;
        std::vector<std::size_t> counts(n, 0);
        for (const trace::Record &r : block) {
            if (r.core >= n)
                throw ReplayError("record core out of range");
            ++counts[r.core];
        }
        sb.streams.resize(n);
        for (unsigned c = 0; c < n; ++c)
            sb.streams[c].reserve(counts[c]);
        for (const trace::Record &r : block) {
            if (r.type ==
                static_cast<std::uint8_t>(trace::EventType::StatsReset)) {
                ++sb.resets;
                continue;
            }
            sb.streams[r.core].push_back(r);
        }
        // (ts, core, seq) block order filtered per core is ts-ordered
        // but the causal ground truth is the per-core seq order (seq is
        // unique per core, so the sorted order is unique too).
        auto bySeq = [](const trace::Record &a, const trace::Record &b) {
            return a.seq < b.seq;
        };
        for (auto &s : sb.streams)
            if (!std::is_sorted(s.begin(), s.end(), bySeq))
                std::sort(s.begin(), s.end(), bySeq);
        const auto &streams = sb.streams;

        // Per core: alternating exec segments and kernel spans, where a
        // span is the kernel events of one fault service (ending at its
        // FaultService record). execs[c][k] precedes spans[c][k], so
        // execs[c] has exactly one more element than spans[c].
        std::vector<std::vector<Range>> execs(n), spans(n);
        for (unsigned c = 0; c < n; ++c) {
            const auto &s = streams[c];
            std::size_t i = 0;
            while (true) {
                const std::size_t b = i;
                while (i < s.size() && !isKernelEvent(s[i].type))
                    ++i;
                execs[c].push_back({b, i});
                if (i == s.size())
                    break;
                const std::size_t kb = i;
                while (i < s.size() && isKernelEvent(s[i].type)) {
                    const bool fin =
                        s[i].type ==
                        static_cast<std::uint8_t>(
                            trace::EventType::FaultService);
                    ++i;
                    if (fin)
                        break;
                }
                spans[c].push_back({kb, i});
            }
        }

        // A core's k-th fault in a chunk is always serviced in round k
        // (one service per core per round), so index == round. Within a
        // round, spans apply in (fault ts, core) order.
        for (std::size_t round = 0;; ++round) {
            std::vector<unsigned> active;
            for (unsigned c = 0; c < n; ++c)
                if (round < spans[c].size())
                    active.push_back(c);
            if (active.empty())
                break;
            std::sort(active.begin(), active.end(),
                      [&](unsigned a, unsigned b) {
                          const Cycles ta =
                              streams[a][spans[a][round].end - 1].ts;
                          const Cycles tb =
                              streams[b][spans[b][round].end - 1].ts;
                          return ta != tb ? ta < tb : a < b;
                      });
            std::vector<Invalidation> &invs = sb.rounds.emplace_back();
            for (unsigned c : active) {
                const Range span = spans[c][round];
                for (std::size_t i = span.begin; i < span.end; ++i) {
                    Invalidation inv;
                    if (invalidationOf(streams[c][i], c, inv))
                        invs.push_back(inv);
                }
            }
        }

        // Parse every exec segment into access units up front and tally
        // the recorded-side counters, so per-sweep-point work is pure
        // model execution.
        sb.units.resize(n);
        sb.walks.resize(n);
        sb.exec_units.resize(n);
        sb.tallies.resize(n);
        for (unsigned c = 0; c < n; ++c) {
            for (const Range &e : execs[c]) {
                const std::size_t b = sb.units[c].size();
                parseExec(streams[c], e, sb.units[c], sb.walks[c]);
                sb.exec_units[c].push_back({b, sb.units[c].size()});
            }
            for (const Unit &u : sb.units[c])
                tally(sb.tallies[c], u,
                      u.walk == Unit::no_walk ? nullptr
                                              : &sb.walks[c][u.walk]);
        }
        return sb;
    }
};

struct ReplayEngine::Impl
{
    Impl(const ReplayParams &params, const trace::TraceHeader &hdr)
        : p(params), header(hdr), root("replay")
    {
        if (header.dropped_count > 0)
            throw ReplayError(
                "trace is limit-clipped (" +
                std::to_string(header.dropped_count) +
                " records dropped by BF_TRACE_LIMIT); replay needs a "
                "complete trace — re-record with a higher limit");
        const std::uint32_t required = requiredEventMask();
        if ((header.event_mask & required) != required) {
            std::string missing;
            for (unsigned t = 0; t < trace::numEventTypes; ++t) {
                if ((required & (1u << t)) &&
                    !(header.event_mask & (1u << t))) {
                    if (!missing.empty())
                        missing += ", ";
                    missing += trace::eventTypeName(
                        static_cast<trace::EventType>(t));
                }
            }
            throw ReplayError("trace event mask is missing replay-"
                              "required kinds: " + missing +
                              " — re-record with the default "
                              "BF_TRACE_EVENTS");
        }
        if (p.pwc.entries_per_level == 0 || p.pwc.levels == 0 ||
            p.pwc.assoc == 0)
            throw ReplayError("replay needs a non-degenerate PWC "
                              "geometry");
        for (unsigned c = 0; c < header.num_cores; ++c)
            cores.push_back(std::make_unique<CoreModel>(c, p, &root));
    }

    ReplayParams p;
    trace::TraceHeader header;
    stats::StatGroup root;
    std::vector<std::unique_ptr<CoreModel>> cores;

    /**
     * The schedule currently being replayed: replayCore walks its
     * blocks and synthesis consults its learned attribute/memo tables.
     * Set by run() before the per-core jobs start; read-only in them.
     */
    const ReplaySchedule::Impl *knowledge = nullptr;

    /**
     * Deterministic synthetic table base for tables the recording never
     * walked: high bit set so it can never alias a real physical
     * address, page-aligned like a real table.
     */
    static Addr
    syntheticBase(std::uint32_t pid, std::uint64_t key)
    {
        std::uint64_t h = 1469598103934665603ull;
        auto mix = [&h](std::uint64_t v) {
            for (int i = 0; i < 8; ++i) {
                h ^= (v >> (8 * i)) & 0xff;
                h *= 1099511628211ull;
            }
        };
        mix(pid);
        mix(key);
        return (h & ~std::uint64_t{0xfff}) | (std::uint64_t{1} << 63);
    }

    Addr
    memoPaddr(std::uint32_t pid, std::uint16_t ccid, Addr va, int level)
    {
        const std::uint64_t key =
            ReplaySchedule::Impl::levelBaseKey(va, level);
        if (const Addr *base = knowledge->memo_pid.find(key, pid))
            return *base + 8ull * vm::tableIndex(va, level);
        if (const Addr *base = knowledge->memo_ccid.find(key, ccid))
            return *base + 8ull * vm::tableIndex(va, level);
        return syntheticBase(pid, key) + 8ull * vm::tableIndex(va, level);
    }

    /**
     * Model a narrower O-PC bitmask: an entry whose recorded PC bitmask
     * needs a bit the narrower field cannot hold becomes a private
     * (owned) entry — the kernel's per-process fallback, approximated
     * at fill time. A no-op at the recorded 32-bit width.
     */
    void
    adjustOpcWidth(tlb::TlbEntry &e) const
    {
        if (p.opc_width >= 32)
            return;
        const std::uint32_t maskw = (1u << p.opc_width) - 1;
        if (e.orpc && (e.pc_bitmask & ~maskw)) {
            e.owned = true;
            e.orpc = false;
            e.pc_bitmask = 0;
        } else {
            e.pc_bitmask &= maskw;
        }
    }

    tlb::TlbEntry
    entryFromFill(const trace::Record *f) const
    {
        tlb::TlbEntry e;
        e.valid = true;
        e.size = static_cast<PageSize>(trace::fillSize(f->arg));
        e.vpn = (f->vpage << basePageShift) >> pageShift(e.size);
        e.ppn = 0; //!< No behavioral role in lookups or invalidations.
        e.writable = true;
        e.cow = trace::fillCow(f->arg);
        e.owned = trace::fillOwned(f->arg);
        e.orpc = trace::fillOrpc(f->arg);
        e.pc_bitmask = trace::fillBitmask(f->arg);
        adjustOpcWidth(e);
        return e;
    }

    // ---- Mirrors of the Mmu lookup/fill paths (core/mmu.cc) ----------

    tlb::TlbLookup
    lookupL1(CoreModel &cm, Addr va, bool instr, Pcid pcid, Ccid ccid,
             int process_bit)
    {
        const bool share = p.l1_sharing;
        auto probeOne = [&](tlb::Tlb &t, PageSize size) {
            const Vpn vpn = va >> pageShift(size);
            return share ? t.lookupBabelFish(vpn, ccid, pcid, process_bit)
                         : t.lookupConventional(vpn, pcid);
        };
        if (instr)
            return probeOne(*cm.l1i, PageSize::Size4K);
        for (PageSize size : {PageSize::Size4K, PageSize::Size2M,
                              PageSize::Size1G}) {
            tlb::TlbLookup lookup = probeOne(*cm.l1d[sizeIndex(size)],
                                             size);
            if (lookup.hit())
                return lookup;
        }
        return {};
    }

    tlb::TlbLookup
    lookupL2(CoreModel &cm, Addr va, Pcid pcid, Ccid ccid,
             int process_bit)
    {
        tlb::TlbLookup result;
        for (PageSize size : {PageSize::Size4K, PageSize::Size2M,
                              PageSize::Size1G}) {
            tlb::Tlb &t = *cm.l2[sizeIndex(size)];
            const Vpn vpn = va >> pageShift(size);
            tlb::TlbLookup lookup =
                p.babelfish
                    ? t.lookupBabelFish(vpn, ccid, pcid, process_bit)
                    : t.lookupConventional(vpn, pcid);
            result.bitmask_checked |= lookup.bitmask_checked;
            if (lookup.hit()) {
                lookup.bitmask_checked = result.bitmask_checked;
                return lookup;
            }
        }
        return result;
    }

    void
    fillL1(CoreModel &cm, const tlb::TlbEntry &entry, Pcid pcid,
           Ccid ccid, bool instr)
    {
        tlb::TlbEntry copy = entry;
        copy.pcid = pcid;
        copy.ccid = ccid;
        if (instr) {
            if (copy.size == PageSize::Size4K)
                cm.l1i->fill(copy, p.l1_sharing);
            return;
        }
        cm.l1d[sizeIndex(copy.size)]->fill(copy, p.l1_sharing);
    }

    void
    fillL2(CoreModel &cm, const tlb::TlbEntry &entry, Pcid pcid,
           Ccid ccid)
    {
        tlb::TlbEntry copy = entry;
        copy.ccid = ccid;
        copy.pcid = pcid;
        copy.fill_pcid = pcid;
        if (cm.store) { // Victima: park the displaced entry.
            tlb::TlbEntry evicted;
            if (cm.l2[sizeIndex(copy.size)]->fill(copy, p.babelfish,
                                                  &evicted)) {
                cm.store->insert(evicted);
                ++cm.victima_spills;
            }
            return;
        }
        cm.l2[sizeIndex(copy.size)]->fill(copy, p.babelfish);
        if (cm.detector && copy.size == PageSize::Size4K && !copy.cow &&
            !copy.orpc && copy.pc_bitmask == 0) {
            // PFN-contiguity proxy: traces record no physical frames,
            // so VA adjacency stands in for VA+PA adjacency — an
            // optimistic bound on coalescing (DESIGN.md §16).
            translate::RunDetector::Run run;
            if (cm.detector->note(pcid, copy.vpn, copy.vpn, run)) {
                cm.ranges->insert(run.base_vpn, run.base_ppn, run.len,
                                  pcid, ccid);
                ++cm.range_installs;
            }
        }
    }

    void
    applyInvalidate(CoreModel &cm, const vm::TlbInvalidate &inv)
    {
        using Kind = vm::TlbInvalidate::Kind;
        auto forEachTlb = [&](auto &&fn) {
            fn(*cm.l1i);
            for (auto &t : cm.l1d)
                fn(*t);
            for (auto &t : cm.l2)
                fn(*t);
        };
        switch (inv.kind) {
          case Kind::Page:
            forEachTlb([&](tlb::Tlb &t) {
                if (t.params().page_size == inv.size)
                    t.invalidatePage(inv.pcid, inv.vpn);
            });
            break;
          case Kind::SharedRange:
            forEachTlb([&](tlb::Tlb &t) {
                if (t.params().page_size == inv.size) {
                    t.invalidateSharedRange(inv.ccid, inv.vpn,
                                            inv.num_pages);
                } else if (inv.size == PageSize::Size4K) {
                    const int shift = pageShift(t.params().page_size) -
                                      pageShift(PageSize::Size4K);
                    const Vpn first = inv.vpn >> shift;
                    const Vpn last =
                        (inv.vpn + inv.num_pages - 1) >> shift;
                    t.invalidateSharedRange(inv.ccid, first,
                                            last - first + 1);
                }
            });
            break;
          case Kind::Pcid:
            forEachTlb([&](tlb::Tlb &t) { t.invalidatePcid(inv.pcid); });
            cm.pwc->invalidateAll();
            break;
        }
        // Backend-model structures cache translations too — shootdowns
        // must reach them (same rules as the full-sim backends).
        if (cm.store)
            cm.store->invalidate(inv);
        if (cm.ranges) {
            cm.ranges->invalidate(inv);
            cm.detector->clear();
        }
    }

    // ---- Walk re-execution -------------------------------------------

    WalkOutcome
    replayRecordedWalk(CoreModel &cm, const WalkInfo &w)
    {
        WalkOutcome out;
        bool concordant = true;
        Cycles cycles = 0;
        for (unsigned si = 0; si < w.num_steps; ++si) {
            const trace::Record *s = w.steps[si];
            const auto level =
                static_cast<int>(trace::walkStepLevel(s->arg));
            const Addr paddr = trace::walkStepPaddr(s->arg);
            const bool rec_pwc_hit =
                s->type ==
                static_cast<std::uint8_t>(trace::EventType::PwcHit);
            if (level >= vm::LevelPmd) {
                const bool hit = cm.pwc->lookup(level, paddr);
                if (hit) {
                    cycles += cm.pwc->accessCycles();
                } else {
                    // A step the recording served from its PWC has no
                    // recorded memory level; assume L2 (tables are hot).
                    const unsigned ml =
                        rec_pwc_hit ? 1u
                                    : std::min<unsigned>(s->flags, 3u);
                    cycles += p.mem_level_cycles[ml];
                    ++cm.mem_steps;
                    cm.pwc->fill(level, paddr);
                }
                concordant &= hit == rec_pwc_hit;
            } else {
                cycles += p.mem_level_cycles[std::min<unsigned>(s->flags,
                                                                3u)];
                ++cm.mem_steps;
            }
        }
        const auto status = static_cast<tlb::WalkStatus>(w.end->flags);
        out.ok = status == tlb::WalkStatus::Ok;
        // When the replayed PWC behaved exactly like the recording the
        // recorded cycle count is exact (it includes effects replay
        // cannot see, like the parallel O-PC mask fetch's excess).
        out.cycles = concordant ? w.end->arg : cycles;
        if (out.ok)
            out.fill = entryFromFill(w.fill);
        return out;
    }

    WalkOutcome
    synthesizeWalk(CoreModel &cm, const ReplaySchedule::Impl::Unit &att,
                   Addr va, Pcid pcid, Ccid ccid, bool is_write)
    {
        ++cm.synth_walks;
        // Find the leaf attributes the recording's hit entry carried,
        // probing the same size order as the TLB lookups.
        const LeafAttr *attr = nullptr;
        PageSize size = PageSize::Size4K;
        for (PageSize s : {PageSize::Size4K, PageSize::Size2M,
                           PageSize::Size1G}) {
            const Vpn vpn = va >> pageShift(s);
            if (const LeafAttr *a =
                    knowledge->attr_owned[sizeIndex(s)].find(vpn, pcid)) {
                attr = a;
                size = s;
                break;
            }
            if (const LeafAttr *a =
                    knowledge->attr_shared[sizeIndex(s)].find(vpn, ccid)) {
                attr = a;
                size = s;
                break;
            }
        }
        if (!attr)
            throw ReplayError(
                "recording hit a translation that was never filled in "
                "this trace (va page " + std::to_string(att.vpage) +
                "); replay requires cold-start traces — re-record "
                "without BF_RESTORE");

        WalkOutcome out;
        const int leaf = leafLevel(size);
        for (int level = vm::LevelPgd; level >= leaf; --level) {
            const Addr paddr = memoPaddr(att.pid, ccid, va, level);
            if (level >= vm::LevelPmd) {
                if (cm.pwc->lookup(level, paddr)) {
                    out.cycles += cm.pwc->accessCycles();
                } else {
                    out.cycles += p.mem_level_cycles[1];
                    ++cm.mem_steps;
                    cm.pwc->fill(level, paddr);
                }
            } else {
                out.cycles += p.mem_level_cycles[1];
                ++cm.mem_steps;
            }
        }
        // A write that the recording resolved as a CoW fault (or whose
        // leaf is CoW) walks but does not fill; the fault service and
        // retry stream are fixed by the trace.
        if (is_write &&
            (attr->cow || (att.flags & trace::flagCowFault))) {
            out.ok = false;
            return out;
        }
        out.ok = true;
        out.fill.valid = true;
        out.fill.size = size;
        out.fill.vpn = va >> pageShift(size);
        out.fill.ppn = 0;
        out.fill.writable = true;
        out.fill.cow = attr->cow;
        out.fill.owned = attr->owned;
        out.fill.orpc = attr->orpc;
        out.fill.pc_bitmask = attr->pc_bitmask;
        adjustOpcWidth(out.fill);
        return out;
    }

    // ---- One translate attempt, mirrored ------------------------------

    void
    applyAttempt(CoreModel &cm, const ReplaySchedule::Impl::Unit &att,
                 const WalkInfo *walk)
    {
        const std::uint8_t f = att.flags;
        const bool instr = f & trace::flagInstr;
        const bool is_write = f & trace::flagWrite;
        const Pcid pcid = att.pcid;
        int process_bit = att.process_bit;
        if (process_bit >= static_cast<int>(p.opc_width))
            process_bit = -1; // Bit unassignable at a narrower O-PC.
        const Ccid ccid = att.ccid;
        const Addr va = att.vpage << basePageShift;
        ++cm.accesses;

        tlb::TlbLookup l1 = lookupL1(cm, va, instr, pcid, ccid,
                                     process_bit);
        Cycles cycles = 1;
        if (l1.hit()) {
            if (is_write && l1.entry->cow)
                return; // CoW fault declared: no hit counted, no refill.
            ++cm.l1_hits;
            return;
        }
        ++cm.l1_misses;
        if (p.babelfish && p.aslr_hw)
            cycles += p.aslr_transform_cycles;

        tlb::TlbLookup l2 = lookupL2(cm, va, pcid, ccid, process_bit);
        const bool long_access =
            l2.bitmask_checked || (p.force_long_l2 && p.babelfish);
        cycles += p.l2_4k.access_cycles +
                  (long_access ? p.l2_4k.bitmask_extra_cycles : 0);
        if (long_access)
            ++cm.l2_long_accesses;
        if (l2.hit()) {
            if (instr) {
                ++cm.l2_instr_hits;
                if (l2.shared_hit)
                    ++cm.l2_instr_shared_hits;
            } else {
                ++cm.l2_data_hits;
                if (l2.shared_hit)
                    ++cm.l2_data_shared_hits;
            }
            if (is_write && l2.entry->cow)
                return; // CoW fault: no L1 refill.
            fillL1(cm, *l2.entry, pcid, ccid, instr);
            return;
        }
        // Coalesced: a covering range counts as an L2 hit (the range
        // structure is probed alongside the L2 at no extra cycles).
        if (cm.ranges) {
            if (const translate::RangeEntry *r =
                    cm.ranges->lookup(att.vpage, pcid)) {
                ++cm.range_hits;
                if (instr)
                    ++cm.l2_instr_hits;
                else
                    ++cm.l2_data_hits;
                tlb::TlbEntry e;
                e.valid = true;
                e.vpn = att.vpage;
                e.ppn = r->base_ppn + (att.vpage - r->base_vpn);
                e.size = PageSize::Size4K;
                e.pcid = pcid;
                e.ccid = ccid;
                e.writable = true;
                e.owned = true;
                e.fill_pcid = pcid;
                fillL1(cm, e, pcid, ccid, instr);
                return;
            }
        }
        if (instr)
            ++cm.l2_instr_misses;
        else
            ++cm.l2_data_misses;

        // Victima: probe the backing store before walking. A hit bills
        // the L2 data-array latency and skips the walk entirely.
        if (cm.store) {
            for (PageSize size : {PageSize::Size4K, PageSize::Size2M,
                                  PageSize::Size1G}) {
                std::size_t slot = 0;
                const tlb::TlbEntry *e = cm.store->probe(
                    va >> pageShift(size), size, pcid, ccid, p.babelfish,
                    process_bit, &slot);
                if (!e)
                    continue;
                if (is_write && e->cow)
                    break; // must fault: fall through to the walk
                cycles += p.mem_level_cycles[1];
                cm.miss_latency.sample(cycles);
                tlb::TlbEntry recovered = *e;
                recovered.lru = 0;
                cm.store->erase(slot);
                ++cm.victima_hits;
                fillL2(cm, recovered, pcid, ccid);
                fillL1(cm, recovered, pcid, ccid, instr);
                return;
            }
        }

        ++cm.walks;
        WalkOutcome w = walk ? replayRecordedWalk(cm, *walk)
                             : synthesizeWalk(cm, att, va, pcid, ccid,
                                              is_write);
        cycles += w.cycles;
        if (w.ok) {
            cm.miss_latency.sample(cycles);
            fillL2(cm, w.fill, pcid, ccid);
            // fillL1 from the walk template keeps the template's
            // fill_pcid (0), exactly like Mmu::fillL1(walk.fill).
            fillL1(cm, w.fill, pcid, ccid, instr);
        }
    }

    // ---- Exec segments ------------------------------------------------

    void
    processExec(CoreModel &cm, unsigned c,
                const ReplaySchedule::Impl::Block &sb, std::size_t seg)
    {
        const auto range = sb.exec_units[c][seg];
        const auto &units = sb.units[c];
        const auto &walks = sb.walks[c];
        for (std::size_t i = range.begin; i < range.end; ++i)
            applyAttempt(
                cm, units[i],
                units[i].walk == ReplaySchedule::Impl::Unit::no_walk
                    ? nullptr
                    : &walks[units[i].walk]);
    }

    // ---- Per-core replay loop -----------------------------------------

    /**
     * Replay core @p c's whole history. Cores are independent here: a
     * core's TLBs, PWC and backend structures are touched only by its
     * own exec segments and by the recorded invalidations that reach it,
     * and the trace fixes both. So each core follows, per block, the
     * recording's order as that core saw it — stats resets, its bound
     * segment, then each fault-service round's invalidations that reach
     * it, in (fault ts, core) span order, followed by its own resumed
     * segment — and any number of cores can run this concurrently, one
     * thread each (DESIGN.md §13).
     */
    void
    replayCore(unsigned c)
    {
        CoreModel &cm = *cores[c];
        const Cycles walk_entry_cycles =
            1 + (p.babelfish && p.aslr_hw ? p.aslr_transform_cycles : 0) +
            p.l2_4k.access_cycles;
        for (const auto &sb : knowledge->blocks) {
            // System::resetStats happens between chunks; its marker
            // leads the next block, so it applies before any event.
            for (unsigned i = 0; i < sb.resets; ++i)
                cm.resetStats();

            // The recorded-side tallies were accumulated when the
            // schedule was built (they are config-independent); only
            // the miss-latency sum folds in configured per-access costs.
            const auto &t = sb.tallies[c];
            Counters d = t.rec;
            d.miss_latency_sum = t.rec.miss_latency_count * walk_entry_cycles +
                                 t.ml_long * p.l2_4k.bitmask_extra_cycles +
                                 t.ml_end_sum;
            cm.rec += d;

            processExec(cm, c, sb, 0);
            for (std::size_t round = 0; round < sb.rounds.size(); ++round) {
                for (const auto &i : sb.rounds[round])
                    if (i.core == c ||
                        i.core == ReplaySchedule::Impl::Invalidation::
                                      all_cores)
                        applyInvalidate(cm, i.inv);
                if (round + 1 < sb.exec_units[c].size())
                    processExec(cm, c, sb, round + 1);
            }
        }
    }

    Counters
    replayedOf(const CoreModel &cm) const
    {
        Counters c;
        c.accesses = cm.accesses.value();
        c.l1_hits = cm.l1_hits.value();
        c.l1_misses = cm.l1_misses.value();
        c.l2_data_hits = cm.l2_data_hits.value();
        c.l2_data_misses = cm.l2_data_misses.value();
        c.l2_instr_hits = cm.l2_instr_hits.value();
        c.l2_instr_misses = cm.l2_instr_misses.value();
        c.l2_data_shared_hits = cm.l2_data_shared_hits.value();
        c.l2_instr_shared_hits = cm.l2_instr_shared_hits.value();
        c.l2_long_accesses = cm.l2_long_accesses.value();
        c.walks = cm.walks.value();
        c.pwc_hits = cm.pwc->hits.value();
        c.pwc_misses = cm.pwc->misses.value();
        c.miss_latency_count = cm.miss_latency.count();
        c.miss_latency_sum = cm.miss_latency.sum();
        return c;
    }
};

ReplayEngine::ReplayEngine(const ReplayParams &params,
                           const trace::TraceHeader &header)
    : impl_(std::make_unique<Impl>(params, header))
{
}

ReplayEngine::~ReplayEngine() = default;

void
ReplayEngine::run(trace::TraceReader &reader)
{
    std::vector<std::vector<trace::Record>> blocks;
    {
        std::vector<trace::Record> block;
        while (reader.nextBlock(block))
            blocks.push_back(std::move(block));
    }
    const ReplaySchedule schedule(impl_->header, std::move(blocks));
    run(schedule);
    impl_->knowledge = nullptr; // The local schedule dies here.
}

void
ReplayEngine::run(const ReplaySchedule &schedule, unsigned threads)
{
    if (schedule.numCores() != numCores())
        throw ReplayError("schedule was built for a different core "
                          "count than this engine's trace header");
    impl_->knowledge = schedule.impl_.get();
    runParallel(numCores(), threads ? threads : defaultWorkers(),
                [this](std::size_t c) {
                    impl_->replayCore(static_cast<unsigned>(c));
                });
}

ReplaySchedule::ReplaySchedule(
    const trace::TraceHeader &header,
    const std::vector<std::vector<trace::Record>> &blocks)
    : ReplaySchedule(header,
                     std::vector<std::vector<trace::Record>>(blocks))
{
}

ReplaySchedule::ReplaySchedule(
    const trace::TraceHeader &header,
    std::vector<std::vector<trace::Record>> &&blocks)
    : impl_(std::make_unique<Impl>())
{
    impl_->num_cores = header.num_cores;
    impl_->babelfish = header.config.babelfish;
    // analyze() copies each block's records into per-core streams, so
    // each decoded block is freed as soon as it has been analyzed.
    std::vector<std::vector<trace::Record>> decoded = std::move(blocks);
    impl_->blocks.reserve(decoded.size());
    for (auto &block : decoded) {
        impl_->blocks.push_back(Impl::analyze(header.num_cores, block));
        impl_->learn(block);
        std::vector<trace::Record>().swap(block);
    }
}

ReplaySchedule::~ReplaySchedule() = default;

unsigned
ReplaySchedule::numCores() const
{
    return impl_->num_cores;
}

unsigned
ReplayEngine::numCores() const
{
    return static_cast<unsigned>(impl_->cores.size());
}

Counters
ReplayEngine::replayed(unsigned core) const
{
    return impl_->replayedOf(*impl_->cores.at(core));
}

Counters
ReplayEngine::recorded(unsigned core) const
{
    return impl_->cores.at(core)->rec;
}

Counters
ReplayEngine::replayedTotal() const
{
    Counters total;
    for (const auto &cm : impl_->cores)
        total += impl_->replayedOf(*cm);
    return total;
}

Counters
ReplayEngine::recordedTotal() const
{
    Counters total;
    for (const auto &cm : impl_->cores)
        total += cm->rec;
    return total;
}

std::vector<CounterDiff>
ReplayEngine::validate() const
{
    std::vector<CounterDiff> diffs;
    for (unsigned c = 0; c < numCores(); ++c) {
        const Counters rep = replayed(c);
        const Counters rec = recorded(c);
        auto check = [&](const char *name, std::uint64_t recorded_v,
                         std::uint64_t replayed_v) {
            if (recorded_v != replayed_v)
                diffs.push_back({"core" + std::to_string(c) + "." + name,
                                 c, recorded_v, replayed_v});
        };
        check("l1_hits", rec.l1_hits, rep.l1_hits);
        check("l1_misses", rec.l1_misses, rep.l1_misses);
        check("l2_data_hits", rec.l2_data_hits, rep.l2_data_hits);
        check("l2_data_misses", rec.l2_data_misses, rep.l2_data_misses);
        check("l2_instr_hits", rec.l2_instr_hits, rep.l2_instr_hits);
        check("l2_instr_misses", rec.l2_instr_misses,
              rep.l2_instr_misses);
        check("l2_data_shared_hits", rec.l2_data_shared_hits,
              rep.l2_data_shared_hits);
        check("l2_instr_shared_hits", rec.l2_instr_shared_hits,
              rep.l2_instr_shared_hits);
        check("l2_long_accesses", rec.l2_long_accesses,
              rep.l2_long_accesses);
        check("walks", rec.walks, rep.walks);
        check("pwc_hits", rec.pwc_hits, rep.pwc_hits);
        check("pwc_misses", rec.pwc_misses, rep.pwc_misses);
        check("miss_latency_count", rec.miss_latency_count,
              rep.miss_latency_count);
        check("miss_latency_sum", rec.miss_latency_sum,
              rep.miss_latency_sum);
    }
    return diffs;
}

std::string
ReplayEngine::statsJson() const
{
    return stats::toJsonString(impl_->root);
}

} // namespace bf::replay
