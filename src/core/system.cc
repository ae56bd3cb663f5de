#include "core/system.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>

#include "common/logging.hh"
#include "common/snapshot.hh"

namespace bf::core
{

namespace
{

/**
 * Capture the translation-relevant machine configuration into the trace
 * header so the file is self-describing for replay (DESIGN.md §13).
 */
trace::TraceConfig
traceConfig(const SystemParams &params)
{
    trace::TraceConfig cfg;
    const MmuParams &mp = params.mmu;
    const tlb::TlbParams *tlbs[trace::traceNumTlbs] = {
        &mp.l1i_4k, &mp.l1d_4k, &mp.l1d_2m, &mp.l1d_1g,
        &mp.l2_4k, &mp.l2_2m, &mp.l2_1g,
    };
    for (unsigned i = 0; i < trace::traceNumTlbs; ++i) {
        const tlb::TlbParams &tp = *tlbs[i];
        trace::TraceTlbConfig &out = cfg.tlb[i];
        out.entries = tp.entries;
        out.assoc = static_cast<std::uint16_t>(tp.assoc);
        out.access_cycles = static_cast<std::uint16_t>(tp.access_cycles);
        out.bitmask_extra_cycles =
            static_cast<std::uint16_t>(tp.bitmask_extra_cycles);
        out.policy = static_cast<std::uint8_t>(tp.policy);
    }
    cfg.pwc_entries_per_level = mp.pwc.entries_per_level;
    cfg.pwc_assoc = static_cast<std::uint16_t>(mp.pwc.assoc);
    cfg.pwc_levels = static_cast<std::uint16_t>(mp.pwc.levels);
    cfg.pwc_access_cycles =
        static_cast<std::uint16_t>(mp.pwc.access_cycles);
    cfg.aslr_transform_cycles =
        static_cast<std::uint16_t>(mp.aslr_transform_cycles);
    cfg.babelfish = mp.babelfish;
    cfg.l1_sharing = mp.l1Sharing();
    cfg.force_long_l2 = mp.force_long_l2 && mp.babelfish;
    cfg.aslr_hw = mp.aslr == vm::AslrMode::Hw;
    cfg.opc_width =
        static_cast<std::uint8_t>(params.kernel.max_cow_writers);
    cfg.backend = static_cast<std::uint8_t>(mp.backend);
    return cfg;
}

} // namespace

System::System(const SystemParams &params)
    : params_(params), stat_group_("system")
{
    bf_assert(params_.kernel.babelfish || !params_.mmu.l1Sharing(),
              "L1 sharing requires BabelFish kernel");
    bf_assert(params_.sync_chunk > 0, "sync_chunk must be > 0");
    // Keep MMU and kernel ASLR config coherent.
    params_.mmu.aslr = params_.kernel.aslr;

    kernel_ = std::make_unique<vm::Kernel>(params_.kernel, &stat_group_);
    hierarchy_ = std::make_unique<mem::CacheHierarchy>(
        params_.mem, params_.num_cores, &stat_group_);
    for (unsigned i = 0; i < params_.num_cores; ++i) {
        cores_.push_back(std::make_unique<Core>(
            i, params_.core, params_.mmu, *hierarchy_, *kernel_,
            &stat_group_));
        epoch_logs_.push_back(std::make_unique<EpochLog>());
        cores_[i]->setEpochLog(epoch_logs_[i].get());
        hierarchy_->setEpochLog(i, epoch_logs_[i].get());
    }

    if (params_.attrib) {
        attrib_ = std::make_unique<attrib::Registry>(&stat_group_,
                                                     params_.num_cores);
        kernel_->setAttribRegistry(attrib_.get());
        for (unsigned i = 0; i < params_.num_cores; ++i)
            cores_[i]->setAttrib(attrib_.get(), attrib_->sink(i));
    }

    // More bound workers than cores cannot help. The pool serves only
    // the bound phase, so every round uses all of it.
    const unsigned bound_workers = std::min<unsigned>(
        std::max(1u, params_.workers), params_.num_cores);
    pool_ = std::make_unique<BoundPool>(bound_workers - 1);

    for (auto &core : cores_)
        backends_.push_back(&core->mmu().backend());
    kernel_->setTlbInvalidateHook(
        [this](const vm::TlbInvalidate &inv) { broadcastInvalidate(inv); });

    if (!params_.trace_path.empty()) {
        tracer_ = std::make_unique<trace::Tracer>(
            params_.trace_path, params_.num_cores, params_.trace_events,
            params_.trace_limit, traceConfig(params_));
        if (tracer_->ok()) {
            kernel_->setTracer(tracer_.get());
            for (auto &core : cores_)
                core->mmu().setTracer(tracer_.get());
            if (attrib_)
                tracer_->setSlotLookup([this](std::uint32_t pid) {
                    return attrib_->slotOfPid(pid);
                });
        } else {
            tracer_.reset();
        }
    }

    stat_group_.addStat("run_capped", &run_capped);
}

void
System::broadcastInvalidate(const vm::TlbInvalidate &inv)
{
    for (translate::Backend *backend : backends_) {
        if (backend->mayHold(inv))
            backend->applyInvalidate(inv);
    }
}

void
System::runChunk(Cycles barrier)
{
    using hostclock = std::chrono::steady_clock;
    const auto elapsed = [](hostclock::time_point from,
                            hostclock::time_point to) {
        return std::chrono::duration<double>(to - from).count();
    };

    for (auto &log : epoch_logs_)
        log->activate();

    // Bound: every core advances to the barrier on its own worker,
    // touching only per-core-private state. Cores that hit a page fault
    // suspend early with the fault parked in their log.
    const auto t_bound = hostclock::now();
    pool_->run(numCores(),
               [&](unsigned i) { cores_[i]->runUntil(barrier); });
    const auto t_fault = hostclock::now();
    phase_times_.bound_seconds += elapsed(t_bound, t_fault);

    // Service deferred faults single-threaded in (fault time, core)
    // order, then resume the suspended cores inline; they may fault
    // again, so iterate until every core reaches the barrier. No core
    // is executing here, so the kernel may mutate page tables and
    // broadcast shootdowns freely. Faults of one round are a service
    // batch: the kernel may memoize VMA/table lookups across them
    // (vm/kernel.hh), which same-region fault storms amortize.
    std::optional<vm::FaultBatch> batch(std::in_place, *kernel_);
    for (;;) {
        pending_faults_.clear();
        for (unsigned c = 0; c < numCores(); ++c) {
            if (epoch_logs_[c]->faultPending())
                pending_faults_.push_back(
                    {epoch_logs_[c]->faultTime(), c});
        }
        if (pending_faults_.empty())
            break;
        std::sort(pending_faults_.begin(), pending_faults_.end(),
                  [](const PendingFault &a, const PendingFault &b) {
                      return a.ts != b.ts ? a.ts < b.ts
                                          : a.core < b.core;
                  });

        for (const auto &pf : pending_faults_) {
            EpochLog &log = *epoch_logs_[pf.core];
            const vm::DeferredFault fault = log.fault();
            log.clearFault();

            if (tracer_)
                tracer_->setKernelContext(pf.core, pf.ts);
            const auto outcome = kernel_->serviceFault(fault);
            bf_assert(outcome.kind != vm::FaultKind::Protection,
                      "protection fault at va=", fault.canonical_va,
                      " pid=", fault.proc->pid());
            if (tracer_) {
                tracer_->record(
                    pf.core, trace::EventType::FaultService, pf.ts,
                    fault.proc->ccid(), fault.proc->pid(),
                    fault.canonical_va,
                    trace::packFault(
                        outcome.cycles, fault.proc->pcid(),
                        static_cast<unsigned>(fault.stale_size),
                        fault.declared_cow),
                    static_cast<std::uint8_t>(outcome.kind));
                tracer_->clearKernelContext();
            }

            Mmu &mmu = cores_[pf.core]->mmu();
            if (fault.declared_cow &&
                outcome.kind == vm::FaultKind::None) {
                // Raced fill: a sibling resolved the page between this
                // core's TLB fill and the fault — only this core's TLB
                // copy is stale (the serial path shoots it down too).
                mmu.applyInvalidate(
                    {vm::TlbInvalidate::Kind::Page, fault.proc->ccid(),
                     fault.proc->pcid(),
                     fault.canonical_va >> pageShift(fault.stale_size),
                     1, fault.stale_size});
            }
            mmu.noteDeferredFault(*fault.proc, outcome,
                                  fault.declared_cow);
            cores_[pf.core]->resolveFault(outcome.cycles);
        }

        // Resume inline: the handful of unblocked cores re-issue their
        // stalled references (pool dispatch per fault would cost more
        // than it parallelizes).
        for (const auto &pf : pending_faults_)
            cores_[pf.core]->runUntil(barrier);
    }
    batch.reset();
    const auto t_weave = hostclock::now();
    phase_times_.fault_seconds += elapsed(t_fault, t_weave);

    for (auto &log : epoch_logs_)
        log->deactivate();
    weave();
    // Fold the per-core attribution sinks at the barrier: single-
    // threaded, fixed core order, so per-tenant totals are canonical
    // and complete whenever the system is observable from outside.
    drainAttrib();
    maybeWriteTop();
    // Flush after the weave so every chunk appends exactly one
    // canonically ordered block (see common/trace/trace.hh).
    if (tracer_)
        tracer_->flushBarrier();
}

void
System::drainAttrib() const
{
    if (!attrib_)
        return;
    for (auto &core : cores_)
        core->flushAttribWindow();
    attrib_->drain();
}

void
System::weave()
{
    using hostclock = std::chrono::steady_clock;

    // Merge: the per-core logs are already (ts, seq)-sorted, so a
    // linear k-way ladder reproduces the canonical (ts, core, seq)
    // order the historical global sort produced — see core/epoch.hh.
    // The key is unique, so the replay order — and with it every
    // L3/DRAM stat, LRU update and fill — is independent of how bound
    // work was scheduled onto host threads.
    const auto t_merge = hostclock::now();
    mergeEpochLogs(epoch_logs_, weave_stream_,
                   hierarchy_->coherenceActive());
    for (auto &log : epoch_logs_)
        log->clearEvents();
    const auto t_weave = hostclock::now();
    phase_times_.merge_seconds +=
        std::chrono::duration<double>(t_weave - t_merge).count();
    if (weave_stream_.empty())
        return;

    // Per-tenant DRAM-excess bills: sized at weave time, after every
    // fault window of the chunk, so any slot a logged event can carry
    // already exists.
    core_excess_.assign(numCores(), {});
    slot_excess_.assign(attrib_ ? attrib_->numTenants() : 0, {});
    hierarchy_->weave(weave_stream_, core_excess_, slot_excess_);

    // Bill the DRAM excess per core, then per issuing tenant, in fixed
    // index order.
    for (unsigned c = 0; c < numCores(); ++c) {
        const mem::DramExcess &e = core_excess_[c];
        if (e.data || e.walk)
            cores_[c]->applyWeaveAdjustment(e.data, e.walk);
    }
    for (std::size_t t = 0; t < slot_excess_.size(); ++t) {
        const mem::DramExcess &e = slot_excess_[t];
        if (e.data)
            attrib_->addDramExtra(static_cast<int>(t), false, e.data);
        if (e.walk)
            attrib_->addDramExtra(static_cast<int>(t), true, e.walk);
    }
    phase_times_.weave_seconds +=
        std::chrono::duration<double>(hostclock::now() - t_weave)
            .count();
}

void
System::enableSampling(Cycles interval)
{
    if (sampler_.names().empty()) {
        auto sumMmu = [this](auto member) {
            return [this, member]() {
                std::uint64_t total = 0;
                for (const auto &core : cores_)
                    total += (core->mmu().*member).value();
                return total;
            };
        };
        sampler_.addProbe("instructions", [this] {
            return totalInstructions();
        });
        sampler_.addProbe("l2_tlb_data_hits",
                          sumMmu(&Mmu::l2_data_hits));
        sampler_.addProbe("l2_tlb_data_misses",
                          sumMmu(&Mmu::l2_data_misses));
        sampler_.addProbe("l2_tlb_instr_hits",
                          sumMmu(&Mmu::l2_instr_hits));
        sampler_.addProbe("l2_tlb_instr_misses",
                          sumMmu(&Mmu::l2_instr_misses));
        sampler_.addProbe("l2_tlb_shared_hits", [this] {
            return totalL2TlbSharedHits(false) + totalL2TlbSharedHits(true);
        });
        sampler_.addProbe("walks", [this] {
            std::uint64_t total = 0;
            for (const auto &core : cores_)
                total += core->mmu().walker().walks.value();
            return total;
        });
        sampler_.addProbe("walk_cycles", [this] {
            std::uint64_t total = 0;
            for (const auto &core : cores_)
                total += core->mmu().walker().walk_cycles.value();
            return total;
        });
        sampler_.addProbe("l2_cache_misses", [this] {
            std::uint64_t total = 0;
            for (unsigned c = 0; c < numCores(); ++c)
                total += hierarchy_->l2(c).misses.value();
            return total;
        });
        sampler_.addProbe("l3_misses", [this] {
            return hierarchy_->l3().misses.value();
        });
        sampler_.addProbe("dram_reads", [this] {
            return hierarchy_->dram().reads.value();
        });
        sampler_.addProbe("minor_faults", [this] {
            return kernel_->minor_faults.value();
        });
        sampler_.addProbe("cow_faults", [this] {
            return kernel_->cow_faults.value();
        });
        if (attrib_) {
            // Headline interference series: L2 TLB evictions whose
            // aggressor and victim sit in different CCID groups.
            sampler_.addProbe("cross_l2_evictions", [this] {
                return attrib_->crossL2Evictions();
            });
        }
    }
    sampler_.setInterval(interval);
}

void
System::addThread(unsigned core, Thread *thread)
{
    bf_assert(core < cores_.size(), "core out of range");
    cores_[core]->addThread(thread);
}

void
System::run(Cycles duration)
{
    Cycles start = 0;
    for (const auto &core : cores_)
        start = std::max(start, core->now());
    const Cycles end = start + duration;

    Cycles barrier = start;
    while (barrier < end) {
        barrier = std::min(barrier + params_.sync_chunk, end);
        runChunk(barrier);
        sampler_.observe(barrier);
        maybeAutosave(barrier);
    }
}

void
System::runUntilFinished(Cycles max_cycles)
{
    Cycles start = 0;
    for (const auto &core : cores_)
        start = std::max(start, core->now());
    const Cycles end = start + max_cycles;

    Cycles barrier = start;
    while (barrier < end) {
        bool any_busy = false;
        for (const auto &core : cores_) {
            if (core->busy()) {
                any_busy = true;
                break;
            }
        }
        if (!any_busy)
            return;
        barrier = std::min(barrier + params_.sync_chunk, end);
        runChunk(barrier);
        sampler_.observe(barrier);
        maybeAutosave(barrier);
    }
    ++run_capped;
    warn("runUntilFinished hit the cycle cap");
}

bool
System::saveCheckpoint(const std::string &path) const
{
    snap::ArchiveWriter ar;

    // MANI: enough of the configuration and topology to recognize —
    // before any state is mutated — that this archive belongs to a
    // differently built world. Everything here is validated field by
    // field in restoreCheckpoint().
    ar.beginSection("MANI");
    ar.u32(params_.num_cores);
    ar.u64(params_.sync_chunk);
    ar.u64(params_.seed);
    const vm::KernelParams &kp = params_.kernel;
    ar.b(kp.babelfish);
    ar.u32(static_cast<std::uint32_t>(kp.max_share_level));
    ar.b(kp.thp);
    ar.u32(kp.max_cow_writers);
    ar.u8(static_cast<std::uint8_t>(kp.aslr));
    ar.u64(kp.mem_frames);
    const MmuParams &mp = params_.mmu;
    ar.b(mp.babelfish);
    ar.u8(static_cast<std::uint8_t>(mp.aslr));
    ar.u64(mp.aslr_transform_cycles);
    ar.b(mp.force_long_l2);
    ar.u8(static_cast<std::uint8_t>(mp.backend));
    ar.b(params_.attrib);
    const CoreParams &cp = params_.core;
    ar.f64(cp.base_cpi);
    ar.u64(cp.quantum);
    ar.u64(cp.context_switch_cycles);
    for (const auto &core : cores_)
        ar.u32(static_cast<std::uint32_t>(core->threads().size()));
    const auto procs = kernel_->processes();
    ar.u32(static_cast<std::uint32_t>(procs.size()));
    for (const vm::Process *proc : procs)
        ar.u32(proc->pid());
    ar.u64(kernel_->objectCount());
    const auto ccids = kernel_->groupCcids();
    ar.u32(static_cast<std::uint32_t>(ccids.size()));
    for (const Ccid ccid : ccids)
        ar.u16(ccid);
    ar.endSection();

    ar.beginSection("KERN");
    kernel_->save(ar);
    ar.endSection();

    ar.beginSection("MEMH");
    hierarchy_->save(ar);
    ar.endSection();

    for (const auto &core : cores_) {
        ar.beginSection("CORE");
        core->save(ar);
        ar.endSection();
    }

    ar.beginSection("THRD");
    for (const auto &core : cores_) {
        for (const Thread *thread : core->threads())
            thread->saveState(ar);
    }
    ar.endSection();

    ar.beginSection("SAMP");
    sampler_.save(ar);
    ar.endSection();

    // Sinks are drained at every chunk barrier, but direct translate()
    // calls outside run() (tests) may leave booked-but-undrained lanes
    // or an open per-core window; fold them so the STAT section holds
    // the complete totals.
    drainAttrib();
    ar.beginSection("STAT");
    stat_group_.saveStats(ar);
    ar.endSection();

    return ar.writeFile(path);
}

bool
System::restoreCheckpoint(const std::string &path)
{
    std::optional<snap::ArchiveReader> reader;
    try {
        reader.emplace(snap::ArchiveReader::fromFile(path));
    } catch (const snap::SnapshotError &err) {
        warn("checkpoint rejected (", path, "): ", err.what(),
             " — cold start");
        return false;
    }
    snap::ArchiveReader &ar = *reader;

    // Until `mutating` flips, any mismatch leaves the system untouched
    // and the caller falls back to a cold start. After it flips, partial
    // state has been overwritten, so a decode error is fatal.
    bool mutating = false;
    try {
        const auto ck = [](bool ok, const char *what) {
            if (!ok) {
                throw snap::SnapshotError(
                    std::string("manifest mismatch: ") + what);
            }
        };
        ar.enterSection("MANI");
        ck(ar.u32() == params_.num_cores, "num_cores");
        ck(ar.u64() == params_.sync_chunk, "sync_chunk");
        ck(ar.u64() == params_.seed, "seed");
        const vm::KernelParams &kp = params_.kernel;
        ck(ar.b() == kp.babelfish, "kernel.babelfish");
        ck(ar.u32() == static_cast<std::uint32_t>(kp.max_share_level),
           "kernel.max_share_level");
        ck(ar.b() == kp.thp, "kernel.thp");
        ck(ar.u32() == kp.max_cow_writers, "kernel.max_cow_writers");
        ck(ar.u8() == static_cast<std::uint8_t>(kp.aslr), "kernel.aslr");
        ck(ar.u64() == kp.mem_frames, "kernel.mem_frames");
        const MmuParams &mp = params_.mmu;
        ck(ar.b() == mp.babelfish, "mmu.babelfish");
        ck(ar.u8() == static_cast<std::uint8_t>(mp.aslr), "mmu.aslr");
        ck(ar.u64() == mp.aslr_transform_cycles,
           "mmu.aslr_transform_cycles");
        ck(ar.b() == mp.force_long_l2, "mmu.force_long_l2");
        ck(ar.u8() == static_cast<std::uint8_t>(mp.backend),
           "mmu.backend");
        ck(ar.b() == params_.attrib, "attrib");
        const CoreParams &cp = params_.core;
        ck(ar.f64() == cp.base_cpi, "core.base_cpi");
        ck(ar.u64() == cp.quantum, "core.quantum");
        ck(ar.u64() == cp.context_switch_cycles,
           "core.context_switch_cycles");
        for (const auto &core : cores_) {
            ck(ar.u32() == core->threads().size(),
               "per-core thread count");
        }
        const auto procs = kernel_->processes();
        ck(ar.u32() == procs.size(), "process count");
        for (const vm::Process *proc : procs)
            ck(ar.u32() == proc->pid(), "process pids");
        ck(ar.u64() == kernel_->objectCount(), "object count");
        const auto ccids = kernel_->groupCcids();
        ck(ar.u32() == ccids.size(), "group count");
        for (const Ccid ccid : ccids)
            ck(ar.u16() == ccid, "group ccids");
        ar.exitSection();

        mutating = true;

        ar.enterSection("KERN");
        kernel_->restore(ar);
        ar.exitSection();

        ar.enterSection("MEMH");
        hierarchy_->restore(ar);
        ar.exitSection();

        for (auto &core : cores_) {
            ar.enterSection("CORE");
            core->restore(ar);
            ar.exitSection();
        }

        ar.enterSection("THRD");
        for (auto &core : cores_) {
            for (Thread *thread : core->threads())
                thread->restoreState(ar);
        }
        ar.exitSection();

        ar.enterSection("SAMP");
        sampler_.restore(ar);
        ar.exitSection();

        // Zero any undrained sink lanes and open windows first (drain
        // folds them into tenant scalars restoreStats is about to
        // overwrite).
        drainAttrib();
        ar.enterSection("STAT");
        stat_group_.restoreStats(ar);
        ar.exitSection();
        // The restore just rewrote the global counters underneath the
        // cores' window bases; re-base so the next flush credits only
        // post-restore growth.
        for (auto &core : cores_)
            core->syncAttribWindow();

        if (!ar.atEnd())
            throw snap::SnapshotError("trailing bytes after last section");
    } catch (const snap::SnapshotError &err) {
        if (!mutating) {
            warn("checkpoint rejected (", path, "): ", err.what(),
                 " — cold start");
            return false;
        }
        bf_fatal("checkpoint ", path,
                 " corrupt mid-restore (state already overwritten): ",
                 err.what());
    }
    return true;
}

void
System::enableAutoCheckpoint(std::string path, Cycles interval)
{
    autosave_path_ = std::move(path);
    autosave_interval_ = interval;
    Cycles start = 0;
    for (const auto &core : cores_)
        start = std::max(start, core->now());
    autosave_next_ = start + interval;
}

void
System::enableTopFile(std::string path, double min_interval_seconds)
{
    if (!attrib_)
        return;
    top_path_ = std::move(path);
    top_interval_ = min_interval_seconds;
    top_start_host_ =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    top_last_write_ = -top_interval_; // First barrier writes at once.
    top_instr_base_ = totalInstructions();
}

void
System::maybeWriteTop()
{
    if (top_path_.empty() || !attrib_)
        return;
    const double now =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count() -
        top_start_host_;
    if (now - top_last_write_ < top_interval_)
        return;
    top_last_write_ = now;
    const double mips =
        now > 0 ? static_cast<double>(totalInstructions() -
                                      top_instr_base_) /
                      1e6 / now
                : -1.0;
    // Atomic publish: readers (bf_top) never see a torn table.
    const std::string tmp = top_path_ + ".tmp";
    std::ofstream out(tmp, std::ios::trunc);
    if (!out)
        return;
    out << attrib_->renderTable(mips);
    out.close();
    if (out)
        std::rename(tmp.c_str(), top_path_.c_str());
}

void
System::maybeAutosave(Cycles barrier)
{
    if (autosave_interval_ == 0 || barrier < autosave_next_)
        return;
    saveCheckpoint(autosave_path_);
    while (autosave_next_ <= barrier)
        autosave_next_ += autosave_interval_;
}

void
System::resetStats()
{
    // Mark the warm-up/measure boundary in the trace: replay resets its
    // model statistics at the same point, so its counters line up with
    // the measurement window of the recorded stats. resetStats is only
    // called between run() calls, i.e. at a flushed block boundary, so
    // the marker always leads the following block.
    // Stamped at core 0's own clock: core 0's next events carry both a
    // later timestamp and a later seq, which keeps the canonical per-core
    // ordering invariants intact (a cross-core max could sort after
    // core 0's next-chunk events while holding an earlier seq).
    if (tracer_)
        tracer_->record(0, trace::EventType::StatsReset,
                        cores_.empty() ? 0 : cores_[0]->now(), 0, 0, 0);
    for (auto &core : cores_)
        core->resetStats();
    hierarchy_->resetStats();
    // Mirror the scope of the resets above: core-sourced tenant stats
    // reset, kernel-sourced ones (CoW, shootdowns) survive like the
    // kernel's own, so per-tenant sums still reconcile with the
    // globals after a warm-up reset.
    if (attrib_)
        attrib_->resetCoreStats();
    run_capped.reset();
    if (sampler_.enabled())
        sampler_.beginPhase();
}

std::uint64_t
System::totalInstructions() const
{
    std::uint64_t total = 0;
    for (const auto &core : cores_)
        total += core->instructions.value();
    return total;
}

std::uint64_t
System::totalL2TlbMisses(bool instruction) const
{
    std::uint64_t total = 0;
    for (const auto &core : cores_) {
        total += instruction ? core->mmu().l2_instr_misses.value()
                             : core->mmu().l2_data_misses.value();
    }
    return total;
}

std::uint64_t
System::totalL2TlbHits(bool instruction) const
{
    std::uint64_t total = 0;
    for (const auto &core : cores_) {
        total += instruction ? core->mmu().l2_instr_hits.value()
                             : core->mmu().l2_data_hits.value();
    }
    return total;
}

std::uint64_t
System::totalL2TlbSharedHits(bool instruction) const
{
    std::uint64_t total = 0;
    for (const auto &core : cores_) {
        total += instruction ? core->mmu().l2_instr_shared_hits.value()
                             : core->mmu().l2_data_shared_hits.value();
    }
    return total;
}

} // namespace bf::core
