#include "workloads/apps.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/snapshot.hh"

namespace
{

void
saveRngState(bf::snap::ArchiveWriter &ar, const bf::Rng &rng)
{
    std::uint64_t state[4];
    rng.getState(state);
    for (const std::uint64_t word : state)
        ar.u64(word);
}

void
restoreRngState(bf::snap::ArchiveReader &ar, bf::Rng &rng)
{
    std::uint64_t state[4];
    for (std::uint64_t &word : state)
        word = ar.u64();
    rng.setState(state);
}

} // namespace

namespace bf::workloads
{

AppProfile
AppProfile::mongodb()
{
    AppProfile p;
    p.name = "mongodb";
    // Memory-mapped storage engine: most data refs land in the shared
    // mmap'ed dataset; THP disabled per the server's startup warning.
    p.dataset_bytes = 192ull << 20;
    p.dataset_shared_mapping = true;
    p.dataset_writable = true;
    p.private_buffer_bytes = 28ull << 20;
    p.thp_friendly = false;
    p.hot_code_pages = 300;
    p.code_ref_fraction = 0.32;
    p.shared_data_fraction = 0.80;
    p.pages_per_record = 2;
    p.hot_records = 480;
    p.hot_theta = 0.4;
    p.cold_fraction = 0.07;
    p.hot_buffer_pages = 160;
    p.instrs_per_ref = 210;
    p.scan_fraction = 0.065;
    p.scan_pages = 14;
    p.refs_per_request = 26;
    return p;
}

AppProfile
AppProfile::arangodb()
{
    AppProfile p;
    p.name = "arangodb";
    // RocksDB storage engine: SST files are read-only mappings, but a
    // large private block cache absorbs many accesses.
    p.dataset_bytes = 128ull << 20;
    p.dataset_shared_mapping = false;
    p.dataset_writable = false;
    p.private_buffer_bytes = 72ull << 20;
    p.thp_friendly = false;
    p.hot_code_pages = 340;
    p.code_ref_fraction = 0.30;
    p.shared_data_fraction = 0.45;
    p.pages_per_record = 2;
    p.hot_records = 420;
    p.hot_theta = 0.4;
    p.cold_fraction = 0.08;
    p.hot_buffer_pages = 240;
    p.instrs_per_ref = 230;
    p.scan_fraction = 0.09;
    p.scan_pages = 16;
    p.refs_per_request = 30;
    return p;
}

AppProfile
AppProfile::httpd()
{
    AppProfile p;
    p.name = "httpd";
    // Streaming static content: small working set per request, strong
    // code locality, modest private buffering.
    p.dataset_bytes = 96ull << 20;
    p.dataset_shared_mapping = false;
    p.dataset_writable = false;
    p.private_buffer_bytes = 10ull << 20;
    p.thp_friendly = true;
    p.buffer_thp_fraction = 0.5;
    p.hot_code_pages = 190;
    p.code_ref_fraction = 0.38;
    p.shared_data_fraction = 0.62;
    p.pages_per_record = 3;
    p.hot_records = 250;
    p.hot_theta = 0.4;
    p.cold_fraction = 0.04;
    p.hot_buffer_pages = 120;
    p.instrs_per_ref = 190;
    p.scan_fraction = 0.035;
    p.scan_pages = 10;
    p.refs_per_request = 18;
    return p;
}

AppProfile
AppProfile::graphchi()
{
    AppProfile p;
    p.name = "graphchi";
    // PageRank over a shared graph: regular code, random low-locality
    // vertex accesses, heavy private edge buffering.
    p.request_based = false;
    p.dataset_bytes = 96ull << 20;
    p.dataset_shared_mapping = false;
    p.dataset_writable = false;
    p.private_buffer_bytes = 128ull << 20;
    p.thp_friendly = true;
    p.buffer_thp_fraction = 0.2;
    p.hot_code_pages = 110;
    p.code_ref_fraction = 0.30;
    p.shared_data_fraction = 0.25;
    p.uniform_dataset = true;
    p.instrs_per_ref = 260;
    p.refs_per_request = 64; //!< refs per work unit.
    return p;
}

AppProfile
AppProfile::fio()
{
    AppProfile p;
    p.name = "fio";
    // In-memory I/O benchmark: regular streaming over a shared random
    // dataset, small private state.
    p.request_based = false;
    p.dataset_bytes = 192ull << 20;
    p.dataset_shared_mapping = true;
    p.dataset_writable = true;
    p.private_buffer_bytes = 14ull << 20;
    p.thp_friendly = true;
    p.buffer_thp_fraction = 0.3;
    p.hot_code_pages = 70;
    p.code_ref_fraction = 0.24;
    p.shared_data_fraction = 0.85;
    p.sequential_dataset = true;
    p.instrs_per_ref = 230;
    p.refs_per_request = 64;
    return p;
}

std::vector<AppProfile>
AppProfile::dataServing()
{
    return {arangodb(), mongodb(), httpd()};
}

std::vector<AppProfile>
AppProfile::compute()
{
    return {graphchi(), fio()};
}

void
prefault(vm::Kernel &kernel, vm::Process &proc, Addr start,
         std::uint64_t bytes, AccessType type)
{
    // One service batch: consecutive pages share their VMA and leaf
    // table, which the batch memos answer without a walk from the root.
    const vm::FaultBatch batch(kernel);
    for (Addr va = start; va < start + bytes; va += basePageBytes) {
        const auto outcome = kernel.handleFault(proc, va, type);
        bf_assert(outcome.kind != vm::FaultKind::Protection,
                  "prefault protection at ", va);
    }
}

AppInstance
buildApp(vm::Kernel &kernel, const AppProfile &profile,
         unsigned num_containers, std::uint64_t seed)
{
    AppInstance inst;
    inst.profile = profile;
    inst.ccid = kernel.createGroup(profile.name, seed);
    inst.image = std::make_unique<ContainerImage>(kernel, profile.name,
                                                  profile.image);
    inst.dataset =
        kernel.createFile(profile.name + ":dataset", profile.dataset_bytes);
    inst.dataset->preload(kernel.frames());

    // The container runtime maps the image and warms its own hot
    // infrastructure (libraries are resident before any fork).
    inst.runtime = kernel.createProcess(inst.ccid,
                                        profile.name + ":runtime");
    inst.image->mapInto(kernel, *inst.runtime);
    prefault(kernel, *inst.runtime, inst.image->runtimeLibBase(),
             profile.image.runtime_lib_bytes, AccessType::Read);
    prefault(kernel, *inst.runtime, inst.image->binaryBase(),
             profile.image.binary_bytes, AccessType::Ifetch);

    for (unsigned c = 0; c < num_containers; ++c) {
        Cycles work = 0;
        vm::Process *proc = kernel.fork(
            *inst.runtime, profile.name + ":c" + std::to_string(c), work);
        inst.bringup_work += work;

        // The container maps the application dataset at the canonical
        // shared address, and its own private buffers.
        kernel.mmapObject(*proc, inst.dataset, AppInstance::datasetBase(),
                          profile.dataset_bytes, 0,
                          profile.dataset_writable, /*exec=*/false,
                          profile.dataset_shared_mapping);
        const std::uint64_t huge_step = 2ull << 20;
        std::uint64_t huge_bytes = 0;
        if (profile.thp_friendly && profile.buffer_thp_fraction > 0) {
            huge_bytes = static_cast<std::uint64_t>(
                             profile.private_buffer_bytes *
                             profile.buffer_thp_fraction) /
                         huge_step * huge_step;
        }
        if (huge_bytes > 0) {
            kernel.mmapAnon(*proc, AppInstance::bufferBase(), huge_bytes,
                            /*writable=*/true, /*allow_huge=*/true);
        }
        if (profile.private_buffer_bytes > huge_bytes) {
            kernel.mmapAnon(*proc, AppInstance::bufferBase() + huge_bytes,
                            profile.private_buffer_bytes - huge_bytes,
                            /*writable=*/true, /*allow_huge=*/false);
        }
        if (profile.request_based) {
            // Allocator arenas are written during container start-up:
            // this private state is what makes translations
            // unshareable (paper Fig. 9's unshareable segments).
            prefault(kernel, *proc, AppInstance::bufferBase(),
                     profile.private_buffer_bytes, AccessType::Write);
        }
        if (!profile.request_based) {
            // Long-running compute reaches steady state well before the
            // measurement window (§VI warms for a minute): bring every
            // page in up front.
            prefault(kernel, *proc, AppInstance::datasetBase(),
                     profile.dataset_bytes, AccessType::Read);
            prefault(kernel, *proc, AppInstance::bufferBase(),
                     profile.private_buffer_bytes, AccessType::Write);
        }
        inst.containers.push_back(proc);
    }
    return inst;
}

void
saveMemRef(snap::ArchiveWriter &ar, const core::MemRef &ref)
{
    ar.u64(ref.va);
    ar.u8(static_cast<std::uint8_t>(ref.type));
    ar.u32(ref.instrs);
    ar.b(ref.request_end);
    ar.b(ref.yield_after);
}

core::MemRef
restoreMemRef(snap::ArchiveReader &ar)
{
    core::MemRef ref;
    ref.va = ar.u64();
    ref.type = static_cast<AccessType>(ar.u8());
    ref.instrs = ar.u32();
    ref.request_end = ar.b();
    ref.yield_after = ar.b();
    return ref;
}

void
QueueThread::saveState(snap::ArchiveWriter &ar) const
{
    saveRngState(ar, rng_);
    ar.u32(static_cast<std::uint32_t>(queue_.size()));
    for (const core::MemRef &ref : queue_)
        saveMemRef(ar, ref);
}

void
QueueThread::restoreState(snap::ArchiveReader &ar)
{
    restoreRngState(ar, rng_);
    queue_.clear();
    const std::uint32_t count = ar.u32();
    for (std::uint32_t i = 0; i < count; ++i)
        queue_.push_back(restoreMemRef(ar));
}

// ---------------------------------------------------------------------
// DataServingThread
// ---------------------------------------------------------------------

DataServingThread::DataServingThread(const AppProfile &profile,
                                     vm::Process *proc, std::uint64_t seed)
    : QueueThread(profile.name, proc, seed), profile_(profile),
      client_(profile.hot_records
                  ? profile.hot_records
                  : profile.dataset_bytes /
                        (profile.pages_per_record * basePageBytes),
              profile.update_fraction, seed ^ 0xdeadbeef,
              profile.hot_records ? profile.hot_theta
                                  : profile.zipf_theta),
      dataset_pages_(profile.dataset_bytes / basePageBytes),
      buffer_pages_(profile.private_buffer_bytes / basePageBytes),
      tail_client_(profile.dataset_bytes /
                       (profile.pages_per_record * basePageBytes),
                   profile.update_fraction, seed ^ 0xfeedface,
                   profile.zipf_theta)
{}

std::uint64_t
DataServingThread::pickRecord()
{
    // Two-level popularity, like YCSB over a large dataset: most
    // requests stay in the hot working set; the rest follow the zipfian
    // tail over the whole dataset. Tail records are shared across the
    // app's containers, so the baseline replicates their faults while
    // BabelFish takes each only once per group.
    if (profile_.hot_records && rng().chance(profile_.cold_fraction))
        return tail_client_.next().record;
    return client_.next().record;
}

Addr
DataServingThread::codeVa()
{
    // Zipf-ish hot code: most fetches in a few hot pages, tail across
    // the binary and middleware.
    const auto page = static_cast<std::uint64_t>(
        profile_.hot_code_pages * std::pow(rng().uniform(), 2.2));
    const Addr base = page < profile_.hot_code_pages / 3
                          ? vm::segmentBase(vm::Segment::Code)
                          : vm::segmentBase(vm::Segment::Mmap);
    return base + page * basePageBytes + rng().below(64) * 64;
}

Addr
DataServingThread::datasetPageVa(std::uint64_t page)
{
    return AppInstance::datasetBase() + page * basePageBytes +
           rng().below(64) * 64;
}

Addr
DataServingThread::bufferVa()
{
    const std::uint64_t window =
        profile_.hot_buffer_pages
            ? std::min<std::uint64_t>(profile_.hot_buffer_pages,
                                      buffer_pages_)
            : buffer_pages_;
    return AppInstance::bufferBase() +
           rng().below(window) * basePageBytes + rng().below(64) * 64;
}

void
DataServingThread::refill()
{
    if (profile_.scan_fraction > 0 &&
        rng().chance(profile_.scan_fraction)) {
        // Range scan / compaction churn: a burst of sequential dataset
        // pages, advancing a cursor every container follows.
        for (unsigned i = 0; i < profile_.scan_pages; ++i) {
            core::MemRef code;
            code.va = codeVa();
            code.type = AccessType::Ifetch;
            code.instrs = profile_.instrs_per_ref;
            push(code);

            core::MemRef ref;
            ref.va = datasetPageVa(scan_cursor_ % dataset_pages_);
            ref.type = AccessType::Read;
            ref.instrs = profile_.instrs_per_ref;
            push(ref);
            ++scan_cursor_;
        }
        core::MemRef end;
        end.va = bufferVa();
        end.type = AccessType::Write;
        end.instrs = profile_.instrs_per_ref;
        end.request_end = true;
        end.yield_after = endOfBatch();
        push(end);
        return;
    }

    // One YCSB request: index lookups, record pages, private buffering,
    // interleaved with instruction fetches.
    YcsbOp op = client_.next();
    op.record = pickRecord();
    const std::uint64_t first_page = op.record * profile_.pages_per_record;

    std::vector<core::MemRef> data;

    // B-tree / hash index probes: hot, shared.
    for (unsigned i = 0; i < 2; ++i) {
        core::MemRef ref;
        ref.va = datasetPageVa(rng().below(profile_.index_pages));
        ref.type = AccessType::Read;
        data.push_back(ref);
    }
    // The record itself.
    for (unsigned i = 0; i < profile_.pages_per_record; ++i) {
        core::MemRef ref;
        ref.va = datasetPageVa(std::min(first_page + i,
                                        dataset_pages_ - 1));
        ref.type = op.is_update && profile_.dataset_shared_mapping
                       ? AccessType::Write
                       : AccessType::Read;
        data.push_back(ref);
    }
    // Request-processing work split between dataset and private buffers.
    while (data.size() < profile_.refs_per_request) {
        core::MemRef ref;
        if (rng().chance(profile_.shared_data_fraction)) {
            ref.va = datasetPageVa(pickRecord() *
                                   profile_.pages_per_record %
                                   dataset_pages_);
            ref.type = AccessType::Read;
        } else {
            ref.va = bufferVa();
            ref.type = rng().chance(0.6) ? AccessType::Write
                                         : AccessType::Read;
        }
        data.push_back(ref);
    }

    // Interleave ifetch refs at the configured fraction.
    const double code_per_data =
        profile_.code_ref_fraction / (1.0 - profile_.code_ref_fraction);
    double carry = 0;
    for (auto &ref : data) {
        carry += code_per_data;
        while (carry >= 1.0) {
            core::MemRef code;
            code.va = codeVa();
            code.type = AccessType::Ifetch;
            code.instrs = profile_.instrs_per_ref;
            push(code);
            carry -= 1.0;
        }
        ref.instrs = profile_.instrs_per_ref;
        push(ref);
    }

    // Mark the request boundary on a trailing response-write; block on
    // the network at batch boundaries.
    core::MemRef end;
    end.va = bufferVa();
    end.type = AccessType::Write;
    end.instrs = profile_.instrs_per_ref;
    end.request_end = true;
    end.yield_after = endOfBatch();
    push(end);
}

bool
DataServingThread::endOfBatch()
{
    if (profile_.requests_per_batch == 0)
        return false;
    if (++batch_count_ >= profile_.requests_per_batch) {
        batch_count_ = 0;
        return true;
    }
    return false;
}

void
DataServingThread::completed(const core::MemRef &ref, Cycles now)
{
    // Service time: from the first completed reference of the request to
    // the request boundary. The wait while co-located containers hold
    // the core (between batches) is queueing, not service, and is
    // excluded — as a server-side latency probe would.
    if (!measuring_) {
        measuring_ = true;
        request_start_ = now;
    }
    if (!ref.request_end)
        return;
    latency_.sample(static_cast<double>(now - request_start_));
    measuring_ = false;
}

void
DataServingThread::saveState(snap::ArchiveWriter &ar) const
{
    QueueThread::saveState(ar);
    saveRngState(ar, client_.rng());
    saveRngState(ar, tail_client_.rng());
    ar.u64(scan_cursor_);
    ar.u32(batch_count_);
    const std::vector<double> &samples = latency_.rawSamples();
    ar.u64(samples.size());
    for (const double sample : samples)
        ar.f64(sample);
    ar.u64(request_start_);
    ar.b(measuring_);
}

void
DataServingThread::restoreState(snap::ArchiveReader &ar)
{
    QueueThread::restoreState(ar);
    restoreRngState(ar, client_.rng());
    restoreRngState(ar, tail_client_.rng());
    scan_cursor_ = ar.u64();
    batch_count_ = ar.u32();
    std::vector<double> samples(ar.bounded(ar.u64(), 8));
    for (double &sample : samples)
        sample = ar.f64();
    latency_.restoreSamples(std::move(samples));
    request_start_ = ar.u64();
    measuring_ = ar.b();
}

// ---------------------------------------------------------------------
// ComputeThread
// ---------------------------------------------------------------------

ComputeThread::ComputeThread(const AppProfile &profile, vm::Process *proc,
                             std::uint64_t seed)
    : QueueThread(profile.name, proc, seed), profile_(profile),
      dataset_pages_(profile.dataset_bytes / basePageBytes),
      buffer_pages_(profile.private_buffer_bytes / basePageBytes)
{}

void
ComputeThread::refill()
{
    // One work unit (e.g.\ a batch of PageRank vertex updates or one FIO
    // block batch).
    const double code_per_data =
        profile_.code_ref_fraction / (1.0 - profile_.code_ref_fraction);
    double carry = 0;

    for (unsigned i = 0; i < profile_.refs_per_request; ++i) {
        carry += code_per_data;
        while (carry >= 1.0) {
            core::MemRef code;
            // Tight kernel loop: tiny hot code footprint.
            code.va = vm::segmentBase(vm::Segment::Code) +
                      rng().below(profile_.hot_code_pages) *
                          basePageBytes +
                      rng().below(64) * 64;
            code.type = AccessType::Ifetch;
            code.instrs = profile_.instrs_per_ref;
            push(code);
            carry -= 1.0;
        }

        core::MemRef ref;
        if (rng().chance(profile_.shared_data_fraction)) {
            std::uint64_t page;
            if (profile_.sequential_dataset) {
                page = seq_cursor_ % dataset_pages_;
                seq_cursor_ += 1 + rng().below(2);
            } else if (profile_.uniform_dataset) {
                page = rng().below(dataset_pages_); // no locality at all
            } else {
                page = rng().below(dataset_pages_ / 4);
            }
            ref.va = AppInstance::datasetBase() + page * basePageBytes +
                     rng().below(64) * 64;
            ref.type = profile_.dataset_shared_mapping && rng().chance(0.2)
                           ? AccessType::Write
                           : AccessType::Read;
        } else {
            // Private buffers: streaming with reuse (edge blocks).
            const std::uint64_t page =
                (seq_cursor_ / 2 + rng().below(32)) % buffer_pages_;
            ref.va = AppInstance::bufferBase() + page * basePageBytes +
                     rng().below(64) * 64;
            ref.type = rng().chance(0.5) ? AccessType::Write
                                         : AccessType::Read;
        }
        ref.instrs = profile_.instrs_per_ref;
        ref.request_end = i + 1 == profile_.refs_per_request;
        push(ref);
    }
}

void
ComputeThread::completed(const core::MemRef &ref, Cycles now)
{
    if (ref.request_end) {
        ++units_done_;
        last_unit_end_ = now;
    }
}

void
ComputeThread::saveState(snap::ArchiveWriter &ar) const
{
    QueueThread::saveState(ar);
    ar.u64(seq_cursor_);
    ar.u64(units_done_);
    ar.u64(last_unit_end_);
}

void
ComputeThread::restoreState(snap::ArchiveReader &ar)
{
    QueueThread::restoreState(ar);
    seq_cursor_ = ar.u64();
    units_done_ = ar.u64();
    last_unit_end_ = ar.u64();
}

std::vector<std::unique_ptr<core::Thread>>
makeAppThreads(const AppInstance &instance, std::uint64_t seed)
{
    std::vector<std::unique_ptr<core::Thread>> threads;
    const AppProfile &profile = instance.profile;
    std::uint64_t i = 0;
    for (vm::Process *proc : instance.containers) {
        const std::uint64_t tseed = seed + 0x1234567 * ++i;
        if (profile.request_based) {
            threads.push_back(
                std::make_unique<DataServingThread>(profile, proc, tseed));
        } else {
            threads.push_back(
                std::make_unique<ComputeThread>(profile, proc, tseed));
        }
    }
    return threads;
}

} // namespace bf::workloads
