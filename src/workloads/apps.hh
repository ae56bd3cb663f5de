/**
 * @file
 * Models of the paper's containerized applications (§VI, Workloads).
 *
 * Each AppProfile reproduces the page-sharing structure and access
 * pattern of one application, calibrated against the paper's Fig. 9
 * (shareable vs unshareable pte fractions) and the qualitative
 * descriptions in §VII (e.g.\ GraphChi's low-locality graph traversals
 * vs FIO's regular accesses, MongoDB's memory-mapped engine vs
 * ArangoDB's RocksDB-style private block cache).
 *
 * Three kinds of container threads implement core::Thread:
 *  - DataServingThread: YCSB-driven request/response loop with request
 *    latency tracking (ArangoDB, MongoDB, HTTPd).
 *  - ComputeThread: a long-running compute kernel (GraphChi PageRank,
 *    FIO).
 *  - FunctionThread lives in workloads/function.hh.
 */

#ifndef BF_WORKLOADS_APPS_HH
#define BF_WORKLOADS_APPS_HH

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/thread.hh"
#include "vm/kernel.hh"
#include "workloads/image.hh"
#include "workloads/ycsb.hh"

namespace bf::workloads
{

/** The shape of one containerized application. */
struct AppProfile
{
    std::string name;
    ImageParams image{};

    /** @{ @name Dataset (shared across the app's containers) */
    std::uint64_t dataset_bytes = 192ull << 20;
    bool dataset_shared_mapping = true; //!< MAP_SHARED vs read-only.
    bool dataset_writable = true;
    /** @} */

    /** @{ @name Private state (unshareable) */
    std::uint64_t private_buffer_bytes = 24ull << 20;
    bool thp_friendly = true; //!< Mongo/Arango recommend THP off.
    /**
     * Fraction of the private buffers that THP actually backs with huge
     * pages (allocator alignment defeats THP for the rest). Only
     * meaningful when thp_friendly.
     */
    double buffer_thp_fraction = 0.0;
    /** @} */

    /** @{ @name Access pattern */
    unsigned hot_code_pages = 256;   //!< Hot instruction working set.
    double code_ref_fraction = 0.3;  //!< Ifetch share of all refs.
    double shared_data_fraction = 0.7; //!< Dataset share of data refs.
    double zipf_theta = 0.99;        //!< Dataset popularity skew.
    /**
     * Bounded request working set: most requests draw from this many
     * hot records (zipfian within them); cold_fraction of requests
     * range over the whole dataset. 0 = unbounded.
     */
    std::uint64_t hot_records = 0;
    double cold_fraction = 0.03;
    double hot_theta = 0.6; //!< Skew inside the hot set.
    /** Hot private-buffer window in pages (0 = whole buffer). */
    std::uint64_t hot_buffer_pages = 0;
    bool uniform_dataset = false;    //!< GraphChi: no locality at all.
    bool sequential_dataset = false; //!< FIO: streaming scans.
    unsigned pages_per_record = 2;
    unsigned index_pages = 64;       //!< Hot index/btree pages.
    /**
     * Range-scan / insert churn: this fraction of requests reads a
     * sequential burst of fresh dataset pages. The burst pages are the
     * same for every container of the app (same object, same cursor
     * trajectory), so the baseline replicates their page faults while
     * BabelFish takes each once per group.
     */
    double scan_fraction = 0.0;
    unsigned scan_pages = 12;
    double update_fraction = 0.05;   //!< YCSB-B style.
    std::uint32_t instrs_per_ref = 350;
    unsigned refs_per_request = 24;  //!< Data-serving request length.
    /**
     * Requests served per scheduling batch: the server then blocks on
     * network I/O and the core switches containers. 0 = never yield
     * (CPU-bound).
     */
    unsigned requests_per_batch = 8;
    /** @} */

    bool request_based = true; //!< Data serving vs compute loop.

    /** @{ @name The five applications of the paper */
    static AppProfile mongodb();
    static AppProfile arangodb();
    static AppProfile httpd();
    static AppProfile graphchi();
    static AppProfile fio();
    /** @} */

    /** All data-serving profiles. */
    static std::vector<AppProfile> dataServing();
    /** All compute profiles. */
    static std::vector<AppProfile> compute();
};

/** One application instance: a CCID group with its containers. */
struct AppInstance
{
    Ccid ccid = invalidCcid;
    /** Held by value: callers routinely pass buildApp a temporary. */
    AppProfile profile;
    std::unique_ptr<ContainerImage> image;
    vm::MappedObject *dataset = nullptr;
    vm::Process *runtime = nullptr;         //!< The container runtime.
    std::vector<vm::Process *> containers;  //!< One process each.
    Cycles bringup_work = 0;                //!< Kernel work of the forks.

    /** Canonical base address of the shared dataset mapping. */
    static Addr datasetBase() { return vm::segmentBase(vm::Segment::Shm); }
    /** Canonical base address of each container's private buffers. */
    static Addr bufferBase() { return vm::segmentBase(vm::Segment::Heap); }
};

/**
 * Build one application instance: create the CCID group and the runtime
 * process, map the image, pre-fault the runtime's infrastructure (the
 * OS warm-up of §VI), fork the containers, and give each its dataset and
 * private-buffer mappings.
 */
AppInstance buildApp(vm::Kernel &kernel, const AppProfile &profile,
                     unsigned num_containers, std::uint64_t seed);

/**
 * Touch a VA range through the kernel (OS warm-up, not timed), as one
 * fault-service batch. Must not be called while a batch is open.
 */
void prefault(vm::Kernel &kernel, vm::Process &proc, Addr start,
              std::uint64_t bytes, AccessType type);

/** @{ @name MemRef (de)serialization, shared by the thread classes. */
void saveMemRef(snap::ArchiveWriter &ar, const core::MemRef &ref);
core::MemRef restoreMemRef(snap::ArchiveReader &ar);
/** @} */

/** Common machinery: a thread fed from a replenishable ref queue. */
class QueueThread : public core::Thread
{
  public:
    QueueThread(std::string name, vm::Process *proc, std::uint64_t seed)
        : name_(std::move(name)), proc_(proc), rng_(seed)
    {}

    vm::Process *process() override { return proc_; }
    const std::string &name() const override { return name_; }

    /** RNG state and the queued burst; subclasses call these first. */
    void saveState(snap::ArchiveWriter &ar) const override;
    void restoreState(snap::ArchiveReader &ar) override;

    bool
    next(core::MemRef &ref) override
    {
        if (queue_.empty())
            refill();
        if (queue_.empty())
            return false;
        ref = queue_.front();
        queue_.pop_front();
        return true;
    }

    /**
     * Batched pull: refill once if the queue is empty, then drain up to
     * @p max queued references. Stops at the queue boundary instead of
     * refilling mid-batch, so the next refill() still runs only after
     * the core has delivered every completion of this batch — the
     * refill-vs-completed() ordering (which FunctionThread's phase
     * machine depends on) is exactly that of repeated next() calls.
     */
    unsigned
    nextBatch(core::MemRef *out, unsigned max) override
    {
        if (queue_.empty())
            refill();
        unsigned n = 0;
        while (n < max && !queue_.empty()) {
            out[n] = queue_.front();
            queue_.pop_front();
            ++n;
        }
        return n;
    }

  protected:
    /** Subclasses push the next burst of refs. */
    virtual void refill() = 0;

    void push(const core::MemRef &ref) { queue_.push_back(ref); }
    Rng &rng() { return rng_; }

  private:
    std::string name_;
    vm::Process *proc_;
    Rng rng_;
    std::deque<core::MemRef> queue_;
};

/** YCSB-driven data-serving container (ArangoDB / MongoDB / HTTPd). */
class DataServingThread : public QueueThread
{
  public:
    DataServingThread(const AppProfile &profile, vm::Process *proc,
                      std::uint64_t seed);

    void completed(const core::MemRef &ref, Cycles now) override;

    void saveState(snap::ArchiveWriter &ar) const override;
    void restoreState(snap::ArchiveReader &ar) override;

    /** Request latencies in cycles (mean / p95 for Fig. 11). */
    stats::LatencyTracker &latency() { return latency_; }
    /** Discard warm-up samples. */
    void resetMeasurement() { latency_.reset(); }

  private:
    const AppProfile &profile_;
    YcsbClient client_;
    std::uint64_t dataset_pages_;
    std::uint64_t buffer_pages_;
    YcsbClient tail_client_; //!< Zipf over the whole dataset (cold).
    std::uint64_t scan_cursor_ = 0;
    unsigned batch_count_ = 0;
    stats::LatencyTracker latency_;
    Cycles request_start_ = 0;
    bool measuring_ = false;

    void refill() override;

    /** Record index: zipf within the hot set, rare cold excursions. */
    std::uint64_t pickRecord();
    /** Whether the current request completes an I/O batch. */
    bool endOfBatch();
    Addr codeVa();
    Addr datasetPageVa(std::uint64_t page);
    Addr bufferVa();
};

/** Long-running compute container (GraphChi PageRank / FIO). */
class ComputeThread : public QueueThread
{
  public:
    ComputeThread(const AppProfile &profile, vm::Process *proc,
                  std::uint64_t seed);

    void completed(const core::MemRef &ref, Cycles now) override;

    void saveState(snap::ArchiveWriter &ar) const override;
    void restoreState(snap::ArchiveReader &ar) override;

    /** Work units completed (normalized execution-time metric). */
    std::uint64_t unitsDone() const { return units_done_; }
    Cycles lastUnitEnd() const { return last_unit_end_; }
    void resetMeasurement() { units_done_ = 0; }

  private:
    const AppProfile &profile_;
    std::uint64_t dataset_pages_;
    std::uint64_t buffer_pages_;
    std::uint64_t seq_cursor_ = 0;
    std::uint64_t units_done_ = 0;
    Cycles last_unit_end_ = 0;

    void refill() override;
};

/** Make one thread per container of an instance. */
std::vector<std::unique_ptr<core::Thread>>
makeAppThreads(const AppInstance &instance, std::uint64_t seed);

} // namespace bf::workloads

#endif // BF_WORKLOADS_APPS_HH
