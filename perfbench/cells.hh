/**
 * @file
 * The benchmark's units of work and the checks run on each of them.
 *
 * A *cell* is one simulated configuration run end to end through the
 * library's public entry points: System construction, the workload
 * build (buildApp + makeAppThreads, or buildFaasGroup), then run() /
 * runUntilFinished(). A *sweep round* records one traced cell, decodes
 * the trace, builds one ReplaySchedule and replays a fixed grid of
 * TLB / PWC / O-PC points against it. Everything is timed from outside
 * the library; nothing here installs hooks the System owns.
 */

#ifndef PERFBENCH_CELLS_HH
#define PERFBENCH_CELLS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "spans.hh"
#include "workloads/apps.hh"

namespace perfbench
{

/** Scalar paths → value; distributions add "<path>.count/.sum/.max". */
using FlatStats = std::map<std::string, std::uint64_t>;

FlatStats flatten(const bf::stats::StatGroup &root);

/** FNV-1a over the JSON export of a stats tree. */
std::uint64_t statsDigest(const bf::stats::StatGroup &root);

/**
 * Per-tenant attribution rows against the global counters — the rule
 * of tools/check_golden_stats.py --reconcile. Returns one line per
 * divergence; a tree without attribution rows is itself a failure.
 */
std::vector<std::string> reconcile(const FlatStats &stats);

/** Work counts of one simulation, summed over cores. */
struct LayerCounts
{
    std::uint64_t cores = 0;
    std::uint64_t instructions = 0;
    std::uint64_t translations = 0; //!< L1 TLB lookups (hits + misses).
    std::uint64_t l2_hits = 0;
    std::uint64_t l2_misses = 0;
    std::uint64_t l2_shared_hits = 0;
    std::uint64_t walks = 0;
    std::uint64_t pwc_hits = 0;
    std::uint64_t pwc_misses = 0;
    std::uint64_t tlb_invalidations = 0; //!< Entries dropped, 7 TLBs.
    std::uint64_t minor_faults = 0;
    std::uint64_t cow_faults = 0;
    std::uint64_t major_faults = 0;
    std::uint64_t shootdowns = 0;
    std::uint64_t l3_hits = 0;
    std::uint64_t l3_misses = 0;
    std::uint64_t dram_reads = 0;
    /**
     * shootdowns x cores x 7 TLB structures: the entries a shootdown
     * fan-out could have dropped, the base of inval_useful_ratio.
     */
    std::uint64_t inval_slots = 0;

    static constexpr std::uint64_t kTlbStructures = 7;

    /** Counts accumulated between two snapshots of one stats tree. */
    static LayerCounts between(const FlatStats &before,
                               const FlatStats &after);

    LayerCounts &operator+=(const LayerCounts &o);
};

/** System::PhaseTimes accumulated over one cell. */
struct Phases
{
    double bound = 0;
    double fault = 0;
    double merge = 0;
    double weave = 0;

    double total() const { return bound + fault + merge + weave; }
    Phases &operator+=(const Phases &o);
};

/** One configuration to simulate. */
struct CellSpec
{
    std::string name;
    bool faas = false;                //!< FaaS group instead of an app.
    bf::workloads::AppProfile app;    //!< App cells only.
    bool sparse = false;              //!< FaaS input pattern.
    unsigned cores = 8;               //!< App cells; FaaS uses 1.
};

/** App cells: containers per simulated core (paper §VI). */
inline constexpr unsigned kContainersPerCore = 2;
/**
 * App cells: simulated milliseconds, one run() from empty caches — the
 * repository's 6 ms warm-up plus 12 ms measurement.
 */
inline constexpr double kAppSimMs = 18;

/** How to run a cell. */
struct CellOptions
{
    std::uint64_t seed = 42;
    unsigned workers = 1;          //!< SystemParams::workers.
    bool wrap = false;             //!< TimedThread around each generator.
    SpanLog *spans = nullptr;      //!< Null = untraced.
    int parent = -1;               //!< Span that caused the cell.
    int run = -1;                  //!< Span run id.
    std::string trace_path;        //!< Non-empty: record an event trace.
};

/** Timings, counts and check outcomes of one cell. */
struct CellResult
{
    double ctor_s = 0;     //!< System construction.
    double build_s = 0;    //!< Workload build and thread placement.
    double setup_s = 0;    //!< Everything before the first cycle.
    double sim_s = 0;      //!< run() / runUntilFinished() calls.
    Phases phases;
    double gen_s = 0;          //!< Wrapped runs only.
    std::uint64_t refs = 0;    //!< Wrapped runs only.
    LayerCounts counts;
    std::uint64_t digest = 0;  //!< statsDigest after the run.
    std::vector<std::string> problems; //!< Failed checks.
};

/** The Fig. 11 Data Serving cells followed by the two FaaS groups. */
std::vector<CellSpec> serveCells();
/** The fig11-style mongodb cell the sweep records. */
CellSpec sweepRecordingCell();

/**
 * Build, run and check one cell. Checks: run_capped == 0 and the
 * attribution reconcile rule. The System is destroyed before return.
 */
CellResult runCell(const CellSpec &spec, const CellOptions &opt);

/** One sweep round: record, decode, schedule, replay the grid. */
struct SweepResult
{
    CellResult recording;
    double record_s = 0;   //!< Whole recording cell, trace finalized.
    double decode_s = 0;
    double schedule_s = 0;
    std::uint64_t records = 0;
    std::vector<double> point_s;               //!< Per grid point.
    std::vector<std::uint64_t> point_digests;  //!< Replayed stats JSON.
    std::vector<std::string> problems;         //!< Failed checks.

    double setupSeconds() const { return record_s + decode_s + schedule_s; }
};

/** Number of replayed points per sweep round (recording config first). */
std::size_t sweepPoints();

/**
 * Run one sweep round. @p trace_path is where the recording goes; the
 * file is removed once decoded. Checks: the recording's cell checks and
 * ReplayEngine::validate() empty at the recording configuration.
 */
SweepResult runSweepRound(const CellOptions &opt);

} // namespace perfbench

#endif // PERFBENCH_CELLS_HH
