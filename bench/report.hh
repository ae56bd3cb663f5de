/**
 * @file
 * Machine-readable bench output: every bench binary writes a
 * BENCH_<name>.json next to its stdout tables so the perf trajectory
 * can be tracked PR-over-PR without scraping text.
 *
 * Schema (version 3; see README.md "Reading the stats output"):
 *
 *   {
 *     "schema_version": 3,
 *     "bench": "<name>",
 *     "config": { "<knob>": <number|string>, ... },
 *     "metrics": { "<headline metric>": <number>, ... },
 *     "capped_runs": <number of runs that hit the cycle cap>,
 *     "runs": {
 *       "<label>": {
 *         "capped": <bool>,
 *         "trace_file": "<path or empty when tracing was off>",
 *         "stats": { <stats::toJson of the System tree> },
 *         "timeseries": { <StatSampler::toJson> },
 *         "tenants": [ <attrib::Registry::tenantsJson rows: one object
 *                       per container with the per-tenant counters,
 *                       miss-latency percentiles, interference scalars
 *                       and evicted-by maps; [] when BF_ATTRIB=0> ]
 *       }, ...
 *     },
 *     "series": {
 *       "<name>": { "x_label": "...", "y_label": "...",
 *                   "points": [[x, y], ...] }, ...
 *     },
 *     "host": {
 *       "<label>": { "host_seconds": <number>, "sim_mips": <number>,
 *                    "phases": { "bound": <number>, "fault": <number>,
 *                                "merge": <number>, "weave": <number> } },
 *       ...
 *     },
 *     "notes": { "<key>": <number|string>, ... },
 *     "host_meta": { "nproc": <n>, "affinity_cpus": <n>,
 *                    "affinity_mask": "<hex>", "compiler": "<id ver>",
 *                    "build_type": "<CMAKE_BUILD_TYPE>", "lto": <bool>,
 *                    "git_rev": "<sha or unknown>" }
 *   }
 *
 * Version 2 added the host-speed section ("host": wall-clock seconds and
 * simulated MIPS per workload, written by bench_simspeed) and free-form
 * "notes" (e.g. baseline_mips / speedup bookkeeping). Version 3 records
 * external artifact paths per run ("trace_file": the BF_TRACE event
 * trace; the time series stays embedded under "timeseries") and the
 * effective values of every BF_* execution knob under "config". All
 * additions are additive; the architectural stats under "runs" are
 * unchanged. The optional per-phase host breakdown under each host row
 * ("phases": seconds spent in the bound / fault-service / merge / weave
 * stages of the chunk loop, from System::phaseTimes) is likewise an
 * additive v3 field — absent when the bench did not collect it.
 * "host_meta" (additive v3) names the machine and build that produced
 * the numbers, so tools/bench_diff.py can tell a code change from a
 * host change.
 *
 * Environment knobs: BF_JSON=0 disables the file; BF_JSON_DIR=<dir>
 * redirects it (default: the current directory).
 */

#ifndef BF_BENCH_REPORT_HH
#define BF_BENCH_REPORT_HH

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/stats_export.hh"

// Build facts bench/CMakeLists.txt passes in; neutral fallbacks keep the
// header usable from any target.
#ifndef BF_BENCH_BUILD_TYPE
#define BF_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef BF_BENCH_LTO
#define BF_BENCH_LTO 0
#endif
#ifndef BF_BENCH_COMPILER
#define BF_BENCH_COMPILER "unknown"
#endif

namespace bfbench
{

/** Git revision of @p source_dir, or "unknown" (no git, not a clone). */
inline std::string
gitRevision(const std::string &source_dir)
{
    if (source_dir.empty())
        return "unknown";
    const std::string cmd =
        "git -C '" + source_dir + "' rev-parse HEAD 2>/dev/null";
    std::string rev;
    if (FILE *pipe = popen(cmd.c_str(), "r")) {
        char buf[64];
        while (std::fgets(buf, sizeof buf, pipe))
            rev += buf;
        pclose(pipe);
    }
    while (!rev.empty() && (rev.back() == '\n' || rev.back() == ' '))
        rev.pop_back();
    return rev.empty() ? "unknown" : rev;
}

/**
 * The "host_meta" object: CPU count, affinity (count and hex mask),
 * compiler, build type, LTO and git revision of the producing build.
 */
inline std::string
hostMetaJson()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    unsigned cpus = 0;
    std::string mask = "?";
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        cpus = static_cast<unsigned>(CPU_COUNT(&set));
        int top = -1;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &set))
                top = cpu;
        mask.clear();
        for (int nibble = top / 4; nibble >= 0; --nibble) {
            int v = 0;
            for (int b = 0; b < 4; ++b)
                if (CPU_ISSET(nibble * 4 + b, &set))
                    v |= 1 << b;
            mask += "0123456789abcdef"[v];
        }
        if (mask.empty())
            mask = "0";
    }
#ifdef BF_BENCH_SOURCE_DIR
    const std::string rev = gitRevision(BF_BENCH_SOURCE_DIR);
#else
    const std::string rev = "unknown";
#endif
    std::ostringstream os;
    os << "{\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"affinity_cpus\":" << cpus << ",\"affinity_mask\":\""
       << mask << "\",\"compiler\":\""
       << bf::stats::jsonEscape(std::string(BF_BENCH_COMPILER) + " (" +
                                __VERSION__ + ")")
       << "\",\"build_type\":\""
       << bf::stats::jsonEscape(BF_BENCH_BUILD_TYPE) << "\",\"lto\":"
       << (BF_BENCH_LTO ? "true" : "false") << ",\"git_rev\":\""
       << bf::stats::jsonEscape(rev) << "\"}";
    return os.str();
}

/** Serialized observability output of one simulation run. */
struct RunArtifacts
{
    std::string stats_json;      //!< stats::toJson of the final tree.
    std::string timeseries_json; //!< StatSampler::toJson.
    std::string trace_path;      //!< Event-trace file ("" = tracing off).
    std::string tenants_json;    //!< attrib::Registry::tenantsJson
                                 //!< ("" = attribution off).
    bool capped = false;         //!< Run hit the runUntilFinished cap.
};

/** Accumulates one bench's results and writes BENCH_<name>.json. */
class BenchReport
{
  public:
    explicit BenchReport(std::string name) : name_(std::move(name))
    {
        if (const char *flag = std::getenv("BF_JSON"))
            enabled_ = !(flag[0] == '0' && flag[1] == '\0');
        if (const char *dir = std::getenv("BF_JSON_DIR"))
            dir_ = dir;
    }

    bool enabled() const { return enabled_; }

    /** Output path: <BF_JSON_DIR>/BENCH_<name>.json */
    std::string
    path() const
    {
        return dir_ + "/BENCH_" + name_ + ".json";
    }

    /** Record a configuration knob. */
    void
    config(const std::string &key, double value)
    {
        config_.emplace_back(key, bf::stats::jsonNumber(value));
    }

    void
    config(const std::string &key, const std::string &value)
    {
        config_.emplace_back(
            key, "\"" + bf::stats::jsonEscape(value) + "\"");
    }

    /** Record a headline metric (one number the tables also print). */
    void
    metric(const std::string &name, double value)
    {
        metrics_.emplace_back(name, value);
    }

    /**
     * Record a host-speed measurement: wall-clock seconds of simulation
     * and the resulting simulated MIPS (instructions per host-second /
     * 1e6). These fields describe the *simulator's* throughput, never
     * the modeled machine, so they are exempt from golden-stats diffs.
     */
    void
    host(const std::string &label, double host_seconds, double sim_mips)
    {
        host_.push_back({ label, host_seconds, sim_mips });
    }

    /**
     * As host(), plus the per-phase breakdown of where those host
     * seconds went (System::phaseTimes — bound / fault-service / merge
     * / weave). Emits the optional "phases" object on the host row.
     */
    void
    hostPhases(const std::string &label, double host_seconds,
               double sim_mips, double bound, double fault, double merge,
               double weave)
    {
        host_.push_back(
            { label, host_seconds, sim_mips, true, bound, fault, merge,
              weave });
    }

    /** @{ @name Free-form notes (e.g.\ baseline_mips, speedup). */
    void
    note(const std::string &key, double value)
    {
        notes_.emplace_back(key, bf::stats::jsonNumber(value));
    }

    void
    note(const std::string &key, const std::string &value)
    {
        notes_.emplace_back(
            key, "\"" + bf::stats::jsonEscape(value) + "\"");
    }
    /** @} */

    /** Record one run's full stats + time series under a label. */
    void
    addRun(const std::string &label, const RunArtifacts &artifacts)
    {
        runs_.emplace_back(label, artifacts);
        if (artifacts.capped)
            ++capped_runs_;
    }

    /**
     * Record an analytic series (parameter sweeps of benches that do
     * not run a System, e.g. the CactiLite area-vs-entries curve).
     */
    void
    addSeries(const std::string &name, const std::string &x_label,
              const std::string &y_label,
              const std::vector<std::pair<double, double>> &points)
    {
        series_.push_back({ name, x_label, y_label, points });
    }

    /** Runs recorded so far that hit the runUntilFinished cycle cap. */
    unsigned cappedRuns() const { return capped_runs_; }

    /**
     * Write the JSON file and surface truncated runs on stdout. Call
     * once, after the tables are printed.
     */
    void
    write() const
    {
        if (capped_runs_) {
            std::printf("WARNING: %u run(s) hit the runUntilFinished "
                        "cycle cap; their results are truncated, not "
                        "converged\n",
                        capped_runs_);
        }
        if (!enabled_)
            return;
        std::ofstream os(path());
        if (!os) {
            std::fprintf(stderr, "could not write %s\n", path().c_str());
            return;
        }
        os << "{\"schema_version\":3,\"bench\":\""
           << bf::stats::jsonEscape(name_) << "\",\"config\":{";
        bool first = true;
        for (const auto &[key, value] : config_) {
            os << (first ? "" : ",") << '"' << bf::stats::jsonEscape(key)
               << "\":" << value;
            first = false;
        }
        os << "},\"metrics\":{";
        first = true;
        for (const auto &[key, value] : metrics_) {
            os << (first ? "" : ",") << '"' << bf::stats::jsonEscape(key)
               << "\":" << bf::stats::jsonNumber(value);
            first = false;
        }
        os << "},\"capped_runs\":" << capped_runs_ << ",\"runs\":{";
        first = true;
        for (const auto &[label, artifacts] : runs_) {
            os << (first ? "" : ",") << '"'
               << bf::stats::jsonEscape(label) << "\":{\"capped\":"
               << (artifacts.capped ? "true" : "false")
               << ",\"trace_file\":\""
               << bf::stats::jsonEscape(artifacts.trace_path)
               << "\",\"stats\":"
               << (artifacts.stats_json.empty() ? "{}"
                                                : artifacts.stats_json)
               << ",\"timeseries\":"
               << (artifacts.timeseries_json.empty()
                       ? "{}"
                       : artifacts.timeseries_json)
               << ",\"tenants\":"
               << (artifacts.tenants_json.empty() ? "[]"
                                                  : artifacts.tenants_json)
               << '}';
            first = false;
        }
        os << "},\"series\":{";
        first = true;
        for (const auto &s : series_) {
            os << (first ? "" : ",") << '"'
               << bf::stats::jsonEscape(s.name) << "\":{\"x_label\":\""
               << bf::stats::jsonEscape(s.x_label) << "\",\"y_label\":\""
               << bf::stats::jsonEscape(s.y_label) << "\",\"points\":[";
            bool pfirst = true;
            for (const auto &[x, y] : s.points) {
                os << (pfirst ? "" : ",") << '['
                   << bf::stats::jsonNumber(x) << ','
                   << bf::stats::jsonNumber(y) << ']';
                pfirst = false;
            }
            os << "]}";
            first = false;
        }
        os << "},\"host\":{";
        first = true;
        for (const auto &h : host_) {
            os << (first ? "" : ",") << '"'
               << bf::stats::jsonEscape(h.label) << "\":{\"host_seconds\":"
               << bf::stats::jsonNumber(h.host_seconds) << ",\"sim_mips\":"
               << bf::stats::jsonNumber(h.sim_mips);
            if (h.has_phases) {
                os << ",\"phases\":{\"bound\":"
                   << bf::stats::jsonNumber(h.bound) << ",\"fault\":"
                   << bf::stats::jsonNumber(h.fault) << ",\"merge\":"
                   << bf::stats::jsonNumber(h.merge) << ",\"weave\":"
                   << bf::stats::jsonNumber(h.weave) << '}';
            }
            os << '}';
            first = false;
        }
        os << "},\"notes\":{";
        first = true;
        for (const auto &[key, value] : notes_) {
            os << (first ? "" : ",") << '"' << bf::stats::jsonEscape(key)
               << "\":" << value;
            first = false;
        }
        os << "},\"host_meta\":" << hostMetaJson() << "}\n";
        std::printf("wrote %s\n", path().c_str());
    }

  private:
    struct Series
    {
        std::string name;
        std::string x_label;
        std::string y_label;
        std::vector<std::pair<double, double>> points;
    };

    struct HostSpeed
    {
        std::string label;
        double host_seconds = 0;
        double sim_mips = 0;
        bool has_phases = false; //!< Emit the "phases" object.
        double bound = 0;
        double fault = 0;
        double merge = 0;
        double weave = 0;
    };

    std::string name_;
    std::string dir_ = ".";
    bool enabled_ = true;
    std::vector<std::pair<std::string, std::string>> config_;
    std::vector<std::pair<std::string, double>> metrics_;
    std::vector<std::pair<std::string, RunArtifacts>> runs_;
    std::vector<Series> series_;
    std::vector<HostSpeed> host_;
    std::vector<std::pair<std::string, std::string>> notes_;
    unsigned capped_runs_ = 0;
};

} // namespace bfbench

#endif // BF_BENCH_REPORT_HH
