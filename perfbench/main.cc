/**
 * @file
 * The repository benchmark (see README.md in this directory).
 *
 *   perfbench --workload serve|sweep --seed N --seconds S
 *             --trace 0|1 [--out DIR] [--rev REV] [--src-digest HEX]
 *
 * Runs whole rounds of the workload within S host seconds (at least
 * one round) and prints, as its last stdout line, one JSON
 * object {"correct", "attempted", "failed", "metrics"}. With --trace 0
 * the metrics are the end-to-end ones, measured untraced; with
 * --trace 1 they are the per-layer ones, from wrapped and spanned runs
 * interleaved with untraced runs of the same cells. Every run also
 * writes DIR/<workload>-seed<N>-trace<T>.json (host metadata, each
 * round's values, the metrics) and, traced, DIR/<workload>-seed<N>
 * .spans.json (Chrome trace-event JSON).
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cells.hh"
#include "common/logging.hh"
#include "common/stats_export.hh"

using namespace perfbench;

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * Tolerance of the phase-closure check: the four System phase timers
 * must account for each traced cell's simulation host time to within
 * this share.
 */
constexpr double kClosureTolerance = 0.05;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string out = ".bench_out";
    std::string rev = "unknown";
    std::string src_digest = "unknown";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "serve|sweep --seed N --seconds S --trace 0|1 "
                 "[--out DIR] [--rev REV] [--src-digest HEX]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = value;
        } else if (key == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = *end == '\0' && !value.empty();
        } else if (key == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            have_seconds = *end == '\0' && a.seconds > 0;
        } else if (key == "--trace") {
            a.trace = value == "1";
            have_trace = value == "0" || value == "1";
        } else if (key == "--out") {
            a.out = value;
        } else if (key == "--rev") {
            a.rev = value;
        } else if (key == "--src-digest") {
            a.src_digest = value;
        } else {
            usage(("unknown argument " + key).c_str());
        }
    }
    if (a.workload != "serve" && a.workload != "sweep")
        usage("--workload must be serve or sweep");
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds (> 0) and --trace 0|1 are required");
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

/** CPUs this process may run on, and the affinity mask in hex. */
std::pair<unsigned, std::string>
affinity()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return { std::max(1u, std::thread::hardware_concurrency()), "?" };
    std::string hex;
    int top = -1;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set))
            top = cpu;
    }
    for (int nibble = top / 4; nibble >= 0; --nibble) {
        int v = 0;
        for (int b = 0; b < 4; ++b) {
            if (CPU_ISSET(nibble * 4 + b, &set))
                v |= 1 << b;
        }
        hex += "0123456789abcdef"[v];
    }
    return { static_cast<unsigned>(std::max(1, CPU_COUNT(&set))),
             hex.empty() ? "0" : hex };
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * One round: its sums over the cells (or one sweep round), and the
 * per-unit times the end-to-end metrics take per-unit medians of.
 */
struct Round
{
    double setup_s = 0;
    double sim_s = 0;
    double ctor_s = 0;
    double build_s = 0;
    double gen_s = 0;
    std::uint64_t refs = 0;
    Phases phases;
    LayerCounts counts;
    /** Simulation host time per simulated cell (sweep: the recording). */
    std::vector<double> cell_sim_s;
    /** Host time per design point: a cell, or a replayed grid point. */
    std::vector<double> point_s;
    /** Set-up time per cell, or the sweep's record / decode / schedule. */
    std::vector<double> setup_parts_s;
    // Sweep only.
    double record_s = 0, decode_s = 0, schedule_s = 0;
    std::uint64_t records = 0;

    double simMips() const { return ratio(counts.instructions, sim_s) / 1e6; }

    double
    pointsPerSecond() const
    {
        double total = 0;
        for (const double s : point_s)
            total += s;
        return ratio(static_cast<double>(point_s.size()), total);
    }

    void
    addCell(const CellResult &c)
    {
        setup_s += c.setup_s;
        sim_s += c.sim_s;
        ctor_s += c.ctor_s;
        build_s += c.build_s;
        gen_s += c.gen_s;
        refs += c.refs;
        phases += c.phases;
        counts += c.counts;
        cell_sim_s.push_back(c.sim_s);
    }
};

/**
 * Round pacing: the first round always runs; a later one starts only if
 * a round as long as the previous one still ends within the budget.
 */
class Budget
{
  public:
    explicit Budget(double seconds) : seconds_(seconds) {}

    bool
    startRound()
    {
        const double now =
            std::chrono::duration<double>(Clock::now() - start_).count();
        const double last = now - last_start_;
        last_start_ = now;
        return rounds_++ == 0 || now + last <= seconds_;
    }

  private:
    double seconds_;
    Clock::time_point start_ = Clock::now();
    double last_start_ = 0;
    unsigned rounds_ = 0;
};

/** Operation accounting and the cross-run determinism checks. */
class Checker
{
  public:
    /** Count one operation; it fails when @p problems is non-empty. */
    void
    op(const std::vector<std::string> &problems)
    {
        ++attempted_;
        if (problems.empty())
            return;
        ++failed_;
        for (const auto &p : problems) {
            std::fprintf(stderr, "perfbench: FAILED: %s\n", p.c_str());
            if (problems_.size() < 32)
                problems_.push_back(p);
        }
    }

    /**
     * Every run of @p key must produce the digest of its first run:
     * same seed and configuration, so traced and untraced runs, every
     * round and every worker count give one stats tree.
     */
    void
    sameDigest(const std::string &key, std::uint64_t digest,
               std::vector<std::string> &problems)
    {
        const auto [it, first] = digests_.emplace(key, digest);
        if (!first && it->second != digest)
            problems.push_back(key + ": stats differ from its first run");
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &problems() const { return problems_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> problems_;
    std::map<std::string, std::uint64_t> digests_;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * Which runs of a cell (or sweep round) round @p r makes: untraced
 * only, or both, alternating which goes first.
 */
std::vector<bool>
wrapOrder(bool trace, unsigned r)
{
    if (!trace)
        return { false };
    return r % 2 ? std::vector<bool>{ true, false }
                 : std::vector<bool>{ false, true };
}

/**
 * Serve: rounds over the cells, each simulated on one host thread. A
 * traced run also runs every cell once on @p check_workers threads.
 */
void
runCells(const Args &args, const std::vector<CellSpec> &cells,
         unsigned check_workers, SpanLog *spans, Checker &checker,
         std::vector<Round> &untraced, std::vector<Round> &traced)
{
    Budget budget(args.seconds);
    int run_id = 0;
    for (unsigned r = 0; budget.startRound(); ++r) {
        Round plain, wrapped;
        for (const CellSpec &spec : cells) {
            for (const bool wrap : wrapOrder(args.trace, r)) {
                CellOptions opt;
                opt.seed = args.seed;
                opt.workers = 1;
                opt.wrap = wrap;
                opt.spans = wrap ? spans : nullptr;
                opt.run = run_id++;
                CellResult res = runCell(spec, opt);
                checker.sameDigest(spec.name, res.digest, res.problems);
                if (wrap) {
                    const double closure = ratio(res.phases.total(),
                                                 res.sim_s);
                    if (std::fabs(closure - 1) > kClosureTolerance)
                        res.problems.push_back(
                            spec.name + ": phase timers cover " +
                            num(closure) + " of simulation host time");
                }
                checker.op(res.problems);
                Round &round = wrap ? wrapped : plain;
                round.addCell(res);
                round.point_s.push_back(res.sim_s);
                round.setup_parts_s.push_back(res.setup_s);
            }
        }
        // The stats must not depend on the bound-phase worker count:
        // once per traced run, check each cell on several workers.
        if (args.trace && r == 0 && check_workers > 1) {
            for (const CellSpec &spec : cells) {
                CellOptions opt;
                opt.seed = args.seed;
                opt.workers = check_workers;
                opt.wrap = true;
                opt.spans = spans;
                opt.run = run_id++;
                CellResult res = runCell(spec, opt);
                checker.sameDigest(spec.name, res.digest, res.problems);
                checker.op(res.problems);
            }
        }
        untraced.push_back(plain);
        if (args.trace)
            traced.push_back(wrapped);
    }
}

/** Sweep: rounds of record, decode, schedule and replay. */
void
runSweep(const Args &args, SpanLog *spans, Checker &checker,
         std::vector<Round> &untraced, std::vector<Round> &traced)
{
    std::filesystem::create_directories(args.out);
    Budget budget(args.seconds);
    for (unsigned r = 0; budget.startRound(); ++r) {
        for (const bool wrap : wrapOrder(args.trace, r)) {
            CellOptions opt;
            opt.seed = args.seed;
            opt.wrap = wrap;
            opt.spans = wrap ? spans : nullptr;
            opt.run = static_cast<int>(2 * r + (wrap ? 1 : 0));
            opt.trace_path = args.out + "/sweep-seed" +
                             std::to_string(args.seed) + ".trace";
            SweepResult res = runSweepRound(opt);

            // Operations: the recording cell, then each grid point.
            checker.sameDigest("recording", res.recording.digest,
                               res.recording.problems);
            checker.op(res.recording.problems);
            for (std::size_t i = 0; i < sweepPoints(); ++i) {
                std::vector<std::string> problems;
                if (i >= res.point_digests.size())
                    problems.push_back("point " + std::to_string(i) +
                                       " not replayed");
                else
                    checker.sameDigest("point" + std::to_string(i),
                                       res.point_digests[i], problems);
                if (i == 0)
                    problems.insert(problems.end(), res.problems.begin(),
                                    res.problems.end());
                checker.op(problems);
            }

            Round round;
            round.addCell(res.recording);
            round.setup_s = res.setupSeconds();
            round.record_s = res.record_s;
            round.decode_s = res.decode_s;
            round.schedule_s = res.schedule_s;
            round.records = res.records;
            round.point_s = res.point_s;
            round.setup_parts_s = { res.record_s, res.decode_s,
                                    res.schedule_s };
            (wrap ? traced : untraced).push_back(round);
        }
    }
}

/** Median over rounds of f(round). */
template <typename F>
double
med(const std::vector<Round> &rounds, F f)
{
    std::vector<double> v;
    for (const Round &r : rounds)
        v.push_back(f(r));
    return median(v);
}

/**
 * Sum over units (cells, grid points, set-up parts) of each unit's
 * median across rounds. A burst of host noise then has to hit one unit
 * in more than half of the rounds to move the result.
 */
double
sumOfMedians(const std::vector<Round> &rounds,
             std::vector<double> Round::*units)
{
    double total = 0;
    for (std::size_t i = 0; i < (rounds.front().*units).size(); ++i) {
        std::vector<double> v;
        for (const Round &r : rounds) {
            if (i < (r.*units).size()) // short only in a failed round
                v.push_back((r.*units)[i]);
        }
        total += median(v);
    }
    return total;
}

std::vector<Metric>
endToEnd(const std::vector<Round> &rounds)
{
    // Same seed every round: the instruction count repeats exactly.
    const double instructions =
        static_cast<double>(rounds.front().counts.instructions);
    const double points =
        static_cast<double>(rounds.front().point_s.size());
    const double point_s = sumOfMedians(rounds, &Round::point_s);
    // Sweep: the rate at which the replay loop re-evaluates the recorded
    // cell's instructions, per design point. The recording itself is
    // set-up, and one recording per round is too few samples to time.
    const double sim_s = rounds.front().records
                             ? point_s / points
                             : sumOfMedians(rounds, &Round::cell_sim_s);
    return {
        { "sim_mips", ratio(instructions, sim_s) / 1e6, "MIPS" },
        { "points_per_s", ratio(points, point_s), "1/s" },
        { "setup_s", sumOfMedians(rounds, &Round::setup_parts_s), "s" },
        { "peak_rss_mb", peakRssMb(), "MB" },
    };
}

std::vector<Metric>
perLayer(const Args &args, const std::vector<Round> &untraced,
         const std::vector<Round> &traced)
{
    const bool sweep = args.workload == "sweep";
    // Counts repeat exactly across rounds (same seed); take the first.
    const Round &first = traced.front();
    const LayerCounts &c = first.counts;
    const auto m = [&traced](auto f) { return med(traced, f); };
    const double bound_self =
        m([](const Round &r) { return r.phases.bound - r.gen_s; });
    const double faults = static_cast<double>(
        c.minor_faults + c.cow_faults + c.major_faults);
    const double l3 = static_cast<double>(c.l3_hits + c.l3_misses);

    std::vector<double> point_s;
    if (sweep) {
        for (const Round &r : traced)
            point_s.insert(point_s.end(), r.point_s.begin(),
                           r.point_s.end());
    }
    const double point_p50 = median(point_s);
    const double point_max =
        point_s.empty() ? 0 : *std::max_element(point_s.begin(),
                                                point_s.end());

    const auto e2e = [](const Round &r) {
        return r.records ? r.pointsPerSecond() : r.simMips();
    };
    const double overhead =
        ratio(med(untraced, e2e), med(traced, e2e));

    return {
        { "workloads.gen_s", m([](const Round &r) { return r.gen_s; }), "s" },
        { "workloads.refs", static_cast<double>(first.refs), "count" },
        { "workloads.build_s", m([](const Round &r) { return r.build_s; }),
          "s" },
        { "core.system_ctor_s", m([](const Round &r) { return r.ctor_s; }),
          "s" },
        { "core.bound_s", m([](const Round &r) { return r.phases.bound; }),
          "s" },
        { "core.fault_s", m([](const Round &r) { return r.phases.fault; }),
          "s" },
        { "core.merge_s", m([](const Round &r) { return r.phases.merge; }),
          "s" },
        { "core.weave_s", m([](const Round &r) { return r.phases.weave; }),
          "s" },
        { "core.instructions", static_cast<double>(c.instructions),
          "count" },
        { "core.serial_frac", m([](const Round &r) {
              return ratio(r.phases.fault + r.phases.merge + r.phases.weave,
                           r.sim_s);
          }),
          "ratio" },
        { "core.bound_self_s", bound_self, "s" },
        { "core.unphased_s",
          m([](const Round &r) { return r.sim_s - r.phases.total(); }),
          "s" },
        { "core.phase_closure",
          m([](const Round &r) { return ratio(r.phases.total(), r.sim_s); }),
          "ratio" },
        { "translate.translations", static_cast<double>(c.translations),
          "count" },
        { "translate.ns_per_translation",
          ratio(bound_self, static_cast<double>(c.translations)) * 1e9,
          "ns" },
        { "translate.l2_hit_ratio",
          ratio(c.l2_hits, static_cast<double>(c.l2_hits + c.l2_misses)),
          "ratio" },
        { "translate.l2_shared_hits", static_cast<double>(c.l2_shared_hits),
          "count" },
        { "translate.walks", static_cast<double>(c.walks), "count" },
        { "translate.pwc_hit_ratio",
          ratio(c.pwc_hits, static_cast<double>(c.pwc_hits + c.pwc_misses)),
          "ratio" },
        { "translate.inval_useful_ratio",
          ratio(c.tlb_invalidations, static_cast<double>(c.inval_slots)),
          "ratio" },
        { "vm.minor_faults", static_cast<double>(c.minor_faults), "count" },
        { "vm.cow_faults", static_cast<double>(c.cow_faults), "count" },
        { "vm.shootdowns", static_cast<double>(c.shootdowns), "count" },
        { "vm.us_per_fault",
          ratio(m([](const Round &r) { return r.phases.fault; }), faults) *
              1e6,
          "us" },
        { "mem.l3_accesses", l3, "count" },
        { "mem.l3_miss_ratio", ratio(c.l3_misses, l3), "ratio" },
        { "mem.dram_reads", static_cast<double>(c.dram_reads), "count" },
        { "mem.ns_per_weave_access",
          ratio(m([](const Round &r) {
                    return r.phases.merge + r.phases.weave;
                }),
                l3) *
              1e9,
          "ns" },
        { "trace.record_s", m([](const Round &r) { return r.record_s; }),
          "s" },
        { "trace.records", static_cast<double>(first.records), "count" },
        { "trace.decode_s", m([](const Round &r) { return r.decode_s; }),
          "s" },
        { "replay.schedule_s",
          m([](const Round &r) { return r.schedule_s; }), "s" },
        { "replay.point_samples", static_cast<double>(point_s.size()),
          "count" },
        { "replay.point_s_p50", point_p50, "s" },
        { "replay.point_s_max", point_max, "s" },
        { "replay.ns_per_record",
          ratio(point_p50, static_cast<double>(first.records)) * 1e9,
          "ns" },
        { "bench.trace_overhead", overhead, "ratio" },
    };
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
               num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
               "\"}";
    }
    return out + "}";
}

std::string
listJson(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ", ";
        out += num(values[i]);
    }
    return out + "]";
}

std::string
roundsJson(const std::vector<Round> &rounds)
{
    std::string out = "[";
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        const Round &r = rounds[i];
        out += std::string(i ? ", " : "") + "{\"sim_mips\": " +
               num(r.simMips()) + ", \"points_per_s\": " +
               num(r.pointsPerSecond()) + ", \"setup_s\": " +
               num(r.setup_s) + ", \"sim_s\": " + num(r.sim_s) +
               ", \"instructions\": " + num(r.counts.instructions) +
               ", \"points\": " + num(r.point_s.size()) +
               ", \"bound_s\": " +
               num(r.phases.bound) + ", \"fault_s\": " +
               num(r.phases.fault) + ", \"merge_s\": " +
               num(r.phases.merge) + ", \"weave_s\": " +
               num(r.phases.weave) + ", \"gen_s\": " + num(r.gen_s) +
               ", \"cell_sim_s\": " + listJson(r.cell_sim_s) +
               ", \"point_s\": " + listJson(r.point_s) +
               ", \"setup_parts_s\": " + listJson(r.setup_parts_s) + "}";
    }
    return out + "]";
}

} // namespace

int
main(int argc, char **argv)
{
    bf::detail::setVerbose(false);
    const Args args = parseArgs(argc, argv);
    const auto [cpus, mask] = affinity();
    // Timed runs simulate on one host thread; a traced serve run also
    // checks the stats on up to 4.
    const unsigned check_workers = std::min(4u, cpus);

    std::ostringstream host;
    host << "{\"nproc\": " << std::thread::hardware_concurrency()
         << ", \"affinity_cpus\": " << cpus << ", \"affinity_mask\": \""
         << mask << "\", \"compiler\": \"" << PB_COMPILER << " ("
         << __VERSION__ << ")\", \"build_type\": \"" << PB_BUILD_TYPE
         << "\", \"lto\": " << (PB_LTO ? "true" : "false")
         << ", \"rev\": \"" << bf::stats::jsonEscape(args.rev)
         << "\", \"src_digest\": \"" << bf::stats::jsonEscape(args.src_digest)
         << "\", \"workload\": \"" << args.workload
         << "\", \"seed\": " << args.seed
         << ", \"workers\": 1, \"check_workers\": " << check_workers
         << ", \"seconds\": " << num(args.seconds)
         << ", \"trace\": " << (args.trace ? 1 : 0) << "}";
    std::printf("host: %s\n", host.str().c_str());
    std::fflush(stdout);

    std::filesystem::create_directories(args.out);
    SpanLog span_log;
    SpanLog *spans = args.trace ? &span_log : nullptr;
    Checker checker;
    std::vector<Round> untraced, traced;
    if (args.workload == "sweep") {
        runSweep(args, spans, checker, untraced, traced);
    } else {
        runCells(args, serveCells(), check_workers, spans, checker,
                 untraced, traced);
    }

    const std::vector<Metric> metrics =
        args.trace ? perLayer(args, untraced, traced) : endToEnd(untraced);

    const std::string stem = args.out + "/" + args.workload + "-seed" +
                             std::to_string(args.seed);
    if (spans && !span_log.writeChrome(stem + ".spans.json"))
        std::fprintf(stderr, "perfbench: cannot write %s.spans.json\n",
                     stem.c_str());
    std::string problems = "[";
    for (std::size_t i = 0; i < checker.problems().size(); ++i)
        problems += std::string(i ? ", " : "") + "\"" +
                    bf::stats::jsonEscape(checker.problems()[i]) + "\"";
    problems += "]";
    const std::string result_path =
        stem + "-trace" + (args.trace ? "1" : "0") + ".json";
    if (std::FILE *f = std::fopen(result_path.c_str(), "w")) {
        std::fprintf(f,
                     "{\"host\": %s,\n \"closure_tolerance\": %s,\n"
                     " \"rounds_untraced\": %s,\n \"rounds_traced\": %s,\n"
                     " \"problems\": %s,\n \"metrics\": %s}\n",
                     host.str().c_str(), num(kClosureTolerance).c_str(),
                     roundsJson(untraced).c_str(),
                     roundsJson(traced).c_str(), problems.c_str(),
                     metricsJson(metrics).c_str());
        std::fclose(f);
    }

    std::printf("rounds: %zu untraced, %zu traced; details in %s\n",
                untraced.size(), traced.size(), result_path.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                checker.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(checker.attempted()),
                static_cast<unsigned long long>(checker.failed()),
                metricsJson(metrics).c_str());
    return 0;
}
