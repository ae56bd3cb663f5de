#include "cells.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <utility>

#include "common/stats_export.hh"
#include "common/trace/trace.hh"
#include "core/system.hh"
#include "replay/replay.hh"
#include "timed_thread.hh"
#include "workloads/function.hh"

namespace perfbench
{

using namespace bf;

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Flattener : public stats::StatVisitor
{
  public:
    explicit Flattener(FlatStats &out) : out_(out) {}

    void
    visitScalar(const stats::StatGroup &group, const std::string &name,
                const stats::Scalar &stat) override
    {
        out_[group.path() + "." + name] = stat.value();
    }

    void
    visitDistribution(const stats::StatGroup &group,
                      const std::string &name,
                      const stats::Distribution &stat) override
    {
        const std::string base = group.path() + "." + name;
        out_[base + ".count"] = stat.count();
        out_[base + ".sum"] = stat.sum();
        out_[base + ".max"] = stat.max();
    }

  private:
    FlatStats &out_;
};

/** Split "system.core3.mmu.l1_hits" at the dots. */
std::vector<std::string>
splitPath(const std::string &path)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    for (;;) {
        const std::size_t dot = path.find('.', start);
        parts.push_back(path.substr(start, dot - start));
        if (dot == std::string::npos)
            return parts;
        start = dot + 1;
    }
}

/** "<prefix><digits>" — core groups ("core3") and tenants ("t12"). */
bool
isIndexed(const std::string &seg, const std::string &prefix)
{
    if (seg.size() <= prefix.size() || seg.compare(0, prefix.size(), prefix))
        return false;
    for (std::size_t i = prefix.size(); i < seg.size(); ++i) {
        if (seg[i] < '0' || seg[i] > '9')
            return false;
    }
    return true;
}

/** The 14 translation scalars attribution mirrors per tenant. */
const char *const kMmuScalars[] = {
    "l1_hits",          "l1_misses",          "l2_data_hits",
    "l2_data_misses",   "l2_instr_hits",      "l2_instr_misses",
    "l2_data_shared_hits", "l2_instr_shared_hits", "l2_long_accesses",
    "minor_faults",     "major_faults",       "cow_faults",
    "shared_installs",  "fault_cycles",
};

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 1469598103934665603ull;
    for (const unsigned char c : bytes) {
        hash ^= c;
        hash *= 1099511628211ull;
    }
    return hash;
}

core::SystemParams
paramsFor(const CellSpec &spec, const CellOptions &opt)
{
    core::SystemParams params = core::SystemParams::babelfish();
    params.num_cores = spec.faas ? 1 : spec.cores;
    params.workers = opt.workers;
    params.seed = opt.seed;
    params.trace_path = opt.trace_path;
    if (spec.faas) {
        // As the Fig. 11 FaaS runs: a fine quantum interleaves the
        // three short-lived containers.
        params.core.quantum = msToCycles(0.5);
    }
    return params;
}

} // namespace

FlatStats
flatten(const stats::StatGroup &root)
{
    FlatStats out;
    Flattener visitor(out);
    root.accept(visitor);
    return out;
}

std::uint64_t
statsDigest(const stats::StatGroup &root)
{
    return fnv1a(stats::toJsonString(root));
}

std::vector<std::string>
reconcile(const FlatStats &stats)
{
    // Sums keyed by "<side>:<name>", side g (global) or t (tenants).
    std::map<std::string, std::uint64_t> sum;
    std::uint64_t lat_max[2] = { 0, 0 };
    bool tenants = false;
    for (const auto &[path, value] : stats) {
        const auto p = splitPath(path);
        if (p.size() < 3 || p[0] != "system")
            continue;
        std::string key;
        int side = -1;
        if (isIndexed(p[1], "core")) {
            side = 0;
            if (p.size() == 3)
                key = p[2]; // instructions
            else if (p.size() == 4 && p[2] == "mmu")
                key = p[3];
            else if (p.size() == 5 && p[2] == "mmu" && p[3] == "walker")
                key = p[4]; // walks
            else if (p.size() == 5 && p[2] == "mmu" &&
                     p[3] == "miss_latency")
                key = "miss_latency." + p[4];
        } else if (p[1] == "kernel" && p.size() == 3) {
            side = 0;
            if (p[2] == "shootdowns")
                key = "shootdowns_caused";
            else if (p[2] == "cow_privatizations")
                key = p[2];
        } else if (p[1] == "attrib" && p.size() >= 4 &&
                   isIndexed(p[2], "t")) {
            side = 1;
            tenants = true;
            if (p.size() == 4)
                key = p[3];
            else if (p.size() == 5 && p[3] == "miss_latency")
                key = "miss_latency." + p[4];
        }
        if (key.empty())
            continue;
        if (key == "miss_latency.max")
            lat_max[side] = std::max(lat_max[side], value);
        else
            sum[(side ? "t:" : "g:") + key] += value;
    }

    std::vector<std::string> problems;
    if (!tenants) {
        problems.push_back("no attribution rows to reconcile");
        return problems;
    }
    const auto check = [&](const std::string &name, std::uint64_t global,
                           std::uint64_t tenant) {
        if (global != tenant) {
            problems.push_back("reconcile " + name + ": global " +
                               std::to_string(global) + " != tenants " +
                               std::to_string(tenant));
        }
    };
    std::vector<std::string> keys(std::begin(kMmuScalars),
                                  std::end(kMmuScalars));
    for (const char *extra :
         { "walks", "instructions", "cow_privatizations",
           "shootdowns_caused", "miss_latency.count",
           "miss_latency.sum" })
        keys.push_back(extra);
    for (const auto &key : keys)
        check(key, sum["g:" + key], sum["t:" + key]);
    check("miss_latency.max", lat_max[0], lat_max[1]);
    return problems;
}

LayerCounts
LayerCounts::between(const FlatStats &before, const FlatStats &after)
{
    LayerCounts c;
    for (const auto &[path, value] : after) {
        const auto it = before.find(path);
        const std::uint64_t d = value - (it == before.end() ? 0 : it->second);
        const auto p = splitPath(path);
        if (p.size() < 3 || p[0] != "system")
            continue;
        if (isIndexed(p[1], "core")) {
            if (p.size() == 3 && p[2] == "instructions") {
                c.instructions += d;
                ++c.cores;
            }
            if (p.size() < 4 || p[2] != "mmu")
                continue;
            const std::string &leaf = p.back();
            if (p.size() == 4) {
                if (leaf == "l1_hits" || leaf == "l1_misses")
                    c.translations += d;
                else if (leaf == "l2_data_hits" || leaf == "l2_instr_hits")
                    c.l2_hits += d;
                else if (leaf == "l2_data_misses" ||
                         leaf == "l2_instr_misses")
                    c.l2_misses += d;
                else if (leaf == "l2_data_shared_hits" ||
                         leaf == "l2_instr_shared_hits")
                    c.l2_shared_hits += d;
            } else if (p.size() == 5) {
                if (p[3] == "walker" && leaf == "walks")
                    c.walks += d;
                else if (p[3] == "pwc" && leaf == "hits")
                    c.pwc_hits += d;
                else if (p[3] == "pwc" && leaf == "misses")
                    c.pwc_misses += d;
                else if (p[3].find("tlb") != std::string::npos &&
                         leaf == "invalidations")
                    c.tlb_invalidations += d;
            }
        } else if (p[1] == "kernel" && p.size() == 3) {
            if (p[2] == "minor_faults")
                c.minor_faults += d;
            else if (p[2] == "cow_faults")
                c.cow_faults += d;
            else if (p[2] == "major_faults")
                c.major_faults += d;
            else if (p[2] == "shootdowns")
                c.shootdowns += d;
        } else if (p[1] == "caches" && p.size() == 4) {
            if (p[2] == "l3" && p[3] == "hits")
                c.l3_hits += d;
            else if (p[2] == "l3" && p[3] == "misses")
                c.l3_misses += d;
            else if (p[2] == "dram" && p[3] == "reads")
                c.dram_reads += d;
        }
    }
    c.inval_slots = c.shootdowns * c.cores * kTlbStructures;
    return c;
}

LayerCounts &
LayerCounts::operator+=(const LayerCounts &o)
{
    cores += o.cores;
    instructions += o.instructions;
    translations += o.translations;
    l2_hits += o.l2_hits;
    l2_misses += o.l2_misses;
    l2_shared_hits += o.l2_shared_hits;
    walks += o.walks;
    pwc_hits += o.pwc_hits;
    pwc_misses += o.pwc_misses;
    tlb_invalidations += o.tlb_invalidations;
    minor_faults += o.minor_faults;
    cow_faults += o.cow_faults;
    major_faults += o.major_faults;
    shootdowns += o.shootdowns;
    l3_hits += o.l3_hits;
    l3_misses += o.l3_misses;
    dram_reads += o.dram_reads;
    inval_slots += o.inval_slots;
    return *this;
}

Phases &
Phases::operator+=(const Phases &o)
{
    bound += o.bound;
    fault += o.fault;
    merge += o.merge;
    weave += o.weave;
    return *this;
}

std::vector<CellSpec>
serveCells()
{
    std::vector<CellSpec> cells;
    for (const auto &profile : workloads::AppProfile::dataServing()) {
        CellSpec spec;
        spec.name = profile.name;
        spec.app = profile;
        cells.push_back(spec);
    }
    for (const bool sparse : { false, true }) {
        CellSpec spec;
        spec.name = sparse ? "fn-sparse" : "fn-dense";
        spec.faas = true;
        spec.sparse = sparse;
        cells.push_back(spec);
    }
    return cells;
}

CellSpec
sweepRecordingCell()
{
    CellSpec spec;
    spec.name = "mongodb-recording";
    spec.app = workloads::AppProfile::mongodb();
    spec.cores = 4;
    return spec;
}

CellResult
runCell(const CellSpec &spec, const CellOptions &opt)
{
    CellResult r;
    Span cell(opt.spans, spec.name, opt.parent, opt.run);
    const core::SystemParams params = paramsFor(spec, opt);

    std::unique_ptr<core::System> sys;
    workloads::AppInstance app;
    workloads::FaasGroup group;
    std::vector<std::unique_ptr<core::Thread>> threads;
    std::vector<std::unique_ptr<TimedThread>> wrappers;
    std::vector<core::Thread *> placed; // What the cores run.

    const auto t_setup = Clock::now();
    {
        Span setup(opt.spans, "setup", cell.id(), opt.run);
        {
            Span s(opt.spans, "system_ctor", setup.id(), opt.run);
            const auto t0 = Clock::now();
            sys = std::make_unique<core::System>(params);
            r.ctor_s = since(t0);
        }
        Span s(opt.spans, "workload_build", setup.id(), opt.run);
        const auto t0 = Clock::now();
        if (spec.faas) {
            group = workloads::buildFaasGroup(
                sys->kernel(), workloads::FunctionProfile::all(),
                opt.seed);
            for (unsigned i = 0; i < 3; ++i) {
                threads.push_back(
                    std::make_unique<workloads::FunctionThread>(
                        group.profiles[i], group.containers[i],
                        spec.sparse, opt.seed + 17 * i));
            }
        } else {
            const unsigned n = spec.cores * kContainersPerCore;
            app = workloads::buildApp(sys->kernel(), spec.app, n,
                                      opt.seed);
            threads = workloads::makeAppThreads(app, opt.seed);
        }
        for (auto &thread : threads) {
            if (opt.wrap) {
                wrappers.push_back(std::make_unique<TimedThread>(*thread));
                placed.push_back(wrappers.back().get());
            } else {
                placed.push_back(thread.get());
            }
        }
        if (spec.faas) {
            sys->addThread(0, placed[0]);
        } else {
            for (std::size_t i = 0; i < placed.size(); ++i)
                sys->addThread(static_cast<unsigned>(i % spec.cores),
                               placed[i]);
        }
        r.build_s = since(t0);
    }
    r.setup_s = since(t_setup);

    const FlatStats before = flatten(sys->stats());
    const auto phases0 = sys->phaseTimes();
    {
        Span run(opt.spans, "run", cell.id(), opt.run);
        const auto t0 = Clock::now();
        const std::uint64_t ticks0 = ticks();
        if (spec.faas) {
            // The Fig. 11 FaaS protocol: the trigger reaches the
            // leading function first, the trailing two join 3 ms later.
            sys->run(msToCycles(3));
            sys->addThread(0, placed[1]);
            sys->addThread(0, placed[2]);
            sys->runUntilFinished(msToCycles(4000));
        } else {
            sys->run(msToCycles(kAppSimMs));
        }
        r.sim_s = since(t0);
        const double tick_s =
            r.sim_s / static_cast<double>(std::max<std::uint64_t>(
                          1, ticks() - ticks0));
        const auto &ph = sys->phaseTimes();
        r.phases.bound = ph.bound_seconds - phases0.bound_seconds;
        r.phases.fault = ph.fault_seconds - phases0.fault_seconds;
        r.phases.merge = ph.merge_seconds - phases0.merge_seconds;
        r.phases.weave = ph.weave_seconds - phases0.weave_seconds;
        for (const auto &w : wrappers) {
            r.gen_s += static_cast<double>(w->genTicks()) * tick_s;
            r.refs += w->refs();
        }
        run.arg("sim_s", r.sim_s);
        run.arg("bound_s", r.phases.bound);
        run.arg("fault_s", r.phases.fault);
        run.arg("merge_s", r.phases.merge);
        run.arg("weave_s", r.phases.weave);
        run.arg("gen_s", r.gen_s);
        run.arg("refs", static_cast<double>(r.refs));
    }

    const FlatStats after = flatten(sys->stats());
    r.counts = LayerCounts::between(before, after);
    r.digest = statsDigest(sys->stats());
    if (sys->run_capped.value() != 0)
        r.problems.push_back(spec.name + ": run_capped != 0");
    for (const auto &p : reconcile(after))
        r.problems.push_back(spec.name + ": " + p);
    return r;
}

namespace
{

/** One replay grid point: geometry applied over the recording config. */
struct GridPoint
{
    unsigned l2_entries, l2_assoc;
    unsigned pwc_entries;
    unsigned opc_width;
};

/** 4 L2 geometries x 2 PWC sizes x 2 O-PC widths, all LRU. */
std::vector<GridPoint>
grid()
{
    std::vector<GridPoint> points;
    for (const auto &[entries, assoc] :
         { std::pair{ 768u, 6u }, std::pair{ 1536u, 12u },
           std::pair{ 3072u, 24u }, std::pair{ 1536u, 24u } })
        for (const unsigned pwc : { 16u, 32u })
            for (const unsigned opc : { 32u, 8u })
                points.push_back({ entries, assoc, pwc, opc });
    return points;
}

replay::ReplayParams
applyPoint(replay::ReplayParams params, const GridPoint &p)
{
    for (tlb::TlbParams *tp :
         { &params.l2_4k, &params.l2_2m, &params.l2_1g }) {
        tp->entries = p.l2_entries;
        tp->assoc = p.l2_assoc;
    }
    params.pwc.entries_per_level = p.pwc_entries;
    params.opc_width = p.opc_width;
    return params;
}

} // namespace

std::size_t
sweepPoints()
{
    return 1 + grid().size();
}

SweepResult
runSweepRound(const CellOptions &opt)
{
    SweepResult r;
    Span round(opt.spans, "sweep_round", opt.parent, opt.run);
    const int round_span = round.id();
    {
        Span rec(opt.spans, "record", round_span, opt.run);
        CellOptions rec_opt = opt;
        rec_opt.parent = rec.id();
        const auto t0 = Clock::now();
        r.recording = runCell(sweepRecordingCell(), rec_opt);
        r.record_s = since(t0);
    }
    try {
        trace::TraceHeader header;
        std::vector<std::vector<trace::Record>> blocks;
        {
            Span s(opt.spans, "decode", round_span, opt.run);
            const auto t0 = Clock::now();
            trace::TraceReader reader(opt.trace_path);
            header = reader.header();
            std::vector<trace::Record> block;
            while (reader.nextBlock(block)) {
                r.records += block.size();
                blocks.push_back(std::move(block));
                block.clear();
            }
            r.decode_s = since(t0);
        }
        std::filesystem::remove(opt.trace_path);

        std::unique_ptr<replay::ReplaySchedule> schedule;
        {
            Span s(opt.spans, "schedule", round_span, opt.run);
            const auto t0 = Clock::now();
            schedule = std::make_unique<replay::ReplaySchedule>(
                header, std::move(blocks));
            r.schedule_s = since(t0);
        }

        const replay::ReplayParams recording =
            replay::paramsFromTrace(header.config);
        std::vector<replay::ReplayParams> points{ recording };
        for (const GridPoint &p : grid())
            points.push_back(applyPoint(recording, p));
        for (std::size_t i = 0; i < points.size(); ++i) {
            Span s(opt.spans, i ? "replay_point" : "replay_point_recording",
                   round_span, opt.run);
            const auto t0 = Clock::now();
            replay::ReplayEngine engine(points[i], header);
            engine.run(*schedule);
            r.point_s.push_back(since(t0));
            if (i == 0) {
                const auto diffs = engine.validate();
                if (!diffs.empty()) {
                    r.problems.push_back(
                        "replay at the recording config diverges on " +
                        std::to_string(diffs.size()) +
                        " counter(s); first " + diffs[0].name);
                }
            }
            r.point_digests.push_back(fnv1a(engine.statsJson()));
        }
    } catch (const std::exception &err) {
        r.problems.push_back(std::string("sweep: ") + err.what());
        std::error_code ec;
        std::filesystem::remove(opt.trace_path, ec);
    }
    return r;
}

} // namespace perfbench
