#include "common/stats.hh"

#include <cmath>
#include <iomanip>

#include "common/logging.hh"
#include "common/snapshot.hh"

namespace bf::stats
{

void
Histogram::sample(std::uint64_t value)
{
    std::size_t bucket = 0;
    std::uint64_t v = value;
    while (v > 1) {
        v >>= 1;
        ++bucket;
    }
    if (bucket >= buckets_.size())
        buckets_.resize(bucket + 1, 0);
    ++buckets_[bucket];
    ++count_;
    sum_ += static_cast<double>(value);
    max_ = std::max(max_, value);
}

void
Histogram::reset()
{
    buckets_.clear();
    count_ = 0;
    sum_ = 0;
    max_ = 0;
}

std::uint64_t
Distribution::percentile(double p) const
{
    if (count_ == 0)
        return 0;
    bf_assert(p >= 0.0 && p <= 100.0, "percentile out of range: ", p);
    auto rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count_)));
    if (rank == 0)
        rank = 1;
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        cumulative += buckets_[i];
        if (cumulative >= rank)
            return i == 0 ? 0 : std::uint64_t{1} << i;
    }
    return max_;
}

double
LatencyTracker::mean() const
{
    if (samples_.empty())
        return 0.0;
    double sum = 0;
    for (double s : samples_)
        sum += s;
    return sum / static_cast<double>(samples_.size());
}

void
LatencyTracker::sort() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
LatencyTracker::percentile(double p) const
{
    if (samples_.empty())
        return 0.0;
    sort();
    bf_assert(p >= 0.0 && p <= 100.0, "percentile out of range: ", p);
    const auto n = samples_.size();
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 *
                                                   static_cast<double>(n)));
    if (rank > 0)
        --rank;
    return samples_[std::min(rank, n - 1)];
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : name_(std::move(name)), parent_(parent)
{
    if (parent_)
        parent_->children_.push_back(this);
}

void
StatGroup::addStat(const std::string &name, const Scalar *stat)
{
    bf_assert(!scalars_.count(name), "duplicate stat ", path(), ".", name);
    scalars_[name] = stat;
}

void
StatGroup::addStat(const std::string &name, const Average *stat)
{
    bf_assert(!averages_.count(name), "duplicate stat ", path(), ".", name);
    averages_[name] = stat;
}

void
StatGroup::addStat(const std::string &name, const LatencyTracker *stat)
{
    bf_assert(!latencies_.count(name), "duplicate stat ", path(), ".", name);
    latencies_[name] = stat;
}

void
StatGroup::addStat(const std::string &name, const Distribution *stat)
{
    bf_assert(!distributions_.count(name), "duplicate stat ", path(), ".",
              name);
    distributions_[name] = stat;
}

std::string
StatGroup::path() const
{
    if (!parent_)
        return name_;
    return parent_->path() + "." + name_;
}

void
StatGroup::dump(std::ostream &os) const
{
    const std::string prefix = path();
    for (const auto &[name, stat] : scalars_)
        os << prefix << "." << name << " " << stat->value() << "\n";
    for (const auto &[name, stat] : averages_) {
        os << prefix << "." << name << ".mean " << stat->mean() << "\n";
        os << prefix << "." << name << ".count " << stat->count() << "\n";
    }
    for (const auto &[name, stat] : latencies_) {
        os << prefix << "." << name << ".mean " << stat->mean() << "\n";
        os << prefix << "." << name << ".p95 " << stat->percentile(95)
           << "\n";
        os << prefix << "." << name << ".count " << stat->count() << "\n";
    }
    for (const auto &[name, stat] : distributions_) {
        os << prefix << "." << name << ".mean " << stat->mean() << "\n";
        os << prefix << "." << name << ".p95 " << stat->percentile(95)
           << "\n";
        os << prefix << "." << name << ".count " << stat->count() << "\n";
    }
    for (const auto *child : children_)
        child->dump(os);
}

void
StatGroup::accept(StatVisitor &visitor) const
{
    visitor.beginGroup(*this);
    for (const auto &[name, stat] : scalars_)
        visitor.visitScalar(*this, name, *stat);
    for (const auto &[name, stat] : averages_)
        visitor.visitAverage(*this, name, *stat);
    for (const auto &[name, stat] : latencies_)
        visitor.visitLatency(*this, name, *stat);
    for (const auto &[name, stat] : distributions_)
        visitor.visitDistribution(*this, name, *stat);
    for (const auto *child : children_)
        child->accept(visitor);
    visitor.endGroup(*this);
}

void
StatGroup::saveStats(snap::ArchiveWriter &ar) const
{
    ar.str(name_);
    ar.u32(static_cast<std::uint32_t>(scalars_.size()));
    for (const auto &[name, stat] : scalars_) {
        ar.str(name);
        ar.u64(stat->value());
    }
    ar.u32(static_cast<std::uint32_t>(averages_.size()));
    for (const auto &[name, stat] : averages_) {
        ar.str(name);
        ar.f64(stat->sum());
        ar.u64(stat->count());
    }
    ar.u32(static_cast<std::uint32_t>(latencies_.size()));
    for (const auto &[name, stat] : latencies_) {
        ar.str(name);
        const auto &samples = stat->rawSamples();
        ar.u64(samples.size());
        for (double s : samples)
            ar.f64(s);
    }
    ar.u32(static_cast<std::uint32_t>(distributions_.size()));
    for (const auto &[name, stat] : distributions_) {
        ar.str(name);
        const auto &buckets = stat->buckets();
        ar.u32(static_cast<std::uint32_t>(buckets.size()));
        for (std::uint64_t b : buckets)
            ar.u64(b);
        ar.u64(stat->count());
        ar.u64(stat->sum());
        ar.u64(stat->max());
    }
    ar.u32(static_cast<std::uint32_t>(children_.size()));
    for (const auto *child : children_)
        child->saveStats(ar);
}

namespace
{

// Restore walks the same canonical order save used; any divergence in
// group or stat name means the rebuilt world's stat tree does not match
// the checkpointed one, which restore must refuse to paper over.
void
verifyName(const char *what, const StatGroup &group,
           const std::string &expected, const std::string &found)
{
    if (expected != found) {
        throw snap::SnapshotError(
            std::string("checkpoint stat tree mismatch at ") +
            group.path() + ": expected " + what + " '" + expected +
            "', found '" + found + "'");
    }
}

void
verifyCount(const char *what, const StatGroup &group, std::size_t expected,
            std::size_t found)
{
    if (expected != found) {
        throw snap::SnapshotError(
            std::string("checkpoint stat tree mismatch at ") +
            group.path() + ": " + what + " count " +
            std::to_string(expected) + " != " + std::to_string(found));
    }
}

} // namespace

void
StatGroup::restoreStats(snap::ArchiveReader &ar)
{
    verifyName("group", *this, ar.str(), name_);

    // The registered pointers are const because normal clients only
    // read; the stats live in the owning components, and restore is the
    // one sanctioned writer through this registry.
    verifyCount("scalar", *this, ar.u32(), scalars_.size());
    for (const auto &[name, stat] : scalars_) {
        verifyName("scalar", *this, ar.str(), name);
        const_cast<Scalar *>(stat)->restoreValue(ar.u64());
    }
    verifyCount("average", *this, ar.u32(), averages_.size());
    for (const auto &[name, stat] : averages_) {
        verifyName("average", *this, ar.str(), name);
        const double sum = ar.f64();
        const std::uint64_t count = ar.u64();
        const_cast<Average *>(stat)->restoreState(sum, count);
    }
    verifyCount("latency", *this, ar.u32(), latencies_.size());
    for (const auto &[name, stat] : latencies_) {
        verifyName("latency", *this, ar.str(), name);
        std::vector<double> samples(ar.bounded(ar.u64(), 8));
        for (double &s : samples)
            s = ar.f64();
        const_cast<LatencyTracker *>(stat)->restoreSamples(
            std::move(samples));
    }
    verifyCount("distribution", *this, ar.u32(), distributions_.size());
    for (const auto &[name, stat] : distributions_) {
        verifyName("distribution", *this, ar.str(), name);
        std::vector<std::uint64_t> buckets(ar.bounded(ar.u32(), 8));
        for (std::uint64_t &b : buckets)
            b = ar.u64();
        const std::uint64_t count = ar.u64();
        const std::uint64_t sum = ar.u64();
        const std::uint64_t max = ar.u64();
        const_cast<Distribution *>(stat)->restoreState(std::move(buckets),
                                                       count, sum, max);
    }
    verifyCount("child group", *this, ar.u32(), children_.size());
    for (auto *child : children_)
        child->restoreStats(ar);
}

const Scalar *
StatGroup::findScalar(const std::string &rel_path) const
{
    const auto dot = rel_path.find('.');
    if (dot == std::string::npos) {
        auto it = scalars_.find(rel_path);
        return it == scalars_.end() ? nullptr : it->second;
    }
    const std::string head = rel_path.substr(0, dot);
    const std::string tail = rel_path.substr(dot + 1);
    for (const auto *child : children_) {
        if (child->name_ == head)
            return child->findScalar(tail);
    }
    return nullptr;
}

std::uint64_t
StatGroup::scalar(const std::string &rel_path) const
{
    const Scalar *stat = findScalar(rel_path);
    if (!stat)
        bf_panic("no such stat: ", path(), ".", rel_path);
    return stat->value();
}

bool
StatGroup::hasScalar(const std::string &rel_path) const
{
    return findScalar(rel_path) != nullptr;
}

} // namespace bf::stats
