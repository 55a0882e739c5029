#include "common/stats.hh"

#include <cmath>

#include "common/logging.hh"

namespace esd
{

std::uint64_t
LogHistogram::valueAtRank(std::uint64_t rank) const
{
    if (total_ == 0)
        return 0;
    if (rank < 1)
        rank = 1;
    if (rank > total_)
        rank = total_;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        cum += counts_[i];
        if (cum >= rank)
            return valueAt(i);
    }
    // Unreachable: cum == total_ >= rank after the loop.
    return valueAt(counts_.size() - 1);
}

double
LogHistogram::percentile(double p) const
{
    if (total_ == 0)
        return 0.0;
    esd_assert(p >= 0.0 && p <= 100.0, "percentile out of range");
    std::uint64_t rank =
        p <= 0.0 ? 1
                 : static_cast<std::uint64_t>(
                       std::ceil(p / 100.0 * static_cast<double>(total_)));
    return static_cast<double>(valueAtRank(rank));
}

void
LogHistogram::merge(const LogHistogram &o)
{
    if (o.counts_.size() > counts_.size())
        counts_.resize(o.counts_.size(), 0);
    for (std::size_t i = 0; i < o.counts_.size(); ++i)
        counts_[i] += o.counts_[i];
    total_ += o.total_;
}

void
LatencyStat::enableRawSamples()
{
    esd_assert(count_ == 0, "raw samples must be enabled before sampling");
    keepRaw_ = true;
}

double
LatencyStat::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    esd_assert(p >= 0.0 && p <= 100.0, "percentile out of range");
    return hist_.percentile(p);
}

std::vector<std::pair<double, double>>
LatencyStat::cdf(std::size_t points) const
{
    std::vector<std::pair<double, double>> out;
    if (count_ == 0 || points == 0)
        return out;
    out.reserve(points);
    for (std::size_t i = 1; i <= points; ++i) {
        double frac = static_cast<double>(i) / points;
        auto rank = static_cast<std::uint64_t>(
            std::ceil(frac * static_cast<double>(count_)));
        out.emplace_back(
            static_cast<double>(hist_.valueAtRank(rank)), frac);
    }
    return out;
}

void
LatencyStat::merge(const LatencyStat &o)
{
    if (o.count_ == 0)
        return;
    count_ += o.count_;
    sum_ += o.sum_;
    if (o.min_ < min_)
        min_ = o.min_;
    if (o.max_ > max_)
        max_ = o.max_;
    hist_.merge(o.hist_);
}

} // namespace esd
