/**
 * @file
 * Zipf-distributed sampling over a finite population — the engine
 * behind the content locality of the synthetic workloads (Fig. 3:
 * a tiny fraction of unique lines receives most of the references).
 *
 * Uses an exact inverse-CDF over a precomputed cumulative table, so
 * the distribution is textbook Zipf(s) rather than an approximation.
 * A guide table over the CDF (one entry per 1/K of the total mass, K a
 * power of two >= n) narrows each draw's binary search to one bucket,
 * usually a handful of ranks, without changing any draw's result.
 */

#ifndef ESD_TRACE_ZIPF_HH
#define ESD_TRACE_ZIPF_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"

namespace esd
{

/** Draws ranks in [0, n) with P(rank k) proportional to 1/(k+1)^s. */
class ZipfSampler
{
  public:
    /**
     * @param n population size
     * @param s skew exponent; s = 0 degenerates to uniform
     */
    ZipfSampler(std::uint64_t n, double s)
    {
        esd_assert(n > 0, "zipf population must be positive");
        cdf_.reserve(n);
        double acc = 0;
        for (std::uint64_t k = 0; k < n; ++k) {
            acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
            cdf_.push_back(acc);
        }
        total_ = acc;

        // guide_[b] = first rank whose CDF >= (b/K) * total. K is a
        // power of two, so b/K and total/K are exact and b * (total/K)
        // rounds the same real as (b/K) * total. Rounding is monotone:
        // for r in [b/K, (b+1)/K), (b/K)*total <= r*total <=
        // ((b+1)/K)*total, so the rank for r lies in
        // [guide_[b], guide_[b+1]].
        esd_assert(n <= 0xffffffffull, "zipf population too large");
        while (guideBuckets_ < n)
            guideBuckets_ *= 2;
        guide_.resize(guideBuckets_ + 1);
        const double step = total_ / static_cast<double>(guideBuckets_);
        std::uint32_t k = 0;
        for (std::uint64_t b = 0; b <= guideBuckets_; ++b) {
            double t = static_cast<double>(b) * step;
            while (k + 1 < n && cdf_[k] < t)
                ++k;
            guide_[b] = k;
        }
    }

    /** Draw one rank using @p rng. */
    std::uint64_t sample(Pcg32 &rng) const { return rankAt(rng.uniform()); }

    /** The rank drawn for uniform variate @p r in [0, 1): the first
     * rank whose CDF >= r * total. */
    std::uint64_t
    rankAt(double r) const
    {
        double u = r * total_;
        auto b = static_cast<std::uint64_t>(
            r * static_cast<double>(guideBuckets_));
        // Binary search for the first cdf entry >= u, within b's
        // bucket.
        std::size_t lo = guide_[b], hi = guide_[b + 1];
        while (lo < hi) {
            std::size_t mid = (lo + hi) / 2;
            if (cdf_[mid] < u)
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo;
    }

    /** Exact probability of rank @p k. */
    double
    probability(std::uint64_t k) const
    {
        double prev = (k == 0) ? 0.0 : cdf_[k - 1];
        return (cdf_[k] - prev) / total_;
    }

    std::uint64_t population() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
    double total_ = 0;

    /** Guide-table bucket count K (power of two >= population). */
    std::uint64_t guideBuckets_ = 1;
    /** K + 1 entries: guide_[b] = first rank whose CDF >= b/K of the
     * total. */
    std::vector<std::uint32_t> guide_;
};

} // namespace esd

#endif // ESD_TRACE_ZIPF_HH
