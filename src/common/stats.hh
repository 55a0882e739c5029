/**
 * @file
 * Statistics primitives: scalar counters, distributions, and a latency
 * recorder able to report averages, percentiles, and full CDFs.
 *
 * These mirror what gem5's stats package provides at the granularity the
 * ESD evaluation needs (Figs. 11-17 are all built from these).
 */

#ifndef ESD_COMMON_STATS_HH
#define ESD_COMMON_STATS_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace esd
{

/** A named monotonically increasing scalar statistic. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t by = 1) { value_ += by; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

    /** This count as a share of @p whole; 0 when @p whole is 0. */
    double
    shareOf(const Counter &whole) const
    {
        return whole.value_ == 0 ? 0.0
                                 : static_cast<double>(value_) / whole.value_;
    }

  private:
    std::uint64_t value_ = 0;
};

/**
 * HdrHistogram-style exact counting histogram over unsigned values.
 *
 * Layout: values below kSubBucketCount (4096) land in unit-width
 * buckets — i.e. they are recorded *exactly*; larger values fall into
 * log2 buckets of kSubBucketHalfCount linear sub-buckets each, so the
 * relative quantization error is bounded by 2^-11 everywhere. Simulated
 * latencies are integral nanoseconds and, for the paper's workloads,
 * far below 4096 ns, so in practice every recorded value is exact.
 *
 * record() is O(1); percentiles are exact-count (nearest-rank over the
 * bucket counters, reporting each bucket's lowest contained value);
 * merge() is element-wise counter addition, hence associative and
 * commutative — the property the sweep engine relies on to make
 * `-jobs=N` reports byte-identical to `-jobs=1`.
 */
class LogHistogram
{
  public:
    static constexpr unsigned kSubBucketBits = 12;
    static constexpr std::uint64_t kSubBucketCount = 1ull
                                                     << kSubBucketBits;
    static constexpr std::uint64_t kSubBucketHalfCount =
        kSubBucketCount / 2;

    /** Values above this are clamped into the top bucket range. */
    static constexpr std::uint64_t kMaxTrackable = 1ull << 62;

    /** Counter-array index covering value @p v. */
    static std::size_t
    indexFor(std::uint64_t v)
    {
        if (v < kSubBucketCount)
            return static_cast<std::size_t>(v);
        if (v > kMaxTrackable)
            v = kMaxTrackable;
        // Bit length beyond the sub-bucket range picks the log2
        // bucket; the top kSubBucketBits-1 bits below the leading one
        // pick the linear sub-bucket.
        unsigned k = 63u - static_cast<unsigned>(__builtin_clzll(v));
        unsigned bucket = k - (kSubBucketBits - 1);
        std::uint64_t sub = v >> bucket;
        return static_cast<std::size_t>((bucket + 1) *
                                            kSubBucketHalfCount +
                                        (sub - kSubBucketHalfCount));
    }

    /** Lowest value mapping to counter index @p i (the reported
     * representative of the bucket). */
    static std::uint64_t
    valueAt(std::size_t i)
    {
        if (i < kSubBucketCount)
            return i;
        std::size_t bucket = i / kSubBucketHalfCount - 1;
        std::uint64_t sub = i % kSubBucketHalfCount + kSubBucketHalfCount;
        return sub << bucket;
    }

    /** Width of bucket @p i: valueAt(i) .. valueAt(i)+width-1 share
     * the counter. */
    static std::uint64_t
    widthAt(std::size_t i)
    {
        if (i < kSubBucketCount)
            return 1;
        return 1ull << (i / kSubBucketHalfCount - 1);
    }

    /** Count @p n occurrences of value @p v — O(1). */
    void
    record(std::uint64_t v, std::uint64_t n = 1)
    {
        std::size_t i = indexFor(v);
        if (i >= counts_.size())
            counts_.resize(i + 1, 0);
        counts_[i] += n;
        total_ += n;
    }

    std::uint64_t totalCount() const { return total_; }
    bool empty() const { return total_ == 0; }

    /** Allocated counter slots (highest used bucket + 1). */
    std::size_t size() const { return counts_.size(); }

    /**
     * Value of the @p rank-th smallest recorded sample (1-indexed,
     * clamped to [1, totalCount]); 0 when empty.
     */
    std::uint64_t valueAtRank(std::uint64_t rank) const;

    /** Nearest-rank percentile, @p p in [0, 100]; 0 when empty. */
    double percentile(double p) const;

    /** Element-wise counter addition — associative and commutative. */
    void merge(const LogHistogram &o);

    /** Visit every non-empty bucket as fn(lo, width, count), ascending
     * by value. */
    template <typename Fn>
    void
    forEachBucket(Fn &&fn) const
    {
        for (std::size_t i = 0; i < counts_.size(); ++i)
            if (counts_[i] != 0)
                fn(valueAt(i), widthAt(i), counts_[i]);
    }

    void
    reset()
    {
        counts_.clear();
        total_ = 0;
    }

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/**
 * A latency distribution recorder.
 *
 * Every sample lands in an exact LogHistogram (O(1), deterministic,
 * mergeable), which backs percentile() and cdf(); count, sum, mean,
 * min, and max are tracked exactly on the side. Samples are quantized
 * to integral nanoseconds for the histogram — exact for the simulated
 * timing model, which produces integral ns.
 *
 * Raw per-sample storage is opt-in (enableRawSamples()): when enabled,
 * samples() keeps every observation for external export. It never
 * feeds percentiles, so reported quantiles are reproducible across
 * worker counts and merge order.
 */
class LatencyStat
{
  public:
    /** Keep every sample in samples() (the raw-export opt-in). Must be
     * called before the first sample, so samples() holds them all. */
    void enableRawSamples();

    bool rawSamplesEnabled() const { return keepRaw_; }

    /** Record one sample (nanoseconds). */
    void
    sample(double v)
    {
        ++count_;
        sum_ += v;
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
        hist_.record(quantize(v));
        if (keepRaw_)
            samples_.push_back(v);
    }

    /** Total samples observed (exact). */
    std::uint64_t count() const { return count_; }

    double sum() const { return sum_; }

    /** Arithmetic mean; 0 when empty. */
    double
    mean() const
    {
        return count_ == 0 ? 0.0 : sum_ / count_;
    }

    /** Running minimum — O(1), exact. */
    double
    min() const
    {
        return count_ == 0 ? 0.0 : min_;
    }

    /** Running maximum — O(1), exact. */
    double
    max() const
    {
        return count_ == 0 ? 0.0 : max_;
    }

    /**
     * Value at percentile @p p in [0, 100]: exact-count nearest-rank
     * over the histogram, independent of sample arrival order.
     */
    double percentile(double p) const;

    /**
     * The empirical CDF sampled at @p points evenly spaced quantiles.
     * @return vector of (latency, cumulative fraction) pairs.
     */
    std::vector<std::pair<double, double>> cdf(std::size_t points) const;

    /** The exact value histogram (serialization / analyzers). */
    const LogHistogram &histogram() const { return hist_; }

    /** Raw stored samples: empty unless raw storage was opted into,
     * then everything observed. */
    const std::vector<double> &samples() const { return samples_; }

    /**
     * Fold another stat into this one: counters add, extrema combine,
     * histograms merge bucket-wise. Deterministic in any merge order.
     * Raw samples are not merged (samples() keeps only this stat's
     * own observations).
     */
    void merge(const LatencyStat &o);

    /** Drop all observations; the raw-storage opt-in is retained. */
    void
    reset()
    {
        samples_.clear();
        hist_.reset();
        count_ = 0;
        sum_ = 0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

  private:
    /** Histogram domain: non-negative integral ns (floor). */
    static std::uint64_t
    quantize(double v)
    {
        if (!(v > 0.0))
            return 0;
        if (v >= static_cast<double>(LogHistogram::kMaxTrackable))
            return LogHistogram::kMaxTrackable;
        return static_cast<std::uint64_t>(v);
    }

    bool keepRaw_ = false;
    std::vector<double> samples_;
    LogHistogram hist_;
    std::uint64_t count_ = 0;
    double sum_ = 0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * A histogram over power-of-ten style reference-count buckets used by the
 * Fig. 3 content-locality analysis: num1, num10, num100, num1000,
 * num1000+ (bucket upper bounds 1, 10, 100, 1000, +inf).
 */
class RefCountBuckets
{
  public:
    static constexpr std::size_t kNumBuckets = 5;

    /** Record a unique line whose reference count is @p refs. */
    void
    add(std::uint64_t refs)
    {
        std::size_t b = bucketOf(refs);
        lines_[b] += 1;
        volume_[b] += refs;
    }

    /** Bucket index for a reference count. */
    static std::size_t
    bucketOf(std::uint64_t refs)
    {
        if (refs <= 1)
            return 0;
        if (refs <= 10)
            return 1;
        if (refs <= 100)
            return 2;
        if (refs <= 1000)
            return 3;
        return 4;
    }

    static const char *
    bucketName(std::size_t b)
    {
        static const char *names[kNumBuckets] = {
            "num1", "num10", "num100", "num1000", "num1000+"};
        return names[b];
    }

    /** Count of unique lines in bucket @p b. */
    std::uint64_t lines(std::size_t b) const { return lines_[b]; }

    /** Total pre-dedup write volume (line count) from bucket @p b. */
    std::uint64_t volume(std::size_t b) const { return volume_[b]; }

    std::uint64_t
    totalLines() const
    {
        std::uint64_t t = 0;
        for (auto v : lines_)
            t += v;
        return t;
    }

    std::uint64_t
    totalVolume() const
    {
        std::uint64_t t = 0;
        for (auto v : volume_)
            t += v;
        return t;
    }

  private:
    std::uint64_t lines_[kNumBuckets] = {0, 0, 0, 0, 0};
    std::uint64_t volume_[kNumBuckets] = {0, 0, 0, 0, 0};
};

} // namespace esd

#endif // ESD_COMMON_STATS_HH
