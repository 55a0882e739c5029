/**
 * @file
 * DeWrite's duplication predictor (Section II-B, Fig. 4).
 *
 * DeWrite decides per write whether to run the dedup check serially
 * (predicted duplicate) or to overlap encryption+write with the check
 * (predicted non-duplicate). We model the predictor as a table of
 * 2-bit saturating counters indexed by a hash of the logical line —
 * write regions tend to be persistently duplicate-heavy or not, which
 * is the locality the original scheme exploits. Like the metadata
 * caches (channel_cache.hh), each memory channel owns entries / N
 * counters, indexed by the line's position within its channel.
 */

#ifndef ESD_DEDUP_PREDICTOR_HH
#define ESD_DEDUP_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace esd
{

/** Predictor accuracy statistics (the T1/F2/T3/F4 cases of Fig. 4). */
struct PredictorStats
{
    Counter predictDupActualDup;       ///< T1
    Counter predictDupActualNew;       ///< F2
    Counter predictNewActualNew;       ///< T3
    Counter predictNewActualDup;       ///< F4

    std::uint64_t
    total() const
    {
        return predictDupActualDup.value() + predictDupActualNew.value() +
               predictNewActualNew.value() + predictNewActualDup.value();
    }

    double
    accuracy() const
    {
        std::uint64_t t = total();
        return t == 0 ? 0.0
                      : static_cast<double>(predictDupActualDup.value() +
                                            predictNewActualNew.value()) /
                            t;
    }
};

/** 2-bit saturating-counter duplicate predictor. */
class DupPredictor
{
  public:
    static constexpr std::size_t kDefaultEntries = 4096;

    explicit DupPredictor(std::size_t entries = kDefaultEntries,
                          unsigned channels = 1)
        : channels_(channels), perChannel_(entries / channels),
          table_(perChannel_ * channels, 1)  // weakly not-duplicate
    {
    }

    /** Predict whether the write to @p logical will be a duplicate. */
    bool
    predictDuplicate(Addr logical) const
    {
        return table_[indexOf(logical)] >= 2;
    }

    /** Train with the resolved outcome and record accuracy. */
    void
    train(Addr logical, bool predicted_dup, bool actual_dup)
    {
        std::uint8_t &ctr = table_[indexOf(logical)];
        if (actual_dup) {
            if (ctr < 3)
                ++ctr;
        } else if (ctr > 0) {
            --ctr;
        }
        if (predicted_dup && actual_dup)
            stats_.predictDupActualDup.inc();
        else if (predicted_dup && !actual_dup)
            stats_.predictDupActualNew.inc();
        else if (!predicted_dup && !actual_dup)
            stats_.predictNewActualNew.inc();
        else
            stats_.predictNewActualDup.inc();
    }

    const PredictorStats &stats() const { return stats_; }

    /** Zero the counters at the warm-up boundary; contents stay warm. */
    void resetStats() { stats_ = PredictorStats{}; }

  private:
    std::size_t
    indexOf(Addr logical) const
    {
        std::uint64_t line = lineIndex(logical);
        std::uint64_t h = line / channels_;
        h ^= h >> 17;
        h *= 0x9E3779B97F4A7C15ull;
        h ^= h >> 29;
        return static_cast<std::size_t>(line % channels_ * perChannel_ +
                                        h % perChannel_);
    }

    unsigned channels_;
    std::size_t perChannel_;
    std::vector<std::uint8_t> table_;
    PredictorStats stats_;
};

} // namespace esd

#endif // ESD_DEDUP_PREDICTOR_HH
