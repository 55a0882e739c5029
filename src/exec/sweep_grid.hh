/**
 * @file
 * Config-grid expansion for sweep tools.
 *
 * A sweep spec is a comma-separated list of dimension assignments:
 *
 *   -sweep scheme=0..5,channels=1,2,8,app=mcf,lbm
 *
 * A token containing '=' opens a dimension; bare tokens append more
 * values to the open dimension, so comma does double duty as both the
 * dimension and the value separator. Integer dimensions accept a..b
 * inclusive ranges. Dimensions: app, scheme, channels (channels.count)
 * and wpq_depth (pcm.write_queue_depth); the integer ones take the
 * bounds of their config keys (configKeyBounds).
 *
 * Expansion order is fixed (app, then scheme, then channels, then
 * wpq_depth, each in spec order) so job indices — and therefore the
 * merged report — are a pure function of the spec, never of flag
 * order or thread count. Every job keeps the prototype's cfg.seed, so
 * all points of one app replay the same trace and differ only in what
 * the grid varies.
 */

#ifndef ESD_EXEC_SWEEP_GRID_HH
#define ESD_EXEC_SWEEP_GRID_HH

#include <string>
#include <vector>

#include "exec/sweep_runner.hh"

namespace esd::exec
{

/** The sweep dimensions after parsing; empty vector = dimension not
 * swept (the base config's value is used). */
struct SweepGrid
{
    std::vector<std::string> apps;
    std::vector<SchemeKind> schemes;
    std::vector<unsigned> channels;
    std::vector<unsigned> wpqDepths;
};

/**
 * Parse one -sweep spec into @p grid (values accumulate across calls,
 * so the flag is repeatable).
 *
 * @return true on success; false with a human-readable message in
 *         @p err naming the offending token and the valid choices.
 */
bool parseSweepSpec(const std::string &spec, SweepGrid &grid,
                    std::string *err);

/**
 * Cross-product @p grid over the prototype job @p proto (config, run
 * shape, workers, trace file) into a job list. Unswept dimensions keep
 * the prototype's values; schemes default to all six when unswept, and
 * the app to mcf — or, when @p proto replays a trace file, to the
 * trace path, which the app column then carries.
 */
std::vector<JobSpec> expandGrid(const SweepGrid &grid,
                                 const JobSpec &proto);

} // namespace esd::exec

#endif // ESD_EXEC_SWEEP_GRID_HH
