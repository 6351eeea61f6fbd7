// Pair selection (Sec. IV-B1).
//
// Every linear equation comes from a *pair* of scan positions (one radical
// line / intersection circle per pair). Which pairs are chosen controls the
// conditioning of the system: pairs must be far enough apart that the
// geometric term dominates the phase noise, and collectively diverse enough
// to span every coordinate. Three strategies are provided:
//
//  * interval_pairs     — consecutive pairs a fixed arc interval apart
//                         (the paper's scanning-interval parameter x_o);
//  * spread_pairs       — all sufficiently-separated pairs up to a cap
//                         (a brute-force baseline for ablation);
//  * three_line_pairs   — the structured pairing of Fig. 11 / Eq. (10):
//                         along-line pairs for x, cross-line pairs for y/z.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "signal/profile.hpp"
#include "sim/trajectory.hpp"

namespace lion::core {

using IndexPair = std::pair<std::size_t, std::size_t>;

/// Pairs (i, j) where j is the first sample at least `interval` metres of
/// arc after i; i advances by `stride`. Pairs whose actual separation
/// overshoots interval by more than `tolerance` (gaps in the stream) are
/// skipped.
std::vector<IndexPair> interval_pairs(const signal::PhaseProfile& profile,
                                      double interval, double tolerance = 0.02,
                                      std::size_t stride = 1);

/// Ladder pairing: for each anchor i (strided), pair with the samples at
/// arc offsets interval, 2*interval, 4*interval, ... (a geometric ladder).
/// The short rungs give well-conditioned distance deltas; the long rungs
/// reach across scan segments (e.g. between the lines of a multi-line rig)
/// so every coordinate keeps a nonzero coefficient. This is the localizer's
/// default pairing. Rungs landing in stream gaps (fetching a sample more
/// than `tolerance` past the target arc) are skipped.
std::vector<IndexPair> ladder_pairs(const signal::PhaseProfile& profile,
                                    double interval, double tolerance = 0.1,
                                    std::size_t stride = 1);

/// ladder_pairs over the profile's precomputed signal::arc_lengths (for
/// callers pairing one profile at several intervals).
std::vector<IndexPair> ladder_pairs_from_arcs(const std::vector<double>& arcs,
                                              double interval,
                                              double tolerance,
                                              std::size_t stride);

/// All pairs at least `min_separation` apart (straight-line distance),
/// subsampled by `stride` and truncated to `max_pairs`.
std::vector<IndexPair> spread_pairs(const signal::PhaseProfile& profile,
                                    double min_separation,
                                    std::size_t max_pairs = 5000,
                                    std::size_t stride = 1);

/// Structured pairing for the three-parallel-line rig (Fig. 11): for each
/// anchor sample on L1 at coordinate x, emit
///   (P(x) on L1, P(x + interval) on L1)   -> constrains x,
///   (P(x) on L1, P(x) on L3)              -> constrains y,
///   (P(x) on L1, P(x) on L2)              -> constrains z.
/// Samples are matched to lines by proximity to the rig geometry within
/// `match_tolerance` (transit segments between lines are ignored).
std::vector<IndexPair> three_line_pairs(const signal::PhaseProfile& profile,
                                        const sim::ThreeLineRig& rig,
                                        double interval,
                                        double match_tolerance = 0.02);

/// Keep only profile points whose x coordinate lies within
/// [center_x - range/2, center_x + range/2] — the paper's scanning-range
/// restriction (Sec. V-E applies it along the slide axis).
signal::PhaseProfile restrict_to_x_range(const signal::PhaseProfile& profile,
                                         double center_x, double range);

}  // namespace lion::core
