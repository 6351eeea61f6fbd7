#include "core/radical.hpp"

#include <stdexcept>

#include "obs/obs.hpp"
#include "rf/phase_model.hpp"

namespace lion::core {

LinearSystem build_system(const signal::PhaseProfile& profile,
                          const TrajectoryFrame& frame,
                          const std::vector<IndexPair>& pairs,
                          std::size_t reference_index, double wavelength) {
  if (reference_index >= profile.size()) {
    throw std::invalid_argument("build_system: reference index out of range");
  }
  if (pairs.empty()) {
    throw std::invalid_argument("build_system: no pairs");
  }
  LION_OBS_SPAN(obs::Stage::kRadical);
  LION_OBS_COUNT("radical.rows", pairs.size());
  const std::size_t rank = frame.rank;
  const std::size_t cols = rank + 1;

  LinearSystem sys;
  sys.reference_index = reference_index;

  // Per-point distance deltas relative to the reference (Eq. 6).
  const double theta_ref = profile[reference_index].phase;
  sys.delta_d.resize(profile.size());
  for (std::size_t i = 0; i < profile.size(); ++i) {
    sys.delta_d[i] = rf::phase_to_distance_delta(
        profile[i].phase - theta_ref, wavelength);
  }

  // Local coordinates of every point referenced by a pair (memoized in
  // one rank-stride array).
  std::vector<double> local(profile.size() * rank);
  std::vector<char> have(profile.size(), 0);
  auto local_of = [&](std::size_t idx) -> const double* {
    double* q = local.data() + idx * rank;
    if (!have[idx]) {
      frame.to_local(profile[idx].position, q);
      have[idx] = 1;
    }
    return q;
  };

  sys.a = linalg::Matrix(pairs.size(), cols);
  sys.k.resize(pairs.size());

  for (std::size_t row = 0; row < pairs.size(); ++row) {
    const auto [i, j] = pairs[row];
    if (i >= profile.size() || j >= profile.size()) {
      throw std::invalid_argument("build_system: pair index out of range");
    }
    const double* qi = local_of(i);
    const double* qj = local_of(j);
    double qi2 = 0.0;
    double qj2 = 0.0;
    for (std::size_t c = 0; c < rank; ++c) {
      sys.a(row, c) = 2.0 * (qi[c] - qj[c]);
      qi2 += qi[c] * qi[c];
      qj2 += qj[c] * qj[c];
    }
    const double ddi = sys.delta_d[i];
    const double ddj = sys.delta_d[j];
    sys.a(row, rank) = 2.0 * (ddi - ddj);
    sys.k[row] = qi2 - qj2 - ddi * ddi + ddj * ddj;
  }
  return sys;
}

}  // namespace lion::core
