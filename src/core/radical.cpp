#include "core/radical.hpp"

#include <stdexcept>

#include "obs/obs.hpp"
#include "rf/phase_model.hpp"

namespace lion::core {

namespace {

// Row r of the system: its coefficients to row_at(r) (rank + 1 entries)
// and its rhs to k[r].
template <class RowAt>
void fill_rows(const ProfileTerms& terms, std::size_t rank,
               const std::vector<IndexPair>& pairs, RowAt row_at, double* k) {
  const std::size_t points = terms.delta_d.size();
  for (std::size_t row = 0; row < pairs.size(); ++row) {
    const auto [i, j] = pairs[row];
    if (i >= points || j >= points) {
      throw std::invalid_argument("build_system: pair index out of range");
    }
    const double* qi = terms.local.data() + i * rank;
    const double* qj = terms.local.data() + j * rank;
    double* a = row_at(row);
    double qi2 = 0.0;
    double qj2 = 0.0;
    for (std::size_t c = 0; c < rank; ++c) {
      a[c] = 2.0 * (qi[c] - qj[c]);
      qi2 += qi[c] * qi[c];
      qj2 += qj[c] * qj[c];
    }
    const double ddi = terms.delta_d[i];
    const double ddj = terms.delta_d[j];
    a[rank] = 2.0 * (ddi - ddj);
    k[row] = qi2 - qj2 - ddi * ddi + ddj * ddj;
  }
}

void check_pairs(const std::vector<IndexPair>& pairs) {
  if (pairs.empty()) {
    throw std::invalid_argument("build_system: no pairs");
  }
}

}  // namespace

ProfileTerms profile_terms(const signal::PhaseProfile& profile,
                           const TrajectoryFrame& frame,
                           std::size_t reference_index, double wavelength) {
  if (reference_index >= profile.size()) {
    throw std::invalid_argument("build_system: reference index out of range");
  }
  LION_OBS_SPAN(obs::Stage::kRadical);
  ProfileTerms terms;
  terms.reference_index = reference_index;
  const double theta_ref = profile[reference_index].phase;
  const std::size_t rank = frame.rank;
  terms.delta_d.resize(profile.size());
  terms.local.resize(profile.size() * rank);
  for (std::size_t i = 0; i < profile.size(); ++i) {
    terms.delta_d[i] = rf::phase_to_distance_delta(
        profile[i].phase - theta_ref, wavelength);
    frame.to_local(profile[i].position, terms.local.data() + i * rank);
  }
  return terms;
}

LinearSystem build_system(const signal::PhaseProfile& profile,
                          const TrajectoryFrame& frame,
                          const std::vector<IndexPair>& pairs,
                          std::size_t reference_index, double wavelength) {
  if (reference_index >= profile.size()) {
    throw std::invalid_argument("build_system: reference index out of range");
  }
  check_pairs(pairs);
  return build_system(
      profile_terms(profile, frame, reference_index, wavelength), frame.rank,
      pairs);
}

LinearSystem build_system(const ProfileTerms& terms, std::size_t rank,
                          const std::vector<IndexPair>& pairs) {
  check_pairs(pairs);
  LION_OBS_SPAN(obs::Stage::kRadical);
  LION_OBS_COUNT("radical.rows", pairs.size());
  LinearSystem sys;
  sys.reference_index = terms.reference_index;
  sys.delta_d = terms.delta_d;
  sys.a = linalg::Matrix(pairs.size(), rank + 1);
  sys.k.resize(pairs.size());
  fill_rows(
      terms, rank, pairs,
      [&sys](std::size_t row) { return sys.a.row_data(row); }, sys.k.data());
  return sys;
}

void build_system_into(const ProfileTerms& terms, std::size_t rank,
                       const std::vector<IndexPair>& pairs,
                       linalg::SolverWorkspace& ws) {
  check_pairs(pairs);
  LION_OBS_SPAN(obs::Stage::kRadical);
  LION_OBS_COUNT("radical.rows", pairs.size());
  const std::size_t cols = rank + 1;
  ws.reshape(pairs.size(), cols);
  double* rows = ws.mutable_rows();
  fill_rows(
      terms, rank, pairs,
      [rows, cols](std::size_t row) { return rows + row * cols; },
      ws.mutable_rhs());
}

}  // namespace lion::core
