#include "core/frame.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/eigen.hpp"
#include "linalg/matrix.hpp"

namespace lion::core {

std::vector<double> TrajectoryFrame::to_local(const Vec3& p) const {
  std::vector<double> local(axes.size());
  to_local(p, local.data());
  return local;
}

void TrajectoryFrame::to_local(const Vec3& p, double* out) const {
  const Vec3 rel = p - centroid;
  for (std::size_t k = 0; k < axes.size(); ++k) out[k] = rel.dot(axes[k]);
}

Vec3 TrajectoryFrame::from_local(const std::vector<double>& local,
                                 double perp) const {
  if (local.size() != axes.size()) {
    throw std::invalid_argument("TrajectoryFrame::from_local: size mismatch");
  }
  Vec3 p = centroid;
  for (std::size_t k = 0; k < axes.size(); ++k) p += local[k] * axes[k];
  if (has_perpendicular) p += perp * perpendicular;
  return p;
}

TrajectoryFrame analyze_frame(const signal::PhaseProfile& profile,
                              std::size_t target_dim, double rank_tol) {
  if (target_dim != 2 && target_dim != 3) {
    throw std::invalid_argument("analyze_frame: target_dim must be 2 or 3");
  }
  if (profile.size() < 2) {
    throw std::invalid_argument("analyze_frame: need at least two positions");
  }

  const std::size_t dim = target_dim;
  TrajectoryFrame frame;

  // Centroid (z forced to the scan plane's mean even in 2D mode so that
  // from_local reproduces input points).
  Vec3 c{};
  for (const auto& p : profile) c += p.position;
  c /= static_cast<double>(profile.size());
  frame.centroid = c;
  if (dim == 2) frame.centroid[2] = c[2];  // keep mean z as the plane height

  // Covariance over the first `dim` coordinates.
  linalg::Matrix cov(dim, dim);
  for (const auto& p : profile) {
    const Vec3 rel = p.position - c;
    for (std::size_t i = 0; i < dim; ++i) {
      for (std::size_t j = 0; j <= i; ++j) cov(i, j) += rel[i] * rel[j];
    }
  }
  cov *= 1.0 / static_cast<double>(profile.size());
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = i + 1; j < dim; ++j) cov(i, j) = cov(j, i);
  }

  const auto eig = linalg::symmetric_eigen(cov);
  frame.rank = linalg::spd_rank(eig, rank_tol);

  for (std::size_t k = 0; k < frame.rank; ++k) {
    Vec3 axis{};
    for (std::size_t i = 0; i < dim; ++i) axis[i] = eig.vectors(i, k);
    frame.axes.push_back(axis.normalized());
    frame.spread.push_back(std::sqrt(std::max(0.0, eig.values[k])));
  }

  // Perpendicular direction for a one-dimension deficit.
  if (frame.rank + 1 == target_dim) {
    if (target_dim == 2) {
      // In-plane normal of the scan line: rotate the axis by 90 degrees.
      const Vec3& u = frame.axes[0];
      frame.perpendicular = Vec3{-u[1], u[0], 0.0}.normalized();
    } else {
      frame.perpendicular =
          cross(frame.axes[0], frame.axes[1]).normalized();
    }
    frame.has_perpendicular = true;
  }
  return frame;
}

}  // namespace lion::core
