// Steady-state allocation contract of the small-system solver core: once a
// SolverWorkspace and result object have been warmed on a system shape, the
// whole RANSAC/IRLS hot path must not touch the heap again. This pins the
// PR's central claim — allocator pressure, not FLOPs, dominated the batch
// engine — with a hard zero, not a benchmark.
//
// Mechanism: the test binary replaces the global allocation functions with
// counting wrappers. Counting is gated by an atomic flag so GTest's own
// bookkeeping between phases does not pollute the numbers; delete stays
// unconditional (it must always free what any new returned).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/ransac.hpp"
#include "io/csv.hpp"
#include "linalg/lstsq.hpp"
#include "linalg/matrix.hpp"
#include "linalg/small.hpp"
#include "rf/rng.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace lion {
namespace {

struct Problem {
  linalg::Matrix a;
  std::vector<double> b;
};

Problem line_problem(std::size_t n, double outlier_fraction,
                     std::uint64_t seed) {
  rf::Rng rng(seed);
  Problem p{linalg::Matrix(n, 2), std::vector<double>(n)};
  const std::size_t bad =
      static_cast<std::size_t>(outlier_fraction * static_cast<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    const double x = 0.1 * static_cast<double>(i);
    p.a(i, 0) = x;
    p.a(i, 1) = 1.0;
    p.b[i] = 2.0 * x - 3.0 + rng.gaussian(0.01);
    if (i < bad) p.b[i] += 5.0;
  }
  return p;
}

/// Count global-new calls while running `fn`.
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(AllocationContract, CountersSeeVectorGrowth) {
  // Sanity-check the instrumentation itself: heap traffic is visible.
  const std::size_t n = allocations_during([] {
    std::vector<double> v(4096);
    v[0] = 1.0;
  });
  EXPECT_GT(n, 0u);
}

TEST(AllocationContract, WarmRansacSolveIsAllocationFree) {
  const auto p = line_problem(120, 0.3, 11);
  const core::RansacOptions opt;
  linalg::SolverWorkspace ws;
  core::RansacResult out;
  // Two warm passes: the first sizes the workspace and result vectors, the
  // second proves the sizing is stable before counting starts.
  core::ransac_solve(p.a, p.b, opt, ws, out);
  core::ransac_solve(p.a, p.b, opt, ws, out);

  const std::size_t n = allocations_during([&] {
    for (int i = 0; i < 5; ++i) core::ransac_solve(p.a, p.b, opt, ws, out);
  });
  EXPECT_EQ(n, 0u) << "warmed consensus loop touched the heap " << n
                   << " times";
  ASSERT_TRUE(out.consensus);
}

TEST(AllocationContract, WarmIrlsSolveIsAllocationFree) {
  const auto p = line_problem(120, 0.1, 12);
  linalg::IrlsOptions opt;
  opt.loss = linalg::RobustLoss::kHuber;
  linalg::SolverWorkspace ws;
  linalg::LstsqResult out;
  linalg::solve_irls(p.a, p.b, opt, ws, out);
  linalg::solve_irls(p.a, p.b, opt, ws, out);

  const std::size_t n = allocations_during([&] {
    for (int i = 0; i < 5; ++i) linalg::solve_irls(p.a, p.b, opt, ws, out);
  });
  EXPECT_EQ(n, 0u) << "warmed IRLS loop touched the heap " << n << " times";
  ASSERT_EQ(out.x.size(), 2u);
  EXPECT_TRUE(std::isfinite(out.x[0]));
}

TEST(AllocationContract, WarmLargeSolveIsAllocationFree) {
  // 4096 rows: every LMedS score and IRLS median runs the bracketed
  // selection (above 2048 values), whose sample lives on the stack.
  const auto p = line_problem(4096, 0.2, 15);
  const core::RansacOptions opt;
  linalg::SolverWorkspace ws;
  core::RansacResult out;
  core::ransac_solve(p.a, p.b, opt, ws, out);
  core::ransac_solve(p.a, p.b, opt, ws, out);

  const std::size_t n = allocations_during([&] {
    for (int i = 0; i < 3; ++i) core::ransac_solve(p.a, p.b, opt, ws, out);
  });
  EXPECT_EQ(n, 0u) << "warmed large solve touched the heap " << n
                   << " times";
  ASSERT_TRUE(out.consensus);
}

TEST(AllocationContract, ReloadAcrossShapesStaysAllocationFreeOnceWarm) {
  // Alternating between two row counts after warming both: load() must
  // reuse capacity, not reallocate per shape switch.
  const auto small = line_problem(60, 0.2, 13);
  const auto large = line_problem(140, 0.2, 14);
  const core::RansacOptions opt;
  linalg::SolverWorkspace ws;
  core::RansacResult out;
  for (int i = 0; i < 2; ++i) {
    core::ransac_solve(small.a, small.b, opt, ws, out);
    core::ransac_solve(large.a, large.b, opt, ws, out);
  }

  const std::size_t n = allocations_during([&] {
    core::ransac_solve(small.a, small.b, opt, ws, out);
    core::ransac_solve(large.a, large.b, opt, ws, out);
  });
  EXPECT_EQ(n, 0u) << "shape switch reallocated " << n << " times";
}

TEST(AllocationContract, CsvDataRowIsAllocationFreeOnceLayoutIsLocked) {
  // Journal replay and live ingest decode every row through push_line, so
  // a data row must cost no heap traffic once the header (or the first
  // positional row) has fixed the layout. The rows use the journal's
  // %.17g form and the hex/`+` spellings that take the strtod path.
  const char* rows[] = {
      "0.12345678901234568,0.80000000000000004,-0.0050000000000000001,"
      "4.7123889803846897,-55.5,3,12.345678901234567",
      " -0.5 , 0.75 ,0, 1e-3 ,-60,0,0.1\r",
      "+0.25,0x1.8p-1,-0,inf,-61,1,2.5",
  };
  io::CsvStreamParser named;
  ASSERT_EQ(named.push_line("x,y,z,phase,rssi,channel,t").status,
            io::CsvRowStatus::kHeader);
  io::CsvStreamParser positional;
  ASSERT_EQ(positional.push_line(rows[0]).status, io::CsvRowStatus::kSample);

  std::size_t parsed = 0;
  const std::size_t n = allocations_during([&] {
    for (int pass = 0; pass < 100; ++pass) {
      for (const char* row : rows) {
        parsed += named.push_line(row).status == io::CsvRowStatus::kSample;
        parsed +=
            positional.push_line(row).status == io::CsvRowStatus::kSample;
      }
    }
  });
  EXPECT_EQ(parsed, 600u);
  EXPECT_EQ(n, 0u) << "600 data rows allocated " << n << " times";
}

}  // namespace
}  // namespace lion
