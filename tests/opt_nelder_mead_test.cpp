#include "opt/nelder_mead.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/math.h"

namespace edb::opt {
namespace {

// The iteration loop as it was before the fixed-point exit: it always runs
// to convergence or to max_iterations, then re-sorts.  The oracle the
// fixed-point tests compare against.
VectorResult reference_nelder_mead(const Objective& f, const Box& box,
                                   std::vector<double> x0,
                                   const NelderMeadOptions& opts = {}) {
  const std::size_t n = box.dim();
  x0 = box.clamp(std::move(x0));
  struct Vertex {
    std::vector<double> x;
    double value;
  };
  int evals = 0;
  auto eval = [&](const std::vector<double>& x) {
    ++evals;
    return f(x);
  };
  std::vector<Vertex> simplex;
  simplex.push_back({x0, eval(x0)});
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> v = x0;
    double step = opts.initial_step * box.width(i);
    if (v[i] + step > box.hi(i)) step = -step;
    v[i] = clamp(v[i] + step, box.lo(i), box.hi(i));
    if (v[i] == x0[i]) {
      v[i] = clamp(x0[i] + 1e-9 * box.width(i), box.lo(i), box.hi(i));
    }
    simplex.push_back({v, eval(v)});
  }
  auto by_value = [](const Vertex& a, const Vertex& b) {
    return a.value < b.value;
  };
  auto clamped = [&box, n](std::vector<double> x) {
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = clamp(x[i], box.lo(i), box.hi(i));
    }
    return x;
  };
  bool converged = false;
  for (int it = 0; it < opts.max_iterations; ++it) {
    std::sort(simplex.begin(), simplex.end(), by_value);
    const double spread =
        std::abs(simplex.back().value - simplex.front().value);
    double diameter = 0;
    for (std::size_t i = 0; i < n; ++i) {
      double lo = simplex[0].x[i], hi = simplex[0].x[i];
      for (const auto& v : simplex) {
        lo = std::min(lo, v.x[i]);
        hi = std::max(hi, v.x[i]);
      }
      diameter = std::max(diameter, hi - lo);
    }
    if (spread < opts.f_tol && diameter < opts.x_tol) {
      converged = true;
      break;
    }
    std::vector<double> centroid(n, 0.0);
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t i = 0; i < n; ++i) centroid[i] += simplex[v].x[i];
    }
    for (double& c : centroid) c /= static_cast<double>(n);
    auto affine = [&](double coef) {
      std::vector<double> x(n);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = centroid[i] + coef * (centroid[i] - simplex.back().x[i]);
      }
      return clamped(std::move(x));
    };
    const std::vector<double> xr = affine(1.0);
    const double fr = eval(xr);
    if (fr < simplex.front().value) {
      const std::vector<double> xe = affine(2.0);
      const double fe = eval(xe);
      simplex.back() = (fe < fr) ? Vertex{xe, fe} : Vertex{xr, fr};
    } else if (fr < simplex[n - 1].value) {
      simplex.back() = {xr, fr};
    } else {
      const bool outside = fr < simplex.back().value;
      const std::vector<double> worst = outside ? xr : simplex.back().x;
      std::vector<double> xc(n);
      for (std::size_t i = 0; i < n; ++i) {
        xc[i] = centroid[i] + 0.5 * (worst[i] - centroid[i]);
      }
      xc = clamped(std::move(xc));
      const double fc = eval(xc);
      if (fc < std::min(fr, simplex.back().value)) {
        simplex.back() = {xc, fc};
      } else {
        for (std::size_t v = 1; v <= n; ++v) {
          for (std::size_t i = 0; i < n; ++i) {
            simplex[v].x[i] = simplex[0].x[i] +
                              0.5 * (simplex[v].x[i] - simplex[0].x[i]);
          }
          simplex[v].x = clamped(std::move(simplex[v].x));
          simplex[v].value = eval(simplex[v].x);
        }
      }
    }
  }
  std::sort(simplex.begin(), simplex.end(), by_value);
  VectorResult out;
  out.x = simplex.front().x;
  out.value = simplex.front().value;
  out.evaluations = evals;
  out.converged = converged;
  return out;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_same_answer(const VectorResult& got, const VectorResult& want) {
  ASSERT_EQ(got.x.size(), want.x.size());
  for (std::size_t i = 0; i < got.x.size(); ++i) {
    EXPECT_TRUE(same_bits(got.x[i], want.x[i]))
        << "x[" << i << "] " << got.x[i] << " vs " << want.x[i];
  }
  EXPECT_TRUE(same_bits(got.value, want.value))
      << got.value << " vs " << want.value;
  EXPECT_EQ(got.converged, want.converged);
}

TEST(NelderMead, Quadratic1D) {
  Box box({-10.0}, {10.0});
  auto r = nelder_mead_min([](const std::vector<double>& x) {
    return (x[0] - 2.0) * (x[0] - 2.0);
  }, box, {0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 2.0, 1e-6);
}

TEST(NelderMead, Rosenbrock2D) {
  Box box({-5.0, -5.0}, {5.0, 5.0});
  auto r = nelder_mead_min([](const std::vector<double>& x) {
    const double a = 1 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100 * b * b;
  }, box, {-1.0, 1.0}, {.max_iterations = 5000});
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 1.0, 1e-3);
}

TEST(NelderMead, RespectsBoxWhenMinimumIsOutside) {
  // Unconstrained minimum at (3, 3); box caps at 1.
  Box box({0.0, 0.0}, {1.0, 1.0});
  auto r = nelder_mead_min([](const std::vector<double>& x) {
    return (x[0] - 3.0) * (x[0] - 3.0) + (x[1] - 3.0) * (x[1] - 3.0);
  }, box, {0.5, 0.5});
  EXPECT_TRUE(box.contains(r.x));
  EXPECT_NEAR(r.x[0], 1.0, 1e-5);
  EXPECT_NEAR(r.x[1], 1.0, 1e-5);
}

TEST(NelderMead, StartAtBoundaryStillMoves) {
  Box box({0.0}, {1.0});
  auto r = nelder_mead_min([](const std::vector<double>& x) {
    return (x[0] - 0.4) * (x[0] - 0.4);
  }, box, {1.0});
  EXPECT_NEAR(r.x[0], 0.4, 1e-6);
}

TEST(NelderMead, FourDimensionalSphere) {
  Box box({-2, -2, -2, -2}, {2, 2, 2, 2});
  auto r = nelder_mead_min([](const std::vector<double>& x) {
    double s = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - 0.3 * (static_cast<double>(i) + 1);
      s += d * d;
    }
    return s;
  }, box, {1, 1, 1, 1}, {.max_iterations = 5000});
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(r.x[i], 0.3 * (static_cast<double>(i) + 1), 1e-4);
  }
}

TEST(NelderMead, PiecewiseSmoothPenaltyShape) {
  // The exact shape the penalty solver feeds it: smooth objective plus a
  // one-sided quadratic wall.
  Box box({0.0}, {10.0});
  auto r = nelder_mead_min([](const std::vector<double>& x) {
    const double viol = std::max(0.0, 4.0 - x[0]);  // constraint x >= 4
    return x[0] + 1e4 * viol * viol;
  }, box, {8.0});
  EXPECT_NEAR(r.x[0], 4.0, 1e-2);
}

TEST(NelderMead, ReportsEvaluationCount) {
  Box box({-1.0}, {1.0});
  auto r = nelder_mead_min([](const std::vector<double>& x) {
    return x[0] * x[0];
  }, box, {0.5});
  EXPECT_GT(r.evaluations, 2);
  EXPECT_LT(r.evaluations, 2500);
}

// The fixed-point exit: an objective whose simplex freezes short of the
// tolerances (absolute f_tol cannot be met at these magnitudes) stops as
// soon as the sorted simplex repeats, with the answer running out the
// iteration budget would give, at a fraction of the evaluations.
TEST(NelderMeadFixedPoint, PoleObjectiveStopsAtTheFrozenSimplex) {
  Box box({0.07}, {0.6});
  const Objective f = [](const std::vector<double>& x) {
    return 1000.0 / (x[0] - 1.0 / 15.0);
  };
  const auto got = nelder_mead_min(f, box, {0.3});
  const auto want = reference_nelder_mead(f, box, {0.3});
  expect_same_answer(got, want);
  EXPECT_FALSE(got.converged);
  EXPECT_LT(got.evaluations, want.evaluations);
}

TEST(NelderMeadFixedPoint, SteepKinkStopsAtTheFrozenSimplex) {
  Box box({0.0, 0.0}, {1.0, 1.0});
  const Objective f = [](const std::vector<double>& x) {
    return 1e20 * (std::abs(x[0] - 0.1) + std::abs(x[1] - 0.3));
  };
  const auto got = nelder_mead_min(f, box, {0.5, 0.5});
  const auto want = reference_nelder_mead(f, box, {0.5, 0.5});
  expect_same_answer(got, want);
  EXPECT_FALSE(got.converged);
  EXPECT_LT(got.evaluations, want.evaluations);
}

// Converging runs never reach a repeated simplex, so they make exactly the
// evaluations the loop always made.
TEST(NelderMeadFixedPoint, ConvergingRunsKeepTheirEvaluationCount) {
  struct Case {
    Box box;
    std::vector<double> x0;
    Objective f;
    NelderMeadOptions opts;
  };
  const Case cases[] = {
      {Box({-10.0}, {10.0}),
       {0.0},
       [](const std::vector<double>& x) {
         return (x[0] - 2.0) * (x[0] - 2.0);
       },
       {}},
      {Box({-5.0, -5.0}, {5.0, 5.0}),
       {-1.0, 1.0},
       [](const std::vector<double>& x) {
         const double a = 1 - x[0];
         const double b = x[1] - x[0] * x[0];
         return a * a + 100 * b * b;
       },
       {.max_iterations = 5000}},
      {Box({-2, -2, -2, -2}, {2, 2, 2, 2}),
       {1, 1, 1, 1},
       [](const std::vector<double>& x) {
         double s = 0;
         for (std::size_t i = 0; i < x.size(); ++i) {
           const double d = x[i] - 0.3 * (static_cast<double>(i) + 1);
           s += d * d;
         }
         return s;
       },
       {.max_iterations = 5000}},
  };
  for (const Case& c : cases) {
    const auto got = nelder_mead_min(c.f, c.box, c.x0, c.opts);
    const auto want = reference_nelder_mead(c.f, c.box, c.x0, c.opts);
    expect_same_answer(got, want);
    EXPECT_EQ(got.evaluations, want.evaluations);
  }
}

}  // namespace
}  // namespace edb::opt
