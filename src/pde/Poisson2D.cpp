//===- pde/Poisson2D.cpp -----------------------------------------------------=//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "pde/Poisson2D.h"
#include "pde/BandedCholesky.h"
#include "pde/Wavefront.h"

#include <cassert>
#include <cmath>

using namespace pbt;
using namespace pbt::pde;

void pde::poissonApply(const Grid2D &U, Grid2D &Out,
                       support::CostCounter *Cost) {
  size_t N = U.size();
  assert(Out.size() == N && "grid size mismatch");
  double InvH2 = 1.0 / (U.h() * U.h());
  Out.fill(0.0);
  for (size_t I = 1; I + 1 < N; ++I)
    for (size_t J = 1; J + 1 < N; ++J)
      Out.at(I, J) = (4.0 * U.at(I, J) - U.at(I - 1, J) - U.at(I + 1, J) -
                      U.at(I, J - 1) - U.at(I, J + 1)) *
                     InvH2;
  if (Cost)
    Cost->addStencil(static_cast<double>((N - 2) * (N - 2)));
}

void pde::poissonResidual(const Grid2D &U, const Grid2D &F, Grid2D &R,
                          support::CostCounter *Cost) {
  size_t N = U.size();
  assert(F.size() == N && R.size() == N && "grid size mismatch");
  double InvH2 = 1.0 / (U.h() * U.h());
  R.fill(0.0);
  for (size_t I = 1; I + 1 < N; ++I)
    for (size_t J = 1; J + 1 < N; ++J)
      R.at(I, J) = F.at(I, J) - (4.0 * U.at(I, J) - U.at(I - 1, J) -
                                 U.at(I + 1, J) - U.at(I, J - 1) -
                                 U.at(I, J + 1)) *
                                    InvH2;
  if (Cost)
    Cost->addStencil(static_cast<double>((N - 2) * (N - 2)));
}

double pde::poissonResidualNorm(const Grid2D &U, const Grid2D &F,
                                support::CostCounter *Cost) {
  Grid2D R(U.size());
  poissonResidual(U, F, R, Cost);
  return R.rms();
}

void pde::smoothJacobi(Grid2D &U, const Grid2D &F, double Omega,
                       unsigned Sweeps, support::CostCounter *Cost) {
  size_t N = U.size();
  assert(F.size() == N && "grid size mismatch");
  double H2 = U.h() * U.h();
  Grid2D Next = U;
  for (unsigned S = 0; S != Sweeps; ++S) {
    for (size_t I = 1; I + 1 < N; ++I)
      for (size_t J = 1; J + 1 < N; ++J) {
        double GS = (H2 * F.at(I, J) + U.at(I - 1, J) + U.at(I + 1, J) +
                     U.at(I, J - 1) + U.at(I, J + 1)) /
                    4.0;
        Next.at(I, J) = U.at(I, J) + Omega * (GS - U.at(I, J));
      }
    std::swap(U.data(), Next.data());
  }
  if (Cost)
    Cost->addStencil(static_cast<double>(Sweeps) *
                     static_cast<double>((N - 2) * (N - 2)));
}

void pde::smoothSOR(Grid2D &U, const Grid2D &F, double Omega, unsigned Sweeps,
                    support::CostCounter *Cost) {
  size_t N = U.size();
  assert(F.size() == N && "grid size mismatch");
  double H2 = U.h() * U.h();
  // Items are (sweep, row) pairs; each lane keeps its row's West
  // neighbour, the value it just wrote, in a register.
  size_t M = N - 2;
  double *Base = U.data().data();
  const double *FBase = F.data().data();
  double *Row[kWavefrontLanes] = {};
  const double *FRow[kWavefrontLanes] = {};
  double West[kWavefrontLanes] = {};
  runWavefront(
      static_cast<size_t>(Sweeps) * M, M,
      [&](size_t L, size_t Item) {
        size_t Off = (1 + Item % M) * N;
        Row[L] = Base + Off;
        FRow[L] = FBase + Off;
        West[L] = Row[L][0];
      },
      [&](size_t L, size_t J) {
        double *C = Row[L];
        // The lexicographic sweep's expression and operand order.
        double GS = (H2 * FRow[L][J] + C[J - N] + C[J + N] + West[L] +
                     C[J + 1]) /
                    4.0;
        C[J] += Omega * (GS - C[J]);
        West[L] = C[J];
      });
  if (Cost)
    Cost->addStencil(static_cast<double>(Sweeps) *
                     static_cast<double>((N - 2) * (N - 2)));
}

Grid2D pde::restrictFullWeighting(const Grid2D &Fine,
                                  support::CostCounter *Cost) {
  size_t NF = Fine.size();
  assert(Grid2D::validMultigridSize(NF) && NF >= 5 && "cannot coarsen grid");
  size_t NC = (NF - 1) / 2 + 1;
  Grid2D Coarse(NC);
  for (size_t I = 1; I + 1 < NC; ++I)
    for (size_t J = 1; J + 1 < NC; ++J) {
      size_t FI = 2 * I, FJ = 2 * J;
      Coarse.at(I, J) =
          (4.0 * Fine.at(FI, FJ) + 2.0 * (Fine.at(FI - 1, FJ) +
                                          Fine.at(FI + 1, FJ) +
                                          Fine.at(FI, FJ - 1) +
                                          Fine.at(FI, FJ + 1)) +
           Fine.at(FI - 1, FJ - 1) + Fine.at(FI - 1, FJ + 1) +
           Fine.at(FI + 1, FJ - 1) + Fine.at(FI + 1, FJ + 1)) /
          16.0;
    }
  if (Cost)
    Cost->addStencil(static_cast<double>((NC - 2) * (NC - 2)));
  return Coarse;
}

void pde::prolongAddBilinear(const Grid2D &Coarse, Grid2D &Fine,
                             support::CostCounter *Cost) {
  size_t NC = Coarse.size();
  size_t NF = Fine.size();
  assert(NF == 2 * (NC - 1) + 1 && "grid sizes incompatible");
  for (size_t I = 0; I + 1 < NC; ++I)
    for (size_t J = 0; J + 1 < NC; ++J) {
      double C00 = Coarse.at(I, J), C01 = Coarse.at(I, J + 1);
      double C10 = Coarse.at(I + 1, J), C11 = Coarse.at(I + 1, J + 1);
      size_t FI = 2 * I, FJ = 2 * J;
      Fine.at(FI, FJ) += C00;
      Fine.at(FI, FJ + 1) += 0.5 * (C00 + C01);
      Fine.at(FI + 1, FJ) += 0.5 * (C00 + C10);
      Fine.at(FI + 1, FJ + 1) += 0.25 * (C00 + C01 + C10 + C11);
    }
  // Top/right edges (even indices already covered except the last line,
  // which is boundary and stays zero for Dirichlet problems).
  if (Cost)
    Cost->addStencil(static_cast<double>(NF * NF));
}

/// Applies the configured smoother.
static void applySmoother(Grid2D &U, const Grid2D &F,
                          const MultigridOptions &Options, unsigned Sweeps,
                          support::CostCounter *Cost) {
  switch (Options.Smoother) {
  case SmootherKind::Jacobi:
    smoothJacobi(U, F, std::min(Options.Omega, 1.0), Sweeps, Cost);
    return;
  case SmootherKind::GaussSeidel:
    smoothSOR(U, F, 1.0, Sweeps, Cost);
    return;
  case SmootherKind::SOR:
    smoothSOR(U, F, Options.Omega, Sweeps, Cost);
    return;
  }
  assert(false && "unknown smoother");
}

/// Exact solve on the coarsest grid via the banded direct solver.
static void coarseSolve(Grid2D &U, const Grid2D &F,
                        support::CostCounter *Cost) {
  U = directSolve(F, Cost);
}

/// One mu-cycle at the current level; recurses towards CoarsestN.
static void mgCycle(Grid2D &U, const Grid2D &F,
                    const MultigridOptions &Options,
                    support::CostCounter *Cost) {
  size_t N = U.size();
  if (N <= Options.CoarsestN || N < 5) {
    coarseSolve(U, F, Cost);
    return;
  }
  applySmoother(U, F, Options, Options.PreSmooth, Cost);

  Grid2D R(N);
  poissonResidual(U, F, R, Cost);
  Grid2D CoarseR = restrictFullWeighting(R, Cost);
  Grid2D CoarseE(CoarseR.size());
  for (unsigned M = 0; M != std::max(1u, Options.Mu); ++M)
    mgCycle(CoarseE, CoarseR, Options, Cost);
  prolongAddBilinear(CoarseE, U, Cost);

  applySmoother(U, F, Options, Options.PostSmooth, Cost);
}

Grid2D pde::multigridSolve(const Grid2D &F, const MultigridOptions &Options,
                           support::CostCounter *Cost) {
  assert(Grid2D::validMultigridSize(F.size()) &&
         "multigrid needs a 2^l + 1 grid");
  Grid2D U(F.size());
  for (unsigned C = 0; C != std::max(1u, Options.Cycles); ++C)
    mgCycle(U, F, Options, Cost);
  return U;
}

Grid2D pde::stationarySolve(const Grid2D &F, SolverKind Kind,
                            const StationaryOptions &Options,
                            support::CostCounter *Cost) {
  Grid2D U(F.size());
  switch (Kind) {
  case SolverKind::Jacobi:
    smoothJacobi(U, F, 1.0, Options.Iterations, Cost);
    break;
  case SolverKind::GaussSeidel:
    smoothSOR(U, F, 1.0, Options.Iterations, Cost);
    break;
  case SolverKind::SOR:
    smoothSOR(U, F, Options.Omega, Options.Iterations, Cost);
    break;
  default:
    assert(false && "not a stationary solver");
  }
  return U;
}

Grid2D pde::cgSolve(const Grid2D &F, const CGOptions &Options,
                    support::CostCounter *Cost) {
  size_t N = F.size();
  Grid2D U(N);
  Grid2D R = F; // residual of the zero guess; boundary entries are zero
  for (size_t I = 0; I != N; ++I) {
    R.at(I, 0) = R.at(0, I) = 0.0;
    R.at(I, N - 1) = R.at(N - 1, I) = 0.0;
  }
  Grid2D P = R;
  Grid2D AP(N);

  auto Dot = [&](const Grid2D &A, const Grid2D &B) {
    double Sum = 0.0;
    for (size_t I = 0; I != A.data().size(); ++I)
      Sum += A.data()[I] * B.data()[I];
    if (Cost)
      Cost->addFlops(2.0 * static_cast<double>(A.data().size()));
    return Sum;
  };

  double RR = Dot(R, R);
  double R0 = std::sqrt(RR);
  if (R0 == 0.0)
    return U;

  for (unsigned It = 0; It != Options.MaxIterations; ++It) {
    poissonApply(P, AP, Cost);
    double PAP = Dot(P, AP);
    if (PAP <= 0.0)
      break; // Numerical breakdown; A is SPD so this is roundoff.
    double Alpha = RR / PAP;
    for (size_t I = 0; I != U.data().size(); ++I) {
      U.data()[I] += Alpha * P.data()[I];
      R.data()[I] -= Alpha * AP.data()[I];
    }
    if (Cost)
      Cost->addFlops(4.0 * static_cast<double>(U.data().size()));
    double NewRR = Dot(R, R);
    if (std::sqrt(NewRR) <= Options.RelativeTolerance * R0)
      break;
    double Beta = NewRR / RR;
    RR = NewRR;
    for (size_t I = 0; I != P.data().size(); ++I)
      P.data()[I] = R.data()[I] + Beta * P.data()[I];
    if (Cost)
      Cost->addFlops(2.0 * static_cast<double>(P.data().size()));
  }
  return U;
}

Grid2D pde::directSolve(const Grid2D &F, support::CostCounter *Cost) {
  size_t N = F.size();
  size_t Interior = N - 2;
  size_t Dim = Interior * Interior;
  double InvH2 = 1.0 / (F.h() * F.h());

  // Assemble -laplace with lexicographic interior numbering; bandwidth is
  // one grid row.
  BandedCholesky A(Dim, Interior);
  auto Id = [&](size_t I, size_t J) { return (I - 1) * Interior + (J - 1); };
  for (size_t I = 1; I + 1 < N; ++I)
    for (size_t J = 1; J + 1 < N; ++J) {
      size_t Row = Id(I, J);
      A.entry(Row, Row) = 4.0 * InvH2;
      if (J > 1)
        A.entry(Row, Id(I, J - 1)) = -InvH2;
      if (I > 1)
        A.entry(Row, Id(I - 1, J)) = -InvH2;
    }
  bool OK = A.factor(Cost);
  assert(OK && "discrete Poisson operator must be SPD");
  (void)OK;

  std::vector<double> B(Dim);
  for (size_t I = 1; I + 1 < N; ++I)
    for (size_t J = 1; J + 1 < N; ++J)
      B[Id(I, J)] = F.at(I, J);
  std::vector<double> X = A.solve(B, Cost);

  Grid2D U(N);
  for (size_t I = 1; I + 1 < N; ++I)
    for (size_t J = 1; J + 1 < N; ++J)
      U.at(I, J) = X[Id(I, J)];
  return U;
}

Grid2D pde::referenceSolution(const Grid2D &F) {
  MultigridOptions Heavy;
  Heavy.Cycles = 30;
  Heavy.PreSmooth = 3;
  Heavy.PostSmooth = 3;
  Heavy.Mu = 2;
  Heavy.Smoother = SmootherKind::GaussSeidel;
  return multigridSolve(F, Heavy);
}
