//===- pde/Helmholtz3D.cpp ---------------------------------------------------=//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "pde/Helmholtz3D.h"
#include "pde/BandedCholesky.h"
#include "pde/Wavefront.h"

#include <cassert>
#include <cmath>
#include <vector>

using namespace pbt;
using namespace pbt::pde;

namespace {
/// Face coefficients of the 7-point stencil at one interior node.
struct Faces {
  double E, W, N, S, U, D;
  double sum() const { return E + W + N + S + U + D; }
};
} // namespace

static Faces facesAt(const Grid3D &Beta, size_t I, size_t J, size_t K) {
  double B = Beta.at(I, J, K);
  Faces F;
  F.E = 0.5 * (B + Beta.at(I + 1, J, K));
  F.W = 0.5 * (B + Beta.at(I - 1, J, K));
  F.N = 0.5 * (B + Beta.at(I, J + 1, K));
  F.S = 0.5 * (B + Beta.at(I, J - 1, K));
  F.U = 0.5 * (B + Beta.at(I, J, K + 1));
  F.D = 0.5 * (B + Beta.at(I, J, K - 1));
  return F;
}

void pde::helmholtzApply(const HelmholtzProblem &P, const Grid3D &U,
                         Grid3D &Out, support::CostCounter *Cost) {
  size_t N = U.size();
  assert(P.Beta.size() == N && Out.size() == N && "grid size mismatch");
  double InvH2 = 1.0 / (U.h() * U.h());
  Out.fill(0.0);
  for (size_t I = 1; I + 1 < N; ++I)
    for (size_t J = 1; J + 1 < N; ++J)
      for (size_t K = 1; K + 1 < N; ++K) {
        Faces Fc = facesAt(P.Beta, I, J, K);
        double Center = U.at(I, J, K);
        double Diff = Fc.E * (Center - U.at(I + 1, J, K)) +
                      Fc.W * (Center - U.at(I - 1, J, K)) +
                      Fc.N * (Center - U.at(I, J + 1, K)) +
                      Fc.S * (Center - U.at(I, J - 1, K)) +
                      Fc.U * (Center - U.at(I, J, K + 1)) +
                      Fc.D * (Center - U.at(I, J, K - 1));
        Out.at(I, J, K) = P.Alpha * Center + Diff * InvH2;
      }
  if (Cost) {
    double Interior = static_cast<double>((N - 2) * (N - 2) * (N - 2));
    Cost->addStencil(2.0 * Interior); // 3D stencil ~2x the 2D point cost
  }
}

void pde::helmholtzResidual(const HelmholtzProblem &P, const Grid3D &U,
                            Grid3D &R, support::CostCounter *Cost) {
  helmholtzApply(P, U, R, Cost);
  size_t N = U.size();
  for (size_t I = 1; I + 1 < N; ++I)
    for (size_t J = 1; J + 1 < N; ++J)
      for (size_t K = 1; K + 1 < N; ++K)
        R.at(I, J, K) = P.F.at(I, J, K) - R.at(I, J, K);
}

double pde::helmholtzResidualNorm(const HelmholtzProblem &P, const Grid3D &U,
                                  support::CostCounter *Cost) {
  Grid3D R(U.size());
  helmholtzResidual(P, U, R, Cost);
  return R.rms();
}

namespace {
/// The 7-point operator at one interior node: the faces and the diagonal
/// Alpha + sum * InvH2, computed exactly as the per-point facesAt path.
struct NodeStencil {
  double E, W, N, S, U, D, Diag;
};
} // namespace

/// The per-node stencils of \p P in lexicographic interior order. They
/// depend only on Beta and Alpha, so the smoothers build them once per
/// call instead of once per node per sweep.
static std::vector<NodeStencil> buildStencils(const HelmholtzProblem &P,
                                              double InvH2) {
  size_t N = P.Beta.size();
  size_t M = N - 2;
  std::vector<NodeStencil> Table;
  Table.reserve(M * M * M);
  for (size_t I = 1; I + 1 < N; ++I)
    for (size_t J = 1; J + 1 < N; ++J)
      for (size_t K = 1; K + 1 < N; ++K) {
        Faces Fc = facesAt(P.Beta, I, J, K);
        Table.push_back({Fc.E, Fc.W, Fc.N, Fc.S, Fc.U, Fc.D,
                         P.Alpha + Fc.sum() * InvH2});
      }
  return Table;
}

/// The Gauss-Seidel value of node K of the K-line \p Line of an N^3
/// grid given its Down neighbour (K - 1), with the operand order of the
/// lexicographic sweep.
static inline double gaussSeidelValue(const double *Line, const double *FLine,
                                      const NodeStencil &St, size_t K,
                                      size_t N, double Down, double InvH2) {
  double OffDiag = St.E * Line[K + N * N] + St.W * Line[K - N * N] +
                   St.N * Line[K + N] + St.S * Line[K - N] +
                   St.U * Line[K + 1] + St.D * Down;
  return (FLine[K] + OffDiag * InvH2) / St.Diag;
}

void pde::helmholtzSmoothJacobi(const HelmholtzProblem &P, Grid3D &U,
                                double Omega, unsigned Sweeps,
                                support::CostCounter *Cost) {
  size_t N = U.size();
  double InvH2 = 1.0 / (U.h() * U.h());
  if (Sweeps != 0) {
    std::vector<NodeStencil> Table = buildStencils(P, InvH2);
    Grid3D Next = U;
    for (unsigned S = 0; S != Sweeps; ++S) {
      const NodeStencil *St = Table.data();
      for (size_t I = 1; I + 1 < N; ++I)
        for (size_t J = 1; J + 1 < N; ++J) {
          size_t Off = (I * N + J) * N;
          const double *Line = U.data().data() + Off;
          const double *FLine = P.F.data().data() + Off;
          double *Out = Next.data().data() + Off;
          for (size_t K = 1; K + 1 < N; ++K, ++St) {
            double GS =
                gaussSeidelValue(Line, FLine, *St, K, N, Line[K - 1], InvH2);
            Out[K] = Line[K] + Omega * (GS - Line[K]);
          }
        }
      std::swap(U.data(), Next.data());
    }
  }
  if (Cost)
    Cost->addStencil(2.0 * static_cast<double>(Sweeps) *
                     static_cast<double>((N - 2) * (N - 2) * (N - 2)));
}

void pde::helmholtzSmoothSOR(const HelmholtzProblem &P, Grid3D &U,
                             double Omega, unsigned Sweeps,
                             support::CostCounter *Cost) {
  size_t N = U.size();
  double InvH2 = 1.0 / (U.h() * U.h());
  // Items are (sweep, K-line) pairs; each lane keeps its line's Down
  // neighbour, the value it just wrote, in a register.
  size_t M = N - 2;
  size_t Lines = M * M;
  size_t Items = static_cast<size_t>(Sweeps) * Lines;
  std::vector<NodeStencil> Table;
  if (Items != 0)
    Table = buildStencils(P, InvH2);
  double *Base = U.data().data();
  const double *FBase = P.F.data().data();
  double *Line[kWavefrontLanes] = {};
  const double *FLine[kWavefrontLanes] = {};
  const NodeStencil *StLine[kWavefrontLanes] = {};
  double Down[kWavefrontLanes] = {};
  runWavefront(
      Items, M,
      [&](size_t L, size_t Item) {
        size_t Q = Item % Lines;
        size_t Off = ((1 + Q / M) * N + 1 + Q % M) * N;
        Line[L] = Base + Off;
        FLine[L] = FBase + Off;
        StLine[L] = Table.data() + Q * M;
        Down[L] = Line[L][0];
      },
      [&](size_t L, size_t K) {
        double *C = Line[L];
        double GS = gaussSeidelValue(C, FLine[L], StLine[L][K - 1], K, N,
                                     Down[L], InvH2);
        C[K] += Omega * (GS - C[K]);
        Down[L] = C[K];
      });
  if (Cost)
    Cost->addStencil(2.0 * static_cast<double>(Sweeps) *
                     static_cast<double>((N - 2) * (N - 2) * (N - 2)));
}

Grid3D pde::restrictFullWeighting3D(const Grid3D &Fine,
                                    support::CostCounter *Cost) {
  size_t NF = Fine.size();
  assert(Grid3D::validMultigridSize(NF) && NF >= 5 && "cannot coarsen grid");
  size_t NC = (NF - 1) / 2 + 1;
  Grid3D Coarse(NC);
  for (size_t I = 1; I + 1 < NC; ++I)
    for (size_t J = 1; J + 1 < NC; ++J)
      for (size_t K = 1; K + 1 < NC; ++K) {
        size_t FI = 2 * I, FJ = 2 * J, FK = 2 * K;
        double Sum = 0.0;
        for (int DI = -1; DI <= 1; ++DI)
          for (int DJ = -1; DJ <= 1; ++DJ)
            for (int DK = -1; DK <= 1; ++DK) {
              int Zeros = (DI == 0) + (DJ == 0) + (DK == 0);
              // center 8/64, face 4/64, edge 2/64, corner 1/64
              double W = static_cast<double>(1 << Zeros) / 64.0;
              Sum += W * Fine.at(FI + DI, FJ + DJ, FK + DK);
            }
        Coarse.at(I, J, K) = Sum;
      }
  if (Cost)
    Cost->addStencil(2.0 * static_cast<double>((NC - 2) * (NC - 2) * (NC - 2)));
  return Coarse;
}

Grid3D pde::injectCoarse3D(const Grid3D &Fine) {
  size_t NF = Fine.size();
  assert(Grid3D::validMultigridSize(NF) && NF >= 5 && "cannot coarsen grid");
  size_t NC = (NF - 1) / 2 + 1;
  Grid3D Coarse(NC);
  for (size_t I = 0; I != NC; ++I)
    for (size_t J = 0; J != NC; ++J)
      for (size_t K = 0; K != NC; ++K)
        Coarse.at(I, J, K) = Fine.at(2 * I, 2 * J, 2 * K);
  return Coarse;
}

void pde::prolongAddTrilinear(const Grid3D &Coarse, Grid3D &Fine,
                              support::CostCounter *Cost) {
  size_t NC = Coarse.size();
  assert(Fine.size() == 2 * (NC - 1) + 1 && "grid sizes incompatible");
  for (size_t I = 0; I + 1 < NC; ++I)
    for (size_t J = 0; J + 1 < NC; ++J)
      for (size_t K = 0; K + 1 < NC; ++K) {
        double C[2][2][2];
        for (int A = 0; A != 2; ++A)
          for (int B = 0; B != 2; ++B)
            for (int C2 = 0; C2 != 2; ++C2)
              C[A][B][C2] = Coarse.at(I + A, J + B, K + C2);
        size_t FI = 2 * I, FJ = 2 * J, FK = 2 * K;
        for (int A = 0; A != 2; ++A)
          for (int B = 0; B != 2; ++B)
            for (int C2 = 0; C2 != 2; ++C2) {
              // Trilinear weight of fine node (FI+A, FJ+B, FK+C2) w.r.t.
              // the 8 surrounding coarse nodes.
              double V = 0.0;
              for (int A2 = 0; A2 != 2; ++A2)
                for (int B2 = 0; B2 != 2; ++B2)
                  for (int C3 = 0; C3 != 2; ++C3) {
                    double W = (A == 0 ? (A2 == 0 ? 1.0 : 0.0)
                                       : 0.5) *
                               (B == 0 ? (B2 == 0 ? 1.0 : 0.0)
                                       : 0.5) *
                               (C2 == 0 ? (C3 == 0 ? 1.0 : 0.0)
                                        : 0.5);
                    if (W != 0.0)
                      V += W * C[A2][B2][C3];
                  }
              Fine.at(FI + A, FJ + B, FK + C2) += V;
            }
      }
  if (Cost)
    Cost->addStencil(2.0 * static_cast<double>(Fine.data().size()));
}

static void applySmoother3D(const HelmholtzProblem &P, Grid3D &U,
                            const MultigridOptions &Options, unsigned Sweeps,
                            support::CostCounter *Cost) {
  switch (Options.Smoother) {
  case SmootherKind::Jacobi:
    helmholtzSmoothJacobi(P, U, std::min(Options.Omega, 1.0), Sweeps, Cost);
    return;
  case SmootherKind::GaussSeidel:
    helmholtzSmoothSOR(P, U, 1.0, Sweeps, Cost);
    return;
  case SmootherKind::SOR:
    helmholtzSmoothSOR(P, U, Options.Omega, Sweeps, Cost);
    return;
  }
  assert(false && "unknown smoother");
}

static void mgCycle3D(const HelmholtzProblem &P, Grid3D &U,
                      const MultigridOptions &Options,
                      support::CostCounter *Cost) {
  size_t N = U.size();
  if (N <= Options.CoarsestN || N < 5) {
    U = helmholtzDirectSolve(P, Cost);
    return;
  }
  applySmoother3D(P, U, Options, Options.PreSmooth, Cost);

  Grid3D R(N);
  helmholtzResidual(P, U, R, Cost);
  HelmholtzProblem CoarseP;
  CoarseP.F = restrictFullWeighting3D(R, Cost);
  CoarseP.Beta = injectCoarse3D(P.Beta);
  CoarseP.Alpha = P.Alpha;
  Grid3D CoarseE(CoarseP.F.size());
  for (unsigned M = 0; M != std::max(1u, Options.Mu); ++M)
    mgCycle3D(CoarseP, CoarseE, Options, Cost);
  prolongAddTrilinear(CoarseE, U, Cost);

  applySmoother3D(P, U, Options, Options.PostSmooth, Cost);
}

Grid3D pde::helmholtzMultigridSolve(const HelmholtzProblem &P,
                                    const MultigridOptions &Options,
                                    support::CostCounter *Cost) {
  assert(Grid3D::validMultigridSize(P.F.size()) &&
         "multigrid needs a 2^l + 1 grid");
  Grid3D U(P.F.size());
  for (unsigned C = 0; C != std::max(1u, Options.Cycles); ++C)
    mgCycle3D(P, U, Options, Cost);
  return U;
}

Grid3D pde::helmholtzStationarySolve(const HelmholtzProblem &P,
                                     SolverKind Kind,
                                     const StationaryOptions &Options,
                                     support::CostCounter *Cost) {
  Grid3D U(P.F.size());
  switch (Kind) {
  case SolverKind::Jacobi:
    helmholtzSmoothJacobi(P, U, 1.0, Options.Iterations, Cost);
    break;
  case SolverKind::GaussSeidel:
    helmholtzSmoothSOR(P, U, 1.0, Options.Iterations, Cost);
    break;
  case SolverKind::SOR:
    helmholtzSmoothSOR(P, U, Options.Omega, Options.Iterations, Cost);
    break;
  default:
    assert(false && "not a stationary solver");
  }
  return U;
}

Grid3D pde::helmholtzCGSolve(const HelmholtzProblem &P,
                             const CGOptions &Options,
                             support::CostCounter *Cost) {
  size_t N = P.F.size();
  Grid3D U(N);
  Grid3D R = P.F;
  // Zero the boundary of the initial residual.
  for (size_t I = 0; I != N; ++I)
    for (size_t J = 0; J != N; ++J) {
      R.at(I, J, 0) = R.at(I, J, N - 1) = 0.0;
      R.at(I, 0, J) = R.at(I, N - 1, J) = 0.0;
      R.at(0, I, J) = R.at(N - 1, I, J) = 0.0;
    }
  Grid3D Pv = R;
  Grid3D AP(N);

  auto Dot = [&](const Grid3D &A, const Grid3D &B) {
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
    helmholtzApply(P, Pv, AP, Cost);
    double PAP = Dot(Pv, AP);
    if (PAP <= 0.0)
      break;
    double Alpha = RR / PAP;
    for (size_t I = 0; I != U.data().size(); ++I) {
      U.data()[I] += Alpha * Pv.data()[I];
      R.data()[I] -= Alpha * AP.data()[I];
    }
    if (Cost)
      Cost->addFlops(4.0 * static_cast<double>(U.data().size()));
    double NewRR = Dot(R, R);
    if (std::sqrt(NewRR) <= Options.RelativeTolerance * R0)
      break;
    double Beta = NewRR / RR;
    RR = NewRR;
    for (size_t I = 0; I != Pv.data().size(); ++I)
      Pv.data()[I] = R.data()[I] + Beta * Pv.data()[I];
    if (Cost)
      Cost->addFlops(2.0 * static_cast<double>(Pv.data().size()));
  }
  return U;
}

Grid3D pde::helmholtzDirectSolve(const HelmholtzProblem &P,
                                 support::CostCounter *Cost) {
  size_t N = P.F.size();
  size_t Interior = N - 2;
  size_t Dim = Interior * Interior * Interior;
  size_t Bandwidth = Interior * Interior;
  double InvH2 = 1.0 / (P.F.h() * P.F.h());

  BandedCholesky A(Dim, Bandwidth);
  auto Id = [&](size_t I, size_t J, size_t K) {
    return ((I - 1) * Interior + (J - 1)) * Interior + (K - 1);
  };
  for (size_t I = 1; I + 1 < N; ++I)
    for (size_t J = 1; J + 1 < N; ++J)
      for (size_t K = 1; K + 1 < N; ++K) {
        Faces Fc = facesAt(P.Beta, I, J, K);
        size_t Row = Id(I, J, K);
        A.entry(Row, Row) = P.Alpha + Fc.sum() * InvH2;
        if (K > 1)
          A.entry(Row, Id(I, J, K - 1)) = -Fc.D * InvH2;
        if (J > 1)
          A.entry(Row, Id(I, J - 1, K)) = -Fc.S * InvH2;
        if (I > 1)
          A.entry(Row, Id(I - 1, J, K)) = -Fc.W * InvH2;
      }
  bool OK = A.factor(Cost);
  assert(OK && "discrete Helmholtz operator must be SPD");
  (void)OK;

  std::vector<double> B(Dim);
  for (size_t I = 1; I + 1 < N; ++I)
    for (size_t J = 1; J + 1 < N; ++J)
      for (size_t K = 1; K + 1 < N; ++K)
        B[Id(I, J, K)] = P.F.at(I, J, K);
  std::vector<double> X = A.solve(B, Cost);

  Grid3D U(N);
  for (size_t I = 1; I + 1 < N; ++I)
    for (size_t J = 1; J + 1 < N; ++J)
      for (size_t K = 1; K + 1 < N; ++K)
        U.at(I, J, K) = X[Id(I, J, K)];
  return U;
}

Grid3D pde::helmholtzReferenceSolution(const HelmholtzProblem &P) {
  MultigridOptions Heavy;
  Heavy.Cycles = 30;
  Heavy.PreSmooth = 3;
  Heavy.PostSmooth = 3;
  Heavy.Mu = 2;
  Heavy.Smoother = SmootherKind::GaussSeidel;
  return helmholtzMultigridSolve(P, Heavy);
}
