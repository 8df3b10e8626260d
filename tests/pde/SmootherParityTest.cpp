//===- tests/pde/SmootherParityTest.cpp --------------------------------------=//
//
// Bit-exactness wall for the wavefront Gauss-Seidel/SOR smoothers: the
// shipped kernels must leave exactly the bytes, and charge exactly the
// costs, of the plain lexicographic triple loops kept below as the
// oracle. Sizes cover the plain-loop fallback (fewer interior columns
// than wavefront lanes) and sweep counts that leave every possible
// remainder of (sweep, row) items. The multigrid solves are pinned to
// hashes recorded from the lexicographic implementation.
//
//===----------------------------------------------------------------------===//

#include "pde/Helmholtz3D.h"
#include "pde/Poisson2D.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

using namespace pbt;
using namespace pbt::pde;

namespace {

//===----------------------------------------------------------------------===//
// Oracle: the lexicographic smoothers the wavefront kernels replaced.
//===----------------------------------------------------------------------===//

void oracleSmoothSOR(Grid2D &U, const Grid2D &F, double Omega,
                     unsigned Sweeps, support::CostCounter *Cost) {
  size_t N = U.size();
  double H2 = U.h() * U.h();
  for (unsigned S = 0; S != Sweeps; ++S)
    for (size_t I = 1; I + 1 < N; ++I)
      for (size_t J = 1; J + 1 < N; ++J) {
        double GS = (H2 * F.at(I, J) + U.at(I - 1, J) + U.at(I + 1, J) +
                     U.at(I, J - 1) + U.at(I, J + 1)) /
                    4.0;
        U.at(I, J) += Omega * (GS - U.at(I, J));
      }
  if (Cost)
    Cost->addStencil(static_cast<double>(Sweeps) *
                     static_cast<double>((N - 2) * (N - 2)));
}

struct OracleFaces {
  double E, W, N, S, U, D;
  double sum() const { return E + W + N + S + U + D; }
};

OracleFaces oracleFacesAt(const Grid3D &Beta, size_t I, size_t J, size_t K) {
  double B = Beta.at(I, J, K);
  OracleFaces F;
  F.E = 0.5 * (B + Beta.at(I + 1, J, K));
  F.W = 0.5 * (B + Beta.at(I - 1, J, K));
  F.N = 0.5 * (B + Beta.at(I, J + 1, K));
  F.S = 0.5 * (B + Beta.at(I, J - 1, K));
  F.U = 0.5 * (B + Beta.at(I, J, K + 1));
  F.D = 0.5 * (B + Beta.at(I, J, K - 1));
  return F;
}

void oracleHelmholtzSmoothSOR(const HelmholtzProblem &P, Grid3D &U,
                              double Omega, unsigned Sweeps,
                              support::CostCounter *Cost) {
  size_t N = U.size();
  double InvH2 = 1.0 / (U.h() * U.h());
  for (unsigned S = 0; S != Sweeps; ++S)
    for (size_t I = 1; I + 1 < N; ++I)
      for (size_t J = 1; J + 1 < N; ++J)
        for (size_t K = 1; K + 1 < N; ++K) {
          OracleFaces Fc = oracleFacesAt(P.Beta, I, J, K);
          double Diag = P.Alpha + Fc.sum() * InvH2;
          double OffDiag = Fc.E * U.at(I + 1, J, K) + Fc.W * U.at(I - 1, J, K) +
                           Fc.N * U.at(I, J + 1, K) + Fc.S * U.at(I, J - 1, K) +
                           Fc.U * U.at(I, J, K + 1) + Fc.D * U.at(I, J, K - 1);
          double GS = (P.F.at(I, J, K) + OffDiag * InvH2) / Diag;
          U.at(I, J, K) += Omega * (GS - U.at(I, J, K));
        }
  if (Cost)
    Cost->addStencil(2.0 * static_cast<double>(Sweeps) *
                     static_cast<double>((N - 2) * (N - 2) * (N - 2)));
}

void oracleHelmholtzSmoothJacobi(const HelmholtzProblem &P, Grid3D &U,
                                 double Omega, unsigned Sweeps,
                                 support::CostCounter *Cost) {
  size_t N = U.size();
  double InvH2 = 1.0 / (U.h() * U.h());
  Grid3D Next = U;
  for (unsigned S = 0; S != Sweeps; ++S) {
    for (size_t I = 1; I + 1 < N; ++I)
      for (size_t J = 1; J + 1 < N; ++J)
        for (size_t K = 1; K + 1 < N; ++K) {
          OracleFaces Fc = oracleFacesAt(P.Beta, I, J, K);
          double Diag = P.Alpha + Fc.sum() * InvH2;
          double OffDiag = Fc.E * U.at(I + 1, J, K) + Fc.W * U.at(I - 1, J, K) +
                           Fc.N * U.at(I, J + 1, K) + Fc.S * U.at(I, J - 1, K) +
                           Fc.U * U.at(I, J, K + 1) + Fc.D * U.at(I, J, K - 1);
          double GS = (P.F.at(I, J, K) + OffDiag * InvH2) / Diag;
          Next.at(I, J, K) = U.at(I, J, K) + Omega * (GS - U.at(I, J, K));
        }
    std::swap(U.data(), Next.data());
  }
  if (Cost)
    Cost->addStencil(2.0 * static_cast<double>(Sweeps) *
                     static_cast<double>((N - 2) * (N - 2) * (N - 2)));
}

//===----------------------------------------------------------------------===//
// Inputs and comparisons
//===----------------------------------------------------------------------===//

const size_t kSizes2D[] = {3, 5, 9, 17, 33, 65};
const size_t kSizes3D[] = {3, 5, 9, 17};
const double kOmegas[] = {1.0, 1.37, 1.9};
const double kDampings[] = {0.6, 0.8, 1.0};
const unsigned kSweeps[] = {0, 1, 2, 3, 5, 7, 63};

/// Every node (boundary included) random and non-zero, so a kernel that
/// reads a stale, unwritten or wrong-row neighbour changes the bytes.
template <typename GridT> void fillRandom(GridT &G, support::Rng &Rng,
                                          double Lo, double Hi) {
  for (double &X : G.data())
    X = Rng.uniform(Lo, Hi);
}

HelmholtzProblem randomProblem(size_t N, uint64_t Seed) {
  support::Rng Rng(Seed);
  HelmholtzProblem P;
  P.F = Grid3D(N);
  P.Beta = Grid3D(N);
  fillRandom(P.F, Rng, -1.0, 1.0);
  fillRandom(P.Beta, Rng, 0.1, 10.0); // non-uniform coefficient field
  P.Alpha = 0.7;
  return P;
}

bool sameBytes(const std::vector<double> &A, const std::vector<double> &B) {
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0;
}

void expectSameCharges(const support::CostCounter &Got,
                       const support::CostCounter &Want) {
  EXPECT_EQ(Got.compares(), Want.compares());
  EXPECT_EQ(Got.moves(), Want.moves());
  EXPECT_EQ(Got.flops(), Want.flops());
  EXPECT_EQ(Got.stencil(), Want.stencil());
  EXPECT_EQ(Got.other(), Want.other());
}

/// FNV-1a over a grid's bytes: a compact pin for a whole solution.
uint64_t hashBytes(const std::vector<double> &V) {
  uint64_t H = 1469598103934665603ull;
  const unsigned char *P = reinterpret_cast<const unsigned char *>(V.data());
  for (size_t I = 0; I != V.size() * sizeof(double); ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
  return H;
}

} // namespace

//===----------------------------------------------------------------------===//
// Kernel parity against the oracle
//===----------------------------------------------------------------------===//

TEST(SmootherParityTest, PoissonSORMatchesLexicographicOracle) {
  for (size_t N : kSizes2D)
    for (double Omega : kOmegas)
      for (unsigned Sweeps : kSweeps) {
        SCOPED_TRACE("N=" + std::to_string(N) + " omega=" +
                     std::to_string(Omega) + " sweeps=" +
                     std::to_string(Sweeps));
        support::Rng Rng(1000 + N);
        Grid2D U(N), F(N);
        fillRandom(U, Rng, -2.0, 2.0);
        fillRandom(F, Rng, -50.0, 50.0);
        Grid2D Want = U;
        support::CostCounter GotCost, WantCost;
        smoothSOR(U, F, Omega, Sweeps, &GotCost);
        oracleSmoothSOR(Want, F, Omega, Sweeps, &WantCost);
        EXPECT_TRUE(sameBytes(U.data(), Want.data()));
        expectSameCharges(GotCost, WantCost);
      }
}

TEST(SmootherParityTest, HelmholtzSORMatchesLexicographicOracle) {
  for (size_t N : kSizes3D)
    for (double Omega : kOmegas)
      for (unsigned Sweeps : kSweeps) {
        SCOPED_TRACE("N=" + std::to_string(N) + " omega=" +
                     std::to_string(Omega) + " sweeps=" +
                     std::to_string(Sweeps));
        HelmholtzProblem P = randomProblem(N, 2000 + N);
        support::Rng Rng(3000 + N);
        Grid3D U(N);
        fillRandom(U, Rng, -2.0, 2.0);
        Grid3D Want = U;
        support::CostCounter GotCost, WantCost;
        helmholtzSmoothSOR(P, U, Omega, Sweeps, &GotCost);
        oracleHelmholtzSmoothSOR(P, Want, Omega, Sweeps, &WantCost);
        EXPECT_TRUE(sameBytes(U.data(), Want.data()));
        expectSameCharges(GotCost, WantCost);
      }
}

TEST(SmootherParityTest, HelmholtzJacobiMatchesPerPointFaceOracle) {
  for (size_t N : kSizes3D)
    for (double Omega : kDampings)
      for (unsigned Sweeps : kSweeps) {
        SCOPED_TRACE("N=" + std::to_string(N) + " omega=" +
                     std::to_string(Omega) + " sweeps=" +
                     std::to_string(Sweeps));
        HelmholtzProblem P = randomProblem(N, 4000 + N);
        support::Rng Rng(5000 + N);
        Grid3D U(N);
        fillRandom(U, Rng, -2.0, 2.0);
        Grid3D Want = U;
        support::CostCounter GotCost, WantCost;
        helmholtzSmoothJacobi(P, U, Omega, Sweeps, &GotCost);
        oracleHelmholtzSmoothJacobi(P, Want, Omega, Sweeps, &WantCost);
        EXPECT_TRUE(sameBytes(U.data(), Want.data()));
        expectSameCharges(GotCost, WantCost);
      }
}

//===----------------------------------------------------------------------===//
// Multigrid pins: hashes and charges recorded from the lexicographic
// smoothers, one per SmootherKind.
//===----------------------------------------------------------------------===//

namespace {

struct Pin {
  SmootherKind Kind;
  uint64_t Hash;
  double Stencil;
  double Flops;
};

MultigridOptions pinOptions(SmootherKind Kind) {
  MultigridOptions O;
  O.Cycles = 3;
  O.PreSmooth = 2;
  O.PostSmooth = 3;
  O.Mu = 2;
  O.Smoother = Kind;
  O.Omega = 1.37;
  return O;
}

} // namespace

TEST(SmootherParityTest, PoissonMultigridPinnedPerSmootherKind) {
  const Pin Pins[] = {
      {SmootherKind::Jacobi, 0x3714148566950d9cull, 35976, 4872},
      {SmootherKind::GaussSeidel, 0xb6badea4c714539cull, 35976, 4872},
      {SmootherKind::SOR, 0x8b9d9246bd44d8bcull, 35976, 4872},
  };
  support::Rng Rng(11);
  Grid2D F(33);
  fillRandom(F, Rng, -10.0, 10.0);
  for (const Pin &Want : Pins) {
    SCOPED_TRACE("smoother " + std::to_string(static_cast<unsigned>(Want.Kind)));
    support::CostCounter Cost;
    Grid2D U = multigridSolve(F, pinOptions(Want.Kind), &Cost);
    EXPECT_EQ(hashBytes(U.data()), Want.Hash);
    EXPECT_EQ(Cost.stencil(), Want.Stencil);
    EXPECT_EQ(Cost.flops(), Want.Flops);
  }
  // The heavy Gauss-Seidel W-cycle that builds every poisson2d input's
  // ground truth at program generation.
  EXPECT_EQ(hashBytes(referenceSolution(F).data()), 0xc416e9e494803f82ull);
}

TEST(SmootherParityTest, HelmholtzMultigridPinnedPerSmootherKind) {
  const Pin Pins[] = {
      {SmootherKind::Jacobi, 0x833eb314a122fb77ull, 186804, 34848},
      {SmootherKind::GaussSeidel, 0xb19153ce7596ee0aull, 186804, 34848},
      {SmootherKind::SOR, 0x108ab7eef8d31567ull, 186804, 34848},
  };
  HelmholtzProblem P = randomProblem(17, 12);
  for (const Pin &Want : Pins) {
    SCOPED_TRACE("smoother " + std::to_string(static_cast<unsigned>(Want.Kind)));
    support::CostCounter Cost;
    Grid3D U = helmholtzMultigridSolve(P, pinOptions(Want.Kind), &Cost);
    EXPECT_EQ(hashBytes(U.data()), Want.Hash);
    EXPECT_EQ(Cost.stencil(), Want.Stencil);
    EXPECT_EQ(Cost.flops(), Want.Flops);
  }
  EXPECT_EQ(hashBytes(helmholtzReferenceSolution(P).data()),
            0x00c0b69aed0f0057ull);
}
