#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "circuit/unitary.hh"
#include "sim/statevector.hh"

namespace casq {
namespace {

TEST(Statevector, InitialState)
{
    Statevector sv(3);
    EXPECT_EQ(sv.size(), 8u);
    EXPECT_EQ(sv.amplitudes()[0], Complex(1));
    EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(Statevector, HadamardCreatesSuperposition)
{
    Statevector sv(1);
    sv.applyGate1q(gateUnitary(Op::H), 0);
    EXPECT_NEAR(std::abs(sv.amplitudes()[0]),
                1.0 / std::sqrt(2.0), 1e-12);
    EXPECT_NEAR(sv.probabilityOne(0), 0.5, 1e-12);
}

TEST(Statevector, BellStateViaCx)
{
    Statevector sv(2);
    sv.applyGate1q(gateUnitary(Op::H), 0);
    sv.applyGate2q(gateUnitary(Op::CX), 0, 1);
    EXPECT_NEAR(std::norm(sv.amplitudes()[0]), 0.5, 1e-12);
    EXPECT_NEAR(std::norm(sv.amplitudes()[3]), 0.5, 1e-12);
    EXPECT_NEAR(sv.expectation(PauliString::fromLabel("XX")), 1.0,
                1e-12);
    EXPECT_NEAR(sv.expectation(PauliString::fromLabel("YY")), -1.0,
                1e-12);
    EXPECT_NEAR(sv.expectation(PauliString::fromLabel("ZZ")), 1.0,
                1e-12);
    EXPECT_NEAR(sv.expectation(PauliString::fromLabel("ZI")), 0.0,
                1e-12);
}

TEST(Statevector, RzPhaseOnPlusState)
{
    Statevector sv(1);
    sv.applyGate1q(gateUnitary(Op::H), 0);
    sv.applyRz(0, 0.7);
    EXPECT_NEAR(sv.expectation(
                    PauliString::single(1, 0, PauliOp::X)),
                std::cos(0.7), 1e-12);
    EXPECT_NEAR(sv.expectation(
                    PauliString::single(1, 0, PauliOp::Y)),
                std::sin(0.7), 1e-12);
}

TEST(Statevector, RzzMatchesGateMatrix)
{
    Statevector a(2), b(2);
    for (Statevector *sv : {&a, &b}) {
        sv->applyGate1q(gateUnitary(Op::H), 0);
        sv->applyGate1q(gateUnitary(Op::H), 1);
    }
    a.applyRzz(0, 1, 0.9);
    b.applyGate2q(gateUnitary(Op::RZZ, {0.9}), 0, 1);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(std::abs(a.amplitudes()[i] - b.amplitudes()[i]),
                    0.0, 1e-12);
}

TEST(Statevector, FusedPhasesMatchSequential)
{
    Statevector a(3), b(3);
    for (Statevector *sv : {&a, &b})
        for (std::uint32_t q = 0; q < 3; ++q)
            sv->applyGate1q(gateUnitary(Op::H), q);

    a.applyPhases({QubitAngle{0, 0.3}, QubitAngle{2, -0.5}},
                  {PairAngle{0, 1, 0.7}, PairAngle{1, 2, 0.2}});
    b.applyRz(0, 0.3);
    b.applyRz(2, -0.5);
    b.applyRzz(0, 1, 0.7);
    b.applyRzz(1, 2, 0.2);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_NEAR(std::abs(a.amplitudes()[i] - b.amplitudes()[i]),
                    0.0, 1e-12);
}

TEST(Statevector, ApplyPauliMatchesMatrix)
{
    for (const char *label : {"XI", "IY", "ZZ", "XY", "YZ"}) {
        Statevector a(2), b(2);
        for (Statevector *sv : {&a, &b}) {
            sv->applyGate1q(gateUnitary(Op::H), 0);
            sv->applyGate1q(gateUnitary(Op::SX), 1);
        }
        const PauliString p = PauliString::fromLabel(label);
        a.applyPauli(p);
        b.applyGate2q(
            [&] {
                CMat m(4, 4);
                const CMat full = p.matrix();
                for (std::size_t i = 0; i < 4; ++i)
                    for (std::size_t j = 0; j < 4; ++j)
                        m(i, j) = full(i, j);
                return m;
            }(),
            0, 1);
        for (std::size_t i = 0; i < 4; ++i)
            EXPECT_NEAR(
                std::abs(a.amplitudes()[i] - b.amplitudes()[i]),
                0.0, 1e-12)
                << label;
    }
}

TEST(Statevector, MeasureCollapses)
{
    Rng rng(5);
    Statevector sv(2);
    sv.applyGate1q(gateUnitary(Op::H), 0);
    sv.applyGate2q(gateUnitary(Op::CX), 0, 1);
    const int outcome = sv.measure(0, rng);
    // After collapse both qubits agree.
    EXPECT_NEAR(sv.probabilityOne(1), double(outcome), 1e-12);
    EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(Statevector, MeasurementStatistics)
{
    Rng rng(11);
    int ones = 0;
    const int shots = 2000;
    for (int s = 0; s < shots; ++s) {
        Statevector sv(1);
        sv.applyGate1q(gateUnitary(Op::H), 0);
        ones += sv.measure(0, rng);
    }
    EXPECT_NEAR(ones / double(shots), 0.5, 0.05);
}

TEST(Statevector, CollapseDeterministic)
{
    Statevector sv(1);
    sv.applyGate1q(gateUnitary(Op::H), 0);
    sv.collapse(0, 1);
    EXPECT_NEAR(sv.probabilityOne(0), 1.0, 1e-12);
}

TEST(Statevector, ProbabilityOfOutcome)
{
    Statevector sv(2);
    sv.applyGate1q(gateUnitary(Op::H), 0);
    sv.applyGate2q(gateUnitary(Op::CX), 0, 1);
    EXPECT_NEAR(sv.probabilityOfOutcome({0, 1}, {0, 0}), 0.5,
                1e-12);
    EXPECT_NEAR(sv.probabilityOfOutcome({0, 1}, {1, 0}), 0.0,
                1e-12);
}

TEST(Statevector, AmplitudeDampDecaysExcitedState)
{
    // Average over many trajectories: P(1) ~ exp(-t/T1).
    Rng rng(17);
    const double tau = 100.0, t1 = 300.0;
    const int shots = 4000;
    double p1 = 0.0;
    for (int s = 0; s < shots; ++s) {
        Statevector sv(1);
        sv.applyGate1q(gateUnitary(Op::X), 0);
        sv.amplitudeDamp(0, tau, t1, rng);
        p1 += sv.probabilityOne(0);
    }
    EXPECT_NEAR(p1 / shots, std::exp(-tau / t1), 0.03);
}

TEST(Statevector, AmplitudeDampPreservesGroundState)
{
    Rng rng(19);
    Statevector sv(1);
    sv.amplitudeDamp(0, 1000.0, 100.0, rng);
    EXPECT_NEAR(sv.probabilityOne(0), 0.0, 1e-12);
    EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(Statevector, OverlapOfIdenticalStatesIsOne)
{
    Statevector a(2), b(2);
    for (Statevector *sv : {&a, &b}) {
        sv->applyGate1q(gateUnitary(Op::H), 0);
        sv->applyGate2q(gateUnitary(Op::CX), 0, 1);
    }
    EXPECT_NEAR(std::abs(a.overlap(b)), 1.0, 1e-12);
}

TEST(Statevector, CopyFromMatchesSourceExactly)
{
    Statevector src(3), dst(3);
    src.applyGate1q(gateUnitary(Op::H), 0);
    src.applyGate2q(gateUnitary(Op::ECR), 0, 2);
    src.applyRz(1, 0.37);
    dst.assign(src);
    for (std::size_t i = 0; i < src.size(); ++i)
        EXPECT_EQ(dst.amplitudes()[i], src.amplitudes()[i]) << i;
    // The copy is independent state, not a view.
    dst.applyGate1q(gateUnitary(Op::X), 1);
    EXPECT_NE(dst.amplitudes()[0], src.amplitudes()[0]);
}

// ----------------------- randomized old-vs-new kernel equivalence
//
// The block-structured kernels replaced mask-skip loops and
// per-amplitude trig; these references reimplement the historical
// per-element arithmetic, so any divergence beyond accumulated
// rounding (1e-15) is a kernel bug.

/** Haar-ish random normalized state via per-amplitude Gaussians. */
Statevector
randomState(std::size_t qubits, Rng &rng)
{
    Statevector sv(qubits);
    double nrm = 0.0;
    for (std::size_t i = 0; i < sv.size(); ++i) {
        const Complex a(rng.uniform(-1.0, 1.0),
                        rng.uniform(-1.0, 1.0));
        sv.amp(i) = a;
        nrm += std::norm(a);
    }
    const double inv = 1.0 / std::sqrt(nrm);
    for (std::size_t i = 0; i < sv.size(); ++i)
        sv.amp(i) *= inv;
    return sv;
}

/** Historical mask-skip 1q kernel. */
void
refGate1q(std::vector<Complex> &amps, const CMat &u,
          std::uint32_t q)
{
    const std::size_t mask = std::size_t(1) << q;
    for (std::size_t i = 0; i < amps.size(); ++i) {
        if (i & mask)
            continue;
        const Complex a = amps[i];
        const Complex b = amps[i | mask];
        amps[i] = u(0, 0) * a + u(0, 1) * b;
        amps[i | mask] = u(1, 0) * a + u(1, 1) * b;
    }
}

/** Historical mask-skip 2q kernel (q0 = less significant index). */
void
refGate2q(std::vector<Complex> &amps, const CMat &u,
          std::uint32_t q0, std::uint32_t q1)
{
    const std::size_t m0 = std::size_t(1) << q0;
    const std::size_t m1 = std::size_t(1) << q1;
    for (std::size_t i = 0; i < amps.size(); ++i) {
        if (i & (m0 | m1))
            continue;
        const Complex a00 = amps[i];
        const Complex a01 = amps[i | m0];
        const Complex a10 = amps[i | m1];
        const Complex a11 = amps[i | m0 | m1];
        amps[i] = u(0, 0) * a00 + u(0, 1) * a01 + u(0, 2) * a10 +
                  u(0, 3) * a11;
        amps[i | m0] = u(1, 0) * a00 + u(1, 1) * a01 +
                       u(1, 2) * a10 + u(1, 3) * a11;
        amps[i | m1] = u(2, 0) * a00 + u(2, 1) * a01 +
                       u(2, 2) * a10 + u(2, 3) * a11;
        amps[i | m0 | m1] = u(3, 0) * a00 + u(3, 1) * a01 +
                            u(3, 2) * a10 + u(3, 3) * a11;
    }
}

/** Historical per-amplitude-trig fused phase kernel. */
void
refPhases(std::vector<Complex> &amps,
          const std::vector<QubitAngle> &z,
          const std::vector<PairAngle> &zz)
{
    for (std::size_t i = 0; i < amps.size(); ++i) {
        double acc = 0.0;
        for (const QubitAngle &za : z)
            acc += ((i >> za.qubit) & 1) ? 0.5 * za.theta
                                         : -0.5 * za.theta;
        for (const PairAngle &pa : zz) {
            const int parity = int((i >> pa.q0) & 1) ^
                               int((i >> pa.q1) & 1);
            acc += parity ? 0.5 * pa.theta : -0.5 * pa.theta;
        }
        amps[i] *= Complex(std::cos(acc), std::sin(acc));
    }
}

void
expectAmpsNear(const Statevector &sv,
               const std::vector<Complex> &ref, double tol,
               const std::string &label)
{
    ASSERT_EQ(sv.size(), ref.size()) << label;
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_NEAR(std::abs(sv.amplitudes()[i] - ref[i]), 0.0,
                    tol)
            << label << " amp " << i;
}

TEST(StatevectorKernels, RandomizedGate1qMatchesMaskSkipReference)
{
    Rng rng(71);
    for (int round = 0; round < 20; ++round) {
        const std::size_t n = 1 + round % 6;
        Statevector sv = randomState(n, rng);
        std::vector<Complex> ref = sv.amplitudes();
        const std::uint32_t q =
            std::uint32_t(rng.uniform(0.0, double(n))) % n;
        for (Op op : {Op::H, Op::SX, Op::T, Op::Y}) {
            sv.applyGate1q(gateUnitary(op), q);
            refGate1q(ref, gateUnitary(op), q);
        }
        expectAmpsNear(sv, ref, 1e-15,
                       "round " + std::to_string(round));
    }
}

TEST(StatevectorKernels, RandomizedGate2qMatchesMaskSkipReference)
{
    Rng rng(72);
    for (int round = 0; round < 20; ++round) {
        const std::size_t n = 2 + round % 5;
        Statevector sv = randomState(n, rng);
        std::vector<Complex> ref = sv.amplitudes();
        std::uint32_t q0 =
            std::uint32_t(rng.uniform(0.0, double(n))) % n;
        std::uint32_t q1 =
            std::uint32_t(rng.uniform(0.0, double(n))) % n;
        if (q0 == q1)
            q1 = (q1 + 1) % n;
        for (Op op : {Op::CX, Op::ECR, Op::Swap}) {
            sv.applyGate2q(gateUnitary(op), q0, q1);
            refGate2q(ref, gateUnitary(op), q0, q1);
        }
        expectAmpsNear(sv, ref, 1e-15,
                       "round " + std::to_string(round));
    }
}

TEST(StatevectorKernels, RandomizedRzzMatchesPerAmplitudeTrig)
{
    Rng rng(73);
    for (int round = 0; round < 20; ++round) {
        const std::size_t n = 2 + round % 5;
        Statevector sv = randomState(n, rng);
        std::vector<Complex> ref = sv.amplitudes();
        std::uint32_t q0 =
            std::uint32_t(rng.uniform(0.0, double(n))) % n;
        std::uint32_t q1 =
            std::uint32_t(rng.uniform(0.0, double(n))) % n;
        if (q0 == q1)
            q1 = (q1 + 1) % n;
        const double theta = rng.uniform(-3.0, 3.0);
        sv.applyRzz(q0, q1, theta);
        refPhases(ref, {}, {PairAngle{q0, q1, theta}});
        expectAmpsNear(sv, ref, 1e-15,
                       "round " + std::to_string(round));
    }
}

/** Z and ZZ terms for one fused-phase call. */
struct PhaseTerms
{
    std::vector<QubitAngle> z;
    std::vector<PairAngle> zz;
};

constexpr int kPhaseShapes = 7;

/**
 * The term shapes the fused phase kernel must handle, by index:
 *  0. a standard-noise segment: one merged deterministic Z per
 *     qubit, then a stochastic Z on the same qubits (the order
 *     the drawing-segment step appends them), chain and next-nearest ZZ;
 *  1. reversed (q0 > q1) and long-range pairs;
 *  2. degenerate q0 == q1 pairs among Z and ordinary pairs;
 *  3. more than four ZZ terms sharing the high qubit, duplicate
 *     pairs included;
 *  4. one Z term (the applyRz fast path);
 *  5. one non-degenerate ZZ term (the applyRzz fast path);
 *  6. a free mix of everything above.
 */
PhaseTerms
randomPhaseTerms(std::size_t n, int shape, Rng &rng)
{
    PhaseTerms t;
    const auto qubit = [&] {
        return std::uint32_t(rng.uniformInt(n));
    };
    const auto angle = [&] { return rng.uniform(-2.0, 2.0); };
    const std::uint32_t top = std::uint32_t(n - 1);
    switch (shape) {
      case 0:
        for (std::uint32_t q = 0; q < n; ++q)
            t.z.push_back(QubitAngle{q, angle()});
        for (std::uint32_t q = 0; q < n; ++q)
            if (rng.bernoulli(0.8))
                t.z.push_back(QubitAngle{q, angle()});
        for (std::uint32_t q = 0; q + 1 < n; ++q)
            t.zz.push_back(PairAngle{q, q + 1, angle()});
        for (std::uint32_t q = 0; q + 2 < n; ++q)
            t.zz.push_back(PairAngle{q, q + 2, angle()});
        break;
      case 1:
        t.z.push_back(QubitAngle{qubit(), angle()});
        for (std::uint32_t q = 0; q + 1 < n; ++q)
            t.zz.push_back(PairAngle{q + 1, q, angle()});
        if (n > 2) {
            t.zz.push_back(PairAngle{top, 0, angle()});
            t.zz.push_back(PairAngle{0, top, angle()});
        }
        break;
      case 2:
        t.z.push_back(QubitAngle{qubit(), angle()});
        for (int k = 0; k < 3; ++k) {
            const std::uint32_t q = qubit();
            t.zz.push_back(PairAngle{q, q, angle()});
        }
        if (n > 1)
            t.zz.push_back(PairAngle{0, top, angle()});
        break;
      case 3:
        for (int k = 0; k < 6; ++k) {
            const std::uint32_t lo =
                n > 1 ? std::uint32_t(rng.uniformInt(n - 1)) : 0;
            t.zz.push_back(k % 2 ? PairAngle{top, lo, angle()}
                                 : PairAngle{lo, top, angle()});
        }
        t.zz.push_back(t.zz.front());
        t.z.push_back(QubitAngle{top, angle()});
        break;
      case 4:
        t.z.push_back(QubitAngle{qubit(), angle()});
        break;
      case 5:
        if (n > 1) {
            const std::uint32_t a = qubit();
            const std::uint32_t b =
                std::uint32_t((a + 1 + rng.uniformInt(n - 1)) % n);
            t.zz.push_back(PairAngle{a, b, angle()});
        } else {
            t.z.push_back(QubitAngle{0, angle()});
        }
        break;
      default:
        for (std::uint64_t k = rng.uniformInt(2 * n + 1); k > 0; --k)
            t.z.push_back(QubitAngle{qubit(), angle()});
        for (std::uint64_t k = rng.uniformInt(2 * n + 1); k > 0; --k)
            t.zz.push_back(PairAngle{qubit(), qubit(), angle()});
        break;
    }
    return t;
}

TEST(StatevectorKernels, RandomizedPhasesMatchPerAmplitudeTrig)
{
    Rng rng(74);
    for (std::size_t n = 1; n <= 10; ++n) {
        for (int shape = 0; shape < kPhaseShapes; ++shape) {
            Statevector sv = randomState(n, rng);
            std::vector<Complex> ref = sv.amplitudes();
            const PhaseTerms t = randomPhaseTerms(n, shape, rng);
            sv.applyPhases(t.z, t.zz);
            refPhases(ref, t.z, t.zz);
            expectAmpsNear(sv, ref, 1e-15,
                           "n " + std::to_string(n) + " shape " +
                               std::to_string(shape));
        }
    }
}

TEST(StatevectorKernels, RandomizedPauliMatchesMatrixKernel)
{
    Rng rng(75);
    for (const char *label :
         {"XX", "YY", "ZX", "XZ", "YX", "ZY", "IX", "YI"}) {
        Statevector a = randomState(2, rng);
        Statevector b(2);
        b.assign(a);
        const PauliString p = PauliString::fromLabel(label);
        a.applyPauli(p);
        CMat m(4, 4);
        const CMat full = p.matrix();
        for (std::size_t i = 0; i < 4; ++i)
            for (std::size_t j = 0; j < 4; ++j)
                m(i, j) = full(i, j);
        b.applyGate2q(m, 0, 1);
        for (std::size_t i = 0; i < 4; ++i)
            EXPECT_NEAR(
                std::abs(a.amplitudes()[i] - b.amplitudes()[i]),
                0.0, 1e-15)
                << label;
    }
}

// ------------------------------- byte identity to frozen kernels
//
// The dense kernels compute complex products with an explicit
// (ac - bd, ad + bc) helper and take the phase kernel's unit
// factors from the term entries instead of calling cos/sin.  Both
// changes must keep every bit, so the kernels as they stood before
// are frozen here verbatim (std::complex operator*, trig in the
// loop) and compared amplitude by amplitude with memcmp.

namespace frozen {

std::uint32_t
widthOf(const std::vector<Complex> &amps)
{
    return std::uint32_t(__builtin_ctzll(amps.size()));
}

void
applyGate1q(std::vector<Complex> &amps, const CMat &u, std::uint32_t q)
{
    const std::size_t half = std::size_t(1) << q;
    const Complex u00 = u(0, 0), u01 = u(0, 1);
    const Complex u10 = u(1, 0), u11 = u(1, 1);
    const std::size_t n = amps.size();
    for (std::size_t base = 0; base < n; base += 2 * half) {
        Complex *lo = amps.data() + base;
        Complex *hi = lo + half;
        for (std::size_t off = 0; off < half; ++off) {
            const Complex a = lo[off];
            const Complex b = hi[off];
            lo[off] = u00 * a + u01 * b;
            hi[off] = u10 * a + u11 * b;
        }
    }
}

void
applyGate2q(std::vector<Complex> &amps, const CMat &u,
            std::uint32_t q0, std::uint32_t q1)
{
    const std::size_t m0 = std::size_t(1) << q0;
    const std::size_t m1 = std::size_t(1) << q1;
    Complex m[4][4];
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            m[r][c] = u(r, c);
    const std::size_t mlo = m0 < m1 ? m0 : m1;
    const std::size_t mhi = m0 < m1 ? m1 : m0;
    const std::size_t n = amps.size();
    Complex *a = amps.data();
    for (std::size_t h = 0; h < n; h += 2 * mhi) {
        for (std::size_t l = 0; l < mhi; l += 2 * mlo) {
            const std::size_t block = h + l;
            for (std::size_t i = block; i < block + mlo; ++i) {
                const std::size_t i1 = i | m0;
                const std::size_t i2 = i | m1;
                const std::size_t i3 = i | m0 | m1;
                const Complex v0 = a[i], v1 = a[i1];
                const Complex v2 = a[i2], v3 = a[i3];
                a[i] = m[0][0] * v0 + m[0][1] * v1 + m[0][2] * v2 +
                       m[0][3] * v3;
                a[i1] = m[1][0] * v0 + m[1][1] * v1 +
                        m[1][2] * v2 + m[1][3] * v3;
                a[i2] = m[2][0] * v0 + m[2][1] * v1 +
                        m[2][2] * v2 + m[2][3] * v3;
                a[i3] = m[3][0] * v0 + m[3][1] * v1 +
                        m[3][2] * v2 + m[3][3] * v3;
            }
        }
    }
}

void
applyRz(std::vector<Complex> &amps, std::uint32_t q, double theta)
{
    const std::size_t half = std::size_t(1) << q;
    const Complex p0 = std::exp(Complex(0, -theta * 0.5));
    const Complex p1 = std::exp(Complex(0, theta * 0.5));
    const std::size_t n = amps.size();
    for (std::size_t base = 0; base < n; base += 2 * half) {
        Complex *lo = amps.data() + base;
        Complex *hi = lo + half;
        for (std::size_t off = 0; off < half; ++off)
            lo[off] *= p0;
        for (std::size_t off = 0; off < half; ++off)
            hi[off] *= p1;
    }
}

void
applyRzz(std::vector<Complex> &amps, std::uint32_t q0,
         std::uint32_t q1, double theta)
{
    const std::size_t mlo = std::size_t(1) << (q0 < q1 ? q0 : q1);
    const std::size_t mhi = std::size_t(1) << (q0 < q1 ? q1 : q0);
    const Complex odd(std::cos(theta * 0.5), std::sin(theta * 0.5));
    const Complex even = std::conj(odd);
    const std::size_t n = amps.size();
    for (std::size_t h = 0; h < n; h += 2 * mhi) {
        for (std::size_t l = 0; l < mhi; l += 2 * mlo) {
            Complex *b00 = amps.data() + h + l;
            Complex *b01 = b00 + mlo;
            Complex *b10 = b00 + mhi;
            Complex *b11 = b10 + mlo;
            for (std::size_t i = 0; i < mlo; ++i) {
                b00[i] *= even;
                b01[i] *= odd;
                b10[i] *= odd;
                b11[i] *= even;
            }
        }
    }
}

void
applyPhases(std::vector<Complex> &amps,
            const std::vector<QubitAngle> &z_angles,
            const std::vector<PairAngle> &zz_angles)
{
    if (z_angles.empty() && zz_angles.empty())
        return;
    if (zz_angles.empty() && z_angles.size() == 1) {
        applyRz(amps, z_angles[0].qubit, z_angles[0].theta);
        return;
    }
    if (z_angles.empty() && zz_angles.size() == 1 &&
        zz_angles[0].q0 != zz_angles[0].q1) {
        applyRzz(amps, zz_angles[0].q0, zz_angles[0].q1,
                 zz_angles[0].theta);
        return;
    }
    const std::size_t n = amps.size();
    std::vector<Complex> scratch(n);
    Complex *table = scratch.data();
    table[0] = 1.0;
    struct ZzAt
    {
        std::uint32_t qlo;
        Complex e0;
        Complex e1;
    };
    std::vector<ZzAt> zzHere;
    for (std::uint32_t k = 0; k < widthOf(amps); ++k) {
        Complex g(1.0);
        Complex hc(1.0);
        bool any = false;
        for (const auto &za : z_angles) {
            if (za.qubit != k)
                continue;
            const Complex f1(std::cos(za.theta * 0.5),
                             std::sin(za.theta * 0.5));
            g *= std::conj(f1);
            hc *= f1;
            any = true;
        }
        zzHere.clear();
        for (const auto &pa : zz_angles) {
            const std::uint32_t qhi = pa.q0 > pa.q1 ? pa.q0 : pa.q1;
            if (qhi != k)
                continue;
            const Complex f1(std::cos(pa.theta * 0.5),
                             std::sin(pa.theta * 0.5));
            const Complex f0 = std::conj(f1);
            if (pa.q0 == pa.q1) {
                g *= f0;
                hc *= f0;
            } else {
                zzHere.push_back(
                    ZzAt{pa.q0 < pa.q1 ? pa.q0 : pa.q1, f0, f1});
            }
            any = true;
        }
        const std::size_t halfLen = std::size_t(1) << k;
        if (!any) {
            for (std::size_t j = 0; j < halfLen; ++j)
                table[j + halfLen] = table[j];
            continue;
        }
        if (zzHere.empty()) {
            for (std::size_t j = 0; j < halfLen; ++j) {
                table[j + halfLen] = table[j] * hc;
                table[j] *= g;
            }
            continue;
        }
        for (std::size_t j = 0; j < halfLen; ++j) {
            Complex g2 = g, h2 = hc;
            for (const auto &t : zzHere) {
                const bool b = (j >> t.qlo) & 1;
                g2 *= b ? t.e1 : t.e0;
                h2 *= b ? t.e0 : t.e1;
            }
            table[j + halfLen] = table[j] * h2;
            table[j] *= g2;
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        amps[i] *= table[i];
}

} // namespace frozen

void
expectBytesEqual(const Statevector &sv,
                 const std::vector<Complex> &ref,
                 const std::string &label)
{
    ASSERT_EQ(sv.size(), ref.size()) << label;
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(std::memcmp(&sv.amplitudes()[i], &ref[i],
                              sizeof(Complex)),
                  0)
            << label << " amp " << i << ": " << sv.amplitudes()[i]
            << " vs " << ref[i];
}

/** A matrix of random finite entries (unitarity is irrelevant). */
CMat
randomMatrix(std::size_t dim, Rng &rng)
{
    CMat m(dim, dim);
    for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t c = 0; c < dim; ++c)
            m(r, c) = Complex(rng.uniform(-1.0, 1.0),
                              rng.uniform(-1.0, 1.0));
    return m;
}

TEST(StatevectorKernels, PhasesByteIdenticalToFrozenKernel)
{
    Rng rng(80);
    for (std::size_t n = 1; n <= 10; ++n) {
        for (int shape = 0; shape < kPhaseShapes; ++shape) {
            for (int round = 0; round < 4; ++round) {
                Statevector sv = randomState(n, rng);
                std::vector<Complex> ref = sv.amplitudes();
                const PhaseTerms t = randomPhaseTerms(n, shape, rng);
                // Applied twice: the second call reuses the scratch
                // the first one sized.
                for (int rep = 0; rep < 2; ++rep) {
                    sv.applyPhases(t.z, t.zz);
                    frozen::applyPhases(ref, t.z, t.zz);
                }
                expectBytesEqual(sv, ref,
                                 "n " + std::to_string(n) +
                                     " shape " +
                                     std::to_string(shape) +
                                     " round " +
                                     std::to_string(round));
            }
        }
    }
}

TEST(StatevectorKernels, GatesByteIdenticalToFrozenKernels)
{
    Rng rng(81);
    for (std::size_t n = 1; n <= 10; ++n) {
        Statevector sv = randomState(n, rng);
        std::vector<Complex> ref = sv.amplitudes();
        for (std::uint32_t q = 0; q < n; ++q) {
            const CMat u = q % 2 ? randomMatrix(2, rng)
                                 : gateUnitary(Op::SX);
            sv.applyGate1q(u, q);
            frozen::applyGate1q(ref, u, q);
        }
        for (std::uint32_t q0 = 0; q0 < n; ++q0) {
            for (std::uint32_t q1 = 0; q1 < n; ++q1) {
                if (q0 == q1)
                    continue;
                const CMat u = (q0 + q1) % 2
                                   ? randomMatrix(4, rng)
                                   : gateUnitary(Op::ECR);
                sv.applyGate2q(u, q0, q1);
                frozen::applyGate2q(ref, u, q0, q1);
            }
        }
        expectBytesEqual(sv, ref, "n " + std::to_string(n));
    }
}

// A qubit index past the register used to write past the amplitude
// array (the single-term fast path) or be silently dropped (the
// factor table); both now die on a per-call check.
TEST(StatevectorKernelsDeathTest, OutOfRangeQubitsDie)
{
    Statevector sv(3);
    EXPECT_DEATH(sv.applyPhases({QubitAngle{3, 0.4}}, {}),
                 "out of range");
    EXPECT_DEATH(sv.applyPhases({QubitAngle{0, 0.4},
                                 QubitAngle{7, 0.2}},
                                {PairAngle{0, 1, 0.3}}),
                 "out of range");
    EXPECT_DEATH(sv.applyPhases({}, {PairAngle{1, 4, 0.3}}),
                 "out of range");
    EXPECT_DEATH(sv.applyPhases({QubitAngle{0, 0.4}},
                                {PairAngle{5, 5, 0.3}}),
                 "out of range");
    EXPECT_DEATH(sv.applyRz(3, 0.4), "out of range");
    EXPECT_DEATH(sv.applyRzz(0, 3, 0.4), "out of range");
    EXPECT_DEATH(sv.applyGate1q(gateUnitary(Op::X), 3),
                 "out of range");
    EXPECT_DEATH(sv.applyGate2q(gateUnitary(Op::CX), 3, 0),
                 "out of range");
}

// --------------------------------- fused-kernel bit-exact pins
//
// measure() is StateBackend's shared probabilityOne -> uniform ->
// collapse sequence, so composing those library calls by hand must
// reproduce its bytes exactly -- EXPECT_EQ, no tolerance.

TEST(StatevectorKernels, MeasureEqualsProbabilityPlusCollapse)
{
    Rng master(76);
    for (int round = 0; round < 12; ++round) {
        Rng setup = master.derive(std::uint64_t(round));
        Statevector fused = randomState(4, setup);
        Statevector composed(4);
        composed.assign(fused);
        const std::uint32_t q = round % 4;

        // Identical draw for both paths.
        Rng draw_a = setup.derive(9000);
        Rng draw_b = setup.derive(9000);
        const int outcome = fused.measure(q, draw_a);
        const int expected =
            draw_b.uniform() < composed.probabilityOne(q) ? 1 : 0;
        composed.collapse(q, expected);

        EXPECT_EQ(outcome, expected) << "round " << round;
        for (std::size_t i = 0; i < fused.size(); ++i)
            EXPECT_EQ(fused.amplitudes()[i],
                      composed.amplitudes()[i])
                << "round " << round << " amp " << i;
    }
}

TEST(StatevectorKernels, AmplitudeDampGroundStateIsExact)
{
    // The fused no-jump branch must leave an exact ground state
    // bit-untouched: p1 == 0.0, the kept sum is exactly 1.0, and
    // the rescale multiplies by exactly 1.0.
    Rng rng(77);
    Statevector sv(2);
    sv.amplitudeDamp(0, 250.0, 80.0, rng);
    sv.amplitudeDamp(1, 250.0, 80.0, rng);
    EXPECT_EQ(sv.amplitudes()[0], Complex(1));
    for (std::size_t i = 1; i < sv.size(); ++i)
        EXPECT_EQ(sv.amplitudes()[i], Complex(0));
}

TEST(StatevectorKernels, AmplitudeDampBranchesMatchAnalytic)
{
    // alpha|00> + beta|01> (qubit 0 excited): both Kraus branches
    // have closed forms the fused kernel must hit to 1e-15.
    const double tau = 120.0, t1 = 200.0;
    const double decay = std::exp(-tau / t1);
    const double alpha = 0.6, beta = 0.8;
    const double p1 = beta * beta * (1.0 - decay);

    int jumps = 0, stays = 0;
    Rng master(78);
    for (int round = 0; round < 40; ++round) {
        Rng rng = master.derive(std::uint64_t(round));
        Rng probe = master.derive(std::uint64_t(round));
        const bool jump = probe.uniform() < p1;
        Statevector sv(2);
        sv.amp(0) = Complex(alpha);
        sv.amp(1) = Complex(beta);
        sv.amplitudeDamp(0, tau, t1, rng);
        if (jump) {
            ++jumps;
            // |1> decayed to |0>: the state is exactly |00>.
            EXPECT_NEAR(std::abs(sv.amplitudes()[0] - Complex(1)),
                        0.0, 1e-15);
            EXPECT_NEAR(std::abs(sv.amplitudes()[1]), 0.0, 1e-15);
        } else {
            ++stays;
            const double k = std::sqrt(decay);
            const double nrm = std::sqrt(
                alpha * alpha + beta * k * (beta * k));
            EXPECT_NEAR(std::abs(sv.amplitudes()[0] -
                                 Complex(alpha / nrm)),
                        0.0, 1e-15);
            EXPECT_NEAR(std::abs(sv.amplitudes()[1] -
                                 Complex(beta * k / nrm)),
                        0.0, 1e-15);
        }
        EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
    }
    // p1 ~ 0.29: both branches must actually have been exercised.
    EXPECT_GT(jumps, 0);
    EXPECT_GT(stays, 0);
}

} // namespace
} // namespace casq
