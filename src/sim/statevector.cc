#include "sim/statevector.hh"

#include <cmath>

#include "common/logging.hh"

namespace casq {

namespace {

/**
 * (a + bi)(c + di) = (ac - bd, ad + bc).  On finite operands this is
 * bit-identical to std::complex<double>::operator*, which computes
 * the same four products and two sums and only adds a NaN check
 * that calls __muldc3; without that branch the loops below are
 * straight-line code the compiler may vectorize.
 */
inline Complex
mul(const Complex &x, const Complex &y)
{
    return Complex(x.real() * y.real() - x.imag() * y.imag(),
                   x.real() * y.imag() + x.imag() * y.real());
}

} // namespace

Statevector::Statevector(std::size_t num_qubits)
    : _numQubits(num_qubits),
      _amps(std::size_t(1) << num_qubits)
{
    casq_assert(num_qubits <= kMaxQubits, "statevector too large");
    _amps[0] = 1.0;
}

void
Statevector::reset()
{
    std::fill(_amps.begin(), _amps.end(), Complex{});
    _amps[0] = 1.0;
}

void
Statevector::assign(const StateBackend &src)
{
    casq_assert(src.kind() == SimBackendKind::Dense &&
                    src.numQubits() == _numQubits,
                "assign needs a dense backend of the same width");
    const auto &other = static_cast<const Statevector &>(src);
    _amps.assign(other._amps.begin(), other._amps.end());
}

void
Statevector::applyGate1q(const CMat &u, std::uint32_t q)
{
    casq_assert(q < _numQubits, "qubit ", q, " out of range");
    const std::size_t half = std::size_t(1) << q;
    const Complex u00 = u(0, 0), u01 = u(0, 1);
    const Complex u10 = u(1, 0), u11 = u(1, 1);
    const std::size_t n = _amps.size();
    Complex *amps = _amps.data();
    for (std::size_t base = 0; base < n; base += 2 * half) {
        Complex *lo = amps + base;
        Complex *hi = lo + half;
        for (std::size_t off = 0; off < half; ++off) {
            const Complex a = lo[off];
            const Complex b = hi[off];
            lo[off] = mul(u00, a) + mul(u01, b);
            hi[off] = mul(u10, a) + mul(u11, b);
        }
    }
}

void
Statevector::applyGate2q(const CMat &u, std::uint32_t q0,
                         std::uint32_t q1)
{
    casq_assert(q0 < _numQubits && q1 < _numQubits, "qubit pair (",
                q0, ", ", q1, ") out of range");
    const std::size_t m0 = std::size_t(1) << q0;
    const std::size_t m1 = std::size_t(1) << q1;
    Complex m[4][4];
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            m[r][c] = u(r, c);
    const std::size_t mlo = m0 < m1 ? m0 : m1;
    const std::size_t mhi = m0 < m1 ? m1 : m0;
    const std::size_t n = _amps.size();
    Complex *amps = _amps.data();
    for (std::size_t h = 0; h < n; h += 2 * mhi) {
        for (std::size_t l = 0; l < mhi; l += 2 * mlo) {
            const std::size_t block = h + l;
            for (std::size_t i = block; i < block + mlo; ++i) {
                // Bits q0 and q1 of i are both clear here.
                const std::size_t i1 = i | m0;
                const std::size_t i2 = i | m1;
                const std::size_t i3 = i | m0 | m1;
                const Complex v0 = amps[i], v1 = amps[i1];
                const Complex v2 = amps[i2], v3 = amps[i3];
                amps[i] = mul(m[0][0], v0) + mul(m[0][1], v1) +
                          mul(m[0][2], v2) + mul(m[0][3], v3);
                amps[i1] = mul(m[1][0], v0) + mul(m[1][1], v1) +
                           mul(m[1][2], v2) + mul(m[1][3], v3);
                amps[i2] = mul(m[2][0], v0) + mul(m[2][1], v1) +
                           mul(m[2][2], v2) + mul(m[2][3], v3);
                amps[i3] = mul(m[3][0], v0) + mul(m[3][1], v1) +
                           mul(m[3][2], v2) + mul(m[3][3], v3);
            }
        }
    }
}

void
Statevector::applyRz(std::uint32_t q, double theta)
{
    casq_assert(q < _numQubits, "qubit ", q, " out of range");
    const std::size_t half = std::size_t(1) << q;
    const Complex p0 = std::exp(Complex(0, -theta * 0.5));
    const Complex p1 = std::exp(Complex(0, theta * 0.5));
    const std::size_t n = _amps.size();
    Complex *amps = _amps.data();
    for (std::size_t base = 0; base < n; base += 2 * half) {
        Complex *lo = amps + base;
        Complex *hi = lo + half;
        for (std::size_t off = 0; off < half; ++off)
            lo[off] = mul(lo[off], p0);
        for (std::size_t off = 0; off < half; ++off)
            hi[off] = mul(hi[off], p1);
    }
}

void
Statevector::applyRzz(std::uint32_t q0, std::uint32_t q1,
                      double theta)
{
    applyRzzUnit(q0, q1, unitPhase(theta));
}

void
Statevector::applyRzzUnit(std::uint32_t q0, std::uint32_t q1,
                          const Complex &odd)
{
    casq_assert(q0 < _numQubits && q1 < _numQubits, "qubit pair (",
                q0, ", ", q1, ") out of range");
    casq_assert(q0 != q1, "applyRzz needs distinct qubits");
    const std::size_t mlo = std::size_t(1)
                            << (q0 < q1 ? q0 : q1);
    const std::size_t mhi = std::size_t(1)
                            << (q0 < q1 ? q1 : q0);
    // Rzz eigenphase: -theta/2 on even parity, +theta/2 on odd.
    const Complex even = std::conj(odd);
    const std::size_t n = _amps.size();
    Complex *amps = _amps.data();
    for (std::size_t h = 0; h < n; h += 2 * mhi) {
        for (std::size_t l = 0; l < mhi; l += 2 * mlo) {
            Complex *b00 = amps + h + l;
            Complex *b01 = b00 + mlo;
            Complex *b10 = b00 + mhi;
            Complex *b11 = b10 + mlo;
            for (std::size_t i = 0; i < mlo; ++i) {
                b00[i] = mul(b00[i], even);
                b01[i] = mul(b01[i], odd);
                b10[i] = mul(b10[i], odd);
                b11[i] = mul(b11[i], even);
            }
        }
    }
}

void
Statevector::applyPhases(const std::vector<QubitAngle> &z_angles,
                         const std::vector<PairAngle> &zz_angles)
{
    for (const QubitAngle &za : z_angles)
        casq_assert(za.qubit < _numQubits, "Z term on qubit ",
                    za.qubit, " out of range");
    for (const PairAngle &pa : zz_angles)
        casq_assert(pa.q0 < _numQubits && pa.q1 < _numQubits,
                    "ZZ term on (", pa.q0, ", ", pa.q1,
                    ") out of range");
    if (z_angles.empty() && zz_angles.empty())
        return;
    if (zz_angles.empty() && z_angles.size() == 1) {
        applyRz(z_angles[0].qubit, z_angles[0].theta);
        return;
    }
    if (z_angles.empty() && zz_angles.size() == 1 &&
        zz_angles[0].q0 != zz_angles[0].q1) {
        applyRzzUnit(zz_angles[0].q0, zz_angles[0].q1,
                     zz_angles[0].unit);
        return;
    }

    // Build a per-index Complex factor table by doubling over
    // qubits.  The factor for index i is the product over terms of
    // e^{+-i theta/2}, resolved at the term's highest qubit (for ZZ
    // terms the sign depends on the lower bit of the already-built
    // table index).  The unit factors come with the entries, so no
    // trig happens here.
    const std::size_t n = _amps.size();
    _phaseScratch.resize(n);
    Complex *table = _phaseScratch.data();
    table[0] = 1.0;

    for (std::uint32_t k = 0; k < _numQubits; ++k) {
        // Constant (bit-k-only) factors from Z terms at k, plus
        // degenerate ZZ pairs (q0 == q1 always has even parity).
        Complex g(1.0); // factor when bit k = 0
        Complex hc(1.0); // factor when bit k = 1
        bool any = false;
        for (const auto &za : z_angles) {
            if (za.qubit != k)
                continue;
            g = mul(g, std::conj(za.unit));
            hc = mul(hc, za.unit);
            any = true;
        }
        // ZZ terms at k, each keyed by the slot of its low qubit
        // among the distinct low qubits met so far.
        _zzScratch.clear();
        _lowScratch.clear();
        for (const auto &pa : zz_angles) {
            const std::uint32_t qhi = pa.q0 > pa.q1 ? pa.q0
                                                    : pa.q1;
            if (qhi != k)
                continue;
            const Complex f0 = std::conj(pa.unit);
            any = true;
            if (pa.q0 == pa.q1) {
                g = mul(g, f0);
                hc = mul(hc, f0);
                continue;
            }
            const std::uint32_t qlo = pa.q0 < pa.q1 ? pa.q0 : pa.q1;
            std::uint32_t slot = 0;
            while (slot < _lowScratch.size() &&
                   _lowScratch[slot] != qlo)
                ++slot;
            if (slot == _lowScratch.size())
                _lowScratch.push_back(qlo);
            _zzScratch.push_back(ZzAt{slot, f0, pa.unit});
        }
        const std::size_t halfLen = std::size_t(1) << k;
        if (!any) {
            for (std::size_t j = 0; j < halfLen; ++j)
                table[j + halfLen] = table[j];
            continue;
        }

        // Combo table: the (bit 0, bit 1) factor pair for each of
        // the 2^d patterns of the d distinct low qubits, multiplied
        // in term order exactly as a per-index loop would.
        const std::size_t d = _lowScratch.size();
        const std::size_t combos = std::size_t(1) << d;
        _comboScratch.resize(2 * combos);
        Complex *combo = _comboScratch.data();
        for (std::size_t p = 0; p < combos; ++p) {
            Complex g2 = g, h2 = hc;
            for (const ZzAt &t : _zzScratch) {
                const bool b = (p >> t.slot) & 1;
                g2 = mul(g2, b ? t.e1 : t.e0);
                h2 = mul(h2, b ? t.e0 : t.e1);
            }
            combo[2 * p] = g2;
            combo[2 * p + 1] = h2;
        }

        // The pattern is constant over runs of 2^(lowest low qubit)
        // indices, so it is gathered once per run.
        std::uint32_t lowest = k;
        for (std::uint32_t q : _lowScratch)
            lowest = q < lowest ? q : lowest;
        const std::size_t run = std::size_t(1) << lowest;
        for (std::size_t base = 0; base < halfLen; base += run) {
            std::size_t p = 0;
            for (std::size_t s = 0; s < d; ++s)
                p |= ((base >> _lowScratch[s]) & 1) << s;
            const Complex g2 = combo[2 * p];
            const Complex h2 = combo[2 * p + 1];
            Complex *lo = table + base;
            Complex *hi = lo + halfLen;
            for (std::size_t j = 0; j < run; ++j) {
                hi[j] = mul(lo[j], h2);
                lo[j] = mul(lo[j], g2);
            }
        }
    }

    Complex *amps = _amps.data();
    for (std::size_t i = 0; i < n; ++i)
        amps[i] = mul(amps[i], table[i]);
}

void
Statevector::applyPauli(const PauliString &p)
{
    casq_assert(p.numQubits() == _numQubits,
                "Pauli width mismatch");
    std::size_t xmask = 0;
    std::size_t zmask = 0;
    std::size_t ymask = 0;
    for (std::size_t q = 0; q < _numQubits; ++q) {
        switch (p.op(q)) {
          case PauliOp::X:
            xmask |= std::size_t(1) << q;
            break;
          case PauliOp::Y:
            xmask |= std::size_t(1) << q;
            ymask |= std::size_t(1) << q;
            break;
          case PauliOp::Z:
            zmask |= std::size_t(1) << q;
            break;
          case PauliOp::I:
            break;
        }
    }
    // P |i> = c(i) |i ^ xmask> with
    //   c(i) = phase * i^{|Y|} * (-1)^{popcount(i & (zmask|ymask))}
    // (each Y contributes +i on |0> and -i = (+i)*(-1) on |1>, so
    // the imaginary units factor out and only a parity remains;
    // multiplying a Complex by i or -1 is exact).
    Complex base = p.phase();
    for (int k = __builtin_popcountll(ymask); k > 0; --k)
        base *= Complex(0, 1);
    const std::size_t smask = zmask | ymask;
    const std::size_t n = _amps.size();
    Complex *amps = _amps.data();
    if (xmask == 0) {
        for (std::size_t i = 0; i < n; ++i) {
            const Complex c =
                (__builtin_popcountll(i & smask) & 1) ? -base
                                                      : base;
            amps[i] *= c;
        }
        return;
    }
    // Swap-style in-place update over pairs {i, i ^ xmask}; the
    // lowest X bit picks a unique representative per pair.
    const std::size_t half = xmask & (~xmask + 1);
    for (std::size_t blockBase = 0; blockBase < n;
         blockBase += 2 * half) {
        for (std::size_t off = 0; off < half; ++off) {
            const std::size_t i = blockBase + off;
            const std::size_t j = i ^ xmask;
            const Complex ci =
                (__builtin_popcountll(i & smask) & 1) ? -base
                                                      : base;
            const Complex cj =
                (__builtin_popcountll(j & smask) & 1) ? -base
                                                      : base;
            const Complex a = amps[i];
            const Complex b = amps[j];
            amps[j] = ci * a;
            amps[i] = cj * b;
        }
    }
}

void
Statevector::applyPauliOp(PauliOp op, std::uint32_t q)
{
    if (op == PauliOp::I)
        return;
    applyGate1q(pauliMatrix(op), q);
}

double
Statevector::probabilityOne(std::uint32_t q) const
{
    const std::size_t half = std::size_t(1) << q;
    const std::size_t n = _amps.size();
    const Complex *amps = _amps.data();
    double p = 0.0;
    for (std::size_t base = 0; base < n; base += 2 * half) {
        const Complex *hi = amps + base + half;
        for (std::size_t off = 0; off < half; ++off)
            p += std::norm(hi[off]);
    }
    return p;
}

double
Statevector::probabilityOfOutcome(
    const std::vector<std::uint32_t> &qubits,
    const std::vector<int> &bits) const
{
    casq_assert(qubits.size() == bits.size(),
                "outcome spec size mismatch");
    std::size_t mask = 0, want = 0;
    for (std::size_t k = 0; k < qubits.size(); ++k) {
        mask |= std::size_t(1) << qubits[k];
        if (bits[k])
            want |= std::size_t(1) << qubits[k];
    }
    double p = 0.0;
    for (std::size_t i = 0; i < _amps.size(); ++i)
        if ((i & mask) == want)
            p += std::norm(_amps[i]);
    return p;
}

void
Statevector::collapse(std::uint32_t q, int outcome)
{
    // Fused: zero the dropped branch while accumulating the kept
    // norm (adding the exact zeros changes nothing), then rescale.
    const std::size_t half = std::size_t(1) << q;
    const std::size_t n = _amps.size();
    Complex *amps = _amps.data();
    double kept = 0.0;
    for (std::size_t base = 0; base < n; base += 2 * half) {
        Complex *lo = amps + base;
        Complex *hi = lo + half;
        Complex *keep = outcome ? hi : lo;
        Complex *drop = outcome ? lo : hi;
        for (std::size_t off = 0; off < half; ++off)
            kept += std::norm(keep[off]);
        for (std::size_t off = 0; off < half; ++off)
            drop[off] = 0.0;
    }
    const double nrm = std::sqrt(kept);
    casq_assert(nrm > 1e-12, "state collapsed to zero norm");
    const double inv = 1.0 / nrm;
    for (std::size_t base = 0; base < n; base += 2 * half) {
        Complex *keep = amps + base + (outcome ? half : 0);
        for (std::size_t off = 0; off < half; ++off)
            keep[off] *= inv;
    }
}

void
Statevector::amplitudeDamp(std::uint32_t q, double tau, double t1,
                           Rng &rng)
{
    if (tau <= 0.0 || t1 <= 0.0)
        return;
    const double decay = std::exp(-tau / t1);
    const double p1 = probabilityOne(q);
    const double p_jump = p1 * (1.0 - decay);
    const std::size_t half = std::size_t(1) << q;
    const std::size_t n = _amps.size();
    Complex *amps = _amps.data();
    if (rng.uniform() < p_jump) {
        // Jump: |1> decays to |0>.  The post-jump norm is exactly
        // p1 (the moved amplitudes are summed in the same order the
        // probability pass visited them), so move and rescale fuse
        // into one pass.
        const double nrm = std::sqrt(p1);
        casq_assert(nrm > 1e-12, "state collapsed to zero norm");
        const double inv = 1.0 / nrm;
        for (std::size_t base = 0; base < n; base += 2 * half) {
            Complex *lo = amps + base;
            Complex *hi = lo + half;
            for (std::size_t off = 0; off < half; ++off) {
                lo[off] = hi[off] * inv;
                hi[off] = 0.0;
            }
        }
        return;
    }
    // No-jump back-action: damp the |1> amplitudes while
    // accumulating the norm in full ascending index order.
    const double k = std::sqrt(decay);
    double nsum = 0.0;
    for (std::size_t base = 0; base < n; base += 2 * half) {
        Complex *lo = amps + base;
        Complex *hi = lo + half;
        for (std::size_t off = 0; off < half; ++off)
            nsum += std::norm(lo[off]);
        for (std::size_t off = 0; off < half; ++off) {
            hi[off] *= k;
            nsum += std::norm(hi[off]);
        }
    }
    const double nrm = std::sqrt(nsum);
    casq_assert(nrm > 1e-12, "state collapsed to zero norm");
    const double inv = 1.0 / nrm;
    for (std::size_t i = 0; i < n; ++i)
        amps[i] *= inv;
}

double
Statevector::expectation(const PauliString &p) const
{
    casq_assert(p.numQubits() == _numQubits,
                "Pauli width mismatch");
    std::size_t xmask = 0, zmask = 0, ymask = 0;
    for (std::size_t q = 0; q < _numQubits; ++q) {
        switch (p.op(q)) {
          case PauliOp::X:
            xmask |= std::size_t(1) << q;
            break;
          case PauliOp::Y:
            xmask |= std::size_t(1) << q;
            ymask |= std::size_t(1) << q;
            break;
          case PauliOp::Z:
            zmask |= std::size_t(1) << q;
            break;
          case PauliOp::I:
            break;
        }
    }
    // Same coefficient identity as applyPauli (exact).
    Complex base = p.phase();
    for (int k = __builtin_popcountll(ymask); k > 0; --k)
        base *= Complex(0, 1);
    const std::size_t smask = zmask | ymask;
    Complex acc{};
    const std::size_t n = _amps.size();
    const Complex *amps = _amps.data();
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = i ^ xmask;
        const Complex c =
            (__builtin_popcountll(i & smask) & 1) ? -base : base;
        acc += std::conj(amps[j]) * c * amps[i];
    }
    return acc.real();
}

Complex
Statevector::overlap(const Statevector &other) const
{
    casq_assert(other.size() == size(), "overlap size mismatch");
    Complex acc{};
    for (std::size_t i = 0; i < _amps.size(); ++i)
        acc += std::conj(other._amps[i]) * _amps[i];
    return acc;
}

double
Statevector::norm() const
{
    double n = 0.0;
    for (const auto &a : _amps)
        n += std::norm(a);
    return n;
}

void
Statevector::renormalize()
{
    const double n = std::sqrt(norm());
    casq_assert(n > 1e-12, "state collapsed to zero norm");
    const double inv = 1.0 / n;
    for (auto &a : _amps)
        a *= inv;
}

} // namespace casq
