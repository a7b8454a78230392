/**
 * @file
 * Dense statevector with the specialized kernels needed by the
 * trajectory simulator: generic 1q/2q gate application, a fused
 * diagonal-phase kernel for the per-segment Z/ZZ crosstalk errors,
 * projective measurement, amplitude damping, and exact Pauli
 * expectation values.  It is the dense StateBackend
 * (sim/backend.hh): the engine's trajectories drive it through that
 * seam, while tests and benches call it directly.
 */

#ifndef CASQ_SIM_STATEVECTOR_HH
#define CASQ_SIM_STATEVECTOR_HH

#include <cstdint>
#include <vector>

#include "sim/backend.hh"

namespace casq {

/** Dense complex statevector over n qubits (qubit 0 = LSB). */
class Statevector final : public StateBackend
{
  public:
    /** Widest state the dense substrate allocates (2^24 amplitudes). */
    static constexpr std::size_t kMaxQubits = 24;

    explicit Statevector(std::size_t num_qubits);

    SimBackendKind
    kind() const override
    {
        return SimBackendKind::Dense;
    }

    std::size_t numQubits() const override { return _numQubits; }
    std::size_t size() const { return _amps.size(); }

    /** Reset to |0...0>. */
    void reset() override;

    /**
     * Copy another dense state of the same width (no reallocation);
     * `src` must be a Statevector.
     */
    void assign(const StateBackend &src) override;

    const std::vector<Complex> &amplitudes() const { return _amps; }
    Complex &amp(std::size_t i) { return _amps[i]; }

    /** Apply a 2x2 unitary to qubit q. */
    void applyGate1q(const CMat &u, std::uint32_t q) override;

    /** Apply a 4x4 unitary to (q0 = less significant, q1). */
    void applyGate2q(const CMat &u, std::uint32_t q0,
                     std::uint32_t q1) override;

    /** Rz(theta) on q (diagonal fast path). */
    void applyRz(std::uint32_t q, double theta) override;

    /** Rzz(theta) on (q0, q1) (diagonal fast path). */
    void applyRzz(std::uint32_t q0, std::uint32_t q1, double theta);

    /**
     * Fused diagonal kernel: applies all the given Rz and Rzz
     * angles in a single pass over the state, using the unit
     * factors the entries carry.  This is the hot path of
     * crosstalk-noise injection (one call per timeline segment).
     * Every qubit index must be below numQubits().
     */
    void applyPhases(const std::vector<QubitAngle> &z_angles,
                     const std::vector<PairAngle> &zz_angles) override;

    /** Apply a Pauli string (its phase included). */
    void applyPauli(const PauliString &p);

    /** Apply a single-qubit Pauli by enum. */
    void applyPauliOp(PauliOp op, std::uint32_t q) override;

    /** Probability that qubit q reads 1. */
    double probabilityOne(std::uint32_t q) const override;

    /** Probability of a full/partial computational outcome. */
    double probabilityOfOutcome(
        const std::vector<std::uint32_t> &qubits,
        const std::vector<int> &bits) const;

    /** Project qubit q onto `outcome` and renormalize. */
    void collapse(std::uint32_t q, int outcome) override;

    /**
     * Amplitude-damping channel for idling time tau with relaxation
     * time t1, unravelled as a quantum jump (one of the two Kraus
     * branches is sampled and the state renormalized).
     */
    void amplitudeDamp(std::uint32_t q, double tau, double t1,
                       Rng &rng) override;

    /** Exact expectation <psi| P |psi> (real part). */
    double expectation(const PauliString &p) const override;

    /** <other|this>. */
    Complex overlap(const Statevector &other) const;

    /** Squared norm (should stay 1 within roundoff). */
    double norm() const;

  private:
    std::size_t _numQubits;
    std::vector<Complex> _amps;
    std::vector<Complex> _phaseScratch; //!< lazily sized factor table

    /** A ZZ term resolved at its high qubit by applyPhases. */
    struct ZzAt
    {
        std::uint32_t slot; //!< bit of the combo index (its low qubit)
        Complex e0;         //!< even parity: e^{-i theta/2}
        Complex e1;         //!< odd parity: e^{+i theta/2}
    };
    std::vector<ZzAt> _zzScratch;
    std::vector<std::uint32_t> _lowScratch;
    std::vector<Complex> _comboScratch;

    void applyRzzUnit(std::uint32_t q0, std::uint32_t q1,
                      const Complex &odd);
    void renormalize();
};

} // namespace casq

#endif // CASQ_SIM_STATEVECTOR_HH
