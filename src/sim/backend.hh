/**
 * @file
 * The pluggable simulation-backend seam: every trajectory of the
 * SimulationEngine drives its quantum state through the abstract
 * StateBackend kernel surface (generic 1q/2q gates, the fused
 * diagonal-phase kernel, Pauli injection, measurement, amplitude
 * damping, Pauli expectation values).  Statevector
 * (sim/statevector.hh) is the exact dense substrate;
 * StabilizerBackend (sim/stabilizer.hh) is the CHP-style tableau
 * fast path for Clifford-only trajectories.
 *
 * The engine resolves SimBackendKind::Auto per compiled variant: a
 * variant whose every instruction, noise phase and sampled error is
 * Clifford routes to the tableau, everything else falls back to the
 * dense path bit-identically.  docs/backends.md documents the
 * contract, the eligibility rules and the determinism statement.
 */

#ifndef CASQ_SIM_BACKEND_HH
#define CASQ_SIM_BACKEND_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/matrix.hh"
#include "common/rng.hh"
#include "pauli/pauli.hh"

namespace casq {

/**
 * e^{+i theta/2}, the bit-1 factor of Rz(theta) and the odd-parity
 * factor of Rzz(theta).  Defined out of line so every caller gets
 * the same runtime cos/sin bits (a constant argument is never
 * folded at compile time).
 */
Complex unitPhase(double theta);

/**
 * Per-qubit Z-rotation angle entry for the fused phase kernel.  The
 * unit factor is computed once, when the entry is built, so the
 * kernel itself does no trig.
 */
struct QubitAngle
{
    QubitAngle(std::uint32_t q, double th)
        : qubit(q), theta(th), unit(unitPhase(th))
    {
    }

    std::uint32_t qubit;
    double theta; //!< Rz(theta) = exp(-i theta Z / 2)
    Complex unit; //!< unitPhase(theta)
};

/** Per-pair ZZ-rotation angle entry for the fused phase kernel. */
struct PairAngle
{
    PairAngle(std::uint32_t a, std::uint32_t b, double th)
        : q0(a), q1(b), theta(th), unit(unitPhase(th))
    {
    }

    std::uint32_t q0;
    std::uint32_t q1;
    double theta; //!< Rzz(theta) = exp(-i theta ZZ / 2)
    Complex unit; //!< unitPhase(theta)
};

/** Which simulation substrate executes a trajectory. */
enum class SimBackendKind : std::uint8_t
{
    Auto = 0,       //!< per-variant: tableau when Clifford, else dense
    Dense = 1,      //!< exact statevector (O(2^n) per trajectory)
    Stabilizer = 2, //!< CHP Pauli tableau (O(n^2) per Clifford gate)
};

/** Lower-case name of a backend kind ("auto", "dense", ...). */
const char *simBackendKindName(SimBackendKind kind);

/** Parse a backend-kind name; nullopt when unrecognized. */
std::optional<SimBackendKind>
simBackendKindFromName(const std::string &name);

/**
 * Abstract per-trajectory quantum state.
 *
 * The interface is exactly the kernel surface TrajectoryRunner
 * (sim/engine.cc) needs; angles handed to applyRz/applyPhases follow
 * the Statevector convention Rz(theta) = exp(-i theta Z / 2).  An
 * implementation that cannot represent an operation (e.g. a
 * non-Clifford gate on the tableau) must fail loudly rather than
 * approximate -- routing is the engine's job, not the backend's.
 *
 * measure() is deliberately non-virtual: every backend consumes the
 * trajectory RNG stream through the identical
 * probabilityOne -> uniform -> collapse sequence, which is what
 * keeps dense and stabilizer trajectories of the same seed on the
 * same random branch (see docs/backends.md, "Determinism").
 */
class StateBackend
{
  public:
    virtual ~StateBackend() = default;

    virtual SimBackendKind kind() const = 0;
    virtual std::size_t numQubits() const = 0;

    /** Reset to |0...0>. */
    virtual void reset() = 0;

    /**
     * Copy the quantum state of `src`, which must be the same kind
     * and width (no reallocation on the dense path).  This is the
     * trajectory fork primitive behind the prefix-state checkpoint
     * (docs/simulator.md, "Trajectory prefix checkpoint").
     */
    virtual void assign(const StateBackend &src) = 0;

    /** Apply a 2x2 unitary to qubit q. */
    virtual void applyGate1q(const CMat &u, std::uint32_t q) = 0;

    /** Apply a 4x4 unitary to (q0 = less significant, q1). */
    virtual void applyGate2q(const CMat &u, std::uint32_t q0,
                             std::uint32_t q1) = 0;

    /** Rz(theta) on q (diagonal fast path). */
    virtual void applyRz(std::uint32_t q, double theta) = 0;

    /** Fused diagonal kernel: all Rz and Rzz angles of one segment. */
    virtual void
    applyPhases(const std::vector<QubitAngle> &z_angles,
                const std::vector<PairAngle> &zz_angles) = 0;

    /** Apply a single-qubit Pauli by enum. */
    virtual void applyPauliOp(PauliOp op, std::uint32_t q) = 0;

    /** Probability that qubit q reads 1. */
    virtual double probabilityOne(std::uint32_t q) const = 0;

    /** Project qubit q onto `outcome` and renormalize. */
    virtual void collapse(std::uint32_t q, int outcome) = 0;

    /** Amplitude-damping jump channel (tau idling, T1 relaxation). */
    virtual void amplitudeDamp(std::uint32_t q, double tau,
                               double t1, Rng &rng) = 0;

    /** Expectation <psi| P |psi> (real part). */
    virtual double expectation(const PauliString &p) const = 0;

    /**
     * Projective measurement with collapse; returns the outcome.
     * Shared across backends so all of them draw the RNG stream
     * identically (one uniform per measurement).
     */
    int measure(std::uint32_t q, Rng &rng);
};

/**
 * Construct a concrete backend (kind must be Dense or Stabilizer --
 * Auto is a routing policy, not a substrate).
 */
std::unique_ptr<StateBackend>
makeStateBackend(SimBackendKind kind, std::size_t num_qubits);

} // namespace casq

#endif // CASQ_SIM_BACKEND_HH
