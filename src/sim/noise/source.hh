/**
 * @file
 * The composable noise-source seam of the trajectory simulator.
 *
 * A NoiseSource is one physical error mechanism packaged behind the
 * hook surface TrajectoryRunner and CompiledVariant (sim/engine.cc)
 * drive.  The engine never special-cases mechanisms any more: it
 * builds the source list once per (NoiseModel, Backend) pair via
 * NoiseModel::buildSources() and delegates
 *
 *  - compile-time segment planning (deterministic Z/ZZ phases folded
 *    into the per-segment plans) to planSegment(),
 *  - per-trajectory sampling (charge-parity signs, quasi-static
 *    detunings, correlated fluctuator fields) to makeShot() /
 *    sampleShotQubit() / sampleShot(),
 *  - per-segment stochastic phases (dephasing jumps, drift walks) to
 *    segmentPhase(),
 *  - idle amplitude damping to flushIdle(),
 *  - post-gate and measurement errors to onGate() / onMeasurement(),
 *  - the stabilizer-eligibility walk to cliffordBlocker().
 *
 * Which timeline events a trajectory may share (the prefix
 * checkpoint) follows from the hooks alone: CompiledVariant's event
 * classification treats a physical gate as per-shot whenever any
 * source wants a gate hook or an idle flush.
 *
 * RNG-order contract (docs/noise.md): sources are composed in a
 * canonical order and every hook must draw from the trajectory Rng
 * only in its documented slot, because trajectory reproducibility --
 * across threads, shards and hosts -- is literally the draw sequence.
 * The rules every implementation must obey:
 *
 *  1. sampleShotQubit() runs QUBIT-MAJOR: for each qubit q, every
 *     source is visited in composition order before q+1.
 *  2. sampleShot() runs after the whole sampleShotQubit() sweep, in
 *     composition order.
 *  3. The engine never calls segmentPhase() with tau <= 0: a
 *     zero-duration segment applies only its compiled phases, so
 *     it stays shared by every trajectory.
 *  4. A hook that is configured off (zero rate) must not draw at
 *     all unless the legacy mechanism it ports drew there already.
 */

#ifndef CASQ_SIM_NOISE_SOURCE_HH
#define CASQ_SIM_NOISE_SOURCE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/backend.hh"
#include "sim/timeline.hh"

namespace casq {

class Backend;
struct Instruction;

/** One pluggable error mechanism of the trajectory simulator. */
class NoiseSource
{
  public:
    virtual ~NoiseSource() = default;

    /** Stable lower-case mechanism name (diagnostics, docs). */
    virtual const char *name() const = 0;

    // ---------------------------------------- compile-time planning

    /**
     * Append this source's deterministic Z/ZZ contributions for one
     * timeline segment to the compiled plan buffers.  Runs once per
     * compiled variant, never per trajectory, and must not depend on
     * any per-shot state.
     */
    virtual void
    planSegment(const Segment &seg, std::vector<QubitAngle> &det_z,
                std::vector<PairAngle> &det_zz) const
    {
        (void)seg;
        (void)det_z;
        (void)det_zz;
    }

    // ------------------------------------------- per-shot sampling

    /**
     * Opaque per-trajectory scratch state.  A source that samples
     * anything per shot returns its own subclass from makeShot() and
     * static_casts it back inside its hooks; the runner owns one
     * Shot per source per runner and hands it back on every call.
     */
    struct Shot
    {
        virtual ~Shot() = default;
    };

    /** Per-trajectory state, or nullptr when the source has none. */
    virtual std::unique_ptr<Shot>
    makeShot() const
    {
        return nullptr;
    }

    /** True when sampleShotQubit() participates in the qubit sweep. */
    virtual bool
    wantsShotQubitSampling() const
    {
        return false;
    }

    /**
     * Draw this source's per-shot state for qubit q.  Called at the
     * start of every trajectory, qubit-major across sources (RNG
     * rule 1 above).
     */
    virtual void
    sampleShotQubit(Shot *shot, std::uint32_t q, Rng &rng) const
    {
        (void)shot;
        (void)q;
        (void)rng;
    }

    /** True when sampleShot() participates after the qubit sweep. */
    virtual bool
    wantsShotSampling() const
    {
        return false;
    }

    /**
     * Whole-shot sampling hook, run after the qubit-major sweep
     * (RNG rule 2).  Correlated mechanisms that need all qubits at
     * once (shared fluctuator fields) sample here.
     */
    virtual void
    sampleShot(Shot *shot, Rng &rng) const
    {
        (void)shot;
        (void)rng;
    }

    // -------------------------------------- per-segment stochastics

    /** True when segmentPhase() must run for every segment qubit. */
    virtual bool
    wantsSegmentHook() const
    {
        return false;
    }

    /**
     * Stochastic Z phase this source contributes on qubit q over one
     * segment of duration `tau`, with the qubit's toggling-frame
     * sign already applied where physics says it should be (frame
     * flips refocus detunings but not dephasing jumps).  Only
     * called with tau > 0 (RNG rule 3).
     */
    virtual double
    segmentPhase(Shot *shot, std::uint32_t q, int frame_sign,
                 double tau, Rng &rng) const
    {
        (void)shot;
        (void)q;
        (void)frame_sign;
        (void)tau;
        (void)rng;
        return 0.0;
    }

    // ------------------------------------------------- idle damping

    /** True when accumulated idle time must flush through this source. */
    virtual bool
    wantsIdleFlush() const
    {
        return false;
    }

    /**
     * Apply this source's idle-time channel for `tau` nanoseconds of
     * accumulated idling on qubit q (the runner batches idle time
     * per qubit and flushes it right before the qubit's next
     * non-diagonal gate or measurement).
     */
    virtual void
    flushIdle(StateBackend &state, std::uint32_t q, double tau,
              Rng &rng) const
    {
        (void)state;
        (void)q;
        (void)tau;
        (void)rng;
    }

    // -------------------------------------------------- gate events

    /** True when onGate() must run after every physical gate. */
    virtual bool
    wantsGateHook() const
    {
        return false;
    }

    /** Post-gate error channel (runs after the ideal unitary). */
    virtual void
    onGate(StateBackend &state, const Instruction &inst,
           double duration, Rng &rng) const
    {
        (void)state;
        (void)inst;
        (void)duration;
        (void)rng;
    }

    // ------------------------------------------- measurement events

    /** True when onMeasurement() must filter measurement records. */
    virtual bool
    wantsMeasureHook() const
    {
        return false;
    }

    /** Classical filter on a measurement outcome; returns the record. */
    virtual int
    onMeasurement(std::uint32_t q, int outcome, Rng &rng) const
    {
        (void)q;
        (void)rng;
        return outcome;
    }

    // -------------------------------------------- eligibility walk

    /**
     * Why this source breaks Clifford (stabilizer-tableau)
     * eligibility on its device, or "" when every error it injects
     * is a Clifford operation.  The engine's eligibility walk asks
     * each source in composition order and reports the first
     * non-empty answer (docs/backends.md).
     */
    virtual std::string
    cliffordBlocker() const
    {
        return "";
    }
};

} // namespace casq

#endif // CASQ_SIM_NOISE_SOURCE_HH
