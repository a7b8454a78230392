#include "sim/engine.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>
#include <utility>

#include "circuit/unitary.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "pauli/clifford.hh"
#include "sim/backend.hh"
#include "sim/noise/source.hh"
#include "sim/stabilizer.hh"
#include "sim/timeline.hh"

namespace casq {

namespace detail {

/** The composed source list the engine drives (owner: the engine). */
using NoiseSources = std::vector<std::unique_ptr<NoiseSource>>;

/** Stochastic per-qubit hook of a segment. */
struct StochasticQubit
{
    std::uint32_t qubit;
    std::int8_t sign;
    double tau;
};

/**
 * Precomputed noise plan of one timeline segment.  Its Z/ZZ entries
 * carry their unit phase factors, computed once when the variant is
 * built, so replaying the plan does no trig.
 */
struct SegmentPlan
{
    std::vector<QubitAngle> detZ;
    std::vector<PairAngle> detZz;
    std::vector<StochasticQubit> stoch;
};

/**
 * What one timeline event does in a trajectory.  classifyEvents()
 * decides it once per variant; the trajectory loop, the prefix
 * length and the prefix checkpoint all read the stored class.  The
 * first four classes are shared: they draw nothing and read no
 * per-shot state, so every trajectory runs them identically.
 */
enum class EventClass : std::uint8_t
{
    PhaseSegment, //!< segment without stochastic hooks, or tau == 0
    Identity,     //!< Op::I
    VirtualGate,  //!< virtual diagonal gate: no T1 flush, no hooks
    FreeGate,     //!< physical gate, no gate or idle hooks installed
    DrawSegment,  //!< segment with stochastic hooks and tau > 0
    HookedGate,   //!< physical gate the runner flushes or hooks
    Measure,
    Reset,
    Conditional,  //!< clbit-gated instruction, never shared
};

/** True for the classes every trajectory runs identically. */
constexpr bool
isShared(EventClass cls)
{
    return cls == EventClass::PhaseSegment ||
           cls == EventClass::Identity ||
           cls == EventClass::VirtualGate ||
           cls == EventClass::FreeGate;
}

/** One timeline event as the trajectory loop executes it. */
struct EventStep
{
    EventClass cls;
    EventClass body;   //!< Conditional: the class its instruction runs
    std::int32_t index; //!< into plans/segments or instructions
};

/** A variant's state after its shared prefix: the fork point. */
struct PrefixCheckpoint
{
    std::unique_ptr<StateBackend> state;
    std::vector<double> pendingT1; //!< idle clocks the prefix accrued
};

/** A variant compiled for repeated trajectory execution. */
struct CompiledVariant
{
    Timeline timeline;
    std::vector<SegmentPlan> plans;
    std::vector<CMat> unitaries; //!< per scheduled instruction
    std::vector<EventStep> steps; //!< per timeline event, in order
    std::uint64_t fingerprint = 0;

    /**
     * True when every instruction unitary, every compiled noise
     * phase and every sampled error of this variant is Clifford, so
     * SimBackendKind::Auto may route its trajectories to the
     * stabilizer tableau.  When false, stabilizerBlocker names the
     * first offender (docs/backends.md lists the rules).
     */
    bool stabilizerEligible = true;
    std::string stabilizerBlocker;

    /**
     * Length of the leading run of shared steps.  Trajectories may
     * fork from a checkpoint evolved through these events once
     * (docs/simulator.md, "Trajectory prefix-state reuse"); 0 means
     * replay from |0...0>.
     */
    std::size_t prefixEvents = 0;

    CompiledVariant(const ScheduledCircuit &circuit,
                    const NoiseSources &sources);

    /**
     * The prefix checkpoint for `kind` (Dense or Stabilizer), built
     * lazily on first use so e.g. a >24-qubit Clifford ensemble
     * never allocates a dense 2^n checkpoint.  The first caller's
     * `evolve(checkpoint)` advances a fresh |0...0> state and zeroed
     * idle clocks through the first prefixEvents steps.  Thread-safe;
     * valid only when prefixEvents > 0.
     */
    template <typename Evolve>
    const PrefixCheckpoint &
    prefixCheckpoint(SimBackendKind kind, const Evolve &evolve) const
    {
        casq_assert(kind != SimBackendKind::Auto,
                    "prefix checkpoint needs a concrete backend kind");
        const bool dense = kind == SimBackendKind::Dense;
        PrefixCheckpoint &slot = dense ? _prefixDense : _prefixStab;
        std::call_once(dense ? _prefixDenseOnce : _prefixStabOnce,
                       [&] {
                           const std::size_t n =
                               timeline.circuit().numQubits();
                           PrefixCheckpoint fresh{
                               makeStateBackend(kind, n),
                               std::vector<double>(n, 0.0)};
                           evolve(fresh);
                           slot = std::move(fresh);
                       });
        return slot;
    }

  private:
    mutable std::once_flag _prefixDenseOnce;
    mutable PrefixCheckpoint _prefixDense;
    mutable std::once_flag _prefixStabOnce;
    mutable PrefixCheckpoint _prefixStab;

    void analyzeStabilizerEligibility(const NoiseSources &sources);
    void classifyEvents(const NoiseSources &sources);
};

CompiledVariant::CompiledVariant(const ScheduledCircuit &circuit,
                                 const NoiseSources &sources)
    : timeline(circuit)
{
    const auto &insts = timeline.circuit().instructions();
    unitaries.resize(insts.size());
    for (std::size_t i = 0; i < insts.size(); ++i) {
        if (opIsUnitary(insts[i].inst.op) &&
            insts[i].inst.op != Op::I) {
            unitaries[i] = instructionUnitary(insts[i].inst);
        }
    }

    // Does any composed source inject per-segment stochastic
    // phases?  If so every qubit of every segment gets a hook (the
    // sources themselves decide per qubit what to contribute).
    bool any_segment_hook = false;
    for (const auto &source : sources)
        any_segment_hook |= source->wantsSegmentHook();

    plans.resize(timeline.segments().size());
    for (std::size_t s = 0; s < plans.size(); ++s) {
        const Segment &seg = timeline.segments()[s];
        SegmentPlan &plan = plans[s];
        const double tau = seg.duration();

        // Deterministic Z/ZZ contributions, composed in the
        // canonical source order (docs/noise.md).
        for (const auto &source : sources)
            source->planSegment(seg, plan.detZ, plan.detZz);

        if (any_segment_hook) {
            for (std::uint32_t q = 0; q < seg.qubits.size(); ++q) {
                plan.stoch.push_back(StochasticQubit{
                    q, seg.qubits[q].frameSign, tau});
            }
        }

        // Merge duplicate per-qubit entries to shrink the hot loop.
        if (!plan.detZ.empty()) {
            std::vector<double> merged(seg.qubits.size(), 0.0);
            for (const auto &za : plan.detZ)
                merged[za.qubit] += za.theta;
            plan.detZ.clear();
            for (std::uint32_t q = 0; q < merged.size(); ++q)
                if (merged[q] != 0.0)
                    plan.detZ.push_back(QubitAngle{q, merged[q]});
        }
    }

    analyzeStabilizerEligibility(sources);
    classifyEvents(sources);
}

void
CompiledVariant::classifyEvents(const NoiseSources &sources)
{
    // The one place that maps an event to what it draws or reads
    // (docs/simulator.md has the table).  A physical gate is hooked
    // when any source runs a gate hook after it or flushes idle
    // time before it.  A zero-duration segment is shared even under
    // stochastic sources: the runner never calls segmentPhase there
    // (RNG rule 3 of sim/noise/source.hh).
    bool hooked_gates = false;
    for (const auto &source : sources)
        hooked_gates |= source->wantsGateHook() ||
                        source->wantsIdleFlush();
    const auto instructionClass = [&](const Instruction &inst) {
        switch (inst.op) {
          case Op::Measure:
            return EventClass::Measure;
          case Op::Reset:
            return EventClass::Reset;
          case Op::I:
            return EventClass::Identity;
          default:
            break;
        }
        if (opIsVirtual(inst.op))
            return EventClass::VirtualGate;
        return hooked_gates ? EventClass::HookedGate
                            : EventClass::FreeGate;
    };

    const auto &segments = timeline.segments();
    const auto &insts = timeline.circuit().instructions();
    steps.reserve(timeline.events().size());
    for (const TimelineEvent &event : timeline.events()) {
        if (event.kind == TimelineEvent::Kind::Segment) {
            const EventClass cls =
                !plans[event.index].stoch.empty() &&
                        segments[event.index].duration() > 0.0
                    ? EventClass::DrawSegment
                    : EventClass::PhaseSegment;
            steps.push_back(EventStep{cls, cls, event.index});
            continue;
        }
        const Instruction &inst = insts[event.index].inst;
        const EventClass body = instructionClass(inst);
        steps.push_back(EventStep{inst.isConditional()
                                      ? EventClass::Conditional
                                      : body,
                                  body, event.index});
    }
    while (prefixEvents < steps.size() &&
           isShared(steps[prefixEvents].cls))
        ++prefixEvents;
}

void
CompiledVariant::analyzeStabilizerEligibility(const NoiseSources &sources)
{
    const auto block = [this](std::string why) {
        stabilizerEligible = false;
        stabilizerBlocker = std::move(why);
    };

    // Stochastic noise channels first: on the standard model this
    // blocks immediately, so the per-instruction work below never
    // runs on the paper workloads.  The first source with an opinion
    // wins, in composition order.
    for (const auto &source : sources) {
        if (std::string why = source->cliffordBlocker();
            !why.empty()) {
            block(std::move(why));
            return;
        }
    }

    // Every compiled coherent phase must be a quarter turn.
    for (const SegmentPlan &plan : plans) {
        for (const QubitAngle &za : plan.detZ) {
            if (!StabilizerBackend::quarterTurns(za.theta)) {
                block(detail::format(
                    "coherent Z angle ", za.theta, " on qubit ",
                    za.qubit, " is not a multiple of pi/2"));
                return;
            }
        }
        for (const PairAngle &zz : plan.detZz) {
            if (!StabilizerBackend::quarterTurns(zz.theta)) {
                block(detail::format(
                    "coherent ZZ angle ", zz.theta, " on pair (",
                    zz.q0, ", ", zz.q1,
                    ") is not a multiple of pi/2"));
                return;
            }
        }
    }

    // Every instruction unitary must be Clifford; distinct
    // (op, params) combinations repeat heavily, so memoize the
    // numeric conjugation check by matrix bytes.
    std::unordered_map<std::string, bool> memo;
    const auto &insts = timeline.circuit().instructions();
    for (std::size_t i = 0; i < insts.size(); ++i) {
        const CMat &u = unitaries[i];
        if (u.rows() == 0)
            continue;
        std::string key(u.data().size() * sizeof(Complex), '\0');
        std::memcpy(key.data(), u.data().data(), key.size());
        auto [it, fresh] = memo.emplace(key, false);
        if (fresh) {
            it->second = u.rows() == 2
                             ? Conjugation1Q(u).isClifford()
                             : Conjugation2Q(u).isClifford();
        }
        if (!it->second) {
            block(detail::format(
                "non-Clifford gate ", opName(insts[i].inst.op),
                " at instruction ", i));
            return;
        }
    }
}

} // namespace detail

namespace {

using detail::CompiledVariant;
using detail::EventClass;
using detail::EventStep;
using detail::PrefixCheckpoint;
using detail::SegmentPlan;

// ------------------------------------------------ circuit identity

std::uint64_t
mixHash(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return h;
}

std::uint64_t
doubleBits(double d)
{
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

/** 64-bit identity fingerprint of a schedule (collisions are
 *  resolved by sameSchedule below, never trusted blindly). */
std::uint64_t
scheduleFingerprint(const ScheduledCircuit &circuit)
{
    std::uint64_t h = 0x243F6A8885A308D3ull;
    h = mixHash(h, circuit.numQubits());
    h = mixHash(h, circuit.numClbits());
    for (const TimedInstruction &timed : circuit.instructions()) {
        const Instruction &inst = timed.inst;
        h = mixHash(h, std::uint64_t(inst.op));
        for (std::uint32_t q : inst.qubits)
            h = mixHash(h, q);
        for (double p : inst.params)
            h = mixHash(h, doubleBits(p));
        h = mixHash(h, std::uint64_t(std::int64_t(inst.cbit)));
        h = mixHash(h, std::uint64_t(std::int64_t(inst.condBit)));
        h = mixHash(h,
                    std::uint64_t(std::int64_t(inst.condValue)));
        h = mixHash(h, std::uint64_t(inst.tag));
        h = mixHash(h, doubleBits(timed.start));
        h = mixHash(h, doubleBits(timed.duration));
    }
    return h;
}

bool
sameInstruction(const Instruction &a, const Instruction &b)
{
    return a.op == b.op && a.qubits == b.qubits &&
           a.params == b.params && a.cbit == b.cbit &&
           a.condBit == b.condBit && a.condValue == b.condValue &&
           a.tag == b.tag;
}

/** Exact schedule equality (the cache's real key). */
bool
sameSchedule(const ScheduledCircuit &a, const ScheduledCircuit &b)
{
    if (a.numQubits() != b.numQubits() ||
        a.numClbits() != b.numClbits() ||
        a.instructions().size() != b.instructions().size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.instructions().size(); ++i) {
        const TimedInstruction &ta = a.instructions()[i];
        const TimedInstruction &tb = b.instructions()[i];
        if (ta.start != tb.start || ta.duration != tb.duration ||
            !sameInstruction(ta.inst, tb.inst)) {
            return false;
        }
    }
    return true;
}

// ------------------------------------------------ backend routing

/**
 * The substrate a trajectory of `variant` runs on.  Auto prefers
 * the tableau exactly when the variant's whole execution is
 * Clifford; forcing Stabilizer on an ineligible variant is a user
 * error and exits with the blocker diagnostic.
 */
SimBackendKind
resolveTrajectoryBackend(SimBackendKind requested,
                         const CompiledVariant &variant)
{
    switch (requested) {
      case SimBackendKind::Auto:
        return variant.stabilizerEligible
                   ? SimBackendKind::Stabilizer
                   : SimBackendKind::Dense;
      case SimBackendKind::Stabilizer:
        if (!variant.stabilizerEligible) {
            casq_fatal(
                "circuit is not Clifford, so --backend stabilizer "
                "cannot simulate it (",
                variant.stabilizerBlocker,
                "); use --backend auto or dense");
        }
        return SimBackendKind::Stabilizer;
      case SimBackendKind::Dense:
        break;
    }
    return SimBackendKind::Dense;
}

// ------------------------------------------------ trajectory state

/** Apply a physical gate's unitary to its one or two qubits. */
void
applyUnitary(StateBackend &state, const Instruction &inst,
             const CMat &unitary)
{
    if (inst.qubits.size() == 1)
        state.applyGate1q(unitary, inst.qubits[0]);
    else
        state.applyGate2q(unitary, inst.qubits[0], inst.qubits[1]);
}

/**
 * Run one event of a shared class on `state`.  The step takes no
 * Rng and no shot, so it cannot draw or read per-shot state: the
 * prefix checkpoint is built from this step alone, and the
 * trajectory loop runs shared events through it too.  `idle_clock`
 * holds the per-qubit pending-T1 clocks when an idle-flush source
 * is composed, and is null otherwise.
 */
void
applyShared(const CompiledVariant &variant, EventClass cls,
            std::int32_t index, StateBackend &state,
            std::vector<double> *idle_clock)
{
    const auto &insts = variant.timeline.circuit().instructions();
    switch (cls) {
      case EventClass::PhaseSegment: {
        const SegmentPlan &plan = variant.plans[index];
        state.applyPhases(plan.detZ, plan.detZz);
        if (idle_clock) {
            const double tau =
                variant.timeline.segments()[index].duration();
            for (double &pending : *idle_clock)
                pending += tau;
        }
        return;
      }
      case EventClass::Identity:
        return;
      case EventClass::VirtualGate: {
        // Exact and free; no T1 flush needed (virtual diagonal
        // gates commute with the damping Kraus operators).
        const Instruction &inst = insts[index].inst;
        if (inst.op == Op::RZ)
            state.applyRz(inst.qubits[0], inst.params[0]);
        else
            state.applyGate1q(variant.unitaries[index],
                              inst.qubits[0]);
        return;
      }
      case EventClass::FreeGate:
        casq_assert(!idle_clock, "a physical gate classified free "
                                 "while idle time accrues");
        applyUnitary(state, insts[index].inst,
                     variant.unitaries[index]);
        return;
      default:
        casq_panic("event class ", int(cls),
                   " draws or reads per-shot state; the shared step "
                   "cannot run it");
    }
}

/** State of one trajectory run, reused across trajectories. */
class TrajectoryRunner
{
  public:
    TrajectoryRunner(const Backend &backend,
                     const detail::NoiseSources &sources,
                     std::size_t num_qubits, std::size_t num_clbits)
        : _backend(backend),
          _numQubits(num_qubits),
          _clbits(num_clbits, 0),
          _pendingT1(num_qubits, 0.0),
          _zBuffer()
    {
        // Partition the composed sources by the hooks they want,
        // preserving composition order inside each list (the RNG
        // draw-order contract of sim/noise/source.hh).  Shots are
        // owned here and reused across trajectories; each hook list
        // pairs the source with its shot so the hot loops never
        // search.
        for (const auto &owned : sources) {
            const NoiseSource *source = owned.get();
            NoiseSource::Shot *shot = nullptr;
            if (auto fresh = source->makeShot()) {
                shot = fresh.get();
                _shots.push_back(std::move(fresh));
            }
            if (source->wantsShotQubitSampling())
                _shotQubitHooks.push_back({source, shot});
            if (source->wantsShotSampling())
                _shotHooks.push_back({source, shot});
            if (source->wantsSegmentHook())
                _segmentHooks.push_back({source, shot});
            if (source->wantsIdleFlush())
                _idleHooks.push_back(source);
            if (source->wantsGateHook())
                _gateHooks.push_back(source);
            if (source->wantsMeasureHook())
                _measureHooks.push_back(source);
        }
    }

    /** Execute one trajectory; returns the substrate it ran on. */
    SimBackendKind
    run(const CompiledVariant &variant, Rng &rng,
        const std::vector<PauliString> &observables, double *out,
        SimBackendKind requested, PrefixStateMode prefix_mode)
    {
        const SimBackendKind kind =
            resolveTrajectoryBackend(requested, variant);
        _state = &stateFor(kind);

        // Fork from the variant's prefix checkpoint when allowed:
        // the checkpoint ran the prefix through the same shared step
        // this loop uses (evolvePrefix), and that step takes no Rng,
        // so skipping it leaves the trajectory's random stream and
        // idle clocks exactly where a full replay would have them.
        std::size_t first_event = 0;
        if (prefix_mode == PrefixStateMode::Auto &&
            variant.prefixEvents > 0) {
            const PrefixCheckpoint &fork = variant.prefixCheckpoint(
                kind, [&](PrefixCheckpoint &fresh) {
                    evolvePrefix(variant, fresh);
                });
            _state->assign(*fork.state);
            _pendingT1 = fork.pendingT1;
            first_event = variant.prefixEvents;
        } else {
            _state->reset();
            std::fill(_pendingT1.begin(), _pendingT1.end(), 0.0);
        }
        std::fill(_clbits.begin(), _clbits.end(), 0);
        sampleShotNoise(rng);
        for (std::size_t e = first_event; e < variant.steps.size();
             ++e)
            runStep(variant, variant.steps[e], rng);
        flushAllT1(rng);
        for (std::size_t k = 0; k < observables.size(); ++k)
            out[k] = _state->expectation(observables[k]);
        return kind;
    }

  private:
    /** A source paired with its per-shot state (null if stateless). */
    using SourceShot =
        std::pair<const NoiseSource *, NoiseSource::Shot *>;

    const Backend &_backend;
    std::size_t _numQubits;

    std::vector<std::unique_ptr<NoiseSource::Shot>> _shots;
    std::vector<SourceShot> _shotQubitHooks;
    std::vector<SourceShot> _shotHooks;
    std::vector<SourceShot> _segmentHooks;
    std::vector<const NoiseSource *> _idleHooks;
    std::vector<const NoiseSource *> _gateHooks;
    std::vector<const NoiseSource *> _measureHooks;

    /**
     * Both substrates, built lazily so a pure-Clifford ensemble
     * never allocates the 2^n dense state (which is what lets
     * 50-100+ qubit workloads through) and a dense ensemble never
     * pays for a tableau.
     */
    std::unique_ptr<StateBackend> _dense;
    std::unique_ptr<StateBackend> _tableau;
    StateBackend *_state = nullptr; //!< this trajectory's substrate

    std::vector<int> _clbits;
    std::vector<double> _pendingT1;
    std::vector<QubitAngle> _zBuffer;

    /** `clocks` when a source flushes idle time, else null. */
    std::vector<double> *
    idleClock(std::vector<double> &clocks) const
    {
        return _idleHooks.empty() ? nullptr : &clocks;
    }

    /**
     * Evolve a fresh checkpoint through the variant's prefix with
     * the shared step alone.  applyShared panics on any event that
     * is not shared, so a prefix that would draw or read per-shot
     * state fails here, deterministically.  The idle clocks it
     * accrues are the ones every fork starts from.
     */
    void
    evolvePrefix(const CompiledVariant &variant,
                 PrefixCheckpoint &fresh) const
    {
        for (std::size_t e = 0; e < variant.prefixEvents; ++e) {
            const EventStep &step = variant.steps[e];
            applyShared(variant, step.cls, step.index, *fresh.state,
                        idleClock(fresh.pendingT1));
        }
    }

    StateBackend &
    stateFor(SimBackendKind kind)
    {
        auto &slot = kind == SimBackendKind::Stabilizer ? _tableau
                                                        : _dense;
        if (!slot) {
            if (kind == SimBackendKind::Dense && _numQubits > 24) {
                casq_fatal(
                    _numQubits,
                    " qubits exceed the dense statevector limit "
                    "(24); a Clifford workload can run at this "
                    "size with --backend auto or stabilizer");
            }
            slot = makeStateBackend(kind, _numQubits);
        }
        return *slot;
    }

    void
    sampleShotNoise(Rng &rng)
    {
        // Qubit-major, mechanism-inner: sweep qubits once, letting
        // every per-qubit sampler draw for qubit q before moving to
        // q+1 (RNG rule 2 of sim/noise/source.hh).  Whole-shot
        // samplers run after the sweep, in composition order.
        for (std::uint32_t q = 0; q < _numQubits; ++q) {
            for (const auto &[source, shot] : _shotQubitHooks)
                source->sampleShotQubit(shot, q, rng);
        }
        for (const auto &[source, shot] : _shotHooks)
            source->sampleShot(shot, rng);
    }

    void
    drawSegment(const SegmentPlan &plan, const Segment &seg,
                Rng &rng)
    {
        // Convention: a Hamiltonian term (nu/2) Z acting for tau
        // gives the Rz angle theta = 2 pi nu tau, which is what
        // applyPhases consumes.  The per-source contributions sum
        // in composition order; sources that draw (the dephasing
        // jump) do so inside their segmentPhase, so the stream
        // stays per-qubit-ordered.  The copied deterministic entries
        // keep their unit factors; only the stochastic entries
        // appended here compute theirs.
        _zBuffer.assign(plan.detZ.begin(), plan.detZ.end());
        for (const auto &sq : plan.stoch) {
            double theta = 0.0;
            for (const auto &[source, shot] : _segmentHooks) {
                theta += source->segmentPhase(shot, sq.qubit,
                                              sq.sign, sq.tau, rng);
            }
            if (theta != 0.0)
                _zBuffer.push_back(QubitAngle{sq.qubit, theta});
        }
        _state->applyPhases(_zBuffer, plan.detZz);

        if (!_idleHooks.empty()) {
            for (std::uint32_t q = 0; q < _numQubits; ++q)
                _pendingT1[q] += seg.duration();
        }
    }

    void
    flushT1(std::uint32_t q, Rng &rng)
    {
        if (_idleHooks.empty() || _pendingT1[q] <= 0.0)
            return;
        for (const NoiseSource *source : _idleHooks)
            source->flushIdle(*_state, q, _pendingT1[q], rng);
        _pendingT1[q] = 0.0;
    }

    void
    flushAllT1(Rng &rng)
    {
        for (std::uint32_t q = 0; q < _numQubits; ++q)
            flushT1(q, rng);
    }

    /** Run one event of the trajectory as its stored class says. */
    void
    runStep(const CompiledVariant &variant, const EventStep &step,
            Rng &rng)
    {
        const auto &insts =
            variant.timeline.circuit().instructions();
        EventClass cls = step.cls;
        if (cls == EventClass::Conditional) {
            const Instruction &inst = insts[step.index].inst;
            if (_clbits[inst.condBit] != inst.condValue)
                return;
            cls = step.body;
        }
        switch (cls) {
          case EventClass::DrawSegment:
            drawSegment(variant.plans[step.index],
                        variant.timeline.segments()[step.index], rng);
            return;
          case EventClass::HookedGate: {
            const TimedInstruction &timed = insts[step.index];
            for (auto q : timed.inst.qubits)
                flushT1(q, rng);
            applyUnitary(*_state, timed.inst,
                         variant.unitaries[step.index]);
            for (const NoiseSource *source : _gateHooks)
                source->onGate(*_state, timed.inst, timed.duration,
                               rng);
            return;
          }
          case EventClass::Measure: {
            const Instruction &inst = insts[step.index].inst;
            const std::uint32_t q = inst.qubits[0];
            flushT1(q, rng);
            int outcome = _state->measure(q, rng);
            for (const NoiseSource *source : _measureHooks)
                outcome = source->onMeasurement(q, outcome, rng);
            _clbits[inst.cbit] = outcome;
            return;
          }
          case EventClass::Reset: {
            const std::uint32_t q = insts[step.index].inst.qubits[0];
            flushT1(q, rng);
            if (_state->measure(q, rng) == 1)
                _state->applyGate1q(gateUnitary(Op::X), q);
            return;
          }
          default:
            applyShared(variant, cls, step.index, *_state,
                        idleClock(_pendingT1));
        }
    }
};

// ------------------------------------------- fixed-order reduction

/** Pairwise (cascade) sum of transform(v[lo..hi)) in index order. */
template <typename Transform>
double
pairwiseSum(const double *v, std::size_t lo, std::size_t hi,
            const Transform &transform)
{
    if (hi - lo <= 8) {
        double sum = 0.0;
        for (std::size_t i = lo; i < hi; ++i)
            sum += transform(v[i]);
        return sum;
    }
    const std::size_t mid = lo + (hi - lo) / 2;
    return pairwiseSum(v, lo, mid, transform) +
           pairwiseSum(v, mid, hi, transform);
}

/** Trajectory-block boundaries: `blocks` near-equal ranges. */
std::vector<std::pair<int, int>>
splitRange(int total, int blocks)
{
    std::vector<std::pair<int, int>> ranges;
    blocks = std::max(1, std::min(blocks, total));
    const int base = total / blocks;
    const int extra = total % blocks;
    int begin = 0;
    for (int b = 0; b < blocks; ++b) {
        const int size = base + (b < extra ? 1 : 0);
        ranges.emplace_back(begin, begin + size);
        begin += size;
    }
    return ranges;
}

} // namespace

// ---------------------------------------------------------- engine

const char *
prefixStateModeName(PrefixStateMode mode)
{
    switch (mode) {
      case PrefixStateMode::Auto:
        return "auto";
      case PrefixStateMode::Off:
        return "off";
    }
    return "?";
}

std::optional<PrefixStateMode>
prefixStateModeFromName(const std::string &name)
{
    if (name == "auto")
        return PrefixStateMode::Auto;
    if (name == "off")
        return PrefixStateMode::Off;
    return std::nullopt;
}

SimulationEngine::SimulationEngine(const Backend &backend,
                                   const NoiseModel &noise)
    : _backend(backend),
      _noise(noise),
      _sources(noise.buildSources(backend))
{
}

SimulationEngine::~SimulationEngine() = default;

std::shared_ptr<const CompiledVariant>
SimulationEngine::compiledVariant(const ScheduledCircuit &circuit,
                                  bool use_cache)
{
    casq_assert(circuit.numQubits() == _backend.numQubits(),
                "circuit width ", circuit.numQubits(),
                " != backend width ", _backend.numQubits());
    const std::uint64_t print = scheduleFingerprint(circuit);
    if (use_cache) {
        std::lock_guard<std::mutex> lock(_cacheMutex);
        const auto it = _cache.find(print);
        if (it != _cache.end()) {
            for (const auto &entry : it->second) {
                if (sameSchedule(entry->timeline.circuit(),
                                 circuit)) {
                    ++_cacheHits;
                    return entry;
                }
            }
        }
    }
    auto variant =
        std::make_shared<CompiledVariant>(circuit, _sources);
    variant->fingerprint = print;
    if (use_cache) {
        std::lock_guard<std::mutex> lock(_cacheMutex);
        ++_cacheMisses;
        if (_cacheCount >= kMaxCachedVariants) {
            _cache.clear();
            _cacheCount = 0;
        }
        auto &bucket = _cache[print];
        // A racing worker may have compiled the same schedule; keep
        // the first entry so later hits share one plan.
        for (const auto &entry : bucket)
            if (sameSchedule(entry->timeline.circuit(), circuit))
                return entry;
        bucket.push_back(variant);
        ++_cacheCount;
    }
    return variant;
}

ThreadPool &
SimulationEngine::pool(unsigned threads)
{
    if (!_pool || _pool->threadCount() != threads)
        _pool = std::make_unique<ThreadPool>(threads);
    return *_pool;
}

RunResult
reduceTrajectorySlots(const std::vector<double> &slots,
                      std::size_t trajectories,
                      std::size_t observables)
{
    RunResult result;
    result.trajectories = int(trajectories);
    result.means.resize(observables);
    result.stderrs.resize(observables);
    const double n = double(trajectories);
    std::vector<double> column(trajectories);
    for (std::size_t k = 0; k < observables; ++k) {
        for (std::size_t t = 0; t < trajectories; ++t)
            column[t] = slots[t * observables + k];
        const double sum = pairwiseSum(
            column.data(), 0, trajectories,
            [](double v) { return v; });
        const double sumsq = pairwiseSum(
            column.data(), 0, trajectories,
            [](double v) { return v * v; });
        const double mean = sum / n;
        result.means[k] = mean;
        if (n > 1.5) {
            const double var = std::max(
                0.0, (sumsq - n * mean * mean) / (n - 1.0));
            result.stderrs[k] = std::sqrt(var / n);
        }
    }
    return result;
}

RunResult
SimulationEngine::run(const ScheduledCircuit &circuit,
                      const std::vector<PauliString> &observables,
                      const ExecutionOptions &opts)
{
    return run(std::vector<ScheduledCircuit>{circuit}, observables,
               opts);
}

RunResult
SimulationEngine::run(const std::vector<ScheduledCircuit> &variants,
                      const std::vector<PauliString> &observables,
                      const ExecutionOptions &opts)
{
    casq_assert(!variants.empty(), "no circuit variants to run");
    casq_assert(opts.trajectories > 0, "need at least 1 trajectory");

    std::vector<std::shared_ptr<const CompiledVariant>> compiled;
    compiled.reserve(variants.size());
    // Classical registers may differ across variants (a compiled
    // instance can add or drop measurements); one runner serves all
    // of them, so size its register file to the widest variant.
    std::size_t num_clbits = 0;
    for (const auto &v : variants) {
        num_clbits = std::max(num_clbits, v.numClbits());
        compiled.push_back(
            compiledVariant(v, opts.cacheVariants));
    }

    const Rng master(opts.seed);
    const std::size_t total = std::size_t(opts.trajectories);
    const std::size_t K = observables.size();
    std::vector<double> slots(total * K);

    // Resolve the routing up front: validates a forced stabilizer
    // request on the calling thread and yields the deterministic
    // per-kind trajectory counts (trajectory t's substrate is a
    // pure function of (opts.backend, variant t mod V)).
    int stab_traj = 0;
    std::uint64_t prefix_hits = 0;
    for (std::size_t t = 0; t < total; ++t) {
        const auto &variant = *compiled[t % compiled.size()];
        if (resolveTrajectoryBackend(opts.backend, variant) ==
            SimBackendKind::Stabilizer) {
            ++stab_traj;
        }
        if (opts.prefixState == PrefixStateMode::Auto &&
            variant.prefixEvents > 0) {
            ++prefix_hits;
        }
    }

    const auto simulateRange = [&](int t0, int t1) {
        TrajectoryRunner runner(_backend, _sources,
                                _backend.numQubits(), num_clbits);
        for (int t = t0; t < t1; ++t) {
            Rng rng = master.derive(std::uint64_t(t));
            const auto &variant = *compiled[t % compiled.size()];
            runner.run(variant, rng, observables,
                       slots.data() + std::size_t(t) * K,
                       opts.backend, opts.prefixState);
        }
    };

    const unsigned threads = std::min<std::size_t>(
        ThreadPool::resolveThreads(
            unsigned(std::max(0, opts.threads))),
        total);
    if (threads <= 1) {
        simulateRange(0, int(total));
    } else {
        // Oversplit so work stealing can fix stragglers (variants
        // of different depth cost different amounts per shot).
        ThreadPool &workers = pool(threads);
        for (const auto &[t0, t1] :
             splitRange(int(total), int(threads) * 4)) {
            workers.submit(
                [&simulateRange, t0 = t0, t1 = t1] {
                    simulateRange(t0, t1);
                });
        }
        workers.wait();
    }
    RunResult result = reduceTrajectorySlots(slots, total, K);
    result.stabilizerTrajectories = stab_traj;
    result.prefixStateHits = prefix_hits;
    return result;
}

RunResult
SimulationEngine::runEnsemble(
    const LayeredCircuit &logical, PassManager &pipeline,
    const std::vector<PauliString> &observables,
    const EnsembleRunOptions &opts)
{
    // The one-shard split owns every trajectory, ordinal = index.
    const ShardSlots whole =
        runShard(logical, pipeline, observables, opts, 0, 1);
    RunResult result =
        reduceTrajectorySlots(whole.slots, std::size_t(opts.trajectories),
                              observables.size());
    result.stabilizerTrajectories = int(whole.stabilizerTrajectories);
    result.prefixStateHits = whole.prefixStateHits;
    return result;
}

ShardSlots
SimulationEngine::runShard(
    const LayeredCircuit &logical, PassManager &pipeline,
    const std::vector<PauliString> &observables,
    const EnsembleRunOptions &opts, std::uint32_t shard_index,
    std::uint32_t shard_count)
{
    casq_assert(shard_count >= 1, "need at least one shard");
    casq_assert(shard_index < shard_count, "shard index ",
                shard_index, " out of range for ", shard_count,
                " shard(s)");
    casq_assert(opts.trajectories > 0, "need at least 1 trajectory");

    EnsembleOptions compile;
    compile.instances = opts.instances;
    compile.seed = opts.compileSeed;
    compile.prefixCache = opts.prefixCache;
    compile.threads = 1; // the pool below owns the workers
    const EnsemblePlan plan =
        pipeline.planEnsemble(logical, _backend, compile);

    const std::size_t V = std::size_t(plan.instanceCount());
    if (plan.prefixLength() > 0)
        debug("shard ", shard_index, "/", shard_count, ": ",
              plan.prefixLength(), " deterministic prefix "
              "pass(es) compiled once");
    const std::size_t total = std::size_t(opts.trajectories);
    const std::size_t K = observables.size();
    const std::size_t S = shard_count;
    const std::size_t k0 = shard_index;
    const Rng master(opts.seed);

    // This shard owns global trajectories t = k0, k0 + S, ...; the
    // j-th of them writes slot j.  Group the owned trajectories by
    // the instance they execute (t mod V) so each needed instance
    // compiles exactly once -- when S divides V this grouping visits
    // exactly the instances i = k0 (mod S).
    const std::size_t owned =
        total > k0 ? (total - k0 + S - 1) / S : 0;
    std::vector<std::vector<std::size_t>> ordinals_of(V);
    for (std::size_t j = 0; j < owned; ++j)
        ordinals_of[(k0 + j * S) % V].push_back(j);

    ShardSlots out;
    out.slots.assign(owned * K, 0.0);
    for (std::size_t i = 0; i < V; ++i)
        if (!ordinals_of[i].empty())
            out.instances.push_back(std::uint32_t(i));
    out.fingerprints.assign(out.instances.size(), 0);

    const auto simulateOrdinals =
        [&](const CompiledVariant &variant, std::size_t num_clbits,
            const std::vector<std::size_t> &ordinals,
            std::size_t o0, std::size_t o1) {
            TrajectoryRunner runner(_backend, _sources,
                                    _backend.numQubits(),
                                    num_clbits);
            for (std::size_t o = o0; o < o1; ++o) {
                const std::size_t j = ordinals[o];
                const std::size_t t = k0 + j * S;
                Rng rng = master.derive(std::uint64_t(t));
                runner.run(variant, rng, observables,
                           out.slots.data() + j * K, opts.backend,
                           opts.prefixState);
            }
        };
    // Routing counts, taken by the compile tasks (integer sums, so
    // the task order cannot change them).
    std::atomic<std::uint64_t> stabilizer_runs{0};
    std::atomic<std::uint64_t> prefix_runs{0};
    const auto compileAndRecord =
        [&](std::size_t n) -> std::pair<
            std::shared_ptr<const CompiledVariant>, std::size_t> {
        const std::size_t i = out.instances[n];
        CompilationResult instance = plan.compileInstance(i);
        const std::size_t num_clbits =
            instance.scheduled.numClbits();
        const auto variant = compiledVariant(instance.scheduled,
                                             opts.cacheVariants);
        out.fingerprints[n] = variant->fingerprint;
        const std::uint64_t runs = ordinals_of[i].size();
        if (resolveTrajectoryBackend(opts.backend, *variant) ==
            SimBackendKind::Stabilizer) {
            stabilizer_runs += runs;
        }
        if (opts.prefixState == PrefixStateMode::Auto &&
            variant->prefixEvents > 0) {
            prefix_runs += runs;
        }
        return {variant, num_clbits};
    };
    const unsigned threads = ThreadPool::resolveThreads(
        unsigned(std::max(0, opts.threads)));
    if (threads <= 1) {
        for (std::size_t n = 0; n < out.instances.size(); ++n) {
            const auto [variant, num_clbits] = compileAndRecord(n);
            const auto &ordinals = ordinals_of[out.instances[n]];
            simulateOrdinals(*variant, num_clbits, ordinals, 0,
                             ordinals.size());
        }
    } else {
        // One pool drives both stages: each compile task streams its
        // freshly compiled variant into simulation sub-tasks on the
        // same pool (submitting from a worker is safe -- the pending
        // count can only reach zero after every nested submit).
        ThreadPool &workers = pool(threads);
        const int subtasks = std::max(
            1, int(threads) * 2 /
                   std::max<int>(1, int(out.instances.size())));
        for (std::size_t n = 0; n < out.instances.size(); ++n) {
            workers.submit([&, n] {
                const auto compiled = compileAndRecord(n);
                const auto variant = compiled.first;
                const std::size_t num_clbits = compiled.second;
                // Outlives this task (ordinals_of is alive until the
                // wait() below), so sub-tasks take a stable pointer.
                const std::vector<std::size_t> *ordinals =
                    &ordinals_of[out.instances[n]];
                for (const auto &[o0, o1] :
                     splitRange(int(ordinals->size()), subtasks)) {
                    workers.submit([&, variant, num_clbits, ordinals,
                                    o0 = o0, o1 = o1] {
                        simulateOrdinals(*variant, num_clbits,
                                         *ordinals, std::size_t(o0),
                                         std::size_t(o1));
                    });
                }
            });
        }
        workers.wait();
    }
    out.stabilizerTrajectories = stabilizer_runs;
    out.prefixStateHits = prefix_runs;
    return out;
}

std::size_t
SimulationEngine::variantCacheSize() const
{
    std::lock_guard<std::mutex> lock(_cacheMutex);
    return _cacheCount;
}

std::size_t
SimulationEngine::variantCacheHits() const
{
    std::lock_guard<std::mutex> lock(_cacheMutex);
    return _cacheHits;
}

std::size_t
SimulationEngine::variantCacheMisses() const
{
    std::lock_guard<std::mutex> lock(_cacheMutex);
    return _cacheMisses;
}

void
SimulationEngine::clearVariantCache()
{
    std::lock_guard<std::mutex> lock(_cacheMutex);
    _cache.clear();
    _cacheCount = 0;
}

} // namespace casq
