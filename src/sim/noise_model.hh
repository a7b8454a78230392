/**
 * @file
 * Noise-model configuration: which physical error mechanisms the
 * trajectory simulator injects.  Rates and times come from the
 * Backend calibration tables; this struct toggles and scales the
 * built-in mechanisms, lists extra (parameterized) sources, and acts
 * as the factory for the composable NoiseSource list the engine
 * actually drives (sim/noise/source.hh, docs/noise.md).
 */

#ifndef CASQ_SIM_NOISE_MODEL_HH
#define CASQ_SIM_NOISE_MODEL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace casq {

class Backend;
class ByteReader;
class ByteWriter;
class NoiseSource;

/**
 * Extra noise mechanisms beyond the paper's built-in nine.  Each
 * kind interprets the two generic parameters its own way; the wire
 * format (docs/noise.md) carries kind + params verbatim.
 */
enum class ExtraNoiseKind : std::uint8_t
{
    /**
     * Spatially correlated quasi-static dephasing
     * (CorrelatedDephasingSource): param0 = per-qubit sigma in MHz,
     * param1 = correlation length in coupling-graph edges.
     */
    CorrelatedDephasing = 0,

    /**
     * Slow intra-circuit random-walk detuning (PhaseDriftSource):
     * param0 = walk rate in MHz per sqrt(ns); param1 unused (0).
     */
    PhaseDrift = 1,
};

/** One configured extra source. */
struct ExtraNoiseSpec
{
    ExtraNoiseKind kind = ExtraNoiseKind::CorrelatedDephasing;
    double param0 = 0.0;
    double param1 = 0.0;

    bool operator==(const ExtraNoiseSpec &) const = default;
};

/** Switches and scales for the simulated error mechanisms. */
struct NoiseModel
{
    /** Always-on ZZ (paper Eq. 1) with toggling-frame refocusing. */
    bool coherentZz = true;

    /** AC Stark shift on spectators of driven qubits (Fig. 4a). */
    bool starkShift = true;

    /**
     * Readout-induced Stark shift on neighbours of a qubit while
     * it is measured (dominant in the Fig. 9 dynamic circuits).
     */
    bool measurementStark = true;

    /** Charge-parity +-delta Z with per-shot sign (Fig. 4b). */
    bool chargeParity = true;

    /**
     * Quasi-static per-shot Gaussian detuning: the slow component
     * of dephasing that DD refocuses but EC cannot predict.
     */
    bool quasiStatic = true;

    /** Markovian dephasing (T2-style Z jumps, not refocusable). */
    bool whiteDephasing = true;

    /** T1 relaxation (amplitude-damping jumps). */
    bool amplitudeDamping = true;

    /** Depolarizing error after every physical gate. */
    bool gateDepolarizing = true;

    /** Assignment errors on mid-circuit measurement records. */
    bool readoutError = true;

    /** Multiplier on all coherent crosstalk rates. */
    double coherentScale = 1.0;

    /** Extra composable sources, applied after the built-ins. */
    std::vector<ExtraNoiseSpec> extras;

    bool operator==(const NoiseModel &) const = default;

    /** Everything off: the ideal simulator. */
    static NoiseModel ideal();

    /** Only coherent mechanisms (ZZ + Stark). */
    static NoiseModel coherentOnly();

    /** All built-in mechanisms on (the default). */
    static NoiseModel standard();

    /**
     * Only the Clifford-compatible mechanisms: T2 dephasing jumps
     * (Rz(pi) = Z flips), gate depolarizing (sampled Paulis) and
     * readout flips (classical).  Twirled circuits stay Clifford
     * under this model, so the stabilizer backend simulates them
     * exactly at 50-100+ qubits (docs/backends.md).
     */
    static NoiseModel pauliOnly();

    /**
     * Instantiate the composable source list this configuration
     * describes, in the canonical composition order (docs/noise.md):
     * the enabled built-ins in declaration order, then the extras in
     * list order.  The sources borrow `backend`; the engine builds
     * them once per (model, backend) pair and drives every
     * trajectory through them.
     */
    std::vector<std::unique_ptr<NoiseSource>>
    buildSources(const Backend &backend) const;

    /**
     * Why the *sampled* mechanisms of this model break Clifford
     * eligibility on the given device, or "" when they do not: the
     * first non-empty NoiseSource::cliffordBlocker() in composition
     * order.  The deterministic coherent phases land in the compiled
     * segment plans and are classified per variant by the engine.
     */
    std::string cliffordBlocker(const Backend &backend) const;
};

/**
 * Append the model as the canonical wire block (docs/noise.md:
 * u32 mechanism flags, f64 coherentScale, u32 extra count, then
 * {u8 kind, f64 param0, f64 param1} per extra).  Embedded in shard
 * specs (since format v4) and therefore in service job payloads.
 */
void encodeNoiseModel(ByteWriter &w, const NoiseModel &model);

/**
 * Parse and validate a wire block written by encodeNoiseModel:
 * unknown flag bits, unknown extra kinds, and non-finite or negative
 * scales/parameters all throw SerializeError.
 */
NoiseModel decodeNoiseModel(ByteReader &r);

/**
 * Parse a noise recipe string into a model.  Grammar:
 *
 *   recipe  := base [":" scale] extra*
 *   base    := "standard" | "pauli" | "ideal" | "coherent"
 *   extra   := "+corr" [":" sigmaMHz [":" length]]
 *            | "+drift" [":" rateMHz]
 *
 * e.g. "standard", "standard:0.5", "ideal+corr:0.02:2",
 * "standard+corr+drift:0.002".  Defaults: corr sigma 0.02 MHz with
 * correlation length 2 edges; drift rate 0.001 MHz/sqrt(ns).
 * Throws SerializeError on anything unrecognized.
 */
NoiseModel noiseModelFromRecipe(const std::string &recipe);

/**
 * Render a model as a recipe string.  Inverse of
 * noiseModelFromRecipe for every model that function can produce;
 * models with toggle combinations no base name matches render as
 * "custom" (display only -- the wire block above, not the recipe
 * string, is the canonical transport).
 */
std::string noiseModelRecipe(const NoiseModel &model);

} // namespace casq

#endif // CASQ_SIM_NOISE_MODEL_HH
