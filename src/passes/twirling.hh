/**
 * @file
 * Pauli twirling of two-qubit gate layers (paper Sec. III A,
 * Fig. 2).
 *
 * For every two-qubit gate a Pauli pair P is sampled from the gate's
 * valid twirl set (all 16 pairs for Clifford gates such as ECR/CX;
 * the commutant subset such as {II, XX, YY, ZZ} for Heisenberg
 * canonical blocks) and the conjugated Pauli Q = U P U^dagger is
 * inserted after the gate, leaving the logical circuit unchanged up
 * to a global sign.  Twirl gates are materialized as tagged
 * single-qubit Pauli layers so that the CA-EC pass can commute its
 * compensations through them exactly as in Algorithm 2.
 */

#ifndef CASQ_PASSES_TWIRLING_HH
#define CASQ_PASSES_TWIRLING_HH

#include <cstddef>
#include <map>
#include <shared_mutex>
#include <string>
#include <vector>

#include "circuit/stratify.hh"
#include "circuit/unitary.hh"
#include "common/rng.hh"
#include "pauli/clifford.hh"

namespace casq {

/**
 * Cache of numerically-built conjugation tables per gate kind.
 *
 * tableFor() is safe to call concurrently: parallel ensemble
 * compilation (PassManager::runEnsemble) shares one pipeline --
 * and therefore one cache -- across all worker threads.  Lookups
 * take a shared lock; the first miss per gate kind builds the
 * table under the exclusive lock.  Returned references stay valid
 * for the cache's lifetime (std::map nodes are stable).
 */
class TwirlTableCache
{
  public:
    /** Table for a two-qubit unitary instruction. */
    const Conjugation2Q &tableFor(const Instruction &inst);

  private:
    std::shared_mutex _mutex;
    std::map<std::string, Conjugation2Q> _tables;
};

/**
 * Produce one independently twirled instance of the layered
 * circuit: every TwoQubit layer gains a tagged Pauli layer before
 * and after.  The logical operation is unchanged (up to global
 * phase).
 */
LayeredCircuit pauliTwirl(const LayeredCircuit &circuit, Rng &rng,
                          TwirlTableCache &cache);

/** Convenience overload with a private table cache. */
LayeredCircuit pauliTwirl(const LayeredCircuit &circuit, Rng &rng);

/**
 * Sample one Pauli frame per two-qubit gate of `insts` (non-2q
 * instructions are skipped) and append the non-identity frame gates:
 * the sampled Pauli P before the gate, its conjugation Q = U P
 * U^dagger after.  This is THE frame sampler -- pauliTwirl() and the
 * late-twirl pass both call it, which is what makes their rng
 * consumption (and therefore their sampled frames at a given seed)
 * identical by construction.
 */
void sampleTwirlFrames(const std::vector<Instruction> &insts,
                       Rng &rng, TwirlTableCache &cache,
                       std::vector<Instruction> &pre,
                       std::vector<Instruction> &post);

/**
 * Deterministic twirl blueprint of a layered circuit: for every
 * TwoQubit layer, its index and the two-qubit gates pauliTwirl()
 * would sample frames for, in sampling order.
 *
 * The blueprint is captured before lowering (by the twirl-plan
 * analysis pass) and consumed by the late-twirl pass after
 * flatten/transpile, where the original gate identities -- needed to
 * key the conjugation tables -- are no longer recoverable from the
 * lowered instructions (a canonical block, for example, transpiles
 * into a multi-gate fragment).
 */
struct TwirlPlan
{
    struct LayerGates
    {
        std::size_t layer = 0;          //!< index into layers()
        std::vector<Instruction> gates; //!< 2q gates, sampling order
    };

    /** TwoQubit layers holding at least one two-qubit gate. */
    std::vector<LayerGates> targets;

    /**
     * Per layer, the full-width barriers inside it (see
     * innerBarrierCounts()); the size is the layer count at plan
     * time, i.e. the number of flat barrier segments.
     */
    std::vector<std::size_t> innerBarriers;

    /** Total gates across targets (for diagnostics/tests). */
    std::size_t gateCount() const;
};

/** Capture the twirl blueprint of a layered circuit. */
TwirlPlan makeTwirlPlan(const LayeredCircuit &circuit);

/**
 * The frames lateTwirl() sampled, recorded *before* native
 * lowering: for every plan target, the tagged Pauli instructions of
 * the pre and post frame layers (possibly empty -- identity frames
 * insert no gates).  The scheduled CA-EC walk consumes this to
 * rebuild the twirled pre-lowering layer sequence pauliTwirl()
 * would have produced, because after transpilation the
 * frame gates are no longer recoverable from the lowered stream
 * (Y lowers to an untagged rz + x fragment, for example).
 */
struct TwirlFrames
{
    struct LayerFrames
    {
        std::size_t layer = 0;          //!< plan target layer index
        std::vector<Instruction> pre;   //!< frames before the layer
        std::vector<Instruction> post;  //!< frames after the layer
    };

    /** One record per plan target, in target order. */
    std::vector<LayerFrames> targets;
};

/**
 * True when `inst` is a barrier across all `num_qubits` qubits: the
 * only instruction barrierSegments() can split on, and so the kind
 * the plans count inside layers.  Partial barriers never split.
 */
bool isSegmentBarrier(const Instruction &inst,
                      std::size_t num_qubits);

/** Per layer, how many of its instructions are segment barriers. */
std::vector<std::size_t>
innerBarrierCounts(const LayeredCircuit &circuit);

/**
 * Split a flat circuit into the layer segments flatten() encoded:
 * segment s ends at the first full-width barrier after the
 * `inner_barriers[s]` ones that belong to the layer itself (those
 * stay in the segment, in place; the boundary barriers are
 * dropped).  Segments past the end of `inner_barriers` hold no
 * inner barrier.  Transpilation passes barriers through untouched,
 * so the split works on lowered streams too; both lateTwirl() and
 * the scheduled CA-EC walk recover layer boundaries this way.
 */
std::vector<std::vector<Instruction>>
barrierSegments(const Circuit &flat,
                const std::vector<std::size_t> &inner_barriers);

/**
 * Insert freshly sampled Pauli-twirl frames into a lowered circuit:
 * `flat` must be flatten() of the circuit the plan was captured
 * from, optionally transpiled to the native set (pass the same
 * options through `native` so the frame gates receive the identical
 * lowering).  Layer boundaries are recovered from the full barriers
 * flatten() emits; frame layers are spliced around each target
 * segment exactly where flatten() would have put them.
 *
 * Equivalence contract: at the same rng state this returns
 * byte-for-byte what flatten() (+ transpileToNative()) of
 * pauliTwirl()'s output produces -- same instructions, same order,
 * same barriers -- so scheduling it yields schedules byte-identical
 * to compileReference() (pipeline.hh).  `frames`, when given,
 * receives the number of non-identity frame gates before native
 * lowering (the kTwirlGatesKey convention); `frame_insts`, when
 * given, receives the sampled pre-lowering frame instructions per
 * target (for the scheduled CA-EC walk).
 */
Circuit lateTwirl(const Circuit &flat, const TwirlPlan &plan,
                  Rng &rng, TwirlTableCache &cache,
                  const TranspileOptions *native = nullptr,
                  std::size_t *frames = nullptr,
                  TwirlFrames *frame_insts = nullptr);

} // namespace casq

#endif // CASQ_PASSES_TWIRLING_HH
