#include "passes/twirling.hh"

#include <cmath>
#include <mutex>
#include <sstream>

#include "circuit/unitary.hh"
#include "common/logging.hh"

namespace casq {

namespace {

std::string
gateKey(const Instruction &inst)
{
    std::ostringstream os;
    os << opName(inst.op);
    for (double p : inst.params)
        os << "," << std::llround(p * 1e9);
    return os.str();
}

Instruction
pauliInstruction(PauliOp op, std::uint32_t q)
{
    static const Op ops[] = {Op::I, Op::X, Op::Y, Op::Z};
    Instruction inst(ops[int(op)], {q});
    inst.tag = InstTag::Twirl;
    return inst;
}

} // namespace

const Conjugation2Q &
TwirlTableCache::tableFor(const Instruction &inst)
{
    casq_assert(opIsTwoQubitGate(inst.op),
                "twirl table for non-2q gate ", opName(inst.op));
    const std::string key = gateKey(inst);
    {
        std::shared_lock<std::shared_mutex> lock(_mutex);
        const auto it = _tables.find(key);
        if (it != _tables.end())
            return it->second;
    }
    // Build outside any lock (the table construction is the
    // expensive part), then let the first inserter win.
    Conjugation2Q table(instructionUnitary(inst));
    std::unique_lock<std::shared_mutex> lock(_mutex);
    return _tables.emplace(key, std::move(table)).first->second;
}

void
sampleTwirlFrames(const std::vector<Instruction> &insts, Rng &rng,
                  TwirlTableCache &cache,
                  std::vector<Instruction> &pre,
                  std::vector<Instruction> &post)
{
    for (const Instruction &inst : insts) {
        if (!opIsTwoQubitGate(inst.op))
            continue;
        const Conjugation2Q &table = cache.tableFor(inst);
        const auto &twirl_set = table.twirlSet();
        casq_assert(!twirl_set.empty(), "empty twirl set");
        const Pauli2 p =
            twirl_set[rng.uniformInt(twirl_set.size())];
        const auto image = table.conjugate(p);
        casq_assert(image.has_value(),
                    "twirl Pauli without conjugation image");
        if (p.op0 != PauliOp::I)
            pre.push_back(
                pauliInstruction(p.op0, inst.qubits[0]));
        if (p.op1 != PauliOp::I)
            pre.push_back(
                pauliInstruction(p.op1, inst.qubits[1]));
        if (image->pauli.op0 != PauliOp::I)
            post.push_back(
                pauliInstruction(image->pauli.op0,
                                 inst.qubits[0]));
        if (image->pauli.op1 != PauliOp::I)
            post.push_back(
                pauliInstruction(image->pauli.op1,
                                 inst.qubits[1]));
    }
}

LayeredCircuit
pauliTwirl(const LayeredCircuit &circuit, Rng &rng,
           TwirlTableCache &cache)
{
    LayeredCircuit out(circuit.numQubits(), circuit.numClbits());
    for (const Layer &layer : circuit.layers()) {
        if (layer.kind != LayerKind::TwoQubit) {
            out.addLayer(layer);
            continue;
        }
        Layer pre{LayerKind::OneQubit, {}};
        Layer post{LayerKind::OneQubit, {}};
        sampleTwirlFrames(layer.insts, rng, cache, pre.insts,
                          post.insts);
        if (!pre.insts.empty())
            out.addLayer(std::move(pre));
        out.addLayer(layer);
        if (!post.insts.empty())
            out.addLayer(std::move(post));
    }
    return out;
}

LayeredCircuit
pauliTwirl(const LayeredCircuit &circuit, Rng &rng)
{
    TwirlTableCache cache;
    return pauliTwirl(circuit, rng, cache);
}

std::size_t
TwirlPlan::gateCount() const
{
    std::size_t n = 0;
    for (const LayerGates &target : targets)
        n += target.gates.size();
    return n;
}

TwirlPlan
makeTwirlPlan(const LayeredCircuit &circuit)
{
    TwirlPlan plan;
    plan.innerBarriers = innerBarrierCounts(circuit);
    for (std::size_t li = 0; li < circuit.layers().size(); ++li) {
        const Layer &layer = circuit.layers()[li];
        if (layer.kind != LayerKind::TwoQubit)
            continue;
        TwirlPlan::LayerGates target;
        target.layer = li;
        for (const Instruction &inst : layer.insts)
            if (opIsTwoQubitGate(inst.op))
                target.gates.push_back(inst);
        if (!target.gates.empty())
            plan.targets.push_back(std::move(target));
    }
    return plan;
}

bool
isSegmentBarrier(const Instruction &inst, std::size_t num_qubits)
{
    return inst.op == Op::Barrier && inst.qubits.size() == num_qubits;
}

std::vector<std::size_t>
innerBarrierCounts(const LayeredCircuit &circuit)
{
    std::vector<std::size_t> counts;
    counts.reserve(circuit.layers().size());
    for (const Layer &layer : circuit.layers()) {
        std::size_t count = 0;
        for (const Instruction &inst : layer.insts)
            count += isSegmentBarrier(inst, circuit.numQubits());
        counts.push_back(count);
    }
    return counts;
}

std::vector<std::vector<Instruction>>
barrierSegments(const Circuit &flat,
                const std::vector<std::size_t> &inner_barriers)
{
    // flatten() emits exactly one all-qubit barrier after each
    // layer but the last, and transpilation passes barriers through
    // untouched; a layer's own full-width barriers come before the
    // one that closes it.
    std::vector<std::vector<Instruction>> segments(1);
    std::size_t kept = 0; // inner barriers in the open segment
    for (const Instruction &inst : flat.instructions()) {
        if (isSegmentBarrier(inst, flat.numQubits())) {
            const std::size_t s = segments.size() - 1;
            const std::size_t inner =
                s < inner_barriers.size() ? inner_barriers[s] : 0;
            if (kept == inner) {
                segments.emplace_back();
                kept = 0;
                continue;
            }
            ++kept;
        }
        segments.back().push_back(inst);
    }
    return segments;
}

Circuit
lateTwirl(const Circuit &flat, const TwirlPlan &plan, Rng &rng,
          TwirlTableCache &cache, const TranspileOptions *native,
          std::size_t *frames, TwirlFrames *frame_insts)
{
    if (frames)
        *frames = 0;
    if (plan.innerBarriers.empty())
        return flat;

    std::vector<std::vector<Instruction>> segments =
        barrierSegments(flat, plan.innerBarriers);
    casq_assert(segments.size() == plan.innerBarriers.size(),
                "flat circuit has ", segments.size(),
                " barrier segment(s) but the twirl plan was "
                "captured from ", plan.innerBarriers.size(),
                " layer(s)");

    // Frame gates receive the same lowering transpileToNative()
    // gives them when they are twirled in before lowering.
    const auto lowered = [&](std::vector<Instruction> layer) {
        if (!native)
            return layer;
        return transpileFragment(std::move(layer),
                                 flat.numQubits(),
                                 flat.numClbits(), *native);
    };

    std::vector<std::vector<Instruction>> out_segments;
    out_segments.reserve(segments.size() + 2 * plan.targets.size());
    std::size_t next = 0;
    for (std::size_t li = 0; li < segments.size(); ++li) {
        if (next >= plan.targets.size() ||
            plan.targets[next].layer != li) {
            out_segments.push_back(std::move(segments[li]));
            continue;
        }
        std::vector<Instruction> pre, post;
        sampleTwirlFrames(plan.targets[next].gates, rng, cache, pre,
                          post);
        if (frames)
            *frames += pre.size() + post.size();
        if (frame_insts)
            frame_insts->targets.push_back(
                {plan.targets[next].layer, pre, post});
        ++next;
        // Empty frame layers are elided before lowering, exactly as
        // pauliTwirl() skips empty pre/post layers.
        if (!pre.empty())
            out_segments.push_back(lowered(std::move(pre)));
        out_segments.push_back(std::move(segments[li]));
        if (!post.empty())
            out_segments.push_back(lowered(std::move(post)));
    }

    Circuit out(flat.numQubits(), flat.numClbits());
    for (std::size_t s = 0; s < out_segments.size(); ++s) {
        for (Instruction &inst : out_segments[s])
            out.append(std::move(inst));
        if (s + 1 < out_segments.size())
            out.barrier();
    }
    return out;
}

} // namespace casq
