#include "sim/shard.hh"

#include <algorithm>
#include <map>

#include "common/serialize.hh"
#include "passes/pipeline.hh"
#include "sim/noise_model.hh"

namespace casq {

namespace {

constexpr std::uint8_t kSpecMagic[4] = {'C', 'S', 'Q', 'S'};
constexpr std::uint8_t kResultMagic[4] = {'C', 'S', 'Q', 'R'};
// Version 2 appended the simulation-backend selector to the spec;
// version 3 appended the prefix-state mode to the spec and the
// prefix-state hit counter to the result; version 4 replaced the
// 3-value noise recipe byte with the full serialized noise
// configuration (encodeNoiseModel block -- docs/noise.md); version 5
// replaced the result's hit counter with the RunStats block, which
// also carries the tableau-routed trajectory count (docs/sharding.md
// records the history).
constexpr std::uint32_t kFormatVersion = 5;

void
writeMagic(ByteWriter &w, const std::uint8_t (&magic)[4])
{
    for (std::uint8_t byte : magic)
        w.u8(byte);
    w.u32(kFormatVersion);
}

void
readMagic(ByteReader &r, const std::uint8_t (&magic)[4],
          const char *what)
{
    for (std::uint8_t byte : magic) {
        if (r.u8() != byte) {
            throw SerializeError(std::string("not a ") + what +
                                 " payload (bad magic)");
        }
    }
    const std::uint32_t version = r.u32();
    if (version != kFormatVersion) {
        throw SerializeError(
            std::string("unsupported ") + what + " format version " +
            std::to_string(version) + " (this build reads version " +
            std::to_string(kFormatVersion) + ")");
    }
}

// ------------------------------------------- circuit (de)coding

void
writeInstruction(ByteWriter &w, const Instruction &inst)
{
    w.u8(std::uint8_t(inst.op));
    w.u32(std::uint32_t(inst.qubits.size()));
    for (std::uint32_t q : inst.qubits)
        w.u32(q);
    w.u32(std::uint32_t(inst.params.size()));
    for (double p : inst.params)
        w.f64(p);
    w.i32(inst.cbit);
    w.i32(inst.condBit);
    w.i32(inst.condValue);
    w.u8(std::uint8_t(inst.tag));
}

/**
 * Parse one instruction, enforcing the invariants Circuit::validate
 * asserts (operand/parameter counts, ranges) so corrupt payloads
 * fail with SerializeError instead of tripping casq_assert.
 */
Instruction
readInstruction(ByteReader &r, std::size_t num_qubits,
                std::size_t num_clbits)
{
    Instruction inst;
    const std::uint8_t op = r.u8();
    if (op > std::uint8_t(Op::Reset))
        throw SerializeError("corrupt opcode " +
                             std::to_string(int(op)));
    inst.op = Op(op);

    const std::size_t nq = r.count(4);
    if (inst.op != Op::Barrier && nq != opNumQubits(inst.op)) {
        throw SerializeError(
            std::string("op ") + opName(inst.op) + " carries " +
            std::to_string(nq) + " qubit operand(s), expected " +
            std::to_string(opNumQubits(inst.op)));
    }
    for (std::size_t i = 0; i < nq; ++i) {
        const std::uint32_t q = r.u32();
        if (q >= num_qubits) {
            throw SerializeError(
                "qubit operand " + std::to_string(q) +
                " out of range for " + std::to_string(num_qubits) +
                "-qubit circuit");
        }
        inst.qubits.push_back(q);
    }
    if (nq == 2 && inst.qubits[0] == inst.qubits[1])
        throw SerializeError("two-qubit gate on identical qubits");

    const std::size_t np = r.count(8);
    const bool param_count_ok =
        inst.op == Op::Delay ? np == 1
                             : np == opNumParams(inst.op);
    if (!param_count_ok) {
        throw SerializeError(
            std::string("op ") + opName(inst.op) + " carries " +
            std::to_string(np) + " parameter(s), expected " +
            std::to_string(opNumParams(inst.op)));
    }
    for (std::size_t i = 0; i < np; ++i)
        inst.params.push_back(r.f64());

    inst.cbit = r.i32();
    inst.condBit = r.i32();
    inst.condValue = r.i32();
    if (inst.op == Op::Measure &&
        (inst.cbit < 0 || std::size_t(inst.cbit) >= num_clbits)) {
        throw SerializeError("measure clbit " +
                             std::to_string(inst.cbit) +
                             " out of range");
    }
    if (inst.condBit >= 0 &&
        std::size_t(inst.condBit) >= num_clbits) {
        throw SerializeError("condition clbit " +
                             std::to_string(inst.condBit) +
                             " out of range");
    }
    const std::uint8_t tag = r.u8();
    if (tag > std::uint8_t(InstTag::Compensation))
        throw SerializeError("corrupt instruction tag " +
                             std::to_string(int(tag)));
    inst.tag = InstTag(tag);
    return inst;
}

void
writeCircuit(ByteWriter &w, const LayeredCircuit &circuit)
{
    w.u32(std::uint32_t(circuit.numQubits()));
    w.u32(std::uint32_t(circuit.numClbits()));
    w.u32(std::uint32_t(circuit.layers().size()));
    for (const Layer &layer : circuit.layers()) {
        w.u8(std::uint8_t(layer.kind));
        w.u32(std::uint32_t(layer.insts.size()));
        for (const Instruction &inst : layer.insts)
            writeInstruction(w, inst);
    }
}

LayeredCircuit
readCircuit(ByteReader &r)
{
    // Statevector simulation is 2^n amplitudes; any header beyond
    // this bound is corruption, and rejecting it here also stops a
    // flipped count byte from provoking a giant allocation.
    constexpr std::size_t kMaxWidth = 4096;
    const std::size_t num_qubits = r.u32();
    const std::size_t num_clbits = r.u32();
    if (num_qubits > kMaxWidth || num_clbits > kMaxWidth) {
        throw SerializeError(
            "implausible circuit header: " +
            std::to_string(num_qubits) + " qubits / " +
            std::to_string(num_clbits) + " clbits");
    }
    LayeredCircuit circuit(num_qubits, num_clbits);
    const std::size_t num_layers = r.count(5);
    for (std::size_t li = 0; li < num_layers; ++li) {
        Layer layer;
        const std::uint8_t kind = r.u8();
        if (kind > std::uint8_t(LayerKind::Dynamic))
            throw SerializeError("corrupt layer kind " +
                                 std::to_string(int(kind)));
        layer.kind = LayerKind(kind);
        const std::size_t n = r.count(18);
        std::vector<bool> used(num_qubits, false);
        for (std::size_t i = 0; i < n; ++i) {
            Instruction inst =
                readInstruction(r, num_qubits, num_clbits);
            // addLayer asserts disjointness; check it here so a
            // corrupt payload throws instead of aborting.
            for (std::uint32_t q : inst.qubits) {
                if (used[q]) {
                    throw SerializeError(
                        "layer " + std::to_string(li) +
                        " instructions overlap on qubit " +
                        std::to_string(q));
                }
                used[q] = true;
            }
            layer.insts.push_back(std::move(inst));
        }
        circuit.addLayer(std::move(layer));
    }
    return circuit;
}

void
writeObservables(ByteWriter &w,
                 const std::vector<PauliString> &observables)
{
    w.u32(std::uint32_t(observables.size()));
    for (const PauliString &obs : observables) {
        w.u32(std::uint32_t(obs.numQubits()));
        for (std::size_t q = 0; q < obs.numQubits(); ++q)
            w.u8(std::uint8_t(obs.op(q)));
        w.u8(obs.phasePower());
    }
}

std::vector<PauliString>
readObservables(ByteReader &r, std::size_t num_qubits)
{
    std::vector<PauliString> observables;
    const std::size_t count = r.count(5);
    observables.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t n = r.count(1);
        if (n != num_qubits) {
            throw SerializeError(
                "observable " + std::to_string(i) + " acts on " +
                std::to_string(n) + " qubits, circuit has " +
                std::to_string(num_qubits));
        }
        std::vector<PauliOp> ops;
        ops.reserve(n);
        for (std::size_t q = 0; q < n; ++q) {
            const std::uint8_t op = r.u8();
            if (op > std::uint8_t(PauliOp::Z))
                throw SerializeError("corrupt Pauli op " +
                                     std::to_string(int(op)));
            ops.push_back(PauliOp(op));
        }
        const std::uint8_t phase = r.u8();
        if (phase > 3)
            throw SerializeError("corrupt Pauli phase " +
                                 std::to_string(int(phase)));
        observables.emplace_back(std::move(ops), phase);
    }
    return observables;
}

void
requireShardRange(std::uint32_t index, std::uint32_t count,
                  const char *what)
{
    if (count < 1) {
        throw SerializeError(std::string(what) +
                             ": shard count must be >= 1");
    }
    if (index >= count) {
        throw SerializeError(
            std::string(what) + ": shard index " +
            std::to_string(index) + " out of range for " +
            std::to_string(count) + " shard(s)");
    }
}

} // namespace

// ---------------------------------------------------- BackendRecipe

BackendRecipe
backendRecipeFromName(const std::string &name)
{
    if (name == "linear")
        return BackendRecipe::Linear;
    if (name == "ring")
        return BackendRecipe::Ring;
    if (name == "nazca")
        return BackendRecipe::Nazca;
    if (name == "sherbrooke")
        return BackendRecipe::Sherbrooke;
    throw SerializeError("unknown backend recipe '" + name + "'");
}

std::string
backendRecipeName(BackendRecipe recipe)
{
    switch (recipe) {
      case BackendRecipe::Linear: return "linear";
      case BackendRecipe::Ring: return "ring";
      case BackendRecipe::Nazca: return "nazca";
      case BackendRecipe::Sherbrooke: return "sherbrooke";
    }
    return "unknown";
}

std::uint32_t
backendRecipeQubits(BackendRecipe recipe, std::uint32_t backend_qubits)
{
    switch (recipe) {
      case BackendRecipe::Linear:
      case BackendRecipe::Ring:
        return backend_qubits;
      case BackendRecipe::Nazca:
      case BackendRecipe::Sherbrooke:
        return 127;
    }
    throw SerializeError("corrupt backend recipe");
}

// -------------------------------------------------------- ShardSpec

std::vector<std::uint8_t>
ShardSpec::encode() const
{
    ByteWriter w;
    writeMagic(w, kSpecMagic);
    w.u32(shardIndex);
    w.u32(shardCount);
    writeCircuit(w, logical);
    writeObservables(w, observables);
    w.str(strategy);
    w.boolean(twirl);
    w.boolean(lowerToNative);
    w.u8(std::uint8_t(backend));
    w.u32(backendQubits);
    w.u64(backendSeed);
    w.i32(instances);
    w.u64(compileSeed);
    w.boolean(prefixCache);
    w.i32(trajectories);
    w.u64(seed);
    w.u8(std::uint8_t(simBackend));
    encodeNoiseModel(w, noise);
    w.u8(std::uint8_t(prefixState));
    return w.take();
}

namespace {

ShardSpec
decodeSpecBody(ByteReader &r)
{
    readMagic(r, kSpecMagic, "shard-spec");
    ShardSpec spec;
    spec.shardIndex = r.u32();
    spec.shardCount = r.u32();
    requireShardRange(spec.shardIndex, spec.shardCount,
                      "shard spec");
    spec.logical = readCircuit(r);
    spec.observables =
        readObservables(r, spec.logical.numQubits());
    spec.strategy = r.str();
    if (!strategyFromName(spec.strategy)) {
        throw SerializeError("unknown strategy '" + spec.strategy +
                             "' in shard spec");
    }
    spec.twirl = r.boolean();
    spec.lowerToNative = r.boolean();
    const std::uint8_t recipe = r.u8();
    if (recipe > std::uint8_t(BackendRecipe::Sherbrooke))
        throw SerializeError("corrupt backend recipe " +
                             std::to_string(int(recipe)));
    spec.backend = BackendRecipe(recipe);
    spec.backendQubits = r.u32();
    // Same plausibility bound as the circuit header: a corrupted
    // count must fail here, not as a giant makeBackend allocation.
    if (spec.backendQubits > 4096) {
        throw SerializeError(
            "implausible backend width " +
            std::to_string(spec.backendQubits));
    }
    spec.backendSeed = r.u64();
    spec.instances = r.i32();
    if (spec.instances < 1)
        throw SerializeError("shard spec instances must be >= 1");
    spec.compileSeed = r.u64();
    spec.prefixCache = r.boolean();
    spec.trajectories = r.i32();
    if (spec.trajectories < 1)
        throw SerializeError(
            "shard spec trajectories must be >= 1");
    spec.seed = r.u64();
    const std::uint8_t sim = r.u8();
    if (sim > std::uint8_t(SimBackendKind::Stabilizer))
        throw SerializeError("corrupt simulation backend " +
                             std::to_string(int(sim)));
    spec.simBackend = SimBackendKind(sim);
    spec.noise = decodeNoiseModel(r);
    const std::uint8_t prefix = r.u8();
    if (prefix > std::uint8_t(PrefixStateMode::Off))
        throw SerializeError("corrupt prefix-state mode " +
                             std::to_string(int(prefix)));
    spec.prefixState = PrefixStateMode(prefix);
    r.requireEnd();
    return spec;
}

} // namespace

ShardSpec
ShardSpec::decode(const std::uint8_t *data, std::size_t size)
{
    ByteReader r(data, size);
    // Semantic validation errors (corrupt opcodes, bad ranges, ...)
    // are raised after the reads that exposed them succeeded; stamp
    // the reader position on them so diagnostics can name where in
    // the payload decoding stopped.
    try {
        return decodeSpecBody(r);
    } catch (SerializeError &err) {
        err.attachOffset(r.offset());
        throw;
    }
}

ShardSpec
ShardSpec::decode(const std::vector<std::uint8_t> &bytes)
{
    return decode(bytes.data(), bytes.size());
}

std::uint64_t
ShardSpec::jobFingerprint() const
{
    ShardSpec job = *this;
    job.shardIndex = 0;
    return fingerprintBytes(job.encode());
}

Backend
ShardSpec::makeBackend() const
{
    switch (backend) {
      case BackendRecipe::Linear:
        return makeFakeLinear(backendQubits, backendSeed);
      case BackendRecipe::Ring:
        return makeFakeRing(backendQubits, backendSeed);
      case BackendRecipe::Nazca:
        return makeFakeNazca(backendSeed);
      case BackendRecipe::Sherbrooke:
        return makeFakeSherbrooke(backendSeed);
    }
    throw SerializeError("corrupt backend recipe");
}

NoiseModel
ShardSpec::makeNoise() const
{
    return noise;
}

PassManager
ShardSpec::makePipeline() const
{
    const auto parsed = strategyFromName(strategy);
    if (!parsed) {
        throw SerializeError("unknown strategy '" + strategy +
                             "' in shard spec");
    }
    CompileOptions options;
    options.strategy = *parsed;
    options.twirl = twirl;
    options.lowerToNative = lowerToNative;
    return buildPipeline(options);
}

EnsembleRunOptions
ShardSpec::runOptions(int threads) const
{
    EnsembleRunOptions opts;
    opts.instances = instances;
    opts.compileSeed = compileSeed;
    opts.prefixCache = prefixCache;
    opts.trajectories = trajectories;
    opts.seed = seed;
    opts.threads = threads;
    opts.backend = simBackend;
    opts.prefixState = prefixState;
    return opts;
}

// ------------------------------------------------------ ShardResult

std::size_t
ShardResult::ownedTrajectories() const
{
    const std::size_t total = std::size_t(std::max(
        std::int32_t(0), trajectories));
    if (total <= shardIndex)
        return 0;
    return (total - shardIndex + shardCount - 1) / shardCount;
}

std::vector<std::uint8_t>
ShardResult::encode() const
{
    ByteWriter w;
    writeMagic(w, kResultMagic);
    w.u32(shardIndex);
    w.u32(shardCount);
    w.i32(trajectories);
    w.u32(observableCount);
    w.u64(jobFingerprint);
    w.u64(seed);
    w.u64(compileSeed);
    w.u32(std::uint32_t(run.instances.size()));
    for (std::uint32_t i : run.instances)
        w.u32(i);
    for (std::uint64_t f : run.fingerprints)
        w.u64(f);
    w.u32(std::uint32_t(run.slots.size()));
    for (double v : run.slots)
        w.f64(v);
    encodeRunStats(w, run.stats);
    return w.take();
}

namespace {

ShardResult
decodeResultBody(ByteReader &r)
{
    readMagic(r, kResultMagic, "shard-result");
    ShardResult result;
    result.shardIndex = r.u32();
    result.shardCount = r.u32();
    requireShardRange(result.shardIndex, result.shardCount,
                      "shard result");
    result.trajectories = r.i32();
    if (result.trajectories < 1)
        throw SerializeError(
            "shard result trajectories must be >= 1");
    result.observableCount = r.u32();
    result.jobFingerprint = r.u64();
    result.seed = r.u64();
    result.compileSeed = r.u64();
    ShardSlots &run = result.run;
    const std::size_t num_instances = r.count(12);
    for (std::size_t i = 0; i < num_instances; ++i) {
        const std::uint32_t instance = r.u32();
        if (!run.instances.empty() && instance <= run.instances.back()) {
            throw SerializeError(
                "shard result instance list is not strictly "
                "ascending");
        }
        run.instances.push_back(instance);
    }
    for (std::size_t i = 0; i < num_instances; ++i)
        run.fingerprints.push_back(r.u64());
    const std::size_t num_slots = r.count(8);
    const std::size_t expected =
        result.ownedTrajectories() * result.observableCount;
    if (num_slots != expected) {
        throw SerializeError(
            "shard result carries " + std::to_string(num_slots) +
            " slot value(s), expected " + std::to_string(expected));
    }
    run.slots.reserve(num_slots);
    for (std::size_t i = 0; i < num_slots; ++i)
        run.slots.push_back(r.f64());
    run.stats = decodeRunStats(r, result.ownedTrajectories());
    r.requireEnd();
    return result;
}

} // namespace

ShardResult
ShardResult::decode(const std::uint8_t *data, std::size_t size)
{
    ByteReader r(data, size);
    try {
        return decodeResultBody(r);
    } catch (SerializeError &err) {
        err.attachOffset(r.offset());
        throw;
    }
}

ShardResult
ShardResult::decode(const std::vector<std::uint8_t> &bytes)
{
    return decode(bytes.data(), bytes.size());
}

// --------------------------------------------------------- RunStats

void
encodeRunStats(ByteWriter &w, const RunStats &stats)
{
    w.u64(stats.stabilizerTrajectories);
    w.u64(stats.prefixStateHits);
}

RunStats
decodeRunStats(ByteReader &r, std::uint64_t trajectories)
{
    RunStats stats;
    for (std::uint64_t *counter :
         {&stats.stabilizerTrajectories, &stats.prefixStateHits}) {
        *counter = r.u64();
        if (*counter > trajectories) {
            throw SerializeError(
                "run counter " + std::to_string(*counter) +
                    " exceeds the " + std::to_string(trajectories) +
                    " trajectories it counts",
                r.offset());
        }
    }
    return stats;
}

// -------------------------------------------------------- execution

void
checkBackendWidth(const ShardSpec &spec)
{
    const std::uint32_t device_qubits =
        backendRecipeQubits(spec.backend, spec.backendQubits);
    if (device_qubits != spec.logical.numQubits()) {
        throw ShardError(
            "backend recipe " + backendRecipeName(spec.backend) +
            " builds a " + std::to_string(device_qubits) +
            "-qubit device but the logical circuit has " +
            std::to_string(spec.logical.numQubits()) + " qubits");
    }
}

ShardResult
executeShard(const ShardSpec &spec, int threads)
{
    checkBackendWidth(spec);
    const Backend backend = spec.makeBackend();
    for (const PauliString &obs : spec.observables) {
        if (obs.numQubits() != spec.logical.numQubits()) {
            throw ShardError(
                "observable width " +
                std::to_string(obs.numQubits()) +
                " does not match the circuit width " +
                std::to_string(spec.logical.numQubits()));
        }
    }

    PassManager pipeline = spec.makePipeline();
    SimulationEngine engine(backend, spec.makeNoise());

    ShardResult result;
    result.shardIndex = spec.shardIndex;
    result.shardCount = spec.shardCount;
    result.trajectories = spec.trajectories;
    result.observableCount =
        std::uint32_t(spec.observables.size());
    result.jobFingerprint = spec.jobFingerprint();
    result.seed = spec.seed;
    result.compileSeed = spec.compileSeed;
    result.run = engine.runShard(
        spec.logical, pipeline, spec.observables,
        spec.runOptions(threads), spec.shardIndex, spec.shardCount);
    return result;
}

// ------------------------------------------------------------ merge

RunResult
mergeShards(const std::vector<ShardResult> &shards)
{
    if (shards.empty())
        throw ShardError("no shard results to merge");

    const ShardResult &head = shards.front();
    const std::uint32_t S = head.shardCount;
    if (shards.size() != S) {
        throw ShardError(
            "expected " + std::to_string(S) +
            " shard result(s), got " +
            std::to_string(shards.size()));
    }

    std::vector<const ShardResult *> by_index(S, nullptr);
    std::map<std::uint32_t, std::uint64_t> schedule_prints;
    for (const ShardResult &shard : shards) {
        if (shard.shardCount != S || shard.trajectories != head.trajectories ||
            shard.observableCount != head.observableCount ||
            shard.jobFingerprint != head.jobFingerprint ||
            shard.seed != head.seed ||
            shard.compileSeed != head.compileSeed) {
            throw ShardError(
                "shard " + std::to_string(shard.shardIndex) +
                " does not belong to the same job as shard " +
                std::to_string(head.shardIndex) +
                " (provenance mismatch)");
        }
        if (shard.shardIndex >= S ||
            by_index[shard.shardIndex] != nullptr) {
            throw ShardError(
                "duplicate result for shard " +
                std::to_string(shard.shardIndex));
        }
        by_index[shard.shardIndex] = &shard;

        const ShardSlots &run = shard.run;
        if (run.instances.size() != run.fingerprints.size()) {
            throw ShardError(
                "shard " + std::to_string(shard.shardIndex) +
                " carries " + std::to_string(run.fingerprints.size()) +
                " fingerprint(s) for " +
                std::to_string(run.instances.size()) + " instance(s)");
        }
        for (std::size_t i = 0; i < run.instances.size(); ++i) {
            const auto [it, inserted] = schedule_prints.emplace(
                run.instances[i], run.fingerprints[i]);
            if (!inserted && it->second != run.fingerprints[i]) {
                throw ShardError(
                    "shards disagree on the schedule of instance " +
                    std::to_string(run.instances[i]) +
                    " (fingerprint mismatch)");
            }
        }
    }

    // Scatter every shard's ordinal-major slots back into the
    // single-process trajectory order, then reduce exactly as
    // Engine::runEnsemble does.
    const std::size_t total = std::size_t(head.trajectories);
    const std::size_t K = head.observableCount;
    std::vector<double> slots(total * K, 0.0);
    for (std::uint32_t k = 0; k < S; ++k) {
        const std::vector<double> &owned_slots = by_index[k]->run.slots;
        const std::size_t owned = by_index[k]->ownedTrajectories();
        if (owned_slots.size() != owned * K) {
            throw ShardError(
                "shard " + std::to_string(k) + " carries " +
                std::to_string(owned_slots.size()) +
                " slot value(s), expected " +
                std::to_string(owned * K));
        }
        for (std::size_t j = 0; j < owned; ++j) {
            const std::size_t t = k + j * S;
            std::copy(owned_slots.begin() + j * K,
                      owned_slots.begin() + (j + 1) * K,
                      slots.begin() + t * K);
        }
    }
    RunResult merged = reduceTrajectorySlots(slots, total, K);
    for (const ShardResult &shard : shards)
        merged += shard.run.stats;
    return merged;
}

} // namespace casq
