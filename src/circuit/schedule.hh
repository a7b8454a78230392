/**
 * @file
 * ASAP scheduling of circuits into timed instruction streams, plus
 * idle-window extraction.
 *
 * The scheduled form is the input of both the trajectory simulator
 * (which injects crosstalk noise per time segment) and the CA-DD
 * pass (Algorithm 1, which fills idle windows with decoupling
 * pulses).
 */

#ifndef CASQ_CIRCUIT_SCHEDULE_HH
#define CASQ_CIRCUIT_SCHEDULE_HH

#include <map>
#include <vector>

#include "circuit/circuit.hh"

namespace casq {

/** Hardware gate durations in nanoseconds. */
struct GateDurations
{
    double oneQubit = 35.0;     //!< sx / x pulse
    double twoQubit = 500.0;    //!< ecr / cx default
    double canonical = 1500.0;  //!< native can block (3 CX equiv)
    double rzzFull = 500.0;     //!< pulse-stretched rzz at |theta|=pi/2
    double rzzMin = 50.0;       //!< shortest realizable rzz pulse
    double measure = 4000.0;    //!< readout
    double reset = 1000.0;
    double feedforward = 1150.0; //!< controller latency for cond. ops

    /**
     * Per-pair two-qubit gate durations (real devices calibrate
     * each coupler separately; the resulting echo misalignment
     * between parallel gates is a key context the paper's passes
     * handle).  Keyed by the normalized pair.
     */
    std::map<std::uint64_t, double> twoQubitOverride;

    /** Register a per-pair duration for ecr/cx/cz gates. */
    void setPairDuration(std::uint32_t a, std::uint32_t b,
                         double duration_ns);

    /** Duration of an instruction under this calibration. */
    double of(const Instruction &inst) const;
};

/** An instruction pinned to wall-clock time. */
struct TimedInstruction
{
    Instruction inst;
    double start = 0.0;
    double duration = 0.0;

    double end() const { return start + duration; }
};

/** A maximal single-qubit idle period in a scheduled circuit. */
struct IdleWindow
{
    std::uint32_t qubit = 0;
    double start = 0.0;
    double end = 0.0;

    double duration() const { return end - start; }
};

/** A circuit lowered to absolute start times. */
class ScheduledCircuit
{
  public:
    ScheduledCircuit(std::size_t num_qubits, std::size_t num_clbits)
        : _numQubits(num_qubits), _numClbits(num_clbits)
    {
    }

    std::size_t numQubits() const { return _numQubits; }
    std::size_t numClbits() const { return _numClbits; }

    const std::vector<TimedInstruction> &instructions() const
    {
        return _insts;
    }

    double totalDuration() const { return _totalDuration; }

    /**
     * Append at the tail (no reordering); updates duration.  Call
     * sortByStart() after appending out of start order.
     */
    void add(TimedInstruction timed);

    /** Stable-sort instructions by start time. */
    void sortByStart();

    /**
     * Verify no two instructions overlap on a qubit; returns the
     * offending qubit or -1 when consistent.  The DD passes'
     * post-condition, checked by tests.
     */
    int findOverlap() const;

    /**
     * Per-qubit idle gaps of at least min_duration, including the
     * leading gap from t=0 and the trailing gap to totalDuration().
     */
    std::vector<IdleWindow> idleWindows(double min_duration) const;

    /** Multi-line dump with timestamps. */
    std::string toString() const;

  private:
    std::size_t _numQubits;
    std::size_t _numClbits;
    std::vector<TimedInstruction> _insts;
    double _totalDuration = 0.0;
};

/**
 * ASAP-schedule a flat circuit.  Barriers synchronize their qubits;
 * conditional instructions wait for their classical bit plus the
 * feedforward latency; virtual gates take zero time.
 */
ScheduledCircuit scheduleASAP(const Circuit &circuit,
                              const GateDurations &durations);

} // namespace casq

#endif // CASQ_CIRCUIT_SCHEDULE_HH
