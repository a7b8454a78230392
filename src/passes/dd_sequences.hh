/**
 * @file
 * Dynamical-decoupling sequence dictionary and pulse insertion.
 *
 * A DD sequence is a list of pulse positions as fractions of an idle
 * window.  The dictionary contains the classic context-unaware
 * sequences (aligned X2, parity-staggered X2) and the Walsh rows
 * used by CA-DD.  Insertion materializes real X gates (with their
 * physical duration and gate error) into a scheduled circuit, so
 * refocusing and DD-pulse imperfections both emerge in simulation.
 */

#ifndef CASQ_PASSES_DD_SEQUENCES_HH
#define CASQ_PASSES_DD_SEQUENCES_HH

#include <vector>

#include "circuit/schedule.hh"

namespace casq {

/** A DD sequence: pulse centers as fractions of the window. */
struct DdSequence
{
    std::vector<double> fractions;

    std::size_t numPulses() const { return fractions.size(); }
};

/** Symmetric X2 (CPMG-style): pulses at 1/4 and 3/4. */
DdSequence alignedX2();

/** X2 shifted to 1/2 and 1 (end), the staggered partner of X2. */
DdSequence offsetX2();

/** Walsh row k at its native slot count. */
DdSequence walshSequence(int k, std::size_t slots = 0);

/**
 * Append the sequence for [start, end) on the qubit as tagged X
 * gates of the given duration.  Pulses are centered on their
 * fractions and clamped inside the window.  Returns false (and
 * appends nothing) when the window cannot fit the pulses without
 * overlap.  The pulses go to the tail unsorted: a caller inserting
 * many windows sorts the schedule once, with sortByStart(), after
 * the last one.
 */
bool insertDdPulses(ScheduledCircuit &schedule, std::uint32_t qubit,
                    double start, double end, const DdSequence &seq,
                    double pulse_duration);

} // namespace casq

#endif // CASQ_PASSES_DD_SEQUENCES_HH
