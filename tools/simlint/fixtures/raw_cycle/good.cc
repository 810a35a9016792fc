// Golden POSITIVE fixture for raw-cycle: the typed, saturating
// CYCLE_NEVER wherever a stamp can mean "never"; an all-ones mask that
// names no stamp is just a mask. simlint must report nothing.
#include "lib/simtime.h"

using namespace ptl;

struct Core
{
    SimCycle ready_cycle = CYCLE_NEVER;
    U64 valid_mask = ~0ULL;             // a bit mask, not a stamp
};

SimCycle
arm(SimCycle now, int latency)
{
    SimCycle deadline = now + cycles((U64)latency);
    if (deadline == CYCLE_NEVER)
        return CYCLE_NEVER;
    return deadline;
}
