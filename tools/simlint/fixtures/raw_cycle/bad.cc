// Golden NEGATIVE fixture for raw-cycle: the untyped ~0ULL
// never-sentinel beside cycle stamps. simlint must flag both uses.
#include "lib/simtime.h"

using namespace ptl;

bool
parked(U64 wake_raw, SimCycle wake_cycle)
{
    // Compared against a stamp: the untyped never: BUG
    return wake_raw == ~0ULL && wake_cycle == SimCycle(wake_raw);
}

U64
deadlineOf(SimCycle now)
{
    return now == SimCycle(0) ? ~0ULL : now.raw();   // BUG: wraps on +
}
