// Part of the nondet-taint GOOD fixture: entropy drawn from the
// seeded deterministic generator, simulated time from the TimeKeeper
// member (a variable named `time` is legal — only calls are flagged).

#include "lib/rng.h"
#include "sys/timekeeper.h"

namespace ptl {

struct Device
{
    TimeKeeper *time = nullptr;
    Rng rng{42};

    U64
    jitter()
    {
        return rng.next() % 8;
    }

    SimCycle
    deadline()
    {
        return time->cycle() + time->usToCycles(5);
    }
};

}  // namespace ptl
