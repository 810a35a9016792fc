// Part of the nondet-taint BAD fixture: libc randomness and a
// wall-clock read in simulator code, each reported where it is
// called (three findings here; none of them taints a caller).

#include <cstdlib>
#include <ctime>

namespace ptl {

unsigned long long
jitter()
{
    // Seeding device latency from the host: replay divergence.
    std::srand((unsigned)time(nullptr));   // BUG x2: srand + time()
    return (unsigned long long)rand();     // BUG: rand
}

}  // namespace ptl
