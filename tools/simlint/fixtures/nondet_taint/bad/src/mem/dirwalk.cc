// Part of the nondet-taint BAD fixture: the sink. Iterating an
// unordered container in src/mem/ is no finding on its own — the
// breakage only appears when a serialized src/sys/ entry point
// reaches this function.

#include <unordered_map>

namespace ptl {

unsigned long
sumDirectory()
{
    std::unordered_map<unsigned long, unsigned long> lines;
    lines[0x40] = 1;
    lines[0x80] = 2;
    unsigned long sum = 0;
    for (const auto &kv : lines)
        sum += kv.second;
    return sum;
}

}  // namespace ptl
