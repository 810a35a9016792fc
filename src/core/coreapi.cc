#include "core/coreapi.h"

#include <map>

#include "lib/logging.h"

namespace ptl {

// Defined in seqcore.cc / ooo/ooocore.cc; referencing them here forces
// the linker to pull the model objects out of the static library.
void registerSeqCoreModel();
void registerOooCoreModels();

namespace {

std::map<std::string, CoreFactory> &
registry()
{
    static std::map<std::string, CoreFactory> r;
    return r;
}

void
ensureBuiltins()
{
    static bool registered = false;
    if (registered)
        return;
    registered = true;
    registerSeqCoreModel();
    registerOooCoreModels();
}

}  // namespace

void
registerCoreModel(const std::string &name, CoreFactory factory)
{
    registry()[name] = std::move(factory);
}

std::unique_ptr<CoreModel>
createCoreModel(const std::string &name, const CoreBuildParams &params)
{
    ensureBuiltins();
    auto it = registry().find(name);
    if (it == registry().end())
        fatal("unknown core model '%s'", name.c_str());
    return it->second(params);
}

std::vector<std::string>
coreModelNames()
{
    ensureBuiltins();
    std::vector<std::string> names;
    for (const auto &[name, factory] : registry())
        names.push_back(name);
    return names;
}

}  // namespace ptl
