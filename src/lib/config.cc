#include "lib/config.h"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <functional>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "lib/logging.h"

namespace ptl {

int
CacheParams::sets() const
{
    if (size_bytes == 0)
        return 0;
    U64 lines = size_bytes / line_bytes;
    if (lines % ways != 0)
        fatal("cache geometry: %llu lines not divisible by %d ways",
              (unsigned long long)lines, ways);
    U64 sets = lines / ways;
    if (!isPow2(sets))
        fatal("cache geometry: set count %llu not a power of two",
              (unsigned long long)sets);
    return (int)sets;
}

SimConfig
SimConfig::preset(const std::string &name)
{
    SimConfig c;
    if (name == "default") {
        // A generic modern 4-wide OOO core, PTLsim's out-of-box shape.
        c.fetch_width = 4;
        c.frontend_width = 4;
        c.issue_width_per_cluster = 4;
        c.commit_width = 4;
        c.rob_size = 128;
        c.ldq_size = 48;
        c.stq_size = 48;
        c.int_iq_count = 1;
        c.int_iq_size = 32;
        c.fp_iq_size = 32;
        c.fp_cluster_delay = 0;
        c.load_hoisting = true;
        c.enforce_banking = false;
        c.l1d.banks = 1;
        return c;
    }
    if (name == "k8") {
        // Section 5: PTLsim configured like a 2.2 GHz AMD Athlon 64 (K8).
        // 72-entry ROB, 44-entry LDQ/STQ, three 8-entry integer issue
        // queues, 36-entry FP queue two cycles away, 128-entry register
        // files sized so the ROB is the bottleneck, no load hoisting,
        // 8-bank L1D, 64K 2-way L1 caches, 1M 16-way L2 at 10 cycles,
        // memory at 112 cycles, 32-entry DTLB/ITLB, 16K gshare predictor.
        c.core_freq_hz = 2'200'000'000ULL;
        c.fetch_width = 3;
        c.frontend_width = 3;
        c.issue_width_per_cluster = 3;
        c.commit_width = 3;
        c.rob_size = 72;
        c.ldq_size = 44;
        c.stq_size = 44;
        c.int_prf_size = 128;
        c.fp_prf_size = 128;
        c.int_iq_count = 3;
        c.int_iq_size = 8;
        c.fp_iq_size = 36;
        c.fp_cluster_delay = 2;
        c.load_hoisting = false;
        c.enforce_banking = true;
        c.l1i = CacheParams{64 << 10, 2, 64, 1, 8, 1};
        c.l1d = CacheParams{64 << 10, 2, 64, 3, 8, 8};
        c.l2 = CacheParams{1 << 20, 16, 64, 10, 16, 1};
        c.l3.size_bytes = 0;
        c.mem_latency = 112;
        c.dtlb_entries = 32;
        c.itlb_entries = 32;
        c.tlb2_entries = 0;
        c.pde_cache = false;
        c.predictor = PredictorKind::Gshare;
        c.gshare_entries = 16384;
        c.gshare_history = 12;
        return c;
    }
    if (name == "k8-native") {
        // The reference-machine trial of Table 1: identical guest-visible
        // machine, but structure models matching real K8 silicon — the
        // two-level TLB (32 L1 + 1024-entry 4-way L2 + PDE cache) and the
        // hardware prefetcher that PTLsim's model lacks.
        SimConfig c2 = preset("k8");
        c2.tlb2_entries = 1024;
        c2.tlb2_ways = 4;
        c2.pde_cache = true;
        c2.hw_prefetch = true;
        return c2;
    }
    fatal("unknown config preset '%s'", name.c_str());
}

namespace {

PredictorKind
parsePredictor(const std::string &v)
{
    if (v == "bimodal") return PredictorKind::Bimodal;
    if (v == "gshare") return PredictorKind::Gshare;
    if (v == "hybrid") return PredictorKind::Hybrid;
    if (v == "taken") return PredictorKind::Taken;
    if (v == "nottaken") return PredictorKind::NotTaken;
    fatal("unknown predictor kind '%s'", v.c_str());
}

CoherenceKind
parseCoherence(const std::string &v)
{
    if (v == "instant") return CoherenceKind::InstantVisibility;
    if (v == "moesi") return CoherenceKind::Moesi;
    fatal("unknown coherence kind '%s'", v.c_str());
}

SmtPolicy
parseSmtPolicy(const std::string &v)
{
    if (v == "roundrobin") return SmtPolicy::RoundRobin;
    if (v == "icount") return SmtPolicy::Icount;
    fatal("unknown SMT policy '%s'", v.c_str());
}

ReplKind
parseRepl(const std::string &v)
{
    if (v == "lru") return ReplKind::Lru;
    if (v == "tree-plru" || v == "plru") return ReplKind::TreePlru;
    if (v == "random") return ReplKind::Random;
    fatal("unknown replacement policy '%s'", v.c_str());
}

MemBackendKind
parseBackend(const std::string &v)
{
    if (v == "fixed") return MemBackendKind::Fixed;
    if (v == "banked" || v == "banked-dram") return MemBackendKind::BankedDram;
    if (v == "hybrid") return MemBackendKind::Hybrid;
    fatal("unknown memory backend '%s'", v.c_str());
}

}  // namespace

void
SimConfig::applyOption(const std::string &option)
{
    auto eq = option.find('=');
    if (eq == std::string::npos)
        fatal("malformed option '%s' (expected name=value)", option.c_str());
    std::string name = option.substr(0, eq);
    std::string value = option.substr(eq + 1);

    // Numbers parse strictly, in base 0 (so "0x40" is hex): the whole
    // value must be a number, unsigned fields take no sign, and int
    // fields must fit an int.
    auto bad_number = [&]() {
        fatal("option %s: bad number '%s'", name.c_str(), value.c_str());
    };
    auto as_u64 = [&]() -> U64 {
        if (value.empty() || !std::isdigit((unsigned char)value[0]))
            bad_number();
        char *end = nullptr;
        errno = 0;
        U64 v = std::strtoull(value.c_str(), &end, 0);
        if (*end != '\0' || errno == ERANGE)
            bad_number();
        return v;
    };
    auto as_int = [&]() -> int {
        size_t digit = (!value.empty() && value[0] == '-') ? 1 : 0;
        if (digit >= value.size()
            || !std::isdigit((unsigned char)value[digit]))
            bad_number();
        char *end = nullptr;
        errno = 0;
        long long v = std::strtoll(value.c_str(), &end, 0);
        if (*end != '\0' || errno == ERANGE || v < INT_MIN || v > INT_MAX)
            bad_number();
        return (int)v;
    };
    auto as_bool = [&]() -> bool {
        if (value == "1" || value == "true" || value == "on") return true;
        if (value == "0" || value == "false" || value == "off") return false;
        fatal("option %s: bad boolean '%s'", name.c_str(), value.c_str());
    };

    const std::map<std::string, std::function<void()>> setters = {
        {"core_freq_hz", [&] { core_freq_hz = as_u64(); }},
        {"vcpu_count", [&] { vcpu_count = as_int(); }},
        {"snapshot_interval", [&] { snapshot_interval = as_u64(); }},
        {"timer_hz", [&] { timer_hz = as_u64(); }},
        {"guest_mem_bytes", [&] { guest_mem_bytes = as_u64(); }},
        {"seed", [&] { seed = as_u64(); }},
        {"shuffle_mfns", [&] { shuffle_mfns = as_bool(); }},
        {"core", [&] { core = value; }},
        {"smt_threads", [&] { smt_threads = as_int(); }},
        {"fetch_width", [&] { fetch_width = as_int(); }},
        {"frontend_width", [&] { frontend_width = as_int(); }},
        {"issue_width_per_cluster", [&] { issue_width_per_cluster = as_int(); }},
        {"commit_width", [&] { commit_width = as_int(); }},
        {"fetch_queue_size", [&] { fetch_queue_size = as_int(); }},
        {"rob_size", [&] { rob_size = as_int(); }},
        {"ldq_size", [&] { ldq_size = as_int(); }},
        {"stq_size", [&] { stq_size = as_int(); }},
        {"int_prf_size", [&] { int_prf_size = as_int(); }},
        {"fp_prf_size", [&] { fp_prf_size = as_int(); }},
        {"int_iq_count", [&] { int_iq_count = as_int(); }},
        {"int_iq_size", [&] { int_iq_size = as_int(); }},
        {"fp_iq_size", [&] { fp_iq_size = as_int(); }},
        {"fp_cluster_delay", [&] { fp_cluster_delay = as_int(); }},
        {"frontend_stages", [&] { frontend_stages = as_int(); }},
        {"mispredict_penalty", [&] { mispredict_penalty = as_int(); }},
        {"load_hoisting", [&] { load_hoisting = as_bool(); }},
        {"enforce_banking", [&] { enforce_banking = as_bool(); }},
        {"skip_ahead", [&] { skip_ahead = as_bool(); }},
        {"lat_alu", [&] { lat_alu = as_int(); }},
        {"lat_mul", [&] { lat_mul = as_int(); }},
        {"lat_div", [&] { lat_div = as_int(); }},
        {"lat_fp", [&] { lat_fp = as_int(); }},
        {"lat_ld", [&] { lat_ld = as_int(); }},
        {"l1i_size", [&] { l1i.size_bytes = as_u64(); }},
        {"l1i_ways", [&] { l1i.ways = as_int(); }},
        {"l1i_repl", [&] { l1i.repl = parseRepl(value); }},
        {"l1d_size", [&] { l1d.size_bytes = as_u64(); }},
        {"l1d_ways", [&] { l1d.ways = as_int(); }},
        {"l1d_latency", [&] { l1d.latency = as_int(); }},
        {"l1d_banks", [&] { l1d.banks = as_int(); }},
        {"l1d_repl", [&] { l1d.repl = parseRepl(value); }},
        {"l2_size", [&] { l2.size_bytes = as_u64(); }},
        {"l2_ways", [&] { l2.ways = as_int(); }},
        {"l2_latency", [&] { l2.latency = as_int(); }},
        {"l2_repl", [&] { l2.repl = parseRepl(value); }},
        {"l3_size", [&] { l3.size_bytes = as_u64(); }},
        {"l3_ways", [&] { l3.ways = as_int(); }},
        {"l3_latency", [&] { l3.latency = as_int(); }},
        {"l3_repl", [&] { l3.repl = parseRepl(value); }},
        {"mem_latency", [&] { mem_latency = as_int(); }},
        {"mem_backend", [&] { membackend.kind = parseBackend(value); }},
        {"dram_banks", [&] { membackend.dram_banks = as_int(); }},
        {"dram_row_bytes", [&] { membackend.row_bytes = as_int(); }},
        {"dram_t_cas", [&] { membackend.t_cas = as_int(); }},
        {"dram_t_rcd", [&] { membackend.t_rcd = as_int(); }},
        {"dram_t_rp", [&] { membackend.t_rp = as_int(); }},
        {"edram_size", [&] { membackend.edram_size_bytes = as_u64(); }},
        {"edram_ways", [&] { membackend.edram_ways = as_int(); }},
        {"edram_line_bytes", [&] { membackend.edram_line_bytes = as_int(); }},
        {"edram_latency", [&] { membackend.edram_latency = as_int(); }},
        {"pcm_read_latency", [&] { membackend.pcm_read_latency = as_int(); }},
        {"pcm_write_latency", [&] { membackend.pcm_write_latency = as_int(); }},
        {"deferred_writes", [&] { membackend.deferred_writes = as_int(); }},
        {"dtlb_entries", [&] { dtlb_entries = as_int(); }},
        {"itlb_entries", [&] { itlb_entries = as_int(); }},
        {"tlb2_entries", [&] { tlb2_entries = as_int(); }},
        {"tlb2_ways", [&] { tlb2_ways = as_int(); }},
        {"pde_cache", [&] { pde_cache = as_bool(); }},
        {"hw_prefetch", [&] { hw_prefetch = as_bool(); }},
        {"coherence", [&] { coherence = parseCoherence(value); }},
        {"interconnect_latency", [&] { interconnect_latency = as_int(); }},
        {"predictor", [&] { predictor = parsePredictor(value); }},
        {"gshare_entries", [&] { gshare_entries = as_int(); }},
        {"gshare_history", [&] { gshare_history = as_int(); }},
        {"bimodal_entries", [&] { bimodal_entries = as_int(); }},
        {"meta_entries", [&] { meta_entries = as_int(); }},
        {"btb_entries", [&] { btb_entries = as_int(); }},
        {"btb_ways", [&] { btb_ways = as_int(); }},
        {"ras_entries", [&] { ras_entries = as_int(); }},
        {"smt_policy", [&] { smt_policy = parseSmtPolicy(value); }},
        {"smt_deadlock_timeout", [&] { smt_deadlock_timeout = as_int(); }},
        {"native_ipc_x1000", [&] { native_ipc_x1000 = as_u64(); }},
        {"commit_checker", [&] { commit_checker = as_bool(); }},
        {"verify", [&] { verify = as_bool(); }},
        {"net_latency_us", [&] { net_latency_us = as_int(); }},
        {"disk_latency_us", [&] { disk_latency_us = as_int(); }},
    };

    auto it = setters.find(name);
    if (it == setters.end())
        fatal("unknown config option '%s'", name.c_str());
    it->second();
}

void
SimConfig::applyOptions(const std::string &options)
{
    std::istringstream in(options);
    std::string tok;
    while (in >> tok)
        applyOption(tok);
}

namespace {

/**
 * Minimal JSON reader for the `memory` experiment block: one object,
 * string/number/bool scalars, at most one level of nested objects.
 * Emits (path, value) pairs with nested keys joined as "group.key".
 * No external dependency — the toolchain image carries no JSON
 * library and the schema is deliberately tiny.
 */
class MemoryJsonReader
{
  public:
    explicit MemoryJsonReader(const std::string &text) : s(text) {}

    std::vector<std::pair<std::string, std::string>>
    parse()
    {
        std::vector<std::pair<std::string, std::string>> out;
        skipWs();
        expect('{');
        parseObject("", out, /*depth=*/0);
        skipWs();
        if (pos != s.size())
            fatal("memory JSON: trailing garbage at offset %zu", pos);
        return out;
    }

  private:
    void
    skipWs()
    {
        while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t'
                                  || s[pos] == '\n' || s[pos] == '\r'))
            pos++;
    }

    void
    expect(char c)
    {
        if (pos >= s.size() || s[pos] != c)
            fatal("memory JSON: expected '%c' at offset %zu", c, pos);
        pos++;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (pos < s.size() && s[pos] != '"') {
            if (s[pos] == '\\')
                fatal("memory JSON: escapes are not supported");
            out += s[pos++];
        }
        expect('"');
        return out;
    }

    std::string
    parseScalar()
    {
        if (s[pos] == '"')
            return parseString();
        size_t start = pos;
        while (pos < s.size() && (std::isalnum((unsigned char)s[pos])
                                  || s[pos] == '-' || s[pos] == '+'
                                  || s[pos] == '.' || s[pos] == '_'))
            pos++;
        if (pos == start)
            fatal("memory JSON: expected a value at offset %zu", pos);
        return s.substr(start, pos - start);
    }

    void
    parseObject(const std::string &prefix,
                std::vector<std::pair<std::string, std::string>> &out,
                int depth)
    {
        skipWs();
        if (pos < s.size() && s[pos] == '}') {
            pos++;
            return;
        }
        for (;;) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            skipWs();
            std::string path = prefix.empty() ? key : prefix + "." + key;
            if (pos < s.size() && s[pos] == '{') {
                if (depth >= 1)
                    fatal("memory JSON: object nesting too deep at '%s'",
                          path.c_str());
                pos++;
                parseObject(path, out, depth + 1);
            } else {
                out.emplace_back(path, parseScalar());
            }
            skipWs();
            if (pos < s.size() && s[pos] == ',') {
                pos++;
                continue;
            }
            expect('}');
            return;
        }
    }

    const std::string &s;
    size_t pos = 0;
};

/** Map a "group.key" JSON path onto a flat applyOption() name. */
std::string
memoryJsonOption(const std::string &path)
{
    if (path == "backend")
        return "mem_backend";
    if (path == "mem_latency")
        return "mem_latency";
    auto dot = path.find('.');
    if (dot == std::string::npos)
        fatal("memory JSON: unknown key '%s'", path.c_str());
    std::string group = path.substr(0, dot);
    std::string key = path.substr(dot + 1);
    if (group == "l1i" || group == "l1d" || group == "l2" || group == "l3")
        return group + "_" + key;
    if (group == "dram")
        return "dram_" + key;
    if (group == "edram")
        return "edram_" + key;
    if (group == "pcm") {
        if (key == "deferred_writes")
            return "deferred_writes";
        return "pcm_" + key;
    }
    fatal("memory JSON: unknown key '%s'", path.c_str());
}

}  // namespace

void
SimConfig::applyMemoryJson(const std::string &json)
{
    MemoryJsonReader reader(json);
    auto pairs = reader.parse();
    bool versioned = false;
    for (const auto &[path, value] : pairs) {
        if (path == "version") {
            if (value != "1")
                fatal("memory JSON: unsupported version '%s' "
                      "(this build reads version 1)", value.c_str());
            versioned = true;
            continue;
        }
        // Normalize eDRAM size alias: "size" reads naturally in JSON.
        std::string opt = memoryJsonOption(path);
        if (opt == "edram_size_bytes")
            opt = "edram_size";
        applyOption(opt + "=" + value);
    }
    if (!versioned)
        fatal("memory JSON: missing required \"version\" key");
}

void
SimConfig::validate() const
{
    if (vcpu_count < 1 || vcpu_count > 32)
        fatal("vcpu_count %d out of range [1, 32]", vcpu_count);
    if (smt_threads < 1 || smt_threads > 16)
        fatal("smt_threads %d out of range [1, 16] (paper limit)", smt_threads);
    if (snapshot_interval == 0)
        fatal("snapshot_interval %llu must be positive",
              (unsigned long long)snapshot_interval);
    if (timer_hz < 1 || timer_hz > core_freq_hz)
        fatal("timer_hz %llu out of range [1, core_freq_hz %llu]",
              (unsigned long long)timer_hz,
              (unsigned long long)core_freq_hz);
    if (native_ipc_x1000 == 0)
        fatal("native_ipc_x1000 %llu must be positive",
              (unsigned long long)native_ipc_x1000);
    if (rob_size < 4 || ldq_size < 2 || stq_size < 2)
        fatal("pipeline structure sizes too small");
    if (int_prf_size < rob_size / 2)
        fatal("int_prf_size %d too small for rob_size %d",
              int_prf_size, rob_size);
    // The out-of-order core names physical registers and ROB slots
    // with 16-bit signed tags.
    if (rob_size > 32767)
        fatal("rob_size %d exceeds 32767", rob_size);
    if ((long long)int_prf_size + fp_prf_size
            + (long long)smt_threads * OOO_ARCH_REGS_PER_THREAD
        > 32768)
        fatal("int_prf_size %d + fp_prf_size %d + %d architectural "
              "registers per thread x %d threads exceeds 32768",
              int_prf_size, fp_prf_size, OOO_ARCH_REGS_PER_THREAD,
              smt_threads);
    // Below these the core cannot make progress: it would never fetch,
    // rename, issue or commit, or (int_iq_count 0) would send integer
    // uops to the FP queue.
    for (const auto &[name, n] :
         {std::pair<const char *, int>{"fetch_width", fetch_width},
          {"frontend_width", frontend_width},
          {"issue_width_per_cluster", issue_width_per_cluster},
          {"commit_width", commit_width},
          {"fetch_queue_size", fetch_queue_size},
          {"int_iq_count", int_iq_count}}) {
        if (n < 1)
            fatal("%s %d must be at least 1", name, n);
    }
    if (frontend_stages < 0 || mispredict_penalty < 0)
        fatal("frontend_stages %d / mispredict_penalty %d must not be "
              "negative", frontend_stages, mispredict_penalty);
    // A queue's slots must fit in one U64 wakeup mask.
    if (int_iq_size < 1 || int_iq_size > 64 || fp_iq_size < 1
        || fp_iq_size > 64)
        fatal("issue queue sizes int_iq_size %d / fp_iq_size %d out of "
              "range [1, 64]", int_iq_size, fp_iq_size);
    // Out-of-order select assumes nothing issued in a cycle can become
    // ready in that same cycle; a zero latency would make issue depend
    // on queue order, and a negative one would wrap the cycle stamp.
    for (const auto &[name, lat] :
         {std::pair<const char *, int>{"lat_alu", lat_alu},
          {"lat_mul", lat_mul}, {"lat_div", lat_div}, {"lat_fp", lat_fp},
          {"lat_ld", lat_ld}}) {
        if (lat < 1)
            fatal("%s %d must be at least 1", name, lat);
    }
    if (fp_cluster_delay < 0)
        fatal("fp_cluster_delay %d must not be negative", fp_cluster_delay);
    // Force geometry checks.
    (void)l1i.sets();
    (void)l1d.sets();
    (void)l2.sets();
    (void)l3.sets();
    if (!isPow2((U64)dtlb_entries) || !isPow2((U64)itlb_entries))
        fatal("TLB entry counts must be powers of two");
    if (tlb2_entries && !isPow2((U64)tlb2_entries))
        fatal("tlb2_entries must be a power of two");
    if (!isPow2((U64)btb_entries) || !isPow2((U64)gshare_entries)
        || !isPow2((U64)bimodal_entries) || !isPow2((U64)meta_entries))
        fatal("predictor table sizes must be powers of two");
    if (membackend.dram_banks < 1 || !isPow2((U64)membackend.dram_banks))
        fatal("dram_banks %d must be a power of two",
              membackend.dram_banks);
    if (membackend.row_bytes < l1d.line_bytes
        || !isPow2((U64)membackend.row_bytes))
        fatal("dram row_bytes %d must be a power of two >= the line size",
              membackend.row_bytes);
    if (membackend.t_cas < 1 || membackend.t_rcd < 0 || membackend.t_rp < 0)
        fatal("DRAM timing parameters out of range");
    if (membackend.kind == MemBackendKind::Hybrid) {
        CacheParams edram;
        edram.size_bytes = membackend.edram_size_bytes;
        edram.ways = membackend.edram_ways;
        edram.line_bytes = membackend.edram_line_bytes;
        (void)edram.sets();  // force geometry checks
        if (membackend.pcm_read_latency < 1
            || membackend.pcm_write_latency < 1)
            fatal("PCM latencies must be positive");
        if (membackend.deferred_writes < 1)
            fatal("deferred_writes %d must be positive",
                  membackend.deferred_writes);
    }
}

}  // namespace ptl
