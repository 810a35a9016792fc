/**
 * @file
 * Status/error reporting helpers in the gem5 tradition.
 *
 * panic()  - an internal simulator invariant was violated (a ptlsim bug);
 *            prints a message and aborts so a core dump is produced.
 * fatal()  - the simulation cannot continue due to a user-level problem
 *            (bad configuration, malformed guest image); exits with code 1.
 * warn()   - something is modeled approximately; simulation continues.
 * inform() - plain status output.
 */

#ifndef PTLSIM_LIB_LOGGING_H_
#define PTLSIM_LIB_LOGGING_H_

#include <cstdarg>
#include <cstdint>
#include <string>

namespace ptl {

/** Format a printf-style message into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

[[noreturn]] void panicImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));
[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));
void warnImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));
void informImpl(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Route all warn()/inform() output through this sink (default stderr). */
void setLogSink(void (*sink)(const std::string &line));

}  // namespace ptl

#define panic(...)  ::ptl::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define fatal(...)  ::ptl::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
#define warn(...)   ::ptl::warnImpl(__FILE__, __LINE__, __VA_ARGS__)
#define inform(...) ::ptl::informImpl(__VA_ARGS__)

/**
 * Assert a simulator invariant; compiled in all build types.
 *
 * The condition is captured into a local exactly once, so expressions
 * with side effects (pop(), i++) behave identically whether or not the
 * assertion fires, and the macro body never re-stringifies an already
 * evaluated expression. do/while(0) keeps it statement-safe inside
 * unbraced if/else arms.
 */
#define ptl_assert(cond)                                                  \
    do {                                                                  \
        const bool _ptl_assert_ok = static_cast<bool>(cond);              \
        if (__builtin_expect(!_ptl_assert_ok, 0))                         \
            panic("assertion failed: %s", #cond);                         \
    } while (0)

/**
 * Emit a warning the first time this callsite is reached, then stay
 * silent. The invariant checker (src/verify) uses this for non-fatal
 * drift so a per-cycle violation cannot flood the log.
 */
#define ptl_warn_once(...)                                                \
    do {                                                                  \
        static bool _ptl_warned_once = false;                             \
        if (!_ptl_warned_once) {                                          \
            _ptl_warned_once = true;                                      \
            warn(__VA_ARGS__);                                            \
        }                                                                 \
    } while (0)

#endif  // PTLSIM_LIB_LOGGING_H_
