#include "lib/logging.h"

#include <cstdio>
#include <cstdlib>

namespace ptl {

namespace {

void (*log_sink)(const std::string &) = nullptr;

std::string
vstrprintf(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    std::string out(n > 0 ? n : 0, '\0');
    if (n > 0)
        std::vsnprintf(out.data(), n + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

void
emit(const std::string &line)
{
    if (log_sink) {
        log_sink(line);
    } else {
        std::fputs(line.c_str(), stderr);
        std::fputc('\n', stderr);
    }
}

}  // namespace

std::string
strprintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrprintf(fmt, ap);
    va_end(ap);
    return s;
}

void
setLogSink(void (*sink)(const std::string &))
{
    log_sink = sink;
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const char * /*file*/, int /*line*/, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("warn: " + vstrprintf(fmt, ap));
    va_end(ap);
}

void
informImpl(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit(vstrprintf(fmt, ap));
    va_end(ap);
}

}  // namespace ptl
