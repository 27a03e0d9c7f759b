// Three-level runtime contract layer used across every subsystem.
//
//   PATHSEP_ASSERT(cond, ...)  always-on cheap contracts (argument checks,
//                              state-machine preconditions). Cost must be
//                              O(1)-ish on the call site's own scale.
//   PATHSEP_DCHECK(cond, ...)  debug-only (compiled out under NDEBUG);
//                              for checks too hot for release builds.
//   PATHSEP_AUDIT(stmt)        opt-in deep validation. The statement runs
//                              only when the process runs with environment
//                              PATHSEP_AUDIT=1 (any build). Producing
//                              modules wrap a call to their subsystem's
//                              validator (see check/audit.hpp) in this.
//
// A failed check raises a structured report (failed expression, file:line,
// formatted context). The default failure mode throws check::CheckFailure so
// tests can assert on rejection; release tools call
// check::abort_on_failure() once in main() so corruption aborts with the
// report on stderr instead of unwinding through code that never expected it.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace pathsep::check {

/// Thrown on contract violation in the default failure mode. `what()` is the
/// full structured report.
class CheckFailure : public std::logic_error {
 public:
  explicit CheckFailure(const std::string& report)
      : std::logic_error(report) {}
};

enum class FailureMode {
  kThrow,  ///< throw CheckFailure (default; what tests expect)
  kAbort,  ///< print the report to stderr and std::abort (release tools)
};

void set_failure_mode(FailureMode mode);
FailureMode failure_mode();

/// Convenience for tools: equivalent to set_failure_mode(kAbort).
void abort_on_failure();

/// True when deep audits should run: requested with environment variable
/// PATHSEP_AUDIT=1 (read once, cached). The environment is the only switch,
/// so every build, sanitizer legs included, can audit without a rebuild.
bool audit_enabled();

/// Reports a failed check and either throws or aborts per failure_mode().
/// Not [[noreturn]] only because kThrow unwinds; it never returns normally.
[[noreturn]] void fail(const char* kind, const char* expression,
                       const char* file, int line, const std::string& context);

/// Streams all arguments into one string; zero arguments yield "".
template <class... Parts>
std::string format_context(const Parts&... parts) {
  if constexpr (sizeof...(Parts) == 0) {
    return std::string();
  } else {
    std::ostringstream os;
    (os << ... << parts);
    return os.str();
  }
}

}  // namespace pathsep::check

#define PATHSEP_CHECK_IMPL(kind, cond, ...)                               \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::pathsep::check::fail(kind, #cond, __FILE__, __LINE__,             \
                             ::pathsep::check::format_context(__VA_ARGS__)); \
    }                                                                     \
  } while (0)

/// Always-on cheap contract.
#define PATHSEP_ASSERT(cond, ...) \
  PATHSEP_CHECK_IMPL("ASSERT", cond, ##__VA_ARGS__)

/// Debug-only check; compiled out (condition not evaluated) under NDEBUG.
#ifdef NDEBUG
#define PATHSEP_DCHECK(cond, ...) \
  do {                            \
  } while (0)
#else
#define PATHSEP_DCHECK(cond, ...) \
  PATHSEP_CHECK_IMPL("DCHECK", cond, ##__VA_ARGS__)
#endif

/// Runs `stmt` (typically a deep-validator call) only when auditing is on.
#define PATHSEP_AUDIT(...)                         \
  do {                                             \
    if (::pathsep::check::audit_enabled()) {       \
      __VA_ARGS__;                                 \
    }                                              \
  } while (0)
