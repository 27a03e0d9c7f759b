#include "check/check.hpp"

#include <atomic>
#include <cstdlib>
#include <iostream>

namespace pathsep::check {

namespace {

std::atomic<FailureMode> g_failure_mode{FailureMode::kThrow};

bool audit_env_enabled() {
  const char* env = std::getenv("PATHSEP_AUDIT");
  if (env == nullptr) return false;
  const std::string value(env);
  return !value.empty() && value != "0" && value != "off" && value != "OFF";
}

}  // namespace

void set_failure_mode(FailureMode mode) {
  g_failure_mode.store(mode, std::memory_order_relaxed);
}

FailureMode failure_mode() {
  return g_failure_mode.load(std::memory_order_relaxed);
}

void abort_on_failure() { set_failure_mode(FailureMode::kAbort); }

bool audit_enabled() {
  static const bool enabled = audit_env_enabled();
  return enabled;
}

void fail(const char* kind, const char* expression, const char* file, int line,
          const std::string& context) {
  std::ostringstream report;
  report << "PATHSEP_" << kind << " failed: " << expression << "\n  at "
         << file << ":" << line;
  if (!context.empty()) report << "\n  context: " << context;
  if (failure_mode() == FailureMode::kAbort) {
    std::cerr << report.str() << std::endl;
    std::abort();
  }
  throw CheckFailure(report.str());
}

}  // namespace pathsep::check
