// Named wall-clock phase regions for coarse per-step profiling
// (forward / backward / exchange / optimizer).
//
// A PhaseScope named "forward" adds its lifetime into the registry gauge
// "phase/forward_seconds" (a relaxed atomic add) and traces itself as a
// span, so phases appear both in the unified metrics snapshot and on
// the Perfetto timeline of whichever rank thread ran them.  Readers take
// the gauge from obs::MetricsRegistry and zero it with
// MetricsRegistry::reset("phase/").
//
// This measures *real* kernel time on the host.  Simulated device time
// (the paper's hours-per-epoch tables) lives in zipflm::sim instead.
#pragma once

#include <string>

#include "zipflm/obs/metrics.hpp"
#include "zipflm/obs/trace.hpp"
#include "zipflm/support/stopwatch.hpp"

namespace zipflm {

class PhaseScope {
 public:
  explicit PhaseScope(const char* name)
      : gauge_(obs::MetricsRegistry::global().gauge(
            std::string("phase/") + name + "_seconds")),
        span_(name) {}
  ~PhaseScope() { gauge_.add(watch_.seconds()); }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  obs::Gauge& gauge_;
  obs::SpanScope span_;
  Stopwatch watch_;
};

}  // namespace zipflm
