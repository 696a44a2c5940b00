// Per-thread lock-free trace buffers exported as Chrome trace-event
// JSON (loadable in Perfetto / chrome://tracing).
//
// Design constraints, in order:
//   * zero allocation and no locks on the hot path — an emit is one
//     relaxed ring-slot store plus a release head bump into a buffer
//     only the owning thread ever writes;
//   * fixed capacity, drop-oldest — a runaway region can never OOM the
//     process, it just loses its own oldest events (the export reports
//     how many were dropped per lane);
//   * compile-out — building with ZIPFLM_TRACE=0 turns every macro into
//     a no-op expression, so the instrumented hot loops carry zero cost
//     in a stripped build;
//   * runtime gate — with tracing compiled in but disabled (the default)
//     a span costs one relaxed atomic load and a branch.
//
// Lanes: every buffer belongs to a named lane that becomes one Perfetto
// track ("rank 0" .. "rank G-1", "serve scheduler N", "pool worker N",
// "main").  Short-lived threads (CommWorld spawns fresh rank threads
// every run()) re-adopt their lane's buffer by name, so a 10-epoch run
// holds G rank buffers, not 10*G.
//
// Synchronization contract: export must not race live emission.  Every
// instrumented subsystem already provides the required happens-before
// edge for free — CommWorld::run joins its rank threads, ThreadPool
// emits strictly between the acquire/release pair of a region's done
// counter, and Server::stop joins the scheduler thread — so exporting
// after run()/stop()/wait has returned is race-free (and TSAN-clean).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#ifndef ZIPFLM_TRACE
#define ZIPFLM_TRACE 1
#endif

namespace zipflm::obs {

/// One recorded event.  `name` and the arg names must be string
/// literals (or otherwise outlive the export) — the ring stores the
/// pointer, never a copy, to keep an emit allocation-free.
struct TraceEvent {
  static constexpr std::size_t kMaxArgs = 4;

  const char* name = nullptr;
  const char* arg_name[kMaxArgs] = {};  ///< optional numeric args, nullptr = none
  double arg[kMaxArgs] = {};
  std::uint64_t start_ns = 0;  ///< since the process trace epoch
  std::uint64_t dur_ns = 0;    ///< 0 for instants
  bool instant = false;
};

/// What one export wrote: totals over every lane.
struct TraceExportStats {
  std::uint64_t events = 0;   ///< events written to the JSON
  std::uint64_t dropped = 0;  ///< events lost to drop-oldest before export
  std::size_t lanes = 0;
};

namespace detail {

extern std::atomic<bool> g_enabled;

/// Nanoseconds since the process trace epoch (first use).
std::uint64_t now_ns();

/// JSON string-escape `s` into `out` (no surrounding quotes).  Shared
/// by the trace and metrics exporters; also used by the telemetry
/// merge writer.
void json_escape(std::ostream& out, std::string_view s);

/// Append to the calling thread's buffer (creating/adopting one on
/// first use).  Only called with tracing enabled.
void emit(const TraceEvent& ev);

}  // namespace detail

/// Cheap hot-path gate: compiled-in and runtime-enabled.
inline bool trace_enabled() noexcept {
#if ZIPFLM_TRACE
  return detail::g_enabled.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

/// Turn runtime collection on/off.  Existing buffers are kept; call
/// trace_clear() for a fresh timeline.
void trace_enable(bool on);

/// The trace clock: nanoseconds since this process's trace epoch (the
/// first use, pinned by trace_enable).  This is the timebase every
/// recorded event carries, and therefore the one the telemetry
/// clock-offset handshake must sample — aligning any other clock would
/// align nothing.
inline std::uint64_t trace_now_ns() { return detail::now_ns(); }

/// Label this process's lane group in merged multi-process exports and
/// the local export's `process_name` metadata ("rank 2", "serve
/// frontend", ...).  Default "zipflm".  Cold path (mutex).
void set_process_label(const std::string& label);
std::string process_label();

/// Events each lane's ring holds before drop-oldest kicks in.  Applies
/// to buffers created afterwards; call before the first emit.
void trace_set_buffer_capacity(std::size_t events);

/// Drop every recorded event (buffers and lane registrations survive).
void trace_clear();

/// Bind the calling thread to a named Perfetto lane.  Threads sharing a
/// label across their (non-overlapping) lifetimes share one buffer —
/// the CommWorld rank-thread pattern.  `sort_key` orders tracks in the
/// UI (ranks first, then scheduler, then pool).  Cold path (mutex).
void set_thread_lane(const std::string& label, int sort_key);

/// Record a zero-duration instant event on the calling thread's lane.
inline void trace_instant(const char* name, const char* arg_name = nullptr,
                          double arg = 0.0) {
  if (!trace_enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.arg_name[0] = arg_name;
  ev.arg[0] = arg;
  ev.start_ns = detail::now_ns();
  ev.instant = true;
  detail::emit(ev);
}

/// RAII span: records a complete event covering its lifetime.  When
/// tracing is disabled at construction the destructor does nothing —
/// the whole scope costs one atomic load.
class SpanScope {
 public:
  explicit SpanScope(const char* name) {
    if (!trace_enabled()) return;
    name_ = name;
    start_ns_ = detail::now_ns();
  }
  SpanScope(const char* name, const char* arg0_name, double arg0)
      : SpanScope(name) {
    arg_name_[0] = arg0_name;
    arg_[0] = arg0;
  }
  SpanScope(const char* name, const char* arg0_name, double arg0,
            const char* arg1_name, double arg1)
      : SpanScope(name, arg0_name, arg0) {
    arg_name_[1] = arg1_name;
    arg_[1] = arg1;
  }

  ~SpanScope() {
    if (name_ == nullptr) return;
    TraceEvent ev;
    ev.name = name_;
    for (std::size_t i = 0; i < TraceEvent::kMaxArgs; ++i) {
      ev.arg_name[i] = arg_name_[i];
      ev.arg[i] = arg_[i];
    }
    ev.start_ns = start_ns_;
    ev.dur_ns = detail::now_ns() - start_ns_;
    detail::emit(ev);
  }

  /// Attach/overwrite the numbered numeric arg (e.g. a byte count
  /// known only mid-scope).  No-op when the span is inactive.
  void set_arg(const char* name, double value) noexcept {
    set_slot(0, name, value);
  }
  void set_arg2(const char* name, double value) noexcept {
    set_slot(1, name, value);
  }
  void set_arg3(const char* name, double value) noexcept {
    set_slot(2, name, value);
  }
  void set_arg4(const char* name, double value) noexcept {
    set_slot(3, name, value);
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  void set_slot(std::size_t i, const char* name, double value) noexcept {
    if (name_ == nullptr) return;
    arg_name_[i] = name;
    arg_[i] = value;
  }

  const char* name_ = nullptr;  ///< nullptr = inactive
  const char* arg_name_[TraceEvent::kMaxArgs] = {};
  double arg_[TraceEvent::kMaxArgs] = {};
  std::uint64_t start_ns_ = 0;
};

/// Serialize every lane's surviving events as Chrome trace-event JSON
/// ({"traceEvents":[...]}) with one tid per lane plus thread_name /
/// thread_sort_index metadata.  See the synchronization contract above.
TraceExportStats write_chrome_trace(std::ostream& out);
TraceExportStats write_chrome_trace_file(const std::string& path);

}  // namespace zipflm::obs

// Scope macros: compile to nothing under ZIPFLM_TRACE=0 so callers
// never need their own #if.
#if ZIPFLM_TRACE
#define ZIPFLM_OBS_CONCAT2(a, b) a##b
#define ZIPFLM_OBS_CONCAT(a, b) ZIPFLM_OBS_CONCAT2(a, b)
#define ZIPFLM_TRACE_SPAN(name) \
  ::zipflm::obs::SpanScope ZIPFLM_OBS_CONCAT(zipflm_span_, __LINE__)(name)
#define ZIPFLM_TRACE_SPAN_ARG(name, arg_name, arg_value)          \
  ::zipflm::obs::SpanScope ZIPFLM_OBS_CONCAT(zipflm_span_,        \
                                             __LINE__)(name, arg_name, \
                                                       arg_value)
#define ZIPFLM_TRACE_INSTANT(...) ::zipflm::obs::trace_instant(__VA_ARGS__)
#else
#define ZIPFLM_TRACE_SPAN(name) ((void)0)
#define ZIPFLM_TRACE_SPAN_ARG(name, arg_name, arg_value) ((void)0)
#define ZIPFLM_TRACE_INSTANT(...) ((void)0)
#endif
