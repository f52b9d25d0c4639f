// Always-on request tracing and kernel profiling (DESIGN.md §9).
//
// The serving runtime makes dozens of invisible decisions per request —
// admission, eviction, deadline shed, ladder level, retry/breaker routing,
// binary-vs-float kernel dispatch — and the kernel layer adds
// its own (packed GEMM, XNOR/popcount MVM, pulse encode). This module gives
// every one of them a low-overhead event channel:
//
//   * per-thread, fixed-capacity event buffers (TraceRing): the owning
//     thread appends 32-byte typed events with two clock reads and no
//     locks; when a ring fills, new events are DROPPED and counted (never
//     blocking, never reallocating). After warmup a steady-state serving
//     run performs zero heap allocations attributable to tracing
//     (ring_allocs() makes that auditable, and bench_serve gates it);
//   * a session protocol: begin_session() rewinds every ring and restamps
//     the clock epoch, end_session() snapshots all events. Sessions may
//     only toggle while no traced thread is running (the pool is parked);
//   * the causal/timing split: every event is a causal tuple
//     (type, id, a, arg) — request id, verdict, attempt count, serve mode,
//     virtual time — plus a timing part (wall-clock ts/dur, thread track).
//     Only causal-class events (is_causal) enter the FNV-1a fingerprint,
//     and the fingerprint sorts tuples canonically first, so it is
//     independent of worker count, thread interleaving, batch composition,
//     and the machine's clock: the trace becomes a cross-machine CI
//     artifact exactly like the shed-set fingerprint (DESIGN.md §7).
//     Timing-class events (batch formation, kernel spans, queue depth)
//     carry real wall-clock and are never fingerprinted.
//
// Switches: compiling with -DGBO_TRACE=0 (CMake option GBO_TRACE=OFF)
// removes every hook — the GBO_TRACE_* macros expand to nothing and the
// serving/kernel layers carry zero tracing code. At runtime the GBO_TRACE
// environment variable (unset or "1" = on, "0" = off) is a kill switch for
// perf-sensitive runs; set_runtime_enabled() overrides it (tests).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#ifndef GBO_TRACE
#define GBO_TRACE 1
#endif

namespace gbo::obs {

/// Event vocabulary. Causal events (is_causal) describe control decisions
/// and are fingerprinted; the rest are timing/profiling events.
enum class EventType : std::uint8_t {
  // ---- causal: request lifecycle --------------------------------------
  kAdmit = 0,    // id=request, a=admission verdict (Decision::Outcome code:
                 //   0 admitted, 1 rejected, 2 evicted), arg=deadline_us
  kShed = 1,     // id=request, a=shed outcome code (3 expired, 4 overload)
  kRetry = 2,    // id=request, a=failed primary attempts observed
  kDeliver = 3,  // id=request, a=ServeMode code, arg=virtual completion us
  // ---- causal: control-plane transitions (virtual clock) --------------
  kLadder = 4,   // id=transition seq, a=new level, arg=virtual us
  kBreaker = 5,  // id=transition seq, a=1 (opened), arg=virtual us
  // ---- causal: replica routing (DESIGN.md §10) -------------------------
  kRoute = 6,    // id=request, a=replica index, arg=active replica count
  // ---- causal: model versioning / hot swap (DESIGN.md §11) -------------
  kSwap = 7,     // id=replica, a=model version cut over to, arg=virtual us
  kCanary = 8,   // id=canary replica, a=verdict (1 promote, 0 rollback),
                 // arg=virtual verdict us
  // ---- timing: serving pipeline ---------------------------------------
  kBatch = 9,        // span: id=batch seq, a=route (0 primary, 1 degraded),
                     // arg=rows executed
  kBatchMember = 10, // instant: id=request, arg=batch seq
  kQueuePop = 11,    // instant: id=batch seq, arg=queue depth after the pop
  kStall = 12,       // span: injected stall + retry backoff, arg=slept us
  // ---- timing: kernel profiling ---------------------------------------
  kGemm = 13,         // span: packed-panel GEMM, arg=2*m*n*k
  kBinaryMvm = 14,    // span: XNOR/popcount MVM, arg=2*m*n*k
  kPulseEncode = 15,  // span: pulse-train encode, arg=pulses encoded
  kArenaAlloc = 16,   // instant: arena system alloc, arg=bytes
  kCount
};

/// True for event types whose (type, id, a, arg) tuple enters the causal
/// fingerprint.
constexpr bool is_causal(EventType t) {
  return static_cast<std::uint8_t>(t) <=
         static_cast<std::uint8_t>(EventType::kCanary);
}

const char* event_name(EventType t);

/// One trace event: causal part (type, id, a, arg) + timing part
/// (t_us, dur_us, tid). 32 bytes so a 64Ki-event ring is 2 MiB.
struct Event {
  std::uint64_t id = 0;    // request id / batch seq / transition seq
  std::uint64_t arg = 0;   // causal argument (deadline, virtual time, rows)
  std::uint64_t t_us = 0;  // wall-clock start, relative to the session epoch
  std::uint32_t dur_us = 0;  // span duration; 0 = instant event
  std::uint16_t a = 0;       // small causal payload (verdict/mode/attempts)
  std::uint8_t type = 0;     // EventType
  std::uint8_t tid = 0;      // thread track (stamped at emit)
};

/// Fixed-capacity single-writer event buffer. The owning thread appends;
/// anyone may read AFTER a happens-before edge (e.g. the pool joining).
/// When full, new events are dropped and counted — emission never blocks
/// and never allocates.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity) : buf_(capacity) {}

  void emit(const Event& e) {
    if (head_ < buf_.size()) {
      buf_[head_] = e;
      ++head_;
    } else {
      ++dropped_;
    }
  }

  void rewind() {
    head_ = 0;
    dropped_ = 0;
  }

  std::size_t size() const { return head_; }
  std::uint64_t dropped() const { return dropped_; }
  const Event* data() const { return buf_.data(); }
  std::size_t capacity() const { return buf_.size(); }

 private:
  std::vector<Event> buf_;
  std::size_t head_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Everything one session observed, merged across rings.
struct TraceSnapshot {
  std::vector<Event> events;
  std::uint64_t dropped = 0;
};

#if GBO_TRACE

/// Runtime kill switch: GBO_TRACE env (unset/1 = on, 0 = off), overridable
/// from code. Emission is a single branch on this flag when off.
bool runtime_enabled();
void set_runtime_enabled(bool on);

/// Microseconds since the current session epoch (process start before the
/// first begin_session()).
std::uint64_t now_us();

/// Rewinds every registered ring and restamps the clock epoch. Must not
/// race active emission (call with the pool parked).
void begin_session();

/// Snapshots all rings (events sorted by start time). Rings keep
/// accumulating afterwards; the next begin_session() rewinds them.
TraceSnapshot end_session();

/// Process-wide count of ring-buffer creations. Steady-state serving must
/// not mint new rings: bench_serve gates the delta across a measured run.
std::uint64_t ring_allocs();

/// Ring capacity (events per thread) for rings created after the call;
/// default 1<<16, env GBO_TRACE_RING_CAP overrides. Test hook.
void set_ring_capacity(std::size_t cap);

/// Ensures the calling thread's ring exists without emitting anything.
/// Long-lived loops (serving worker blocks) call this on entry so the warm
/// run deterministically mints every ring the measured run will touch —
/// steady-state emission then never allocates.
void prime();

/// Emits an instant event on the calling thread's ring.
void emit(EventType type, std::uint64_t id, std::uint16_t a,
          std::uint64_t arg);

/// RAII span: records start on construction, emits on destruction with the
/// measured duration. No-op when tracing is off at runtime.
class Span {
 public:
  Span(EventType type, std::uint64_t id, std::uint16_t a, std::uint64_t arg)
      : type_(type), id_(id), a_(a), arg_(arg),
        start_(runtime_enabled() ? now_us() + 1 : 0) {}
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Updates the span's arg payload before it is emitted (e.g. rows
  /// executed, known only after the work ran).
  void set_arg(std::uint64_t arg) { arg_ = arg; }

 private:
  EventType type_;
  std::uint64_t id_;
  std::uint16_t a_;
  std::uint64_t arg_;
  std::uint64_t start_;  // now_us() + 1 at construction; 0 = disabled
};

#define GBO_TRACE_EVENT(type, id, a, arg) \
  ::gbo::obs::emit((type), (id), (a), (arg))
#define GBO_TRACE_CONCAT2(x, y) x##y
#define GBO_TRACE_CONCAT(x, y) GBO_TRACE_CONCAT2(x, y)
#define GBO_TRACE_SPAN(type, id, a, arg)                      \
  ::gbo::obs::Span GBO_TRACE_CONCAT(gbo_trace_span_, __LINE__)( \
      (type), (id), (a), (arg))

#else  // !GBO_TRACE — hooks compile away entirely.

inline bool runtime_enabled() { return false; }
inline void set_runtime_enabled(bool) {}
inline std::uint64_t now_us() { return 0; }
inline void begin_session() {}
inline TraceSnapshot end_session() { return {}; }
inline std::uint64_t ring_allocs() { return 0; }
inline void set_ring_capacity(std::size_t) {}
inline void prime() {}
inline void emit(EventType, std::uint64_t, std::uint16_t, std::uint64_t) {}

#define GBO_TRACE_EVENT(type, id, a, arg) ((void)0)
#define GBO_TRACE_SPAN(type, id, a, arg) ((void)0)

#endif  // GBO_TRACE

/// One causal tuple; the fingerprint is computed over a canonically sorted
/// set of these, so emission order (worker interleaving) cannot matter.
struct CausalTuple {
  std::uint64_t id = 0;
  std::uint8_t type = 0;
  std::uint16_t a = 0;
  std::uint64_t arg = 0;

  friend bool operator<(const CausalTuple& x, const CausalTuple& y) {
    if (x.id != y.id) return x.id < y.id;
    if (x.type != y.type) return x.type < y.type;
    if (x.a != y.a) return x.a < y.a;
    return x.arg < y.arg;
  }
};

/// FNV-1a 64 over the sorted tuples' bytes (id LE, type, a LE, arg LE).
/// Pure; shared by the trace collector and the planner-derived oracle.
std::uint64_t fingerprint_tuples(std::vector<CausalTuple> tuples);

/// Extracts the causal-class events of a snapshot and fingerprints them.
std::uint64_t causal_fingerprint(const std::vector<Event>& events);

/// Number of causal-class events in a snapshot.
std::size_t causal_event_count(const std::vector<Event>& events);

}  // namespace gbo::obs
