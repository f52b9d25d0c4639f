#include "obs/export.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <vector>

#include "serve/metrics.hpp"
#include "tensor/gemm_binary.hpp"

namespace gbo::obs {

namespace {

using serve::hex64;

bool is_span(EventType t) {
  switch (t) {
    case EventType::kBatch:
    case EventType::kStall:
    case EventType::kGemm:
    case EventType::kBinaryMvm:
    case EventType::kPulseEncode:
      return true;
    default:
      return false;
  }
}

bool is_kernel(EventType t) {
  return t == EventType::kGemm || t == EventType::kBinaryMvm ||
         t == EventType::kPulseEncode;
}

}  // namespace

Json chrome_trace(const TraceSnapshot& snap,
                  const std::string& process_name) {
  Json events = Json::array();

  Json pmeta = Json::object();
  pmeta.set("name", "process_name");
  pmeta.set("ph", "M");
  pmeta.set("pid", 0);
  Json pargs = Json::object();
  pargs.set("name", process_name);
  pmeta.set("args", pargs);
  events.push_back(pmeta);

  // One thread-name metadata record per track that actually has events.
  std::array<bool, 256> seen{};
  for (const Event& e : snap.events) {
    if (seen[e.tid]) continue;
    seen[e.tid] = true;
    Json tmeta = Json::object();
    tmeta.set("name", "thread_name");
    tmeta.set("ph", "M");
    tmeta.set("pid", 0);
    tmeta.set("tid", e.tid);
    Json targs = Json::object();
    targs.set("name", e.tid == 0 ? std::string("gbo-main")
                                 : "gbo-pool-" + std::to_string(e.tid));
    tmeta.set("args", targs);
    events.push_back(tmeta);
  }

  for (const Event& e : snap.events) {
    const auto type = static_cast<EventType>(e.type);
    Json ev = Json::object();
    ev.set("name", event_name(type));
    ev.set("cat", is_causal(type) ? "causal" : "timing");
    if (is_span(type)) {
      ev.set("ph", "X");
      ev.set("ts", e.t_us);
      ev.set("dur", e.dur_us);
    } else {
      ev.set("ph", "i");
      ev.set("ts", e.t_us);
      ev.set("s", "t");
    }
    ev.set("pid", 0);
    ev.set("tid", e.tid);
    Json args = Json::object();
    args.set("id", e.id);
    args.set("a", e.a);
    args.set("arg", e.arg);
    ev.set("args", args);
    events.push_back(ev);
  }

  Json doc = Json::object();
  doc.set("traceEvents", events);
  doc.set("displayTimeUnit", "ms");
  doc.set("dropped_events", snap.dropped);
  return doc;
}

bool write_chrome_trace(const TraceSnapshot& snap, const std::string& path,
                        const std::string& process_name) {
  return chrome_trace(snap, process_name).write_file(path);
}

Json trace_summary(const TraceSnapshot& snap) {
  Json j = Json::object();
  j.set("events", snap.events.size());
  j.set("dropped", snap.dropped);
  j.set("causal_events", causal_event_count(snap.events));
  j.set("causal_fingerprint", hex64(causal_fingerprint(snap.events)));

  // Per-stage counts (+ span-duration quantiles where the stage is a span).
  std::array<std::size_t, static_cast<std::size_t>(EventType::kCount)>
      counts{};
  std::array<std::vector<std::uint64_t>,
             static_cast<std::size_t>(EventType::kCount)>
      durs;
  for (const Event& e : snap.events) {
    counts[e.type] += 1;
    if (is_span(static_cast<EventType>(e.type)))
      durs[e.type].push_back(e.dur_us);
  }
  Json stages = Json::object();
  Json kernels = Json::object();
  for (std::size_t t = 0; t < counts.size(); ++t) {
    if (counts[t] == 0) continue;
    const auto type = static_cast<EventType>(t);
    Json s = Json::object();
    s.set("count", counts[t]);
    if (is_span(type)) {
      std::uint64_t total = 0;
      for (std::uint64_t d : durs[t]) total += d;
      s.set("total_us", total);
      const serve::LatencyStats st =
          serve::LatencyStats::compute(std::move(durs[t]));
      s.set("p50_us", st.p50_us);
      s.set("p95_us", st.p95_us);
      s.set("max_us", st.max_us);
    }
    if (is_kernel(type)) {
      // Binary MVM spans ran on the runtime-dispatched kernel; record which
      // one so the breakdown is self-describing.
      if (type == EventType::kBinaryMvm)
        s.set("kernel", gemm::binary_kernel_name());
      kernels.set(event_name(type), s);
    }
    stages.set(event_name(type), s);
  }
  j.set("stages", stages);
  j.set("kernels", kernels);
  return j;
}

}  // namespace gbo::obs
