#include "tensor/arena.hpp"

#include "obs/trace.hpp"

#include <algorithm>
#include <cstdint>

namespace gbo {

std::byte* ScratchArena::alloc_bytes(std::size_t n) {
  n = (n + kAlign - 1) & ~(kAlign - 1);
  for (;;) {
    if (cur_ < chunks_.size()) {
      Chunk& c = chunks_[cur_];
      if (c.cap - off_ >= n) {
        std::byte* p = c.base + off_;
        off_ += n;
        stats_.bump_high_water_bytes =
            std::max(stats_.bump_high_water_bytes, prefix_[cur_] + off_);
        return p;
      }
      ++cur_;
      off_ = 0;
      continue;
    }
    // Need a fresh chunk: at least the request, and geometric growth so the
    // chunk count (and the per-request frame bookkeeping) stays tiny.
    const std::size_t cap =
        std::max(n, chunks_.empty() ? kMinChunk : chunks_.back().cap * 2);
    Chunk c;
    c.mem = std::make_unique<std::byte[]>(cap + kAlign - 1);
    const auto addr = reinterpret_cast<std::uintptr_t>(c.mem.get());
    c.base = c.mem.get() + ((kAlign - addr % kAlign) % kAlign);
    c.cap = cap;
    prefix_.push_back(chunks_.empty() ? 0 : prefix_.back() + chunks_.back().cap);
    chunks_.push_back(std::move(c));
    ++stats_.system_allocs;
    stats_.reserved_bytes += cap;
    GBO_TRACE_EVENT(obs::EventType::kArenaAlloc, stats_.system_allocs, 0, cap);
  }
}

float* ScratchArena::alloc_floats(std::size_t n) {
  if (n == 0) return nullptr;
  return reinterpret_cast<float*>(alloc_bytes(n * sizeof(float)));
}

std::uint64_t* ScratchArena::alloc_words(std::size_t n) {
  if (n == 0) return nullptr;
  return reinterpret_cast<std::uint64_t*>(
      alloc_bytes(n * sizeof(std::uint64_t)));
}

Tensor ScratchArena::take_pooled(std::size_t numel) {
  if (pool_.empty()) {
    ++stats_.system_allocs;
    stats_.reserved_bytes += numel * sizeof(float);
    GBO_TRACE_EVENT(obs::EventType::kArenaAlloc, stats_.system_allocs, 0,
                    numel * sizeof(float));
    return Tensor();
  }
  Tensor t = std::move(pool_.back());
  pool_.pop_back();
  const std::size_t cap = t.vec().capacity();
  if (cap < numel) {
    ++stats_.system_allocs;
    stats_.reserved_bytes += (numel - cap) * sizeof(float);
    GBO_TRACE_EVENT(obs::EventType::kArenaAlloc, stats_.system_allocs, 0,
                    (numel - cap) * sizeof(float));
  }
  return t;
}

Tensor ScratchArena::take(const std::vector<std::size_t>& shape) {
  Tensor t = take_pooled(shape_numel(shape));
  t.resize(shape);
  return t;
}

Tensor ScratchArena::take(std::initializer_list<std::size_t> shape) {
  std::size_t numel = 1;
  for (std::size_t d : shape) numel *= d;
  Tensor t = take_pooled(numel);
  t.resize(shape);
  return t;
}

void ScratchArena::put(Tensor&& t) {
  if (t.vec().capacity() == 0) return;  // nothing worth recycling
  pool_.push_back(std::move(t));
}

}  // namespace gbo
