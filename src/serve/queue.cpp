#include "serve/queue.hpp"

#include "obs/trace.hpp"

#include <algorithm>

namespace gbo::serve {
namespace {

constexpr std::uint64_t kNoRequest = ~std::uint64_t{0};

std::size_t pri_index(Priority p) { return static_cast<std::size_t>(p); }

}  // namespace

RequestQueue::PushResult RequestQueue::push(const Request& r,
                                            Request* evicted) {
  PushResult result = PushResult::kAccepted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (policy_.capacity != 0 && size_ >= policy_.capacity) {
      if (policy_.on_full == QueuePolicy::OnFull::kRejectNew) {
        ++stats_.rejected;
        return PushResult::kRejectedFull;
      }
      // kDropOldest: evict the oldest request of the least-important
      // non-empty class — but never evict more-important work to admit a
      // less important arrival; bounce the arrival instead.
      std::size_t victim_class = kNumPriorities;
      for (std::size_t p = kNumPriorities; p-- > 0;) {
        if (!q_[p].empty()) {
          victim_class = p;
          break;
        }
      }
      if (victim_class == kNumPriorities ||
          victim_class < pri_index(r.priority)) {
        ++stats_.rejected;
        return PushResult::kRejectedFull;
      }
      if (evicted != nullptr) *evicted = q_[victim_class].front();
      q_[victim_class].pop_front();
      --size_;
      ++stats_.evicted;
      result = PushResult::kAcceptedEvicted;
    }
    q_[pri_index(r.priority)].push_back(r);
    ++size_;
    ++stats_.pushes;
    depth_sum_ += size_;
    stats_.max_depth = std::max(stats_.max_depth, size_);
  }
  cv_.notify_one();
  return result;
}

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

void RequestQueue::collect_locked(std::size_t cap, std::uint64_t now_us,
                                  Priority min_priority,
                                  std::vector<Request>& out,
                                  std::vector<Request>* shed) {
  const std::size_t floor = pri_index(min_priority);
  for (std::size_t p = 0; p < kNumPriorities; ++p) {
    while (!q_[p].empty() && out.size() < cap) {
      Request r = q_[p].front();
      const bool below_floor = p > floor;
      const bool expired =
          r.deadline_us != 0 && now_us != 0 && r.deadline_us <= now_us;
      if (r.shed || expired || below_floor) {
        q_[p].pop_front();
        --size_;
        ++stats_.sheds;
        if (!r.shed) {
          // Tag the reason here so the planner and the real runtime report
          // identical accounting; control-plane marks keep their reason.
          r.shed = true;
          r.reason = expired ? ShedReason::kExpired : ShedReason::kOverload;
        }
        if (shed != nullptr) shed->push_back(r);
        continue;  // sheds do not consume batch capacity
      }
      q_[p].pop_front();
      --size_;
      out.push_back(r);
    }
  }
}

bool RequestQueue::pop_batch(const BatchPolicy& policy,
                             std::vector<Request>& out,
                             std::vector<Request>* shed) {
  out.clear();
  if (shed != nullptr) shed->clear();
  const std::size_t cap = policy.max_batch == 0 ? 1 : policy.max_batch;
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return closed_ || size_ > 0; });
  if (size_ == 0) return false;  // closed and drained: shutdown
  collect_locked(cap, /*now_us=*/0, Priority::kLow, out, shed);
  GBO_TRACE_EVENT(obs::EventType::kQueuePop, pop_seq_++, 0, size_);
  return true;  // a pure shed flush (empty out) also made progress
}

bool RequestQueue::try_pop_batch(const BatchPolicy& policy,
                                 std::uint64_t now_us, Priority min_priority,
                                 std::vector<Request>& out,
                                 std::vector<Request>& shed) {
  out.clear();
  shed.clear();
  const std::size_t cap = policy.max_batch == 0 ? 1 : policy.max_batch;
  std::lock_guard<std::mutex> lock(mu_);
  if (size_ == 0) return false;
  collect_locked(cap, now_us, min_priority, out, &shed);
  return !out.empty() || !shed.empty();
}

std::size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

std::uint64_t RequestQueue::oldest_enqueue_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t oldest = kNoRequest;
  for (const auto& dq : q_)
    if (!dq.empty()) oldest = std::min(oldest, dq.front().enqueue_us);
  return oldest;
}

RequestQueue::DepthStats RequestQueue::depth_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DepthStats s = stats_;
  s.mean_depth = s.pushes == 0
                     ? 0.0
                     : static_cast<double>(depth_sum_) /
                           static_cast<double>(s.pushes);
  return s;
}

}  // namespace gbo::serve
