// Shutdown under fire: concurrent submit/stop/wait must never hang,
// double-join, or leave an accepted request without a terminal
// Response.  Exercised with many client threads so TSAN can prove the
// stop() path free of the double-join and lost-wakeup races.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "zipflm/nn/lm_model.hpp"
#include "zipflm/serve/server.hpp"
#include "zipflm/support/error.hpp"

namespace zipflm::serve {
namespace {

std::unique_ptr<CharLm> small_char(std::uint64_t seed = 3) {
  CharLmConfig cfg;
  cfg.vocab = 20;
  cfg.embed_dim = 5;
  cfg.hidden_dim = 7;
  cfg.depth = 2;
  cfg.seed = seed;
  return std::make_unique<CharLm>(cfg);
}

Request session_request(std::uint64_t session, std::size_t new_tokens,
                        std::uint64_t seed) {
  Request r;
  r.session_id = session;
  r.context = {static_cast<Index>(1 + session % 10), 2, 3};
  r.new_tokens = new_tokens;
  r.options.max_context = 512;
  r.seed = seed;
  return r;
}

/// Serves through `inner`, but holds every step() until release() — the
/// test, not the host's speed, decides when a request may finish.
class GatedModel final : public LmModel {
 public:
  explicit GatedModel(std::unique_ptr<LmModel> inner)
      : inner_(std::move(inner)) {}

  /// Block until the scheduler thread is parked inside a step().
  void wait_entered() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return entered_; });
  }
  void release() {
    {
      std::lock_guard lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

  void step(std::span<const Index> tokens, RecurrentState& state,
            Tensor& logits) override {
    {
      std::unique_lock lock(mutex_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_; });
    }
    inner_->step(tokens, state, logits);
  }

  void train_step_local(const Batch& batch, std::span<const Index> candidates,
                        LmStepResult& out) override {
    inner_->train_step_local(batch, candidates, out);
  }
  float eval_loss(const Batch& batch) override {
    return inner_->eval_loss(batch);
  }
  Tensor next_token_logits(std::span<const Index> context) override {
    return inner_->next_token_logits(context);
  }
  RecurrentState initial_state(Index batch) const override {
    return inner_->initial_state(batch);
  }
  std::vector<Param*> dense_params() override {
    return inner_->dense_params();
  }
  std::vector<Param*> all_params() override { return inner_->all_params(); }
  Param& input_embedding_param() override {
    return inner_->input_embedding_param();
  }
  Param* sampled_output_param() override {
    return inner_->sampled_output_param();
  }
  Index vocab() const override { return inner_->vocab(); }
  Index embed_dim() const override { return inner_->embed_dim(); }
  double flops_per_token() const override {
    return inner_->flops_per_token();
  }
  std::size_t activation_bytes_per_token() const override {
    return inner_->activation_bytes_per_token();
  }
  void zero_grad() override { inner_->zero_grad(); }
  Rng& dropout_rng() override { return inner_->dropout_rng(); }

 private:
  std::unique_ptr<LmModel> inner_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool open_ = false;
};

bool terminal(const Response& r) {
  return r.status == ResponseStatus::Ok ||
         r.status == ResponseStatus::FailedShutdown;
}

TEST(ServeStress, ConcurrentSubmitAndStopResolvesEveryAcceptedRequest) {
  auto model = small_char();
  ServeOptions options;
  options.max_batch = 4;
  options.queue_depth = 16;
  options.drain_on_stop = false;  // fail-fast: the harsher path
  Server server(*model, options);
  server.start();

  constexpr int kClients = 6;
  constexpr int kPerClient = 20;
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> resolved{0};
  std::atomic<std::uint64_t> completed_ok{0};
  // Submissions accepted after shutdown completed sit parked in the
  // admission queue for a future start(); wait() refuses them.
  std::atomic<std::uint64_t> parked{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const Admission a = server.submit(session_request(
            static_cast<std::uint64_t>(c), 40,
            static_cast<std::uint64_t>(c * 1000 + i)));
        if (!a.accepted) {
          EXPECT_GT(a.retry_after_seconds, 0.0)
              << "backpressure must never hint an immediate retry";
          continue;
        }
        accepted.fetch_add(1);
        try {
          const Response r = server.wait(a.request_id);
          EXPECT_EQ(r.request_id, a.request_id);
          EXPECT_TRUE(terminal(r));
          if (r.status == ResponseStatus::Ok) completed_ok.fetch_add(1);
          resolved.fetch_add(1);
        } catch (const Error&) {
          parked.fetch_add(1);
        }
      }
    });
  }

  // Let some work land, then pull the rug with racing stop() calls.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread stopper_a([&] { server.stop(); });
  std::thread stopper_b([&] { server.stop(); });
  stopper_a.join();
  stopper_b.join();
  for (auto& t : clients) t.join();

  // Every request accepted before shutdown reached a terminal state —
  // nobody hung — and the counters balance.
  EXPECT_EQ(resolved.load() + parked.load(), accepted.load());
  const ServeCounters counters = server.counters();
  EXPECT_EQ(counters.requests_completed, completed_ok.load());
  EXPECT_EQ(counters.requests_completed + counters.requests_failed +
                parked.load(),
            counters.requests_admitted);
}

TEST(ServeStress, DrainStopFinishesInFlightWork) {
  auto model = small_char();
  ServeOptions options;
  options.max_batch = 8;
  options.drain_on_stop = true;
  Server server(*model, options);
  server.start();

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    const Admission a = server.submit(
        session_request(static_cast<std::uint64_t>(i), 30,
                        static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(a.accepted);
    ids.push_back(a.request_id);
  }
  server.stop();  // drain: everything queued must finish Ok

  for (const std::uint64_t id : ids) {
    Response r;
    ASSERT_TRUE(server.poll(id, r));
    EXPECT_EQ(r.status, ResponseStatus::Ok);
    EXPECT_EQ(r.tokens.size(), 3u + 30u);
  }
  const ServeCounters counters = server.counters();
  EXPECT_EQ(counters.requests_completed, 8u);
  EXPECT_EQ(counters.requests_failed, 0u);
}

// Regression: a waiter that arrives while a drain-mode stop() is
// joining the scheduler (started_ already false, the request still in
// flight) must block for the drained response, not throw.  This race
// is how ConcurrentSubmitAndStop once counted one request both as
// parked and as failed.
TEST(ServeStress, WaitDuringDrainStopReturnsTerminalResponse) {
  GatedModel model(small_char());
  ServeOptions options;
  options.drain_on_stop = true;
  Server server(model, options);
  server.start();
  const Admission a = server.submit(session_request(1, 20, 7));
  ASSERT_TRUE(a.accepted);
  model.wait_entered();  // in flight, and held until release()

  // stop() commits to stopping, then blocks joining the held scheduler:
  // the stop window stays open until release().
  std::thread stopper([&] { server.stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread idler([&] { EXPECT_NO_THROW(server.wait_idle()); });
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    model.release();
  });
  Response r;
  EXPECT_NO_THROW(r = server.wait(a.request_id));
  releaser.join();
  idler.join();
  stopper.join();
  EXPECT_EQ(r.request_id, a.request_id);
  EXPECT_EQ(r.status, ResponseStatus::Ok);
  EXPECT_EQ(r.tokens.size(), 3u + 20u);
}

TEST(ServeStress, FailFastStopResolvesLongRequests) {
  auto model = small_char();
  ServeOptions options;
  options.max_batch = 4;
  options.drain_on_stop = false;
  Server server(*model, options);
  server.start();

  // Requests long enough that stop() lands mid-generation.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    const Admission a = server.submit(
        session_request(static_cast<std::uint64_t>(i), 400,
                        static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(a.accepted);
    ids.push_back(a.request_id);
  }
  server.stop();

  std::size_t failed = 0;
  for (const std::uint64_t id : ids) {
    Response r;
    ASSERT_TRUE(server.poll(id, r)) << "request " << id << " left unresolved";
    EXPECT_TRUE(terminal(r));
    if (r.status == ResponseStatus::FailedShutdown) {
      // Partial output is surfaced: at least the context survives.
      EXPECT_GE(r.tokens.size(), 3u);
      EXPECT_LT(r.tokens.size(), 3u + 400u);
      ++failed;
    }
  }
  EXPECT_EQ(server.counters().requests_failed, failed);
}

TEST(ServeStress, BlockedWaitersWakeOnStop) {
  auto model = small_char();
  ServeOptions options;
  options.drain_on_stop = false;
  Server server(*model, options);
  server.start();

  const Admission a =
      server.submit(session_request(1, 400, 7));
  ASSERT_TRUE(a.accepted);

  std::atomic<bool> waiter_done{false};
  std::thread waiter([&] {
    const Response r = server.wait(a.request_id);
    EXPECT_TRUE(terminal(r));
    waiter_done = true;
  });
  std::thread idler([&] { server.wait_idle(); });

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.stop();
  waiter.join();  // would hang forever without the shutdown wakeup
  idler.join();
  EXPECT_TRUE(waiter_done.load());
}

TEST(ServeStress, StopWithoutStartIsSafeAndRepeatable) {
  auto model = small_char();
  Server server(*model, ServeOptions{});
  server.stop();
  server.stop();
  SUCCEED();
}

TEST(ServeStress, RestartAfterStopServesAgain) {
  auto model = small_char();
  ServeOptions options;
  options.drain_on_stop = false;
  Server server(*model, options);

  for (int round = 0; round < 3; ++round) {
    server.start();
    const Admission a = server.submit(
        session_request(static_cast<std::uint64_t>(round), 5,
                        static_cast<std::uint64_t>(round)));
    ASSERT_TRUE(a.accepted);
    const Response r = server.wait(a.request_id);
    EXPECT_TRUE(terminal(r));
    server.stop();
  }
}

TEST(ServeStress, BackpressureHintIsPositiveBeforeFirstCompletion) {
  auto model = small_char();
  ServeOptions options;
  options.max_batch = 1;
  options.queue_depth = 1;
  Server server(*model, options);  // never started: queue can only fill

  ASSERT_TRUE(server.submit(session_request(1, 5, 1)).accepted);
  const Admission rejected = server.submit(session_request(2, 5, 2));
  EXPECT_FALSE(rejected.accepted);
  // Regression: with no completed requests the measured mean latency is
  // zero; the hint must fall back to default_retry_seconds, not tell
  // clients to hammer the queue immediately.
  EXPECT_EQ(rejected.retry_after_seconds, options.default_retry_seconds);

  server.start();
  server.stop();  // resolve the queued request (FailedShutdown or Ok)
}

}  // namespace
}  // namespace zipflm::serve
