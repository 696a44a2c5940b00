// zipflm::net transport layer and the collective engine over it.
//
// Three strata:
//  * Transport semantics — rendezvous handshake, nonblocking completion,
//    eager and rendezvous messages, bidirectional transfers without
//    deadlock, recv timeouts, and the drain-then-PeerClosedError
//    failure order, on both the in-process and the socket transport.
//  * Collective parity — one battery of collectives under the SharedMem
//    and Socket CommWorld backends must equal the single-threaded ring
//    replay (reference_ring.hpp) and the byte collectives' closed forms
//    bitwise, with identical payload ledgers and measured wire bytes.
//  * Trainer parity — a DistributedTrainer run over sockets reproduces
//    the default backend's losses and weights exactly, at G in {1, 4},
//    FP32/FP16 wire, and with the overlapped bucketed exchange.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "zipflm/comm/process_group.hpp"
#include "zipflm/comm/thread_comm.hpp"
#include "zipflm/core/trainer.hpp"
#include "zipflm/data/corpus.hpp"
#include "zipflm/net/inproc.hpp"
#include "zipflm/net/socket.hpp"
#include "zipflm/net/transport.hpp"
#include "zipflm/support/rng.hpp"
#include "zipflm/tensor/half.hpp"
#include "reference_ring.hpp"

namespace zipflm {
namespace {

std::span<const std::byte> bytes_of(const auto& v) {
  return std::as_bytes(std::span(v));
}

std::span<std::byte> writable_bytes_of(auto& v) {
  return std::as_writable_bytes(std::span(v));
}

// -- Transport semantics: in-process transport -------------------------

TEST(InProcTransport, EndpointIdentityAndVacuousEmptyOps) {
  net::InProcHub hub(3);
  EXPECT_EQ(hub.world_size(), 3);
  auto ep0 = hub.endpoint(0);
  auto ep2 = hub.endpoint(2);
  EXPECT_EQ(ep0->rank(), 0);
  EXPECT_EQ(ep0->world_size(), 3);
  EXPECT_STREQ(ep0->kind(), "inproc");

  // Zero-byte messages complete vacuously, without touching a channel.
  std::vector<std::byte> empty;
  auto c = ep0->send(2, bytes_of(empty));
  EXPECT_FALSE(c.valid());
  EXPECT_TRUE(c.done());
  c.wait();  // must be a no-op
  EXPECT_EQ(ep0->stats().wire_bytes_sent, 0u);

  // Self-sends and out-of-range peers are caller bugs.
  std::vector<std::byte> one(1);
  EXPECT_THROW(ep0->send(0, bytes_of(one)), Error);
  EXPECT_THROW((void)ep2->recv(3, writable_bytes_of(one)), Error);
}

TEST(InProcTransport, NonblockingRecvCompletesWhenMessageArrives) {
  net::InProcHub hub(2);
  auto ep0 = hub.endpoint(0);
  auto ep1 = hub.endpoint(1);

  // Post the receive BEFORE the send exists: completion must be deferred.
  std::vector<int> in(4, 0);
  auto recvd = ep1->recv(0, writable_bytes_of(in));
  EXPECT_FALSE(recvd.done());

  const std::vector<int> out{3, 1, 4, 1};
  ep0->send_blocking(1, bytes_of(out));
  recvd.wait();
  EXPECT_TRUE(recvd.done());
  EXPECT_EQ(in, out);
  EXPECT_EQ(ep0->stats().wire_bytes_sent, sizeof(int) * 4);
  EXPECT_EQ(ep1->stats().wire_bytes_received, sizeof(int) * 4);
}

TEST(InProcTransport, PeerCloseDrainsBufferedMessagesFirst) {
  net::InProcHub hub(2);
  auto ep0 = hub.endpoint(0);
  auto ep1 = hub.endpoint(1);

  const std::vector<float> out{2.5f, -1.0f};
  ep0->send_blocking(1, bytes_of(out));
  ep0->close();

  // The message queued before the close is still delivered...
  std::vector<float> in(2, 0.0f);
  ep1->recv_blocking(0, writable_bytes_of(in));
  EXPECT_EQ(in, out);
  // ...and only then does the dead peer surface.
  EXPECT_THROW(ep1->recv_blocking(0, writable_bytes_of(in)),
               net::PeerClosedError);
  EXPECT_THROW(ep1->send_blocking(0, bytes_of(out)), net::PeerClosedError);
}

TEST(InProcTransport, SizeMismatchIsProtocolError) {
  net::InProcHub hub(2);
  auto ep0 = hub.endpoint(0);
  auto ep1 = hub.endpoint(1);
  const std::vector<std::byte> eight(8);
  ep0->send_blocking(1, bytes_of(eight));
  std::vector<std::byte> four(4);
  EXPECT_THROW(ep1->recv_blocking(0, writable_bytes_of(four)),
               net::ProtocolError);
}

TEST(InProcTransport, LargeSendCompletesOnlyOnceReceived) {
  // A large message is a rendezvous: the receiver copies straight out
  // of the posted buffer, so the send is pending until it has.
  net::InProcHub hub(2);
  auto ep0 = hub.endpoint(0);
  auto ep1 = hub.endpoint(1);
  std::vector<std::byte> out(1 << 20, std::byte{7});
  auto sent = ep0->send(1, bytes_of(out));
  EXPECT_FALSE(sent.done());
  std::vector<std::byte> in(out.size());
  ep1->recv_blocking(0, writable_bytes_of(in));
  sent.wait();
  EXPECT_EQ(in, out);

  // With nobody receiving, the pending send runs into the timeout.
  ep0->set_timeout_seconds(0.05);
  EXPECT_THROW(ep0->send_blocking(1, bytes_of(out)),
               net::TransportTimeoutError);
}

TEST(InProcTransport, RecvInPlaceHandsOverTheSendersBytes) {
  // The ring reduce-scatter adds a rendezvous partial where it lies in
  // the sender's buffer; an eager message arrives through the scratch.
  net::InProcHub hub(2);
  auto ep0 = hub.endpoint(0);
  auto ep1 = hub.endpoint(1);
  const std::vector<std::byte> large(1 << 20, std::byte{3});
  const std::vector<std::byte> small(64, std::byte{4});
  auto sent_large = ep0->send(1, bytes_of(large));
  auto sent_small = ep0->send(1, bytes_of(small));
  std::vector<std::byte> scratch(large.size());
  ep1->recv_in_place(0, scratch, [&](std::span<const std::byte> got) {
    EXPECT_EQ(got.data(), large.data());
  });
  sent_large.wait();
  scratch.resize(small.size());
  ep1->recv_in_place(0, scratch, [&](std::span<const std::byte> got) {
    EXPECT_EQ(got.data(), scratch.data());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), small.begin()));
  });
  sent_small.wait();
}

TEST(InProcTransport, AbandonedLargeSendIsWithdrawn) {
  // A caller unwinding past a pending send frees its buffer; the
  // message must leave the lane with it, never be copied from freed
  // memory.  The next message is what the receiver gets.
  net::InProcHub hub(2);
  auto ep0 = hub.endpoint(0);
  auto ep1 = hub.endpoint(1);
  {
    std::vector<std::byte> doomed(1 << 20, std::byte{1});
    auto sent = ep0->send(1, bytes_of(doomed));
    EXPECT_FALSE(sent.done());
  }
  const std::vector<int> next{42};
  ep0->send_blocking(1, bytes_of(next));
  std::vector<int> in(1, 0);
  ep1->recv_blocking(0, writable_bytes_of(in));
  EXPECT_EQ(in, next);
}

// -- Transport semantics: every backend -------------------------------

using MeshFactory =
    std::vector<std::unique_ptr<net::Transport>> (*)(int world);

std::vector<std::unique_ptr<net::Transport>> inproc_mesh(int world) {
  net::InProcHub hub(world);
  std::vector<std::unique_ptr<net::Transport>> mesh;
  for (int r = 0; r < world; ++r) mesh.push_back(hub.endpoint(r));
  return mesh;
}

class Transports : public ::testing::TestWithParam<MeshFactory> {};

INSTANTIATE_TEST_SUITE_P(
    Meshes, Transports,
    ::testing::Values(&inproc_mesh, &net::socketpair_mesh),
    [](const ::testing::TestParamInfo<MeshFactory>& info) {
      return std::string(info.param == &inproc_mesh ? "InProc" : "Socketpair");
    });

TEST_P(Transports, LargeBidirectionalPayloadsDoNotDeadlock) {
  // Both ranks push 8 MiB at each other head-to-head — beyond any
  // kernel socket buffer and any eager ring, so neither side's send can
  // finish unless its wait() keeps servicing the incoming stream (the
  // progress engine under every symmetric ring step).
  constexpr std::size_t kBytes = 8u << 20;
  auto mesh = GetParam()(2);
  auto run = [&](int r) {
    std::vector<std::byte> out(kBytes);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<std::byte>((i * 31 + static_cast<std::size_t>(r)) &
                                      0xFF);
    }
    std::vector<std::byte> in(kBytes);
    auto sent = mesh[static_cast<std::size_t>(r)]->send(1 - r, out);
    auto recvd = mesh[static_cast<std::size_t>(r)]->recv(1 - r, in);
    sent.wait();
    recvd.wait();
    // What arrived is the peer's pattern, byte for byte.
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (in[i] != static_cast<std::byte>(
                       (i * 31 + static_cast<std::size_t>(1 - r)) & 0xFF)) {
        return false;
      }
    }
    return true;
  };
  auto f1 = std::async(std::launch::async, run, 1);
  EXPECT_TRUE(run(0));
  EXPECT_TRUE(f1.get());
  EXPECT_GE(mesh[0]->stats().wire_bytes_sent, kBytes);
  EXPECT_GE(mesh[0]->stats().wire_bytes_received, kBytes);
}

TEST_P(Transports, MixedSizesStayFifoPastTheEagerRing) {
  // 96 posted sends alternating 4 KiB and 40 KiB, none received yet:
  // small ones fill whatever eager buffering the backend has, then
  // everything waits for the receiver.  Arrival order is post order.
  auto mesh = GetParam()(2);
  constexpr int kMessages = 96;
  auto size_of = [](int i) -> std::size_t {
    return i % 2 == 0 ? 4 * 1024 : 40 * 1024;
  };
  std::vector<std::vector<std::byte>> out(kMessages);
  std::vector<net::Completion> sends;
  for (int i = 0; i < kMessages; ++i) {
    out[static_cast<std::size_t>(i)].assign(size_of(i),
                                            static_cast<std::byte>(i));
  }
  auto receiver = std::async(std::launch::async, [&] {
    bool ok = true;
    for (int i = 0; i < kMessages; ++i) {
      std::vector<std::byte> in(size_of(i));
      mesh[1]->recv_blocking(0, in);
      ok = ok && in == out[static_cast<std::size_t>(i)];
    }
    return ok;
  });
  for (int i = 0; i < kMessages; ++i) {
    sends.push_back(mesh[0]->send(1, bytes_of(out[static_cast<std::size_t>(i)])));
  }
  for (auto& s : sends) s.wait();
  EXPECT_TRUE(receiver.get());
}

TEST_P(Transports, RecvInPlaceDeliversEveryMessage) {
  auto mesh = GetParam()(2);
  for (const std::size_t n : {std::size_t{8}, std::size_t{3} << 20}) {
    std::vector<std::byte> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::byte>(i * 7 & 0xFF);
    }
    // The receiver runs on its own thread: a socket send only drains
    // while its own endpoint is driven.
    auto received = std::async(std::launch::async, [&] {
      std::vector<std::byte> scratch(n);
      bool same = false;
      mesh[1]->recv_in_place(0, scratch, [&](std::span<const std::byte> got) {
        same = std::equal(got.begin(), got.end(), out.begin(), out.end());
      });
      return same;
    });
    mesh[0]->send_blocking(1, bytes_of(out));
    EXPECT_TRUE(received.get()) << n << " bytes";
  }
}

TEST_P(Transports, RecvTimesOut) {
  auto mesh = GetParam()(2);
  mesh[1]->set_timeout_seconds(0.05);
  std::vector<std::byte> in(16);
  EXPECT_THROW(mesh[1]->recv_blocking(0, writable_bytes_of(in)),
               net::TransportTimeoutError);
}

TEST_P(Transports, PeerDeathDrainsThenFails) {
  auto mesh = GetParam()(2);
  const std::vector<double> out{1.25, 2.5};
  mesh[0]->send_blocking(1, bytes_of(out));
  mesh[0]->close();

  std::vector<double> in(2, 0.0);
  mesh[1]->recv_blocking(0, writable_bytes_of(in));  // pre-close bytes
  EXPECT_EQ(in, out);
  EXPECT_THROW(mesh[1]->recv_blocking(0, writable_bytes_of(in)),
               net::PeerClosedError);
}

// -- Transport semantics: socket backend ------------------------------

TEST(SocketTransport, NonblockingCompletionOverSocketpair) {
  auto mesh = net::socketpair_mesh(2);
  ASSERT_EQ(mesh.size(), 2u);
  EXPECT_STREQ(mesh[0]->kind(), "socket");

  std::vector<int> in(3, 0);
  auto recvd = mesh[1]->recv(0, writable_bytes_of(in));
  const std::vector<int> out{7, 8, 9};
  mesh[0]->send_blocking(1, bytes_of(out));
  recvd.wait();
  EXPECT_EQ(in, out);
  EXPECT_GE(mesh[0]->stats().wire_bytes_sent, sizeof(int) * 3);
}

// -- Rendezvous protocol ----------------------------------------------

std::string test_rendezvous_prefix(const char* tag) {
  return std::string("unix:/tmp/zipflm_nt_") + tag + "." +
         std::to_string(::getpid());
}

TEST(SocketRendezvous, ThreeRanksHandshakeAndRing) {
  const std::string addr = test_rendezvous_prefix("ring");
  constexpr int kWorld = 3;
  auto join = [&](int r) {
    net::RendezvousOptions opts;
    opts.timeout_seconds = 20.0;
    auto ep = net::rendezvous(addr, r, kWorld, opts);
    EXPECT_EQ(ep->rank(), r);
    EXPECT_EQ(ep->world_size(), kWorld);
    // One ring hop: send my rank right, receive my left neighbour's.
    const int out = r;
    int in = -1;
    auto sent =
        ep->send((r + 1) % kWorld, std::as_bytes(std::span(&out, 1)));
    ep->recv_blocking((r + kWorld - 1) % kWorld,
                      std::as_writable_bytes(std::span(&in, 1)));
    sent.wait();
    return in == (r + kWorld - 1) % kWorld;
  };
  std::vector<std::future<bool>> fs;
  for (int r = 1; r < kWorld; ++r) {
    fs.push_back(std::async(std::launch::async, join, r));
  }
  EXPECT_TRUE(join(0));
  for (auto& f : fs) EXPECT_TRUE(f.get());
}

TEST(SocketRendezvous, WorldSizeMismatchIsProtocolError) {
  const std::string addr = test_rendezvous_prefix("mismatch");
  net::RendezvousOptions opts;
  opts.timeout_seconds = 5.0;
  // Rank 1 claims a 3-rank world; rank 0 expects 2.  The accepting side
  // sees the hello mismatch (ProtocolError); the dialing side sees its
  // rejected connection die (any transport error).
  auto f1 = std::async(std::launch::async, [&] {
    try {
      (void)net::rendezvous(addr, 1, 3, opts);
      return false;
    } catch (const net::TransportError&) {
      return true;
    }
  });
  EXPECT_THROW((void)net::rendezvous(addr, 0, 2, opts), net::ProtocolError);
  EXPECT_TRUE(f1.get());
}

TEST(ProcessGroup, TwoProcessesWorthOfRanksInThreads) {
  // The full ProcessGroup stack (rendezvous + Communicator + ledger)
  // driven by two in-process ranks — what two zipflm_launch children do,
  // minus the fork.
  const std::string addr = test_rendezvous_prefix("pg");
  auto join = [&](int r) {
    ProcessGroup::Options opt;
    opt.collective_timeout_seconds = 20.0;
    auto pg = ProcessGroup::connect(addr, r, 2, opt);
    std::vector<float> buf(5, static_cast<float>(r + 1));
    pg->comm().allreduce_sum(std::span<float>(buf));
    bool ok = pg->rank() == r && pg->world_size() == 2;
    for (const float v : buf) ok = ok && v == 3.0f;
    ok = ok && pg->ledger().allreduce_calls == 1;
    ok = ok && pg->ledger().wire_bytes_sent > 0;
    return ok;
  };
  auto f1 = std::async(std::launch::async, join, 1);
  EXPECT_TRUE(join(0));
  EXPECT_TRUE(f1.get());
}

// -- Collective parity: every backend against the oracles --------------

struct RankOutcome {
  std::vector<unsigned char> bytes;  ///< every result buffer, concatenated
  TrafficLedger ledger;
};

void append_bytes(std::vector<unsigned char>& out, const void* p,
                  std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  out.insert(out.end(), b, b + n);
}

template <typename T>
void append(std::vector<unsigned char>& out, const std::vector<T>& v) {
  append_bytes(out, v.data(), v.size() * sizeof(T));
}

// The battery's inputs, per rank.  Sizes are prime, so ring chunks are
// uneven, and at G = 64 some of them are empty.
std::vector<float> sum_input(int r) {
  std::vector<float> f(41);
  for (std::size_t j = 0; j < f.size(); ++j) {
    f[j] = 0.125f * static_cast<float>(r + 1) * static_cast<float>(j + 1);
  }
  return f;
}

std::vector<Half> half_input(int r) {
  std::vector<Half> h(23);
  for (std::size_t j = 0; j < h.size(); ++j) {
    h[j] = Half(0.25f * static_cast<float>(r + 1) -
                0.5f * static_cast<float>(j));
  }
  return h;
}

std::vector<float> max_input(int r) {
  std::vector<float> m(17);
  for (std::size_t j = 0; j < m.size(); ++j) {
    m[j] = static_cast<float>((r * 7 + static_cast<int>(j) * 3) % 13) - 6.0f;
  }
  return m;
}

std::vector<float> noisy_input(int r) {
  std::vector<float> v(67);
  Rng rng(900 + static_cast<std::uint64_t>(r));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// The owned chunk of a reduce-scatter result (the rest is scratch).
template <typename T>
std::vector<T> owned_part(const std::vector<T>& v, int r, int g) {
  const ChunkRange c = Communicator::owned_chunk(v.size(), r, g);
  return {v.begin() + static_cast<std::ptrdiff_t>(c.begin),
          v.begin() + static_cast<std::ptrdiff_t>(c.end)};
}

/// One deterministic pass through every collective family.
std::vector<RankOutcome> run_battery(CommBackend backend, int gpus) {
  CommWorld::Options wopt;
  wopt.backend = backend;
  CommWorld world(gpus, wopt);
  std::vector<RankOutcome> outs(static_cast<std::size_t>(gpus));
  world.run([&](Communicator& comm) {
    const int r = comm.rank();
    const int g = comm.world_size();
    auto& out = outs[static_cast<std::size_t>(r)].bytes;
    comm.barrier();

    // Ring collectives, raw and Int8-coded (max is never coded).
    for (const WireCodec codec : {WireCodec::None, WireCodec::Int8}) {
      WireCodecScope scope(comm, codec);
      auto f = sum_input(r);
      comm.allreduce_sum(std::span<float>(f));
      append(out, f);

      auto h = half_input(r);
      comm.allreduce_sum(std::span<Half>(h));
      append(out, h);

      auto m = max_input(r);
      comm.allreduce_max(std::span<float>(m));
      append(out, m);

      auto v = noisy_input(r);
      comm.reduce_scatter_sum(std::span<float>(v));
      append(out, owned_part(v, r, g));
      comm.allgather_chunks(std::span<float>(v));
      append(out, v);

      auto vh = half_input(r);
      comm.reduce_scatter_sum(std::span<Half>(vh));
      append(out, owned_part(vh, r, g));
    }

    // Byte collectives.
    const std::vector<int> mine{r * 3, r * 3 + 1};
    std::vector<int> gathered;
    comm.allgather(std::span<const int>(mine), gathered);
    append(out, gathered);

    const std::vector<double> vmine(static_cast<std::size_t>(r) + 1,
                                    1.5 * r - 0.25);
    std::vector<double> vgathered;
    std::vector<std::size_t> counts;
    comm.allgatherv(std::span<const double>(vmine), vgathered, &counts);
    append(out, vgathered);
    append(out, counts);

    const int root = g > 1 ? 1 : 0;
    std::vector<float> b(9, r == root ? 2.5f : 0.0f);
    comm.broadcast(std::span<float>(b), root);
    append(out, b);

    // alltoallv with uneven per-destination counts (dest d gets d+1
    // elements from every source, so block boundaries differ per pair).
    std::vector<std::int32_t> a2a_send;
    std::vector<std::size_t> a2a_counts(static_cast<std::size_t>(g));
    for (int d = 0; d < g; ++d) {
      a2a_counts[static_cast<std::size_t>(d)] =
          static_cast<std::size_t>(d) + 1;
      for (int j = 0; j <= d; ++j) {
        a2a_send.push_back(r * 100 + d * 10 + j);
      }
    }
    std::vector<std::int32_t> a2a_out;
    std::vector<std::size_t> a2a_recv;
    comm.alltoallv(std::span<const std::int32_t>(a2a_send), a2a_counts,
                   a2a_out, a2a_recv);
    append(out, a2a_out);
    append(out, a2a_recv);

    comm.barrier();
  });
  for (int r = 0; r < gpus; ++r) {
    outs[static_cast<std::size_t>(r)].ledger = world.ledger(r);
  }
  return outs;
}

/// What run_battery must produce: the ring collectives replayed by
/// tests/reference_ring.hpp, the byte collectives in closed form.
std::vector<std::vector<unsigned char>> expected_battery(int g) {
  namespace ref = reference_ring;
  std::vector<std::vector<unsigned char>> outs(static_cast<std::size_t>(g));
  auto per_rank = [g](auto input) {
    std::vector<decltype(input(0))> bufs;
    for (int r = 0; r < g; ++r) bufs.push_back(input(r));
    return bufs;
  };
  for (const WireCodec codec : {WireCodec::None, WireCodec::Int8}) {
    auto f = per_rank(sum_input);
    ref::allreduce(f, ref::Combine::Sum, codec);
    auto h = per_rank(half_input);
    ref::allreduce(h, ref::Combine::Sum, codec);
    auto m = per_rank(max_input);
    ref::allreduce(m, ref::Combine::Max);
    auto v = per_rank(noisy_input);
    ref::reduce_scatter(v, ref::Combine::Sum, codec);
    auto scattered = v;
    ref::allgather_chunks(v);
    auto vh = per_rank(half_input);
    ref::reduce_scatter(vh, ref::Combine::Sum, codec);
    for (int r = 0; r < g; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      auto& out = outs[ri];
      append(out, f[ri]);
      append(out, h[ri]);
      append(out, m[ri]);
      append(out, owned_part(scattered[ri], r, g));
      append(out, v[ri]);
      append(out, owned_part(vh[ri], r, g));
    }
  }
  for (int r = 0; r < g; ++r) {
    auto& out = outs[static_cast<std::size_t>(r)];
    std::vector<int> gathered;
    std::vector<double> vgathered;
    std::vector<std::size_t> counts;
    for (int s = 0; s < g; ++s) {
      gathered.insert(gathered.end(), {s * 3, s * 3 + 1});
      vgathered.insert(vgathered.end(), static_cast<std::size_t>(s) + 1,
                       1.5 * s - 0.25);
      counts.push_back(static_cast<std::size_t>(s) + 1);
    }
    append(out, gathered);
    append(out, vgathered);
    append(out, counts);
    append(out, std::vector<float>(9, 2.5f));
    std::vector<std::int32_t> a2a;
    for (int s = 0; s < g; ++s) {
      for (int j = 0; j <= r; ++j) a2a.push_back(s * 100 + r * 10 + j);
    }
    append(out, a2a);
    append(out, std::vector<std::size_t>(static_cast<std::size_t>(g),
                                         static_cast<std::size_t>(r) + 1));
  }
  return outs;
}

void expect_payload_ledgers_equal(const TrafficLedger& a,
                                  const TrafficLedger& b) {
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.bytes_received, b.bytes_received);
  EXPECT_EQ(a.allreduce_calls, b.allreduce_calls);
  EXPECT_EQ(a.reduce_scatter_calls, b.reduce_scatter_calls);
  EXPECT_EQ(a.allgather_calls, b.allgather_calls);
  EXPECT_EQ(a.alltoall_calls, b.alltoall_calls);
  EXPECT_EQ(a.broadcast_calls, b.broadcast_calls);
  EXPECT_EQ(a.barrier_calls, b.barrier_calls);
  EXPECT_EQ(a.max_allreduce_payload_bytes, b.max_allreduce_payload_bytes);
  EXPECT_EQ(a.max_allgather_payload_bytes, b.max_allgather_payload_bytes);
  EXPECT_EQ(a.max_alltoall_payload_bytes, b.max_alltoall_payload_bytes);
  EXPECT_EQ(a.max_broadcast_payload_bytes, b.max_broadcast_payload_bytes);
  EXPECT_EQ(a.codec.logical_bytes, b.codec.logical_bytes);
  EXPECT_EQ(a.codec.wire_bytes, b.codec.wire_bytes);
  EXPECT_EQ(a.simulated_comm_seconds, b.simulated_comm_seconds);
}

void expect_battery_matches_oracles(int gpus,
                                    std::initializer_list<CommBackend> backends) {
  const auto want = expected_battery(gpus);
  std::vector<std::vector<RankOutcome>> runs;
  for (const CommBackend backend : backends) {
    const auto got = run_battery(backend, gpus);
    for (int r = 0; r < gpus; ++r) {
      const auto& have = got[static_cast<std::size_t>(r)];
      EXPECT_TRUE(want[static_cast<std::size_t>(r)] == have.bytes)
          << "rank " << r << " diverged from the oracles at G=" << gpus
          << " on backend " << static_cast<int>(backend);
      // Every backend moves real bytes once there is a peer.
      if (gpus > 1) {
        EXPECT_GT(have.ledger.wire_bytes_sent, 0u);
        EXPECT_GT(have.ledger.real_comm_seconds, 0.0);
      }
    }
    runs.push_back(got);
  }
  // The payload ledgers are closed forms: equal on every backend.
  for (std::size_t b = 1; b < runs.size(); ++b) {
    for (int r = 0; r < gpus; ++r) {
      expect_payload_ledgers_equal(runs[0][static_cast<std::size_t>(r)].ledger,
                                   runs[b][static_cast<std::size_t>(r)].ledger);
    }
  }
}

TEST(CommunicatorParity, CollectivesMatchTheOraclesBitwise) {
  for (const int gpus : {1, 2, 3, 4}) {
    expect_battery_matches_oracles(
        gpus, {CommBackend::SharedMem, CommBackend::Socket});
  }
}

TEST(CommunicatorParity, SixtyFourRankBatterySmoke) {
  // 4,032 directed pairs, of which the battery's alltoallv touches
  // every one; the in-process lanes exist only once used.
  expect_battery_matches_oracles(64, {CommBackend::SharedMem});
}

// -- Trainer parity: default vs socket backend ---------------

std::vector<Index> tiny_corpus(Index vocab, std::size_t n,
                               std::uint64_t seed) {
  ZipfSampler sampler(static_cast<std::uint64_t>(vocab), 1.1);
  Rng rng(seed);
  std::vector<Index> ids(n);
  for (auto& id : ids) id = static_cast<Index>(sampler.sample(rng) - 1);
  return ids;
}

DistributedTrainer::ModelFactory tiny_word_factory(Index vocab) {
  return [vocab](int /*rank*/) -> std::unique_ptr<LmModel> {
    WordLmConfig cfg;
    cfg.vocab = vocab;
    cfg.embed_dim = 8;
    cfg.hidden_dim = 12;
    cfg.proj_dim = 8;
    cfg.seed = 1234;
    return std::make_unique<WordLm>(cfg);
  };
}

TrainerOptions tiny_options() {
  TrainerOptions opt;
  opt.batch = BatchSpec{2, 6};
  opt.base_lr = 0.2f;
  opt.lr_decay = 1.0f;
  opt.clip = 5.0f;
  opt.charge_static_memory = false;
  return opt;
}

/// Every parameter tensor of every replica, as raw bytes.
std::vector<unsigned char> model_bytes(DistributedTrainer& trainer) {
  std::vector<unsigned char> out;
  for (Param* p : trainer.model(0).all_params()) {
    const auto data = p->value.data();
    append_bytes(out, data.data(), data.size() * sizeof(float));
  }
  return out;
}

void expect_transport_matches_thread(
    int gpus, WirePrecision wire, bool overlapped,
    std::initializer_list<CommBackend> backends) {
  const Index vocab = 50;
  const auto train = tiny_corpus(vocab, 2400, 7);
  const auto valid = tiny_corpus(vocab, 400, 8);

  std::vector<unsigned char> reference;
  double ref_train = 0.0, ref_valid = 0.0;
  TrafficLedger ref_ledger;
  std::vector<CommBackend> all{CommBackend::SharedMem};
  all.insert(all.end(), backends);
  for (const CommBackend backend : all) {
    CommWorld::Options wopt;
    wopt.backend = backend;
    CommWorld world(gpus, wopt);
    TrainerOptions opt = tiny_options();
    opt.samples_per_rank = 16;
    opt.wire = wire;
    opt.overlapped_exchange = overlapped;
    opt.overlap_bucket_bytes = 512;  // several buckets even at toy sizes
    DistributedTrainer trainer(world, tiny_word_factory(vocab), opt);

    EpochStats last{};
    for (int e = 0; e < 2; ++e) last = trainer.run_epoch(train, valid, e);
    EXPECT_TRUE(trainer.replicas_in_sync());

    const auto bytes = model_bytes(trainer);
    const TrafficLedger total = world.total_ledger();
    if (backend == CommBackend::SharedMem) {
      reference = bytes;
      ref_train = last.train_loss;
      ref_valid = last.valid_loss;
      ref_ledger = total;
      continue;
    }
    // Bitwise: the losses are exact doubles and the weights exact bytes.
    EXPECT_EQ(last.train_loss, ref_train);
    EXPECT_EQ(last.valid_loss, ref_valid);
    ASSERT_EQ(bytes.size(), reference.size());
    EXPECT_EQ(0, std::memcmp(bytes.data(), reference.data(), bytes.size()))
        << "transport backend diverged from threads at G=" << gpus;
    // Same payload accounting, plus real wire traffic on top.
    expect_payload_ledgers_equal(ref_ledger, total);
    if (gpus > 1) {
      EXPECT_GT(total.wire_bytes_sent, 0u);
    }
  }
}

TEST(TransportTrainer, MatchesThreadBitwiseG1Fp32) {
  expect_transport_matches_thread(
      1, WirePrecision::FP32, false,
      {CommBackend::Socket});
}

TEST(TransportTrainer, MatchesThreadBitwiseG4Fp32) {
  expect_transport_matches_thread(
      4, WirePrecision::FP32, false,
      {CommBackend::Socket});
}

TEST(TransportTrainer, MatchesThreadBitwiseG4Fp16) {
  expect_transport_matches_thread(4, WirePrecision::FP16, false,
                                  {CommBackend::Socket});
}

TEST(TransportTrainer, OverlappedExchangeOnSocketMatchesThread) {
  expect_transport_matches_thread(4, WirePrecision::FP32, true,
                                  {CommBackend::Socket});
}


// -- RankStep over ProcessGroup: the trainer's step, multi-process ------

/// Pass-through LmModel that records every local step's loss, so the
/// per-rank loss streams of two drivers can be compared step by step.
class LossRecorder final : public LmModel {
 public:
  explicit LossRecorder(std::unique_ptr<LmModel> inner)
      : inner_(std::move(inner)) {
    inner_->set_backward_hook(
        [this](const Param& p) { notify_param_ready(p); });
  }

  void train_step_local(const Batch& batch, std::span<const Index> candidates,
                        LmStepResult& out) override {
    inner_->train_step_local(batch, candidates, out);
    losses.push_back(out.loss);
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
  void step(std::span<const Index> tokens, RecurrentState& state,
            Tensor& logits) override {
    inner_->step(tokens, state, logits);
  }
  std::vector<Param*> dense_params() override {
    return inner_->dense_params();
  }
  ShardedEmbedding* sharded_input() override {
    return inner_->sharded_input();
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
  double flops_per_token() const override { return inner_->flops_per_token(); }
  std::size_t activation_bytes_per_token() const override {
    return inner_->activation_bytes_per_token();
  }
  void zero_grad() override { inner_->zero_grad(); }
  Rng& dropout_rng() override { return inner_->dropout_rng(); }

  std::vector<float> losses;

 private:
  std::unique_ptr<LmModel> inner_;
};

/// One rank's trajectory: every step's loss and the final weights.
struct Trajectory {
  std::vector<float> losses;
  std::vector<unsigned char> weights;
};

std::vector<unsigned char> param_bytes(LmModel& model) {
  std::vector<unsigned char> out;
  for (Param* p : model.all_params()) {
    const auto data = p->value.data();
    append_bytes(out, data.data(), data.size() * sizeof(float));
  }
  return out;
}

/// G threads, each its own ProcessGroup rank over UNIX sockets — what G
/// zipflm_launch children do, minus the fork — drive a RankStep for
/// two epochs the way DistributedTrainer::run_epoch does: the epoch's
/// learning rate, a session of steps over the rank's data shard, then
/// the validation pass.  Every rank's per-step losses and final weights
/// must be bitwise equal to the trainer's over CommWorld threads.
void expect_rank_step_over_process_group_matches_trainer(
    const char* tag, const DistributedTrainer::ModelFactory& factory,
    const TrainerOptions& opt, Index vocab) {
  constexpr int kWorld = 4;
  constexpr int kEpochs = 2;
  const auto train = tiny_corpus(vocab, 2400, 17);
  const auto valid = tiny_corpus(vocab, 400, 18);

  std::vector<LossRecorder*> recorders(kWorld);
  CommWorld world(kWorld);
  DistributedTrainer trainer(
      world,
      [&](int r) {
        auto m = std::make_unique<LossRecorder>(factory(r));
        recorders[static_cast<std::size_t>(r)] = m.get();
        return m;
      },
      opt);
  for (int e = 0; e < kEpochs; ++e) trainer.run_epoch(train, valid, e);
  const int nodes = world.topology().nodes;

  const std::string addr = test_rendezvous_prefix(tag);
  auto run_rank = [&](int r) {
    ProcessGroup::Options popt;
    popt.collective_timeout_seconds = 60.0;
    auto pg = ProcessGroup::connect(addr, r, kWorld, popt);
    Communicator& comm = pg->comm();
    auto owned = std::make_unique<LossRecorder>(factory(r));
    LossRecorder* recorder = owned.get();
    RankStep rank(opt, std::move(owned), r, kWorld);
    std::uint64_t global_step = 0;
    Batch batch;
    for (int e = 0; e < kEpochs; ++e) {
      rank.optimizer().set_learning_rate(
          scaled_learning_rate(opt.base_lr, nodes, e, opt.lr_decay));
      {
        RankStep::Session session(rank, comm);
        BatchIterator it(train, opt.batch, r, kWorld);
        while (it.next(batch)) session.step(batch, global_step++);
      }
      BatchIterator vit(valid, opt.batch, r, kWorld);
      while (vit.next(batch)) rank.eval_loss(comm, batch);
    }
    return Trajectory{recorder->losses, param_bytes(rank.model())};
  };
  std::vector<std::future<Trajectory>> peers;
  for (int r = 1; r < kWorld; ++r) {
    peers.push_back(std::async(std::launch::async, run_rank, r));
  }
  std::vector<Trajectory> got;
  got.push_back(run_rank(0));
  for (auto& f : peers) got.push_back(f.get());

  for (int r = 0; r < kWorld; ++r) {
    const auto& g = got[static_cast<std::size_t>(r)];
    LossRecorder& want = *recorders[static_cast<std::size_t>(r)];
    ASSERT_FALSE(want.losses.empty());
    EXPECT_EQ(g.losses, want.losses) << "rank " << r << " loss stream";
    EXPECT_TRUE(g.weights == param_bytes(want)) << "rank " << r << " weights";
  }
}

TEST(RankStepProcessGroup, SampledSoftmaxWordLmMatchesTrainerBitwise) {
  const Index vocab = 50;
  TrainerOptions opt = tiny_options();
  opt.samples_per_rank = 16;
  opt.seed_policy = SeedPolicy::ZipfFreq;
  opt.wire = WirePrecision::FP16;
  expect_rank_step_over_process_group_matches_trainer(
      "rs_word", tiny_word_factory(vocab), opt, vocab);
}

TEST(RankStepProcessGroup, DynamicLossScaleCharLmMatchesTrainerBitwise) {
  const Index vocab = 30;
  TrainerOptions opt = tiny_options();
  opt.use_adam = true;
  opt.base_lr = 5e-3f;
  opt.dynamic_loss_scale = true;
  const DistributedTrainer::ModelFactory factory =
      [vocab](int /*rank*/) -> std::unique_ptr<LmModel> {
    CharLmConfig cfg;
    cfg.vocab = vocab;
    cfg.embed_dim = 8;
    cfg.hidden_dim = 10;
    cfg.depth = 2;
    cfg.dropout = 0.1f;
    cfg.seed = 99;
    return std::make_unique<CharLm>(cfg);
  };
  expect_rank_step_over_process_group_matches_trainer("rs_char", factory, opt,
                                                      vocab);
}

}  // namespace
}  // namespace zipflm
