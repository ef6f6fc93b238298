// The cross-process TCP transport, exercised inside ONE test process: TCP
// over loopback does not care that the p ranks are threads rather than
// processes, so each "rank" here is a thread owning its own rank-r Config,
// TcpMesh/Runtime, and port — exactly what p bsp_launch children would own.
// (The true multi-process path is covered by scripts/run_proc_smoke.sh tcp,
// which drives the real launcher.)
//
// Covered seams: the mesh bootstrap (full p-rank build, every failure mode
// with its descriptive BspTransportError, reusability after failure), the
// end-to-end Runtime exchange across ranks, mesh reuse across clean runs,
// and peer death surfacing as BspTransportError + wire-dirty rebuild.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/mesh.hpp"
#include "core/runtime.hpp"
#include "core/transport.hpp"
#include "core/transport_mesh.hpp"

namespace gbsp {
namespace {

// Each test gets its own 16-port slot inside a per-process window of
// kSlotsPerWindow slots; the window is derived from the pid so parallel
// ctest invocations of this binary do not fight over ports. Windows are
// disjoint (a slot never spills into the next pid's window) and the highest
// port stays below 65536.
constexpr int kPortsPerSlot = 16;
constexpr int kSlotsPerWindow = 16;
constexpr int kWindowPorts = kPortsPerSlot * kSlotsPerWindow;
constexpr int kFirstPort = 21000;
constexpr int kWindows = (65536 - kFirstPort) / kWindowPorts;

int port_base(int test_slot) {
  EXPECT_LT(test_slot, kSlotsPerWindow) << "grow kSlotsPerWindow";
  const int window = static_cast<int>(::getpid()) % kWindows;
  return kFirstPort + window * kWindowPorts + test_slot * kPortsPerSlot;
}

Config rank_cfg(int rank, int nprocs, int port) {
  Config cfg;
  cfg.nprocs = nprocs;
  cfg.delivery = DeliveryStrategy::Tcp;
  cfg.rank = rank;
  cfg.tcp_port = port;
  cfg.collect_stats = true;
  return cfg;
}

// Runs fn(rank) on one thread per rank and rethrows the first failure after
// every thread has joined (a bootstrap error on one rank typically also
// unblocks/errors the others; joining first keeps the test deterministic).
void on_ranks(int nprocs, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) {
    threads.emplace_back([&, r] {
      try {
        fn(r);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// A raw TCP client for impersonating a (broken) peer during bootstrap.
int dial(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  int rc = -1;
  for (int tries = 0; tries < 500; ++tries) {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    if (rc == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(rc, 0) << "fake peer could not reach the mesh listener";
  return fd;
}

// --------------------------------------------------------------------------
// Mesh bootstrap: the happy path.
// --------------------------------------------------------------------------

TEST(TcpMeshBootstrap, FullMeshAcrossFourRanks) {
  const int p = 4;
  const int base = port_base(0);
  on_ranks(p, [&](int r) {
    const Config cfg = rank_cfg(r, p, base);
    detail::TcpMesh mesh(cfg);
    EXPECT_TRUE(mesh.dirty()) << "a fresh mesh must start dirty";
    mesh.build(p);
    EXPECT_FALSE(mesh.dirty());
    EXPECT_EQ(mesh.builds(), 1u);
    EXPECT_EQ(mesh.fd(r, r), -1) << "self-delivery never touches the wire";
    for (int peer = 0; peer < p; ++peer) {
      if (peer == r) continue;
      EXPECT_GE(mesh.fd(r, peer), 0) << "rank " << r << " <-> " << peer;
    }
    // One byte each way per pair proves the streams are the right streams
    // (the handshake already proved who is on the other end).
    for (int peer = 0; peer < p; ++peer) {
      if (peer == r) continue;
      const char out = static_cast<char>(0x40 + r);
      ASSERT_EQ(::send(mesh.fd(r, peer), &out, 1, 0), 1);
    }
    for (int peer = 0; peer < p; ++peer) {
      if (peer == r) continue;
      char in = 0;
      ssize_t got = 0;
      for (int tries = 0; tries < 1000 && got <= 0; ++tries) {
        got = ::recv(mesh.fd(r, peer), &in, 1, 0);
        if (got <= 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ASSERT_EQ(got, 1);
      EXPECT_EQ(in, static_cast<char>(0x40 + peer));
    }
  });
}

// --------------------------------------------------------------------------
// Mesh bootstrap failure modes. Each must throw a descriptive
// BspTransportError AND leave the mesh reusable (dirty, torn down, ready to
// build again).
// --------------------------------------------------------------------------

TEST(TcpMeshBootstrap, PortAlreadyInUseIsDescriptive) {
  const int base = port_base(1);
  // Occupy rank 0's port with a plain listener that is NOT a mesh rank.
  const int squatter = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(squatter, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(base));
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  ASSERT_EQ(::bind(squatter, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  ASSERT_EQ(::listen(squatter, 1), 0);

  Config cfg = rank_cfg(0, 2, base);
  cfg.tcp_connect_timeout_ms = 2'000;
  detail::TcpMesh mesh(cfg);
  try {
    mesh.build(2);
    FAIL() << "bind on an occupied port must fail the bootstrap";
  } catch (const BspTransportError& e) {
    EXPECT_NE(std::string(e.what()).find("port already in use"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(std::to_string(base)),
              std::string::npos)
        << "error should name the endpoint: " << e.what();
  }
  EXPECT_TRUE(mesh.dirty()) << "failed build must leave the mesh dirty";
  EXPECT_EQ(mesh.builds(), 0u);
  ::close(squatter);

  // Reusable after failure: with the squatter gone and a real peer present,
  // the same mesh object bootstraps.
  std::thread peer([&] {
    Config pc = rank_cfg(1, 2, base);
    detail::TcpMesh pm(pc);
    pm.build(2);
    EXPECT_FALSE(pm.dirty());
  });
  mesh.build(2);
  EXPECT_FALSE(mesh.dirty());
  EXPECT_EQ(mesh.builds(), 1u);
  peer.join();
}

TEST(TcpMeshBootstrap, PartialConnectTimesOutDescriptively) {
  // Rank 1 of 2 dials a rank 0 that never launches: the connect retry loop
  // must give up at tcp_connect_timeout_ms with a message that names the
  // missing rank, not hang.
  Config cfg = rank_cfg(1, 2, port_base(2));
  cfg.tcp_connect_timeout_ms = 300;
  detail::TcpMesh mesh(cfg);
  try {
    mesh.build(2);
    FAIL() << "connect to a never-launched rank must time out";
  } catch (const BspTransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("connect to rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("timed out"), std::string::npos) << what;
    EXPECT_NE(what.find("tcp_connect_timeout_ms=300"), std::string::npos)
        << what;
  }
  EXPECT_TRUE(mesh.dirty());
}

TEST(TcpMeshBootstrap, SelfConnectedDialIsDetected) {
  // A dial whose source port equals its destination port connects to
  // itself (TCP simultaneous open) when nobody listens there. Force that
  // deterministically: bind a socket to a loopback port, then connect it
  // to that same port. The dialer must see a self-connection, never a
  // peer; a real link to a listener, and an AF_UNIX pair, are no such
  // thing.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  socklen_t len = sizeof(sa);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len), 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0)
      << std::strerror(errno);
  EXPECT_TRUE(detail::self_connected(fd));
  ::close(fd);

  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in la{};
  la.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &la.sin_addr);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&la), sizeof(la)), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  len = sizeof(la);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&la), &len), 0);
  const int client = dial(ntohs(la.sin_port));
  const int server = ::accept(lfd, nullptr, nullptr);
  ASSERT_GE(server, 0);
  EXPECT_FALSE(detail::self_connected(client));
  EXPECT_FALSE(detail::self_connected(server));
  ::close(server);
  ::close(client);
  ::close(lfd);

  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  EXPECT_FALSE(detail::self_connected(pair[0]));
  ::close(pair[0]);
  ::close(pair[1]);
}

TEST(TcpMeshBootstrap, PartialAcceptTimesOutDescriptively) {
  // Rank 0 of 3 sees rank 1 arrive but rank 2 never does: the accept loop
  // must report how many ranks are missing.
  const int base = port_base(3);
  Config c0 = rank_cfg(0, 3, base);
  c0.tcp_connect_timeout_ms = 1'500;
  detail::TcpMesh mesh(c0);
  std::thread half_peer([&] {
    // Rank 1 dials rank 0 and then waits for rank 2 forever (bounded by its
    // own timeout); its failure is expected and swallowed.
    Config c1 = rank_cfg(1, 3, base);
    c1.tcp_connect_timeout_ms = 2'000;
    detail::TcpMesh pm(c1);
    EXPECT_THROW(pm.build(3), BspTransportError);
  });
  try {
    mesh.build(3);
    FAIL() << "bootstrap with an absent rank must time out";
  } catch (const BspTransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("timed out"), std::string::npos) << what;
    EXPECT_NE(what.find("still unconnected"), std::string::npos) << what;
  }
  EXPECT_TRUE(mesh.dirty());
  half_peer.join();
}

TEST(TcpMeshBootstrap, HandshakeVersionMismatchIsDescriptive) {
  const int base = port_base(4);
  std::promise<void> listener_up;
  std::thread fake_peer([&] {
    listener_up.get_future().wait();
    const int fd = dial(base);
    detail::RankHello h;
    h.version = 99;  // wrong protocol version, correct magic
    h.rank = 1;
    h.nprocs = 2;
    ASSERT_EQ(::send(fd, &h, sizeof(h), 0),
              static_cast<ssize_t>(sizeof(h)));
    char sink[64];
    (void)::recv(fd, sink, sizeof(sink), 0);  // wait for the close
    ::close(fd);
  });
  Config cfg = rank_cfg(0, 2, base);
  cfg.tcp_connect_timeout_ms = 5'000;
  detail::TcpMesh mesh(cfg);
  listener_up.set_value();  // racy-but-safe: dial() retries until bound
  try {
    mesh.build(2);
    FAIL() << "a v99 hello must fail the handshake";
  } catch (const BspTransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("v99"), std::string::npos) << what;
  }
  EXPECT_TRUE(mesh.dirty());
  fake_peer.join();
}

TEST(TcpMeshBootstrap, HandshakeRankMismatchIsDescriptive) {
  const int base = port_base(5);
  std::thread fake_peer([&] {
    const int fd = dial(base);
    detail::RankHello h;
    h.rank = 7;  // far outside a 2-rank run
    h.nprocs = 2;
    ASSERT_EQ(::send(fd, &h, sizeof(h), 0),
              static_cast<ssize_t>(sizeof(h)));
    char sink[64];
    (void)::recv(fd, sink, sizeof(sink), 0);
    ::close(fd);
  });
  Config cfg = rank_cfg(0, 2, base);
  cfg.tcp_connect_timeout_ms = 5'000;
  detail::TcpMesh mesh(cfg);
  try {
    mesh.build(2);
    FAIL() << "a hello claiming rank 7 of 2 must fail";
  } catch (const BspTransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 7"), std::string::npos) << what;
  }
  EXPECT_TRUE(mesh.dirty());
  fake_peer.join();
}

TEST(TcpMeshBootstrap, HandshakeNprocsMismatchIsDescriptive) {
  const int base = port_base(6);
  std::thread fake_peer([&] {
    const int fd = dial(base);
    detail::RankHello h;
    h.rank = 1;
    h.nprocs = 8;  // launched with a different -p than us
    ASSERT_EQ(::send(fd, &h, sizeof(h), 0),
              static_cast<ssize_t>(sizeof(h)));
    char sink[64];
    (void)::recv(fd, sink, sizeof(sink), 0);
    ::close(fd);
  });
  Config cfg = rank_cfg(0, 2, base);
  cfg.tcp_connect_timeout_ms = 5'000;
  detail::TcpMesh mesh(cfg);
  try {
    mesh.build(2);
    FAIL() << "a hello claiming an 8-rank run must fail a 2-rank build";
  } catch (const BspTransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nprocs mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("8 ranks"), std::string::npos) << what;
  }
  EXPECT_TRUE(mesh.dirty());
  fake_peer.join();
}

TEST(TcpMeshBootstrap, StrayClientWithBadMagicIsDescriptive) {
  const int base = port_base(7);
  std::thread fake_peer([&] {
    const int fd = dial(base);
    const char junk[24] = "GET / HTTP/1.1\r\n";  // not a gbsp rank at all
    ASSERT_EQ(::send(fd, junk, sizeof(junk), 0),
              static_cast<ssize_t>(sizeof(junk)));
    char sink[64];
    (void)::recv(fd, sink, sizeof(sink), 0);
    ::close(fd);
  });
  Config cfg = rank_cfg(0, 2, base);
  cfg.tcp_connect_timeout_ms = 5'000;
  detail::TcpMesh mesh(cfg);
  try {
    mesh.build(2);
    FAIL() << "an HTTP client wandering in must not join the mesh";
  } catch (const BspTransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad magic"), std::string::npos) << what;
    EXPECT_NE(what.find("not a gbsp mesh rank"), std::string::npos) << what;
  }
  EXPECT_TRUE(mesh.dirty());
  fake_peer.join();
}

TEST(TcpMeshBootstrap, PeerDeathDuringAcceptIsDescriptive) {
  const int base = port_base(8);
  std::thread fake_peer([&] {
    const int fd = dial(base);
    ::close(fd);  // connect, then die before speaking
  });
  Config cfg = rank_cfg(0, 2, base);
  cfg.tcp_connect_timeout_ms = 2'000;
  detail::TcpMesh mesh(cfg);
  try {
    mesh.build(2);
    FAIL() << "a peer dying between connect and hello must fail the build";
  } catch (const BspTransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("peer died during accept"), std::string::npos)
        << what;
  }
  EXPECT_TRUE(mesh.dirty());
  fake_peer.join();

  // Reusable: a real rank 1 arrives and the same mesh object builds clean.
  std::thread peer([&] {
    Config pc = rank_cfg(1, 2, base);
    detail::TcpMesh pm(pc);
    pm.build(2);
    EXPECT_FALSE(pm.dirty());
  });
  mesh.build(2);
  EXPECT_FALSE(mesh.dirty());
  peer.join();
}

// --------------------------------------------------------------------------
// End-to-end: p single-rank Runtimes exchanging across the TCP mesh.
// --------------------------------------------------------------------------

TEST(TcpRuntime, AllToAllAcrossRanks) {
  const int p = 4;
  const int base = port_base(9);
  const int steps = 20;
  on_ranks(p, [&](int r) {
    Runtime rt(rank_cfg(r, p, base));
    EXPECT_STREQ(rt.transport().name(), "tcp");
    const RunStats stats = rt.run([steps](Worker& w) {
      for (int s = 0; s < steps; ++s) {
        for (int d = 0; d < w.nprocs(); ++d) {
          if (d != w.pid()) w.send(d, w.pid() * 1000 + s);
        }
        w.sync();
        int got = 0;
        bool seen[8] = {};
        while (const Message* m = w.get_message()) {
          const int v = m->as<int>();
          EXPECT_EQ(v % 1000, s);
          EXPECT_EQ(v / 1000, static_cast<int>(m->source));
          seen[m->source] = true;
          ++got;
        }
        if (got != w.nprocs() - 1) {
          throw std::logic_error("tcp: lost messages");
        }
        for (int src = 0; src < w.nprocs(); ++src) {
          if (src != w.pid() && !seen[src]) {
            throw std::logic_error("tcp: missing source");
          }
        }
      }
    });
    // steps sync() boundaries plus the tail segment after the last sync.
    EXPECT_EQ(stats.S(), static_cast<std::size_t>(steps) + 1);
    EXPECT_GT(stats.total_wire_bytes(), 0u);
  });
}

TEST(TcpRuntime, CleanRunsReuseTheMesh) {
  const int p = 2;
  const int base = port_base(10);
  on_ranks(p, [&](int r) {
    Runtime rt(rank_cfg(r, p, base));
    auto program = [](Worker& w) {
      w.send(1 - w.pid(), w.pid());
      w.sync();
      if (w.get_message() == nullptr) {
        throw std::logic_error("tcp: missing message");
      }
    };
    rt.run(program);
    rt.run(program);
    rt.run(program);
    auto* tcp = dynamic_cast<MeshTransport*>(&rt.transport());
    ASSERT_NE(tcp, nullptr);
    EXPECT_EQ(tcp->debug_mesh_builds(), 1u)
        << "clean runs must reuse the bootstrapped mesh";
  });
}

TEST(TcpRuntime, LargeFramesCrossTheMesh) {
  // Payloads far beyond the kernel's default socket buffers force the
  // partial-I/O resume paths and the grow-only buffer autotuning.
  const int p = 2;
  const int base = port_base(11);
  const std::size_t big = std::size_t{3} << 20;  // 3 MiB each way
  on_ranks(p, [&](int r) {
    Runtime rt(rank_cfg(r, p, base));
    rt.run([big](Worker& w) {
      std::vector<std::uint8_t> blob(big);
      for (std::size_t i = 0; i < blob.size(); ++i) {
        blob[i] = static_cast<std::uint8_t>((i * 131 + w.pid()) & 0xff);
      }
      w.send_bytes(1 - w.pid(), blob.data(), blob.size());
      w.sync();
      const Message* m = w.get_message();
      if (m == nullptr || m->size() != big) {
        throw std::logic_error("tcp: large frame lost or truncated");
      }
      const auto* got = m->payload.data();
      for (std::size_t i = 0; i < big; i += 4097) {
        const auto want =
            static_cast<std::uint8_t>((i * 131 + (1 - w.pid())) & 0xff);
        if (static_cast<std::uint8_t>(got[i]) != want) {
          throw std::logic_error("tcp: large frame corrupted");
        }
      }
    });
  });
}

TEST(TcpRuntime, PeerDeathSurfacesAndMeshRebuilds) {
  // Phase 1: both ranks run clean. Phase 2: rank 1's process "dies" (its
  // Runtime is destroyed, closing its endpoints); rank 0's next exchange
  // must surface BspTransportError, not hang. Phase 3: a fresh rank-1
  // incarnation appears and rank 0's SAME Runtime — wire marked dirty by
  // the failure — rebuilds the mesh and completes.
  const int base = port_base(12);
  std::promise<void> rank1_dead;
  std::promise<void> rank0_failed;
  auto ping = [](Worker& w) {
    w.send(1 - w.pid(), 7);
    w.sync();
    if (w.get_message() == nullptr) {
      throw std::logic_error("tcp: missing message");
    }
  };

  std::thread rank0([&] {
    Config cfg = rank_cfg(0, 2, base);
    cfg.socket_stage_timeout_ms = 20'000;
    Runtime rt(cfg);
    rt.run(ping);  // phase 1
    rank1_dead.get_future().wait();
    try {
      rt.run(ping);  // phase 2: peer is gone
      FAIL() << "exchange against a dead peer must throw";
    } catch (const BspTransportError&) {
      // expected: EOF / ECONNRESET from the dead rank, wire now dirty
    }
    rank0_failed.set_value();
    rt.run(ping);  // phase 3: rebuild against the new incarnation
    auto* tcp = dynamic_cast<MeshTransport*>(&rt.transport());
    ASSERT_NE(tcp, nullptr);
    EXPECT_EQ(tcp->debug_mesh_builds(), 2u)
        << "the failed run must force exactly one mesh rebuild";
  });

  std::thread rank1([&] {
    {
      Runtime rt(rank_cfg(1, 2, base));
      rt.run(ping);  // phase 1
    }  // Runtime destroyed: endpoints closed, "process death"
    rank1_dead.set_value();
    rank0_failed.get_future().wait();
    Config cfg = rank_cfg(1, 2, base);
    cfg.tcp_connect_timeout_ms = 20'000;
    Runtime rt(cfg);
    rt.run(ping);  // phase 3
  });
  rank0.join();
  rank1.join();
}

TEST(TcpRuntime, RetryPathRecoversFromPeerRestart) {
  // Same scenario, but rank 0 is configured with max_run_retries: the
  // recovery machinery (PR 5) must absorb the BspTransportError, rebuild
  // the wire, and replay the run without the caller seeing the failure.
  const int base = port_base(13);
  std::atomic<int> rank1_phase{0};
  auto ping = [](Worker& w) {
    w.send(1 - w.pid(), 9);
    w.sync();
    if (w.get_message() == nullptr) {
      throw std::logic_error("tcp: missing message");
    }
  };

  std::thread rank0([&] {
    Config cfg = rank_cfg(0, 2, base);
    cfg.max_run_retries = 3;
    cfg.retry_backoff_us = 50'000;
    cfg.tcp_connect_timeout_ms = 20'000;
    cfg.socket_stage_timeout_ms = 20'000;
    Runtime rt(cfg);
    rt.run(ping);                       // phase 1: clean
    while (rank1_phase.load() < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const RunStats stats = rt.run(ping);  // phase 2: dies, retries, succeeds
    EXPECT_GE(stats.recoveries, 1u)
        << "the peer restart must be absorbed as a recovery, not a failure";
  });

  std::thread rank1([&] {
    {
      Runtime rt(rank_cfg(1, 2, base));
      rt.run(ping);  // phase 1
    }
    rank1_phase.store(1);
    // Give rank 0 time to slam into the dead endpoints and start retrying,
    // then come back up as the restarted incarnation.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    Config cfg = rank_cfg(1, 2, base);
    cfg.tcp_connect_timeout_ms = 20'000;
    Runtime rt(cfg);
    rt.run(ping);  // phase 2 replay partner
  });
  rank0.join();
  rank1.join();
}

}  // namespace
}  // namespace gbsp
