// The cross-process shared-memory transport, exercised inside ONE test
// process: abstract AF_UNIX sockets and memfd mappings do not care that the
// p ranks are threads rather than processes, so each "rank" here is a
// thread owning its own rank-r Config, ShmMesh/Runtime, and slice of a
// per-test segment name — exactly what p bsp_launch children would own.
// (The true multi-process path is covered by scripts/run_proc_smoke.sh,
// which drives the real launcher.)
//
// Covered seams: the mesh bootstrap (full p-rank build with fd-passed pair
// segments, the failure matrix — fd-pass death, geometry mismatches, rank
// collisions — each with its descriptive BspTransportError), the
// end-to-end Runtime exchange across ranks, mesh reuse across clean runs,
// peer death mid-stage surfacing through the control channel, and the
// zero-copy slab path (threshold routing, stats, epoch recycling, the
// reuse-after-recycle guard's inline fallback).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstring>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/channel.hpp"
#include "core/mesh.hpp"
#include "core/runtime.hpp"
#include "core/transport.hpp"
#include "core/transport_mesh.hpp"

namespace gbsp {
namespace {

// Per-test segment namespace: the pid isolates parallel ctest invocations
// of this binary, the slot isolates tests within one invocation.
std::string seg_name(int test_slot) {
  return "t" + std::to_string(static_cast<long>(::getpid())) + "s" +
         std::to_string(test_slot);
}

Config rank_cfg(int rank, int nprocs, const std::string& name) {
  Config cfg;
  cfg.nprocs = nprocs;
  cfg.delivery = DeliveryStrategy::Shm;
  cfg.rank = rank;
  cfg.shm_name = name;
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

// A raw AF_UNIX client for impersonating a (broken) peer during bootstrap:
// dials `rank`'s abstract listener for segment namespace `name`.
int dial(const std::string& name, int rank) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  const std::string tag = "gbsp-shm." + name + "." + std::to_string(rank);
  std::memcpy(sa.sun_path + 1, tag.data(), tag.size());
  const socklen_t salen =
      static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + 1 + tag.size());
  int rc = -1;
  for (int tries = 0; tries < 500; ++tries) {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), salen);
    if (rc == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(rc, 0) << "fake peer could not reach the shm bootstrap listener";
  return fd;
}

// --------------------------------------------------------------------------
// Mesh bootstrap: the happy path.
// --------------------------------------------------------------------------

TEST(ShmMeshBootstrap, FullMeshAcrossFourRanks) {
  const int p = 4;
  const std::string name = seg_name(0);
  on_ranks(p, [&](int r) {
    const Config cfg = rank_cfg(r, p, name);
    detail::ShmMesh mesh(cfg);
    EXPECT_TRUE(mesh.dirty()) << "a fresh mesh must start dirty";
    mesh.build(p);
    EXPECT_FALSE(mesh.dirty());
    EXPECT_EQ(mesh.builds(), 1u);
    EXPECT_EQ(mesh.fd(r, r), -1) << "self-delivery never touches the wire";
    EXPECT_EQ(mesh.channel(r, r), nullptr);
    for (int peer = 0; peer < p; ++peer) {
      if (peer == r) continue;
      EXPECT_GE(mesh.fd(r, peer), 0)
          << "control channel " << r << " <-> " << peer;
      auto* ring = dynamic_cast<detail::RingChannel*>(mesh.channel(r, peer));
      ASSERT_NE(ring, nullptr) << "pair view " << r << " <-> " << peer;
      const detail::ShmPairView* pv = &ring->pair();
      ASSERT_NE(pv->send.ctl, nullptr);
      ASSERT_NE(pv->recv.ctl, nullptr);
      EXPECT_GT(pv->send.ring_cap, 0u);
      EXPECT_GT(pv->send.slab_cap, 0u);
    }
    std::uint64_t syscalls = 0;
    const detail::IoSite at{r, -1, -1, -1, 0, &syscalls};
    // One byte each way per pair through the rings proves both ends mapped
    // the SAME segment with the directions crossed correctly.
    for (int peer = 0; peer < p; ++peer) {
      if (peer == r) continue;
      detail::Channel* ch = mesh.channel(r, peer);
      const std::byte out{static_cast<unsigned char>(0x40 + r)};
      iovec iov{const_cast<std::byte*>(&out), 1};
      ASSERT_EQ(ch->write(&iov, 1, 0, at), 1u);
    }
    for (int peer = 0; peer < p; ++peer) {
      if (peer == r) continue;
      detail::Channel* ch = mesh.channel(r, peer);
      std::byte in{};
      iovec iov{&in, 1};
      std::size_t got = 0;
      for (int tries = 0; tries < 2000 && got == 0; ++tries) {
        got = ch->read(&iov, 1, 1, 0, at);
        if (got == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ASSERT_EQ(got, 1u);
      EXPECT_EQ(static_cast<int>(in), 0x40 + peer);
    }
  });
}

// --------------------------------------------------------------------------
// Mesh bootstrap failure modes. Each must throw a descriptive
// BspTransportError AND leave the mesh reusable (dirty, torn down, ready to
// build again).
// --------------------------------------------------------------------------

TEST(ShmMeshBootstrap, RankCollisionUnderOneNameIsDescriptive) {
  // Two processes launched with the same GBSP_RANK under one shm_name: the
  // second bind of the same abstract address must fail up front.
  const std::string name = seg_name(1);
  Config c0 = rank_cfg(0, 2, name);
  c0.tcp_connect_timeout_ms = 2'000;
  detail::ShmMesh first(c0);
  std::thread holder([&] {
    // Holds rank 0's listener long enough for the duplicate to collide;
    // its own (expected) accept timeout is swallowed.
    EXPECT_THROW(first.build(2), BspTransportError);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  detail::ShmMesh dup(rank_cfg(0, 2, name));
  try {
    dup.build(2);
    FAIL() << "two rank 0s under one shm_name must not both bind";
  } catch (const BspTransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("already running under this shm_name"),
              std::string::npos)
        << what;
  }
  EXPECT_TRUE(dup.dirty());
  EXPECT_EQ(dup.builds(), 0u);
  holder.join();
}

TEST(ShmMeshBootstrap, PeerDiesDuringSegmentHandoffIsDescriptive) {
  // Rank 1 dials a fake "rank 0" that completes the hello exchange but dies
  // before passing the segment fd — the committed-then-died case the
  // dialer must NOT retry (unlike a handshake-phase close).
  const std::string name = seg_name(2);
  std::thread fake_rank0([&] {
    const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    const std::string tag = "gbsp-shm." + name + ".0";
    std::memcpy(sa.sun_path + 1, tag.data(), tag.size());
    const socklen_t salen = static_cast<socklen_t>(
        offsetof(sockaddr_un, sun_path) + 1 + tag.size());
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&sa), salen), 0);
    ASSERT_EQ(::listen(lfd, 1), 0);
    const int fd = ::accept(lfd, nullptr, nullptr);
    ASSERT_GE(fd, 0);
    detail::RankHello in;
    ASSERT_EQ(::recv(fd, &in, sizeof(in), MSG_WAITALL),
              static_cast<ssize_t>(sizeof(in)));
    detail::RankHello out;  // valid hello claiming rank 0 of 2
    out.rank = 0;
    out.nprocs = 2;
    ASSERT_EQ(::send(fd, &out, sizeof(out), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(out)));
    ::close(fd);  // die instead of passing the memfd
    ::close(lfd);
  });
  Config cfg = rank_cfg(1, 2, name);
  cfg.tcp_connect_timeout_ms = 5'000;
  detail::ShmMesh mesh(cfg);
  try {
    mesh.build(2);
    FAIL() << "a peer dying between hello and fd-pass must fail the build";
  } catch (const BspTransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("peer closed during segment handoff"),
              std::string::npos)
        << what;
  }
  EXPECT_TRUE(mesh.dirty());
  EXPECT_EQ(mesh.builds(), 0u);
  fake_rank0.join();

  // Reusable after failure: with a real rank 0 present, the same mesh
  // object bootstraps.
  std::thread peer([&] {
    Config pc = rank_cfg(0, 2, name);
    detail::ShmMesh pm(pc);
    pm.build(2);
    EXPECT_FALSE(pm.dirty());
  });
  mesh.build(2);
  EXPECT_FALSE(mesh.dirty());
  EXPECT_EQ(mesh.builds(), 1u);
  peer.join();
}

TEST(ShmMeshBootstrap, PeerClosingDuringHandshakeIsRetried) {
  // The counterpart of the handoff case: a "rank 0" that reads rank 1's
  // hello and closes without answering looks like a previous incarnation
  // tearing down. The dialer must retry, and connect once the real rank 0
  // comes up, instead of failing the build.
  const std::string name = seg_name(12);
  std::thread rank0([&] {
    {
      const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      ASSERT_GE(lfd, 0);
      sockaddr_un sa{};
      sa.sun_family = AF_UNIX;
      const std::string tag = "gbsp-shm." + name + ".0";
      std::memcpy(sa.sun_path + 1, tag.data(), tag.size());
      const socklen_t salen = static_cast<socklen_t>(
          offsetof(sockaddr_un, sun_path) + 1 + tag.size());
      ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&sa), salen), 0);
      ASSERT_EQ(::listen(lfd, 1), 0);
      const int fd = ::accept(lfd, nullptr, nullptr);
      ASSERT_GE(fd, 0);
      detail::RankHello in;
      ASSERT_EQ(::recv(fd, &in, sizeof(in), MSG_WAITALL),
                static_cast<ssize_t>(sizeof(in)));
      ::close(fd);  // die before answering the hello
      ::close(lfd);
    }
    Config c0 = rank_cfg(0, 2, name);
    c0.tcp_connect_timeout_ms = 5'000;
    detail::ShmMesh m0(c0);
    EXPECT_NO_THROW(m0.build(2));
  });
  Config cfg = rank_cfg(1, 2, name);
  cfg.tcp_connect_timeout_ms = 5'000;
  detail::ShmMesh mesh(cfg);
  EXPECT_NO_THROW(mesh.build(2));
  EXPECT_FALSE(mesh.dirty());
  EXPECT_EQ(mesh.builds(), 1u);
  rank0.join();
}

TEST(ShmMeshBootstrap, SegmentDataWithoutFdIsDescriptive) {
  // A fake "rank 0" that sends the 8-byte length word WITHOUT the
  // SCM_RIGHTS cmsg — stream data from something that is not a gbsp shm
  // rank must be diagnosed, not mmap'd.
  const std::string name = seg_name(3);
  std::thread fake_rank0([&] {
    const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    const std::string tag = "gbsp-shm." + name + ".0";
    std::memcpy(sa.sun_path + 1, tag.data(), tag.size());
    const socklen_t salen = static_cast<socklen_t>(
        offsetof(sockaddr_un, sun_path) + 1 + tag.size());
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&sa), salen), 0);
    ASSERT_EQ(::listen(lfd, 1), 0);
    const int fd = ::accept(lfd, nullptr, nullptr);
    ASSERT_GE(fd, 0);
    detail::RankHello in;
    ASSERT_EQ(::recv(fd, &in, sizeof(in), MSG_WAITALL),
              static_cast<ssize_t>(sizeof(in)));
    detail::RankHello out;
    out.rank = 0;
    out.nprocs = 2;
    ASSERT_EQ(::send(fd, &out, sizeof(out), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(out)));
    const std::uint64_t len = 1 << 20;  // a length word, no cmsg
    ASSERT_EQ(::send(fd, &len, sizeof(len), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(len)));
    char sink[16];
    (void)::recv(fd, sink, sizeof(sink), 0);  // wait for the close
    ::close(fd);
    ::close(lfd);
  });
  Config cfg = rank_cfg(1, 2, name);
  cfg.tcp_connect_timeout_ms = 5'000;
  detail::ShmMesh mesh(cfg);
  try {
    mesh.build(2);
    FAIL() << "segment bytes without SCM_RIGHTS must fail the handoff";
  } catch (const BspTransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("carried no fd"), std::string::npos) << what;
  }
  EXPECT_TRUE(mesh.dirty());
  fake_rank0.join();
}

TEST(ShmMeshBootstrap, RingSizeMismatchIsDescriptive) {
  // Ranks launched with different shm_ring_bytes/shm_slab_bytes whose
  // SEGMENT TOTALS happen to coincide: the announced-length check passes,
  // so the header validation must catch the geometry drift.
  const std::string name = seg_name(4);
  Config c0 = rank_cfg(0, 2, name);
  c0.shm_ring_bytes = std::size_t{64} << 10;
  c0.shm_slab_bytes = std::size_t{128} << 10;
  Config c1 = rank_cfg(1, 2, name);
  c1.shm_ring_bytes = std::size_t{128} << 10;  // swapped: same total bytes
  c1.shm_slab_bytes = std::size_t{64} << 10;
  c1.tcp_connect_timeout_ms = 5'000;
  std::thread rank0([&] {
    detail::ShmMesh m0(c0);
    // Rank 1 rejects the segment and aborts its build; rank 0's own build
    // either completes (handoff done before the peer died) or fails on the
    // severed stream — both are acceptable ends for the misconfigured run.
    try {
      m0.build(2);
    } catch (const BspTransportError&) {
    }
  });
  detail::ShmMesh m1(c1);
  try {
    m1.build(2);
    FAIL() << "segments with different ring geometry must not validate";
  } catch (const BspTransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ring-size mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("shm_ring_bytes=131072"), std::string::npos) << what;
  }
  EXPECT_TRUE(m1.dirty());
  rank0.join();
}

TEST(ShmMeshBootstrap, SegmentSizeMismatchIsDescriptive) {
  // Plainly different segment totals: the announced length is rejected
  // before anything is mapped, naming both sides' expectations.
  const std::string name = seg_name(5);
  Config c0 = rank_cfg(0, 2, name);
  c0.shm_ring_bytes = std::size_t{64} << 10;
  c0.shm_slab_bytes = 0;  // zero-copy disabled on this rank only
  Config c1 = rank_cfg(1, 2, name);
  c1.shm_ring_bytes = std::size_t{64} << 10;
  c1.shm_slab_bytes = std::size_t{1} << 20;
  c1.tcp_connect_timeout_ms = 5'000;
  std::thread rank0([&] {
    detail::ShmMesh m0(c0);
    try {
      m0.build(2);
    } catch (const BspTransportError&) {
    }
  });
  detail::ShmMesh m1(c1);
  try {
    m1.build(2);
    FAIL() << "different segment totals must not validate";
  } catch (const BspTransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shm segment size mismatch"), std::string::npos)
        << what;
    EXPECT_NE(what.find("different configs"), std::string::npos) << what;
  }
  EXPECT_TRUE(m1.dirty());
  rank0.join();
}

TEST(ShmMeshBootstrap, StrayClientWithBadMagicIsDescriptive) {
  const std::string name = seg_name(6);
  std::thread fake_peer([&] {
    const int fd = dial(name, 0);
    const char junk[24] = "GET / HTTP/1.1\r\n";  // not a gbsp rank at all
    ASSERT_EQ(::send(fd, junk, sizeof(junk), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(junk)));
    char sink[64];
    (void)::recv(fd, sink, sizeof(sink), 0);
    ::close(fd);
  });
  Config cfg = rank_cfg(0, 2, name);
  cfg.tcp_connect_timeout_ms = 5'000;
  detail::ShmMesh mesh(cfg);
  try {
    mesh.build(2);
    FAIL() << "an HTTP client wandering in must not join the mesh";
  } catch (const BspTransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad magic"), std::string::npos) << what;
  }
  EXPECT_TRUE(mesh.dirty());
  fake_peer.join();
}

// --------------------------------------------------------------------------
// End-to-end: p single-rank Runtimes exchanging across the shm mesh.
// --------------------------------------------------------------------------

TEST(ShmRuntime, AllToAllAcrossRanks) {
  const int p = 4;
  const std::string name = seg_name(7);
  const int steps = 20;
  on_ranks(p, [&](int r) {
    Runtime rt(rank_cfg(r, p, name));
    EXPECT_STREQ(rt.transport().name(), "shm");
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
          throw std::logic_error("shm: lost messages");
        }
        for (int src = 0; src < w.nprocs(); ++src) {
          if (src != w.pid() && !seen[src]) {
            throw std::logic_error("shm: missing source");
          }
        }
      }
    });
    EXPECT_EQ(stats.S(), static_cast<std::size_t>(steps) + 1);
    EXPECT_GT(stats.total_wire_bytes(), 0u);
    // The headline property: moving every byte cost zero data-path syscalls.
    EXPECT_EQ(stats.total_wire_syscalls(), 0u);
  });
}

TEST(ShmRuntime, CleanRunsReuseTheMesh) {
  const int p = 2;
  const std::string name = seg_name(8);
  on_ranks(p, [&](int r) {
    Runtime rt(rank_cfg(r, p, name));
    auto program = [](Worker& w) {
      w.send(1 - w.pid(), w.pid());
      w.sync();
      if (w.get_message() == nullptr) {
        throw std::logic_error("shm: missing message");
      }
    };
    rt.run(program);
    rt.run(program);
    rt.run(program);
    auto* shm = dynamic_cast<MeshTransport*>(&rt.transport());
    ASSERT_NE(shm, nullptr);
    EXPECT_EQ(shm->debug_mesh_builds(), 1u)
        << "clean runs must reuse the bootstrapped mesh";
  });
}

TEST(ShmRuntime, LargeFramesCrossTheSlab) {
  // 3 MiB each way: far beyond the ring, routed through the zero-copy slab
  // (default 8 MiB halves to 4 MiB epochs), delivered as views into the
  // mapped segment — so stats must show the payload as zc bytes, not ring
  // bytes.
  const int p = 2;
  const std::string name = seg_name(9);
  const std::size_t big = std::size_t{3} << 20;
  on_ranks(p, [&](int r) {
    Runtime rt(rank_cfg(r, p, name));
    const RunStats stats = rt.run([big](Worker& w) {
      std::vector<std::uint8_t> blob(big);
      for (std::size_t i = 0; i < blob.size(); ++i) {
        blob[i] = static_cast<std::uint8_t>((i * 131 + w.pid()) & 0xff);
      }
      w.send_bytes(1 - w.pid(), blob.data(), blob.size());
      w.sync();
      const Message* m = w.get_message();
      if (m == nullptr || m->size() != big) {
        throw std::logic_error("shm: large frame lost or truncated");
      }
      const auto* got = m->payload.data();
      for (std::size_t i = 0; i < big; i += 4097) {
        const auto want =
            static_cast<std::uint8_t>((i * 131 + (1 - w.pid())) & 0xff);
        if (static_cast<std::uint8_t>(got[i]) != want) {
          throw std::logic_error("shm: large frame corrupted");
        }
      }
    });
    EXPECT_GE(stats.total_wire_zc_bytes(), big)
        << "a 3MiB payload must travel the slab, not the ring";
    EXPECT_EQ(stats.total_wire_syscalls(), 0u);
  });
}

TEST(ShmRuntime, ZeroCopyEpochsRecycleAndGuardReuse) {
  // Many supersteps of slab-sized traffic: each boundary flips the epoch
  // half, and the advisory reuse-after-recycle guard (boundaries_opened)
  // must keep every delivered view intact even while its slab half is being
  // rewritten two epochs later. Payloads verify byte-exactly every step;
  // traffic is sized so one superstep's sends exceed half an epoch,
  // exercising the inline-ring fallback when the slab half fills.
  const int p = 2;
  const std::string name = seg_name(10);
  const int steps = 12;
  on_ranks(p, [&](int r) {
    Config cfg = rank_cfg(r, p, name);
    cfg.shm_ring_bytes = std::size_t{256} << 10;
    cfg.shm_slab_bytes = std::size_t{128} << 10;  // 64 KiB epoch halves
    cfg.shm_inline_threshold = 1024;
    Runtime rt(cfg);
    const RunStats stats = rt.run([steps](Worker& w) {
      // 24 x 4 KiB = 96 KiB staged per superstep: overflows the 64 KiB
      // epoch half, so the tail falls back to the inline ring path.
      constexpr int kMsgs = 24;
      constexpr std::size_t kLen = 4096;
      for (int s = 0; s < steps; ++s) {
        std::vector<std::uint8_t> payload(kLen);
        for (int m = 0; m < kMsgs; ++m) {
          for (std::size_t i = 0; i < kLen; ++i) {
            payload[i] = static_cast<std::uint8_t>(
                (i + static_cast<std::size_t>(s) * 31 +
                 static_cast<std::size_t>(m) * 7 +
                 static_cast<std::size_t>(w.pid()) * 131) &
                0xff);
          }
          w.send_bytes(1 - w.pid(), payload.data(), payload.size());
        }
        w.sync();
        int got = 0;
        while (const Message* m = w.get_message()) {
          if (m->size() != kLen) {
            throw std::logic_error("shm zc: wrong payload size");
          }
          const auto* b = m->payload.data();
          for (std::size_t i = 0; i < kLen; ++i) {
            const auto want = static_cast<std::uint8_t>(
                (i + static_cast<std::size_t>(s) * 31 +
                 static_cast<std::size_t>(got) * 7 +
                 static_cast<std::size_t>(1 - w.pid()) * 131) &
                0xff);
            if (static_cast<std::uint8_t>(b[i]) != want) {
              throw std::logic_error("shm zc: payload corrupted (epoch "
                                     "recycled under a live view?)");
            }
          }
          ++got;
        }
        if (got != kMsgs) throw std::logic_error("shm zc: lost messages");
      }
    });
    // Both paths must have carried traffic: zc for the slab-routed heads,
    // ring bytes for the fallback tails.
    EXPECT_GT(stats.total_wire_zc_bytes(), 0u);
    EXPECT_GT(stats.total_wire_bytes(), 0u);
    EXPECT_EQ(stats.total_wire_syscalls(), 0u);
  });
}

TEST(ShmRuntime, PeerDeathSurfacesAndMeshRebuilds) {
  // Phase 1: both ranks run clean. Phase 2: rank 1's process "dies" (its
  // Runtime is destroyed, closing its control endpoints); rank 0's next
  // exchange must surface BspTransportError via the control-channel death
  // probe, not hang. Phase 3: a fresh rank-1 incarnation appears and rank
  // 0's SAME Runtime — wire marked dirty by the failure — rebuilds the
  // mesh (new segments, new epoch space) and completes.
  const std::string name = seg_name(11);
  std::promise<void> rank1_dead;
  std::promise<void> rank0_failed;
  auto ping = [](Worker& w) {
    w.send(1 - w.pid(), 7);
    w.sync();
    if (w.get_message() == nullptr) {
      throw std::logic_error("shm: missing message");
    }
  };

  std::thread rank0([&] {
    Config cfg = rank_cfg(0, 2, name);
    cfg.socket_stage_timeout_ms = 20'000;
    Runtime rt(cfg);
    rt.run(ping);  // phase 1
    rank1_dead.get_future().wait();
    try {
      rt.run(ping);  // phase 2: peer is gone
      FAIL() << "exchange against a dead peer must throw";
    } catch (const BspTransportError&) {
      // expected: EOF on the control channel, wire now dirty
    }
    rank0_failed.set_value();
    rt.run(ping);  // phase 3: rebuild against the new incarnation
    auto* shm = dynamic_cast<MeshTransport*>(&rt.transport());
    ASSERT_NE(shm, nullptr);
    EXPECT_EQ(shm->debug_mesh_builds(), 2u)
        << "the failed run must force exactly one mesh rebuild";
  });

  std::thread rank1([&] {
    {
      Runtime rt(rank_cfg(1, 2, name));
      rt.run(ping);  // phase 1
    }  // Runtime destroyed: endpoints closed, "process death"
    rank1_dead.set_value();
    rank0_failed.get_future().wait();
    Config cfg = rank_cfg(1, 2, name);
    cfg.tcp_connect_timeout_ms = 20'000;
    Runtime rt(cfg);
    rt.run(ping);  // phase 3
  });
  rank0.join();
  rank1.join();
}

TEST(ShmRuntime, StagesLargerThanTheRingStreamExactly) {
  // The smallest ring (4 KiB) and no slab: every stage below is several
  // rings long, so each one streams through wraps and partial reads — the
  // ring is the receive buffer, consumed one readable run at a time, while
  // the producer refills behind it. Frame sizes straddle the ring size.
  const int p = 4;
  const std::string name = seg_name(13);
  const int steps = 8;
  constexpr std::size_t kSizes[] = {1, 15, 17, 4095, 4097, 12000};
  const auto byte_at = [](int src, int dst, int step, std::size_t len,
                          std::size_t i) {
    return static_cast<std::uint8_t>((i * 7 + len + src * 31 + dst * 13 +
                                      step * 5) &
                                     0xff);
  };
  on_ranks(p, [&](int r) {
    Config cfg = rank_cfg(r, p, name);
    cfg.shm_ring_bytes = 4096;
    cfg.shm_slab_bytes = 0;
    Runtime rt(cfg);
    const RunStats stats = rt.run([&](Worker& w) {
      for (int s = 0; s < steps; ++s) {
        for (int d = 0; d < w.nprocs(); ++d) {
          if (d == w.pid()) continue;
          for (std::size_t len : kSizes) {
            std::vector<std::uint8_t> frame(len);
            for (std::size_t i = 0; i < len; ++i) {
              frame[i] = byte_at(w.pid(), d, s, len, i);
            }
            w.send_bytes(d, frame.data(), frame.size());
          }
        }
        w.sync();
        std::size_t got = 0;
        while (const Message* m = w.get_message()) {
          const int src = static_cast<int>(m->source);
          for (std::size_t i = 0; i < m->size(); ++i) {
            if (static_cast<std::uint8_t>(m->payload[i]) !=
                byte_at(src, w.pid(), s, m->size(), i)) {
              throw std::logic_error("shm: payload corrupted across a wrap");
            }
          }
          ++got;
        }
        if (got != std::size(kSizes) * static_cast<std::size_t>(p - 1)) {
          throw std::logic_error("shm: lost frames");
        }
      }
    });
    EXPECT_EQ(stats.total_wire_zc_bytes(), 0u) << "no slab, no zero-copy";
    EXPECT_EQ(stats.total_wire_syscalls(), 0u);
  });
}

TEST(ShmRuntime, PeerExitingRightAfterItsLastStageIsNotADeath) {
  // Rank 1 reaches the run's last boundary first and naps in its idle
  // wait; rank 0 arrives 20 ms later, writes its stage into the ring,
  // finishes the run and exits at once, closing the control stream. The
  // wake on that EOF must let rank 1 drain the ring instead of reporting a
  // peer death.
  const std::string name = seg_name(14);
  for (int round = 0; round < 3; ++round) {
    on_ranks(2, [&](int r) {
      Runtime rt(rank_cfg(r, 2, name));
      rt.run([](Worker& w) {
        w.send(1 - w.pid(), 40 + w.pid());
        if (w.pid() == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        w.sync();
        const Message* m = w.get_message();
        if (m == nullptr || m->as<int>() != 40 + (1 - w.pid())) {
          throw std::logic_error("shm: stage lost");
        }
      });
    });
  }
}

// --------------------------------------------------------------------------
// Ring cursors are peer-controlled: a RingChannel over a local direction
// block (send and receive share it, a loopback pair) must reject a cursor
// pair claiming more unread bytes than the ring holds, on either side.
// --------------------------------------------------------------------------

struct LocalDirection {
  detail::ShmRingCtl ctl{};
  std::byte ring[4096] = {};

  detail::ShmPairView pair() {
    detail::ShmDirView d;
    d.ctl = &ctl;
    d.ring = ring;
    d.ring_cap = sizeof(ring);
    return {d, d};
  }
};

// Writes then reads 24 bytes through the loopback channel.
void round_trip_24(detail::RingChannel& ch, const detail::IoSite& at) {
  std::byte out[24] = {};
  std::byte in[24];
  iovec wv{out, sizeof(out)};
  iovec rv{in, sizeof(in)};
  ASSERT_EQ(ch.write(&wv, 1, 0, at), 24u);
  ASSERT_EQ(ch.read(&rv, 1, sizeof(in), 0, at), 24u);
}

void expect_cursor_error(const BspTransportError& e) {
  const std::string what = e.what();
  EXPECT_NE(what.find("ring cursors out of range"), std::string::npos)
      << what;
  EXPECT_EQ(e.rank, 3);
  EXPECT_EQ(e.peer, 1);
  EXPECT_EQ(e.stage, 2);
}

TEST(ShmRingCursors, ConsumerRejectsATailBeyondTheRing) {
  LocalDirection dir;
  const Config cfg;
  detail::RingChannel ch(cfg, dir.pair(), /*ctl_fd=*/-1);
  std::uint64_t syscalls = 0;
  const detail::IoSite at{3, 1, 5, 2, 0, &syscalls};
  round_trip_24(ch, at);
  // A forged tail one ring plus a stage ahead: trusting it would hand back
  // stale ring bytes that parse as an empty stage.
  dir.ctl.tail.store(dir.ctl.head.load() + sizeof(dir.ring) + 24);
  std::byte in[24];
  iovec rv{in, sizeof(in)};
  try {
    (void)ch.read(&rv, 1, sizeof(in), 0, at);
    FAIL() << "a tail beyond the ring's capacity must be rejected";
  } catch (const BspTransportError& e) {
    expect_cursor_error(e);
  }
  EXPECT_EQ(syscalls, 0u);
}

TEST(ShmRingCursors, ProducerRejectsAHeadPastTheTail) {
  LocalDirection dir;
  const Config cfg;
  detail::RingChannel ch(cfg, dir.pair(), /*ctl_fd=*/-1);
  std::uint64_t syscalls = 0;
  const detail::IoSite at{3, 1, 5, 2, 0, &syscalls};
  round_trip_24(ch, at);
  // A forged head past the tail: the free space would underflow.
  dir.ctl.head.store(dir.ctl.tail.load() + 100);
  std::byte out[24] = {};
  iovec wv{out, sizeof(out)};
  try {
    (void)ch.write(&wv, 1, 0, at);
    FAIL() << "a head past the tail must be rejected";
  } catch (const BspTransportError& e) {
    expect_cursor_error(e);
  }
}

}  // namespace
}  // namespace gbsp
