#include "runtime/spsc_ring.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#if defined(__linux__)
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <new>
#endif

namespace taskbench::runtime {
namespace {

TEST(SpscRingTest, PushPopPreservesFifoOrder) {
  SpscRing<int, 8> ring;
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.Push(i));
  EXPECT_EQ(ring.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    int out = -1;
    EXPECT_TRUE(ring.Pop(&out));
    EXPECT_EQ(out, i);
  }
  int out = -1;
  EXPECT_FALSE(ring.Pop(&out));
  EXPECT_EQ(ring.size(), 0u);
}

TEST(SpscRingTest, PushFailsWhenFull) {
  SpscRing<int, 4> ring;
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.Push(i));
  EXPECT_FALSE(ring.Push(99));
  int out = -1;
  EXPECT_TRUE(ring.Pop(&out));
  EXPECT_TRUE(ring.Push(99));  // one slot freed, push succeeds again
}

TEST(SpscRingTest, CursorsWrapAroundManyTimes) {
  SpscRing<uint64_t, 4> ring;
  // Far more transfers than the capacity: the free-running counters
  // must mask correctly on every lap.
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.Push(i));
    uint64_t out = 0;
    ASSERT_TRUE(ring.Pop(&out));
    ASSERT_EQ(out, i);
  }
}

TEST(SpscRingTest, StructMessagesSurviveTransfer) {
  struct Msg {
    int64_t a;
    double b;
    char text[24];
  };
  SpscRing<Msg, 8> ring;
  Msg in{42, 2.5, "hello"};
  ASSERT_TRUE(ring.Push(in));
  Msg out{};
  ASSERT_TRUE(ring.Pop(&out));
  EXPECT_EQ(out.a, 42);
  EXPECT_EQ(out.b, 2.5);
  EXPECT_STREQ(out.text, "hello");
}

TEST(SpscRingTest, ConcurrentProducerConsumerDeliversEverythingInOrder) {
  // One producer thread, one consumer thread, a ring much smaller
  // than the transfer count — the acquire/release pairs must carry
  // every slot write across, in order. This is the single-process
  // stand-in for the cross-process coordinator/worker rings (same
  // atomics, same memory ordering rules).
  constexpr uint64_t kMessages = 200000;
  SpscRing<uint64_t, 64> ring;
  std::thread producer([&] {
    for (uint64_t i = 0; i < kMessages; ++i) {
      while (!ring.Push(i)) std::this_thread::yield();
    }
  });
  uint64_t received = 0;
  uint64_t sum = 0;
  while (received < kMessages) {
    uint64_t out = 0;
    if (!ring.Pop(&out)) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(out, received);  // strict FIFO
    sum += out;
    ++received;
  }
  producer.join();
  EXPECT_EQ(sum, kMessages * (kMessages - 1) / 2);
  EXPECT_EQ(ring.size(), 0u);
}

#if defined(__linux__)
// One direction of a ring pair, laid out as the multi-process control
// plane lays out a worker channel: the ring plus the bell its producer
// rings after each push.
struct BelledRing {
  SpscRing<uint64_t, 8> ring;
  Doorbell bell;
};

constexpr uint64_t kRounds = 100000;

// Spins for a varying 0-4096 relaxed increments (up to a few µs).
void Jitter(uint32_t* state) {
  *state ^= *state << 13;
  *state ^= *state >> 17;
  *state ^= *state << 5;
  std::atomic<uint32_t> sink{0};
  for (uint32_t i = *state % 4096; i > 0; --i) {
    sink.fetch_add(1, std::memory_order_relaxed);
  }
}

// Pops the next message, parking on the bell while the ring is empty.
// Every message is answered, so the peer never goes quiet for long: a
// wait that sits out its whole 10 s slice slept through a push and its
// ring, which is a lost wakeup. The re-check takes a varying time, as
// the coordinator's scan over every outbox does, so the peer's push
// and ring land on every side of it.
bool Receive(BelledRing& in, uint64_t* out) {
  uint32_t jitter = 0x9e3779b9u;
  while (!in.ring.Pop(out)) {
    const auto ready = [&] {
      const bool pending = in.ring.size() != 0;
      Jitter(&jitter);
      return pending;
    };
    if (!in.bell.Wait(ready, std::chrono::seconds(10))) return false;
  }
  return true;
}

void Send(BelledRing& out, uint64_t value) {
  // One message in flight per direction, so the ring is never full.
  while (!out.ring.Push(value)) {
  }
  out.bell.Ring();
}

// The initiator sends 0..kRounds-1 on `ping` and expects each back on
// `pong`; the echoer answers every ping. Either returns false on a
// lost wakeup or a wrong message.
bool Initiate(BelledRing& ping, BelledRing& pong) {
  for (uint64_t i = 0; i < kRounds; ++i) {
    Send(ping, i);
    uint64_t echo = 0;
    if (!Receive(pong, &echo) || echo != i) return false;
  }
  return true;
}

bool Echo(BelledRing& ping, BelledRing& pong) {
  for (uint64_t i = 0; i < kRounds; ++i) {
    uint64_t value = 0;
    if (!Receive(ping, &value) || value != i) return false;
    Send(pong, value);
  }
  return true;
}

TEST(DoorbellTest, PingPongAcrossThreadsLosesNoWakeup) {
  BelledRing ping;
  BelledRing pong;
  bool echoed = false;
  std::thread echo([&] { echoed = Echo(ping, pong); });
  const bool initiated = Initiate(ping, pong);
  echo.join();
  EXPECT_TRUE(initiated);
  EXPECT_TRUE(echoed);
}

// The same handshake between two processes over a MAP_SHARED page,
// which is what the shared (not private) futex ops are for.
TEST(DoorbellTest, PingPongAcrossForkLosesNoWakeup) {
  constexpr size_t kBytes = 2 * sizeof(BelledRing);
  void* page = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(page, MAP_FAILED);
  auto* ping = new (page) BelledRing();
  auto* pong = new (ping + 1) BelledRing();
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) _exit(Echo(*ping, *pong) ? 0 : 1);
  const bool initiated = Initiate(*ping, *pong);
  if (!initiated) kill(child, SIGKILL);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  EXPECT_TRUE(initiated);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "echo process status " << status;
  munmap(page, kBytes);
}
#endif  // __linux__

}  // namespace
}  // namespace taskbench::runtime
