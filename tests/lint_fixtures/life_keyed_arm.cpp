// Fixture: a Timer armed under a reserved dispatch key is the same sink as
// one armed with a delay.  Expected LIFE-REF-CAPTURE findings: 1 (the [&]
// passed to the keyed arm); the by-value capture under the same key is fine.
#include <cstdint>

struct DispatchKey {
  std::int64_t when;
  std::uint64_t seq;
};

struct Sim {
  DispatchKey reserve(long delay);
};

struct Timer {
  template <typename F>
  void arm(DispatchKey key, F&& fn);
};

void wake(Sim& sim, Timer& t, int& queued) {
  const DispatchKey key = sim.reserve(681);
  t.arm(key, [&] { --queued; });  // finding: [&]

  t.arm(key, [n = queued] { (void)n; });  // ok: by value
}
