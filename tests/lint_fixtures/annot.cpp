// Fixture: annotation grammar.  Expected: the first rand() is suppressed
// (trailing allow with reason); the second is suppressed (standalone allow,
// reason continued on the next comment line); the third stays a live DET-BANNED because its allow
// has no reason (which is itself a LINT-ANNOT finding); the last comment is
// a malformed annotation (another LINT-ANNOT).
#include <cstdlib>

int a() {
  return rand();  // xunet-lint: allow(DET-BANNED) -- fixture: trailing form
}

int b() {
  // xunet-lint: allow(DET-BANNED) -- fixture: standalone form, and the
  // annotation may continue in prose before the statement it guards.
  return rand();
}

int c() {
  // xunet-lint: allow(DET-BANNED)
  return rand();
}

// xunet-lint: allow() -- empty rule list is malformed
int d() { return 0; }
