package detrng

import (
	"math/rand"
	"testing"
)

// drawMix draws one value from want and from got by the method op
// selects - Float64, Intn over powers of two, over small and large other
// bounds (where Int31n and Int63n reject and redraw), Int63 or Uint64 -
// and reports both as the same type.
func drawMix(op byte, want *rand.Rand, got *Source) (w, g any) {
	switch k := int(op / 7); op % 7 {
	case 0:
		return want.Float64(), got.Float64()
	case 1:
		n := 1 << (k % 63)
		return want.Intn(n), got.Intn(n)
	case 2:
		n := k*7919 + 3
		return want.Intn(n), got.Intn(n)
	case 3:
		n := 1<<30 + k + 1
		return want.Intn(n), got.Intn(n)
	case 4:
		n := 1<<62 + k<<20 + 1
		return want.Intn(n), got.Intn(n)
	case 5:
		return want.Int63(), got.Int63()
	default:
		return want.Uint64(), got.Uint64()
	}
}

// checkStream draws count values by the method mix ops (cycled) from a
// Source and from rand.New(rand.NewSource(seed)) and fails on the first
// difference. Before draw restoreAt it replaces the Source by
// Restore(seed, Draws()), which must continue the stream.
func checkStream(t *testing.T, seed int64, ops []byte, count, restoreAt int) {
	t.Helper()
	if len(ops) == 0 {
		ops = []byte{0}
	}
	want, got := rand.New(rand.NewSource(seed)), New(seed)
	for i := 0; i < count; i++ {
		if i == restoreAt {
			got = Restore(got.SeedValue(), got.Draws())
		}
		op := ops[i%len(ops)]
		if w, g := drawMix(op, want, got); w != g {
			t.Fatalf("seed %d draw %d (op %d, restore at %d): got %v, math/rand %v", seed, i, op, restoreAt, g, w)
		}
	}
}

// TestStreamTransparent pins the generator's core contract: it yields
// exactly the stream of a *rand.Rand over a bare seeded source, across
// every method, from its own methods and as a rand.Source64.
func TestStreamTransparent(t *testing.T) {
	all := []byte{0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 14, 17, 200}
	for _, seed := range []int64{0, 1, 42, -7, 1 << 31, -(1 << 40), 89482311} {
		checkStream(t, seed, all, 3000, -1)
		want, got := rand.New(rand.NewSource(seed)), rand.New(New(seed))
		for i := 0; i < 1000; i++ {
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d draw %d: rand.New(Source) gives %v, math/rand %v", seed, i, g, w)
			}
		}
	}
}

// TestRestoreResumesExactly checks that Restore(seed, draws) continues
// the stream exactly where the original left off, for positions below
// and above the register length reached through a mix of methods.
func TestRestoreResumesExactly(t *testing.T) {
	for _, at := range []int{0, 1, 300, 606, 607, 608, 1234} {
		checkStream(t, 42, []byte{0, 2, 0, 4}, at+500, at)
	}
}

// TestSeedRewindsCounter checks Seed resets the position.
func TestSeedRewindsCounter(t *testing.T) {
	src := New(1)
	src.Intn(100)
	if src.Draws() == 0 {
		t.Fatal("draws not counted")
	}
	src.Seed(9)
	if src.Draws() != 0 || src.SeedValue() != 9 {
		t.Fatalf("Seed did not rewind: draws=%d seed=%d", src.Draws(), src.SeedValue())
	}
	if rand.New(rand.NewSource(9)).Int63() != src.Int63() {
		t.Fatal("re-seeded stream diverges")
	}
}

// FuzzStreamTransparent compares the generator with math/rand over
// random seeds, method mixes and restore positions.
func FuzzStreamTransparent(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2}, uint16(100))
	f.Add(int64(-1), []byte{3, 4, 5, 6}, uint16(700))
	f.Add(int64(1)<<31, []byte{0, 7, 14, 21, 28}, uint16(606))
	f.Add(int64(-1)<<63, []byte{13, 27, 41}, uint16(1500))
	f.Add(int64(1)<<62+12345, []byte{6}, uint16(607))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte, restoreAt uint16) {
		checkStream(t, seed, ops, 1600, int(restoreAt%1600))
	})
}
