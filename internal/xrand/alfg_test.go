package xrand

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameStream draws rounds interleaved rounds of every rand.Rand method
// xrand uses (and Uint64) from got and want, then one Shuffle of 50, and
// returns the first difference, comparing floats by their bits.
func sameStream(got, want *rand.Rand, rounds int) error {
	for i := 0; i < rounds; i++ {
		draws := []struct {
			name string
			g, w uint64
		}{
			{"Int63", uint64(got.Int63()), uint64(want.Int63())},
			{"Uint64", got.Uint64(), want.Uint64()},
			{"Float64", math.Float64bits(got.Float64()), math.Float64bits(want.Float64())},
			{"NormFloat64", math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())},
			{"ExpFloat64", math.Float64bits(got.ExpFloat64()), math.Float64bits(want.ExpFloat64())},
			{"Intn(1000)", uint64(got.Intn(1000)), uint64(want.Intn(1000))},
			{"Intn(1<<40)", uint64(got.Intn(1 << 40)), uint64(want.Intn(1 << 40))},
		}
		for _, d := range draws {
			if d.g != d.w {
				return fmt.Errorf("round %d: %s = %#x, math/rand %#x", i, d.name, d.g, d.w)
			}
		}
	}
	g, w := make([]int, 50), make([]int, 50)
	for i := range g {
		g[i], w[i] = i, i
	}
	got.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
	want.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("Shuffle(50) = %v, math/rand %v", g, w)
		}
	}
	return nil
}

// TestSourceMatchesMathRand pins the in-package source to math/rand bit
// for bit: every draw a Source makes equals rand.New(rand.NewSource(seed))'s
// for seeds at and around every boundary of the seed normalisation (the
// Park–Miller modulus 2³¹−1, zero, the int64 extremes) and for 2,000
// seeds drawn at random; Fork and Reseed keep the same equivalence.
func TestSourceMatchesMathRand(t *testing.T) {
	const rounds = 1000
	seeds := []int64{
		0, 1, -1,
		1<<31 - 2, 1<<31 - 1, 1 << 31, 2 * (1<<31 - 1), -(1<<31 - 1),
		89482311, 1 << 40, math.MinInt64, math.MaxInt64,
	}
	pick := rand.New(rand.NewSource(20261017))
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for _, seed := range seeds {
		if err := sameStream(New(seed).r, rand.New(rand.NewSource(seed)), rounds); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}

	// Fork of a partly consumed source is a fresh math/rand source seeded
	// with the parent's next Int63.
	parent, ref := New(42), rand.New(rand.NewSource(42))
	if err := sameStream(parent.r, ref, 37); err != nil {
		t.Fatal(err)
	}
	child := parent.Fork()
	if err := sameStream(child.r, rand.New(rand.NewSource(ref.Int63())), rounds); err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if err := sameStream(parent.r, ref, rounds); err != nil {
		t.Fatalf("parent after Fork: %v", err)
	}

	// Reseed on a used source leaves it exactly as New would.
	for _, seed := range seeds[:20] {
		used := New(7)
		for i := 0; i < 100; i++ {
			used.Normal(0, 1)
		}
		used.Reseed(seed)
		if err := sameStream(used.r, New(seed).r, rounds); err != nil {
			t.Fatalf("Reseed(%d): %v", seed, err)
		}
	}
}
