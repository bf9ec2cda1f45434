package xrand

import "math/rand"

// alfg is math/rand's additive lagged-Fibonacci source (Mitchell and
// Reeds; x[n] = x[n−607] + x[n−273] over int64) with the same register,
// the same outputs and the same seeding, so rand.New(alfg) draws exactly
// what rand.New(rand.NewSource(seed)) draws. It differs in one place:
// Seed computes each register word's three Park–Miller values from one
// state by 64-bit modular multiplication instead of a serial chain of
// 1,841 Schrage steps, which makes seeding about four times cheaper.
// TestSourceMatchesMathRand pins it to math/rand bit for bit.
type alfg struct {
	tap  int // index into vec
	feed int // index into vec
	vec  [alfgLen]int64
}

const (
	alfgLen  = 607
	alfgTap  = 273
	alfgMask = 1<<63 - 1

	// math/rand seeds its register from the Park–Miller generator
	// x ← pmA·x mod pmM, which it evaluates by Schrage's method.
	pmM  = 1<<31 - 1
	pmA  = 48271
	pmA2 = pmA * pmA % pmM
	pmA3 = pmA2 * pmA % pmM
)

// cooked holds the constants math/rand XORs into each seeded register
// word (its rngCooked table); init derives them.
var cooked [alfgLen]int64

// init recovers cooked from math/rand itself. Seeded with 1, math/rand's
// register is w ^ cooked, where w are seed 1's Park–Miller words — what
// Seed writes while cooked is still zero. Output k (from 1) adds tap slot
// (607−k) mod 607 into feed slot (334−k) mod 607 and returns the sum, so
// the first 607 outputs unwind to the register they started from: slots
// 0–60 and 334–606 are output k less output k−273, which overwrote the
// tap slot; slots 61–333 are output k less the original tap slot.
// cooked holds that register until w is XORed out of it.
func init() {
	var w alfg
	w.Seed(1)
	src := rand.NewSource(1).(rand.Source64)
	var out [alfgLen + 1]int64
	for k := 1; k <= alfgLen; k++ {
		out[k] = int64(src.Uint64())
	}
	for k := 274; k <= 334; k++ {
		cooked[334-k] = out[k] - out[k-273]
	}
	for k := 335; k <= alfgLen; k++ {
		cooked[941-k] = out[k] - out[k-273]
	}
	for k := 1; k <= 273; k++ {
		cooked[334-k] = out[k] - cooked[607-k]
	}
	for i := range cooked {
		cooked[i] ^= w.vec[i]
	}
}

// mulMod returns a·x mod pmM for a, x in [1, pmM−1]. The product fits in
// 62 bits and 2³¹ ≡ 1 (mod pmM), so folding the high bits onto the low
// ones leaves a value below 2·pmM, which one subtraction reduces: the
// same integer Schrage's method computes.
func mulMod(a, x uint64) uint64 {
	p := a * x
	r := p&pmM + p>>31
	if r >= pmM {
		r -= pmM
	}
	return r
}

// Seed initialises the register exactly as math/rand's source does: the
// seed is reduced mod pmM (0 becomes 89482311), the generator takes 20
// warm-up steps, and word i is x1<<40 ^ x2<<20 ^ x3 ^ cooked[i] for the
// next three Park–Miller values x1, x2, x3 = A·x, A²·x, A³·x.
func (g *alfg) Seed(seed int64) {
	g.tap = 0
	g.feed = alfgLen - alfgTap
	seed %= pmM
	if seed < 0 {
		seed += pmM
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := 0; i < 20; i++ {
		x = mulMod(pmA, x)
	}
	for i := range g.vec {
		x1, x2, x3 := mulMod(pmA, x), mulMod(pmA2, x), mulMod(pmA3, x)
		g.vec[i] = int64(x1<<40^x2<<20^x3) ^ cooked[i]
		x = x3
	}
}

// Uint64 returns the next 64-bit output.
func (g *alfg) Uint64() uint64 {
	g.tap--
	if g.tap < 0 {
		g.tap += alfgLen
	}
	g.feed--
	if g.feed < 0 {
		g.feed += alfgLen
	}
	x := g.vec[g.feed] + g.vec[g.tap]
	g.vec[g.feed] = x
	return uint64(x)
}

// Int63 returns the next output with its top bit cleared.
func (g *alfg) Int63() int64 { return int64(g.Uint64() & alfgMask) }
