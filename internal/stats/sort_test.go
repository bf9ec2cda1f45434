package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// sameBits reports whether got and want hold the same float bit patterns
// in the same order.
func sameBits(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// checkSortFloats sorts a copy of xs with SortFloats and another with
// sort.Float64s and fails unless the two agree bit for bit.
func checkSortFloats(t *testing.T, name string, xs []float64) {
	t.Helper()
	got := append([]float64(nil), xs...)
	want := append([]float64(nil), xs...)
	SortFloats(got)
	sort.Float64s(want)
	if !sameBits(got, want) {
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s (%d values): index %d = %v, sort.Float64s has %v", name, len(xs), i, got[i], want[i])
			}
		}
	}
}

// latencies draws n lognormal latencies around a millisecond with every
// fourth value a duplicate of an earlier one, and plants +0, subnormals,
// +Inf and the largest finite value among them.
func latencies(r *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch {
		case i > 0 && i%4 == 0:
			xs[i] = xs[r.Intn(i)]
		default:
			xs[i] = 1e-3 * math.Exp(r.NormFloat64())
		}
	}
	specials := []float64{0, math.SmallestNonzeroFloat64, 0x1p-1040, math.Inf(1), math.MaxFloat64}
	for i, x := range specials {
		if i < n {
			xs[r.Intn(n)] = x
		}
	}
	return xs
}

// TestSortFloatsMatchesSortFloat64s pins SortFloats to sort.Float64s bit
// for bit: latency sets of 0 to 100k values (below, at and above the
// radix cutoff and the insertion cutoff within it), inputs with a
// negative value, a −0 or a NaN, which must take the fallback, and
// sorted, reversed and constant inputs. It also pins that SortFloats
// allocates nothing.
func TestSortFloatsMatchesSortFloat64s(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 2, 3, insertionCutoff - 1, insertionCutoff, insertionCutoff + 1,
		100, radixCutoff - 1, radixCutoff, radixCutoff + 1, 1000, 4099, 20000, 100000}
	for _, n := range sizes {
		xs := latencies(r, n)
		checkSortFloats(t, "latencies", xs)
		if n == 0 {
			continue
		}
		for _, special := range []float64{-1e-3, math.Copysign(0, -1), math.NaN()} {
			ys := append([]float64(nil), xs...)
			ys[r.Intn(n)] = special
			checkSortFloats(t, "with a negative, −0 or NaN", ys)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		checkSortFloats(t, "sorted", sorted)
		for i, j := 0, len(sorted)-1; i < j; i, j = i+1, j-1 {
			sorted[i], sorted[j] = sorted[j], sorted[i]
		}
		checkSortFloats(t, "reversed", sorted)
		constant := make([]float64, n)
		for i := range constant {
			constant[i] = 2.5e-3
		}
		checkSortFloats(t, "constant", constant)
	}
	// Values that differ only in their lowest byte reach the last pass.
	low := make([]float64, 3000)
	for i := range low {
		low[i] = math.Float64frombits(0x3f50000000000000 | uint64(r.Intn(1<<12)))
	}
	checkSortFloats(t, "low bytes", low)

	xs := latencies(r, 100000)
	buf := make([]float64, len(xs))
	if n := testing.AllocsPerRun(5, func() {
		copy(buf, xs)
		SortFloats(buf)
	}); n != 0 {
		t.Fatalf("SortFloats made %v allocations, want 0", n)
	}
}

// FuzzSortFloats compares SortFloats with sort.Float64s by bits on
// arbitrary bit patterns, read eight bytes to a value; the input is
// repeated up to the radix cutoff so the radix path runs too.
func FuzzSortFloats(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e-3)))
	f.Add(binary.LittleEndian.AppendUint64(
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(1))), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var xs []float64
		for ; len(data) >= 8; data = data[8:] {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		checkSortFloats(t, "fuzz", xs)
		if len(xs) > 0 {
			long := xs
			for len(long) < radixCutoff {
				long = append(long, xs...)
			}
			checkSortFloats(t, "fuzz repeated", long)
		}
	})
}

// BenchmarkSortFloats measures the radix sort against sort.Float64s on
// latencies around radixCutoff and at 100k values.
func BenchmarkSortFloats(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{48, 300, 512, 1000, 100000} {
		xs := latencies(r, n)
		buf := make([]float64, n)
		b.Run("radix/n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, xs)
				radixSort(buf, 56)
			}
		})
		b.Run("pdqsort/n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, xs)
				sort.Float64s(buf)
			}
		})
	}
}
