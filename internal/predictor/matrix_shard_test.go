package predictor

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/shard"
)

// TestBuildMatrixShardedBitIdentical pins the sharding contract at the
// predictor layer: matrix construction and the Algorithm 2 incremental
// updates produce bit-identical entries, allocations and predicted
// latencies at every shard count, because entries are pure functions of
// barrier-frozen state written to disjoint row slots.
func TestBuildMatrixShardedBitIdentical(t *testing.T) {
	base := testMatrixInput(t, 24, 8, 80, 5)
	seq, err := BuildMatrix(base)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 4, 8} {
		pool := shard.NewPool(shards)
		in := base
		in.Pool = pool
		par, err := BuildMatrix(in)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(par.L, seq.L) || !sameSelfGains(par, seq) {
			t.Fatalf("shards=%d: matrix entries diverged from sequential build", shards)
		}
		if par.CurrentOverall() != seq.CurrentOverall() {
			t.Fatalf("shards=%d: overall %v != sequential %v", shards, par.CurrentOverall(), seq.CurrentOverall())
		}

		// Drive identical migration sequences through both matrices: the
		// sharded incremental update must track the sequential one exactly.
		ref, refErr := BuildMatrix(base)
		if refErr != nil {
			t.Fatal(refErr)
		}
		for step := 0; step < 6; step++ {
			i, j, gain, ok := ref.Best()
			pi, pj, pgain, pok := par.Best()
			if i != pi || j != pj || gain != pgain || ok != pok {
				t.Fatalf("shards=%d step %d: Best() (%d,%d,%v,%v) != sequential (%d,%d,%v,%v)",
					shards, step, pi, pj, pgain, pok, i, j, gain, ok)
			}
			if !ok {
				break
			}
			ref.Migrate(i, j)
			par.Migrate(i, j)
			if !reflect.DeepEqual(par.L, ref.L) || !sameSelfGains(par, ref) {
				t.Fatalf("shards=%d: entries diverged after migration %d", shards, step)
			}
			if !reflect.DeepEqual(par.Allocation(), ref.Allocation()) {
				t.Fatalf("shards=%d: allocation diverged after migration %d", shards, step)
			}
		}
		pool.Close()
	}
}

// sameSelfGains reports whether a and b have removed the same rows and
// agree on SelfGain by bits in every other one.
func sameSelfGains(a, b *Matrix) bool {
	for i := range a.L {
		if a.Removed(i) != b.Removed(i) {
			return false
		}
		for j := range a.L[i] {
			if !a.Removed(i) && math.Float64bits(a.SelfGain(i, j)) != math.Float64bits(b.SelfGain(i, j)) {
				return false
			}
		}
	}
	return true
}
