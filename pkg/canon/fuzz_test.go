package canon

import (
	"context"
	"math/rand"
	"testing"

	"github.com/paper-repo-growth/mirs/internal/core"
	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// resultFingerprint reduces a compilation to the fields the serving
// layer caches — the values that must agree for two hash-equal inputs.
type resultFingerprint struct {
	ii, mii, maxLive, unroll int
	fits                     bool
}

func fingerprint(t *testing.T, l *ir.Loop) (resultFingerprint, bool) {
	t.Helper()
	r, err := core.CompileSafeWith(context.Background(), sched.ListScheduler{}, l, machine.Unified(), core.Opts{})
	if err != nil {
		return resultFingerprint{}, false
	}
	return resultFingerprint{
		ii:      r.Schedule.II,
		mii:     r.MII.MII,
		maxLive: r.Pressure.MaxLive,
		unroll:  r.Expanded.Unroll,
		fits:    r.Pressure.Fits(),
	}, true
}

// FuzzHashCompileAgreement pins the soundness direction of the content
// address: hash-equal inputs must compile to result-equal outputs. Each
// fuzz case generates a loop, derives a hash-equal twin through the
// canonicalised permutations (operand shuffles and a loop rename), and
// asserts both that the address really is unchanged and that the
// compiled fingerprints (II, MII, MaxLive, unroll, fits) agree. A
// second independently generated loop cross-checks the implication from
// the other side: if its address happens to collide, its result must
// match too.
func FuzzHashCompileAgreement(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(3))
	f.Add(uint64(7), uint64(7), uint64(99))
	f.Add(uint64(42), uint64(1000), uint64(0))
	f.Fuzz(func(t *testing.T, seedA, seedB, permSeed uint64) {
		corpusA := gen.Corpus(seedA, 1+int(seedA%4))
		a := corpusA[len(corpusA)-1]
		opts := Options{Backend: "list"}
		keyA := Key(a, machine.Unified(), opts)

		rng := rand.New(rand.NewSource(int64(permSeed)))
		twin := permuteLoop(a, rng)
		twin.Name = a.Name + "-twin"
		if got := Key(twin, machine.Unified(), opts); got != keyA {
			t.Fatalf("semantics-preserving permutation moved the address: %s -> %s", keyA, got)
		}
		fa, okA := fingerprint(t, a)
		ft, okT := fingerprint(t, twin)
		if okA != okT || fa != ft {
			t.Fatalf("hash-equal loops compiled differently: %+v (ok=%v) vs %+v (ok=%v)", fa, okA, ft, okT)
		}

		corpusB := gen.Corpus(seedB, 1+int(seedB%4))
		b := corpusB[len(corpusB)-1]
		if Key(b, machine.Unified(), opts) == keyA {
			fb, okB := fingerprint(t, b)
			if okA != okB || fa != fb {
				t.Fatalf("colliding addresses with different results: %+v vs %+v", fa, fb)
			}
		}
	})
}
