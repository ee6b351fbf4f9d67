package vclock

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestNewZeroed(t *testing.T) {
	v := New(4)
	if len(v) != 4 {
		t.Fatalf("len = %d, want 4", len(v))
	}
	for k, x := range v {
		if x != 0 {
			t.Fatalf("v[%d] = %d, want 0", k, x)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatalf("Clone shares storage: v[0] = %d", v[0])
	}
	if Vector(nil).Clone() != nil {
		t.Fatal("Clone(nil) should be nil")
	}
}

func TestDominatesEq(t *testing.T) {
	cases := []struct {
		a, b Vector
		want bool
	}{
		{Vector{1, 2, 3}, Vector{1, 2, 3}, true},
		{Vector{2, 2, 3}, Vector{1, 2, 3}, true},
		{Vector{0, 2, 3}, Vector{1, 2, 3}, false},
		{Vector{}, Vector{}, true},
		{Vector{}, Vector{0, 0}, true},
		{Vector{}, Vector{1}, false},
		{Vector{5}, Vector{}, true},
		{Vector{1, 0}, Vector{1}, true},
	}
	for i, c := range cases {
		if got := c.a.DominatesEq(c.b); got != c.want {
			t.Errorf("case %d: %v.DominatesEq(%v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestEqual(t *testing.T) {
	if !(Vector{1, 2}).Equal(Vector{1, 2, 0}) {
		t.Error("trailing zeros should compare equal")
	}
	if (Vector{1, 2}).Equal(Vector{1, 2, 1}) {
		t.Error("distinct vectors compared equal")
	}
	if !(Vector{}).Equal(nil) {
		t.Error("empty and nil should be equal")
	}
}

func TestLess(t *testing.T) {
	if !(Vector{0, 0}).Less(Vector{1, 1}) {
		t.Error("strictly smaller vector not Less")
	}
	if (Vector{0, 1}).Less(Vector{1, 1}) {
		t.Error("Less must be strict in every dimension")
	}
	if (Vector{1, 1}).Less(Vector{1, 1}) {
		t.Error("equal vectors are not Less")
	}
	if (Vector{}).Less(Vector{}) {
		t.Error("empty Less empty must be false")
	}
}

func TestMaxInto(t *testing.T) {
	v := Vector{1, 5, 0}
	v = v.MaxInto(Vector{3, 2, 0, 7})
	want := Vector{3, 5, 0, 7}
	if !v.Equal(want) {
		t.Fatalf("MaxInto = %v, want %v", v, want)
	}
}

func TestMaxDoesNotMutate(t *testing.T) {
	a := Vector{1, 2}
	b := Vector{2, 1}
	m := a.Clone().MaxInto(b)
	if !m.Equal(Vector{2, 2}) {
		t.Fatalf("MaxInto = %v", m)
	}
	if !a.Equal(Vector{1, 2}) || !b.Equal(Vector{2, 1}) {
		t.Fatal("MaxInto on a clone mutated the clone's source or its argument")
	}
}

func TestLagBehind(t *testing.T) {
	if lag := (Vector{1, 1}).LagBehind(Vector{3, 0, 2}); lag != 4 {
		t.Fatalf("LagBehind = %d, want 4", lag)
	}
	if lag := (Vector{5, 5}).LagBehind(Vector{1, 1}); lag != 0 {
		t.Fatalf("LagBehind when ahead = %d, want 0", lag)
	}
}

func TestSum(t *testing.T) {
	if s := (Vector{1, 2, 3}).Sum(); s != 6 {
		t.Fatalf("Sum = %d, want 6", s)
	}
}

// applies is the per-transaction apply rule: a one-member epoch whose
// closing vector is the transaction's commit vector tvv.
func applies(svv, tvv Vector, origin int) bool {
	if origin < 0 || origin >= len(tvv) {
		return false
	}
	return CanApplyEpoch(svv, tvv, origin, tvv[origin])
}

func TestCanApply(t *testing.T) {
	// Replica has applied nothing; first transaction from site 0 applies.
	if !applies(Vector{0, 0, 0}, Vector{1, 0, 0}, 0) {
		t.Error("first txn from origin should apply")
	}
	// Gap in origin sequence: seq 2 cannot apply before seq 1.
	if applies(Vector{0, 0, 0}, Vector{2, 0, 0}, 0) {
		t.Error("out-of-order origin txn applied")
	}
	// Dependency on another site not yet satisfied (the paper's Fig. 2
	// example: R(T2) from site 3 blocks at site 2 until R(T1) applies).
	if applies(Vector{0, 0, 0}, Vector{1, 0, 1}, 2) {
		t.Error("applied refresh before its dependency")
	}
	if !applies(Vector{1, 0, 0}, Vector{1, 0, 1}, 2) {
		t.Error("refresh with satisfied dependency rejected")
	}
	// Already applied (svv[origin] == tvv[origin]) must not re-apply.
	if applies(Vector{1, 0, 1}, Vector{1, 0, 1}, 2) {
		t.Error("refresh re-applied")
	}
	// Invalid origin index.
	if applies(Vector{1}, Vector{1}, 5) {
		t.Error("out-of-range origin accepted")
	}
	// tvv[origin] == 0 is never applicable (commit seqs start at 1).
	if applies(Vector{0}, Vector{0}, 0) {
		t.Error("zero commit seq accepted")
	}
}

func TestStringFormat(t *testing.T) {
	if s := (Vector{1, 0, 7}).String(); s != "[1 0 7]" {
		t.Fatalf("String = %q", s)
	}
	if s := (Vector{}).String(); s != "[]" {
		t.Fatalf("String empty = %q", s)
	}
}

// Property: a.Clone().MaxInto(b) dominates both a and b, and is the least such vector
// (every dimension equals one of the inputs).
func TestQuickMaxIsLeastUpperBound(t *testing.T) {
	f := func(a, b []uint8) bool {
		va := make(Vector, len(a))
		vb := make(Vector, len(b))
		for i, x := range a {
			va[i] = uint64(x)
		}
		for i, x := range b {
			vb[i] = uint64(x)
		}
		m := va.Clone().MaxInto(vb)
		if !m.DominatesEq(va) || !m.DominatesEq(vb) {
			return false
		}
		for k := range m {
			var ak, bk uint64
			if k < len(va) {
				ak = va[k]
			}
			if k < len(vb) {
				bk = vb[k]
			}
			if m[k] != ak && m[k] != bk {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: DominatesEq is a partial order — reflexive, antisymmetric (up to
// Equal), transitive on random triples.
func TestQuickDominatesPartialOrder(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	gen := func() Vector {
		v := New(4)
		for k := range v {
			v[k] = uint64(rnd.Intn(4))
		}
		return v
	}
	for i := 0; i < 2000; i++ {
		a, b, c := gen(), gen(), gen()
		if !a.DominatesEq(a) {
			t.Fatal("not reflexive")
		}
		if a.DominatesEq(b) && b.DominatesEq(a) && !a.Equal(b) {
			t.Fatalf("antisymmetry violated: %v %v", a, b)
		}
		if a.DominatesEq(b) && b.DominatesEq(c) && !a.DominatesEq(c) {
			t.Fatalf("transitivity violated: %v %v %v", a, b, c)
		}
	}
}

// Property: the one-member apply rule admits exactly one next transaction per origin given a
// state, and applying in rule order reaches the same final vector regardless
// of interleaving.
func TestQuickCanApplyConvergence(t *testing.T) {
	const m = 3
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		// Build a random but causally consistent history: each site commits
		// transactions in sequence, each begin vector dominated by current.
		type txn struct {
			tvv    Vector
			origin int
		}
		clocks := New(m)
		var history []txn
		for i := 0; i < 12; i++ {
			origin := rnd.Intn(m)
			begin := clocks.Clone()
			// Randomly forget some remote progress (lazy replication).
			for k := range begin {
				if k != origin && begin[k] > 0 {
					begin[k] -= uint64(rnd.Intn(int(begin[k]) + 1))
				}
			}
			clocks[origin]++
			tvv := begin
			tvv[origin] = clocks[origin]
			history = append(history, txn{tvv, origin})
		}
		// Apply at a replica in random retry order until fixpoint.
		svv := New(m)
		pending := append([]txn(nil), history...)
		for len(pending) > 0 {
			progressed := false
			rnd.Shuffle(len(pending), func(i, j int) { pending[i], pending[j] = pending[j], pending[i] })
			var next []txn
			for _, tx := range pending {
				if applies(svv, tx.tvv, tx.origin) {
					svv[tx.origin] = tx.tvv[tx.origin]
					progressed = true
				} else {
					next = append(next, tx)
				}
			}
			pending = next
			if !progressed {
				t.Fatalf("stuck: svv=%v pending=%d", svv, len(pending))
			}
		}
		if !svv.Equal(clocks) {
			t.Fatalf("replica converged to %v, want %v", svv, clocks)
		}
	}
}

func TestSiteClockAdvanceMonotone(t *testing.T) {
	c := NewSiteClock(2)
	c.Advance(1, 5)
	c.Advance(1, 3) // must not regress
	if got := c.Get(1); got != 5 {
		t.Fatalf("Get(1) = %d, want 5", got)
	}
	c.Advance(9, 1) // out of range: ignored
	if !c.Now().Equal(Vector{0, 5}) {
		t.Fatalf("Now = %v", c.Now())
	}
}

func TestSiteClockWaitDominatesEq(t *testing.T) {
	c := NewSiteClock(2)
	done := make(chan Vector, 1)
	go func() { c.WaitDominatesEq(Vector{1, 2}); done <- c.Now() }()
	select {
	case <-done:
		t.Fatal("wait returned before clock advanced")
	case <-time.After(10 * time.Millisecond):
	}
	c.Advance(0, 1)
	c.Advance(1, 2)
	select {
	case v := <-done:
		if !v.DominatesEq(Vector{1, 2}) {
			t.Fatalf("woke with %v", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("wait never woke")
	}
}

func TestSiteClockWaitDimAtLeast(t *testing.T) {
	c := NewSiteClock(2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.WaitDimAtLeast(1, 3)
		if c.Get(1) < 3 {
			panic("woke early")
		}
	}()
	for s := uint64(1); s <= 3; s++ {
		c.Advance(1, s)
	}
	wg.Wait()
}

// TestSiteClockNowConsistentCut checks that the lock-free Now never pairs an
// old dimension with a newer one. The writer raises dimension 0 before the
// last dimension to the same value, as an applier installs a dependency
// before its dependent, so every vector the clock ever held has
// v[last] <= v[0]; a reader that loaded the dimensions in order without the
// gen check could see v[last] ahead of v[0]. The wide vector widens the
// window between the two loads.
func TestSiteClockNowConsistentCut(t *testing.T) {
	const m, n = 64, 200_000
	c := NewSiteClock(m)
	var stop atomic.Bool
	var wg sync.WaitGroup
	bad := make(chan Vector, 1)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if v := c.Now(); v[m-1] > v[0] {
					select {
					case bad <- v:
					default:
					}
					return
				}
			}
		}()
	}
	for s := uint64(1); s <= n; s++ {
		c.Advance(0, s)
		c.Advance(m-1, s)
	}
	stop.Store(true)
	wg.Wait()
	select {
	case v := <-bad:
		t.Fatalf("Now returned %v, a vector the clock never held", v)
	default:
	}
	if v := c.Now(); v[0] != n || v[m-1] != n {
		t.Fatalf("final Now = %v", v)
	}
}

func TestSiteClockConcurrentTicks(t *testing.T) {
	c := NewSiteClock(1)
	const n = 50
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(seq uint64) {
			defer wg.Done()
			c.Advance(0, seq)
			if got := c.Get(0); got < seq {
				t.Errorf("Get(0) = %d after Advance(0, %d)", got, seq)
			}
		}(uint64(i))
	}
	wg.Wait()
	if c.Get(0) != n {
		t.Fatalf("final seq %d, want %d", c.Get(0), n)
	}
}
