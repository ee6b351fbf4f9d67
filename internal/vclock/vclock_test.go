package vclock

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestNewZeroed(t *testing.T) {
	v := New(4)
	if v.Len() != 4 {
		t.Fatalf("Len = %d, want 4", v.Len())
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
	m := Max(a, b)
	if !m.Equal(Vector{2, 2}) {
		t.Fatalf("Max = %v", m)
	}
	if !a.Equal(Vector{1, 2}) || !b.Equal(Vector{2, 1}) {
		t.Fatal("Max mutated its arguments")
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

func TestCanApply(t *testing.T) {
	// Replica has applied nothing; first transaction from site 0 applies.
	if !CanApply(Vector{0, 0, 0}, Vector{1, 0, 0}, 0) {
		t.Error("first txn from origin should apply")
	}
	// Gap in origin sequence: seq 2 cannot apply before seq 1.
	if CanApply(Vector{0, 0, 0}, Vector{2, 0, 0}, 0) {
		t.Error("out-of-order origin txn applied")
	}
	// Dependency on another site not yet satisfied (the paper's Fig. 2
	// example: R(T2) from site 3 blocks at site 2 until R(T1) applies).
	if CanApply(Vector{0, 0, 0}, Vector{1, 0, 1}, 2) {
		t.Error("applied refresh before its dependency")
	}
	if !CanApply(Vector{1, 0, 0}, Vector{1, 0, 1}, 2) {
		t.Error("refresh with satisfied dependency rejected")
	}
	// Already applied (svv[origin] == tvv[origin]) must not re-apply.
	if CanApply(Vector{1, 0, 1}, Vector{1, 0, 1}, 2) {
		t.Error("refresh re-applied")
	}
	// Invalid origin index.
	if CanApply(Vector{1}, Vector{1}, 5) {
		t.Error("out-of-range origin accepted")
	}
	// tvv[origin] == 0 is never applicable (commit seqs start at 1).
	if CanApply(Vector{0}, Vector{0}, 0) {
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

// Property: Max(a,b) dominates both a and b, and is the least such vector
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
		m := Max(va, vb)
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

// Property: CanApply admits exactly one next transaction per origin given a
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
				if CanApply(svv, tx.tvv, tx.origin) {
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

func TestSiteClockTickLocal(t *testing.T) {
	c := NewSiteClock(1, 3)
	v := c.TickLocal()
	if !v.Equal(Vector{0, 1, 0}) {
		t.Fatalf("TickLocal = %v", v)
	}
	v = c.TickLocal()
	if !v.Equal(Vector{0, 2, 0}) {
		t.Fatalf("second TickLocal = %v", v)
	}
	if c.Get(1) != 2 {
		t.Fatalf("Get(1) = %d", c.Get(1))
	}
}

func TestSiteClockAdvanceMonotone(t *testing.T) {
	c := NewSiteClock(0, 2)
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
	c := NewSiteClock(0, 2)
	done := make(chan Vector, 1)
	go func() { c.WaitDominatesEq(Vector{1, 2}); done <- c.Now() }()
	select {
	case <-done:
		t.Fatal("wait returned before clock advanced")
	case <-time.After(10 * time.Millisecond):
	}
	c.TickLocal()
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
	c := NewSiteClock(0, 2)
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

func TestSiteClockConcurrentTicks(t *testing.T) {
	c := NewSiteClock(0, 1)
	const n = 50
	var wg sync.WaitGroup
	seen := make(chan uint64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen <- c.TickLocal()[0]
		}()
	}
	wg.Wait()
	close(seen)
	got := map[uint64]bool{}
	for s := range seen {
		if got[s] {
			t.Fatalf("duplicate commit seq %d", s)
		}
		got[s] = true
	}
	if c.Get(0) != n {
		t.Fatalf("final seq %d, want %d", c.Get(0), n)
	}
}
