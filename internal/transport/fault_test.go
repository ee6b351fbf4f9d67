package transport

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// Two injectors with the same seed, rules and call sequence must make
// identical decisions — chaos runs replay bit-for-bit.
func TestInjectorDeterministic(t *testing.T) {
	rules := []Rule{
		{Category: CatRemaster, Kind: FaultDrop, Prob: 0.2},
		{Category: CatRemaster, Kind: FaultDelay, Prob: 0.3, Delay: time.Millisecond},
		{Category: CatTxn, Kind: FaultError, Prob: 0.1},
	}
	run := func(seed int64) []string {
		inj := NewInjector(seed)
		inj.SetRules(rules...)
		var out []string
		for i := 0; i < 2000; i++ {
			cat := CatRemaster
			if i%3 == 0 {
				cat = CatTxn
			}
			err, d := inj.Decide(cat, 0, 1)
			switch {
			case err != nil:
				out = append(out, err.Error())
			case d > 0:
				out = append(out, "delay:"+d.String())
			default:
				out = append(out, "ok")
			}
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged under same seed: %q vs %q", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("seeds 42 and 43 produced identical 2000-decision streams")
	}
}

func TestInjectorProbabilityAndCounters(t *testing.T) {
	inj := NewInjector(7)
	inj.SetRules(Rule{Category: CatReplication, Kind: FaultDrop, Prob: 0.25})
	const n = 10000
	dropped := 0
	for i := 0; i < n; i++ {
		if err, _ := inj.Decide(CatReplication, 0, 1); err != nil {
			dropped++
			if !IsInjected(err) {
				t.Fatalf("injected fault not recognised by IsInjected: %v", err)
			}
			var f *Fault
			if !errors.As(err, &f) || f.Kind != FaultDrop || f.Category != CatReplication {
				t.Fatalf("wrong fault shape: %v", err)
			}
		}
	}
	if dropped < n/5 || dropped > n/3 {
		t.Fatalf("drop rate %d/%d far from 0.25", dropped, n)
	}
	if got := inj.InjectedCount(CatReplication, FaultDrop); got != uint64(dropped) {
		t.Fatalf("InjectedCount = %d, observed %d", got, dropped)
	}
	if got := inj.InjectedTotal(); got != uint64(dropped) {
		t.Fatalf("InjectedTotal = %d, observed %d", got, dropped)
	}
	// Other categories are untouched.
	if err, _ := inj.Decide(CatTxn, 0, 1); err != nil {
		t.Fatalf("rule leaked into other category: %v", err)
	}
}

func TestInjectorPartition(t *testing.T) {
	inj := NewInjector(1)
	inj.PartitionOneWay(2, SelectorNode)
	if !inj.Partitioned(2, SelectorNode) {
		t.Fatal("partition not recorded")
	}
	if err, _ := inj.Decide(CatControl, 2, SelectorNode); !IsInjected(err) {
		t.Fatalf("partitioned edge delivered: %v", err)
	}
	// Reverse direction is open (one-way).
	if err, _ := inj.Decide(CatControl, SelectorNode, 2); err != nil {
		t.Fatalf("reverse edge faulted: %v", err)
	}
	inj.Heal(2, SelectorNode)
	if err, _ := inj.Decide(CatControl, 2, SelectorNode); err != nil {
		t.Fatalf("healed edge still faulted: %v", err)
	}
	inj.PartitionOneWay(0, 1)
	inj.PartitionOneWay(1, 0)
	inj.HealAll()
	if inj.Partitioned(0, 1) || inj.Partitioned(1, 0) {
		t.Fatal("HealAll left partitions")
	}
}

func TestNetworkSendToSurfacesFaults(t *testing.T) {
	n := NewNetwork(Instant())
	inj := NewInjector(3)
	inj.SetRules(Rule{Category: CatRemaster, Kind: FaultError, Prob: 1})
	n.SetInjector(inj)
	if err := n.SendTo(CatRemaster, SelectorNode, 1, 64); !IsInjected(err) {
		t.Fatalf("SendTo did not surface fault: %v", err)
	}
	// Wire accounting still charged for the doomed message.
	if st := n.Stats()[CatRemaster]; st.Messages != 1 || st.Bytes != 64 {
		t.Fatalf("faulted message not accounted: %+v", st)
	}
	n.SetInjector(nil)
	if err := n.SendTo(CatRemaster, SelectorNode, 1, 64); err != nil {
		t.Fatalf("fault-free SendTo errored: %v", err)
	}
	// nil network is free and infallible.
	var nilNet *Network
	if err := nilNet.SendTo(CatTxn, 0, 1, 10); err != nil {
		t.Fatalf("nil network errored: %v", err)
	}
}

func TestParseFaultSpec(t *testing.T) {
	rules, err := ParseFaultSpec("remaster:drop:0.01,replication:delay:0.05:3ms, txn:error:0.002 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{
		{Category: CatRemaster, Kind: FaultDrop, Prob: 0.01},
		{Category: CatReplication, Kind: FaultDelay, Prob: 0.05, Delay: 3 * time.Millisecond},
		{Category: CatTxn, Kind: FaultError, Prob: 0.002},
	}
	if len(rules) != len(want) {
		t.Fatalf("got %d rules, want %d", len(rules), len(want))
	}
	for i := range want {
		if rules[i] != want[i] {
			t.Fatalf("rule %d = %+v, want %+v", i, rules[i], want[i])
		}
	}
	for _, bad := range []string{
		"bogus:drop:0.1",      // unknown category
		"txn:flip:0.1",        // unknown kind
		"txn:drop:1.5",        // probability out of range
		"txn:drop:x",          // unparseable probability
		"replication:delay:1", // delay without duration
		"txn:drop:0.1:5ms",    // trailing field on non-delay
		"txn:drop",            // too few fields
	} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
	// Empty spec and stray commas are fine.
	if rules, err := ParseFaultSpec(" , "); err != nil || len(rules) != 0 {
		t.Fatalf("empty spec: rules=%v err=%v", rules, err)
	}
}

// TestRPCCallTimeoutAndRetry: a call whose deadline passes before the
// reply, or whose context is already cancelled, wraps ErrTimeout — the
// class after which a caller may retry an idempotent method — and leaves
// the connection usable; an application error wraps neither transport
// class.
func TestRPCCallTimeoutAndRetry(t *testing.T) {
	srv := NewServer()
	block := make(chan struct{})
	Handle(srv, "slow", func(req *testMsg) (*testMsg, error) {
		<-block // hangs past the caller's deadline
		return &testMsg{N: req.N * 2}, nil
	})
	Handle(srv, "apperr", func(*testMsg) (*testMsg, error) {
		return nil, errors.New("definitive failure")
	})
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(block)

	cli, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var out testMsg
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	err = cli.CallCtx(ctx, "slow", &testMsg{N: 21}, &out)
	cancel()
	if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrTimeout wrapping the deadline, got %v", err)
	}

	// The abandoned call's connection still serves; application errors are
	// definitive answers, not transport failures.
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = cli.CallCtx(ctx, "apperr", &testMsg{N: 1}, &out)
	if err == nil || errors.Is(err, ErrTimeout) || errors.Is(err, ErrConnLost) {
		t.Fatalf("want the application error, got %v", err)
	}

	// An already cancelled context fails at once, without sending.
	done, stop := context.WithCancel(context.Background())
	stop()
	err = cli.CallCtx(done, "slow", &testMsg{N: 1}, &out)
	if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: %v", err)
	}
}

// TestRPCRetryConnectionLost: a call whose connection dies before the reply
// wraps ErrConnLost, not ErrTimeout, although it runs under a deadline.
func TestRPCRetryConnectionLost(t *testing.T) {
	srv := NewServer()
	entered := make(chan struct{})
	release := make(chan struct{})
	Handle(srv, "never", func(*testMsg) (*testMsg, error) {
		close(entered)
		<-release // hold the call; the test kills the connection instead
		return &testMsg{}, nil
	})
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(release)
	cli, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		<-entered
		cli.conn.(*net.TCPConn).Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = cli.CallCtx(ctx, "never", &testMsg{N: 1}, &testMsg{})
	if !errors.Is(err, ErrConnLost) || errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrConnLost, got %v", err)
	}
}

// Send cannot deliver drops or errors (it is the legacy infallible path):
// they must be neither applied nor counted — only delays, which Send does
// honour — so the injected-fault counters reflect faults callers observed.
func TestSendCountsOnlyDeliveredFaults(t *testing.T) {
	n := NewNetwork(Instant())
	inj := NewInjector(3)
	inj.SetRules(
		Rule{Category: CatTxn, Kind: FaultDrop, Prob: 1},
		Rule{Category: CatTxn, Kind: FaultError, Prob: 1},
		Rule{Category: CatTxn, Kind: FaultDelay, Prob: 1, Delay: time.Microsecond},
	)
	n.SetInjector(inj)
	for i := 0; i < 10; i++ {
		n.Send(CatTxn, 8)
	}
	if got := inj.InjectedCount(CatTxn, FaultDrop); got != 0 {
		t.Fatalf("drop faults counted on the infallible Send path: %d", got)
	}
	if got := inj.InjectedCount(CatTxn, FaultError); got != 0 {
		t.Fatalf("error faults counted on the infallible Send path: %d", got)
	}
	if got := inj.InjectedCount(CatTxn, FaultDelay); got != 10 {
		t.Fatalf("delay faults = %d, want 10", got)
	}
}
