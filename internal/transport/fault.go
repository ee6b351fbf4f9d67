package transport

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dynamast/internal/obs"
)

// Fault injection. The simulated Network (and, through SendTo, any caller
// that identifies its endpoints) consults an Injector before delivering a
// message. Rules are per traffic category and probabilistic; the decision
// stream is driven by a counter-based splitmix64 generator, so a fixed seed
// yields a fixed sequence of fault decisions — chaos runs are reproducible
// and CI failures replay.

// FaultKind is the class of injected failure.
type FaultKind uint8

const (
	// FaultDrop loses the message: the caller observes a send error, as a
	// timed-out RPC would surface.
	FaultDrop FaultKind = iota
	// FaultDelay delivers the message after an extra fixed delay.
	FaultDelay
	// FaultError delivers a remote-error response (the RPC reaches the
	// peer's stack but fails there).
	FaultError

	numFaultKinds
)

// String names the kind (used in fault specs and metric labels).
func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultError:
		return "error"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// FaultError reports an injected fault to the caller. Protocol layers treat
// it as transient: idempotent calls retry, others abort with a retryable
// error.
type Fault struct {
	Category Category
	Kind     FaultKind
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("transport: injected %s fault on %s traffic", f.Kind, f.Category)
}

// errInjected tags every injected fault for errors.Is.
var errInjected = errors.New("transport: injected fault")

// Is makes errors.Is(err, ErrInjected) true for all injected faults.
func (f *Fault) Is(target error) bool { return target == errInjected }

// ErrInjected matches any injected fault via errors.Is.
var ErrInjected = errInjected

// IsInjected reports whether err is (or wraps) an injected fault.
func IsInjected(err error) bool { return errors.Is(err, errInjected) }

// Rule is one fault-injection rule: with probability Prob, apply Kind to a
// message in Category. Delay is the extra latency of FaultDelay rules.
type Rule struct {
	Category Category
	Kind     FaultKind
	Prob     float64
	Delay    time.Duration
}

// String renders the rule in fault-spec syntax.
func (r Rule) String() string {
	if r.Kind == FaultDelay {
		return fmt.Sprintf("%s:%s:%v:%v", r.Category, r.Kind, r.Prob, r.Delay)
	}
	return fmt.Sprintf("%s:%s:%v", r.Category, r.Kind, r.Prob)
}

// Injector decides, deterministically under a fixed seed, which messages
// fault. Safe for concurrent use; a nil *Injector injects nothing.
type Injector struct {
	seed uint64
	ctr  atomic.Uint64

	mu    sync.RWMutex
	rules []Rule
	// oneWay holds directed site partitions: oneWay[{from,to}] means
	// messages from -> to are dropped ({-1} is the selector/control node).
	oneWay map[[2]int]struct{}

	injected [numCategories][numFaultKinds]atomic.Uint64

	instrumented atomic.Bool
}

// NewInjector returns an injector with no rules. The seed fixes the
// decision stream: two injectors with equal seeds, rules and call sequences
// inject identical fault sequences.
func NewInjector(seed int64) *Injector {
	return &Injector{seed: uint64(seed), oneWay: make(map[[2]int]struct{})}
}

// Seed returns the seed fixing the injector's decision stream.
func (i *Injector) Seed() int64 { return int64(i.seed) }

// SetRules replaces the rule set.
func (i *Injector) SetRules(rules ...Rule) {
	i.mu.Lock()
	i.rules = append([]Rule(nil), rules...)
	i.mu.Unlock()
}

// AddRule appends one rule.
func (i *Injector) AddRule(r Rule) {
	i.mu.Lock()
	i.rules = append(i.rules, r)
	i.mu.Unlock()
}

// Rules returns a copy of the rule set.
func (i *Injector) Rules() []Rule {
	if i == nil {
		return nil
	}
	i.mu.RLock()
	defer i.mu.RUnlock()
	return append([]Rule(nil), i.rules...)
}

// PartitionOneWay drops all messages from site `from` to site `to` (use
// SelectorNode for the selector/control plane) until Heal.
func (i *Injector) PartitionOneWay(from, to int) {
	i.mu.Lock()
	i.oneWay[[2]int{from, to}] = struct{}{}
	i.mu.Unlock()
}

// Heal removes a one-way partition.
func (i *Injector) Heal(from, to int) {
	i.mu.Lock()
	delete(i.oneWay, [2]int{from, to})
	i.mu.Unlock()
}

// HealAll removes every partition rule.
func (i *Injector) HealAll() {
	i.mu.Lock()
	i.oneWay = make(map[[2]int]struct{})
	i.mu.Unlock()
}

// Partitioned reports whether messages from -> to are currently cut.
func (i *Injector) Partitioned(from, to int) bool {
	if i == nil {
		return false
	}
	i.mu.RLock()
	_, ok := i.oneWay[[2]int{from, to}]
	i.mu.RUnlock()
	return ok
}

// SelectorNode is the endpoint id of the site selector / control plane in
// partition rules (data sites use their site index).
const SelectorNode = -1

// roll returns the next uniform [0,1) variate of the decision stream.
// splitmix64 over an atomic counter: position k of the stream is the same
// for every run with the same seed, independent of wall clock.
func (i *Injector) roll() float64 {
	z := i.seed + i.ctr.Add(1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// Decide rolls the rules for one message in cat between from and to and
// returns the injected fault (nil = deliver normally) plus any extra delay
// to charge. Partition rules are checked first and count as drops.
func (i *Injector) Decide(cat Category, from, to int) (err error, delay time.Duration) {
	if i == nil {
		return nil, 0
	}
	if i.Partitioned(from, to) {
		i.injected[cat][FaultDrop].Add(1)
		obs.RecordEvent(obs.FlightFaultInject, to, "partition drop on %s traffic %d->%d", cat, from, to)
		return &Fault{Category: cat, Kind: FaultDrop}, 0
	}
	i.mu.RLock()
	rules := i.rules
	i.mu.RUnlock()
	for _, r := range rules {
		if r.Category != cat || r.Prob <= 0 {
			continue
		}
		if i.roll() >= r.Prob {
			continue
		}
		i.injected[cat][r.Kind].Add(1)
		switch r.Kind {
		case FaultDelay:
			delay += r.Delay
		default:
			obs.RecordEvent(obs.FlightFaultInject, to, "injected %s on %s traffic %d->%d", r.Kind, cat, from, to)
			return &Fault{Category: cat, Kind: r.Kind}, delay
		}
	}
	return nil, delay
}

// DecideDelay rolls only the delay rules for one message in cat. The
// infallible Send path cannot deliver drops or errors, so those rules (and
// partition cuts) are neither rolled nor counted there — only faults that
// actually reach the caller show up in the injected counters.
func (i *Injector) DecideDelay(cat Category) time.Duration {
	if i == nil {
		return 0
	}
	i.mu.RLock()
	rules := i.rules
	i.mu.RUnlock()
	var delay time.Duration
	for _, r := range rules {
		if r.Category != cat || r.Kind != FaultDelay || r.Prob <= 0 {
			continue
		}
		if i.roll() >= r.Prob {
			continue
		}
		i.injected[cat][FaultDelay].Add(1)
		delay += r.Delay
	}
	return delay
}

// InjectedCount returns how many faults of kind were injected in cat.
func (i *Injector) InjectedCount(cat Category, kind FaultKind) uint64 {
	if i == nil {
		return 0
	}
	return i.injected[cat][kind].Load()
}

// InjectedTotal sums all injected faults.
func (i *Injector) InjectedTotal() uint64 {
	if i == nil {
		return 0
	}
	var total uint64
	for c := range i.injected {
		for k := range i.injected[c] {
			total += i.injected[c][k].Load()
		}
	}
	return total
}

// Instrument registers dynamast_faults_injected_total{category,kind} in reg.
// Idempotent per injector.
func (i *Injector) Instrument(reg *obs.Registry) {
	if i == nil || reg == nil || !i.instrumented.CompareAndSwap(false, true) {
		return
	}
	reg.Help("dynamast_faults_injected_total", "Faults injected into the cluster wire by category and kind.")
	for _, cat := range Categories() {
		for k := FaultKind(0); k < numFaultKinds; k++ {
			c := &i.injected[cat][k]
			reg.Func("dynamast_faults_injected_total", obs.KindCounter,
				func() float64 { return float64(c.Load()) },
				obs.L("category", cat.String()), obs.L("kind", k.String()))
		}
	}
}

// ParseFaultSpec parses a comma-separated fault specification:
//
//	category:kind:prob[:delay]
//
// e.g. "remaster:drop:0.01,replication:delay:0.05:3ms,txn:error:0.002".
// Categories are the Category names (route, txn, remaster, replication,
// 2pc, shipping, control); kinds are drop, delay, error. Delay rules
// require the fourth field.
func ParseFaultSpec(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 3 {
			return nil, fmt.Errorf("transport: fault spec %q: want category:kind:prob[:delay]", part)
		}
		var r Rule
		cat, err := parseCategory(fields[0])
		if err != nil {
			return nil, fmt.Errorf("transport: fault spec %q: %w", part, err)
		}
		r.Category = cat
		switch fields[1] {
		case "drop":
			r.Kind = FaultDrop
		case "delay":
			r.Kind = FaultDelay
		case "error":
			r.Kind = FaultError
		default:
			return nil, fmt.Errorf("transport: fault spec %q: unknown kind %q", part, fields[1])
		}
		p, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || p < 0 || p > 1 || math.IsNaN(p) {
			return nil, fmt.Errorf("transport: fault spec %q: probability %q not in [0,1]", part, fields[2])
		}
		r.Prob = p
		if r.Kind == FaultDelay {
			if len(fields) < 4 {
				return nil, fmt.Errorf("transport: fault spec %q: delay rules need a duration", part)
			}
			d, err := time.ParseDuration(fields[3])
			if err != nil {
				return nil, fmt.Errorf("transport: fault spec %q: %w", part, err)
			}
			r.Delay = d
		} else if len(fields) > 3 {
			return nil, fmt.Errorf("transport: fault spec %q: trailing fields", part)
		}
		rules = append(rules, r)
	}
	return rules, nil
}

func parseCategory(s string) (Category, error) {
	for _, c := range Categories() {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown category %q", s)
}

// rpcRetries counts retried RPCs across the process (the in-process
// remaster chains); Network.Instrument re-exports it as
// dynamast_rpc_retries_total.
var rpcRetries atomic.Uint64

// CountRetry records one RPC retry (retry counter + flight recorder).
func CountRetry() {
	rpcRetries.Add(1)
	obs.RecordEvent(obs.FlightRPCRetry, obs.SelectorSite, "rpc attempt retried")
}

// RPCRetries returns the process-wide retry count.
func RPCRetries() uint64 { return rpcRetries.Load() }
