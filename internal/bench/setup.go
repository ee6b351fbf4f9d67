package bench

import (
	"strings"
	"time"

	"dynamast/internal/core"
	"dynamast/internal/selector"
	"dynamast/internal/sitemgr"
	"dynamast/internal/systems"
	"dynamast/internal/transport"
	"dynamast/internal/workload"
)

// SystemKind names an evaluated architecture.
type SystemKind string

// The five evaluated systems (§VI-A1).
const (
	KindDynaMast       SystemKind = "dynamast"
	KindSingleMaster   SystemKind = "single-master"
	KindMultiMaster    SystemKind = "multi-master"
	KindPartitionStore SystemKind = "partition-store"
	KindLEAP           SystemKind = "leap"
)

// AllSystems lists the evaluated systems in the paper's presentation order.
func AllSystems() []SystemKind {
	return []SystemKind{KindDynaMast, KindSingleMaster, KindMultiMaster,
		KindPartitionStore, KindLEAP}
}

// Env is the shared experiment environment: cluster size, network and
// execution-capacity model.
type Env struct {
	Sites     int
	Network   transport.Config
	ExecSlots int
	Costs     sitemgr.CostModel
	Seed      int64
	// Weights overrides DynaMast's strategy hyperparameters; zero value
	// selects the paper's per-workload defaults.
	Weights selector.Weights
	// InitialMaster overrides DynaMast's initial partition placement
	// (nil = the default pseudo-random scatter).
	InitialMaster func(part uint64) int
	// EpochInterval overrides DynaMast's epoch group-commit interval
	// (0 = the core default; negative disables epochs for A/B runs).
	EpochInterval time.Duration
}

// DefaultEnv is the standard experiment environment: the paper's simulated
// datacenter wire and the default site capacity.
func DefaultEnv(sites int) Env {
	return Env{
		Sites:     sites,
		Network:   transport.DefaultConfig(),
		ExecSlots: sitemgr.DefaultExecSlots,
		Costs:     sitemgr.DefaultCostModel(),
	}
}

// WeightsFor returns the paper's per-workload hyperparameters (App. H).
func WeightsFor(wl workload.Workload) selector.Weights {
	name := wl.Name()
	switch {
	case strings.HasPrefix(name, "tpcc"):
		return selector.TPCCWeights()
	case name == "smallbank":
		return selector.SmallBankWeights()
	default:
		return selector.YCSBWeights()
	}
}

// Build constructs, creates tables on, and loads one system for wl. Every
// system is a core cluster: DynaMast with its site selector routing, the
// baselines configured by newBaseline over wl's static placement.
func Build(kind SystemKind, wl workload.Workload, env Env) (systems.System, error) {
	var sys systems.System
	if kind == KindDynaMast {
		w := env.Weights
		if w == (selector.Weights{}) {
			w = WeightsFor(wl)
		}
		c, err := core.NewCluster(core.Config{
			Sites:         env.Sites,
			Partitioner:   wl.Partitioner(),
			Weights:       w,
			Network:       env.Network,
			ExecSlots:     env.ExecSlots,
			Costs:         env.Costs,
			InitialMaster: env.InitialMaster,
			Seed:          env.Seed,
			EpochInterval: env.EpochInterval,
		})
		if err != nil {
			return nil, err
		}
		sys = c
	} else {
		var err error
		sys, err = newBaseline(kind, env, wl.Partitioner(), wl.Placement(env.Sites), wl.ReplicatedTables())
		if err != nil {
			return nil, err
		}
	}
	for _, t := range wl.Tables() {
		sys.CreateTable(t)
	}
	sys.Load(wl.LoadRows())
	return sys, nil
}

// RunOne builds kind for wl, runs it, and tears it down.
func RunOne(kind SystemKind, wl workload.Workload, env Env, opts Options) (Result, error) {
	sys, err := Build(kind, wl, env)
	if err != nil {
		return Result{}, err
	}
	defer sys.Close()
	return Run(sys, wl, opts), nil
}
