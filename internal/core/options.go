package core

import (
	"fmt"
	"time"

	"dynamast/internal/obs"
	"dynamast/internal/selector"
	"dynamast/internal/sitemgr"
	"dynamast/internal/transport"
)

// Option configures a cluster built with NewWithOptions. The interface is
// sealed: options are constructed with the With* helpers, and a full Config
// value is itself an Option (it replaces the accumulated configuration
// wholesale), which keeps the historical dynamast.New(dynamast.Config{...})
// call shape compiling unchanged.
type Option interface {
	apply(*Config)
}

// apply makes Config an Option: applying a Config replaces everything set
// so far, so it composes as "start from this struct" when passed first.
func (c Config) apply(dst *Config) {
	err := dst.optErr
	*dst = c
	if dst.optErr == nil {
		dst.optErr = err
	}
}

// optionFunc adapts a closure to the sealed Option interface.
type optionFunc func(*Config)

func (f optionFunc) apply(c *Config) { f(c) }

// NewWithOptions builds a Config from opts and starts a cluster on it.
func NewWithOptions(opts ...Option) (*Cluster, error) {
	var cfg Config
	for _, o := range opts {
		o.apply(&cfg)
	}
	if cfg.optErr != nil {
		return nil, cfg.optErr
	}
	return NewCluster(cfg)
}

// WithSites sets the number of data sites (m).
func WithSites(n int) Option {
	return optionFunc(func(c *Config) { c.Sites = n })
}

// WithPartitioner sets the row-to-partition mapping (required).
func WithPartitioner(p sitemgr.Partitioner) Option {
	return optionFunc(func(c *Config) { c.Partitioner = p })
}

// WithDurableDir makes the update logs file-backed under dir and places
// checkpoints alongside them, enabling crash recovery (Cluster.Recover).
func WithDurableDir(dir string) Option {
	return optionFunc(func(c *Config) { c.WALDir = dir })
}

// WithWeights sets the remastering-strategy hyperparameters (Equation 8).
func WithWeights(w selector.Weights) Option {
	return optionFunc(func(c *Config) { c.Weights = w })
}

// WithNetwork configures the simulated wire.
func WithNetwork(nc transport.Config) Option {
	return optionFunc(func(c *Config) { c.Network = nc })
}

// WithCheckpointEvery runs the background checkpointer at the given
// interval (requires a durable directory).
func WithCheckpointEvery(d time.Duration) Option {
	return optionFunc(func(c *Config) { c.CheckpointEvery = d })
}

// WithCheckpointEveryRecords additionally triggers a checkpoint whenever n
// new WAL records have accumulated since the last one.
func WithCheckpointEveryRecords(n uint64) Option {
	return optionFunc(func(c *Config) { c.CheckpointEveryRecords = n })
}

// WithFaults installs a deterministic fault injector on the cluster wire,
// configured by a "category:kind:prob[:delay]" spec (see
// transport.ParseFaultSpec) and seeded so equal seeds replay identical
// fault streams. A malformed spec surfaces as an error from New.
func WithFaults(spec string, seed int64) Option {
	return optionFunc(func(c *Config) {
		rules, err := transport.ParseFaultSpec(spec)
		if err != nil {
			c.optErr = fmt.Errorf("core: WithFaults: %w", err)
			return
		}
		inj := transport.NewInjector(seed)
		inj.SetRules(rules...)
		c.Faults = inj
	})
}

// WithFailureDetection enables the heartbeat-based site failure detector.
func WithFailureDetection(fd FailureDetectionConfig) Option {
	return optionFunc(func(c *Config) { c.FailureDetection = fd })
}

// WithSelectorReplicas sets the number of standby selectors behind each
// router shard's leader (Appendix I). Standbys hold no state; with any
// standby, sessions route reads and single-sited writes locally from the
// leader's partition map. Under WithSelectorLease a standby promotes when
// the leader's lease expires.
func WithSelectorReplicas(n int) Option {
	return optionFunc(func(c *Config) { c.SelectorReplicas = n })
}

// WithSelectorShards splits the selector control plane into n independent
// router shards, each owning a contiguous range of the partition-id hash
// space (selector.RouterShardOf) with its own routing loop, statistics
// stripes, placement controller, and — under WithSelectorLease — its own
// lease and remaster-epoch allocator. In sharded deployments sessions also
// route reads, and optimistically route writes, locally without touching
// any router. n <= 1 keeps the single-router
// selector (the default, wire-identical to earlier versions); n above
// selector.MaxRouterShards is an error.
func WithSelectorShards(n int) Option {
	return optionFunc(func(c *Config) {
		if n > selector.MaxRouterShards {
			c.optErr = fmt.Errorf("core: WithSelectorShards(%d) exceeds the maximum %d",
				n, selector.MaxRouterShards)
			return
		}
		c.SelectorShards = n
	})
}

// WithSelectorLease puts the selector tier under lease-based leader
// failover with the given lease TTL: when the leader's lease expires a
// standby promotes, fencing the deposed leader and rebuilding the map from
// the last checkpoint and the sites' WAL. d <= 0 disables HA.
func WithSelectorLease(d time.Duration) Option {
	return optionFunc(func(c *Config) { c.SelectorLease = d })
}

// WithSeed fixes the read-routing randomization seed.
func WithSeed(seed int64) Option {
	return optionFunc(func(c *Config) { c.Seed = seed })
}

// WithTraceSampling head-samples one in every n locally originated update
// transactions for distributed span tracing (n <= 0 disables sampling).
func WithTraceSampling(n int) Option {
	return optionFunc(func(c *Config) { c.TraceSampleEvery = n })
}

// WithSLO watches latency SLO targets described by a
// "metric:quantile:threshold" spec (see obs.ParseSLOSpec), evaluated every
// interval (0 = 1s). A malformed spec surfaces as an error from New.
func WithSLO(spec string, interval time.Duration) Option {
	return optionFunc(func(c *Config) {
		targets, err := obs.ParseSLOSpec(spec)
		if err != nil {
			c.optErr = fmt.Errorf("core: WithSLO: %w", err)
			return
		}
		c.SLOTargets = append(c.SLOTargets, targets...)
		c.SLOInterval = interval
	})
}

// WithSLOTargets watches pre-built SLO targets (programmatic form of
// WithSLO).
func WithSLOTargets(targets ...obs.SLOTarget) Option {
	return optionFunc(func(c *Config) { c.SLOTargets = append(c.SLOTargets, targets...) })
}

// WithFlightDir writes flight-recorder snapshots under dir on failover,
// recovery, and panic (see obs.SnapshotFlight).
func WithFlightDir(dir string) Option {
	return optionFunc(func(c *Config) { c.FlightDir = dir })
}

// WithReplicationFactor bounds each partition's replica set to [min, max]
// sites, turning on adaptive partial replication: partitions start at min
// copies placed deterministically, and the placement controller adds
// replicas where reads concentrate and drops them where access decays. max
// < min (0 included) means "up to every site". Requires min >= 1; without
// this option every partition replicates everywhere (the classic DynaMast
// model).
func WithReplicationFactor(min, max int) Option {
	return optionFunc(func(c *Config) {
		if min < 1 {
			c.optErr = fmt.Errorf("core: WithReplicationFactor: min %d < 1", min)
			return
		}
		if max != 0 && max < min {
			c.optErr = fmt.Errorf("core: WithReplicationFactor: max %d < min %d", max, min)
			return
		}
		c.MinReplicas, c.MaxReplicas = min, max
	})
}

// WithPlacementPolicy sets the policy deciding each partition's replica set
// from its observed access statistics. Implies partial replication at
// bounds [1, Sites] unless WithReplicationFactor narrows them — except for
// StaticFullReplication, which keeps the full-replication fast path.
func WithPlacementPolicy(p selector.PlacementPolicy) Option {
	return optionFunc(func(c *Config) { c.PlacementPolicy = p })
}

// WithPlacementInterval sets how often the placement controller re-evaluates
// replica sets (0 = selector.DefaultPlacementInterval).
func WithPlacementInterval(d time.Duration) Option {
	return optionFunc(func(c *Config) { c.PlacementInterval = d })
}

// WithEpochInterval sets the epoch group-commit seal interval: commits batch
// into epochs sealed every d with one WAL flush, one site-vector advance,
// and one coalesced replication record. d <= 0 disables epochs, restoring
// per-transaction commit records (the pre-epoch wire format, byte for
// byte). Without this option epochs default on at
// sitemgr.DefaultEpochInterval.
func WithEpochInterval(d time.Duration) Option {
	return optionFunc(func(c *Config) {
		if d <= 0 {
			c.EpochInterval = -1
		} else {
			c.EpochInterval = d
		}
	})
}
