// Package server exposes a DynaMast cluster over the TCP RPC layer: a
// small operation-based transactional API that remote clients drive
// (cmd/dynamastd and examples/cluster). Transactions arrive as declared
// write sets plus ordered operation lists, mirroring the paper's
// stored-procedure submission model.
package server

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"dynamast/internal/core"
	"dynamast/internal/obs"
	"dynamast/internal/selector"
	"dynamast/internal/storage"
	"dynamast/internal/systems"
	"dynamast/internal/transport"
)

// OpKind discriminates transaction operations.
type OpKind uint8

const (
	// OpGet reads a row into the result list.
	OpGet OpKind = iota + 1
	// OpPut writes Value to the row.
	OpPut
	// OpAdd interprets the row as a big-endian uint64 counter and adds
	// Delta (missing rows count as zero) — the server-side
	// read-modify-write primitive.
	OpAdd
	// OpScan reads rows of Table with Lo <= key < Hi.
	OpScan
)

// Op is one operation of a transaction.
type Op struct {
	Kind  OpKind
	Table string
	Key   uint64
	Lo    uint64
	Hi    uint64
	Value []byte
	Delta int64
}

// OpResult is one operation's outcome.
type OpResult struct {
	Found bool
	Value []byte
	Rows  []storage.KV
}

// TxnRequest is a transaction submission.
type TxnRequest struct {
	// Client identifies the session (strong-session SI is per client).
	Client int
	// WriteSet declares the rows the transaction may write; empty means
	// read-only.
	WriteSet []storage.RowRef
	// Ops execute in order.
	Ops []Op
}

// TxnResponse carries the per-op results of a committed transaction.
type TxnResponse struct {
	Results []OpResult
}

// Server hosts a cluster behind the RPC layer.
type Server struct {
	cluster *core.Cluster
	rpc     *transport.Server

	mu       sync.Mutex
	sessions map[int]*lockedSession
}

// lockedSession serializes a client's transactions: sessions are
// single-threaded by contract (a session's order defines SSSI), and one
// client id may arrive over concurrent connections.
type lockedSession struct {
	mu   sync.Mutex
	sess *core.Session
}

// Serve starts serving cluster on addr ("host:0" picks a free port) and
// returns the bound address.
func Serve(cluster *core.Cluster, addr string) (*Server, net.Addr, error) {
	s := &Server{
		cluster:  cluster,
		rpc:      transport.NewServer(),
		sessions: make(map[int]*lockedSession),
	}
	transport.HandleTraced(s.rpc, "txn", s.handleTxn)
	transport.Handle(s.rpc, "create_table", s.handleCreateTable)
	transport.Handle(s.rpc, "stats", s.handleStats)
	transport.Handle(s.rpc, "metrics", s.handleMetrics)
	transport.Handle(s.rpc, "faults", s.handleFaults)
	transport.Handle(s.rpc, "checkpoint", s.handleCheckpoint)
	transport.Handle(s.rpc, "placement", s.handlePlacement)
	bound, err := s.rpc.ListenAndServe(addr)
	if err != nil {
		return nil, nil, err
	}
	return s, bound, nil
}

// Close stops the RPC listener (the cluster is owned by the caller).
func (s *Server) Close() error { return s.rpc.Close() }

func (s *Server) session(client int) *lockedSession {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.sessions[client]
	if ls == nil {
		ls = &lockedSession{sess: s.cluster.Session(client)}
		s.sessions[client] = ls
	}
	return ls
}

type createTableReq struct{ Name string }
type createTableResp struct{}

func (s *Server) handleCreateTable(req *createTableReq) (*createTableResp, error) {
	s.cluster.CreateTable(req.Name)
	return &createTableResp{}, nil
}

// handleTxn executes one submitted transaction. tc is the distributed trace
// context the client carried in its RPC frame (zero when unsampled): the
// server-side session joins that trace, recording the root txn span and the
// whole downstream span tree under the client's trace id.
func (s *Server) handleTxn(tc obs.SpanContext, req *TxnRequest) (*TxnResponse, error) {
	ls := s.session(req.Client)
	ls.mu.Lock()
	defer ls.mu.Unlock()
	sess := ls.sess
	if tc.Sampled() {
		sess.SetTraceContext(tc)
	}
	resp := &TxnResponse{Results: make([]OpResult, len(req.Ops))}
	run := func(tx systems.Tx) error {
		for i, op := range req.Ops {
			switch op.Kind {
			case OpGet:
				data, ok := tx.Read(storage.RowRef{Table: op.Table, Key: op.Key})
				resp.Results[i] = OpResult{Found: ok, Value: append([]byte(nil), data...)}
			case OpPut:
				if err := tx.Write(storage.RowRef{Table: op.Table, Key: op.Key}, op.Value); err != nil {
					return err
				}
				resp.Results[i] = OpResult{Found: true}
			case OpAdd:
				ref := storage.RowRef{Table: op.Table, Key: op.Key}
				var cur uint64
				if data, ok := tx.Read(ref); ok && len(data) >= 8 {
					for b := 0; b < 8; b++ {
						cur = cur<<8 | uint64(data[b])
					}
				}
				cur = uint64(int64(cur) + op.Delta)
				out := make([]byte, 8)
				for b := 0; b < 8; b++ {
					out[b] = byte(cur >> (56 - 8*b))
				}
				if err := tx.Write(ref, out); err != nil {
					return err
				}
				resp.Results[i] = OpResult{Found: true, Value: out}
			case OpScan:
				// The reply is encoded after the transaction finished, when
				// its scan rows are no longer valid: keep a copy.
				resp.Results[i] = OpResult{Found: true, Rows: slices.Clone(tx.Scan(op.Table, op.Lo, op.Hi))}
			default:
				return fmt.Errorf("server: unknown op kind %d", op.Kind)
			}
		}
		return nil
	}
	var err error
	if len(req.WriteSet) > 0 {
		err = sess.Update(req.WriteSet, run)
	} else {
		err = sess.Read(run)
	}
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// StatsRequest asks for cluster statistics.
type StatsRequest struct{}

// StatsReply is a cluster-statistics snapshot for operators.
type StatsReply struct {
	Commits        uint64
	PerSiteCommits []uint64
	WriteTxns      uint64
	ReadTxns       uint64
	RemasterTxns   uint64
	PartsMoved     uint64
	RoutedPerSite  []uint64
	SiteVectors    [][]uint64
}

func (s *Server) handleStats(*StatsRequest) (*StatsReply, error) {
	st := s.cluster.Stats()
	m := s.cluster.Selector().Metrics()
	reply := &StatsReply{
		Commits:        st.Commits,
		PerSiteCommits: st.PerSiteCommits,
		WriteTxns:      m.WriteTxns,
		ReadTxns:       m.ReadTxns,
		RemasterTxns:   m.RemasterTxns,
		PartsMoved:     m.PartsMoved,
		RoutedPerSite:  m.RoutedPerSite,
	}
	for _, site := range s.cluster.Sites() {
		reply.SiteVectors = append(reply.SiteVectors, site.SVV())
	}
	return reply, nil
}

// MetricsRequest asks for an observability snapshot. Traces limits how
// many recent lifecycle traces ride along (0 = none).
type MetricsRequest struct {
	Traces int
}

// MetricsReply carries the full registry snapshot and, when requested,
// recent transaction lifecycle traces — the same data the /metrics and
// /debug/traces HTTP endpoints serve.
type MetricsReply struct {
	Snapshot obs.Snapshot
	Traces   []obs.TraceJSON
}

func (s *Server) handleMetrics(req *MetricsRequest) (*MetricsReply, error) {
	reply := &MetricsReply{Snapshot: s.cluster.Obs().Snapshot()}
	if req.Traces > 0 {
		reply.Traces = obs.TracesJSON(s.cluster.Tracer().Recent(req.Traces))
	}
	return reply, nil
}

// FaultsRequest inspects or updates the cluster's fault-injection rules.
// With Spec empty the request is read-only; "off" clears the rule set; any
// other value is parsed as a fault spec ("category:kind:prob[:delay]",
// comma-separated) and replaces the rules.
type FaultsRequest struct {
	Spec string
}

// FaultRuleInfo is one active injection rule, rendered with names.
type FaultRuleInfo struct {
	Category string
	Kind     string
	Prob     float64
	Delay    time.Duration
}

// FaultsReply reports the cluster's fault-injection state: whether an
// injector is installed, its seed and rules, non-zero injection counters by
// "category/kind", and the related resilience counters.
type FaultsReply struct {
	Enabled    bool
	Seed       int64
	Rules      []FaultRuleInfo
	Injected   map[string]uint64
	RPCRetries uint64
	Failovers  uint64
}

func (s *Server) handleFaults(req *FaultsRequest) (*FaultsReply, error) {
	inj := s.cluster.Faults()
	if req.Spec != "" {
		if inj == nil {
			return nil, fmt.Errorf("fault injection not enabled: start the daemon with -fault-spec (or configure Faults)")
		}
		if req.Spec == "off" {
			inj.SetRules()
		} else {
			rules, err := transport.ParseFaultSpec(req.Spec)
			if err != nil {
				return nil, err
			}
			inj.SetRules(rules...)
		}
	}
	reply := &FaultsReply{
		Enabled:    inj != nil,
		Injected:   make(map[string]uint64),
		RPCRetries: transport.RPCRetries(),
		Failovers:  s.cluster.Failovers(),
	}
	if inj == nil {
		return reply, nil
	}
	reply.Seed = inj.Seed()
	for _, r := range inj.Rules() {
		reply.Rules = append(reply.Rules, FaultRuleInfo{
			Category: r.Category.String(), Kind: r.Kind.String(), Prob: r.Prob, Delay: r.Delay,
		})
	}
	for _, cat := range transport.Categories() {
		for _, k := range []transport.FaultKind{transport.FaultDrop, transport.FaultDelay, transport.FaultError} {
			if n := inj.InjectedCount(cat, k); n > 0 {
				reply.Injected[cat.String()+"/"+k.String()] = n
			}
		}
	}
	return reply, nil
}

// CheckpointRequest asks the cluster to take a checkpoint now.
type CheckpointRequest struct{}

// CheckpointReply summarizes the committed checkpoint: its sequence number,
// per-site snapshot sizes, and the WAL low-water marks the logs were
// truncated to.
type CheckpointReply struct {
	Seq      uint64
	Rows     []uint64
	Bytes    []uint64
	LowWater []uint64
}

func (s *Server) handleCheckpoint(*CheckpointRequest) (*CheckpointReply, error) {
	m, err := s.cluster.Checkpoint()
	if err != nil {
		return nil, err
	}
	reply := &CheckpointReply{Seq: m.Seq, LowWater: m.LowWater}
	for _, info := range m.Snapshots {
		reply.Rows = append(reply.Rows, info.Rows)
		reply.Bytes = append(reply.Bytes, info.Bytes)
	}
	return reply, nil
}

// PlacementRequest asks for the cluster's replica placement snapshot.
type PlacementRequest struct{}

// PlacementReply carries the placement snapshot: per-partition replica sets
// and masters, per-site residency, and the recent add/drop decision log.
type PlacementReply struct {
	Info selector.PlacementInfo
}

func (s *Server) handlePlacement(*PlacementRequest) (*PlacementReply, error) {
	return &PlacementReply{Info: s.cluster.Placement()}, nil
}

// Client is a remote session against a Server.
type Client struct {
	rpc *transport.Client
	id  int
}

// Dial connects a client session (identified by id) to a server.
func Dial(addr string, id int) (*Client, error) {
	rpc, err := transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &Client{rpc: rpc, id: id}, nil
}

// Close disconnects.
func (c *Client) Close() error { return c.rpc.Close() }

// CreateTable declares a table cluster-wide.
func (c *Client) CreateTable(name string) error {
	return c.rpc.Call("create_table", &createTableReq{Name: name}, &createTableResp{})
}

// Txn submits a transaction and returns the per-op results.
func (c *Client) Txn(writeSet []storage.RowRef, ops []Op) ([]OpResult, error) {
	return c.TxnTraced(obs.SpanContext{}, writeSet, ops)
}

// TxnTraced is Txn carrying a sampled distributed trace context (start one
// with obs.NewTraceContext): the context rides the RPC frame — zero extra
// bytes when unsampled — and the server records the transaction's span tree
// under it. Fetch the spans afterwards from /debug/spans?trace=<id>.
func (c *Client) TxnTraced(sc obs.SpanContext, writeSet []storage.RowRef, ops []Op) ([]OpResult, error) {
	var resp TxnResponse
	err := c.rpc.CallTraced(context.Background(), sc, "txn",
		&TxnRequest{Client: c.id, WriteSet: writeSet, Ops: ops}, &resp)
	if err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// Get is a single-row read-only transaction.
func (c *Client) Get(table string, key uint64) ([]byte, bool, error) {
	res, err := c.Txn(nil, []Op{{Kind: OpGet, Table: table, Key: key}})
	if err != nil {
		return nil, false, err
	}
	return res[0].Value, res[0].Found, nil
}

// Put is a single-row update transaction.
func (c *Client) Put(table string, key uint64, value []byte) error {
	_, err := c.Txn([]storage.RowRef{{Table: table, Key: key}},
		[]Op{{Kind: OpPut, Table: table, Key: key, Value: value}})
	return err
}

// Stats fetches a cluster-statistics snapshot.
func (c *Client) Stats() (*StatsReply, error) {
	var reply StatsReply
	if err := c.rpc.Call("stats", &StatsRequest{}, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Metrics fetches the cluster's observability snapshot, with up to traces
// recent lifecycle traces.
func (c *Client) Metrics(traces int) (*MetricsReply, error) {
	var reply MetricsReply
	if err := c.rpc.Call("metrics", &MetricsRequest{Traces: traces}, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Checkpoint asks the cluster to take a checkpoint now and returns its
// summary (requires the daemon to run with a durable directory).
func (c *Client) Checkpoint() (*CheckpointReply, error) {
	var reply CheckpointReply
	if err := c.rpc.Call("checkpoint", &CheckpointRequest{}, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Placement fetches the cluster's replica placement snapshot.
func (c *Client) Placement() (*selector.PlacementInfo, error) {
	var reply PlacementReply
	if err := c.rpc.Call("placement", &PlacementRequest{}, &reply); err != nil {
		return nil, err
	}
	return &reply.Info, nil
}

// Faults fetches (and with a non-empty spec, updates) the cluster's
// fault-injection state. Spec "off" clears the rules.
func (c *Client) Faults(spec string) (*FaultsReply, error) {
	var reply FaultsReply
	if err := c.rpc.Call("faults", &FaultsRequest{Spec: spec}, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}
