package server

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"dynamast/internal/codec"
	"dynamast/internal/obs"
	"dynamast/internal/selector"
	"dynamast/internal/storage"
)

// roundTrip marshals src and unmarshals into dst (same concrete type),
// checking the payload carries the codec header and decodes cleanly.
func roundTrip(t *testing.T, src, dst codec.Message) {
	t.Helper()
	payload := src.MarshalTo(nil)
	if _, err := codec.CheckHeader(payload); err != nil {
		t.Fatalf("%T payload has no codec header: %v", src, err)
	}
	if err := dst.Unmarshal(payload); err != nil {
		t.Fatalf("%T unmarshal: %v", src, err)
	}
	if !reflect.DeepEqual(src, dst) {
		t.Fatalf("%T round trip mismatch:\n got %+v\nwant %+v", src, dst, src)
	}
}

func TestWireRoundTrip(t *testing.T) {
	roundTrip(t, &createTableReq{Name: "accounts"}, &createTableReq{})
	roundTrip(t, &createTableResp{}, &createTableResp{})
	roundTrip(t, &TxnRequest{
		Client:   42,
		WriteSet: []storage.RowRef{{Table: "accounts", Key: 1}, {Table: "orders", Key: 9}},
		Ops: []Op{
			{Kind: OpGet, Table: "accounts", Key: 1},
			{Kind: OpPut, Table: "accounts", Key: 1, Value: []byte("v")},
			{Kind: OpAdd, Table: "counters", Key: 7, Delta: -3},
			{Kind: OpScan, Table: "orders", Lo: 5, Hi: 50},
		},
	}, &TxnRequest{})
	roundTrip(t, &TxnRequest{Client: 0}, &TxnRequest{})
	roundTrip(t, &TxnResponse{Results: []OpResult{
		{Found: true, Value: []byte{0, 1, 2}},
		{Found: false},
		{Found: true, Rows: []storage.KV{{Key: 1, Value: []byte("a")}, {Key: 2, Value: nil}}},
	}}, &TxnResponse{})
	roundTrip(t, &StatsRequest{}, &StatsRequest{})
	roundTrip(t, &StatsReply{
		Commits:        100,
		PerSiteCommits: []uint64{40, 60},
		WriteTxns:      70,
		ReadTxns:       30,
		RemasterTxns:   5,
		PartsMoved:     12,
		RoutedPerSite:  []uint64{55, 45},
		SiteVectors:    [][]uint64{{1, 2}, {3, 4}},
	}, &StatsReply{})
	roundTrip(t, &FaultsRequest{Spec: "rpc:drop:0.1:5ms"}, &FaultsRequest{})
	roundTrip(t, &FaultsReply{
		Enabled: true,
		Seed:    -42,
		Rules: []FaultRuleInfo{
			{Category: "rpc", Kind: "drop", Prob: 0.25, Delay: 5 * time.Millisecond},
			{Category: "disk", Kind: "error", Prob: 0.001},
		},
		Injected:   map[string]uint64{"rpc/drop": 17, "disk/error": 2},
		RPCRetries: 9,
		Failovers:  1,
	}, &FaultsReply{})
	roundTrip(t, &CheckpointRequest{}, &CheckpointRequest{})
	roundTrip(t, &CheckpointReply{
		Seq:      3,
		Rows:     []uint64{10, 20},
		Bytes:    []uint64{1000, 2000},
		LowWater: []uint64{5, 6},
	}, &CheckpointReply{})
	roundTrip(t, &MetricsRequest{Traces: 5}, &MetricsRequest{})
	roundTrip(t, &MetricsReply{Snapshot: obs.Snapshot{Help: map[string]string{}}}, &MetricsReply{})
	roundTrip(t, sampleMetricsReply(0.25), &MetricsReply{})
	roundTrip(t, &PlacementRequest{}, &PlacementRequest{})
	roundTrip(t, &PlacementReply{Info: selector.PlacementInfo{
		FullReplication: true,
		Masters:         map[uint64]int{0: 0, 1: 1, 2: 2},
		Residency:       []int{3, 3, 3},
	}}, &PlacementReply{})
	roundTrip(t, samplePlacementReply(), &PlacementReply{})

	// NaN is not DeepEqual to itself: a reply whose P99 is NaN must
	// re-encode to the same bytes and keep the NaN.
	nan := sampleMetricsReply(math.NaN())
	payload := nan.MarshalTo(nil)
	var got MetricsReply
	if err := got.Unmarshal(payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.MarshalTo(nil), payload) || !math.IsNaN(got.Snapshot.Samples[1].P99) {
		t.Fatalf("NaN P99 did not survive the round trip: %+v", got.Snapshot.Samples[1])
	}
}

// sampleMetricsReply is a snapshot with a counter and a histogram whose
// P99 is p99 and whose last bucket bound is +Inf, plus one trace with
// stages.
func sampleMetricsReply(p99 float64) *MetricsReply {
	at := time.Unix(0, 1700000000_123456789)
	return &MetricsReply{
		Snapshot: obs.Snapshot{
			At: at,
			Samples: []obs.Sample{
				{Name: "dynamast_commits_total", Labels: []obs.Label{{Key: "site", Value: "0"}}, Kind: "counter", Value: 42},
				{Name: "dynamast_txn_seconds", Kind: "histogram", Count: 3, Sum: 0.5, Max: 0.3,
					P50: 0.1, P90: 0.2, P99: p99,
					Buckets: []obs.BucketCount{{UpperBound: 0.1, Count: 1}, {UpperBound: math.Inf(1), Count: 3}}},
			},
			Help: map[string]string{"dynamast_txn_seconds": "Transaction latency.", "dynamast_commits_total": "Commits."},
		},
		Traces: []obs.TraceJSON{{
			Trace: "00000000deadbeef", Site: 2, Remastered: true, Spans: 9, Start: at,
			TotalNS: 1500, Total: "1.5µs", Stages: map[string]int64{"route": 100, "commit": 900},
		}},
	}
}

// samplePlacementReply is a partial-replication placement with decisions.
func samplePlacementReply() *PlacementReply {
	return &PlacementReply{Info: selector.PlacementInfo{
		MinReplicas: 2,
		MaxReplicas: 3,
		Partitions:  map[uint64][]int{0: {0, 1}, 7: {1, 2}, 9: {0, 1, 2}},
		Masters:     map[uint64]int{0: 0, 7: 2, 9: 1},
		Residency:   []int{2, 3, 2},
		Adds:        4,
		Drops:       1,
		Decisions: []selector.PlacementDecision{
			{Part: 9, Site: 2, Add: true, Reason: "remaster", At: time.Unix(0, 1700000000_000000001)},
			{Part: 7, Site: 0, Add: false, Reason: "cold", At: time.Unix(0, 1700000001_000000000)},
		},
		Shards: 2,
	}}
}

// TestWireUnmarshalResetsDest checks that decoding into a dirty struct
// leaves no stale fields behind (the transport may reuse destinations).
func TestWireUnmarshalResetsDest(t *testing.T) {
	dirty := &TxnRequest{
		Client:   99,
		WriteSet: []storage.RowRef{{Table: "stale", Key: 1}},
		Ops:      []Op{{Kind: OpPut, Table: "stale", Value: []byte("old")}},
	}
	payload := (&TxnRequest{Client: 1}).MarshalTo(nil)
	if err := dirty.Unmarshal(payload); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dirty, &TxnRequest{Client: 1}) {
		t.Fatalf("stale state survived unmarshal: %+v", dirty)
	}

	metrics := sampleMetricsReply(0.25)
	empty := &MetricsReply{Snapshot: obs.Snapshot{Help: map[string]string{}}}
	if err := metrics.Unmarshal(empty.MarshalTo(nil)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(metrics, empty) {
		t.Fatalf("stale metrics survived unmarshal: %+v", metrics)
	}
	if err := (&MetricsRequest{Traces: 9}).Unmarshal((&MetricsRequest{}).MarshalTo(nil)); err != nil {
		t.Fatal(err)
	}

	placement := samplePlacementReply()
	full := &PlacementReply{Info: selector.PlacementInfo{FullReplication: true, Masters: map[uint64]int{}}}
	if err := placement.Unmarshal(full.MarshalTo(nil)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(placement, full) {
		t.Fatalf("stale placement survived unmarshal: %+v", placement)
	}
}

// TestWireGarbageRejected checks that corrupt payloads error instead of
// panicking, for every message type.
func TestWireGarbageRejected(t *testing.T) {
	msgs := []codec.Message{
		&createTableReq{}, &createTableResp{}, &TxnRequest{}, &TxnResponse{},
		&StatsRequest{}, &StatsReply{}, &FaultsRequest{}, &FaultsReply{},
		&CheckpointRequest{}, &CheckpointReply{},
		&MetricsRequest{}, &MetricsReply{}, &PlacementRequest{}, &PlacementReply{},
	}
	// A count far beyond the payload at each of the first three fields,
	// with a trailing byte so no schema reads the varint as a whole body.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x01}
	inputs := [][]byte{
		nil,
		{codec.Magic},
		{codec.Magic, codec.Version1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		{codec.Magic, 0x7f},
		{0x42, 0x42, 0x42},
		append([]byte{codec.Magic, codec.Version1}, huge...),
		append([]byte{codec.Magic, codec.Version1, 0}, huge...),
		append([]byte{codec.Magic, codec.Version1, 0, 0}, huge...),
	}
	for _, m := range msgs {
		for _, in := range inputs {
			if err := m.Unmarshal(in); err == nil && len(in) > codec.HeaderSize {
				t.Fatalf("%T accepted garbage %v", m, in)
			}
		}
	}
}
