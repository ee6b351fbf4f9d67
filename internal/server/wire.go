package server

import (
	"cmp"
	"slices"
	"time"

	"dynamast/internal/codec"
	"dynamast/internal/obs"
	"dynamast/internal/selector"
)

// Binary wire schemas (format v1) for the server's RPC bodies. The
// transport accepts only codec.Message bodies, so every request and
// response type the server registers has its schema here.
//
// Floats travel as their IEEE bits, so NaN and ±Inf survive. Maps are
// written in sorted key order, so equal replies encode to equal bytes.
// All Unmarshal methods obey the codec ownership rule — every decoded
// []byte/string is freshly allocated — and assign every field, so a reused
// destination struct cannot leak stale state between calls. Counts are
// decoded with Reader.Count, so a corrupt count cannot size an allocation.

var (
	_ codec.Message = (*createTableReq)(nil)
	_ codec.Message = (*createTableResp)(nil)
	_ codec.Message = (*TxnRequest)(nil)
	_ codec.Message = (*TxnResponse)(nil)
	_ codec.Message = (*StatsRequest)(nil)
	_ codec.Message = (*StatsReply)(nil)
	_ codec.Message = (*FaultsRequest)(nil)
	_ codec.Message = (*FaultsReply)(nil)
	_ codec.Message = (*CheckpointRequest)(nil)
	_ codec.Message = (*CheckpointReply)(nil)
	_ codec.Message = (*MetricsRequest)(nil)
	_ codec.Message = (*MetricsReply)(nil)
	_ codec.Message = (*PlacementRequest)(nil)
	_ codec.Message = (*PlacementReply)(nil)
)

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// MarshalTo implements codec.Message.
func (m *createTableReq) MarshalTo(buf []byte) []byte {
	buf = codec.AppendHeader(buf, codec.Version1)
	return codec.AppendString(buf, m.Name)
}

// Unmarshal implements codec.Message.
func (m *createTableReq) Unmarshal(data []byte) error {
	r := codec.NewReader(data)
	m.Name = r.String()
	return r.Done()
}

// MarshalTo implements codec.Message.
func (m *createTableResp) MarshalTo(buf []byte) []byte {
	return codec.AppendHeader(buf, codec.Version1)
}

// Unmarshal implements codec.Message.
func (m *createTableResp) Unmarshal(data []byte) error {
	return codec.NewReader(data).Done()
}

// appendOp appends one operation's fields.
func appendOp(buf []byte, op *Op) []byte {
	buf = codec.AppendUvarint(buf, uint64(op.Kind))
	buf = codec.AppendString(buf, op.Table)
	buf = codec.AppendUvarint(buf, op.Key)
	buf = codec.AppendUvarint(buf, op.Lo)
	buf = codec.AppendUvarint(buf, op.Hi)
	buf = codec.AppendBytes(buf, op.Value)
	return codec.AppendInt(buf, op.Delta)
}

// decodeOp decodes one operation's fields.
func decodeOp(r *codec.Reader, op *Op) {
	op.Kind = OpKind(r.Uvarint())
	op.Table = r.String()
	op.Key = r.Uvarint()
	op.Lo = r.Uvarint()
	op.Hi = r.Uvarint()
	op.Value = r.Bytes()
	op.Delta = r.Int()
}

// MarshalTo implements codec.Message.
func (m *TxnRequest) MarshalTo(buf []byte) []byte {
	buf = codec.AppendHeader(buf, codec.Version1)
	buf = codec.AppendInt(buf, int64(m.Client))
	buf = codec.AppendRefs(buf, m.WriteSet)
	buf = codec.AppendUvarint(buf, uint64(len(m.Ops)))
	for i := range m.Ops {
		buf = appendOp(buf, &m.Ops[i])
	}
	return buf
}

// Unmarshal implements codec.Message.
func (m *TxnRequest) Unmarshal(data []byte) error {
	r := codec.NewReader(data)
	m.Client = int(r.Int())
	m.WriteSet = r.Refs()
	m.Ops = nil
	if n := r.Count(); n > 0 {
		m.Ops = make([]Op, n)
		for i := range m.Ops {
			decodeOp(r, &m.Ops[i])
			if r.Err() != nil {
				m.Ops = nil
				break
			}
		}
	}
	return r.Done()
}

// MarshalTo implements codec.Message.
func (m *TxnResponse) MarshalTo(buf []byte) []byte {
	buf = codec.AppendHeader(buf, codec.Version1)
	buf = codec.AppendUvarint(buf, uint64(len(m.Results)))
	for i := range m.Results {
		res := &m.Results[i]
		buf = codec.AppendBool(buf, res.Found)
		buf = codec.AppendBytes(buf, res.Value)
		buf = codec.AppendKVs(buf, res.Rows)
	}
	return buf
}

// Unmarshal implements codec.Message.
func (m *TxnResponse) Unmarshal(data []byte) error {
	r := codec.NewReader(data)
	m.Results = nil
	if n := r.Count(); n > 0 {
		m.Results = make([]OpResult, n)
		for i := range m.Results {
			m.Results[i].Found = r.Bool()
			m.Results[i].Value = r.Bytes()
			m.Results[i].Rows = r.KVs()
			if r.Err() != nil {
				m.Results = nil
				break
			}
		}
	}
	return r.Done()
}

// MarshalTo implements codec.Message.
func (m *StatsRequest) MarshalTo(buf []byte) []byte {
	return codec.AppendHeader(buf, codec.Version1)
}

// Unmarshal implements codec.Message.
func (m *StatsRequest) Unmarshal(data []byte) error {
	return codec.NewReader(data).Done()
}

// MarshalTo implements codec.Message.
func (m *StatsReply) MarshalTo(buf []byte) []byte {
	buf = codec.AppendHeader(buf, codec.Version1)
	buf = codec.AppendUvarint(buf, m.Commits)
	buf = codec.AppendUint64s(buf, m.PerSiteCommits)
	buf = codec.AppendUvarint(buf, m.WriteTxns)
	buf = codec.AppendUvarint(buf, m.ReadTxns)
	buf = codec.AppendUvarint(buf, m.RemasterTxns)
	buf = codec.AppendUvarint(buf, m.PartsMoved)
	buf = codec.AppendUint64s(buf, m.RoutedPerSite)
	buf = codec.AppendUvarint(buf, uint64(len(m.SiteVectors)))
	for _, v := range m.SiteVectors {
		buf = codec.AppendUint64s(buf, v)
	}
	return buf
}

// Unmarshal implements codec.Message.
func (m *StatsReply) Unmarshal(data []byte) error {
	r := codec.NewReader(data)
	m.Commits = r.Uvarint()
	m.PerSiteCommits = r.Uint64s()
	m.WriteTxns = r.Uvarint()
	m.ReadTxns = r.Uvarint()
	m.RemasterTxns = r.Uvarint()
	m.PartsMoved = r.Uvarint()
	m.RoutedPerSite = r.Uint64s()
	m.SiteVectors = nil
	if n := r.Count(); n > 0 {
		m.SiteVectors = make([][]uint64, n)
		for i := range m.SiteVectors {
			m.SiteVectors[i] = r.Uint64s()
			if r.Err() != nil {
				m.SiteVectors = nil
				break
			}
		}
	}
	return r.Done()
}

// MarshalTo implements codec.Message.
func (m *FaultsRequest) MarshalTo(buf []byte) []byte {
	buf = codec.AppendHeader(buf, codec.Version1)
	return codec.AppendString(buf, m.Spec)
}

// Unmarshal implements codec.Message.
func (m *FaultsRequest) Unmarshal(data []byte) error {
	r := codec.NewReader(data)
	m.Spec = r.String()
	return r.Done()
}

// MarshalTo implements codec.Message. The Injected map is emitted in sorted
// key order so equal replies encode to equal bytes.
func (m *FaultsReply) MarshalTo(buf []byte) []byte {
	buf = codec.AppendHeader(buf, codec.Version1)
	buf = codec.AppendBool(buf, m.Enabled)
	buf = codec.AppendInt(buf, m.Seed)
	buf = codec.AppendUvarint(buf, uint64(len(m.Rules)))
	for i := range m.Rules {
		rule := &m.Rules[i]
		buf = codec.AppendString(buf, rule.Category)
		buf = codec.AppendString(buf, rule.Kind)
		buf = codec.AppendFloat(buf, rule.Prob)
		buf = codec.AppendInt(buf, int64(rule.Delay))
	}
	buf = codec.AppendUvarint(buf, uint64(len(m.Injected)))
	for _, k := range sortedKeys(m.Injected) {
		buf = codec.AppendString(buf, k)
		buf = codec.AppendUvarint(buf, m.Injected[k])
	}
	buf = codec.AppendUvarint(buf, m.RPCRetries)
	return codec.AppendUvarint(buf, m.Failovers)
}

// Unmarshal implements codec.Message.
func (m *FaultsReply) Unmarshal(data []byte) error {
	r := codec.NewReader(data)
	m.Enabled = r.Bool()
	m.Seed = r.Int()
	m.Rules = nil
	if n := r.Count(); n > 0 {
		m.Rules = make([]FaultRuleInfo, n)
		for i := range m.Rules {
			m.Rules[i].Category = r.String()
			m.Rules[i].Kind = r.String()
			m.Rules[i].Prob = r.Float()
			m.Rules[i].Delay = time.Duration(r.Int())
			if r.Err() != nil {
				m.Rules = nil
				break
			}
		}
	}
	m.Injected = nil
	if n := r.Count(); r.Err() == nil {
		m.Injected = make(map[string]uint64, n)
		for i := 0; i < n; i++ {
			k := r.String()
			v := r.Uvarint()
			if r.Err() != nil {
				m.Injected = nil
				break
			}
			m.Injected[k] = v
		}
	}
	m.RPCRetries = r.Uvarint()
	m.Failovers = r.Uvarint()
	return r.Done()
}

// MarshalTo implements codec.Message.
func (m *CheckpointRequest) MarshalTo(buf []byte) []byte {
	return codec.AppendHeader(buf, codec.Version1)
}

// Unmarshal implements codec.Message.
func (m *CheckpointRequest) Unmarshal(data []byte) error {
	return codec.NewReader(data).Done()
}

// MarshalTo implements codec.Message.
func (m *CheckpointReply) MarshalTo(buf []byte) []byte {
	buf = codec.AppendHeader(buf, codec.Version1)
	buf = codec.AppendUvarint(buf, m.Seq)
	buf = codec.AppendUint64s(buf, m.Rows)
	buf = codec.AppendUint64s(buf, m.Bytes)
	return codec.AppendUint64s(buf, m.LowWater)
}

// Unmarshal implements codec.Message.
func (m *CheckpointReply) Unmarshal(data []byte) error {
	r := codec.NewReader(data)
	m.Seq = r.Uvarint()
	m.Rows = r.Uint64s()
	m.Bytes = r.Uint64s()
	m.LowWater = r.Uint64s()
	return r.Done()
}

// MarshalTo implements codec.Message.
func (m *MetricsRequest) MarshalTo(buf []byte) []byte {
	buf = codec.AppendHeader(buf, codec.Version1)
	return codec.AppendInt(buf, int64(m.Traces))
}

// Unmarshal implements codec.Message.
func (m *MetricsRequest) Unmarshal(data []byte) error {
	r := codec.NewReader(data)
	m.Traces = int(r.Int())
	return r.Done()
}

// MarshalTo implements codec.Message.
func (m *MetricsReply) MarshalTo(buf []byte) []byte {
	buf = codec.AppendHeader(buf, codec.Version1)
	buf = appendSnapshot(buf, &m.Snapshot)
	buf = codec.AppendUvarint(buf, uint64(len(m.Traces)))
	for i := range m.Traces {
		buf = appendTrace(buf, &m.Traces[i])
	}
	return buf
}

// Unmarshal implements codec.Message.
func (m *MetricsReply) Unmarshal(data []byte) error {
	r := codec.NewReader(data)
	decodeSnapshot(r, &m.Snapshot)
	m.Traces = nil
	if n := r.Count(); n > 0 {
		m.Traces = make([]obs.TraceJSON, n)
		for i := range m.Traces {
			decodeTrace(r, &m.Traces[i])
		}
	}
	return r.Done()
}

// appendSnapshot appends a registry snapshot: its time, every sample, then
// the help texts.
func appendSnapshot(buf []byte, s *obs.Snapshot) []byte {
	buf = codec.AppendTime(buf, s.At)
	buf = codec.AppendUvarint(buf, uint64(len(s.Samples)))
	for i := range s.Samples {
		sm := &s.Samples[i]
		buf = codec.AppendString(buf, sm.Name)
		buf = codec.AppendUvarint(buf, uint64(len(sm.Labels)))
		for _, l := range sm.Labels {
			buf = codec.AppendString(buf, l.Key)
			buf = codec.AppendString(buf, l.Value)
		}
		buf = codec.AppendString(buf, sm.Kind)
		buf = codec.AppendFloat(buf, sm.Value)
		buf = codec.AppendUvarint(buf, sm.Count)
		for _, f := range [...]float64{sm.Sum, sm.Max, sm.P50, sm.P90, sm.P99} {
			buf = codec.AppendFloat(buf, f)
		}
		buf = codec.AppendUvarint(buf, uint64(len(sm.Buckets)))
		for _, b := range sm.Buckets {
			buf = codec.AppendFloat(buf, b.UpperBound)
			buf = codec.AppendUvarint(buf, b.Count)
		}
	}
	buf = codec.AppendUvarint(buf, uint64(len(s.Help)))
	for _, k := range sortedKeys(s.Help) {
		buf = codec.AppendString(buf, k)
		buf = codec.AppendString(buf, s.Help[k])
	}
	return buf
}

// decodeSnapshot decodes a snapshot appended by appendSnapshot. Empty
// sample, label and bucket lists decode as nil; Help is always a map.
func decodeSnapshot(r *codec.Reader, s *obs.Snapshot) {
	s.At = r.Time()
	s.Samples = nil
	if n := r.Count(); n > 0 {
		s.Samples = make([]obs.Sample, n)
		for i := range s.Samples {
			sm := &s.Samples[i]
			sm.Name = r.String()
			if nl := r.Count(); nl > 0 {
				sm.Labels = make([]obs.Label, nl)
				for j := range sm.Labels {
					sm.Labels[j] = obs.Label{Key: r.String(), Value: r.String()}
				}
			}
			sm.Kind = r.String()
			sm.Value = r.Float()
			sm.Count = r.Uvarint()
			sm.Sum, sm.Max = r.Float(), r.Float()
			sm.P50, sm.P90, sm.P99 = r.Float(), r.Float(), r.Float()
			if nb := r.Count(); nb > 0 {
				sm.Buckets = make([]obs.BucketCount, nb)
				for j := range sm.Buckets {
					sm.Buckets[j] = obs.BucketCount{UpperBound: r.Float(), Count: r.Uvarint()}
				}
			}
		}
	}
	n := r.Count()
	s.Help = make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := r.String()
		s.Help[k] = r.String()
	}
}

// appendTrace appends one sampled trace's headline and stages.
func appendTrace(buf []byte, t *obs.TraceJSON) []byte {
	buf = codec.AppendString(buf, t.Trace)
	buf = codec.AppendInt(buf, int64(t.Site))
	buf = codec.AppendBool(buf, t.Remastered)
	buf = codec.AppendInt(buf, int64(t.Spans))
	buf = codec.AppendTime(buf, t.Start)
	buf = codec.AppendInt(buf, t.TotalNS)
	buf = codec.AppendString(buf, t.Total)
	buf = codec.AppendUvarint(buf, uint64(len(t.Stages)))
	for _, k := range sortedKeys(t.Stages) {
		buf = codec.AppendString(buf, k)
		buf = codec.AppendInt(buf, t.Stages[k])
	}
	return buf
}

// decodeTrace decodes a trace appended by appendTrace; Stages is always a
// map.
func decodeTrace(r *codec.Reader, t *obs.TraceJSON) {
	t.Trace = r.String()
	t.Site = int(r.Int())
	t.Remastered = r.Bool()
	t.Spans = int(r.Int())
	t.Start = r.Time()
	t.TotalNS = r.Int()
	t.Total = r.String()
	n := r.Count()
	t.Stages = make(map[string]int64, n)
	for i := 0; i < n; i++ {
		k := r.String()
		t.Stages[k] = r.Int()
	}
}

// MarshalTo implements codec.Message.
func (m *PlacementRequest) MarshalTo(buf []byte) []byte {
	return codec.AppendHeader(buf, codec.Version1)
}

// Unmarshal implements codec.Message.
func (m *PlacementRequest) Unmarshal(data []byte) error {
	return codec.NewReader(data).Done()
}

// appendInts appends a count-prefixed int list.
func appendInts(buf []byte, vs []int) []byte {
	buf = codec.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = codec.AppendInt(buf, int64(v))
	}
	return buf
}

// decodeInts decodes a list appended by appendInts (empty decodes as nil).
func decodeInts(r *codec.Reader) []int {
	n := r.Count()
	if n == 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = int(r.Int())
	}
	return vs
}

// MarshalTo implements codec.Message.
func (m *PlacementReply) MarshalTo(buf []byte) []byte {
	in := &m.Info
	buf = codec.AppendHeader(buf, codec.Version1)
	buf = codec.AppendBool(buf, in.FullReplication)
	buf = codec.AppendInt(buf, int64(in.MinReplicas))
	buf = codec.AppendInt(buf, int64(in.MaxReplicas))
	buf = codec.AppendUvarint(buf, uint64(len(in.Partitions)))
	for _, p := range sortedKeys(in.Partitions) {
		buf = codec.AppendUvarint(buf, p)
		buf = appendInts(buf, in.Partitions[p])
	}
	buf = codec.AppendUvarint(buf, uint64(len(in.Masters)))
	for _, p := range sortedKeys(in.Masters) {
		buf = codec.AppendUvarint(buf, p)
		buf = codec.AppendInt(buf, int64(in.Masters[p]))
	}
	buf = appendInts(buf, in.Residency)
	buf = codec.AppendUvarint(buf, in.Adds)
	buf = codec.AppendUvarint(buf, in.Drops)
	buf = codec.AppendUvarint(buf, uint64(len(in.Decisions)))
	for i := range in.Decisions {
		d := &in.Decisions[i]
		buf = codec.AppendUvarint(buf, d.Part)
		buf = codec.AppendInt(buf, int64(d.Site))
		buf = codec.AppendBool(buf, d.Add)
		buf = codec.AppendString(buf, d.Reason)
		buf = codec.AppendTime(buf, d.At)
	}
	return codec.AppendInt(buf, int64(in.Shards))
}

// Unmarshal implements codec.Message. Partitions decodes as nil when empty,
// as full replication leaves it; Masters is always a map.
func (m *PlacementReply) Unmarshal(data []byte) error {
	r := codec.NewReader(data)
	in := &m.Info
	in.FullReplication = r.Bool()
	in.MinReplicas = int(r.Int())
	in.MaxReplicas = int(r.Int())
	in.Partitions = nil
	if n := r.Count(); n > 0 {
		in.Partitions = make(map[uint64][]int, n)
		for i := 0; i < n; i++ {
			p := r.Uvarint()
			in.Partitions[p] = decodeInts(r)
		}
	}
	n := r.Count()
	in.Masters = make(map[uint64]int, n)
	for i := 0; i < n; i++ {
		p := r.Uvarint()
		in.Masters[p] = int(r.Int())
	}
	in.Residency = decodeInts(r)
	in.Adds = r.Uvarint()
	in.Drops = r.Uvarint()
	in.Decisions = nil
	if n := r.Count(); n > 0 {
		in.Decisions = make([]selector.PlacementDecision, n)
		for i := range in.Decisions {
			in.Decisions[i] = selector.PlacementDecision{
				Part: r.Uvarint(), Site: int(r.Int()), Add: r.Bool(), Reason: r.String(), At: r.Time(),
			}
		}
	}
	in.Shards = int(r.Int())
	return r.Done()
}
