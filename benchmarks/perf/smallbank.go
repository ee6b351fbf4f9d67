package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"dynamast/internal/server"
	"dynamast/internal/storage"
	"dynamast/internal/systems"
	"dynamast/internal/workload"
)

// SmallBank transactions are expressed once, as server.Op lists, and run
// either over TCP (server.Client.Txn) or in process (runOps). Both twins
// therefore carry byte-identical traffic, and because every deposit is an
// OpAdd whose amount the benchmark drew itself, the acknowledged deposit
// total is known without reading it back.

const (
	bankCustomers     = 20_000
	bankPartitionSize = 100
	bankInitial       = 10_000 // workload.SmallBank's opening balance, per row
)

// bankTxn is one SmallBank transaction as an operation list.
type bankTxn struct {
	ws      []storage.RowRef
	ops     []server.Op
	deposit uint64 // value added to the bank if acknowledged
}

// translate turns one generated SmallBank transaction into its operation
// list. Keys come from the generator (Kind, WriteSet, ReadHint); amounts
// come from r, the benchmark's own seeded stream. A transfer moves value
// with two OpAdds and may overdraw: arithmetic is modulo 2^64, so the
// bank-wide total still moves only by deposits.
func translate(t workload.Txn, r *rand.Rand) (bankTxn, error) {
	switch t.Kind {
	case "single-update":
		amount := uint64(1 + r.Intn(100))
		ref := t.WriteSet[0]
		return bankTxn{
			ws:      t.WriteSet,
			ops:     []server.Op{{Kind: server.OpAdd, Table: ref.Table, Key: ref.Key, Delta: int64(amount)}},
			deposit: amount,
		}, nil
	case "multi-update":
		amount := int64(1 + r.Intn(50))
		src, dst := t.WriteSet[0], t.WriteSet[1]
		return bankTxn{
			ws: t.WriteSet,
			ops: []server.Op{
				{Kind: server.OpAdd, Table: src.Table, Key: src.Key, Delta: -amount},
				{Kind: server.OpAdd, Table: dst.Table, Key: dst.Key, Delta: amount},
			},
		}, nil
	case "balance":
		c := t.ReadHint[0].Key
		return bankTxn{ops: []server.Op{
			{Kind: server.OpGet, Table: workload.TableChecking, Key: c},
			{Kind: server.OpGet, Table: workload.TableSavings, Key: c},
		}}, nil
	}
	return bankTxn{}, fmt.Errorf("smallbank: unknown transaction kind %q", t.Kind)
}

// runOps executes an operation list through a systems.Client. It mirrors
// server.handleTxn statement for statement — the same reads, writes and
// result copies — so the in-process twin does the server's per-op work
// without the wire.
func runOps(cl systems.Client, ws []storage.RowRef, ops []server.Op) ([]server.OpResult, error) {
	results := make([]server.OpResult, len(ops))
	run := func(tx systems.Tx) error {
		for i, op := range ops {
			switch op.Kind {
			case server.OpGet:
				data, ok := tx.Read(storage.RowRef{Table: op.Table, Key: op.Key})
				results[i] = server.OpResult{Found: ok, Value: append([]byte(nil), data...)}
			case server.OpPut:
				if err := tx.Write(storage.RowRef{Table: op.Table, Key: op.Key}, op.Value); err != nil {
					return err
				}
				results[i] = server.OpResult{Found: true}
			case server.OpAdd:
				ref := storage.RowRef{Table: op.Table, Key: op.Key}
				var cur uint64
				if data, ok := tx.Read(ref); ok && len(data) >= 8 {
					cur = binary.BigEndian.Uint64(data)
				}
				out := binary.BigEndian.AppendUint64(nil, uint64(int64(cur)+op.Delta))
				if err := tx.Write(ref, out); err != nil {
					return err
				}
				results[i] = server.OpResult{Found: true, Value: out}
			case server.OpScan:
				results[i] = server.OpResult{Found: true, Rows: tx.Scan(op.Table, op.Lo, op.Hi)}
			default:
				return fmt.Errorf("unknown op kind %d", op.Kind)
			}
		}
		return nil
	}
	var err error
	if len(ws) > 0 {
		err = cl.Update(ws, run)
	} else {
		err = cl.Read(nil, run)
	}
	if err != nil {
		return nil, err
	}
	return results, nil
}

// submitFunc runs one operation list: server.Client.Txn over TCP, or
// runOps bound to a client in process.
type submitFunc func(ws []storage.RowRef, ops []server.Op) ([]server.OpResult, error)

// inProcess binds runOps to a client.
func inProcess(cl systems.Client) submitFunc {
	return func(ws []storage.RowRef, ops []server.Op) ([]server.OpResult, error) {
		return runOps(cl, ws, ops)
	}
}

// bankSession is one closed-loop SmallBank client.
type bankSession struct {
	g      workload.Generator
	r      *rand.Rand
	submit submitFunc
	tr     *tracer // nil in the untraced run
	wire   bool    // traced over TCP: the whole call is one wire span

	cur   bankTxn
	acked uint64 // deposit value the system acknowledged
}

func (s *bankSession) gen() {
	var t0 int64
	if s.tr != nil {
		t0 = s.tr.now()
	}
	cur, err := translate(s.g.Next(), s.r)
	if err != nil {
		panic(err) // the generator emits three kinds; a fourth is a bug here
	}
	s.cur = cur
	if s.tr != nil {
		s.tr.add(spanGen, noParent, t0, s.tr.now())
	}
}

func (s *bankSession) exec() (uint8, error) {
	class := classRead
	if len(s.cur.ws) > 0 {
		class = classUpdate
	}
	var t0 int64
	if s.wire {
		s.tr.txn++
		t0 = s.tr.now()
	}
	res, err := s.submit(s.cur.ws, s.cur.ops)
	if s.wire {
		s.tr.add(spanWire, noParent, t0, s.tr.now())
	}
	if err != nil {
		return class, err
	}
	for i, r := range res {
		if !r.Found || len(r.Value) != 8 {
			return class, fmt.Errorf("smallbank: op %d of %v returned no balance", i, s.cur.ops)
		}
	}
	s.acked += s.cur.deposit
	return class, nil
}

// bankLoadOps is the initial data as logged transactions: one 100-row OpPut
// list per partition and table. The TCP twin loads this way because
// Cluster.Load is not logged and would not survive the restart phase.
func bankLoadOps() []bankTxn {
	bal := binary.BigEndian.AppendUint64(nil, bankInitial)
	var out []bankTxn
	for _, table := range []string{workload.TableChecking, workload.TableSavings} {
		for lo := uint64(0); lo < bankCustomers; lo += bankPartitionSize {
			var t bankTxn
			for k := lo; k < lo+bankPartitionSize; k++ {
				t.ws = append(t.ws, storage.RowRef{Table: table, Key: k})
				t.ops = append(t.ops, server.Op{Kind: server.OpPut, Table: table, Key: k, Value: bal})
			}
			out = append(out, t)
		}
	}
	return out
}

// sumChecking reads every checking balance through its master: one update
// transaction of 100 OpAdd-0 per partition, which routes to the partition's
// master and returns each row's current value. The sum is modulo 2^64.
func sumChecking(submit submitFunc) (uint64, error) {
	var sum uint64
	for lo := uint64(0); lo < bankCustomers; lo += bankPartitionSize {
		var t bankTxn
		for k := lo; k < lo+bankPartitionSize; k++ {
			t.ws = append(t.ws, storage.RowRef{Table: workload.TableChecking, Key: k})
			t.ops = append(t.ops, server.Op{Kind: server.OpAdd, Table: workload.TableChecking, Key: k})
		}
		res, err := submit(t.ws, t.ops)
		if err != nil {
			return 0, fmt.Errorf("sum checking [%d,%d): %w", lo, lo+bankPartitionSize, err)
		}
		for i, r := range res {
			if len(r.Value) != 8 {
				return 0, fmt.Errorf("sum checking: key %d has no balance", lo+uint64(i))
			}
			sum += binary.BigEndian.Uint64(r.Value)
		}
	}
	return sum, nil
}
