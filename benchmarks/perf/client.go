package main

import (
	"runtime"

	"dynamast"
	"dynamast/internal/selector"
	"dynamast/internal/sitemgr"
	"dynamast/internal/storage"
	"dynamast/internal/systems"
	"dynamast/internal/vclock"
)

// visibleEvery samples sitemgr.refresh_visible_us on one update in this
// many: after the commit the session waits until every replica's site
// vector covers it, which would dominate the run if done every time.
const visibleEvery = 64

// tracedClient is a second systems.Client for the traced run. It walks the
// same steps as core.Session.UpdateCtx and ReadHintedCtx through public
// calls — route, begin, the procedure, commit — and records one span around
// each, so a layer's time is measured from outside it. The first attempt
// of every transaction goes this way; one that hits a retryable error
// (mastership moved between route and begin, stale snapshot) is resubmitted
// through the product Session, which owns the retry policy, and counted in
// sitemgr.retry_share.
type tracedClient struct {
	c        *dynamast.Cluster
	id       int
	router   selector.Router
	cvv      vclock.Vector
	fallback *dynamast.Session
	tr       *tracer
	updates  uint64
}

func newTracedClient(c *dynamast.Cluster, id int, tr *tracer) *tracedClient {
	return &tracedClient{
		c:        c,
		id:       id,
		router:   c.Group().RouterFor(id),
		cvv:      vclock.New(len(c.Sites())),
		fallback: c.Session(id),
		tr:       tr,
	}
}

// Update implements systems.Client.
func (tc *tracedClient) Update(ws []storage.RowRef, fn func(systems.Tx) error) error {
	tr := tc.tr
	tr.txn++
	t0 := tr.now()
	txn := tr.open(spanTxn, noParent, t0)
	err := tc.update(txn, t0, ws, fn)
	done := tr.now()
	tr.finish(txn, done)
	if err == nil {
		tc.updates++
		if tc.updates%visibleEvery == 0 {
			tc.waitVisible(done)
		}
	}
	return err
}

func (tc *tracedClient) update(txn int32, t0 int64, ws []storage.RowRef, fn func(systems.Tx) error) error {
	tr := tc.tr
	again := func() error { return tc.fallback.Update(ws, tc.spanned(txn, fn)) }
	route, err := tc.router.RouteWrite(tc.id, ws, tc.cvv)
	t1 := tr.now()
	if err != nil {
		return tc.resubmit(txn, err, again)
	}
	ri := tr.add(spanRouteWrite, txn, t0, t1)
	if route.Remastered {
		tr.add(spanRemasterWait, ri, t1-int64(route.RemasterWait), t1)
	}

	minVV := tc.cvv.Clone().MaxInto(route.MinVV)
	site := tc.c.Sites()[route.Site]
	t2 := tr.now()
	tx, err := site.Begin(minVV, ws)
	t3 := tr.now()
	if err != nil {
		return tc.resubmit(txn, err, again)
	}
	tr.add(spanBegin, txn, t2, t3)

	exec := tr.open(spanExec, txn, t3)
	ferr := fn(spanTx{tx: tx, tr: tr, parent: exec})
	site.Exec(tx.Cost)
	t4 := tr.now()
	tr.finish(exec, t4)
	if tx.SnapshotTooOld() {
		tx.Abort()
		return tc.resubmit(txn, sitemgr.ErrSnapshotTooOld, again)
	}
	if ferr != nil {
		tx.Abort()
		return ferr
	}

	tvv, err := tx.Commit()
	t5 := tr.now()
	if err != nil {
		return tc.resubmit(txn, err, again)
	}
	ci := tr.add(spanCommit, txn, t4, t5)
	tr.add(spanWALPublish, ci, t5-int64(tx.WALPublish()), t5)
	tc.cvv = tc.cvv.MaxInto(tvv)
	return nil
}

// waitVisible measures commit → visible at every replica: it polls the
// sites' vectors until each covers everything this client has committed.
// It runs after the txn span has closed, outside every latency the traced
// run reports.
func (tc *tracedClient) waitVisible(committed int64) {
	for _, s := range tc.c.Sites() {
		for !s.SVV().DominatesEq(tc.cvv) {
			runtime.Gosched()
		}
	}
	tc.tr.visSamples++
	tc.tr.visNanos += tc.tr.now() - committed
}

// Read implements systems.Client.
func (tc *tracedClient) Read(hint []storage.RowRef, fn func(systems.Tx) error) error {
	tr := tc.tr
	tr.txn++
	t0 := tr.now()
	txn := tr.open(spanTxn, noParent, t0)
	err := tc.read(txn, t0, hint, fn)
	tr.finish(txn, tr.now())
	return err
}

func (tc *tracedClient) read(txn int32, t0 int64, hint []storage.RowRef, fn func(systems.Tx) error) error {
	tr := tc.tr
	again := func() error { return tc.fallback.ReadHinted(hint, tc.spanned(txn, fn)) }
	route := tc.router.RouteRead(tc.id, tc.cvv)
	t1 := tr.now()
	tr.add(spanRouteRead, txn, t0, t1)

	site := tc.c.Sites()[route.Site]
	tx, err := site.Begin(tc.cvv, nil)
	t2 := tr.now()
	if err != nil {
		return tc.resubmit(txn, err, again)
	}
	tr.add(spanBegin, txn, t1, t2)

	exec := tr.open(spanExec, txn, t2)
	ferr := fn(spanTx{tx: tx, tr: tr, parent: exec})
	site.Exec(tx.Cost)
	t3 := tr.now()
	tr.finish(exec, t3)
	if tx.SnapshotTooOld() {
		tx.Abort()
		return tc.resubmit(txn, sitemgr.ErrSnapshotTooOld, again)
	}
	if ferr != nil {
		tx.Abort()
		return ferr
	}
	snap := tx.Snapshot()
	if _, err := tx.Commit(); err != nil {
		return err
	}
	tr.add(spanCommit, txn, t3, tr.now())
	tc.cvv = tc.cvv.MaxInto(snap)
	return nil
}

// resubmit hands a transaction whose first attempt hit a retryable error
// to the product Session. The session keeps its own client vector, so it is
// folded back afterwards to keep this client's session guarantee.
func (tc *tracedClient) resubmit(txn int32, cause error, again func() error) error {
	if !dynamast.Retryable(cause) {
		return cause
	}
	tr := tc.tr
	tr.retries++
	t0 := tr.now()
	err := again()
	tr.add(spanFallback, txn, t0, tr.now())
	tc.cvv = tc.cvv.MaxInto(tc.fallback.CVV())
	return err
}

// spanned wraps fn's Tx so a resubmitted procedure still records its
// storage spans.
func (tc *tracedClient) spanned(parent int32, fn func(systems.Tx) error) func(systems.Tx) error {
	return func(tx systems.Tx) error { return fn(spanTx{tx: tx, tr: tc.tr, parent: parent}) }
}

// spanTx records one span per storage call the procedure makes.
type spanTx struct {
	tx     systems.Tx
	tr     *tracer
	parent int32
}

func (s spanTx) Read(ref storage.RowRef) ([]byte, bool) {
	t0 := s.tr.now()
	data, ok := s.tx.Read(ref)
	s.tr.add(spanRead, s.parent, t0, s.tr.now())
	s.tr.rows++
	return data, ok
}

func (s spanTx) Write(ref storage.RowRef, data []byte) error {
	t0 := s.tr.now()
	err := s.tx.Write(ref, data)
	s.tr.add(spanWrite, s.parent, t0, s.tr.now())
	s.tr.rows++
	return err
}

func (s spanTx) Scan(table string, lo, hi uint64) []storage.KV {
	t0 := s.tr.now()
	rows := s.tx.Scan(table, lo, hi)
	s.tr.add(spanScan, s.parent, t0, s.tr.now())
	s.tr.rows += uint64(len(rows))
	s.tr.scanRows += uint64(len(rows))
	return rows
}
