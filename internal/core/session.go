package core

import (
	"context"
	"fmt"
	"time"

	"dynamast/internal/obs"
	"dynamast/internal/selector"
	"dynamast/internal/sitemgr"
	"dynamast/internal/storage"
	"dynamast/internal/systems"
	"dynamast/internal/transport"
	"dynamast/internal/vclock"
)

// BeginRetries bounds resubmission when a transaction hits a transient
// fault: mastership moved between routing and execution (racing
// remasterings), an injected wire fault, or a site that died mid-flight.
// The selector re-routes around the failure on retry. The baseline clients
// in internal/bench resubmit under the same bound.
const BeginRetries = 64

// retryBackoff sleeps briefly before resubmitting a transaction so retry
// storms drain instead of livelocking. Returns early with the context's
// error if it is cancelled mid-backoff.
func retryBackoff(ctx context.Context, attempt int) error {
	if attempt <= 1 {
		return ctx.Err()
	}
	backoff := time.Duration(attempt) * 2 * time.Millisecond
	if backoff > 20*time.Millisecond {
		backoff = 20 * time.Millisecond
	}
	if ctx.Done() == nil {
		time.Sleep(backoff)
		return nil
	}
	t := time.NewTimer(backoff)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Session is one client's connection to the cluster. It tracks the client
// version vector that enforces strong-session snapshot isolation: every
// transaction executes on data at least as fresh as the state the client
// last observed, and the vector is folded forward after each transaction.
// A Session is used by one goroutine at a time.
type Session struct {
	c      *Cluster
	id     int
	cvv    vclock.Vector
	router *selector.Front

	// nextSC, when sampled, is the distributed trace context the next update
	// transaction joins (set by the RPC server when a remote client shipped
	// one in the frame); consumed by the next UpdateCtx.
	nextSC obs.SpanContext
}

// Session opens a session for client id, routing through the selector
// group's front.
func (c *Cluster) Session(id int) *Session {
	c.sessions.Add(1)
	return &Session{c: c, id: id, cvv: vclock.New(len(c.sites)), router: c.group.RouterFor(id)}
}

// NewClient implements systems.System: sessions adapted to the
// benchmark-facing Client interface. Under full replication the read hint is
// ignored (any replica serves any read); under partial replication it routes
// the read to a site hosting every hinted partition.
func (c *Cluster) NewClient(id int) systems.Client { return sessionClient{c.Session(id)} }

// sessionClient adapts *Session to systems.Client.
type sessionClient struct{ s *Session }

func (a sessionClient) Update(ws []storage.RowRef, fn func(systems.Tx) error) error {
	return a.s.Update(ws, fn)
}
func (a sessionClient) Read(hint []storage.RowRef, fn func(systems.Tx) error) error {
	return a.s.ReadHinted(hint, fn)
}

// CVV returns a copy of the session's client version vector.
func (s *Session) CVV() vclock.Vector { return s.cvv.Clone() }

// SetTraceContext primes the session's next update transaction to join the
// given distributed trace (the RPC server calls this with the context a
// remote client carried in its frame). sc.Span is the root span the
// transaction records; the zero context clears any pending one.
func (s *Session) SetTraceContext(sc obs.SpanContext) { s.nextSC = sc }

// Update executes fn as an update transaction with the declared write set:
// the client sends begin_transaction to the site selector, which remasters
// if needed and returns the execution site and minimum begin version; the
// client then runs the stored procedure at that site and commits locally —
// no distributed coordination inside the transaction.
func (s *Session) Update(writeSet []storage.RowRef, fn func(systems.Tx) error) error {
	return s.UpdateCtx(context.Background(), writeSet, fn)
}

// UpdateCtx is Update honoring ctx: cancellation interrupts routing
// (including waits on in-flight remaster chains), the begin freshness
// wait, and retry backoffs, returning ctx.Err(). A transaction whose begin
// is abandoned mid-wait is aborted the moment it surfaces, so its locks
// are always released; once fn has run, the local commit is never
// abandoned. With a non-cancellable context (context.Background), the
// call takes exactly the legacy allocation-free path.
func (s *Session) UpdateCtx(ctx context.Context, writeSet []storage.RowRef, fn func(systems.Tx) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	c := s.c

	// Join the remote client's trace when one was shipped, else make the
	// local head-sampling decision. The route span id is fixed up front so
	// the selector's release/grant spans (recorded mid-route) parent on the
	// same id the route span is later recorded under.
	sc := s.nextSC
	s.nextSC = obs.SpanContext{}
	if !sc.Sampled() && c.sampler.Sample() {
		sc = obs.NewTraceContext()
	}
	var routeSpan uint64
	if sc.Sampled() {
		routeSpan = obs.NewSpanID()
	}

	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		t0 := time.Now()
		var route selector.Route
		var err error
		// On a multi-node control plane, a first attempt whose write set is
		// single-sited routes locally with zero selector RPCs (both
		// begin_transaction legs skipped). A stale local route is safe: the
		// data site bounces it (ErrNotMaster/ErrStaleEpoch) and the retry
		// routes through the owning router shard.
		local := false
		if attempt == 0 {
			route, local = s.router.LocalWrite(s.id, writeSet)
		}
		t1 := time.Now()
		if !local {
			// begin_transaction round trip to the site selector.
			c.net.Send(transport.CatRoute, transport.MsgOverhead+transport.SizeOfRefs(writeSet))
			t1 = time.Now()
			route, err = s.routeCtx(ctx, attempt, writeSet, obs.SpanContext{Trace: sc.Trace, Span: routeSpan})
		}
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			// Routing fails transiently when the remastering it triggered
			// hit an injected fault or a dying site; resubmitting re-routes
			// (the selector rolls failed chains back and skips down sites).
			if Retryable(err) && attempt < BeginRetries {
				if berr := retryBackoff(ctx, attempt); berr != nil {
					return berr
				}
				continue
			}
			return fmt.Errorf("core: route: %w", err)
		}
		t2 := time.Now()
		if !local {
			c.net.Send(transport.CatRoute, transport.MsgOverhead+transport.SizeOfVector(route.MinVV))
		}

		minVV := s.cvv.Clone().MaxInto(route.MinVV)
		site := c.sites[route.Site]

		// Stored-procedure round trip to the data site: ship the write-set
		// arguments, execute, and receive the commit timestamp.
		c.net.Send(transport.CatTxn, transport.MsgOverhead+transport.SizeOfRefs(writeSet))
		t4 := time.Now()
		tx, err := s.beginCtx(ctx, site, minVV, writeSet)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			// Mastership moved between routing and begin (racing
			// remasterings on a hot partition), or the site died after the
			// route resolved. Both are retryable: nothing executed.
			if Retryable(err) && attempt < BeginRetries {
				if berr := retryBackoff(ctx, attempt); berr != nil {
					return berr
				}
				continue
			}
			return fmt.Errorf("core: begin after %d retries: %w", attempt, err)
		}
		t5 := time.Now()
		if sc.Sampled() {
			tx.SetSpan(sc)
		}
		// Run the stored procedure, then charge its modelled CPU through
		// the site's execution slots.
		ferr := fn(txAdapter{tx})
		site.Exec(tx.Cost)
		// A stale-snapshot poison outranks fn's own error: a read outside
		// the (locked) write set missed a record whose visible version may
		// have been evicted, so whatever fn computed — including any error —
		// came from an unsound miss. Resubmit on a fresher snapshot.
		if tx.SnapshotTooOld() && attempt < BeginRetries {
			tx.Abort()
			if berr := retryBackoff(ctx, attempt); berr != nil {
				return berr
			}
			continue
		}
		if ferr != nil {
			tx.Abort()
			return ferr
		}
		t6 := time.Now()
		tvv, err := tx.Commit()
		if err != nil {
			// A failed commit published nothing (the site aborts, releasing
			// its locks, before any WAL write becomes visible), so the
			// whole transaction can be resubmitted elsewhere.
			if Retryable(err) && attempt < BeginRetries {
				if berr := retryBackoff(ctx, attempt); berr != nil {
					return berr
				}
				continue
			}
			return fmt.Errorf("core: commit: %w", err)
		}
		t7 := time.Now()
		c.net.Send(transport.CatTxn, transport.MsgOverhead+transport.SizeOfVector(tvv))
		t8 := time.Now()

		s.cvv = s.cvv.MaxInto(tvv)
		c.observe(route, sc, routeSpan, t0, t1, t2, t4, t5, t6, t7, t8, tx.WALPublish())
		return nil
	}
}

// routeCtx runs the begin_transaction routing round, which can block inside
// an in-flight remaster release/grant chain. With a cancellable context the
// round runs in a goroutine and the wait is abandoned on cancellation; the
// chain itself always runs to completion (or rolls back) in the background,
// so abandoning the wait never tears mastership — the client just no longer
// observes the result. A retry follows a data site's rejection of a stale
// route (Appendix I).
func (s *Session) routeCtx(ctx context.Context, attempt int, writeSet []storage.RowRef, sc obs.SpanContext) (selector.Route, error) {
	if ctx.Done() == nil {
		return s.route(attempt, writeSet, s.cvv, sc)
	}
	type res struct {
		r   selector.Route
		err error
	}
	ch := make(chan res, 1)
	cvv := s.cvv.Clone() // the goroutine may outlive this call
	go func() {
		r, err := s.route(attempt, writeSet, cvv, sc)
		ch <- res{r, err}
	}()
	select {
	case r := <-ch:
		return r.r, r.err
	case <-ctx.Done():
		return selector.Route{}, ctx.Err()
	}
}

// route is one routing decision by the owning router shards.
func (s *Session) route(attempt int, writeSet []storage.RowRef, cvv vclock.Vector, sc obs.SpanContext) (selector.Route, error) {
	return s.router.Write(s.id, writeSet, cvv, sc, attempt)
}

// beginCtx runs Begin, which blocks until the site can serve the
// transaction's freshness floor. On cancellation the abandoned transaction
// is aborted as soon as Begin surfaces it, so its row locks are always
// released even though the client has moved on.
func (s *Session) beginCtx(ctx context.Context, site *sitemgr.Site, minVV vclock.Vector, writeSet []storage.RowRef) (*sitemgr.Txn, error) {
	if ctx.Done() == nil {
		return site.Begin(minVV, writeSet)
	}
	type res struct {
		tx  *sitemgr.Txn
		err error
	}
	ch := make(chan res, 1)
	minVV = minVV.Clone() // the goroutine may outlive this call
	go func() {
		tx, err := site.Begin(minVV, writeSet)
		ch <- res{tx, err}
	}()
	select {
	case r := <-ch:
		return r.tx, r.err
	case <-ctx.Done():
		go func() {
			if r := <-ch; r.tx != nil {
				r.tx.Abort()
			}
		}()
		return nil, ctx.Err()
	}
}

// observe feeds a committed update's latency to the end-to-end and
// per-stage histograms; the refresh_apply stage is observed by the
// replicas' appliers when it happens. The wire legs (t0→t1: request to the
// selector; t2→t4: its reply and the stored-procedure shipment; t7→t8: the
// commit reply) are the only intervals no stage covers, so the update mean
// minus the stage means is the network share (Figure 7). For sampled
// transactions it also records the selector-side spans: the root txn span,
// the route span (whose release/grant children the selector recorded
// mid-route), and the begin and execute spans at the routed site; the
// commit and wal_flush spans were recorded inside Txn.Commit.
func (c *Cluster) observe(route selector.Route, sc obs.SpanContext, routeSpan uint64,
	t0, t1, t2, t4, t5, t6, t7, t8 time.Time, walPublish time.Duration) {
	if sc.Sampled() {
		c.spans.Record(obs.Span{Trace: sc.Trace, ID: sc.Span,
			Name: "txn", Site: obs.SelectorSite, Start: t0, Dur: t8.Sub(t0)})
		c.spans.Record(obs.Span{Trace: sc.Trace, ID: routeSpan, Parent: sc.Span,
			Name: "route", Site: obs.SelectorSite, Start: t1, Dur: t2.Sub(t1)})
		c.spans.Record(obs.Span{Trace: sc.Trace, Parent: sc.Span,
			Name: "begin", Site: route.Site, Start: t4, Dur: t5.Sub(t4)})
		c.spans.Record(obs.Span{Trace: sc.Trace, Parent: sc.Span,
			Name: "execute", Site: route.Site, Start: t5, Dur: t6.Sub(t5)})
	}
	// Histograms clamp negative observations to zero.
	c.stageDur[obs.StageRoute].ObserveDuration(t2.Sub(t1) - route.RemasterWait)
	c.stageDur[obs.StageRemaster].ObserveDuration(route.RemasterWait)
	c.stageDur[obs.StageBegin].ObserveDuration(t5.Sub(t4))
	c.stageDur[obs.StageExecute].ObserveDuration(t6.Sub(t5))
	c.stageDur[obs.StageCommit].ObserveDuration(t7.Sub(t6) - walPublish)
	c.stageDur[obs.StageWALPublish].ObserveDuration(walPublish)
	c.updateDur.ObserveDuration(t8.Sub(t0))
}

// Read executes fn as a read-only transaction at a replica satisfying the
// session's freshness guarantee; any site works, no cross-site
// synchronization occurs.
func (s *Session) Read(fn func(systems.Tx) error) error {
	return s.ReadHintedCtx(context.Background(), nil, fn)
}

// ReadHinted is Read with a read-set hint: under partial replication the
// hinted rows' partitions steer routing to a site hosting all of them.
// Under full replication the hint is ignored.
func (s *Session) ReadHinted(hint []storage.RowRef, fn func(systems.Tx) error) error {
	return s.ReadHintedCtx(context.Background(), hint, fn)
}

// ReadCtx is Read honoring ctx: cancellation interrupts the begin
// freshness wait and retry backoffs, returning ctx.Err(). Read routing
// itself never blocks, so it is not wrapped.
func (s *Session) ReadCtx(ctx context.Context, fn func(systems.Tx) error) error {
	return s.ReadHintedCtx(ctx, nil, fn)
}

// readParts maps a read hint to its deduplicated partition set.
func (s *Session) readParts(hint []storage.RowRef) []uint64 {
	parts := make([]uint64, 0, len(hint))
outer:
	for _, ref := range hint {
		id := s.c.cfg.Partitioner(ref)
		for _, seen := range parts {
			if seen == id {
				continue outer
			}
		}
		parts = append(parts, id)
	}
	return parts
}

// mergeParts folds extra partitions into parts, deduplicating.
func mergeParts(parts, extra []uint64) []uint64 {
outer:
	for _, id := range extra {
		for _, seen := range parts {
			if seen == id {
				continue outer
			}
		}
		parts = append(parts, id)
	}
	return parts
}

// ReadHintedCtx is ReadHinted honoring ctx. Under partial replication a read
// that lands on a site missing one of its partitions comes back poisoned
// with the retryable sitemgr.ErrNotHosted; the session folds the missing
// partitions into the routing hint and resubmits, so even unhinted reads
// converge on a hosting site within a retry or two.
func (s *Session) ReadHintedCtx(ctx context.Context, hint []storage.RowRef, fn func(systems.Tx) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	c := s.c
	var parts []uint64
	if len(hint) > 0 && c.group.PartialPlacement() {
		parts = s.readParts(hint)
	}
	start := time.Now()
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// On a multi-node control plane the first attempt routes locally,
		// with zero selector RPCs; a retry charges the router round trip. A
		// replica set that changed under the route bounces with ErrNotHosted
		// below.
		local := attempt == 0 && s.router.Local()
		if !local {
			c.net.Send(transport.CatRoute, transport.MsgOverhead)
		}
		route := s.router.Read(s.id, s.cvv, parts, attempt)
		if !local {
			c.net.Send(transport.CatRoute, transport.MsgOverhead)
		}

		c.net.Send(transport.CatTxn, transport.MsgOverhead)
		site := c.sites[route.Site]
		tx, err := s.beginCtx(ctx, site, s.cvv, nil)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			// The chosen replica died between routing and begin; any other
			// replica serves the read, so re-route and retry.
			if Retryable(err) && attempt < BeginRetries {
				if berr := retryBackoff(ctx, attempt); berr != nil {
					return berr
				}
				continue
			}
			return fmt.Errorf("core: read begin: %w", err)
		}
		ferr := fn(txAdapter{tx})
		site.Exec(tx.Cost)
		// Check the not-hosted poison before fn's own error: a read that
		// silently returned "no row" for a partition this site does not host
		// may have induced fn's failure, and re-routing fixes both.
		if missing := tx.NotHostedParts(); len(missing) > 0 {
			tx.Abort()
			parts = mergeParts(parts, missing)
			// Re-routing alone cannot converge when no single site hosts
			// every partition the read touches (disjoint replica sets). After
			// a couple of bounces, materialize the missing replicas at the
			// routed site — a read-triggered replica add, the DynamicCache
			// move — so a co-hosting site exists on the next attempt.
			if attempt >= 2 {
				if err := c.ensureHostedAll(missing, route.Site); err != nil && !Retryable(err) {
					return fmt.Errorf("core: read replica add: %w", err)
				}
			}
			if attempt < BeginRetries {
				if berr := retryBackoff(ctx, attempt); berr != nil {
					return berr
				}
				continue
			}
			return fmt.Errorf("core: read after %d retries: %w", attempt, sitemgr.ErrNotHosted)
		}
		// Likewise a stale-snapshot poison: a read missed a record whose
		// visible version may have been evicted from the bounded chain, so
		// any miss fn observed (and any error it derived from one) is
		// unsound. Re-begin: the fresh snapshot sees the retained versions.
		if tx.SnapshotTooOld() {
			tx.Abort()
			if attempt < BeginRetries {
				if berr := retryBackoff(ctx, attempt); berr != nil {
					return berr
				}
				continue
			}
			return fmt.Errorf("core: read after %d retries: %w", attempt, sitemgr.ErrSnapshotTooOld)
		}
		if ferr != nil {
			tx.Abort()
			return ferr
		}
		snap := tx.Snapshot()
		if _, err := tx.Commit(); err != nil {
			return err
		}
		c.net.Send(transport.CatTxn, transport.MsgOverhead)
		s.cvv = s.cvv.MaxInto(snap)
		c.readDur.ObserveDuration(time.Since(start))
		return nil
	}
}

// txAdapter exposes a sitemgr transaction through the systems.Tx interface.
type txAdapter struct{ tx *sitemgr.Txn }

func (a txAdapter) Read(ref storage.RowRef) ([]byte, bool) { return a.tx.Read(ref) }
func (a txAdapter) Scan(table string, lo, hi uint64) []storage.KV {
	return a.tx.Scan(table, lo, hi)
}
func (a txAdapter) Write(ref storage.RowRef, data []byte) error { return a.tx.Write(ref, data) }
