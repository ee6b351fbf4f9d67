package sitemgr

import (
	"fmt"
	"testing"

	"dynamast/internal/obs"
	"dynamast/internal/storage"
	"dynamast/internal/wal"
)

// TestRefreshDelayGaugeTracksWatermark checks the per-site freshness gauges:
// dynamast_refresh_delay{site,origin} must equal the number of updates the
// origin has published that the site has not yet applied, and
// dynamast_site_svv must converge to the publisher's watermark once the
// site's appliers run.
func TestRefreshDelayGaugeTracksWatermark(t *testing.T) {
	reg := obs.NewRegistry()
	b := wal.NewBroker(2)

	sites := make([]*Site, 2)
	for i := range sites {
		s, err := New(Config{
			SiteID:      i,
			Sites:       2,
			Broker:      b,
			Partitioner: partitionBy100,
			Obs:         reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Store().CreateTable("t")
		s.SetMaster(0, i == 0)
		sites[i] = s
	}
	defer func() {
		// The broker closes first so blocked appliers drain and exit.
		b.Close()
		for _, s := range sites {
			s.Stop()
		}
	}()
	// Only site 0 replicates for now: site 1's appliers stay parked so its
	// refresh delay accumulates deterministically.
	sites[0].Start()

	value := func(name string, site, origin int) float64 {
		t.Helper()
		v, ok := reg.Snapshot().Value(name, obs.Site(site),
			obs.L("origin", fmt.Sprint(origin)))
		if !ok {
			t.Fatalf("%s{site=%d,origin=%d} not registered", name, site, origin)
		}
		return v
	}

	const updates = 5
	for i := uint64(0); i < updates; i++ {
		tx, err := sites[0].Begin(nil, []storage.RowRef{ref(i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(ref(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
		// The gauge follows the publish watermark commit by commit.
		if d := value("dynamast_refresh_delay", 1, 0); d != float64(i+1) {
			t.Fatalf("after %d commits refresh_delay{site=1,origin=0} = %g", i+1, d)
		}
	}
	if v := value("dynamast_site_svv", 0, 0); v != updates {
		t.Fatalf("svv{site=0,origin=0} = %g", v)
	}
	if v := value("dynamast_site_svv", 1, 0); v != 0 {
		t.Fatalf("svv{site=1,origin=0} = %g before appliers started", v)
	}

	// Start site 1's appliers: the delay must drain to zero and its SVV
	// entry for the origin must reach the watermark.
	sites[1].Start()
	waitFor(t, func() bool {
		return value("dynamast_refresh_delay", 1, 0) == 0 &&
			value("dynamast_site_svv", 1, 0) == updates
	})

	// The applied refreshes were counted and their lag observed.
	snap := reg.Snapshot()
	if v, ok := snap.Value("dynamast_refreshes_total", obs.Site(1)); !ok || v != updates {
		t.Fatalf("refreshes_total{site=1} = %g, %v", v, ok)
	}
	lag, ok := snap.Get("dynamast_refresh_lag_seconds", obs.Site(1))
	if !ok || lag.Count != updates {
		t.Fatalf("refresh_lag_seconds{site=1} count = %d, %v", lag.Count, ok)
	}
	if lag.Max <= 0 {
		t.Fatalf("refresh_lag_seconds{site=1} max = %g", lag.Max)
	}
	if v, ok := snap.Value("dynamast_refresh_lag", obs.Site(1)); !ok || v <= 0 {
		t.Fatalf("refresh_lag{site=1} = %g, %v", v, ok)
	}
}
