package bench

import (
	"dynamast/internal/storage"
	"dynamast/internal/systems"
	"dynamast/internal/vclock"
)

// singleMaster is the replicated single-master architecture: site 0 masters
// every data item and executes all update transactions; the remaining sites
// hold lazily maintained read-only replicas that serve read-only
// transactions. It avoids distributed transactions entirely but the master
// site becomes the bottleneck as the update load scales (§II-A).
type singleMaster struct{ *baseline }

// Name implements systems.System.
func (s *singleMaster) Name() string { return string(KindSingleMaster) }

// NewClient implements systems.System.
func (s *singleMaster) NewClient(id int) systems.Client {
	return &smClient{sys: s, cvv: vclock.New(len(s.sites))}
}

type smClient struct {
	sys *singleMaster
	cvv vclock.Vector
}

// Update executes at the master site; clients connect to it directly, so a
// write transaction costs a single stored-procedure round trip — but every
// client's updates queue on the one master.
func (c *smClient) Update(writeSet []storage.RowRef, fn func(systems.Tx) error) error {
	s := c.sys
	tvv, err := s.localTx(s.sites[0], c.cvv, writeSet, fn)
	if err != nil {
		return err
	}
	c.cvv = c.cvv.MaxInto(tvv)
	return nil
}

// Read executes at a random replica satisfying the session's freshness,
// offloading the master (what makes single-master superior to a fully
// centralized system).
func (c *smClient) Read(hint []storage.RowRef, fn func(systems.Tx) error) error {
	s := c.sys
	snap, err := s.readTx(s.sites[s.randFresh(c.cvv)], c.cvv, fn)
	if err != nil {
		return err
	}
	c.cvv = c.cvv.MaxInto(snap)
	return nil
}
