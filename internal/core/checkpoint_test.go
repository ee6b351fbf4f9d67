package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dynamast/internal/checkpoint"
	"dynamast/internal/storage"
	"dynamast/internal/systems"
)

// drive commits n single-partition updates spread across partitions and
// returns the value each touched key should finally hold.
func drive(t *testing.T, c *Cluster, sess *Session, n int, salt byte) map[uint64]byte {
	t.Helper()
	want := map[uint64]byte{}
	for i := 0; i < n; i++ {
		k := uint64(i%10)*100 + uint64(i%7)
		v := byte(i) ^ salt
		if err := sess.Update([]storage.RowRef{ref(k)}, func(tx systems.Tx) error {
			return tx.Write(ref(k), []byte{v})
		}); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	return want
}

func captureInitial(c *Cluster) map[uint64]int {
	initial := map[uint64]int{}
	for p := uint64(0); p < 10; p++ {
		initial[p] = c.Group().MasterOf(p)
	}
	return initial
}

// The acceptance test for checkpointed restart: after a long run with a
// checkpoint mid-way, recovery replays ONLY the post-checkpoint suffix —
// asserted by exact record count — instead of the full log, and the WAL's
// disk footprint shrinks at the checkpoint.
func TestCheckpointRestartReplaysOnlySuffix(t *testing.T) {
	pre, post := 50_000, 5_000
	if testing.Short() {
		pre, post = 5_000, 500
	}
	dir := t.TempDir()
	cfg := Config{Sites: 3, Partitioner: partitionBy100, WALDir: dir}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.CreateTable("kv")
	var rows []systems.LoadRow
	for k := uint64(0); k < 1000; k++ {
		rows = append(rows, systems.LoadRow{Ref: ref(k), Data: []byte{0}})
	}
	c.Load(rows)
	initial := captureInitial(c)

	sess := c.Session(1)
	want := drive(t, c, sess, pre, 0)
	// Quiesce so every site's svv covers the whole prefix: the manifest's
	// replay offsets then sit exactly at the pre-checkpoint log ends,
	// making the expected replay count exact.
	if err := c.WaitQuiesced(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	// The checkpoint Load took is the retained fallback until two newer
	// ones supersede it, and its replay suffix is the whole log; the WAL
	// shrinks once the first post-load checkpoint becomes the fallback.
	if _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sizeBefore := walBytes(t, dir, 3)
	m, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if walBytes(t, dir, 3) >= sizeBefore {
		t.Fatalf("WAL did not shrink at checkpoint: %d -> %d bytes", sizeBefore, walBytes(t, dir, 3))
	}

	for k, v := range drive(t, c, sess, post, 0x5A) {
		want[k] = v
	}
	if err := c.WaitQuiesced(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c2, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.CreateTable("kv")
	if err := c2.Recover(initial); err != nil {
		t.Fatal(err)
	}
	st := c2.LastRecovery()
	if !st.UsedCheckpoint || st.Seq != m.Seq {
		t.Fatalf("recovery did not use checkpoint %d: %+v", m.Seq, st)
	}
	// Each update commits at exactly one site, and refresh appliers never
	// touch a site's own dimension, so the summed own-log replay equals the
	// post-checkpoint commit count exactly.
	if st.ReplayedOwn != uint64(post) {
		t.Fatalf("replayed %d own-log records, want exactly the %d-record post-checkpoint suffix (full log is %d)",
			st.ReplayedOwn, post, pre+post)
	}
	if err := c2.WaitQuiesced(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		data, ok := c2.Sites()[c2.Group().MasterOf(k/100)].ReadLocal(ref(k))
		if !ok || data[0] != v {
			t.Fatalf("key %d after recovery: %v %v, want %d", k, data, ok, v)
		}
	}
	// Rows loaded (not logged) before the checkpoint survive via the
	// snapshot — something full redo replay cannot reconstruct.
	if data, ok := c2.Sites()[0].ReadLocal(ref(999)); !ok || data[0] != 0 {
		t.Fatalf("loaded row lost across checkpointed restart: %v %v", data, ok)
	}
}

func walBytes(t *testing.T, dir string, sites int) int64 {
	t.Helper()
	var total int64
	for i := 0; i < sites; i++ {
		st, err := os.Stat(filepath.Join(dir, fmt.Sprintf("site-%d.wal", i)))
		if err != nil {
			t.Fatal(err)
		}
		total += st.Size()
	}
	return total
}

// A corrupt newest checkpoint is rejected whole (verify-before-install) and
// recovery falls back to the previous checkpoint.
func TestCorruptedCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Sites: 2, Partitioner: partitionBy100, WALDir: dir}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.CreateTable("kv")
	c.Load([]systems.LoadRow{{Ref: ref(1), Data: []byte{0}}, {Ref: ref(101), Data: []byte{0}}})
	initial := captureInitial(c)
	sess := c.Session(1)

	want := drive(t, c, sess, 300, 0)
	if err := c.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	m1, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range drive(t, c, sess, 200, 0x77) {
		want[k] = v
	}
	if err := c.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	m2, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if m2.Seq <= m1.Seq {
		t.Fatalf("checkpoint seqs not increasing: %d then %d", m1.Seq, m2.Seq)
	}
	for k, v := range drive(t, c, sess, 100, 0x33) {
		want[k] = v
	}
	if err := c.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Bit-rot the newest checkpoint's site-1 snapshot.
	snap := filepath.Join(checkpoint.Dir(dir, m2.Seq), checkpoint.SnapshotName(1))
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty snapshot")
	}
	data[len(data)/3] ^= 0x10
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.CreateTable("kv")
	if err := c2.Recover(initial); err != nil {
		t.Fatal(err)
	}
	st := c2.LastRecovery()
	if !st.UsedCheckpoint || st.Seq != m1.Seq {
		t.Fatalf("recovery used %+v, want fallback to checkpoint %d", st, m1.Seq)
	}
	if err := c2.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		data, ok := c2.Sites()[c2.Group().MasterOf(k/100)].ReadLocal(ref(k))
		if !ok || data[0] != v {
			t.Fatalf("key %d after fallback recovery: %v %v, want %d", k, data, ok, v)
		}
	}
}

// Shutdown-ordering regression: Close is idempotent, a background
// checkpointer racing shutdown leaves no torn manifest, and the survivors
// on disk restart cleanly.
func TestCloseTwiceAndRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Sites:                  2,
		Partitioner:            partitionBy100,
		WALDir:                 dir,
		CheckpointEvery:        time.Millisecond, // races Close on purpose
		CheckpointEveryRecords: 50,
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.CreateTable("kv")
	c.Load([]systems.LoadRow{{Ref: ref(1), Data: []byte{0}}})
	initial := captureInitial(c)
	sess := c.Session(1)
	want := drive(t, c, sess, 500, 0)
	if err := c.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // idempotent

	// Every surviving checkpoint directory is committed or absent — never
	// a torn manifest (temp files or manifest inconsistent with sites).
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, e.Name(), checkpoint.ManifestName+".tmp")); err == nil {
			t.Fatalf("torn manifest temp file in %s", e.Name())
		}
	}

	c2, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2.CreateTable("kv")
	if err := c2.Recover(initial); err != nil {
		t.Fatal(err)
	}
	if err := c2.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		data, ok := c2.Sites()[c2.Group().MasterOf(k/100)].ReadLocal(ref(k))
		if !ok || data[0] != v {
			t.Fatalf("key %d after restart: %v %v, want %d", k, data, ok, v)
		}
	}
	c2.Close()
	c2.Close()
}
