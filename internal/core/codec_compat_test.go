package core

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"dynamast/internal/checkpoint"
	"dynamast/internal/codec"
	"dynamast/internal/systems"
	"dynamast/internal/wal"
)

// rewriteDurableStateAsLegacy converts every durable artifact under dir —
// the per-site WAL files and every committed checkpoint's snapshot files —
// to the pre-codec gob format, exactly as a cluster run entirely on the
// previous build would have left them. Checkpoint manifests are patched
// with the gob files' byte counts so integrity verification still passes.
func rewriteDurableStateAsLegacy(t *testing.T, dir string, sites int) {
	t.Helper()
	for i := 0; i < sites; i++ {
		path := filepath.Join(dir, fmt.Sprintf("site-%d.wal", i))
		l, err := wal.Open(path)
		if err != nil {
			t.Fatalf("reopen WAL %d: %v", i, err)
		}
		var entries []wal.Entry
		c := l.Subscribe(l.Base())
		for {
			e, ok := c.TryNext()
			if !ok {
				break
			}
			entries = append(entries, e)
		}
		c.Close()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := wal.WriteLegacyLog(path, entries); err != nil {
			t.Fatalf("legacy rewrite WAL %d: %v", i, err)
		}
	}
	for _, m := range checkpoint.List(dir) {
		cdir := checkpoint.Dir(dir, m.Seq)
		for i := 0; i < m.Sites; i++ {
			snap := filepath.Join(cdir, checkpoint.SnapshotName(i))
			var rows []checkpoint.Row
			if _, err := checkpoint.ReadSnapshot(snap, func(r checkpoint.Row) error {
				rows = append(rows, r)
				return nil
			}); err != nil {
				t.Fatalf("read snapshot %s: %v", snap, err)
			}
			info, err := checkpoint.WriteLegacySnapshot(snap, rows)
			if err != nil {
				t.Fatalf("legacy rewrite snapshot %s: %v", snap, err)
			}
			m.Snapshots[i] = info
		}
		if err := checkpoint.WriteManifest(cdir, m); err != nil {
			t.Fatalf("rewrite manifest seq %d: %v", m.Seq, err)
		}
	}
}

// TestRecoverFromGobBuildDurableState is the cross-build upgrade test: a
// cluster whose entire durable state — WALs and a committed checkpoint —
// was written in the previous build's gob format must recover under this
// build, via the per-frame legacy fallback, to the exact pre-crash data.
// Post-recovery traffic then appends binary-format frames to the gob-format
// logs, and a second recovery replays that mixed state too.
func TestRecoverFromGobBuildDurableState(t *testing.T) {
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
	want := drive(t, c, sess, 400, 0)
	if err := c.WaitQuiesced(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	m, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// A post-checkpoint suffix so recovery exercises both the snapshot
	// restore and the WAL redo replay.
	for k, v := range drive(t, c, sess, 100, 0x5A) {
		want[k] = v
	}
	if err := c.WaitQuiesced(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Downgrade the durable state to what the previous build would have
	// written: gob frames everywhere.
	rewriteDurableStateAsLegacy(t, dir, 3)

	codec.Reset()
	c2, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2.CreateTable("kv")
	if err := c2.Recover(initial); err != nil {
		t.Fatalf("recovery from gob-build state: %v", err)
	}
	st := c2.LastRecovery()
	if !st.UsedCheckpoint || st.Seq != m.Seq {
		t.Fatalf("recovery did not use the gob-format checkpoint %d: %+v", m.Seq, st)
	}
	if err := c2.WaitQuiesced(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		data, ok := c2.Sites()[c2.Group().MasterOf(k/100)].ReadLocal(ref(k))
		if !ok || data[0] != v {
			t.Fatalf("key %d after gob-build recovery: %v %v, want %d", k, data, ok, v)
		}
	}
	// The fallback readers must actually have run on both surfaces.
	if n := codec.LegacyFrames(codec.SurfaceWAL); n == 0 {
		t.Fatal("no legacy WAL frames decoded — test did not exercise the fallback")
	}
	if n := codec.LegacyFrames(codec.SurfaceCheckpoint); n == 0 {
		t.Fatal("no legacy checkpoint frames decoded — test did not exercise the fallback")
	}

	// Keep running on the recovered cluster: new commits append
	// binary-format frames after the gob prefix in the same files.
	sess2 := c2.Session(1)
	for k, v := range drive(t, c2, sess2, 100, 0x77) {
		want[k] = v
	}
	if err := c2.WaitQuiesced(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	c2.Close()

	// Second crash: the logs are now mixed-format (gob prefix + binary
	// suffix). Recovery must replay both parts to one coherent state.
	c3, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	c3.CreateTable("kv")
	if err := c3.Recover(initial); err != nil {
		t.Fatalf("recovery from mixed-format state: %v", err)
	}
	if err := c3.WaitQuiesced(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		data, ok := c3.Sites()[c3.Group().MasterOf(k/100)].ReadLocal(ref(k))
		if !ok || data[0] != v {
			t.Fatalf("key %d after mixed-format recovery: %v %v, want %d", k, data, ok, v)
		}
	}
}
