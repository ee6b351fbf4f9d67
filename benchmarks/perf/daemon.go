package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dynamast/internal/server"
	"dynamast/internal/workload"
)

// buildDir is where the benchmark keeps everything it writes: the daemon
// binary, WAL directories and span files. It sits at the module root and is
// git-ignored.
const buildDir = ".bench_build"

// moduleRoot asks the go command where the dynamast module lives, so the
// benchmark works from any directory inside it.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		return "", fmt.Errorf("go list -m: %w", err)
	}
	return strings.TrimSpace(string(out)), nil
}

// buildDaemon compiles cmd/dynamastd from the tree the benchmark runs in.
// It is not part of any measured time, setup_s included.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "dynamastd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/dynamastd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/dynamastd: %v\n%s", err, out)
	}
	return bin, nil
}

// remote is a child dynamastd reached over loopback TCP.
type remote struct {
	ctx         context.Context // cancelling it kills the child
	bin, walDir string
	cmd         *exec.Cmd
	drained     chan struct{} // closed when the child's stdout is exhausted
	addr        string
	ctl         *server.Client // stats, metrics and checks
	clients     []*server.Client
	nextID      int
}

// spawn starts the daemon on r.walDir and waits for its listen address.
func (r *remote) spawn() error {
	cmd := exec.CommandContext(r.ctx, r.bin,
		"-sites", strconv.Itoa(sites),
		"-wal-dir", r.walDir,
		"-epoch-interval", "0",
		"-listen", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	r.cmd, r.drained = cmd, make(chan struct{})
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if _, addr, ok := strings.Cut(sc.Text(), "serving on "); ok {
			r.addr = strings.TrimSpace(addr)
			break
		}
	}
	if r.addr == "" {
		r.kill()
		return fmt.Errorf("dynamastd exited before announcing its address")
	}
	go func() {
		io.Copy(io.Discard, stdout) // keep the child from blocking on a full pipe
		close(r.drained)
	}()
	r.ctl, err = server.Dial(r.addr, 1_000_000)
	if err != nil {
		r.kill()
		return err
	}
	return nil
}

// kill stops the child with SIGKILL — a crash, as far as its WAL can tell —
// and waits until it has ended.
func (r *remote) kill() {
	for _, c := range append(r.clients, r.ctl) {
		if c != nil {
			c.Close()
		}
	}
	r.clients, r.ctl = nil, nil
	if r.cmd == nil {
		return
	}
	r.cmd.Process.Kill()
	if r.addr != "" {
		<-r.drained
	}
	r.cmd.Wait()
	r.cmd, r.addr = nil, ""
}

// newRemote starts a daemon on a fresh WAL directory and loads SmallBank
// through logged transactions.
func newRemote(ctx context.Context, root, bin string) (*remote, error) {
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return nil, err
	}
	walDir, err := os.MkdirTemp(filepath.Join(root, buildDir), "wal-")
	if err != nil {
		return nil, err
	}
	r := &remote{ctx: ctx, bin: bin, walDir: walDir}
	if err := r.spawn(); err != nil {
		os.RemoveAll(walDir)
		return nil, err
	}
	for _, t := range []string{workload.TableChecking, workload.TableSavings} {
		if err := r.ctl.CreateTable(t); err != nil {
			r.close()
			return nil, err
		}
	}
	for _, t := range bankLoadOps() {
		if _, err := r.ctl.Txn(t.ws, t.ops); err != nil {
			r.close()
			return nil, fmt.Errorf("load: %w", err)
		}
	}
	return r, nil
}

func (r *remote) sessions(seed int64, tracers []*tracer) ([]session, error) {
	w := bankWorkload()
	out := make([]session, nSessions)
	for i := range out {
		id := r.nextID
		r.nextID++
		cl, err := server.Dial(r.addr, id)
		if err != nil {
			return nil, err
		}
		r.clients = append(r.clients, cl)
		s := &bankSession{
			g: w.NewGenerator(id, seed), r: rand.New(rand.NewSource(sessionSeed(seed, id))),
			submit: cl.Txn,
		}
		if tracers != nil {
			s.tr, s.wire = tracers[i], true
		}
		out[i] = s
	}
	return out, nil
}

// cpu reads the child's user+sys time from /proc/<pid>/stat (fields 14 and
// 15, in clock ticks; Linux fixes USER_HZ at 100).
func (r *remote) cpu() time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", r.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may contain spaces; fields resume after ")".
	_, rest, ok := strings.Cut(string(data), ") ")
	if !ok {
		return 0
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(utime+stime) * (time.Second / 100)
}

func (r *remote) counters() (counters, error) {
	reply, err := r.ctl.Metrics(0)
	if err != nil {
		return counters{}, fmt.Errorf("metrics rpc: %w", err)
	}
	c := readCounters(reply.Snapshot)
	err = filepath.WalkDir(r.walDir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			c.walBytes += info.Size()
		}
		return err
	})
	return c, err
}

func (r *remote) heapMB() (float64, error) {
	c, err := r.counters()
	return c.heapBytes / (1 << 20), err
}

// quiesce polls the stats RPC until every site's vector equals every
// other's: each replica has then applied every commit.
func (r *remote) quiesce() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := r.ctl.Stats()
		if err != nil {
			return fmt.Errorf("stats rpc: %w", err)
		}
		same := true
		for _, v := range st.SiteVectors[1:] {
			for k := range v {
				same = same && v[k] == st.SiteVectors[0][k]
			}
		}
		if same {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon did not quiesce: site vectors %v", st.SiteVectors)
		}
		time.Sleep(time.Millisecond)
	}
}

// check is the SmallBank conservation check read through the masters.
func (r *remote) check(ackedDeposits uint64) error {
	if err := r.quiesce(); err != nil {
		return err
	}
	sum, err := sumChecking(r.ctl.Txn)
	if err != nil {
		return err
	}
	return checkBankTotal(sum, ackedDeposits)
}

// restart crashes the daemon and starts it again on the same WAL
// directory. It returns the time from spawn to the first committed reply.
func (r *remote) restart() (time.Duration, error) {
	r.kill()
	t0 := time.Now()
	if err := r.spawn(); err != nil {
		return 0, fmt.Errorf("restart: %w", err)
	}
	if _, _, err := r.ctl.Get(workload.TableChecking, 0); err != nil {
		return 0, fmt.Errorf("restart: first transaction: %w", err)
	}
	return time.Since(t0), nil
}

func (r *remote) close() {
	r.kill()
	os.RemoveAll(r.walDir)
}
