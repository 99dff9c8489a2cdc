package client

import (
	"bufio"
	"flag"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cuckoohash/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// recordingServer answers every request line on nc with the shortest
// well-formed reply for its verb and sends the line, exactly as the
// client wrote it, on the returned channel. Replies are flushed only
// once the buffered input is consumed, like the daemon's batch loop.
func recordingServer(t *testing.T, nc net.Conn) <-chan string {
	t.Helper()
	lines := make(chan string, 256)
	go func() {
		r := bufio.NewReader(nc)
		w := bufio.NewWriter(nc)
		queued := -1 // ops queued inside MULTI; -1 outside a transaction
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			lines <- line
			req := strings.TrimSuffix(line, "\n")
			if rest, ok := strings.CutPrefix(req, "TRACE "); ok {
				_, req, _ = strings.Cut(rest, " ")
			}
			verb, _, _ := strings.Cut(req, " ")
			switch {
			case verb == "MULTI":
				queued = 0
				w.WriteString("OK\n")
			case verb == "EXEC":
				w.WriteString("EXEC " + strconv.Itoa(queued) + "\n")
				w.WriteString(strings.Repeat("OK\n", queued))
				queued = -1
			case queued >= 0:
				queued++
				w.WriteString("QUEUED\n")
			case verb == "STATS" || verb == "CLUSTER" || verb == "HOTKEYS":
				w.WriteString("END\n")
			case verb == "MIGRATE":
				w.WriteString("MIGRATED 0\n")
			default:
				w.WriteString("OK\n")
			}
			if r.Buffered() == 0 {
				w.Flush()
			}
		}
	}()
	return lines
}

// drain returns every line recorded so far. Call it after the exchange
// that sent them has read its replies: the server records a line before
// answering it.
func drain(lines <-chan string) []string {
	var out []string
	for {
		select {
		case l := <-lines:
			out = append(out, l)
		default:
			return out
		}
	}
}

// TestRequestBytesGolden pins the exact bytes the client writes for every
// request form: each Queue* verb untraced and traced, a traced MULTI…EXEC
// transaction, and the STATS, CLUSTER, HOTKEYS and MIGRATE exchanges.
func TestRequestBytesGolden(t *testing.T) {
	cnc, snc := net.Pipe()
	defer cnc.Close()
	defer snc.Close()
	lines := recordingServer(t, snc)
	c := newConn(cnc, time.Second)
	defer c.Close()

	queueAll := func() {
		t.Helper()
		for i, q := range []func() error{
			func() error { return c.QueueGet("k") },
			func() error { return c.QueueSet("k", "v w", 0) },
			func() error { return c.QueueSet("k", "", 0) },
			func() error { return c.QueueSet("k", "v", 1500*time.Microsecond) },
			func() error { return c.QueueSet("k", "v", 2*time.Second) },
			func() error { return c.QueueDel("k") },
			func() error { return c.QueueTTL("k") },
			func() error { return c.QueueGetV("k") },
			func() error { return c.QueueSetV("k", "v", 0) },
			func() error { return c.QueueSetV("k", "v", 1001*time.Microsecond) },
			func() error { return c.QueueLease("k") },
			func() error { return c.QueueSetLease("k", 0xdeadbeef, "v", time.Second) },
			func() error { return c.QueueSetLease("k", 0xdeadbeef, "v", 0) },
			func() error { return c.QueueIncr("k", -3) },
			func() error { return c.QueueIncr("k", 5) },
			func() error { return c.QueueMaxUpdate("k", 42) },
			func() error { return c.QueueCAS("k", "old", "new val") },
		} {
			if err := q(); err != nil {
				t.Fatalf("queue %d: %v", i, err)
			}
		}
		if _, err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	admin := func() {
		t.Helper()
		if _, err := c.Stats(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ClusterInfo(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.HotKeys(0); err != nil {
			t.Fatal(err)
		}
		if _, err := c.HotKeys(5); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Migrate("home", "10.0.0.2:7", "10.0.0.1:7", 9, 0, "10.0.0.1:7,10.0.0.2:7"); err != nil {
			t.Fatal(err)
		}
	}

	queueAll()
	admin()
	if err := c.SetTrace("t1"); err != nil {
		t.Fatal(err)
	}
	queueAll()
	admin()
	txn := NewTxn().Get("a").Set("a", "v", 0).Set("a", "v", 1500*time.Microsecond).
		Del("a").Incr("a", -2).MaxUpdate("a", 7).CAS("a", "v", "w x")
	if reps, err := c.ExecTxn(txn); err != nil || len(reps) != txn.Len() {
		t.Fatalf("ExecTxn = %d replies, %v", len(reps), err)
	}

	want := []string{
		"GET k\n",
		"SET k v w\n",
		"SET k \n",
		"SETEX k 2 v\n",
		"SETEX k 2000 v\n",
		"DEL k\n",
		"TTL k\n",
		"GETV k\n",
		"SETV k 0 v\n",
		"SETV k 2 v\n",
		"LEASE k\n",
		"SETL k deadbeef 1000 v\n",
		"SETL k deadbeef 0 v\n",
		"INCR k -3\n",
		"INCR k 5\n",
		"MAXUPDATE k 42\n",
		"CAS k old new val\n",

		"STATS\n",
		"CLUSTER\n",
		"HOTKEYS\n",
		"HOTKEYS 5\n",
		"MIGRATE home 10.0.0.2:7 10.0.0.1:7 9 0 10.0.0.1:7,10.0.0.2:7\n",

		"TRACE t1 GET k\n",
		"TRACE t1 SET k v w\n",
		"TRACE t1 SET k \n",
		"TRACE t1 SETEX k 2 v\n",
		"TRACE t1 SETEX k 2000 v\n",
		"TRACE t1 DEL k\n",
		"TRACE t1 TTL k\n",
		"TRACE t1 GETV k\n",
		"TRACE t1 SETV k 0 v\n",
		"TRACE t1 SETV k 2 v\n",
		"TRACE t1 LEASE k\n",
		"TRACE t1 SETL k deadbeef 1000 v\n",
		"TRACE t1 SETL k deadbeef 0 v\n",
		"TRACE t1 INCR k -3\n",
		"TRACE t1 INCR k 5\n",
		"TRACE t1 MAXUPDATE k 42\n",
		"TRACE t1 CAS k old new val\n",

		// STATS and CLUSTER never carry the trace; HOTKEYS and MIGRATE do.
		"STATS\n",
		"CLUSTER\n",
		"TRACE t1 HOTKEYS\n",
		"TRACE t1 HOTKEYS 5\n",
		"TRACE t1 MIGRATE home 10.0.0.2:7 10.0.0.1:7 9 0 10.0.0.1:7,10.0.0.2:7\n",

		// A transaction's ops are untraced; the trace rides on EXEC.
		"MULTI\n",
		"GET a\n",
		"SET a v\n",
		"SETEX a 2 v\n",
		"DEL a\n",
		"INCR a -2\n",
		"MAXUPDATE a 7\n",
		"CAS a v w x\n",
		"TRACE t1 EXEC\n",
	}
	got := drain(lines)
	if strings.Join(got, "") != strings.Join(want, "") {
		for i := 0; i < len(got) || i < len(want); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Errorf("line %d: sent %q, want %q", i, g, w)
			}
		}
	}
}

// TestCollectGolden pins the full /metrics text of a Pool and of a
// Cluster (whose per-node pool series carry a node label): names, HELP,
// TYPE, labels and family order. Rewrite with go test -run
// TestCollectGolden -update after a deliberate change.
func TestCollectGolden(t *testing.T) {
	// A pool that is never dialed, its counters seeded with distinct
	// values so that a series reading the wrong field shows in the diff.
	p := NewPoolWith("127.0.0.1:1", Options{Size: 3, BreakerThreshold: 5, RetryBudgetMax: 7.5})
	defer p.Close()
	p.sem <- struct{}{}
	p.sem <- struct{}{}
	p.free = append(p.free, &Conn{closed: true})
	for i, a := range []*atomic.Uint64{&p.dials, &p.dialFails, &p.discards, &p.healthDiscards,
		&p.retries, &p.budgetDenied, &p.timeouts, &p.busyErrs, &p.leaseWaits, &p.leaseFills, &p.leaseStale,
		&p.healthFails[0], &p.healthFails[1], &p.healthFails[2], &p.healthFails[3],
		&p.brk.opens, &p.brk.closes, &p.brk.denied,
		&p.brk.transitions[0], &p.brk.transitions[1], &p.brk.transitions[2], &p.brk.transitions[3], &p.brk.transitions[4]} {
		a.Store(uint64(11 + i))
	}
	p.brk.state = BreakerHalfOpen
	cl, err := NewCluster([]string{"127.0.0.1:1", "127.0.0.1:2"}, ClusterOptions{
		Pool:       Options{Size: 2},
		Seed:       1,
		HotCache:   true,
		HotRefresh: time.Hour, // the poller must not dial during the test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for _, tc := range []struct {
		golden string
		c      obs.Collector
	}{
		{"pool_metrics.golden", p},
		{"cluster_metrics.golden", cl},
	} {
		reg := obs.NewRegistry()
		reg.Register(tc.c)
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", tc.golden)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if b.String() != string(want) {
			t.Errorf("%s drifted:\n--- got ---\n%s\n--- want ---\n%s", tc.golden, b.String(), want)
		}
	}
}

// TestQueueAllocFree is the runtime twin of the encoder's
// //cuckoo:hotpath proof: queueing a GET and a SET with no TTL, the
// benchmark's encode path, allocates nothing.
func TestQueueAllocFree(t *testing.T) {
	cnc, snc := net.Pipe()
	defer cnc.Close()
	defer snc.Close()
	c := newConn(cnc, 0)
	c.w = bufio.NewWriterSize(io.Discard, 4096)
	allocs := testing.AllocsPerRun(1000, func() {
		if err := c.QueueGet("key:000017"); err != nil {
			t.Fatal(err)
		}
		if err := c.QueueSet("key:000017", "value with spaces", 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("QueueGet+QueueSet allocate %v times per call, want 0", allocs)
	}
}

// BenchmarkQueueGetSet measures the client's encode cost for one GET plus
// one SET with no TTL, the request mix of the wire benchmarks.
func BenchmarkQueueGetSet(b *testing.B) {
	cnc, snc := net.Pipe()
	defer cnc.Close()
	defer snc.Close()
	c := newConn(cnc, 0)
	c.w = bufio.NewWriterSize(io.Discard, 4096)
	b.ReportAllocs()
	for b.Loop() {
		c.QueueGet("key:000017")
		c.QueueSet("key:000017", "value:000017:abcdefghijklmnopqrstuvwxyz", 0)
		c.pending = 0
	}
}
