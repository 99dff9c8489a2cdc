package client

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"
)

// scriptedServer reads request lines off the pipe and answers each with
// the next canned reply, byte-for-byte as the server's codec writers
// emit them (pinned in server/codec_repl_test.go). Together the two
// tests are a cross-package round trip without a cross-package import.
func scriptedServer(t *testing.T, nc net.Conn, replies []string) {
	t.Helper()
	go func() {
		r := bufio.NewReader(nc)
		w := bufio.NewWriter(nc)
		for _, rep := range replies {
			if _, err := r.ReadString('\n'); err != nil {
				return
			}
			w.WriteString(rep)
		}
		w.Flush()
	}()
}

// TestReplReplyRoundTrip drives every replication/lease reply shape the
// server can emit through a real Conn and checks the parsed Reply.
func TestReplReplyRoundTrip(t *testing.T) {
	cnc, snc := net.Pipe()
	defer cnc.Close()
	defer snc.Close()
	scriptedServer(t, snc, []string{
		"VALUEV 42 hello world\n",
		"MISS\n",
		"VER 43\n",
		"LEASE deadbeef 2000\n",
		"WAIT 20\n",
		"STALE 5 old value\n",
		"STALE\n",
		"VER 44\n",
		"MISS\n",
	})
	c := newConn(cnc, time.Second)
	defer c.Close()

	queue := []func() error{
		func() error { return c.QueueGetV("k") },
		func() error { return c.QueueGetV("gone") },
		func() error { return c.QueueSetV("k", "v", 0) },
		func() error { return c.QueueLease("k") },
		func() error { return c.QueueLease("k") },
		func() error { return c.QueueLease("k") },
		func() error { return c.QueueLease("k") },
		func() error { return c.QueueSetLease("k", 0xdeadbeef, "v", time.Second) },
		func() error { return c.QueueSetLease("k", 0xdeadbeef, "v", 0) },
	}
	for i, q := range queue {
		if err := q(); err != nil {
			t.Fatalf("queue %d: %v", i, err)
		}
	}
	reps, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(queue) {
		t.Fatalf("got %d replies, want %d", len(reps), len(queue))
	}

	if r := reps[0]; !r.Found || r.Ver != 42 || r.Value != "hello world" {
		t.Fatalf("VALUEV parsed as %+v", r)
	}
	if r := reps[1]; r.Found || r.Err != nil {
		t.Fatalf("MISS parsed as %+v", r)
	}
	if r := reps[2]; !r.Found || r.Ver != 43 {
		t.Fatalf("VER parsed as %+v", r)
	}
	if r := reps[3]; r.Lease != 0xdeadbeef || r.LeaseTTL != 2*time.Second {
		t.Fatalf("LEASE parsed as %+v", r)
	}
	if r := reps[4]; r.Wait != 20*time.Millisecond || r.Lease != 0 {
		t.Fatalf("WAIT parsed as %+v", r)
	}
	if r := reps[5]; !r.Stale || r.Ver != 5 || r.Value != "old value" {
		t.Fatalf("STALE <ver> <val> parsed as %+v", r)
	}
	if r := reps[6]; !r.Stale || r.Ver != 0 || r.Value != "" {
		t.Fatalf("bare STALE parsed as %+v", r)
	}
	if r := reps[7]; !r.Found || r.Ver != 44 {
		t.Fatalf("SETL VER parsed as %+v", r)
	}
	if r := reps[8]; r.Found {
		t.Fatalf("SETL MISS parsed as %+v", r)
	}
}

// TestReplReplyMalformed checks that corrupt versioned replies break the
// Conn instead of yielding a half-parsed Reply.
func TestReplReplyMalformed(t *testing.T) {
	for _, bad := range []string{
		"VALUEV notanumber v\n",
		"VER \n",
		"LEASE 0 20\n",     // token 0 is never granted
		"LEASE deadbeef\n", // ttl missing
		"WAIT many\n",
		"STALE x y\n",
	} {
		cnc, snc := net.Pipe()
		scriptedServer(t, snc, []string{bad})
		c := newConn(cnc, time.Second)
		if err := c.QueueGetV("k"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Flush(); err == nil {
			t.Fatalf("reply %q parsed without error", bad)
		}
		c.Close()
		snc.Close()
	}
}

// TestVerMemory exercises the monotonic floor: ratcheting, bounded
// growth, and the zero-version no-op.
func TestVerMemory(t *testing.T) {
	vm := newVerMemory(4)
	vm.observe("a", 10)
	vm.observe("a", 5) // lower: must not regress
	if got := vm.floor("a"); got != 10 {
		t.Fatalf("floor(a) = %d, want 10", got)
	}
	vm.observe("a", 12)
	if got := vm.floor("a"); got != 12 {
		t.Fatalf("floor(a) = %d, want 12", got)
	}
	vm.observe("zero", 0) // version 0 is "no information"
	if got := vm.floor("zero"); got != 0 {
		t.Fatalf("floor(zero) = %d, want 0", got)
	}
	// Fill past capacity: the map must stay bounded.
	for _, k := range []string{"b", "c", "d", "e", "f"} {
		vm.observe(k, 1)
	}
	vm.mu.Lock()
	n := len(vm.m)
	vm.mu.Unlock()
	if n > 4 {
		t.Fatalf("version memory grew to %d entries, cap 4", n)
	}
}

// TestHotCache exercises membership-gated fills, TTL expiry, and
// write-through invalidation.
func TestHotCache(t *testing.T) {
	h := newHotCache(50 * time.Millisecond)
	now := time.Now()

	// Values for keys outside the hot set are not cached.
	h.put("cold", "v", 1, now)
	if _, _, ok := h.get("cold", now); ok {
		t.Fatal("cached a value for a key outside the hot set")
	}

	h.setHotSet([]HotKey{{Key: "hot", Count: 9}})
	if !h.isHot("hot") || h.isHot("cold") {
		t.Fatal("hot-set membership wrong after setHotSet")
	}
	h.put("hot", "v1", 7, now)
	if val, ver, ok := h.get("hot", now); !ok || val != "v1" || ver != 7 {
		t.Fatalf("get(hot) = %q/%d/%v, want v1/7/true", val, ver, ok)
	}
	// Past the TTL the copy is dead.
	if _, _, ok := h.get("hot", now.Add(51*time.Millisecond)); ok {
		t.Fatal("served a hot value past its TTL")
	}
	// A write through the client kills the copy immediately.
	h.put("hot", "v2", 8, now)
	h.invalidate("hot")
	if _, _, ok := h.get("hot", now); ok {
		t.Fatal("served a hot value after invalidation")
	}
	// Falling out of the hot set drops the value too.
	h.put("hot", "v3", 9, now)
	h.setHotSet([]HotKey{{Key: "other", Count: 1}})
	if _, _, ok := h.get("hot", now); ok {
		t.Fatal("served a value for a key that left the hot set")
	}
}

// TestMalformedTableBreaksConn: a malformed line in the middle of a
// STATS, CLUSTER or HOTKEYS table leaves the rest of the table in flight,
// so the Conn must break instead of letting the next request read it.
func TestMalformedTableBreaksConn(t *testing.T) {
	for _, tc := range []struct {
		name  string
		table string
		call  func(c *Conn) error
	}{
		{"stats", "STAT a 1\nBOGUS\nSTAT b 2\nEND\n", func(c *Conn) error { _, err := c.Stats(); return err }},
		{"cluster", "CLUSTER load 0.5\nBOGUS\nCLUSTER entries 2\nEND\n", func(c *Conn) error { _, err := c.ClusterInfo(); return err }},
		{"hotkeys", "HOTKEY 3 a\nBOGUS\nHOTKEY 2 b\nEND\n", func(c *Conn) error { _, err := c.HotKeys(0); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cnc, snc := net.Pipe()
			defer snc.Close()
			go func() {
				r := bufio.NewReader(snc)
				reply := tc.table
				for {
					if _, err := r.ReadString('\n'); err != nil {
						return
					}
					if _, err := snc.Write([]byte(reply)); err != nil {
						return
					}
					reply = "MISS\n"
				}
			}()
			c := newConn(cnc, time.Second)
			defer c.Close()
			if err := tc.call(c); err == nil {
				t.Fatal("malformed table parsed without error")
			}
			if !errors.Is(c.Err(), ErrBrokenConn) {
				t.Fatalf("Err() = %v after a malformed table, want the Conn broken", c.Err())
			}
			if _, _, err := c.Get("k"); !errors.Is(err, ErrBrokenConn) {
				t.Fatalf("Get after a malformed table = %v, want ErrBrokenConn", err)
			}
		})
	}
}
