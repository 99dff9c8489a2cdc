package server

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"cuckoohash/internal/obs"
)

// TestGetWirePathZeroAlloc proves the steady-state GET path — wire parse,
// dispatch, byte-key probe, reply — allocation-free end to end, hit and
// miss alike, and then the connection's batch loop around it with its
// sampled observability (latency, stages, hot-key sketch, flight record). This is the dynamic counterpart of the static allocfree
// proof over the //cuckoo:hotpath roots (parseRequest, dispatchFast,
// GetBytesTraced, generic.GetBytes, writeValue).
func TestGetWirePathZeroAlloc(t *testing.T) {
	c, err := NewCache(4, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set("hot", "value-1", 0); err != nil {
		t.Fatal(err)
	}
	s := &Server{cache: c}
	var cs connState
	w := bufio.NewWriter(io.Discard)

	for _, tc := range []struct {
		name string
		line string
	}{
		{"hit", "GET hot"},
		{"miss", "GET absent"},
	} {
		line := []byte(tc.line)
		allocs := testing.AllocsPerRun(500, func() {
			req := &cs.req
			err := parseRequest(line, req)
			if err != nil {
				panic(err)
			}
			if !s.dispatchFast(req, w, &cs) {
				panic("GET not handled by the fast dispatch")
			}
			w.Reset(io.Discard)
		})
		if allocs != 0 {
			t.Errorf("GET %s wire round trip: %.1f allocs/op, want 0", tc.name, allocs)
		}
	}

	// The batch loop around dispatch: 16 pipelined GETs of one key per
	// run, so every run includes exactly one sampled request (latency
	// histogram, stage table, hot-key touch on a key the sketch already
	// tracks after the warm-up run) and 16 in-place flight records.
	s.flight = obs.NewFlight(flightShards, flightPerShard)
	batch := bytes.Repeat([]byte("GET hot\r\n"), latencySampleMask+1)
	var src bytes.Reader
	r := bufio.NewReaderSize(&src, connReadBuf)
	allocs := testing.AllocsPerRun(200, func() {
		src.Reset(batch)
		r.Reset(&src)
		line, err := readLine(r)
		if err != nil {
			panic(err)
		}
		if s.serveBatchHead(line, r, w, &cs) {
			panic("batch loop quit on a GET batch")
		}
		w.Reset(io.Discard)
	})
	if allocs != 0 {
		t.Errorf("pipelined GET batch through serveBatchHead: %.1f allocs/op, want 0", allocs)
	}
	if hot := c.stats.HotKeys(1); len(hot) != 1 || hot[0].Key != "hot" {
		t.Errorf("HotKeys = %+v; the sampled requests never reached the sketch", hot)
	}
	if recs := s.flight.Snapshot(); len(recs) == 0 || recs[len(recs)-1].Verb != "GET" {
		t.Errorf("flight recorder holds %d records; the batch was not recorded", len(recs))
	}
}

// TestSetWirePathAllocBound pins the SET path to its two inherent
// allocations: the stored key and value must be copied out of the
// connection read buffer, and nothing else on the steady-state
// overwrite path may allocate.
func TestSetWirePathAllocBound(t *testing.T) {
	c, err := NewCache(4, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{cache: c}
	var cs connState
	w := bufio.NewWriter(io.Discard)
	line := []byte("SET hot value-1")

	allocs := testing.AllocsPerRun(500, func() {
		req := &cs.req
		err := parseRequest(line, req)
		if err != nil {
			panic(err)
		}
		if !s.dispatchFast(req, w, &cs) {
			panic("SET not handled by the fast dispatch")
		}
		w.Reset(io.Discard)
	})
	if allocs > 2 {
		t.Errorf("SET wire round trip: %.1f allocs/op, want <= 2 (stored key + value)", allocs)
	}
}
