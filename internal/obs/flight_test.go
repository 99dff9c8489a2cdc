package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// tracedSpan returns an unarmed span carrying trace id: a record with a
// trace but no stage timings, like an untimed traced request.
func tracedSpan(id string) *Span {
	var sp Span
	sp.SetTrace([]byte(id))
	return &sp
}

func TestFlightWriteToFormat(t *testing.T) {
	f := NewFlight(1, 8)
	var sp Span
	sp.Arm()
	sp.stages[StageProbe] = int64(time.Millisecond)
	sp.stages[StageOther] = int64(200 * time.Microsecond)
	sp.SetTrace([]byte("abc123"))
	f.Record(0, "GET", OutcomeOK, 0xdeadbeef, int64(1200*time.Microsecond), &sp)
	f.Record(0, "SET", OutcomeBusy, 1, int64(3*time.Microsecond), nil)

	var b strings.Builder
	if _, err := f.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	want := "seq=1 verb=GET outcome=ok key=00000000deadbeef trace=abc123 total=1.2ms stages=probe=1ms other=200µs\n" +
		"seq=2 verb=SET outcome=busy key=0000000000000001 trace= total=3µs stages=none\n"
	if b.String() != want {
		t.Errorf("WriteTo dump:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestFlightRingKeepsNewestPerShard(t *testing.T) {
	f := NewFlight(1, 4)
	for i := 0; i < 10; i++ {
		f.Record(0, "GET", OutcomeOK, 0, 1, nil)
	}
	snap := f.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot len = %d, want 4 (ring capacity)", len(snap))
	}
	for i, rec := range snap {
		if want := uint64(7 + i); rec.Seq != want {
			t.Errorf("snap[%d].Seq = %d, want %d (oldest-first, newest survive)", i, rec.Seq, want)
		}
	}
}

func TestFlightSnapshotOrdersAcrossShards(t *testing.T) {
	f := NewFlight(4, 8)
	for i := 0; i < 12; i++ {
		f.Record(uint64(i), "GET", OutcomeOK, 0, 0, nil) // round-robin shards
	}
	snap := f.Snapshot()
	if len(snap) != 12 {
		t.Fatalf("Snapshot len = %d, want 12", len(snap))
	}
	for i, rec := range snap {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("snap[%d].Seq = %d, want %d (one timeline across shards)", i, rec.Seq, i+1)
		}
	}
}

func TestFlightSummary(t *testing.T) {
	var nilFlight *Flight
	if got := nilFlight.Summary(4); got != "none" {
		t.Errorf("nil Summary = %q, want none", got)
	}
	f := NewFlight(1, 8)
	if got := f.Summary(4); got != "none" {
		t.Errorf("empty Summary = %q, want none", got)
	}
	f.Record(0, "GET", OutcomeOK, 0, int64(1200*time.Microsecond), tracedSpan("abc"))
	f.Record(0, "SET", OutcomeErr, 0, int64(5*time.Microsecond), nil)
	f.Record(0, "DEL", OutcomeBad, 0, 1, nil)
	// n=2 keeps only the newest two.
	if got, want := f.Summary(2), "[SET err 5µs] [DEL bad 1ns]"; got != want {
		t.Errorf("Summary(2) = %q, want %q", got, want)
	}
	if got, want := f.Summary(10), "[GET ok 1.2ms abc] [SET err 5µs] [DEL bad 1ns]"; got != want {
		t.Errorf("Summary(10) = %q, want %q", got, want)
	}
}

func TestFlightRecordTraceTruncation(t *testing.T) {
	f := NewFlight(1, 1)
	long := strings.Repeat("z", MaxTraceIDLen+9)
	f.Record(0, "GET", OutcomeOK, 0, 0, tracedSpan(long))
	rec := f.Snapshot()[0]
	if got := rec.Trace(); got != long[:MaxTraceIDLen] {
		t.Errorf("Trace len = %d, want %d-byte truncation", len(got), MaxTraceIDLen)
	}
}

// TestFlightConcurrentRecordAndDump hammers Record from many goroutines
// while dumps run; meaningful under -race, and the seq assignment must
// never produce duplicates in a snapshot.
func TestFlightConcurrentRecordAndDump(t *testing.T) {
	f := NewFlight(4, 32)
	var writers, dumper sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				f.Record(uint64(g*31+i), "GET", OutcomeOK, uint64(i), int64(i), tracedSpan("ffffffffffffffff"))
			}
		}(g)
	}
	dumper.Add(1)
	go func() {
		defer dumper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			if _, err := f.WriteTo(&b); err != nil {
				t.Error(err)
				return
			}
			_ = f.Summary(8)
		}
	}()
	writers.Wait()
	close(stop)
	dumper.Wait()

	snap := f.Snapshot()
	seen := map[uint64]bool{}
	for _, rec := range snap {
		if seen[rec.Seq] {
			t.Fatalf("duplicate seq %d in snapshot", rec.Seq)
		}
		seen[rec.Seq] = true
	}
}

func TestAdminMuxFlightEndpoint(t *testing.T) {
	f := NewFlight(1, 8)
	f.Record(0, "GET", OutcomeOK, 7, int64(time.Millisecond), tracedSpan("t1"))
	mux := NewAdminMux(NewRegistry(), f)

	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight", nil))
	if rr.Code != 200 {
		t.Fatalf("/debug/flight status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rr.Body.String()
	if !strings.Contains(body, "verb=GET") || !strings.Contains(body, "trace=t1") {
		t.Errorf("/debug/flight body missing record:\n%s", body)
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/{$}", nil))
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/", nil))
	if !strings.Contains(rr.Body.String(), "/debug/flight") {
		t.Errorf("index missing /debug/flight:\n%s", rr.Body.String())
	}
}

func TestAdminMuxNilFlight(t *testing.T) {
	mux := NewAdminMux(NewRegistry(), nil)
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight", nil))
	if rr.Code != 200 {
		t.Fatalf("/debug/flight status = %d", rr.Code)
	}
	if got := rr.Body.String(); got != "flight recorder disabled\n" {
		t.Errorf("nil-flight body = %q, want disabled notice", got)
	}
}

// TestFlightUntimedRecordClearsStages: ring slots are reused in place,
// so an untimed record landing on a slot that held a timed one must not
// inherit its stage timings.
func TestFlightUntimedRecordClearsStages(t *testing.T) {
	f := NewFlight(1, 1)
	var sp Span
	sp.Arm()
	sp.stages[StageProbe] = 5
	f.Record(0, "GET", OutcomeOK, 1, 10, &sp)
	if got := f.Snapshot()[0].Stages[StageProbe]; got != 5 {
		t.Fatalf("timed record stage probe = %d, want 5", got)
	}
	sp.Disarm()
	f.Record(0, "GET", OutcomeOK, 2, 0, &sp)
	if got := f.Snapshot()[0].Stages; got != ([NumStages]int64{}) {
		t.Errorf("untimed record inherited stages %v", got)
	}
}

func BenchmarkFlightRecord(b *testing.B) {
	f := NewFlight(16, 64)
	b.Run("untimed", func(b *testing.B) {
		var sp Span
		sp.Disarm()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.Record(3, "GET", OutcomeOK, uint64(i), 0, &sp)
		}
	})
	b.Run("timed", func(b *testing.B) {
		var sp Span
		sp.Arm()
		sp.stages[StageProbe] = 100
		sp.stages[StageOther] = 50
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.Record(3, "GET", OutcomeOK, uint64(i), 150, &sp)
		}
	})
}
