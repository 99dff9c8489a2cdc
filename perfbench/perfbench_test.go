package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	"cuckoohash/client"
)

func TestSameSeedSameInputs(t *testing.T) {
	for name, spec := range wireSpecs {
		a := stream(7, 1, spec.mix, 1<<12)
		b := stream(7, 1, spec.mix, 1<<12)
		if !slices.Equal(a, b) {
			t.Errorf("%s: the same seed gave different op streams", name)
		}
		if c := stream(8, 1, spec.mix, 1<<12); slices.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", name)
		}
		if c := stream(7, 0, spec.mix, 1<<12); slices.Equal(a, c) {
			t.Errorf("%s: connections 0 and 1 got the same op stream", name)
		}
		pa, pb := setupPhases(7, spec, 1), setupPhases(7, spec, 1)
		for i := range pa {
			if !slices.Equal(pa[i], pb[i]) {
				t.Errorf("%s: the same seed gave different set-up phase %d", name, i)
			}
		}
	}
	ka, kb, kc := newKeys(7, 1<<10), newKeys(7, 1<<10), newKeys(8, 1<<10)
	if !slices.Equal(ka.names, kb.names) || !slices.Equal(ka.values, kb.values) {
		t.Error("the same seed gave different key sets")
	}
	if slices.Equal(ka.names, kc.names) {
		t.Error("seeds 7 and 8 gave the same key set")
	}
	seen := map[string]bool{}
	for _, n := range ka.names {
		if seen[n] {
			t.Fatalf("key %s named twice", n)
		}
		seen[n] = true
	}
}

func TestKeySpaceInverts(t *testing.T) {
	ks := newKeySpace(3)
	r := newRNG(1, 1)
	for i := 0; i < 10000; i++ {
		x := r.next()
		if got := unmix64(mix64(x)); got != x {
			t.Fatalf("unmix64(mix64(%#x)) = %#x", x, got)
		}
		if got := ks.index(ks.id(uint64(i))); got != uint64(i) {
			t.Fatalf("index(id(%d)) = %d", i, got)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	const n, draws = 1 << 18, 1 << 20
	ops := stream(1, 0, mix{keys: n, theta: 0.99}, draws)
	counts := map[uint32]int{}
	for _, o := range ops {
		if uint64(o.key) >= n {
			t.Fatalf("key %d outside the universe", o.key)
		}
		counts[o.key]++
	}
	// P(rank 0) = 1/zeta(n, θ), about 0.076 for these parameters.
	z := newZipf(n, 0.99)
	want := float64(draws) / z.zetan
	if got := float64(counts[0]); math.Abs(got-want) > 0.05*want {
		t.Errorf("rank 0 drawn %v times, want about %v", got, want)
	}
	if counts[0] <= counts[1] || counts[1] <= counts[100] {
		t.Errorf("counts not decreasing with rank: %d, %d, %d", counts[0], counts[1], counts[100])
	}
}

func TestQuantileExact(t *testing.T) {
	r := newRNG(5, 5)
	var s samples
	for i := 0; i < 1001; i++ {
		s.add(int64(r.intn(1e6)))
	}
	sorted := slices.Clone(s)
	slices.Sort(sorted)
	for _, q := range []float64{0.001, 0.5, 0.9, 0.99, 0.999, 1} {
		// Nearest rank: the smallest value with at least q of the samples
		// at or below it.
		var want int64
		for _, v := range sorted {
			below := 0
			for _, w := range sorted {
				if w <= v {
					below++
				}
			}
			if float64(below) >= q*float64(len(sorted)) {
				want = v
				break
			}
		}
		if got := s.quantile(q); got != want {
			t.Errorf("quantile(%v) = %d, want %d", q, got, want)
		}
	}
}

func TestDeepestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		s := make(samples, c.n)
		if got := s.deepest(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("deepest with %d samples = %v, want %v", c.n, got, c.want)
		}
		if beyond := float64(c.n) * (1 - s.deepest()); c.n >= 100 && beyond < 10-1e-9 {
			t.Errorf("%d samples: only %v beyond p%v", c.n, beyond, 100*s.deepest())
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// A batch [0,100) with two encodes [0,10) and [10,25) and a flush
	// [30,100): its self time is the 5 ns between the last encode and the
	// flush.
	spans := []span{
		{name: spanClientBatch, parent: -1, n: 2, op: 0, start: 0, end: 100},
		{name: spanClientEncode, parent: 0, n: 1, op: 0, start: 0, end: 10},
		{name: spanClientEncode, parent: 0, n: 1, op: 1, start: 10, end: 25},
		{name: spanClientFlush, parent: 0, n: 2, op: 0, start: 30, end: 100},
	}
	if got, want := selfTimes(spans), []int64{5, 10, 15, 70}; !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRungSelfNs(t *testing.T) {
	// Flushes cover ops 0-1 (70 ns) and ops 2-3 (90 ns) of connection 0;
	// the rung below took 10+20 and 5+15 ns for them. Self time per op is
	// ((70-30) + (90-20)) / 4.
	upper := []span{
		{name: spanClientFlush, conn: 0, n: 2, op: 0, start: 0, end: 70},
		{name: spanClientFlush, conn: 0, n: 2, op: 2, start: 100, end: 190},
		// Not replayed below: skipped.
		{name: spanClientFlush, conn: 1, n: 2, op: 0, start: 0, end: 1000},
	}
	lower := []span{
		{name: spanCacheGet, conn: 0, n: 1, op: 0, start: 0, end: 10},
		{name: spanCacheSet, conn: 0, n: 1, op: 1, start: 0, end: 20},
		{name: spanCacheGet, conn: 0, n: 1, op: 2, start: 0, end: 5},
		{name: spanCacheGet, conn: 0, n: 1, op: 3, start: 0, end: 15},
	}
	if got, want := rungSelfNs(upper, spanClientFlush, lower, spanCacheGet, spanCacheSet), (40.0+70)/4; got != want {
		t.Errorf("rungSelfNs = %v, want %v", got, want)
	}
	if got := meanDuration(lower, spanCacheGet); got != 10 {
		t.Errorf("meanDuration = %v, want 10", got)
	}
}

func TestCheckerRejectsCorruptValue(t *testing.T) {
	for _, k := range []*keys{newKeys(9, 1<<10), newKeys(9, 1<<22)} {
		name, val := k.kv(17)
		if err := k.verify(17, val); err != nil {
			t.Fatalf("the right value was rejected: %v", err)
		}
		corrupt := []byte(val)
		corrupt[len(corrupt)-1] ^= 1
		if err := k.verify(17, string(corrupt)); err == nil {
			t.Errorf("a corrupted value for %s was accepted", name)
		}
		if err := k.verify(18, val); err == nil {
			t.Errorf("key 17's value was accepted for key 18")
		}

		var tl tally
		tl.check(k, op{key: 17}, client.Reply{Found: true, Value: string(corrupt)})
		tl.check(k, op{key: 17}, client.Reply{Found: true, Value: val})
		tl.check(k, op{key: 17}, client.Reply{})
		tl.check(k, op{key: 17, set: true}, client.Reply{Err: &client.ServerError{Msg: "cache full"}})
		tl.check(k, op{key: 17, set: true}, client.Reply{Err: &client.ServerError{Msg: "bad command"}})
		if tl.wrong != 1 || tl.hits != 1 || tl.misses != 1 || tl.fullErrs != 1 || tl.otherErrs != 1 {
			t.Errorf("tally = %+v", tl)
		}
		if got := tl.failed(wireSpec{}); got != 4 {
			t.Errorf("failed on a hit workload = %d, want 4 (miss counts)", got)
		}
		if got := tl.failed(wireSpec{churn: true}); got != 3 {
			t.Errorf("failed on churn = %d, want 3 (miss does not count)", got)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	hist := []uint64{0, 90, 9, 1}
	for q, want := range map[float64]float64{0.5: 1, 0.9: 1, 0.95: 2, 0.99: 2, 1: 3} {
		if got := histQuantile(hist, q); got != want {
			t.Errorf("histQuantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestNormalize(t *testing.T) {
	// A run whose reference ran at half the nominal rate ran on a host
	// half as fast: its throughput doubles and its times halve.
	if got := normalize(100, 5, 10); got != 200 {
		t.Errorf("normalize = %v, want 200", got)
	}
	if got := normalizeTime(8, 5, 10); got != 4 {
		t.Errorf("normalizeTime = %v, want 4", got)
	}
}

func TestPartsQuietLatency(t *testing.T) {
	p := parts{
		lats:  []samples{{10e3, 20e3}, {90e3, 90e3}, {20e3, 40e3}, {30e3, 30e3}},
		quiet: []int{0, 2, 3},
	}
	// Part p50s over the quiet parts are 10, 20 and 30 µs.
	if got := p.latency(0.5); got != 20 {
		t.Errorf("p50 = %v us, want 20", got)
	}
}

func TestQuietParts(t *testing.T) {
	steal := []float64{0.1, 0, 0.2, 0, 0.05, 0, 0.3, 0.03, 0, 0.04}
	if got, want := quietParts(steal), []int{1, 3, 5, 7, 8}; !slices.Equal(got, want) {
		t.Errorf("quietParts = %v, want %v", got, want)
	}
	// Every part at or below quietSteal is quiet, even past half.
	steal = []float64{0.01, 0, 0.02, 0, 0.05, 0, 0.3, 0.01, 0, 0.02}
	if got, want := quietParts(steal), []int{0, 1, 2, 3, 5, 7, 8, 9}; !slices.Equal(got, want) {
		t.Errorf("quietParts = %v, want %v", got, want)
	}
	// Parts that tie the last quiet one are all kept.
	if got := quietParts(make([]float64, 10)); len(got) != 10 {
		t.Errorf("quietParts of equal steal = %v, want all 10", got)
	}
	p := parts{quiet: []int{1, 3}, rates: []float64{100, 2, 100, 4}}
	if got := p.quietMedian(p.rates); got != 3 {
		t.Errorf("median over quiet parts = %v, want 3", got)
	}
}

func TestSpeedOverQuietSamples(t *testing.T) {
	// The two stolen samples are left out of the median.
	rates := []float64{10, 4, 12, 11, 3, 9}
	steal := []float64{0, 0.25, 0, 0.01, 0.5, 0}
	if got := speed(rates, steal); got != 10.5 {
		t.Errorf("speed = %v, want 10.5, the median of 10, 12, 11 and 9", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which declares the
// metrics, and the tables this program prints from in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  []metric
		decl []struct{ Name, Unit string }
	}{{endToEnd, decl.EndToEnd}, {perLayer, decl.PerLayer}} {
		if len(c.got) != len(c.decl) {
			t.Fatalf("%d metrics printed, %d declared", len(c.got), len(c.decl))
		}
		for i, m := range c.got {
			if m.name != c.decl[i].Name || m.unit != c.decl[i].Unit {
				t.Errorf("metric %d: printed %s (%s), declared %s (%s)", i, m.name, m.unit, c.decl[i].Name, c.decl[i].Unit)
			}
		}
	}
	for _, w := range decl.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s is not implemented", w.Name)
		}
	}
}
