package main

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"cuckoohash/client"
)

// The wire workloads drive a separate cuckood process over loopback from
// wireConns closed-loop connections: each sends its next batch only after
// the previous one's replies are all in.

const wireConns = 2

// serverCapacity is cuckood's slot count at its defaults: 8 shards of
// 65,536 slots.
const serverCapacity = 8 << 16

type wireSpec struct {
	mix   mix
	depth int // pipeline depth: requests per batch
	// churn workloads start from a full cache and may miss; the others
	// hold every key they ask for, so a miss is a failure.
	churn bool
}

var wireSpecs = map[string]wireSpec{
	"wire-zipf-pipelined": {mix: mix{keys: 1 << 18, theta: 0.99, setFrac: 0.1}, depth: 16},
	"wire-uniform-d1":     {mix: mix{keys: 1 << 18, setFrac: 0.1}, depth: 1},
	"wire-churn-evict":    {mix: mix{keys: 1 << 22, setFrac: 0.5}, depth: 16, churn: true},
}

const (
	// churnPrefill is how many distinct keys the churn set-up stores
	// first: one per slot, more than the cache can hold, so it ends full
	// and evicting.
	churnPrefill = serverCapacity
	// churnWarmOps is the churn workload's ops per connection after the
	// prefill, until evictions per SET have levelled off.
	churnWarmOps = 1 << 13
	// tracedOps bounds the traced window's ops per connection, and with it
	// the spans held in memory.
	tracedOps = 1 << 17
)

// keys names one workload's key universe. Small universes are named once
// up front so the generator's own cost stays off the measured path.
type keys struct {
	ks     keySpace
	names  []string
	values []string
}

func newKeys(seed uint64, n uint64) *keys {
	k := &keys{ks: newKeySpace(seed)}
	if n <= 1<<18 {
		k.names = make([]string, n)
		k.values = make([]string, n)
		for i := range k.names {
			k.names[i] = k.ks.name(uint64(i))
			k.values[i] = valueFor(k.names[i])
		}
	}
	return k
}

func (k *keys) kv(i uint32) (string, string) {
	if k.names != nil {
		return k.names[i], k.values[i]
	}
	name := k.ks.name(uint64(i))
	return name, valueFor(name)
}

// round is one closed-loop round trip: a pipelined batch, or with depth
// 1 a single request.
type round struct {
	end, lat int64 // nanotime at the reply, and the round trip
	ops      int32
	set      bool // a depth-1 SET; batches count as GET rounds
}

// tally counts one connection's requests and checks every reply.
type tally struct {
	ops, gets, hits, misses, sets, setOK uint64
	fullErrs, otherErrs, wrong           uint64
	rounds                               []round
	spans                                []span
}

func (t *tally) add(o tally) {
	t.ops += o.ops
	t.gets += o.gets
	t.hits += o.hits
	t.misses += o.misses
	t.sets += o.sets
	t.setOK += o.setOK
	t.fullErrs += o.fullErrs
	t.otherErrs += o.otherErrs
	t.wrong += o.wrong
	t.rounds = append(t.rounds, o.rounds...)
	base := int32(len(t.spans))
	for _, sp := range o.spans {
		if sp.parent >= 0 {
			sp.parent += base
		}
		t.spans = append(t.spans, sp)
	}
}

// failed is the requests that failed: error replies, wrong values, and on
// workloads that hold every key, misses.
func (t *tally) failed(spec wireSpec) uint64 {
	n := t.fullErrs + t.otherErrs + t.wrong
	if !spec.churn {
		n += t.misses
	}
	return n
}

// isFull reports whether a SET error is the cache refusing the write.
func isFull(err error) bool {
	var se *client.ServerError
	return errors.As(err, &se) && strings.Contains(se.Msg, "full")
}

// verify is the correctness check for one GET hit: every key only ever
// holds the value derived from it.
func (k *keys) verify(i uint32, got string) error {
	name, want := k.kv(i)
	if got != want {
		return fmt.Errorf("key %s returned %q, want %q", name, got, want)
	}
	return nil
}

// check records the reply to request o.
func (t *tally) check(k *keys, o op, rep client.Reply) {
	switch {
	case o.set && rep.Err != nil && isFull(rep.Err):
		t.fullErrs++
	case rep.Err != nil:
		t.otherErrs++
	case o.set:
		t.setOK++
	case !rep.Found:
		t.misses++
	case k.verify(o.key, rep.Value) != nil:
		t.wrong++
	default:
		t.hits++
	}
}

// connStream is one connection's op stream and its position in it.
type connStream struct {
	ops []op
	pos int64 // stream index of the next op; wraps around len(ops)
}

func (s *connStream) at(i int64) op { return s.ops[i%int64(len(s.ops))] }

// closedLoop runs one connection until the deadline or until maxOps ops
// have been sent, whichever is first. With traced set it records a span
// around every call into the client.
func closedLoop(c *client.Conn, cs *connStream, conn uint8, k *keys, spec wireSpec, deadline time.Time, maxOps int64, traced bool) (tally, error) {
	var t tally
	start := cs.pos
	for cs.pos-start < maxOps && time.Now().Before(deadline) {
		first := cs.pos
		batch := int32(len(t.spans))
		t0 := nanotime()
		if traced {
			t.spans = append(t.spans, span{name: spanClientBatch, conn: conn, parent: -1, n: int32(spec.depth), op: first, start: t0})
		}
		for i := 0; i < spec.depth; i++ {
			o := cs.at(cs.pos)
			name, val := k.kv(o.key)
			e0 := nanotime()
			var err error
			if o.set {
				err = c.QueueSet(name, val, 0)
			} else {
				err = c.QueueGet(name)
			}
			if traced {
				t.spans = append(t.spans, span{name: spanClientEncode, conn: conn, parent: batch, n: 1, op: cs.pos, start: e0, end: nanotime()})
			}
			if err != nil {
				return t, fmt.Errorf("queue request: %w", err)
			}
			cs.pos++
		}
		f0 := nanotime()
		reps, err := c.Flush()
		t1 := nanotime()
		if err != nil {
			return t, fmt.Errorf("flush batch: %w", err)
		}
		if traced {
			t.spans[batch].end = t1
			t.spans = append(t.spans, span{name: spanClientFlush, conn: conn, parent: batch, n: int32(spec.depth), op: first, start: f0, end: t1})
		}
		for i, rep := range reps {
			o := cs.at(first + int64(i))
			t.check(k, o, rep)
			t.ops++
			if o.set {
				t.sets++
			} else {
				t.gets++
			}
		}
		t.rounds = append(t.rounds, round{end: t1, lat: t1 - t0, ops: int32(spec.depth), set: spec.depth == 1 && cs.at(first).set})
	}
	return t, nil
}

// window runs every connection's closed loop at once and returns the
// summed tally and the elapsed wall time.
func window(conns []*client.Conn, streams []*connStream, k *keys, spec wireSpec, d time.Duration, maxOps int64, traced bool) (tally, float64, error) {
	parts := make([]tally, len(conns))
	errs := make([]error, len(conns))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i], errs[i] = closedLoop(conns[i], streams[i], uint8(i), k, spec, deadline, maxOps, traced)
		}(i)
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	var sum tally
	for _, p := range parts {
		sum.add(p)
	}
	return sum, secs, errors.Join(errs...)
}

// setupPhases are the set-up's request streams for connection c: a fill
// with a SET of every key for the hit workloads, or of churnPrefill keys
// for churn, which churn follows with a warm-up of churnWarmOps of its own
// mix.
func setupPhases(seed uint64, spec wireSpec, c int) [][]op {
	var fill []op
	n := spec.mix.keys
	if spec.churn {
		n = churnPrefill
	}
	for i := uint64(c); i < n; i += wireConns {
		fill = append(fill, op{key: uint32(i), set: true})
	}
	if !spec.churn {
		return [][]op{fill}
	}
	return [][]op{fill, stream(seed+0x5eed, c, spec.mix, churnWarmOps)}
}

// wireSession is a daemon set up for a workload, with its connections.
type wireSession struct {
	d     *daemon
	conns []*client.Conn
	setup tally // the set-up's own requests, checked like any other
	// warmEvictions is evictions per SET over the last set-up phase, to
	// compare with the measured window's: equal once levelled off.
	warmEvictions float64
}

func (s *wireSession) close() {
	for _, c := range s.conns {
		c.Close()
	}
	s.d.stop()
}

// setUp starts a daemon, runs the set-up phases, and waits until the
// online grow has finished. It returns once the cache is steady.
func setUp(cfg config, spec wireSpec, k *keys) (*wireSession, error) {
	d, err := startDaemon(cfg.cuckood)
	if err != nil {
		return nil, err
	}
	s := &wireSession{d: d}
	if err := s.prepare(cfg, spec, k); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *wireSession) prepare(cfg config, spec wireSpec, k *keys) error {
	for i := 0; i < wireConns; i++ {
		c, err := client.Dial(s.d.addr)
		if err != nil {
			return fmt.Errorf("dial cuckood: %w", err)
		}
		s.conns = append(s.conns, c)
	}
	phases := make([][][]op, wireConns)
	for c := range phases {
		phases[c] = setupPhases(cfg.seed, spec, c)
	}
	pre := spec
	pre.depth = 16
	for p := range phases[0] {
		streams := make([]*connStream, wireConns)
		var total int64
		for c := range streams {
			streams[c] = &connStream{ops: phases[c][p]}
			total = max(total, int64(len(streams[c].ops)))
		}
		st0, err := s.d.stats()
		if err != nil {
			return err
		}
		t, _, err := window(s.conns, streams, k, pre, time.Hour, total, false)
		s.setup.add(t)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		st1, err := s.d.stats()
		if err != nil {
			return err
		}
		s.warmEvictions = ratio(uint64(st1["evictions"]-st0["evictions"]), t.sets)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		st, err := s.d.stats()
		if err != nil {
			return err
		}
		if st["grow_backlog_buckets"] == 0 && st["grow_in_progress"] == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("online grow did not finish within 30s of the set-up")
		}
	}
}

func runWire(cfg config) (*result, error) {
	spec := wireSpecs[cfg.workload]
	if cfg.cuckood == "" {
		return nil, errors.New("wire workloads need -cuckood")
	}
	res := newResult()
	k := newKeys(cfg.seed, spec.mix.keys)
	streams := make([]*connStream, wireConns)
	for i := range streams {
		streams[i] = &connStream{ops: stream(cfg.seed, i, spec.mix, streamLen)}
	}

	// Set up setupRepeats times; raw_setup_s is the median. Only the last
	// daemon is kept for the measurement.
	var sess *wireSession
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if sess != nil {
			sess.close()
		}
		t0 := time.Now()
		s, err := setUp(cfg, spec, k)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		sess = s
	}
	defer sess.close()
	d := sess.d
	res.e2e["raw_setup_s"] = median(setups)
	if n := sess.setup.otherErrs + sess.setup.wrong; n > 0 {
		res.fail("%d set-up requests failed", n)
	}
	if !spec.churn && sess.setup.fullErrs > 0 {
		res.fail("%d set-up SETs refused as full in a cache below capacity", sess.setup.fullErrs)
	}
	res.notes["setup_full_errors"] = float64(sess.setup.fullErrs)

	// Memory after warm-up: a full GC first, so the heap holds live data.
	if err := d.collectGarbage(); err != nil {
		return nil, err
	}
	m0, err := d.metrics()
	if err != nil {
		return nil, err
	}
	st0, err := d.stats()
	if err != nil {
		return nil, err
	}
	res.e2e["bytes_per_entry"] = m0["go_memstats_heap_alloc_bytes"] / st0["entries"]
	res.notes["entries"] = st0["entries"]
	res.notes["capacity"] = st0["capacity"]

	measure := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		measure /= 2
	}
	local, err := startLocalEcho()
	if err != nil {
		return nil, err
	}
	defer local.close()
	proc, err := startProcEcho()
	if err != nil {
		return nil, err
	}
	defer proc.close()
	cpu0 := selfCPU()
	t, pt, ends, err := measureParts(sess, streams, k, spec, measure, local, proc)
	cpu1 := selfCPU()
	if err != nil {
		return nil, err
	}
	p0, p1 := ends[0], ends[1]
	st1, err := d.stats()
	if err != nil {
		return nil, err
	}
	m1, err := d.metrics()
	if err != nil {
		return nil, err
	}

	ops := float64(t.ops)
	res.attempted = t.ops
	res.failed = t.failed(spec)
	res.e2e["throughput_ops_s"] = pt.quietMedian(pt.rates)
	res.e2e["latency_p50_us"] = pt.latency(0.50)
	res.e2e["latency_p90_us"] = pt.latency(0.90)
	res.e2e["latency_p99_us"] = pt.latency(0.99)
	res.e2e["server_cpu_us_per_op"] = pt.quietMedian(pt.cpu)
	// Steal stalls the throughput, which the process echo feels too; CPU
	// time per op, the median round trip and the set-up follow the CPU's
	// speed, which the local echo measures (see netRef).
	localSpeed, procSpeed := speed(pt.local, pt.localSteal), speed(pt.proc, pt.procSteal)
	res.e2e["norm_throughput_ops_s"] = normalize(res.e2e["throughput_ops_s"], procSpeed, procEchoNominal)
	res.e2e["norm_latency_p50_us"] = normalizeTime(res.e2e["latency_p50_us"], localSpeed, localEchoNominal)
	res.e2e["norm_server_cpu_us_per_op"] = normalizeTime(res.e2e["server_cpu_us_per_op"], localSpeed, localEchoNominal)
	res.e2e["setup_s"] = normalizeTime(res.e2e["raw_setup_s"], localSpeed, localEchoNominal)
	res.e2e["hit_ratio"] = float64(t.hits) / float64(t.gets)
	res.e2e["fail_ratio"] = float64(res.failed) / ops
	res.notes["host_ref_local_echo_msgs_s"] = localSpeed
	res.notes["host_ref_proc_echo_msgs_s"] = procSpeed
	res.notes["window_throughput_ops_s"] = ops / pt.secs
	res.notes["window_server_cpu_us_per_op"] = float64((p1.user+p1.sys)-(p0.user+p0.sys)) / 1e3 / ops
	res.parts = map[string][]float64{"throughput_ops_s": pt.rates, "steal_share": pt.steal, "server_cpu_us_per_op": pt.cpu, "host_ref_local_echo_msgs_s": pt.local, "host_ref_proc_echo_msgs_s": pt.proc}
	// Whole-window latencies, with their sample counts.
	var get, set samples
	for _, r := range t.rounds {
		if r.set {
			set.add(r.lat)
		} else {
			get.add(r.lat)
		}
	}
	if spec.depth > 1 {
		lat := get.report()
		res.lat["batch"] = lat
		res.e2e["batch_p50_us"], res.e2e["batch_p99_us"] = lat.P50us, lat.P99us
	} else {
		g, s := get.report(), set.report()
		res.lat["get"], res.lat["set"], res.lat["request"] = g, s, merge(get, set).report()
		res.e2e["get_p50_us"], res.e2e["get_p99_us"] = g.P50us, g.P99us
		res.e2e["set_p50_us"], res.e2e["set_p99_us"] = s.P50us, s.P99us
	}
	res.notes["full_errors"] = float64(t.fullErrs)
	res.notes["warmup_evictions_per_set"] = sess.warmEvictions
	res.notes["evictions_per_set"] = ratio(uint64(st1["evictions"]-st0["evictions"]), t.sets)

	// Checks.
	if t.otherErrs > 0 {
		res.fail("%d error replies other than a full cache", t.otherErrs)
	}
	if t.wrong > 0 {
		res.fail("%d GETs returned a wrong value", t.wrong)
	}
	if !spec.churn && t.misses > 0 {
		res.fail("%d GETs missed keys that were stored", t.misses)
	}
	if !spec.churn && t.fullErrs > 0 {
		res.fail("%d SETs refused as full in a cache below capacity", t.fullErrs)
	}
	mismatch := counterMismatch(st0, st1, t)
	if mismatch != 0 {
		res.fail("STATS counters disagree with the requests sent by %v", mismatch)
	}
	if spec.churn {
		want := st1["entries"] / float64(spec.mix.keys)
		if hr := res.e2e["hit_ratio"]; math.Abs(hr-want) > 0.25*want {
			res.fail("hit_ratio %.4f is not near entries/universe %.4f", hr, want)
		}
	}

	if cfg.trace {
		wireCounterLayers(res, t, st0, st1, m0, m1, p0, p1, cpu1-cpu0)
		res.layers["server.counter_mismatch"] = mismatch
		if err := traceLadder(cfg, spec, k, sess, streams, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// counterMismatch is how far the daemon's own gets, hits and sets counts
// moved differently from the requests the generator sent and saw answered.
func counterMismatch(st0, st1 counters, t tally) float64 {
	d := func(name string) float64 { return st1[name] - st0[name] }
	return math.Abs(d("gets")-float64(t.gets)) +
		math.Abs(d("hits")-float64(t.hits)) +
		math.Abs(d("sets")-float64(t.setOK))
}

// wireCounterLayers derives the per-layer metrics that come from counter
// deltas over the untraced window.
func wireCounterLayers(res *result, t tally, st0, st1, m0, m1 counters, p0, p1 procSample, genCPU time.Duration) {
	ops := float64(t.ops)
	d := func(s0, s1 counters, name string) float64 { return s1[name] - s0[name] }
	res.layers["server.cpu_user_us_per_op"] = float64(p1.user-p0.user) / 1e3 / ops
	res.layers["server.cpu_sys_us_per_op"] = float64(p1.sys-p0.sys) / 1e3 / ops
	res.layers["server.evictions_per_set"] = d(st0, st1, "evictions") / float64(t.sets)
	res.layers["server.full_errors_per_kset"] = 1000 * float64(t.fullErrs) / float64(t.sets)
	searches := d(st0, st1, "table_searches")
	res.layers["generic.searches_per_set"] = searches / float64(t.sets)
	if searches > 0 {
		res.layers["generic.displacements_per_search"] = d(st0, st1, "table_displacements") / searches
	}
	res.layers["generic.path_restarts"] = d(st0, st1, "table_path_restarts")
	res.layers["generic.grows_in_window"] = d(st0, st1, "table_grows")
	if acq := d(st0, st1, "lock_acquisitions"); acq > 0 {
		res.layers["spinlock.contended_ratio"] = d(st0, st1, "lock_contended") / acq
	}
	res.layers["runtime.allocs_per_op"] = d(m0, m1, "go_memstats_mallocs_total") / ops
	res.layers["runtime.gc_cycles"] = d(m0, m1, "go_gc_cycles_total")
	res.layers["runtime.gc_pause_ms"] = 1e3 * d(m0, m1, "go_gc_pause_seconds_total")
	res.layers["runtime.heap_bytes_per_entry"] = res.e2e["bytes_per_entry"]
	res.layers["kernel.read_syscalls_per_op"] = (p1.syscr - p0.syscr) / ops
	res.layers["kernel.write_syscalls_per_op"] = (p1.syscw - p0.syscw) / ops
	res.layers["loadgen.cpu_us_per_op"] = float64(genCPU) / 1e3 / ops
	res.notes["untraced_throughput_ops_s"] = res.e2e["throughput_ops_s"]
}
