package main

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"cuckoohash/generic"
	"cuckoohash/server"
)

// The traced run replays a wire workload's op stream down a ladder of
// public boundaries: client.Conn over loopback to cuckood, then the same
// ops in-process on a server.Cache, then on a generic.Table. Each rung
// is prefilled identically and records a span around every call, so the
// difference between adjacent rungs for the same ops is the upper
// layer's own time.

// rung is one in-process layer of the ladder.
type rung interface {
	get(key []byte) (string, bool)
	set(key, val string) error
	getSpan() spanName
	setSpan() spanName
}

type cacheRung struct{ c *server.Cache }

func (r cacheRung) get(key []byte) (string, bool) { return r.c.GetBytesTraced(key, nil) }
func (r cacheRung) set(key, val string) error     { return r.c.Set(key, val, 0) }
func (cacheRung) getSpan() spanName               { return spanCacheGet }
func (cacheRung) setSpan() spanName               { return spanCacheSet }

type genericRung struct {
	t *generic.Table[string, string]
}

func (r genericRung) get(key []byte) (string, bool) { return generic.GetBytes(r.t, key) }
func (r genericRung) set(key, val string) error     { return r.t.Upsert(key, val) }
func (genericRung) getSpan() spanName               { return spanGenericGet }
func (genericRung) setSpan() spanName               { return spanGenericUpsert }

// replay runs ops [from[i], to[i]) of each connection's stream on the
// rung, one goroutine per connection. With traced set it records a span
// around every call; the key is converted to bytes before the span, as
// the daemon's own GET path receives bytes.
func replay(r rung, k *keys, ops func(c int) *connStream, from, to []int64, traced bool) tally {
	parts := make([]tally, len(from))
	var wg sync.WaitGroup
	for c := range from {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &parts[c]
			cs := ops(c)
			for i := from[c]; i < to[c]; i++ {
				o := cs.at(i)
				name, val := k.kv(o.key)
				s := span{conn: uint8(c), parent: -1, n: 1, op: i}
				if o.set {
					s.name, s.start = r.setSpan(), nanotime()
					err := r.set(name, val)
					s.end = nanotime()
					t.sets++
					switch {
					case err == nil:
						t.setOK++
					case errors.Is(err, server.ErrServerFull), errors.Is(err, generic.ErrFull):
						t.fullErrs++
					default:
						t.otherErrs++
					}
				} else {
					key := []byte(name)
					s.name, s.start = r.getSpan(), nanotime()
					got, ok := r.get(key)
					s.end = nanotime()
					t.gets++
					switch {
					case !ok:
						t.misses++
					case k.verify(o.key, got) != nil:
						t.wrong++
					default:
						t.hits++
					}
				}
				t.ops++
				if traced {
					t.spans = append(t.spans, s)
				}
			}
		}(c)
	}
	wg.Wait()
	var sum tally
	for _, p := range parts {
		sum.add(p)
	}
	return sum
}

// prefillRung applies the wire set-up's request streams to an in-process
// rung, so it holds what the daemon held when measuring began.
func prefillRung(r rung, cfg config, spec wireSpec, k *keys) {
	phases := make([][][]op, wireConns)
	for c := range phases {
		phases[c] = setupPhases(cfg.seed, spec, c)
	}
	for p := range phases[0] {
		pre := make([]*connStream, wireConns)
		from, to := make([]int64, wireConns), make([]int64, wireConns)
		for c := range pre {
			pre[c] = &connStream{ops: phases[c][p]}
			to[c] = int64(len(pre[c].ops))
		}
		replay(r, k, func(c int) *connStream { return pre[c] }, from, to, false)
	}
}

func traceLadder(cfg config, spec wireSpec, k *keys, sess *wireSession, streams []*connStream, res *result) error {
	// Rung 3: client.Conn over loopback, spans around every call.
	from := make([]int64, wireConns)
	to := make([]int64, wireConns)
	for i, s := range streams {
		from[i] = s.pos
	}
	measure := time.Duration(cfg.seconds) * time.Second / 2
	wt, secs, err := window(sess.conns, streams, k, spec, measure, tracedOps, true)
	if err != nil {
		return fmt.Errorf("traced window: %w", err)
	}
	for i, s := range streams {
		to[i] = s.pos
	}
	if n := wt.failed(spec); n > 0 && !spec.churn {
		res.fail("%d requests failed in the traced window", n)
	}
	res.layers["trace.overhead_ops_s"] = float64(wt.ops)/secs - res.notes["window_throughput_ops_s"]
	res.layers["client.encode_ns_per_op"] = meanDuration(wt.spans, spanClientEncode)
	res.layers["client.flush_us_per_batch"] = meanDuration(wt.spans, spanClientFlush) / 1e3
	// The batch span's self time is the generator's own work between its
	// encode and flush calls.
	var batchSelf, batches int64
	for i, self := range selfTimes(wt.spans) {
		if wt.spans[i].name == spanClientBatch {
			batchSelf += self
			batches++
		}
	}
	res.notes["client_batch_self_ns"] = ratio(uint64(batchSelf), uint64(batches))

	// Rung 2: server.Cache in-process, at the daemon's defaults.
	cache, err := server.NewCache(8, serverCapacity/8)
	if err != nil {
		return err
	}
	cr := cacheRung{cache}
	prefillRung(cr, cfg, spec, k)
	if err := waitCacheGrow(cache); err != nil {
		return err
	}
	ct := replay(cr, k, func(c int) *connStream { return streams[c] }, from, to, true)

	// Rung 1: one generic.Table of the daemon's total capacity.
	gtab, err := generic.New[string, string](generic.Config{InitialCapacity: serverCapacity, MaxCapacity: serverCapacity})
	if err != nil {
		return err
	}
	gr := genericRung{gtab}
	prefillRung(gr, cfg, spec, k)
	gt := replay(gr, k, func(c int) *connStream { return streams[c] }, from, to, true)
	for _, t := range []tally{ct, gt} {
		if t.otherErrs+t.wrong > 0 || (!spec.churn && t.failed(spec) > 0) {
			res.fail("in-process replay: %d errors, %d wrong values, %d misses", t.otherErrs, t.wrong, t.misses)
		}
	}

	res.layers["server.cache_get_ns"] = meanDuration(ct.spans, spanCacheGet)
	res.layers["server.cache_set_ns"] = meanDuration(ct.spans, spanCacheSet)
	res.layers["server.wire_self_ns_per_op"] = rungSelfNs(wt.spans, spanClientFlush, ct.spans, spanCacheGet, spanCacheSet)
	res.layers["generic.get_ns"] = meanDuration(gt.spans, spanGenericGet)
	res.layers["generic.upsert_ns"] = meanDuration(gt.spans, spanGenericUpsert)
	res.notes["traced_ops"] = float64(wt.ops)
	res.notes["cache_self_get_ns"] = rungSelfNs(ct.spans, spanCacheGet, gt.spans, spanGenericGet)
	res.notes["cache_self_set_ns"] = rungSelfNs(ct.spans, spanCacheSet, gt.spans, spanGenericUpsert)
	res.notes["replay_cache_full_errors"] = float64(ct.fullErrs)
	res.notes["replay_generic_full_errors"] = float64(gt.fullErrs)

	all := append(append(wt.spans, ct.spans...), gt.spans...)
	return writeSpans(cfg.out, cfg.workload, all)
}

// waitCacheGrow waits until no shard of an in-process cache is migrating.
func waitCacheGrow(c *server.Cache) error {
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		steady := true
		for _, st := range c.Snapshot(c.Stats()) {
			if st.Name == "grow_backlog_buckets" || st.Name == "grow_in_progress" {
				if n, _ := strconv.ParseUint(st.Value, 10, 64); n != 0 {
					steady = false
				}
			}
		}
		if steady {
			return nil
		}
	}
	return errors.New("in-process cache grow did not finish within 30s")
}
