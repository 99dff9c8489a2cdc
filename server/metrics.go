package server

import (
	"fmt"
	"math"

	"cuckoohash/generic"
	"cuckoohash/internal/obs"
	"cuckoohash/internal/txn"
)

// latencyExportBuckets bounds the exported request-latency histogram at
// 2^40 ns (~18 minutes); anything slower lands in the automatic +Inf
// bucket. The internal histogram keeps all 64 power-of-two buckets.
const latencyExportBuckets = 40

// Collect implements obs.Collector: it renders every counterTable entry,
// the outstanding-lease and per-shard gauges, the request-latency,
// path-length and transaction-retry histograms, and the cuckootrace
// families. Registered by cmd/cuckood on its admin endpoint; safe to call
// while the server is serving traffic, because every source it reads is
// a lock-free snapshot.
func (s *Server) Collect(m *obs.Metrics) {
	v := s.cache.counterView(s.cache.stats)
	for i := range counterTable {
		d := &counterTable[i]
		val := float64(d.read(v))
		if d.nsToSec {
			val /= 1e9
		}
		if d.kind == obs.KindGauge {
			m.Gauge(d.prom, d.help, val, d.label...)
		} else {
			m.Counter(d.prom, d.help, val, d.label...)
		}
	}
	// The lease table belongs to the Server, not the Cache, so this gauge
	// has no STATS line.
	m.Gauge("cuckood_lease_active", "Outstanding fill leases.", float64(s.leaseActive()))
	for i, sh := range s.cache.shards {
		m.Gauge("cuckood_shard_entries", "Stored entries per shard.",
			float64(sh.table.Len()), "shard", fmt.Sprint(i))
	}

	s.collectLatency(m)
	collectPathLength(m, &v.tab)
	collectTxnRetries(m, &v.tx)
	s.collectTrace(m)
}

// leaseActive is nil-safe for hand-built test servers.
func (s *Server) leaseActive() int64 {
	if s.leases == nil {
		return 0
	}
	return s.leases.Active()
}

// collectTrace exports the cuckootrace series (docs/OBSERVABILITY.md):
// the per-{stage,verb} latency attribution, the hot-key top-K, and the
// slow-request trace-ID exemplars.
func (s *Server) collectTrace(m *obs.Metrics) {
	st := s.cache.stats
	st.stages.Collect(m,
		"cuckood_stage_seconds",
		"Sampled request time attributed to pipeline stages, per verb.")
	for _, it := range st.HotKeys(10) {
		m.Gauge("cuckood_hot_key_count",
			"Sampled-request touches of the hottest keys (space-saving top-K; counts overestimate by at most the sketch error).",
			float64(it.Count), "key", it.Key)
	}
	st.slowTraces.Collect(m,
		"cuckood_slow_trace_seconds",
		"Duration of recent slow requests that carried a wire trace ID, as exemplars.")
}

// collectTxnRetries exports the per-commit OCC retry distribution
// (docs/TRANSACTIONS.md). RetryHist[i] counts commits that needed exactly
// i optimistic retries; the final bucket counts pessimistic fallbacks and
// maps to +Inf.
func collectTxnRetries(m *obs.Metrics, tx *txn.Stats) {
	n := len(tx.RetryHist)
	hb := make([]obs.HistBucket, 0, n-1)
	var cum, total uint64
	var sum float64
	for i, c := range tx.RetryHist {
		total += c
		sum += float64(uint64(i) * c)
		if i < n-1 {
			cum += c
			hb = append(hb, obs.HistBucket{UpperBound: float64(i), Count: cum})
		}
	}
	m.Histogram("cuckood_txn_retries",
		"Optimistic retries per committed EXEC (+Inf bucket = pessimistic fallback).",
		hb, total, sum)
}

// collectLatency exports the sampled request-service-time histogram. The
// internal buckets are powers of two in nanoseconds, so bucket i maps to
// le = 2^i / 1e9 seconds.
func (s *Server) collectLatency(m *obs.Metrics) {
	lat := s.cache.stats.lat.Snapshot()
	bk := lat.Buckets()
	hb := make([]obs.HistBucket, 0, latencyExportBuckets)
	var cum uint64
	for i := 0; i < latencyExportBuckets; i++ {
		cum += bk[i]
		hb = append(hb, obs.HistBucket{
			UpperBound: math.Ldexp(1, i) / 1e9,
			Count:      cum,
		})
	}
	m.Histogram("cuckood_request_duration_seconds",
		"Sampled request service time (excludes network I/O).",
		hb, lat.Count(), float64(lat.Sum())/1e9)
}

// collectPathLength exports the aggregated BFS path-length distribution,
// the signal the paper's evaluation inspects (Eq. 2). PathLenHist[i]
// counts paths of exactly i displacements; the last bucket absorbs longer
// paths, which the +Inf bucket represents.
func collectPathLength(m *obs.Metrics, tab *generic.Stats) {
	hb := make([]obs.HistBucket, 0, generic.PathLenBuckets-1)
	var cum, total uint64
	var sum float64
	for i, n := range tab.PathLenHist {
		total += n
		sum += float64(uint64(i) * n)
		if i < generic.PathLenBuckets-1 {
			cum += n
			hb = append(hb, obs.HistBucket{UpperBound: float64(i), Count: cum})
		}
	}
	m.Histogram("cuckoo_table_path_length",
		"Discovered cuckoo-path length in displacements (Eq. 2 bounds this near 5).",
		hb, total, sum)
}

// ExpvarSnapshot returns the STATS lines as a name→value map, suitable for
// obs.PublishExpvar so /debug/vars mirrors the wire-protocol STATS verb.
func (s *Server) ExpvarSnapshot() any {
	lines := s.cache.Snapshot(s.cache.stats)
	out := make(map[string]string, len(lines))
	for _, l := range lines {
		out[l.Name] = l.Value
	}
	return out
}
