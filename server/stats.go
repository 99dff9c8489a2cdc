package server

import (
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"

	"cuckoohash/generic"
	"cuckoohash/internal/metrics"
	"cuckoohash/internal/obs"
	"cuckoohash/internal/spinlock"
	"cuckoohash/internal/txn"
)

// latencySampleMask samples one request latency out of every 16 per
// connection: enough resolution for STATS quantiles without putting two
// clock reads on every request's fast path.
const latencySampleMask = 0xf

// latencyShards sizes the sharded latency histogram. Each connection
// records into its own shard (assigned round-robin at accept time), so
// sampled requests on different connections never touch a shared cache
// line — previously every 16th request across *all* connections serialized
// on one global mutex.
const latencyShards = 64

// stats aggregates the daemon's counters. Operation counters are kept
// per shard (metrics.OpCounter gives each shard a padded slot), so two
// connections hammering different shards never bounce a statistics cache
// line between cores — the service-layer form of the paper's principle
// P1, "never share a counter between threads".
type stats struct {
	gets      *metrics.OpCounter
	hits      *metrics.OpCounter
	misses    *metrics.OpCounter
	sets      *metrics.OpCounter
	dels      *metrics.OpCounter
	incrs     *metrics.OpCounter // INCR/DECR/ADD/MAXUPDATE applied
	cass      *metrics.OpCounter // CAS attempts (conflicts counted by txn)
	expired   *metrics.OpCounter
	evictions *metrics.OpCounter

	connsActive atomic.Int64
	connsTotal  atomic.Uint64

	slowOps atomic.Uint64             // requests over the slow-op threshold
	sweeps  atomic.Uint64             // completed TTL sweep passes
	lat     *metrics.ShardedHistogram // sampled request latencies (ns)

	// cuckootrace state (docs/OBSERVABILITY.md): per-{verb,stage} latency
	// attribution from sampled spans, the hot-key top-K sketches (one per
	// connection-shard group so the sampled path stays uncontended), and
	// exemplar trace IDs from recent slow requests.
	stages     *obs.StageTable
	hot        [hotSketches]*obs.TopK
	slowTraces *obs.SlowTraces

	// Robustness counters (docs/ROBUSTNESS.md): how often each overload
	// and fault-recovery mechanism engaged.
	acceptRetries atomic.Uint64 // temporary accept errors retried with backoff
	connsShed     atomic.Uint64 // connections refused at accept (MaxConns)
	busyRejected  atomic.Uint64 // requests fast-failed with ERR busy (MaxInflight)
	idleClosed    atomic.Uint64 // connections closed by the idle timeout
	ioTimeouts    atomic.Uint64 // connections closed by a write deadline
	snapSaves     atomic.Uint64 // snapshots written on drain
	snapLoads     atomic.Uint64 // snapshots restored at startup
	snapSaveNs    atomic.Uint64 // duration of the last snapshot save
	snapLoadNs    atomic.Uint64 // duration of the last snapshot load

	// Cluster counters (docs/CLUSTER.md): two-choice migration traffic
	// through the MIGRATE/HANDOFF verbs.
	migratedIn     atomic.Uint64 // keys applied from inbound handoffs
	migratedOut    atomic.Uint64 // keys moved to a peer and removed here
	handoffs       atomic.Uint64 // inbound bulk transfers applied
	handoffRejects atomic.Uint64 // inbound transfers rejected (bad payload)
	migrateFails   atomic.Uint64 // outbound transfers that failed

	// Replication counters (docs/REPLICATION.md): the two-choice mirror
	// stream, outbound (enqueue → batch send / catch-up) and inbound
	// (REPLSET/REPLDEL application).
	replEnqueued  atomic.Uint64 // mutations enqueued onto peer mirror logs
	replMirrored  atomic.Uint64 // entries acknowledged by a peer
	replBatches   atomic.Uint64 // pipelined mirror batches sent
	replSendFails atomic.Uint64 // mirror sends/dials that failed
	replCatchups  atomic.Uint64 // bulk catch-up handoffs completed
	replApplied   atomic.Uint64 // inbound replica writes applied
	replStale     atomic.Uint64 // inbound replica writes dropped as stale
	replLagNs     atomic.Uint64 // age of the oldest queued mutation at last drain

	// Lease counters: the miss-lease anti-herd protocol (LEASE/SETL).
	leaseGrants      atomic.Uint64 // fill tokens granted
	leaseWaits       atomic.Uint64 // clients told to wait for a fill in flight
	leaseStaleServes atomic.Uint64 // expired copies served while a fill runs
	leaseFills       atomic.Uint64 // SETL fills accepted
	leaseRejects     atomic.Uint64 // SETL fills rejected (token stale/invalid)
}

// hotSketches is how many independent top-K sketches traffic spreads
// across (indexed by connection shard); HOTKEYS folds them on read.
// Power of two so the index is a mask.
const hotSketches = 8

// hotSketchK is each sketch's tracked-key budget. 48 per sketch leaves
// plenty of slack over the 10-key answer HOTKEYS defaults to, which is
// what keeps space-saving's error bound far below the head of a zipf
// distribution.
const hotSketchK = 48

// stageVerbs are the stage-latency table's verb labels: the distinct
// verbs[].stage values in table order, then "other" for verbs without
// one and for bad lines. verbStage maps each opCode to its label's index.
var stageVerbs, verbStage = stageLabels()

func stageLabels() (labels []string, class [len(verbs)]uint8) {
	for _, v := range verbs {
		if v.stage != "" && !slices.Contains(labels, v.stage) {
			labels = append(labels, v.stage)
		}
	}
	labels = append(labels, "other")
	for op, v := range verbs {
		i := slices.Index(labels, v.stage)
		if i < 0 {
			i = len(labels) - 1
		}
		class[op] = uint8(i)
	}
	return labels, class
}

// stage returns the op's index into stageVerbs.
func (o opCode) stage() int {
	if int(o) < len(verbStage) {
		return int(verbStage[o])
	}
	return len(stageVerbs) - 1
}

func newStats(shards int) *stats {
	st := &stats{
		gets:       metrics.NewOpCounter(shards),
		hits:       metrics.NewOpCounter(shards),
		misses:     metrics.NewOpCounter(shards),
		sets:       metrics.NewOpCounter(shards),
		dels:       metrics.NewOpCounter(shards),
		incrs:      metrics.NewOpCounter(shards),
		cass:       metrics.NewOpCounter(shards),
		expired:    metrics.NewOpCounter(shards),
		evictions:  metrics.NewOpCounter(shards),
		lat:        metrics.NewShardedHistogram(latencyShards),
		stages:     obs.NewStageTable(stageVerbs, 4),
		slowTraces: &obs.SlowTraces{},
	}
	for i := range st.hot {
		st.hot[i] = obs.NewTopK(hotSketchK)
	}
	return st
}

// touchHot counts one sampled request against the hot-key sketches.
func (st *stats) touchHot(shard uint64, key []byte) {
	st.hot[shard&(hotSketches-1)].Touch(key)
}

// HotKeys folds the per-shard sketches and returns the top n.
func (st *stats) HotKeys(n int) []obs.TopKItem {
	items := obs.MergeTopK(st.hot[:])
	if len(items) > n {
		items = items[:n]
	}
	return items
}

// recordLatency merges one sampled request latency into the connection's
// histogram shard, lock-free.
func (st *stats) recordLatency(shard uint64, ns uint64) {
	st.lat.Record(shard, ns)
}

// Hits returns the cumulative GET hit count.
func (st *stats) Hits() uint64 { return st.hits.Total() }

// Misses returns the cumulative GET miss count.
func (st *stats) Misses() uint64 { return st.misses.Total() }

// Evictions returns the number of entries evicted to make room.
func (st *stats) Evictions() uint64 { return st.evictions.Total() }

// Expired returns the number of entries removed because their TTL passed.
func (st *stats) Expired() uint64 { return st.expired.Total() }

// Stat is one name/value line of the STATS response.
type Stat struct {
	Name  string
	Value string
}

// tableTotals aggregates the per-shard cuckoo tables' internal probe
// counters and stripe-lock statistics. MaxPathLen takes the max across
// shards; everything else sums.
func (c *Cache) tableTotals() (generic.Stats, spinlock.StripeStats) {
	var tab generic.Stats
	var lock spinlock.StripeStats
	for _, s := range c.shards {
		ts := s.table.Stats()
		tab.Searches += ts.Searches
		tab.Displacements += ts.Displacements
		tab.PathRestarts += ts.PathRestarts
		tab.Grows += ts.Grows
		tab.MigratedBuckets += ts.MigratedBuckets
		tab.MigrationBacklog += ts.MigrationBacklog
		if ts.MaxPathLen > tab.MaxPathLen {
			tab.MaxPathLen = ts.MaxPathLen
		}
		for i, n := range ts.PathLenHist {
			tab.PathLenHist[i] += n
		}
		ls := s.table.LockStats()
		lock.Acquisitions += ls.Acquisitions
		lock.Contended += ls.Contended
		lock.Yields += ls.Yields
	}
	return tab, lock
}

// replLogTotals aggregates the peer mirror logs: buffered depth and
// entries dropped to overflow. Both are zero when replication is off.
func (c *Cache) replLogTotals() (depth int, dropped uint64) {
	r := c.repl
	if r == nil {
		return 0, 0
	}
	for _, p := range r.peers {
		if p == nil {
			continue
		}
		s := p.log.Stats()
		depth += s.Depth
		dropped += s.Dropped
	}
	return depth, dropped
}

// growingShards counts shards with an incremental resize in flight.
func (c *Cache) growingShards() int {
	n := 0
	for _, s := range c.shards {
		if s.table.Growing() {
			n++
		}
	}
	return n
}

// counterView is one render's aggregated counter sources: the per-shard
// tables, the transaction store and the mirror logs are each snapshotted
// once, so every counterTable entry reads a cheap field.
type counterView struct {
	c           *Cache
	st          *stats
	tab         generic.Stats
	lock        spinlock.StripeStats
	tx          txn.Stats
	replDepth   int
	replDropped uint64
}

func (c *Cache) counterView(st *stats) *counterView {
	v := &counterView{c: c, st: st, tx: c.txn.StatsSnapshot()}
	v.tab, v.lock = c.tableTotals()
	v.replDepth, v.replDropped = c.replLogTotals()
	return v
}

// counterDef declares one scalar counter or gauge, rendered both as a
// STATS line and as a Prometheus sample.
type counterDef struct {
	stat  string // STATS name
	prom  string // Prometheus family name
	help  string
	kind  obs.Kind // obs.KindCounter or obs.KindGauge
	label []string // optional label pair within a shared family
	// nsToSec: STATS reports nanoseconds, Prometheus seconds.
	nsToSec bool
	read    func(*counterView) uint64
}

func counter(stat, prom, help string, read func(*counterView) uint64) counterDef {
	return counterDef{stat: stat, prom: prom, help: help, kind: obs.KindCounter, read: read}
}

func gauge(stat, prom, help string, read func(*counterView) uint64) counterDef {
	return counterDef{stat: stat, prom: prom, help: help, kind: obs.KindGauge, read: read}
}

func (d counterDef) labeled(k, v string) counterDef {
	d.label = []string{k, v}
	return d
}

func (d counterDef) seconds() counterDef {
	d.nsToSec = true
	return d
}

// counterTable is the single declaration of the daemon's scalar
// counters, in STATS order: Cache.Snapshot and Server.Collect both
// render from it, so the two surfaces cannot drift apart. Adding a
// counter means adding one entry here.
var counterTable = []counterDef{
	gauge("entries", "cuckood_entries", "Stored entries across all shards.", func(v *counterView) uint64 { return v.c.Len() }),
	gauge("capacity", "cuckood_capacity_slots", "Total slot capacity across all shards.", func(v *counterView) uint64 { return v.c.Cap() }),
	counter("gets", "cuckood_gets_total", "GET requests served.", func(v *counterView) uint64 { return v.st.gets.Total() }),
	counter("hits", "cuckood_hits_total", "GET requests that found a live entry.", func(v *counterView) uint64 { return v.st.hits.Total() }),
	counter("misses", "cuckood_misses_total", "GET requests that missed.", func(v *counterView) uint64 { return v.st.misses.Total() }),
	counter("sets", "cuckood_sets_total", "SET/SETEX requests stored.", func(v *counterView) uint64 { return v.st.sets.Total() }),
	counter("dels", "cuckood_dels_total", "DEL requests served.", func(v *counterView) uint64 { return v.st.dels.Total() }),
	counter("incrs", "cuckood_incrs_total", "INCR/DECR/ADD/MAXUPDATE updates applied.", func(v *counterView) uint64 { return v.st.incrs.Total() }),
	counter("cas_ops", "cuckood_cas_total", "CAS requests attempted (conflicts are counted by cuckood_txn_cas_conflicts_total).", func(v *counterView) uint64 { return v.st.cass.Total() }),
	counter("expired", "cuckood_expired_total", "Entries removed because their TTL passed.", func(v *counterView) uint64 { return v.st.expired.Total() }),
	counter("evictions", "cuckood_evictions_total", "Entries evicted to make room on a full shard.", func(v *counterView) uint64 { return v.st.evictions.Total() }),
	gauge("conns_active", "cuckood_connections_active", "Currently open client connections.", func(v *counterView) uint64 { return uint64(v.st.connsActive.Load()) }),
	counter("conns_total", "cuckood_connections_total", "Client connections accepted since start.", func(v *counterView) uint64 { return v.st.connsTotal.Load() }),
	counter("slow_ops", "cuckood_slow_requests_total", "Requests at or over the slow-op threshold.", func(v *counterView) uint64 { return v.st.slowOps.Load() }),
	counter("sweeps", "cuckood_ttl_sweeps_total", "Completed TTL sweeper passes.", func(v *counterView) uint64 { return v.st.sweeps.Load() }),
	counter("accept_retries", "cuckood_accept_retries_total", "Temporary accept errors retried with backoff.", func(v *counterView) uint64 { return v.st.acceptRetries.Load() }),
	counter("conns_shed", "cuckood_connections_shed_total", "Connections refused at accept because of -max-conns.", func(v *counterView) uint64 { return v.st.connsShed.Load() }),
	counter("busy_rejected", "cuckood_busy_rejections_total", "Requests fast-failed with ERR busy because of -max-inflight.", func(v *counterView) uint64 { return v.st.busyRejected.Load() }),
	counter("idle_closed", "cuckood_idle_closes_total", "Connections closed by the idle timeout.", func(v *counterView) uint64 { return v.st.idleClosed.Load() }),
	counter("io_timeouts", "cuckood_io_timeouts_total", "Connections closed because a response flush timed out.", func(v *counterView) uint64 { return v.st.ioTimeouts.Load() }),
	counter("snapshot_saves", "cuckood_snapshot_saves_total", "Cache snapshots written on drain.", func(v *counterView) uint64 { return v.st.snapSaves.Load() }),
	counter("snapshot_loads", "cuckood_snapshot_loads_total", "Cache snapshots restored at startup.", func(v *counterView) uint64 { return v.st.snapLoads.Load() }),
	gauge("snapshot_last_save_ns", "cuckood_snapshot_last_save_seconds", "Duration of the most recent snapshot save.", func(v *counterView) uint64 { return v.st.snapSaveNs.Load() }).seconds(),
	gauge("snapshot_last_load_ns", "cuckood_snapshot_last_load_seconds", "Duration of the most recent snapshot load.", func(v *counterView) uint64 { return v.st.snapLoadNs.Load() }).seconds(),
	counter("cluster_migrated_in", "cuckood_cluster_migrated_keys_total", "Keys moved between nodes by MIGRATE/HANDOFF, by direction.", func(v *counterView) uint64 { return v.st.migratedIn.Load() }).labeled("direction", "in"),
	counter("cluster_migrated_out", "cuckood_cluster_migrated_keys_total", "Keys moved between nodes by MIGRATE/HANDOFF, by direction.", func(v *counterView) uint64 { return v.st.migratedOut.Load() }).labeled("direction", "out"),
	counter("cluster_handoffs", "cuckood_cluster_handoffs_total", "Inbound bulk key transfers applied.", func(v *counterView) uint64 { return v.st.handoffs.Load() }),
	counter("cluster_handoff_rejects", "cuckood_cluster_handoff_rejects_total", "Inbound bulk key transfers rejected as invalid.", func(v *counterView) uint64 { return v.st.handoffRejects.Load() }),
	counter("cluster_migrate_failures", "cuckood_cluster_migrate_failures_total", "Outbound migrations that failed before any key was removed.", func(v *counterView) uint64 { return v.st.migrateFails.Load() }),
	counter("repl_enqueued", "cuckood_repl_enqueued_total", "Writes enqueued for mirroring to the alternate node.", func(v *counterView) uint64 { return v.st.replEnqueued.Load() }),
	counter("repl_mirrored", "cuckood_repl_mirrored_total", "Mirror log entries delivered to the alternate node.", func(v *counterView) uint64 { return v.st.replMirrored.Load() }),
	counter("repl_batches", "cuckood_repl_batches_total", "Mirror batches flushed to the alternate node.", func(v *counterView) uint64 { return v.st.replBatches.Load() }),
	counter("repl_send_failures", "cuckood_repl_send_failures_total", "Mirror sends that failed and latched a bulk catch-up.", func(v *counterView) uint64 { return v.st.replSendFails.Load() }),
	counter("repl_catchups", "cuckood_repl_catchups_total", "Snapshot-format bulk catch-ups shipped after overflow or send failure.", func(v *counterView) uint64 { return v.st.replCatchups.Load() }),
	counter("repl_applied", "cuckood_repl_applied_total", "Inbound replicated writes applied, by result.", func(v *counterView) uint64 { return v.st.replApplied.Load() }).labeled("result", "applied"),
	counter("repl_stale_rejected", "cuckood_repl_applied_total", "Inbound replicated writes applied, by result.", func(v *counterView) uint64 { return v.st.replStale.Load() }).labeled("result", "stale_dropped"),
	counter("repl_dropped", "cuckood_repl_dropped_total", "Mirror log entries overwritten by drop-oldest overflow (repaired by catch-up).", func(v *counterView) uint64 { return v.replDropped }),
	gauge("repl_queue_depth", "cuckood_repl_queue_depth", "Mutations buffered in the mirror logs awaiting delivery.", func(v *counterView) uint64 { return uint64(v.replDepth) }),
	gauge("repl_lag_ns", "cuckood_repl_lag_seconds", "Age of the oldest undelivered mirror entry at the last flush (0 when drained).", func(v *counterView) uint64 { return v.st.replLagNs.Load() }).seconds(),
	counter("lease_grants", "cuckood_lease_grants_total", "Fill leases granted to the first client missing a key.", func(v *counterView) uint64 { return v.st.leaseGrants.Load() }),
	counter("lease_waits", "cuckood_lease_waits_total", "LEASE requests told to wait for an in-flight fill.", func(v *counterView) uint64 { return v.st.leaseWaits.Load() }),
	counter("lease_stale_serves", "cuckood_lease_stale_serves_total", "LEASE requests served an expired copy while a fill was in flight.", func(v *counterView) uint64 { return v.st.leaseStaleServes.Load() }),
	counter("lease_fills", "cuckood_lease_fills_total", "SETL fills accepted from lease winners.", func(v *counterView) uint64 { return v.st.leaseFills.Load() }),
	counter("lease_rejects", "cuckood_lease_rejects_total", "SETL fills rejected because the lease was invalidated or expired.", func(v *counterView) uint64 { return v.st.leaseRejects.Load() }),
	counter("txn_commits", "cuckood_txn_commits_total", "EXEC transactions committed (optimistic or pessimistic).", func(v *counterView) uint64 { return v.tx.Commits }),
	counter("txn_aborts", "cuckood_txn_aborts_total", "Optimistic EXEC attempts aborted by stripe-version validation.", func(v *counterView) uint64 { return v.tx.Aborts }),
	counter("txn_epoch_aborts", "cuckood_txn_epoch_aborts_total", "Optimistic EXEC attempts aborted because a shard's migration epoch moved under a read-set entry.", func(v *counterView) uint64 { return v.tx.EpochAborts }),
	counter("txn_fallbacks", "cuckood_txn_fallbacks_total", "EXEC transactions that exhausted optimistic retries and committed via the stripe-ordered pessimistic path.", func(v *counterView) uint64 { return v.tx.Fallbacks }),
	counter("txn_cas_conflicts", "cuckood_txn_cas_conflicts_total", "CAS operations rejected because the current value differed.", func(v *counterView) uint64 { return v.tx.CASConflicts }),
	counter("txn_split_ops", "cuckood_txn_split_ops_total", "Commutative updates absorbed by per-shard split counters instead of the key's stripe.", func(v *counterView) uint64 { return v.tx.SplitOps }),
	counter("txn_split_reconciles", "cuckood_txn_split_reconciles_total", "Hot-key delta reconciliations folded into the table.", func(v *counterView) uint64 { return v.tx.Reconciles }),
	counter("txn_split_promotions", "cuckood_txn_split_promotions_total", "Keys promoted to split-counter mode after stripe contention.", func(v *counterView) uint64 { return v.tx.Promotions }),
	counter("txn_split_demotions", "cuckood_txn_split_demotions_total", "Hot keys demoted back to the direct path after going idle.", func(v *counterView) uint64 { return v.tx.Demotions }),
	gauge("txn_hot_keys", "cuckood_txn_hot_keys", "Keys currently in split-counter mode.", func(v *counterView) uint64 { return uint64(v.tx.HotKeys) }),
	counter("table_searches", "cuckoo_table_searches_total", "BFS cuckoo-path searches (slow-path inserts).", func(v *counterView) uint64 { return v.tab.Searches }),
	counter("table_displacements", "cuckoo_table_displacements_total", "Item moves along cuckoo paths.", func(v *counterView) uint64 { return v.tab.Displacements }),
	counter("table_path_restarts", "cuckoo_table_path_restarts_total", "Inserts restarted because a concurrent writer invalidated the path (Eq. 1).", func(v *counterView) uint64 { return v.tab.PathRestarts }),
	gauge("table_max_path_len", "cuckoo_table_max_path_length", "Longest discovered cuckoo path, in displacements.", func(v *counterView) uint64 { return uint64(v.tab.MaxPathLen) }),
	counter("table_grows", "cuckoo_table_grows_total", "Automatic table expansions started (each drains incrementally).", func(v *counterView) uint64 { return v.tab.Grows }),
	counter("grow_migrated_buckets", "cuckood_grow_migrated_buckets_total", "Old-generation buckets drained by the incremental-resize migrator.", func(v *counterView) uint64 { return v.tab.MigratedBuckets }),
	gauge("grow_backlog_buckets", "cuckood_grow_backlog_buckets", "Old-generation buckets still awaiting migration across all shards.", func(v *counterView) uint64 { return v.tab.MigrationBacklog }),
	gauge("grow_in_progress", "cuckood_grow_in_progress", "Shards with an incremental resize in flight.", func(v *counterView) uint64 { return uint64(v.c.growingShards()) }),
	counter("lock_acquisitions", "cuckoo_lock_acquisitions_total", "Stripe-lock acquisitions across all shards.", func(v *counterView) uint64 { return v.lock.Acquisitions }),
	counter("lock_contended", "cuckoo_lock_contended_total", "Stripe-lock acquisitions that found the lock held.", func(v *counterView) uint64 { return v.lock.Contended }),
	counter("lock_yields", "cuckoo_lock_yields_total", "Scheduler yields while spinning on a stripe lock.", func(v *counterView) uint64 { return v.lock.Yields }),
}

// Snapshot renders the STATS lines: every counterTable entry, plus the
// derived lines (shard count, hit ratio, sampled latency quantiles,
// hot-key count) at their places in the reply and one entries line per
// shard. It is called off the hot path, so the lazy aggregation of the
// per-shard counters happens here, not per request.
func (c *Cache) Snapshot(st *stats) []Stat {
	v := c.counterView(st)
	out := make([]Stat, 0, len(counterTable)+9+len(c.shards))
	for i := range counterTable {
		d := &counterTable[i]
		out = append(out, Stat{d.stat, strconv.FormatUint(d.read(v), 10)})
		// The derived lines keep their places in the reply.
		switch d.stat {
		case "capacity":
			out = append(out, Stat{"shards", strconv.Itoa(len(c.shards))})
		case "misses":
			ratio := 0.0
			if gets := st.gets.Total(); gets > 0 {
				ratio = float64(st.hits.Total()) / float64(gets)
			}
			out = append(out, Stat{"hit_ratio", fmt.Sprintf("%.4f", ratio)})
		case "conns_total":
			lat := st.lat.Snapshot() // lock-free merge of the per-connection shards
			out = append(out,
				Stat{"lat_samples", fmt.Sprint(lat.Count())},
				Stat{"lat_mean_ns", fmt.Sprintf("%.0f", lat.Mean())},
				Stat{"lat_p50_ns", fmt.Sprint(lat.Quantile(0.50))},
				Stat{"lat_p99_ns", fmt.Sprint(lat.Quantile(0.99))},
				Stat{"lat_p999_ns", fmt.Sprint(lat.Quantile(0.999))})
		case "slow_ops":
			out = append(out, Stat{"hot_keys_tracked", strconv.Itoa(len(st.HotKeys(hotSketches * hotSketchK)))})
		}
	}
	for i, s := range c.shards {
		out = append(out, Stat{"shard" + strconv.Itoa(i) + "_entries", strconv.FormatUint(s.table.Len(), 10)})
	}
	return out
}
