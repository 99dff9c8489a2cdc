package txn

import (
	"strconv"
	"sync"
	"sync/atomic"

	"cuckoohash/internal/spinlock"
)

// Operation classes a key can be split for. A key splits for exactly one
// class at a time: ADD and MAX are each commutative with themselves but
// not with each other, so mixing them on one hot key forces a reconcile
// (Doppel runs non-commutative ops only between split phases).
const (
	classAdd = uint8(iota)
	classMax
)

// hotEntry is one promoted key's state in the copy-on-write hot set.
type hotEntry struct {
	class uint8
	// idleTicks counts consecutive phase ticks that folded no deltas;
	// two idle ticks demote the key back to direct stripe updates.
	idleTicks uint8
	// slots[i] is this key's pre-registered delta in shard i: promotion
	// pays for the shard-map insertions once, so the split fast path
	// reaches its slot with an index, not a second keyed lookup.
	slots []*delta
}

// delta is the pending commutative state for one key in one shard.
type delta struct {
	class uint8
	// dead marks a delta unlinked from its shard map at demotion. A
	// straggler that cached the pointer through a stale hot set must
	// fall back to the stripe path rather than write into an object no
	// fold will ever visit again. Guarded by the owning shard's mutex.
	dead bool
	add  int64
	max  int64
	ops  uint64
}

// splitShard is one padded shard of pending deltas. Updates take only
// the shard's spinlock — never a key stripe — so a split-phase INCR
// touches no cache line shared with another core's split ops. A spinlock
// rather than sync.Mutex because the folds (drainZero, drainRemove) run
// with the key's stripe held: the holder of a stripe must never park.
// The padding keeps adjacent shards off each other's lines (the paper's
// principle P1, same reasoning as metrics.OpCounter).
type splitShard struct {
	mu     spinlock.Mutex
	deltas map[string]*delta
	_      [64 - 8 - 8]byte // spinlock (4, padded to 8) + map header (8) → one 64-byte line
}

// splitTable routes hot-key commutative updates to per-shard delta slots.
type splitTable struct {
	shards []splitShard
	mask   uint64

	// hotCount gates the fast path: when zero (no promoted keys, the
	// common state), hotClass is a single atomic load and no map is
	// touched. hot is copy-on-write: readers load the pointer lock-free;
	// promote/demote copy the map under promoteMu and swap the pointer.
	hotCount atomic.Int64
	hot      atomic.Pointer[map[string]hotEntry]

	promoteMu sync.Mutex
	contend   map[string]int
}

func newSplitTable(shards int) *splitTable {
	if shards <= 0 || shards&(shards-1) != 0 {
		panic("txn: SplitShards must be a positive power of two")
	}
	t := &splitTable{
		shards:  make([]splitShard, shards),
		mask:    uint64(shards - 1),
		contend: make(map[string]int),
	}
	for i := range t.shards {
		t.shards[i].deltas = make(map[string]*delta)
	}
	return t
}

// lookup returns key's split state when key is currently hot. The hot
// set pointer is nil whenever the set is empty (the common state), so
// the cold path is one atomic pointer load and no map access; with a
// non-empty hot set it is one lock-free map lookup.
func (t *splitTable) lookup(key string) (hotEntry, bool) {
	m := t.hot.Load()
	if m == nil {
		return hotEntry{}, false
	}
	e, ok := (*m)[key]
	return e, ok
}

// add records a pending ADD in the hint's shard slot. It reports false
// when the slot is dead — the key was demoted between the caller's hot
// lookup and here — and the caller must apply on the stripe path instead.
func (t *splitTable) add(e hotEntry, d int64, hint uint64) bool {
	i := hint & t.mask
	p := e.slots[i]
	sh := &t.shards[i]
	sh.mu.Lock()
	if p.dead {
		sh.mu.Unlock()
		return false
	}
	p.add += d
	p.ops++
	sh.mu.Unlock()
	return true
}

// max records a pending MAXUPDATE in the hint's shard slot, with the
// same dead-slot contract as add.
func (t *splitTable) max(e hotEntry, n int64, hint uint64) bool {
	i := hint & t.mask
	p := e.slots[i]
	sh := &t.shards[i]
	sh.mu.Lock()
	if p.dead {
		sh.mu.Unlock()
		return false
	}
	if p.ops == 0 || n > p.max {
		p.max = n
	}
	p.ops++
	sh.mu.Unlock()
	return true
}

// drainZero folds a still-hot key's pending deltas in place: each slot
// is zeroed but stays registered in its shard map, so the next split op
// reuses it. Caller holds key's stripe.
func (t *splitTable) drainZero(e hotEntry) (addSum int64, maxVal int64, haveMax bool, ops uint64) {
	for i := range t.shards {
		sh := &t.shards[i]
		p := e.slots[i]
		sh.mu.Lock()
		if p.ops > 0 {
			addSum += p.add
			if p.class == classMax && (!haveMax || p.max > maxVal) {
				maxVal, haveMax = p.max, true
			}
			ops += p.ops
			p.add, p.max, p.ops = 0, 0, 0
		}
		sh.mu.Unlock()
	}
	return addSum, maxVal, haveMax, ops
}

// drainRemove unlinks and returns a demoted key's deltas from every
// shard, marking each dead so stragglers holding cached slot pointers
// divert to the stripe path. After this, no state for key remains in any
// shard and none can silently reappear. Caller holds key's stripe.
func (t *splitTable) drainRemove(key string) (addSum int64, maxVal int64, haveMax bool, ops uint64) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		if p, ok := sh.deltas[key]; ok {
			delete(sh.deltas, key)
			p.dead = true
			if p.ops > 0 {
				addSum += p.add
				if p.class == classMax && (!haveMax || p.max > maxVal) {
					maxVal, haveMax = p.max, true
				}
				ops += p.ops
				// Zero the drained slot: a promotion racing this unlink
				// may have adopted it into a new hot entry, whose next
				// drainZero must not fold these ops a second time.
				p.add, p.max, p.ops = 0, 0, 0
			}
		}
		sh.mu.Unlock()
	}
	return addSum, maxVal, haveMax, ops
}

// pendingKeys snapshots every key registered in any shard: all hot keys
// (their slots stay registered while promoted, pending or not) plus any
// demoted key whose final fold has not run yet. Tick folds each one;
// zero-pending folds are free.
func (t *splitTable) pendingKeys() map[string]struct{} {
	keys := make(map[string]struct{})
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for k := range sh.deltas {
			keys[k] = struct{}{}
		}
		sh.mu.Unlock()
	}
	return keys
}

// noteContention charges one contended stripe acquisition to key and
// promotes it to split mode once the configured threshold is reached.
// Called only from the already-contended slow path, so the bookkeeping
// mutex is off the uncontended fast path entirely.
//
//cuckoo:coldpath promotion bookkeeping runs only on contended acquisitions, never on the uncontended per-op path
func (s *Store) noteContention(key string, class uint8) {
	t := s.split
	t.promoteMu.Lock()
	t.contend[key]++
	if t.contend[key] >= s.cfg.PromoteAfter {
		delete(t.contend, key)
		if t.insertHotLocked(key, class) {
			s.stats.promotions.Add(1)
		}
	}
	t.promoteMu.Unlock()
}

// Promote forces key into split mode for the commutative-add class, as
// if it had crossed the contention threshold. Benchmarks and tests use
// it to measure split-phase behaviour deterministically: organic
// promotion depends on TryLock collisions, which are scheduler-timing
// dependent (and rare under GOMAXPROCS=1). Returns false when splitting
// is disabled or the key is already hot.
func (s *Store) Promote(key string) bool {
	if s.cfg.PromoteAfter < 0 {
		return false
	}
	t := s.split
	t.promoteMu.Lock()
	ok := t.insertHotLocked(key, classAdd)
	t.promoteMu.Unlock()
	if ok {
		s.stats.promotions.Add(1)
	}
	return ok
}

// insertHotLocked adds key to the copy-on-write hot set and registers
// one delta slot per shard. Caller holds promoteMu. Returns false if the
// key was already hot.
func (t *splitTable) insertHotLocked(key string, class uint8) bool {
	old := t.hot.Load()
	if old != nil {
		if _, ok := (*old)[key]; ok {
			return false
		}
	}
	slots := make([]*delta, len(t.shards))
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		if p, ok := sh.deltas[key]; ok {
			// A previous hot life left a not-yet-folded straggler; adopt
			// it so its pending ops fold with the new life's.
			slots[i] = p
		} else {
			p := &delta{class: class}
			sh.deltas[key] = p
			slots[i] = p
		}
		sh.mu.Unlock()
	}
	next := make(map[string]hotEntry, 1)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	next[key] = hotEntry{class: class, slots: slots}
	t.hot.Store(&next)
	t.hotCount.Add(1)
	return true
}

// reconcileIfHotLocked folds key's pending deltas into the backing
// store. Caller holds key's stripe. Unparsable existing values (a SET
// overwrote a split counter with garbage) are treated as zero: the
// acknowledged commutative ops cannot be reported as failed after the
// fact, so folding onto zero is the least surprising recovery.
func (s *Store) reconcileIfHotLocked(key string) {
	if s.split.hotCount.Load() == 0 {
		return
	}
	if _, ok := s.split.lookup(key); !ok {
		return
	}
	s.foldLocked(key)
}

// foldLocked drains and applies key's pending deltas: in place for a
// still-hot key, unlinking the slots for a demoted one. Caller holds
// key's stripe.
//
//cuckoo:coldpath a fold runs once per phase tick (or on a hot key's first stripe op), not per operation
func (s *Store) foldLocked(key string) uint64 {
	var addSum, maxVal int64
	var haveMax bool
	var ops uint64
	if e, ok := s.split.lookup(key); ok {
		addSum, maxVal, haveMax, ops = s.split.drainZero(e)
	} else {
		addSum, maxVal, haveMax, ops = s.split.drainRemove(key)
	}
	if ops == 0 {
		return 0
	}
	s.stats.splitOps.Add(ops)
	var cur int64
	if v, ok := s.kv.Load(key); ok {
		cur, _ = strconv.ParseInt(v, 10, 64)
	}
	n := cur + addSum
	if haveMax && maxVal > n {
		n = maxVal
	}
	// Best effort: a full backing store drops the fold (counters on a
	// shard that cannot even hold the key are already lost causes), but
	// the drained deltas were removed, so count the reconcile regardless.
	_ = s.kv.Store(key, strconv.FormatInt(n, 10), 0, true)
	s.stats.reconciles.Add(1)
	return ops
}

// Tick runs one split-phase boundary: every pending delta is folded into
// its canonical value, and hot keys that were idle for two consecutive
// ticks are demoted. Call it periodically (tens of milliseconds — the
// phase length bounds read staleness) from a single goroutine.
func (s *Store) Tick() {
	t := s.split
	hot := t.hot.Load()

	// Fold every key with queued deltas, hot or not: a key demoted while
	// an update raced hotClass can leave a straggler delta behind, and
	// this sweep is what guarantees it still lands.
	folded := make(map[string]uint64)
	for key := range t.pendingKeys() {
		i := s.stripeFor(key)
		s.locks.Lock(i)
		folded[key] = s.foldLocked(key)
		s.locks.Unlock(i)
	}

	if hot == nil {
		return
	}
	// Demote hot keys that have gone quiet so the hot set tracks the
	// workload's current skew rather than its history. Reload the hot
	// set under promoteMu: a promotion may have raced the fold above,
	// and rebuilding from a stale snapshot would silently drop it.
	t.promoteMu.Lock()
	hot = t.hot.Load()
	if hot == nil {
		// A concurrent Tick demoted every key since the load above.
		t.promoteMu.Unlock()
		return
	}
	var demote []string
	next := make(map[string]hotEntry, len(*hot))
	for k, e := range *hot {
		if folded[k] == 0 {
			e.idleTicks++
		} else {
			e.idleTicks = 0
		}
		if e.idleTicks >= 2 {
			demote = append(demote, k)
			continue
		}
		next[k] = e
	}
	// Store the rebuilt map even with no demotions: the idle-tick
	// counters must persist across phases to ever reach the threshold.
	// An empty set stores nil so lookup's cold path stays map-free.
	if len(next) == 0 {
		t.hot.Store(nil)
	} else {
		t.hot.Store(&next)
	}
	if len(demote) > 0 {
		t.hotCount.Add(int64(-len(demote)))
		s.stats.demotions.Add(uint64(len(demote)))
	}
	t.promoteMu.Unlock()

	// Post-demotion sweep: an update that loaded the old hot set during
	// the swap may have parked one more delta; fold it now rather than
	// waiting a full phase.
	for _, k := range demote {
		i := s.stripeFor(k)
		s.locks.Lock(i)
		s.foldLocked(k)
		s.locks.Unlock(i)
	}
}

// ReconcileAll folds every pending delta. Call on drain before taking a
// persistent snapshot so no acknowledged commutative op is left sitting
// in a delta shard.
func (s *Store) ReconcileAll() {
	for key := range s.split.pendingKeys() {
		i := s.stripeFor(key)
		s.locks.Lock(i)
		s.foldLocked(key)
		s.locks.Unlock(i)
	}
}
