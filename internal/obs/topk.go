package obs

import (
	"sort"
	"sync"
)

// TopK is a space-saving top-K sketch (Metwally et al., "Efficient
// computation of frequent and top-k elements in data streams"): it
// tracks at most k counters; a new key evicts the current minimum and
// inherits its count as overestimation error. For a zipf-skewed stream
// the true heavy hitters are guaranteed to be present once their
// frequency exceeds N/k.
//
// The counters live in a binary min-heap on count, and each entry
// carries its own heap index, so finding the minimum is O(1) and every
// Touch is O(log k). A touch on a tracked key is one map probe (the
// m[string(b)] lookup compiles to a no-copy probe), an increment and a
// sift-down: no map write, no allocation. Touch is called on the
// sampled request path only, so a mutex is fine.
type TopK struct {
	mu   sync.Mutex
	k    int
	m    map[string]*tkEntry
	heap []*tkEntry // min-heap on count; heap[0] is the eviction victim
}

type tkEntry struct {
	key   string
	count uint64
	err   uint64
	idx   int // position in heap
}

// NewTopK returns a sketch tracking at most k keys.
func NewTopK(k int) *TopK {
	if k <= 0 {
		k = 1
	}
	return &TopK{k: k, m: make(map[string]*tkEntry, k), heap: make([]*tkEntry, 0, k)}
}

// Touch counts one occurrence of key. The []byte form avoids a string
// allocation when the key is already tracked (the common case for the
// heavy hitters the sketch exists to find).
func (t *TopK) Touch(key []byte) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if e, ok := t.m[string(key)]; ok {
		e.count++
		t.down(e.idx)
		t.mu.Unlock()
		return
	}
	k := string(key)
	if len(t.heap) < t.k {
		e := &tkEntry{key: k, count: 1, idx: len(t.heap)}
		t.heap = append(t.heap, e)
		t.m[k] = e
		t.up(e.idx)
		t.mu.Unlock()
		return
	}
	// Evict the minimum; the newcomer takes over its entry and inherits
	// its count as error bound.
	e := t.heap[0]
	delete(t.m, e.key)
	e.key, e.err = k, e.count
	e.count++
	t.m[k] = e
	t.down(0)
	t.mu.Unlock()
}

// up restores the heap order from i toward the root.
func (t *TopK) up(i int) {
	h := t.heap
	for i > 0 {
		p := (i - 1) / 2
		if h[p].count <= h[i].count {
			return
		}
		t.swap(i, p)
		i = p
	}
}

// down restores the heap order from i toward the leaves after h[i]'s
// count grew.
func (t *TopK) down(i int) {
	h := t.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].count < h[c].count {
			c = r
		}
		if h[i].count <= h[c].count {
			return
		}
		t.swap(i, c)
		i = c
	}
}

func (t *TopK) swap(i, j int) {
	h := t.heap
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

// TopKItem is one sketch entry: Count overestimates the true frequency
// by at most Err.
type TopKItem struct {
	Key   string
	Count uint64
	Err   uint64
}

// Items returns the tracked keys sorted by count descending (ties by
// key, so output is deterministic).
func (t *TopK) Items() []TopKItem {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]TopKItem, 0, len(t.heap))
	for _, e := range t.heap {
		out = append(out, TopKItem{Key: e.key, Count: e.count, Err: e.err})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// MergeTopK folds several sketches' items into one ranking, summing
// counts for keys present in more than one (each conn-shard sketch sees
// a disjoint slice of traffic, so summing is exact for tracked keys).
func MergeTopK(sketches []*TopK) []TopKItem {
	acc := map[string]*TopKItem{}
	for _, t := range sketches {
		for _, it := range t.Items() {
			if e, ok := acc[it.Key]; ok {
				e.Count += it.Count
				e.Err += it.Err
			} else {
				c := it
				acc[it.Key] = &c
			}
		}
	}
	out := make([]TopKItem, 0, len(acc))
	for _, e := range acc {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}
