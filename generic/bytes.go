package generic

import "hash/maphash"

// GetBytes is Get for a string-keyed table probed with the raw key
// bytes, so the caller never materializes a string for a lookup (the
// server's GET path aliases the connection read buffer). Correctness
// rests on two compiler/runtime guarantees:
//
//   - maphash.Bytes(seed, b) == maphash.Comparable(seed, string(b)) for
//     every non-empty b (TestBytesHashEquivalence guards this; the two
//     differ for the empty string, which is why the empty key falls back
//     to Get — a zero-length conversion is allocation-free anyway).
//     The partial-key tag comes from the same hash, so it agrees too.
//   - arr.keys[i] == string(key) compiles to a pointer/length compare
//     plus memcmp with no allocation (a recognized free-conversion
//     position, like map indexing).
//
//cuckoo:hotpath the server GET path: one probe, zero allocations
func GetBytes[V any](t *Table[string, V], key []byte) (V, bool) {
	if len(key) == 0 {
		return t.Get("")
	}
	h := maphash.Bytes(t.seed, key)
	tag := tagOf(h)
	var lockBuf [8]uint64
	for {
		st := t.loadState()
		locked := t.lockAllGens(st, h, lockBuf[:0])
		if !t.stateValid(st) {
			t.locks.UnlockOrdered(locked)
			continue
		}
		for _, g := range st.olds {
			ob1, ob2 := t.twoBuckets(h, g.arr.buckets)
			for _, b := range [2]uint64{ob1, ob2} {
				if i, ok := findBytes(g.arr, b, t.assoc, tag, key); ok {
					v := g.arr.vals[i]
					t.locks.UnlockOrdered(locked)
					return v, true
				}
			}
		}
		b1, b2 := t.twoBuckets(h, st.live.buckets)
		for _, b := range [2]uint64{b1, b2} {
			if i, ok := findBytes(st.live, b, t.assoc, tag, key); ok {
				v := st.live.vals[i]
				t.locks.UnlockOrdered(locked)
				return v, true
			}
		}
		t.locks.UnlockOrdered(locked)
		var zero V
		return zero, false
	}
}

// findBytes is find with a byte-slice probe; caller holds b's stripe.
// The tag compare runs first, so a non-matching occupied slot costs one
// byte load instead of a memcmp.
func findBytes[V any](arr *tArrays[string, V], b, assoc uint64, tag uint8, key []byte) (uint64, bool) {
	occ := arr.occ[b]
	base := b * assoc
	for s := 0; occ != 0; s, occ = s+1, occ>>1 {
		i := base + uint64(s)
		if occ&1 != 0 && arr.tags[i] == tag && arr.keys[i] == string(key) {
			return i, true
		}
	}
	return 0, false
}
