package obs

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestTopKExactWhenUnderCapacity(t *testing.T) {
	tk := NewTopK(8)
	for i := 0; i < 5; i++ {
		for j := 0; j <= i; j++ {
			tk.Touch([]byte(fmt.Sprintf("k%d", i)))
		}
	}
	items := tk.Items()
	if len(items) != 5 {
		t.Fatalf("len(Items) = %d, want 5", len(items))
	}
	for i, it := range items {
		wantKey := fmt.Sprintf("k%d", 4-i)
		wantCount := uint64(5 - i)
		if it.Key != wantKey || it.Count != wantCount || it.Err != 0 {
			t.Errorf("Items[%d] = %+v, want {%s %d 0}", i, it, wantKey, wantCount)
		}
	}
}

func TestTopKHeavyHittersSurviveChurn(t *testing.T) {
	// 4 heavy keys at ~1000 touches each through a k=16 sketch, drowned in
	// 2000 one-off keys. Space-saving guarantees keys with frequency above
	// N/k stay tracked: N = 6000, N/k = 375 << 1000.
	tk := NewTopK(16)
	for round := 0; round < 1000; round++ {
		for h := 0; h < 4; h++ {
			tk.Touch([]byte(fmt.Sprintf("hot%d", h)))
		}
		for j := 0; j < 2; j++ {
			tk.Touch([]byte(fmt.Sprintf("cold%d-%d", round, j)))
		}
	}
	items := tk.Items()
	if len(items) != 16 {
		t.Fatalf("len(Items) = %d, want 16 (sketch at capacity)", len(items))
	}
	top := map[string]TopKItem{}
	for _, it := range items[:4] {
		top[it.Key] = it
	}
	for h := 0; h < 4; h++ {
		key := fmt.Sprintf("hot%d", h)
		it, ok := top[key]
		if !ok {
			t.Fatalf("heavy hitter %s missing from top 4: %+v", key, items[:8])
		}
		// Count overestimates by at most Err; the true count is 1000.
		if it.Count < 1000 || it.Count-it.Err > 1000 {
			t.Errorf("%s: count %d err %d, want count >= 1000 and count-err <= 1000", key, it.Count, it.Err)
		}
	}
}

func TestTopKEvictionInheritsMinCount(t *testing.T) {
	tk := NewTopK(2)
	tk.Touch([]byte("a"))
	tk.Touch([]byte("a"))
	tk.Touch([]byte("b"))
	tk.Touch([]byte("c")) // evicts b (count 1); c inherits count 1 -> 2, err 1
	items := tk.Items()
	if len(items) != 2 {
		t.Fatalf("len(Items) = %d, want 2", len(items))
	}
	if items[0].Key != "a" && items[1].Key != "a" {
		t.Fatalf("a evicted: %+v", items)
	}
	for _, it := range items {
		if it.Key == "c" && (it.Count != 2 || it.Err != 1) {
			t.Errorf("c = %+v, want count 2 err 1", it)
		}
	}
}

func TestTopKTrackedTouchDoesNotAllocate(t *testing.T) {
	// A full sketch, so the touch sifts through a populated heap.
	tk := NewTopK(4)
	for i := 0; i < 8; i++ {
		tk.Touch([]byte(fmt.Sprintf("k%d", i)))
	}
	key := []byte("hot")
	tk.Touch(key)
	allocs := testing.AllocsPerRun(200, func() { tk.Touch(key) })
	if allocs != 0 {
		t.Errorf("tracked-key Touch allocates %.1f per op, want 0", allocs)
	}
}

// checkHeap asserts the sketch's internal invariants: every entry knows
// its own heap index, the map and heap hold the same entries, and no
// parent outcounts its child.
func checkHeap(t *testing.T, tk *TopK) {
	t.Helper()
	if len(tk.m) != len(tk.heap) {
		t.Fatalf("map holds %d entries, heap %d", len(tk.m), len(tk.heap))
	}
	for i, e := range tk.heap {
		if e.idx != i {
			t.Fatalf("heap[%d] records idx %d", i, e.idx)
		}
		if tk.m[e.key] != e {
			t.Fatalf("heap[%d] key %q not mapped to its entry", i, e.key)
		}
		if i > 0 && tk.heap[(i-1)/2].count > e.count {
			t.Fatalf("heap order broken at %d: parent %d > child %d", i, tk.heap[(i-1)/2].count, e.count)
		}
	}
}

// TestTopKZipfBounds checks the space-saving guarantees against exact
// counts on a seeded zipf stream: every reported count brackets the
// true frequency (count-err <= true <= count), and every key more
// frequent than N/k is tracked.
func TestTopKZipfBounds(t *testing.T) {
	const (
		k = 48
		n = 200_000
	)
	rng := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(rng, 1.1, 1, 1<<16)
	tk := NewTopK(k)
	exact := map[string]uint64{}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", zipf.Uint64())
		exact[key]++
		tk.Touch([]byte(key))
	}
	checkHeap(t, tk)
	items := tk.Items()
	if len(items) != k {
		t.Fatalf("len(Items) = %d, want %d", len(items), k)
	}
	tracked := map[string]bool{}
	for _, it := range items {
		tracked[it.Key] = true
		if truth := exact[it.Key]; it.Count-it.Err > truth || truth > it.Count {
			t.Errorf("%s: count %d err %d does not bracket true count %d", it.Key, it.Count, it.Err, truth)
		}
	}
	heavy := 0
	for key, c := range exact {
		if c > n/k {
			heavy++
			if !tracked[key] {
				t.Errorf("%s: frequency %d > N/k = %d but not tracked", key, c, n/k)
			}
		}
	}
	if heavy == 0 {
		t.Fatal("stream has no key above N/k; the guarantee is untested")
	}
}

func BenchmarkTopKTouch(b *testing.B) {
	const k = 48
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d", i))
	}
	b.Run("tracked", func(b *testing.B) {
		tk := NewTopK(k)
		for _, key := range keys[:k] {
			tk.Touch(key)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tk.Touch(keys[i%k])
		}
	})
	b.Run("untracked", func(b *testing.B) {
		// Every touch misses the sketch and evicts its minimum.
		tk := NewTopK(k)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tk.Touch(keys[i%len(keys)])
		}
	})
	b.Run("zipf", func(b *testing.B) {
		// The daemon's mix: a skewed stream over a large key space, so
		// hot keys hit the sketch and the long tail keeps evicting.
		rng := rand.New(rand.NewSource(5))
		zipf := rand.NewZipf(rng, 1.01, 1, 1<<18)
		stream := make([][]byte, 1<<14)
		for i := range stream {
			stream[i] = []byte(fmt.Sprintf("key-%d", zipf.Uint64()))
		}
		tk := NewTopK(k)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tk.Touch(stream[i%len(stream)])
		}
	})
}

func TestMergeTopKSumsAcrossSketches(t *testing.T) {
	a, b := NewTopK(4), NewTopK(4)
	for i := 0; i < 3; i++ {
		a.Touch([]byte("x"))
		b.Touch([]byte("x"))
	}
	a.Touch([]byte("y"))
	b.Touch([]byte("z"))
	merged := MergeTopK([]*TopK{a, b})
	if len(merged) != 3 {
		t.Fatalf("len(merged) = %d, want 3", len(merged))
	}
	if merged[0].Key != "x" || merged[0].Count != 6 {
		t.Errorf("merged[0] = %+v, want x with count 6", merged[0])
	}
	// Deterministic tie-break: y before z at count 1.
	if merged[1].Key != "y" || merged[2].Key != "z" {
		t.Errorf("tie order = %s,%s, want y,z", merged[1].Key, merged[2].Key)
	}
}
