package generic

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"testing"
)

// TestBytesHashEquivalence guards the identity GetBytes is built on:
// for every non-empty string s, maphash.Comparable(seed, s) equals
// maphash.Bytes(seed, []byte(s)) (and maphash.String(seed, s)). The
// empty string is the documented exception — Comparable mixes in type
// identity that the byte hash of zero bytes does not — which is why
// GetBytes routes the empty key through Get instead. The partial-key
// tag GetBytes compares is drawn from the byte hash, so it must agree
// with the tag the write path stored from the Comparable hash.
func TestBytesHashEquivalence(t *testing.T) {
	seed := maphash.MakeSeed()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(64)
		b := make([]byte, n)
		rng.Read(b)
		s := string(b)
		if maphash.Comparable(seed, s) != maphash.Bytes(seed, b) {
			t.Fatalf("Comparable != Bytes for %q", s)
		}
		if maphash.String(seed, s) != maphash.Bytes(seed, b) {
			t.Fatalf("String != Bytes for %q", s)
		}
		if tagOf(maphash.Comparable(seed, s)) != tagOf(maphash.Bytes(seed, b)) {
			t.Fatalf("tag from Comparable != tag from Bytes for %q", s)
		}
	}
}

func TestGetBytes(t *testing.T) {
	tab := MustNew[string, int](Config{InitialCapacity: 64})
	keys := make([]string, 300)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		if err := tab.Insert(keys[i], i); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		v, ok := GetBytes(tab, []byte(k))
		if !ok || v != i {
			t.Fatalf("GetBytes(%q) = %d, %v; want %d, true", k, v, ok, i)
		}
	}
	if _, ok := GetBytes(tab, []byte("absent")); ok {
		t.Fatal("GetBytes hit on an absent key")
	}
}

// TestGetBytesEmptyKey covers the maphash fallback: the empty key must
// behave identically through both entry points.
func TestGetBytesEmptyKey(t *testing.T) {
	tab := MustNew[string, int](Config{})
	if _, ok := GetBytes(tab, nil); ok {
		t.Fatal("empty-key hit on empty table")
	}
	if err := tab.Insert("", 42); err != nil {
		t.Fatal(err)
	}
	if v, ok := GetBytes(tab, nil); !ok || v != 42 {
		t.Fatalf("GetBytes(nil) = %d, %v; want 42, true", v, ok)
	}
	if v, ok := GetBytes(tab, []byte{}); !ok || v != 42 {
		t.Fatalf("GetBytes([]) = %d, %v; want 42, true", v, ok)
	}
}

// TestGetBytesDuringMigration drives an incremental resize and checks
// that GetBytes finds keys still parked in the draining generation.
func TestGetBytesDuringMigration(t *testing.T) {
	tab := MustNew[string, int](Config{
		InitialCapacity:        64,
		DisableBackgroundSweep: true,
		MigrateBatch:           -1, // no per-op draining: keep olds populated
	})
	n := 0
	for tab.Len() < tab.Cap()-1 { // fill until the next insert must grow
		if err := tab.Insert(fmt.Sprintf("key-%d", n), n); err != nil {
			t.Fatal(err)
		}
		n++
	}
	for i := 0; !tab.Growing(); i++ {
		if err := tab.Insert(fmt.Sprintf("spill-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		if v, ok := GetBytes(tab, []byte(k)); !ok || v != i {
			t.Fatalf("mid-migration GetBytes(%q) = %d, %v; want %d, true", k, v, ok, i)
		}
	}
}

// TestGetBytesZeroAlloc is the generic-layer half of the hot-path
// allocation proof (allocfree proves it statically; this measures it).
func TestGetBytesZeroAlloc(t *testing.T) {
	tab := MustNew[string, int](Config{InitialCapacity: 256})
	for i := 0; i < 100; i++ {
		if err := tab.Insert(fmt.Sprintf("key-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	hit := []byte("key-42")
	miss := []byte("nope-42")
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := GetBytes(tab, hit); !ok {
			t.Fatal("lost key-42")
		}
		if _, ok := GetBytes(tab, miss); ok {
			t.Fatal("phantom hit")
		}
	})
	if allocs != 0 {
		t.Fatalf("GetBytes allocates %.1f times per hit+miss pair; want 0", allocs)
	}
}
