package generic

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkTags asserts the partial-key invariant over every generation:
// each occupied slot's tag is the tag of its key's hash. Single-threaded
// callers only; it reads the arrays without the stripes.
func checkTags[V any](t *testing.T, tab *Table[string, V], when string) {
	t.Helper()
	st := tab.loadState()
	arrs := []*tArrays[string, V]{st.live}
	for _, g := range st.olds {
		arrs = append(arrs, g.arr)
	}
	for gi, arr := range arrs {
		for b := uint64(0); b < arr.buckets; b++ {
			occ := arr.occ[b]
			for s := uint64(0); occ != 0; s, occ = s+1, occ>>1 {
				if occ&1 == 0 {
					continue
				}
				i := b*tab.assoc + s
				if want := tagOf(tab.hash(arr.keys[i])); arr.tags[i] != want {
					t.Fatalf("%s: generation %d slot %d key %q: tag %#x, want %#x",
						when, gi, i, arr.keys[i], arr.tags[i], want)
				}
			}
		}
	}
}

// TestTagsFollowKeys drives a small table through BFS displacements, an
// incremental grow held open mid-migration, and deletes, checking the
// tag invariant at every phase and every read entry point against a map
// oracle.
func TestTagsFollowKeys(t *testing.T) {
	tab, err := New[string, int](Config{
		InitialCapacity:        64,
		DisableBackgroundSweep: true,
		MigrateBatch:           -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[string]int{}
	agree := func(when string) {
		t.Helper()
		checkTags(t, tab, when)
		for k, v := range oracle {
			if got, ok := tab.Get(k); !ok || got != v {
				t.Fatalf("%s: Get(%q) = %d, %v; want %d", when, k, got, ok, v)
			}
			if got, ok := GetBytes(tab, []byte(k)); !ok || got != v {
				t.Fatalf("%s: GetBytes(%q) = %d, %v; want %d", when, k, got, ok, v)
			}
		}
		for i := 0; i < 64; i++ {
			k := fmt.Sprintf("absent-%d", i)
			if _, ok := tab.Get(k); ok {
				t.Fatalf("%s: Get(%q) hit an absent key", when, k)
			}
			if _, ok := GetBytes(tab, []byte(k)); ok {
				t.Fatalf("%s: GetBytes(%q) hit an absent key", when, k)
			}
		}
		if got := tab.Len(); got != uint64(len(oracle)) {
			t.Fatalf("%s: Len = %d, oracle holds %d", when, got, len(oracle))
		}
	}

	// Fill until the first grow: the last inserts before it need BFS.
	n := 0
	for ; !tab.Growing(); n++ {
		k := fmt.Sprintf("key-%d", n)
		if err := tab.Insert(k, n); err != nil {
			t.Fatal(err)
		}
		oracle[k] = n
	}
	if tab.Stats().Displacements == 0 {
		t.Fatal("fill never displaced a key; the BFS path is untested")
	}
	agree("mid-migration")

	// Writes while the migration is open fold old entries forward and
	// land new ones in the live generation; deletes hit either.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%d", rng.Intn(n))
		switch rng.Intn(3) {
		case 0:
			if err := tab.Upsert(k, -i); err != nil {
				t.Fatal(err)
			}
			oracle[k] = -i
		case 1:
			_, had := oracle[k]
			if got := tab.Delete(k); got != had {
				t.Fatalf("Delete(%q) = %v, oracle had it: %v", k, got, had)
			}
			delete(oracle, k)
		default:
			k = fmt.Sprintf("new-%d", i)
			if err := tab.Insert(k, i); err != nil {
				t.Fatal(err)
			}
			oracle[k] = i
		}
	}
	agree("writes during migration")

	for tab.Growing() {
		tab.MigrateBatch(8)
	}
	agree("after migration")

	for i := 0; i < n; i += 3 {
		k := fmt.Sprintf("key-%d", i)
		_, had := oracle[k]
		if got := tab.Delete(k); got != had {
			t.Fatalf("Delete(%q) = %v, oracle had it: %v", k, got, had)
		}
		delete(oracle, k)
	}
	agree("after deletes")
}
