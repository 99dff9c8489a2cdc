package client

// Internal-package cluster test for the hot-key cache: membership is
// injected directly (the HOTKEYS poller is exercised separately) so the
// cache's serve/invalidate behavior can be pinned deterministically.

import (
	"testing"
	"time"

	"cuckoohash/server"
)

func startHotNode(t *testing.T) *server.Server {
	t.Helper()
	s, err := server.New(server.Config{
		Addr:          "127.0.0.1:0",
		Shards:        2,
		SlotsPerShard: 1 << 10,
		SweepInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	t.Cleanup(func() { s.Close() })
	return s
}

// TestClusterHotCacheServesAndInvalidates checks the cache end to end:
// a read of a hot key populates the local copy, which then survives
// both servers dying; a write through the client kills it immediately.
// The traced calls take the same path as the plain ones.
func TestClusterHotCacheServesAndInvalidates(t *testing.T) {
	id := NewTraceID()
	for _, tc := range []struct {
		name string
		set  func(cl *Cluster, key, val string) error
		get  func(cl *Cluster, key string) (string, bool, error)
	}{
		{"plain",
			func(cl *Cluster, key, val string) error { return cl.Set(key, val, 0) },
			func(cl *Cluster, key string) (string, bool, error) { return cl.Get(key) }},
		{"traced",
			func(cl *Cluster, key, val string) error { return cl.SetTraced(key, val, 0, id) },
			func(cl *Cluster, key string) (string, bool, error) { return cl.GetTraced(key, id) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := startHotNode(t), startHotNode(t)
			addrs := []string{a.Addr().String(), b.Addr().String()}
			cl, err := NewCluster(addrs, ClusterOptions{
				Pool:        Options{Size: 2},
				Seed:        3,
				HotCache:    true,
				HotCacheTTL: time.Minute, // long enough to never lapse mid-test
				HotRefresh:  time.Hour,   // the poller must not overwrite the injected set
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cl.Close)

			const key = "blazing"
			if err := tc.set(cl, key, "v1"); err != nil {
				t.Fatal(err)
			}
			// Inject hot membership (in production the HOTKEYS poller does this).
			cl.hot.setHotSet([]HotKey{{Key: key, Count: 99}})

			// First read comes from the servers and fills the local copy.
			if v, ok, err := tc.get(cl, key); err != nil || !ok || v != "v1" {
				t.Fatalf("fill read = %q/%v/%v", v, ok, err)
			}
			// With both servers gone, the hot cache alone serves the key.
			a.Close()
			b.Close()
			if v, ok, err := tc.get(cl, key); err != nil || !ok || v != "v1" {
				t.Fatalf("cached read = %q/%v/%v, want v1 from the local copy", v, ok, err)
			}
			if cl.hot.hits.Load() == 0 {
				t.Fatal("hot cache served without counting a hit")
			}

			// A write through this client invalidates the copy first, even
			// though the write itself fails (the servers are down): serving
			// the old value after the owner tried to change it would break
			// the contract.
			if err := tc.set(cl, key, "v2"); err == nil {
				t.Fatal("Set succeeded against dead servers")
			}
			if v, ok, _ := tc.get(cl, key); ok {
				t.Fatalf("read after invalidation served %q; want failure", v)
			}
			if cl.hot.invalidations.Load() == 0 {
				t.Fatal("invalidation not counted")
			}
		})
	}
}
