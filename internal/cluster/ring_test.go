package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

func TestRingOrderCoversAllNodesOnce(t *testing.T) {
	nodes := []string{"a:1", "b:2", "c:3", "d:4"}
	r := NewRing(nodes)
	for i := 0; i < 100; i++ {
		ord := r.Order(fmt.Sprintf("key-%d", i))
		if len(ord) != len(nodes) {
			t.Fatalf("Order len = %d, want %d", len(ord), len(nodes))
		}
		seen := map[string]bool{}
		for _, n := range ord {
			if seen[n] {
				t.Fatalf("Order(%d) repeats node %s: %v", i, n, ord)
			}
			seen[n] = true
		}
	}
}

func TestRingDeterministicAcrossInputOrder(t *testing.T) {
	a := NewRing([]string{"a:1", "b:2", "c:3"})
	b := NewRing([]string{"c:3", "a:1", "b:2"})
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		if !reflect.DeepEqual(a.Order(key), b.Order(key)) {
			t.Fatalf("ring depends on input order for %s: %v vs %v", key, a.Order(key), b.Order(key))
		}
	}
}

// TestRingStabilityUnderMembershipChange checks the consistent-hashing
// contract: removing one node only moves the keys it owned; every other
// key keeps its preferred node (and so its warm cache).
func TestRingStabilityUnderMembershipChange(t *testing.T) {
	full := NewRing([]string{"a:1", "b:2", "c:3", "d:4"})
	reduced := NewRing([]string{"a:1", "b:2", "d:4"}) // c:3 departed
	moved := 0
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		was, is := full.Owner(key), reduced.Owner(key)
		if was == "c:3" {
			if is == "c:3" {
				t.Fatalf("key %s still owned by departed node", key)
			}
			continue
		}
		if was != is {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys not owned by the departed node changed owner", moved)
	}
}

// TestRingSpread sanity-checks the virtual-node load spread: no node owns
// a wildly disproportionate share of keys.
func TestRingSpread(t *testing.T) {
	nodes := []string{"a:1", "b:2", "c:3", "d:4"}
	r := NewRing(nodes)
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	for _, n := range nodes {
		share := float64(counts[n]) / keys
		if share < 0.10 || share > 0.45 {
			t.Fatalf("node %s owns %.0f%% of keys; spread too skewed: %v", n, share*100, counts)
		}
	}
}

func TestRingFailoverOrderStable(t *testing.T) {
	r := NewRing([]string{"a:1", "b:2", "c:3"})
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("key-%d", i)
		if !reflect.DeepEqual(r.Order(key), r.Order(key)) {
			t.Fatal("Order is not a pure function of the key")
		}
	}
	if NewRing(nil).Order("x") != nil {
		t.Fatal("empty ring should return nil order")
	}
}

// TestSplitmixStreamsPinned pins ring placement and the Retry-After
// jitter stream to the values they had before both moved onto
// internal/splitmix: a drift here moves keys off their warm nodes.
func TestSplitmixStreamsPinned(t *testing.T) {
	r := NewRing([]string{"10.0.0.1:8080", "10.0.0.2:8080", "10.0.0.3:8080"})
	var owners []string
	for _, k := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		owners = append(owners, r.Owner(k))
	}
	const n1, n2, n3 = "10.0.0.1:8080", "10.0.0.2:8080", "10.0.0.3:8080"
	if want := []string{n3, n2, n2, n1, n2, n2, n1, n1}; !reflect.DeepEqual(owners, want) {
		t.Errorf("owners %q, want %q", owners, want)
	}
	if got, want := keyHash("a"), uint64(0x2c0bdbf481420f8); got != want {
		t.Errorf("keyHash(a) = %#x, want %#x", got, want)
	}
	if got, want := ringHash(n1, 3), uint64(0xd1ca3e26d73e020d); got != want {
		t.Errorf("ringHash = %#x, want %#x", got, want)
	}
	state := uint64(42)
	for i, want := range []time.Duration{1185391219, 1039977598, 1069650282} {
		if got := jitterStretch(time.Second, &state); got != want {
			t.Errorf("jitterStretch draw %d = %d, want %d", i, got, want)
		}
	}
}
