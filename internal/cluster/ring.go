package cluster

import (
	"hash/fnv"
	"sort"

	"involution/internal/splitmix"
)

// ringReplicas is the virtual-node count per peer. 128 points per node
// keeps the load spread within a few percent of uniform for small fleets
// while the ring stays tiny (N·128 entries).
const ringReplicas = 128

// Ring is an immutable consistent-hash ring over peer addresses. Keys are
// content hashes (api.Request.RouteKey): a key's preference order is the
// ring walk starting at the key's position, deduplicated by node, so the
// same key prefers the same node for as long as that node is in the fleet
// — cache affinity — and falls over to a stable next choice when it is
// not.
//
// Membership changes only move the keys that hashed to the departed (or
// arrived) node's arcs; everything else keeps its preferred node and
// therefore its warm cache.
type Ring struct {
	nodes  []string
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// NewRing builds a ring over the given node addresses. Order of the input
// does not matter; the ring is a pure function of the address set.
func NewRing(nodes []string) *Ring {
	r := &Ring{nodes: append([]string(nil), nodes...)}
	sort.Strings(r.nodes)
	r.points = make([]ringPoint, 0, len(r.nodes)*ringReplicas)
	for i, n := range r.nodes {
		for v := 0; v < ringReplicas; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(n, v), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Tie-break on node index so the ring is deterministic even on
		// (astronomically unlikely) hash collisions.
		return r.points[a].node < r.points[b].node
	})
	return r
}

// ringHash positions virtual node v of node addr on the ring. Raw FNV of
// short, similar strings ("a:1#0", "a:1#1", …) clusters on the ring badly
// enough to starve nodes, so both positions go through the splitmix64
// finalizer, which diffuses every input bit across the output.
func ringHash(addr string, v int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	h.Write([]byte{'#', byte(v), byte(v >> 8)})
	return splitmix.Mix(h.Sum64())
}

// keyHash positions a content key on the ring.
func keyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return splitmix.Mix(h.Sum64())
}

// Nodes returns the ring's members in sorted order.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Order returns every node exactly once, in the key's preference order:
// the owner first, then each distinct fail-over choice in ring-walk order.
// An empty ring returns nil.
func (r *Ring) Order(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	start := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= keyHash(key)
	})
	out := make([]string, 0, len(r.nodes))
	seen := make([]bool, len(r.nodes))
	for i := 0; i < len(r.points) && len(out) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, r.nodes[p.node])
		}
	}
	return out
}

// Owner returns the key's preferred node ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	if ord := r.Order(key); len(ord) > 0 {
		return ord[0]
	}
	return ""
}
