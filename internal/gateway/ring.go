package gateway

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is an immutable consistent-hash ring over the membership. Each
// backend projects virtualNodes points onto the ring; a skill routes to the
// first Replication distinct backends clockwise of its own hash. Health
// never changes the ring — it filters at candidate selection — so an
// ejected backend's skills fail over to the next replicas clockwise, and a
// backend list that differs by one member remaps only the skills adjacent
// to that member's points instead of reshuffling every skill.
type ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	b    *backend
}

func buildRing(backends []*backend, vnodes int) *ring {
	r := &ring{points: make([]ringPoint, 0, len(backends)*vnodes)}
	for _, b := range backends {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hashKey(fmt.Sprintf("%s#%d", b.addr, i)), b: b})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// replicas returns the first n distinct backends clockwise of key's hash,
// in ring order (the replica set of a skill).
func (r *ring) replicas(key string, n int) []*backend {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= hashKey(key) })
	out := make([]*backend, 0, n)
	seen := make(map[*backend]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.b] {
			seen[p.b] = true
			out = append(out, p.b)
		}
	}
	return out
}

func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
