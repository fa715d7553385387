package layout

import (
	"sort"

	"viva/internal/obs"
)

// Incremental re-layout: when an interactive aggregate/disaggregate (or a
// fault burst) perturbs a handful of nodes in an otherwise converged
// layout, restarting the global solver repeats work the layout already
// paid for — every settled body gets re-stepped for dozens of iterations
// just to confirm it does not move. Instead, RefineLocal grows a
// BFS-bounded neighborhood around the perturbed bodies and runs the
// ordinary step over that active set only: forces on active bodies are
// still computed against the FULL graph, so the active set relaxes into
// the real surrounding field, while the settled remainder simply is not
// re-integrated. Force evaluation per step is proportional to the active
// set; only the quadtree build still spans the graph.
//
// Determinism holds by the same argument as the global step: the per-body
// kernels never depend on the worker count, and the active set is a
// sorted, purely graph-derived index list.

var obsActiveSet = obs.Default.Gauge("viva_layout_active_bodies",
	"Active-set size of the last incremental refinement.")

// Neighborhood returns the indices of all bodies within hops spring-hops
// of the seed IDs, sorted ascending. Unknown seeds are ignored; hops < 0
// means seeds only.
func (l *Layout) Neighborhood(seeds []string, hops int) []int32 {
	if l.adjDirty || len(l.adj) != len(l.bodies) {
		l.buildAdjacency()
	}
	visited := make([]bool, len(l.bodies))
	var frontier []int32
	for _, id := range seeds {
		if b := l.index[id]; b != nil && !visited[b.idx] {
			visited[b.idx] = true
			frontier = append(frontier, int32(b.idx))
		}
	}
	active := append([]int32(nil), frontier...)
	for h := 0; h < hops && len(frontier) > 0; h++ {
		var next []int32
		for _, i := range frontier {
			for _, e := range l.adj[i] {
				si := e
				if si < 0 {
					si = -si
				}
				nb := l.ends[si-1][1]
				if e < 0 {
					nb = l.ends[si-1][0]
				}
				if visited[nb] {
					continue
				}
				visited[nb] = true
				next = append(next, nb)
			}
		}
		active = append(active, next...)
		frontier = next
	}
	sort.Slice(active, func(i, j int) bool { return active[i] < active[j] })
	return active
}

// RefineLocal relaxes the BFS neighborhood of the seed bodies in place,
// leaving everything outside it untouched. It returns the steps taken and
// the final active-set residual (0 when the active set is empty).
func (l *Layout) RefineLocal(algo Algorithm, seeds []string, hops, maxSteps int, eps float64) (int, float64) {
	active := l.Neighborhood(seeds, hops)
	obsActiveSet.Set(float64(len(active)))
	if len(active) == 0 {
		return 0, 0
	}
	return l.relax(algo, active, maxSteps, eps)
}
