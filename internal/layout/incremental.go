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
// BFS-bounded neighborhood around the perturbed bodies and steps only
// that active set. Forces on active bodies are still computed against the
// FULL graph (the quadtree spans every body, springs to settled
// neighbours pull normally), so the active set relaxes into the real
// surrounding field; the settled remainder simply is not re-integrated.
// Cost per step is proportional to the active set, not the graph.
//
// Determinism holds by the same argument as the global step: per-body
// accumulation never depends on the worker count, and the active set is a
// sorted, purely graph-derived index list.

var (
	obsActiveSet = obs.Default.Gauge("viva_layout_active_bodies",
		"Active-set size of the last incremental refinement.")
	obsLocalSteps = obs.Default.Counter("viva_layout_local_steps_total",
		"Incremental (active-set) layout steps taken.")
)

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
	var d float64
	for i := 0; i < maxSteps; i++ {
		d = l.stepSubset(algo, active)
		if d < eps {
			return i + 1, d
		}
	}
	return maxSteps, d
}

// stepSubset advances only the active bodies one time step, computing
// their forces against the entire graph, and returns the max displacement
// over the active set. active must be sorted, deduplicated body indices.
func (l *Layout) stepSubset(algo Algorithm, active []int32) float64 {
	span := obs.StartSpan(obs.StageLayout)
	if l.adjDirty || len(l.adj) != len(l.bodies) {
		l.buildAdjacency() // integrateSubset needs fresh per-body stiffness
	}
	for _, i := range active {
		l.bodies[i].force = Point{}
	}
	switch algo {
	case BarnesHut:
		l.repelBarnesHutSubset(active)
	default:
		l.repelNaiveSubset(active)
	}
	l.applySpringsSubset(active)
	d := l.integrateSubset(active)
	span.End()
	obsLocalSteps.Inc()
	obsResidual.Set(d)
	return d
}

// repelBarnesHutSubset builds the quadtree over ALL bodies (the settled
// surroundings must keep pushing) but evaluates it only for the active
// ones.
func (l *Layout) repelBarnesHutSubset(active []int32) {
	root := l.arena.build(l.bodies)
	if root == noNode {
		return
	}
	theta := l.params.Theta
	if theta <= 0 {
		theta = 0.7
	}
	chargeK := l.params.Charge
	l.forRange(len(active), func(w, lo, hi int) {
		stack := l.stacks[w]
		for k := lo; k < hi; k++ {
			i := active[k]
			b := l.bodies[i]
			var f Point
			f, stack = l.arena.forceOn(root, l.bodies, i, theta, chargeK, stack)
			b.force = b.force.Add(f)
		}
		l.stacks[w] = stack
	})
}

// repelNaiveSubset: each active body accumulates exact repulsion over all
// partners, pair force always evaluated from the lower-index side — the
// same canonical orientation as the parallel global path, so sharding the
// active list cannot change a single bit.
func (l *Layout) repelNaiveSubset(active []int32) {
	c := l.params.Charge
	l.forRange(len(active), func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			i := int(active[k])
			a := l.bodies[i]
			f := a.force
			for j, b := range l.bodies {
				if j == i {
					continue
				}
				if i < j {
					f = f.Add(coulomb(a, b, c))
				} else {
					f = f.Sub(coulomb(b, a, c))
				}
			}
			a.force = f
		}
	})
}

// applySpringsSubset pulls each active body's incident springs from the
// adjacency in ascending spring order. Springs bridging to settled bodies
// apply one-sidedly: the settled endpoint is not integrated, so its force
// is never read.
func (l *Layout) applySpringsSubset(active []int32) {
	if len(l.springs) == 0 {
		return
	}
	if l.adjDirty || len(l.adj) != len(l.bodies) {
		l.buildAdjacency()
	}
	k := l.params.Spring
	rest := l.params.SpringLength
	l.forRange(len(active), func(_, lo, hi int) {
		for m := lo; m < hi; m++ {
			i := active[m]
			b := l.bodies[i]
			f := b.force
			for _, e := range l.adj[i] {
				si := e
				if si < 0 {
					si = -si
				}
				sf, ok := l.springForce(int(si-1), k, rest)
				if !ok {
					continue
				}
				if e > 0 {
					f = f.Add(sf)
				} else {
					f = f.Sub(sf)
				}
			}
			b.force = f
		}
	})
}

// integrateSubset is integrate restricted to the active list (ascending
// index order, like the global pass).
func (l *Layout) integrateSubset(active []int32) float64 {
	dt := l.params.TimeStep
	damp := l.params.Damping
	maxV := l.params.MaxVelocity
	var maxDisp float64
	for _, i := range active {
		b := l.bodies[i]
		if b.Pinned {
			b.Vel = Point{}
			continue
		}
		dtb := l.bodyTimeStep(dt, int(i))
		b.Vel = b.Vel.Add(b.force.Scale(dtb)).Scale(damp)
		if v := b.Vel.Norm(); maxV > 0 && v > maxV {
			b.Vel = b.Vel.Scale(maxV / v)
		}
		delta := b.Vel.Scale(dtb)
		b.Pos = b.Pos.Add(delta)
		if d := delta.Norm(); d > maxDisp {
			maxDisp = d
		}
	}
	return maxDisp
}
