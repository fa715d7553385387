// Package layout implements the paper's dynamic, interactive graph layout
// (Sections 3.3 and 4.2): a force-directed placement where every node
// carries an electrical charge (Coulomb repulsion), connected nodes pull
// on each other through springs (Hooke attraction), and a damping factor
// controls convergence speed. Two force engines are provided: the basic
// O(n²) all-pairs algorithm and the Barnes-Hut quadtree approximation in
// O(n log n) the paper adopts for scalability.
//
// The layout is incremental: bodies can be added, removed, pinned and
// dragged while the simulation keeps iterating, so the picture evolves
// smoothly when the analyst aggregates or disaggregates groups of nodes.
// An aggregated body's charge is the sum of the charges it replaces.
package layout

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"viva/internal/obs"
)

// Self-observation of the interactive hot path: step throughput, the
// convergence residual the settling heuristics watch, and the shape of
// the Barnes-Hut quadtree (its node count and depth govern the cost of
// every force pass).
var (
	obsSteps = obs.Default.Counter("viva_layout_steps_total",
		"Force-simulation steps advanced.")
	obsLocalSteps = obs.Default.Counter("viva_layout_local_steps_total",
		"Incremental (active-set) layout steps taken.")
	obsResidual = obs.Default.Gauge("viva_layout_residual",
		"Maximum body displacement of the last step (convergence residual).")
	obsBodies = obs.Default.Gauge("viva_layout_bodies",
		"Bodies in the layout at the last step.")
	obsQuadNodes = obs.Default.Gauge("viva_layout_quadtree_nodes",
		"Quadtree nodes allocated by the last Barnes-Hut pass.")
	obsQuadDepth = obs.Default.Gauge("viva_layout_quadtree_depth",
		"Maximum quadtree depth of the last Barnes-Hut pass.")
)

// Point is a position or vector in the 2D layout plane.
type Point struct {
	X, Y float64
}

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p − q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Norm returns the Euclidean norm of p.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Params are the analyst-facing knobs of the force model (the sliders of
// Section 4.2).
type Params struct {
	// Charge scales the Coulomb repulsion between every pair of bodies;
	// higher values spread the nodes apart.
	Charge float64
	// Spring scales the Hooke attraction along edges; higher values pull
	// connected nodes together.
	Spring float64
	// SpringLength is the rest length of the springs.
	SpringLength float64
	// Damping in [0, 1) multiplies velocities each step: low values stop
	// the motion quickly, values near 1 let the layout glide.
	Damping float64
	// Theta is the Barnes-Hut opening angle; 0 degenerates to exact
	// all-pairs, typical values are 0.5–1.0.
	Theta float64
	// TimeStep is the integration step.
	TimeStep float64
	// MaxVelocity caps per-step motion, keeping the integration stable
	// when charges collide.
	MaxVelocity float64
	// Parallelism is the maximum number of worker goroutines a Step may
	// use for the force passes. 0 (the default) means GOMAXPROCS; 1 forces
	// the serial path. The effective worker count is further capped so
	// each worker gets at least parallelGrain bodies — tiny layouts never
	// pay goroutine overhead. Results are bit-for-bit identical at every
	// setting (see DESIGN.md, "Concurrency model & determinism").
	Parallelism int
}

// DefaultParams returns a stable, middle-of-the-sliders configuration.
func DefaultParams() Params {
	return Params{
		Charge:       1000,
		Spring:       0.05,
		SpringLength: 60,
		Damping:      0.85,
		Theta:        0.7,
		TimeStep:     0.5,
		MaxVelocity:  200,
	}
}

// Body is one laid-out node.
type Body struct {
	ID     string
	Pos    Point
	Vel    Point
	Charge float64
	// Pinned bodies ignore forces (the analyst dragged them and wants
	// them to stay, or an algorithm anchors them).
	Pinned bool

	force Point
	idx   int // position in Layout.bodies, kept current by add/remove
}

// Spring connects two bodies.
type Spring struct {
	A, B string
	// Strength multiplies Params.Spring for this edge (use e.g. the edge
	// multiplicity of an aggregated bundle).
	Strength float64
}

// Layout is a running force simulation.
type Layout struct {
	params  Params
	bodies  []*Body
	index   map[string]*Body
	springs []Spring

	// Reused per-step scratch state (see quadtree.go and the spring
	// adjacency below): none of it escapes a Step call.
	active   []int32 // the current step's body indices, nil for all
	root     int32   // the current Barnes-Hut step's quadtree root
	arena    quadArena
	stacks   [][]int32  // one traversal stack per worker
	adj      [][]int32  // body idx -> springs touching it, ±(spring index+1)
	ends     [][2]int32 // spring index -> body indices of A and B (-1: unknown)
	adjDirty bool
	// stiff[i] sums the strengths of body i's incident springs (rebuilt
	// with the adjacency). The integrator uses it to clamp the local time
	// step of hub bodies whose aggregate spring stiffness would make the
	// explicit update oscillate forever at the velocity cap (a backbone
	// link with hundreds of attached host links, e.g.) — see integrate.
	stiff []float64
}

// New creates an empty layout.
func New(params Params) *Layout {
	return &Layout{params: params, index: make(map[string]*Body)}
}

// Params returns the current parameters.
func (l *Layout) Params() Params { return l.params }

// SetParams replaces the force parameters (slider movement).
func (l *Layout) SetParams(p Params) { l.params = p }

// Bodies returns the bodies in insertion order. The slice is shared; do
// not reorder it.
func (l *Layout) Bodies() []*Body { return l.bodies }

// Body returns a body by ID, or nil.
func (l *Layout) Body(id string) *Body { return l.index[id] }

// Len returns the number of bodies.
func (l *Layout) Len() int { return len(l.bodies) }

// AddBody inserts a body. If no position is given (zero Point and
// deterministic placement wanted), use AddBodyAuto instead. Adding an
// existing ID is an error.
func (l *Layout) AddBody(id string, pos Point, charge float64) (*Body, error) {
	if _, ok := l.index[id]; ok {
		return nil, fmt.Errorf("layout: body %q already exists", id)
	}
	b := &Body{ID: id, Pos: pos, Charge: charge, idx: len(l.bodies)}
	l.bodies = append(l.bodies, b)
	l.index[id] = b
	return b, nil
}

// AddBodyAuto inserts a body at a deterministic pseudo-random position
// derived from its ID, on a disc whose radius grows with the body count —
// a reproducible seed layout.
func (l *Layout) AddBodyAuto(id string, charge float64) (*Body, error) {
	h := fnv64(id)
	angle := float64(h%3600) / 3600 * 2 * math.Pi
	radius := 40 + float64(len(l.bodies))*2 + float64((h/3600)%100)
	pos := Point{X: radius * math.Cos(angle), Y: radius * math.Sin(angle)}
	return l.AddBody(id, pos, charge)
}

// RemoveBody deletes a body and every spring touching it. Removing an
// unknown ID is a no-op returning false.
func (l *Layout) RemoveBody(id string) bool {
	b, ok := l.index[id]
	if !ok {
		return false
	}
	delete(l.index, id)
	i := b.idx
	copy(l.bodies[i:], l.bodies[i+1:])
	l.bodies = l.bodies[:len(l.bodies)-1]
	for ; i < len(l.bodies); i++ {
		l.bodies[i].idx = i
	}
	springs := l.springs[:0]
	for _, s := range l.springs {
		if s.A != id && s.B != id {
			springs = append(springs, s)
		}
	}
	l.springs = springs
	l.adjDirty = true
	return true
}

// RemoveBodies deletes a batch of bodies and every spring touching any of
// them in one pass over the body and spring slices — the aggregation
// transitions of core.View remove whole groups at once, and per-ID
// RemoveBody calls would make that quadratic. Insertion order of the
// survivors is preserved. Returns how many of the IDs existed.
func (l *Layout) RemoveBodies(ids []string) int {
	doomed := make(map[string]bool, len(ids))
	removed := 0
	for _, id := range ids {
		if _, ok := l.index[id]; ok && !doomed[id] {
			doomed[id] = true
			removed++
			delete(l.index, id)
		}
	}
	if removed == 0 {
		return 0
	}
	bodies := l.bodies[:0]
	for _, b := range l.bodies {
		if !doomed[b.ID] {
			b.idx = len(bodies)
			bodies = append(bodies, b)
		}
	}
	for i := len(bodies); i < len(l.bodies); i++ {
		l.bodies[i] = nil // release the removed tail for GC
	}
	l.bodies = bodies
	springs := l.springs[:0]
	for _, s := range l.springs {
		if !doomed[s.A] && !doomed[s.B] {
			springs = append(springs, s)
		}
	}
	l.springs = springs
	l.adjDirty = true
	return removed
}

// SetSprings replaces the edge set. Unknown endpoints are rejected.
func (l *Layout) SetSprings(springs []Spring) error {
	for _, s := range springs {
		if l.index[s.A] == nil || l.index[s.B] == nil {
			return fmt.Errorf("layout: spring %s-%s references unknown body", s.A, s.B)
		}
	}
	l.springs = append(l.springs[:0:0], springs...)
	l.adjDirty = true
	return nil
}

// Springs returns the current springs.
func (l *Layout) Springs() []Spring {
	out := make([]Spring, len(l.springs))
	copy(out, l.springs)
	return out
}

// Pin fixes a body at a position (analyst drag-and-hold). Returns false
// for unknown IDs.
func (l *Layout) Pin(id string, pos Point) bool {
	b := l.index[id]
	if b == nil {
		return false
	}
	b.Pos = pos
	b.Vel = Point{}
	b.Pinned = true
	return true
}

// Unpin releases a pinned body back to the simulation.
func (l *Layout) Unpin(id string) bool {
	b := l.index[id]
	if b == nil {
		return false
	}
	b.Pinned = false
	return true
}

// Move teleports a body without pinning it: its neighbourhood will follow
// through the springs on the next steps ("whenever a node is moved by the
// analyst, all his neighbors seamlessly follow").
func (l *Layout) Move(id string, pos Point) bool {
	b := l.index[id]
	if b == nil {
		return false
	}
	b.Pos = pos
	b.Vel = Point{}
	return true
}

// Algorithm selects the repulsion engine.
type Algorithm int

const (
	// Naive computes exact all-pairs repulsion in O(n²).
	Naive Algorithm = iota
	// BarnesHut approximates far-field repulsion through a quadtree in
	// O(n log n) — the paper's choice for large graphs.
	BarnesHut
)

// Step advances the simulation by one time step with the given engine and
// returns the maximum displacement, the convergence measure.
func (l *Layout) Step(algo Algorithm) float64 { return l.step(algo, nil) }

// Run iterates until the maximum displacement per step falls below eps or
// maxSteps is reached, returning the number of steps taken.
func (l *Layout) Run(algo Algorithm, maxSteps int, eps float64) int {
	steps, _ := l.relax(algo, nil, maxSteps, eps)
	return steps
}

// relax steps the bodies of active (nil: every body) until one step's
// maximum displacement falls below eps or maxSteps is reached. It returns
// the steps taken and the last step's residual. Run, RefineLocal and each
// V-cycle level of RunMultilevel are this loop.
func (l *Layout) relax(algo Algorithm, active []int32, maxSteps int, eps float64) (int, float64) {
	var d float64
	for i := 0; i < maxSteps; i++ {
		if d = l.step(algo, active); d < eps {
			return i + 1, d
		}
	}
	return maxSteps, d
}

// step advances the bodies of active (sorted, deduplicated body indices;
// nil means every body) by one time step and returns their maximum
// displacement. Forces are always taken against the whole graph — the
// quadtree spans every body and springs to bodies outside active pull
// normally — so a local step relaxes its bodies into the real surrounding
// field while everything else stays put.
func (l *Layout) step(algo Algorithm, active []int32) float64 {
	span := obs.StartSpan(obs.StageLayout)
	l.forces(algo, active)
	d := l.integrate()
	l.active = nil
	span.End()
	if active == nil {
		obsSteps.Inc()
		obsBodies.Set(float64(len(l.bodies)))
	} else {
		obsLocalSteps.Inc()
	}
	obsResidual.Set(d)
	return d
}

// forces sets the net force (repulsion, then springs) on every body of
// active (nil: every body) and leaves active as the step's index set.
func (l *Layout) forces(algo Algorithm, active []int32) {
	if l.adjDirty || len(l.adj) != len(l.bodies) {
		l.buildAdjacency()
	}
	l.active = active
	switch {
	case algo == BarnesHut:
		l.root = l.arena.build(l.bodies)
		obsQuadNodes.Set(float64(len(l.arena.nodes)))
		obsQuadDepth.Set(float64(l.arena.maxDepth))
		l.forRange(l.units(), (*Layout).barnesHutForces)
	case active == nil && (l.workersFor(len(l.bodies)) == 1 || len(l.bodies) < naiveParallelMin):
		l.naivePairs()
	default:
		l.forRange(l.units(), (*Layout).naiveForces)
	}
}

// units is the size of the current step's index set.
func (l *Layout) units() int {
	if l.active == nil {
		return len(l.bodies)
	}
	return len(l.active)
}

// unit maps position k of the current step's index set to a body index.
func (l *Layout) unit(k int) int {
	if l.active == nil {
		return k
	}
	return int(l.active[k])
}

// parallelGrain is the minimum number of bodies per worker: below it the
// goroutine fan-out costs more than the force arithmetic it spreads.
const parallelGrain = 128

// workersFor sizes the fan-out for a pass over n units of work (all
// bodies for the global step, the active set for a local refinement):
// min(Parallelism or GOMAXPROCS, n/parallelGrain), at least 1.
func (l *Layout) workersFor(n int) int {
	p := l.params.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if max := n / parallelGrain; p > max {
		p = max
	}
	if p < 1 {
		p = 1
	}
	return p
}

// workChunk is how many units a worker of forRange claims at a time.
// Per-body cost varies (a Barnes-Hut body in a dense cluster opens more
// cells, a hub has more springs), so fixed contiguous shards left workers
// idle at the tail; small chunks from a shared counter balance the load.
const workChunk = 64

// forRange runs the per-body kernel fn over units [0, n) in
// workChunk-sized ranges that workers claim from an atomic counter, and
// guarantees l.stacks[w] exists for each worker. With a single worker fn
// runs inline over the whole range. Kernels are method expressions, not
// closures, so a serial step allocates nothing. fn must only write state
// owned by its own units (or its own worker slot), which is what makes
// the fan-out race-free; and since a unit's result then cannot depend on
// which worker ran it, the assignment never changes a bit.
func (l *Layout) forRange(n int, fn func(l *Layout, worker, lo, hi int)) {
	w := l.workersFor(n)
	for len(l.stacks) < w {
		l.stacks = append(l.stacks, nil)
	}
	if w == 1 {
		fn(l, 0, 0, n)
		return
	}
	var run struct { // one allocation for both, as the goroutines share them
		next atomic.Int64
		wg   sync.WaitGroup
	}
	run.wg.Add(w)
	for k := 0; k < w; k++ {
		go func(k int) {
			defer run.wg.Done()
			for {
				lo := int(run.next.Add(workChunk)) - workChunk
				if lo >= n {
					return
				}
				fn(l, k, lo, min(lo+workChunk, n))
			}
		}(k)
	}
	run.wg.Wait()
}

// naiveParallelMin is the body count below which a whole-layout naive
// step always takes the serial i<j path regardless of Parallelism. The
// per-body kernel evaluates every pair from both sides — twice the
// arithmetic — so it needs enough workers over enough bodies to amortize;
// below this point it is strictly slower (BENCH_layout.json had
// n=1000/p=4 at 1.7× the p=1 cost). A var, not a const, so tests can
// force the per-body kernel on small graphs. Harmless for determinism:
// both paths are bitwise equal.
var naiveParallelMin = 2048

// naivePairs is the serial whole-layout naive pass: the classic i<j loop
// evaluates each pair once, then every body adds its springs. Each body
// receives bitwise-equal terms in the same ascending-partner order as
// naiveForces, so the two paths agree at every Parallelism.
func (l *Layout) naivePairs() {
	c := l.params.Charge
	for _, b := range l.bodies {
		b.force = Point{}
	}
	for i, a := range l.bodies {
		for _, b := range l.bodies[i+1:] {
			f := coulomb(a, b, c)
			a.force = a.force.Add(f)
			b.force = b.force.Sub(f)
		}
	}
	for i, b := range l.bodies {
		b.force = l.springsOn(i, b.force)
	}
}

// naiveForces is the per-body naive kernel over units [lo, hi): each body
// accumulates exact repulsion over all partners, the pair force always
// evaluated from the lower-index side, then adds its springs.
func (l *Layout) naiveForces(_, lo, hi int) {
	c := l.params.Charge
	for k := lo; k < hi; k++ {
		i := l.unit(k)
		a := l.bodies[i]
		var f Point
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
		a.force = l.springsOn(i, f)
	}
}

// coulomb returns the force pushing a away from b.
func coulomb(a, b *Body, c float64) Point {
	d := a.Pos.Sub(b.Pos)
	dist := d.Norm()
	if dist < 1e-3 {
		// Coincident bodies: push apart along a deterministic direction
		// derived from their IDs.
		angle := float64(fnv64(a.ID+b.ID)%360) / 360 * 2 * math.Pi
		d = Point{math.Cos(angle), math.Sin(angle)}
		dist = 1e-3
	}
	mag := c * a.Charge * b.Charge / (dist * dist)
	return d.Scale(mag / dist)
}

// springsOn adds body i's incident springs to f, in ascending spring
// order. A spring to a body outside the step's index set applies
// one-sidedly: that endpoint is not integrated, so its force is never
// read.
func (l *Layout) springsOn(i int, f Point) Point {
	k := l.params.Spring
	rest := l.params.SpringLength
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
	return f
}

// springForce returns the Hooke force on spring si's A endpoint (B
// receives the exact negation). Zero for degenerate springs. It reads the
// endpoints from the adjacency build, which must be current.
func (l *Layout) springForce(si int, k, rest float64) (Point, bool) {
	e := l.ends[si]
	if e[0] < 0 || e[1] < 0 {
		return Point{}, false
	}
	d := l.bodies[e[1]].Pos.Sub(l.bodies[e[0]].Pos)
	dist := d.Norm()
	if dist < 1e-6 {
		return Point{}, false
	}
	strength := l.springs[si].Strength
	if strength <= 0 {
		strength = 1
	}
	mag := k * strength * (dist - rest)
	return d.Scale(mag / dist), true
}

// buildAdjacency rebuilds the spring→body adjacency: for each body, the
// springs touching it in ascending spring order, encoded ±(index+1) for
// the A/B endpoint; and for each spring, its endpoints' body indices.
// Rebuilt only when SetSprings/RemoveBody(-ies) changed the edge set or
// bodies were added since the last build.
func (l *Layout) buildAdjacency() {
	for i := range l.adj {
		l.adj[i] = l.adj[i][:0]
	}
	for len(l.adj) < len(l.bodies) {
		l.adj = append(l.adj, nil)
	}
	l.adj = l.adj[:len(l.bodies)]
	if cap(l.stiff) < len(l.bodies) {
		l.stiff = make([]float64, len(l.bodies))
	}
	l.stiff = l.stiff[:len(l.bodies)]
	for i := range l.stiff {
		l.stiff[i] = 0
	}
	l.ends = l.ends[:0]
	for si := range l.springs {
		s := &l.springs[si]
		a, b := l.index[s.A], l.index[s.B]
		if a == nil || b == nil {
			l.ends = append(l.ends, [2]int32{-1, -1})
			continue
		}
		l.ends = append(l.ends, [2]int32{int32(a.idx), int32(b.idx)})
		l.adj[a.idx] = append(l.adj[a.idx], int32(si+1))
		l.adj[b.idx] = append(l.adj[b.idx], int32(-(si + 1)))
		w := s.Strength
		if w <= 0 {
			w = 1
		}
		l.stiff[a.idx] += w
		l.stiff[b.idx] += w
	}
	l.adjDirty = false
}

// bodyTimeStep clamps the integration step of one body by its aggregate
// spring stiffness k_i = Spring · Σ incident strengths: the symplectic
// Euler update is only stable while dt·√k < ~2, and a hub body (a
// backbone link with hundreds of attached host links) can exceed that by
// an order of magnitude with the default TimeStep — it then chatters at
// the velocity cap forever and the layout never converges. Ordinary
// bodies (dt²·k ≤ 1) keep the exact global time step, bit for bit.
func (l *Layout) bodyTimeStep(dt float64, i int) float64 {
	if i >= len(l.stiff) {
		return dt
	}
	if k := l.params.Spring * l.stiff[i]; k*dt*dt > 1 {
		return 1 / math.Sqrt(k)
	}
	return dt
}

// integrate moves the bodies of the step's index set, in ascending index
// order, and returns their maximum displacement.
func (l *Layout) integrate() float64 {
	dt := l.params.TimeStep
	damp := l.params.Damping
	maxV := l.params.MaxVelocity
	var maxDisp float64
	for k, n := 0, l.units(); k < n; k++ {
		i := l.unit(k)
		b := l.bodies[i]
		if b.Pinned {
			b.Vel = Point{}
			continue
		}
		dtb := l.bodyTimeStep(dt, i)
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

// KineticEnergy returns Σ ½‖v‖² (unit masses), another convergence
// indicator.
func (l *Layout) KineticEnergy() float64 {
	var e float64
	for _, b := range l.bodies {
		v := b.Vel.Norm()
		e += 0.5 * v * v
	}
	return e
}

// Snapshot captures every body's position.
func (l *Layout) Snapshot() map[string]Point {
	out := make(map[string]Point, len(l.bodies))
	for _, b := range l.bodies {
		out[b.ID] = b.Pos
	}
	return out
}

// MeanDisplacement measures how far the bodies common to two snapshots
// moved — the smoothness metric for aggregation transitions.
func MeanDisplacement(a, b map[string]Point) float64 {
	var sum float64
	n := 0
	ids := make([]string, 0, len(a))
	for id := range a {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if q, ok := b[id]; ok {
			sum += a[id].Sub(q).Norm()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BoundingBox returns the min and max corners of the current layout.
func (l *Layout) BoundingBox() (min, max Point) {
	if len(l.bodies) == 0 {
		return Point{}, Point{}
	}
	min = l.bodies[0].Pos
	max = l.bodies[0].Pos
	for _, b := range l.bodies[1:] {
		min.X = math.Min(min.X, b.Pos.X)
		min.Y = math.Min(min.Y, b.Pos.Y)
		max.X = math.Max(max.X, b.Pos.X)
		max.Y = math.Max(max.Y, b.Pos.Y)
	}
	return min, max
}

// Centroid returns the charge-weighted centroid of the given bodies —
// where an aggregate node should appear for a smooth transition.
func Centroid(bodies []*Body) Point {
	var sum Point
	var w float64
	for _, b := range bodies {
		c := b.Charge
		if c <= 0 {
			c = 1
		}
		sum = sum.Add(b.Pos.Scale(c))
		w += c
	}
	if w == 0 {
		return Point{}
	}
	return sum.Scale(1 / w)
}

// ScatterAround returns n deterministic positions jittered around a
// center — where the children of a disaggregated node should appear.
func ScatterAround(center Point, ids []string, radius float64) []Point {
	out := make([]Point, len(ids))
	for i, id := range ids {
		out[i] = center.Add(jitter(id, radius))
	}
	return out
}

// jitter is a deterministic offset of length radius·[0.5, 1) in a
// direction derived from id's hash.
func jitter(id string, radius float64) Point {
	h := fnv64(id)
	angle := float64(h%3600) / 3600 * 2 * math.Pi
	r := radius * (0.5 + float64((h/3600)%100)/200)
	return Point{r * math.Cos(angle), r * math.Sin(angle)}
}

// fnv64 is the FNV-1a hash, used for deterministic pseudo-random
// placement.
func fnv64(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
