package trace

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"viva/internal/obs"
)

// obsIndexBuilds counts lazy aggregation-index (re)builds: a high rate
// against a low mutation rate means readers race to rebuild, a high rate
// overall means timelines churn under the interactive loop.
var obsIndexBuilds = obs.Default.Counter("viva_trace_index_builds_total",
	"Lazy timeline aggregation-index builds (prefix sums + extrema tree).")

// Point is one sample of a piecewise-constant timeline: the value V holds
// from time T (inclusive) until the time of the next point (exclusive).
type Point struct {
	T float64
	V float64
}

// Timeline is a piecewise-constant function of time. Before the first
// point the value is 0. Points are kept sorted by time; setting a value at
// the time of an existing point overwrites it.
//
// The zero value is an empty timeline, identically 0, ready to use.
//
// # Window semantics
//
// Every windowed query (Integrate, Mean, Max, Min) shares one convention:
// an inverted window (b < a) is empty and yields 0; the degenerate window
// [a, a] contains the single instant a, so Mean, Max and Min return the
// instantaneous value At(a) while Integrate returns 0 (zero measure).
//
// # Concurrency
//
// A timeline is safe for concurrent reads (the aggregation index is
// published atomically) but, like the Trace that owns it, not for
// mutation concurrent with anything else.
type Timeline struct {
	points []Point
	// idx is the lazily built aggregation index; nil after any mutation.
	idx atomic.Pointer[timelineIndex]
	// epoch counts the mutations that rewrite history: out-of-order
	// inserts or overwrites, equal-time overwrites of the last point, and
	// Compact. Pure monotone appends do not bump it, so incremental
	// consumers (aggregation.LiveWindow) can keep cursors across appends
	// and fall back to a full recompute exactly when the past changed.
	epoch uint64
	// owner is the trace holding this timeline (nil for a free-standing
	// one); Set reports every new first point to it for Trace.Window.
	owner *Trace
}

// Epoch returns the history-rewrite counter: it advances on any mutation
// other than a strictly-later append, and stays put across the monotone
// appends of live ingestion.
func (tl *Timeline) Epoch() uint64 { return tl.epoch }

// index returns the aggregation index, building it if a mutation (or
// nothing yet) invalidated it. Concurrent readers may build redundantly;
// the results are identical, so the last store wins harmlessly.
func (tl *Timeline) index() *timelineIndex {
	if ix := tl.idx.Load(); ix != nil {
		return ix
	}
	ix := buildTimelineIndex(tl.points)
	obsIndexBuilds.Inc()
	tl.idx.Store(ix)
	return ix
}

// NewTimeline returns a timeline initialised with the given points, which
// need not be sorted. Duplicate times keep the last value given.
func NewTimeline(points ...Point) *Timeline {
	tl := &Timeline{}
	sorted := make([]Point, len(points))
	copy(sorted, points)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].T < sorted[j].T })
	for _, p := range sorted {
		tl.Set(p.T, p.V)
	}
	return tl
}

// Set records that the value is v from time t on. Out-of-order sets are
// accepted (they insert in the middle), but the common fast path is
// monotonically non-decreasing time. Monotone mutations — appending past
// the last point or overwriting it — extend a live aggregation index in
// place (O(log n)); anything else invalidates it and the next windowed
// query rebuilds.
func (tl *Timeline) Set(t, v float64) {
	n := len(tl.points)
	if tl.owner != nil && (n == 0 || t < tl.points[0].T) {
		tl.owner.noteFirst(t)
	}
	if n == 0 || t > tl.points[n-1].T {
		tl.points = append(tl.points, Point{t, v})
		if ix := tl.idx.Load(); ix != nil {
			tl.idx.Store(ix.appendPoint(tl.points))
		}
		return
	}
	if t == tl.points[n-1].T {
		tl.points[n-1].V = v
		tl.epoch++
		if ix := tl.idx.Load(); ix != nil {
			ix.updateLast(tl.points)
		}
		return
	}
	tl.idx.Store(nil)
	tl.epoch++
	// Out-of-order insert (rare): binary search for position.
	i := sort.Search(n, func(i int) bool { return tl.points[i].T >= t })
	if i < n && tl.points[i].T == t {
		tl.points[i].V = v
		return
	}
	tl.points = append(tl.points, Point{})
	copy(tl.points[i+1:], tl.points[i:])
	tl.points[i] = Point{t, v}
}

// Add records that from time t on the value is the value just before t
// plus dv. It is the natural way to trace resource usage counters
// (flow starts: +rate, flow ends: -rate).
func (tl *Timeline) Add(t, dv float64) {
	tl.Set(t, tl.At(t)+dv)
}

// At returns the value of the timeline at time t.
func (tl *Timeline) At(t float64) float64 {
	// Fast path: queries at or past the last point — the shape of every
	// Add on monotonically advancing time during ingestion.
	if n := len(tl.points); n > 0 && t >= tl.points[n-1].T {
		return tl.points[n-1].V
	}
	i := sort.Search(len(tl.points), func(i int) bool { return tl.points[i].T > t })
	if i == 0 {
		return 0
	}
	return tl.points[i-1].V
}

// Integrate returns ∫_a^b tl(t) dt computed exactly (the timeline is a
// step function). An empty or degenerate window (b <= a) has measure 0.
// The query costs two binary searches over the cumulative-integral index,
// O(log n), independent of how many points the window spans.
func (tl *Timeline) Integrate(a, b float64) float64 {
	if b <= a || len(tl.points) == 0 {
		return 0
	}
	ix := tl.index()
	return ix.integrateTo(tl.points, b) - ix.integrateTo(tl.points, a)
}

// Mean returns the time average of the timeline over [a, b]; it is the
// per-resource temporal aggregation of Equation 1 for a slice of width
// Δ = b − a. An inverted window (b < a) is empty and yields 0; the
// degenerate window [a, a] yields the instantaneous value At(a), the
// limit of the mean as the width goes to 0.
func (tl *Timeline) Mean(a, b float64) float64 {
	if b < a {
		return 0
	}
	if b == a {
		return tl.At(a)
	}
	return tl.Integrate(a, b) / (b - a)
}

// Max returns the maximum value the timeline takes anywhere in [a, b],
// including the implicit 0 before the first point when the window starts
// there. An inverted window (b < a) is empty and yields 0; [a, a] yields
// At(a). The extrema come from the segment index in O(log n).
func (tl *Timeline) Max(a, b float64) float64 {
	if b < a {
		return 0
	}
	v := tl.At(a)
	l, r := tl.windowPoints(a, b)
	if l < r {
		if mm := tl.index().extrema(l, r); mm.max > v {
			v = mm.max
		}
	}
	return v
}

// Min returns the minimum value the timeline takes anywhere in [a, b],
// with the same window semantics as Max.
func (tl *Timeline) Min(a, b float64) float64 {
	if b < a {
		return 0
	}
	v := tl.At(a)
	l, r := tl.windowPoints(a, b)
	if l < r {
		if mm := tl.index().extrema(l, r); mm.min < v {
			v = mm.min
		}
	}
	return v
}

// windowPoints returns the half-open index range [l, r) of points with
// a < T <= b — the points whose values appear inside the window beyond
// the initial segment At(a) covers.
func (tl *Timeline) windowPoints(a, b float64) (l, r int) {
	l = sort.Search(len(tl.points), func(i int) bool { return tl.points[i].T > a })
	r = sort.Search(len(tl.points), func(i int) bool { return tl.points[i].T > b })
	return l, r
}

// integrateScan is the direct O(n) reference implementation of Integrate,
// kept for the indexed-vs-scan equivalence property tests.
func (tl *Timeline) integrateScan(a, b float64) float64 {
	if b <= a || len(tl.points) == 0 {
		return 0
	}
	var sum float64
	// Position of the first point strictly after a.
	i := sort.Search(len(tl.points), func(i int) bool { return tl.points[i].T > a })
	cur := a
	val := 0.0
	if i > 0 {
		val = tl.points[i-1].V
	}
	for ; i < len(tl.points) && tl.points[i].T < b; i++ {
		sum += val * (tl.points[i].T - cur)
		cur = tl.points[i].T
		val = tl.points[i].V
	}
	sum += val * (b - cur)
	return sum
}

// maxScan and minScan are the direct O(n) references for Max and Min.
func (tl *Timeline) maxScan(a, b float64) float64 {
	if b < a {
		return 0
	}
	max := tl.At(a)
	i := sort.Search(len(tl.points), func(i int) bool { return tl.points[i].T > a })
	for ; i < len(tl.points) && tl.points[i].T <= b; i++ {
		if tl.points[i].V > max {
			max = tl.points[i].V
		}
	}
	return max
}

func (tl *Timeline) minScan(a, b float64) float64 {
	if b < a {
		return 0
	}
	min := tl.At(a)
	i := sort.Search(len(tl.points), func(i int) bool { return tl.points[i].T > a })
	for ; i < len(tl.points) && tl.points[i].T <= b; i++ {
		if tl.points[i].V < min {
			min = tl.points[i].V
		}
	}
	return min
}

// Len returns the number of stored points.
func (tl *Timeline) Len() int { return len(tl.points) }

// PointAt returns the i-th stored point without copying the slice — the
// accessor incremental consumers walk the growing tail with. i must be in
// [0, Len()).
func (tl *Timeline) PointAt(i int) Point { return tl.points[i] }

// Points returns a copy of the stored points in time order.
func (tl *Timeline) Points() []Point {
	out := make([]Point, len(tl.points))
	copy(out, tl.points)
	return out
}

// FirstTime returns the time of the first point, or 0 for an empty
// timeline.
func (tl *Timeline) FirstTime() float64 {
	if len(tl.points) == 0 {
		return 0
	}
	return tl.points[0].T
}

// LastTime returns the time of the last point, or 0 for an empty timeline.
func (tl *Timeline) LastTime() float64 {
	if len(tl.points) == 0 {
		return 0
	}
	return tl.points[len(tl.points)-1].T
}

// Clone returns an independent copy of the timeline.
func (tl *Timeline) Clone() *Timeline {
	return &Timeline{points: tl.Points()}
}

// Compact merges consecutive points that carry the same value, preserving
// the function the timeline denotes while shrinking storage. It returns
// the receiver for chaining.
func (tl *Timeline) Compact() *Timeline {
	tl.idx.Store(nil)
	tl.epoch++
	if len(tl.points) == 0 {
		return tl
	}
	out := tl.points[:1]
	for _, p := range tl.points[1:] {
		if p.V != out[len(out)-1].V {
			out = append(out, p)
		}
	}
	tl.points = out
	return tl
}

// String renders the timeline compactly, mainly for tests and debugging.
func (tl *Timeline) String() string {
	s := "["
	for i, p := range tl.points {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%g:%g", p.T, p.V)
	}
	return s + "]"
}

// validNumber reports whether v is a usable metric value (finite).
func validNumber(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
