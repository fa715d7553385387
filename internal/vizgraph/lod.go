package vizgraph

import (
	"math"

	"viva/internal/aggregation"
)

// Viewport-aware level of detail. A client looking at one rack of a
// 100k-node platform does not need 100k node records per frame: it needs
// full detail for what is on screen and just enough off-screen context to
// keep the picture oriented. BuildLOD splits a visual graph against a
// world-coordinate viewport: nodes inside stay at full detail, nodes
// outside collapse into their hierarchy ancestor at a zoom-derived depth
// — the same spatial aggregation the interactive cut performs, applied
// per-request and without touching the view's state. The payload is then
// bounded by (nodes in view) + (coarse groups), the latter a function of
// the platform hierarchy's width at the chosen depth, not of the total
// node count.
//
// The reduction is deterministic: nodes fold in graph order, groups and
// merged edges keep first-appearance order.

// Viewport is the world-coordinate rectangle the client has on screen.
type Viewport struct {
	MinX, MinY, MaxX, MaxY float64
}

func (vp Viewport) contains(x, y float64) bool {
	return x >= vp.MinX && x <= vp.MaxX && y >= vp.MinY && y <= vp.MaxY
}

// LODDepth maps the client zoom factor to the hierarchy depth used for
// out-of-view groups: zoom 1 (the whole layout on screen) coarsens to
// depth 1, and every doubling of magnification reveals one more level.
// The depth stops one level above the deepest leaves (and never goes
// below the root), so off-screen leaves always fold into their parent
// at least: at any zoom the off-screen part of the payload is bounded by
// the hierarchy's width above the leaves, not by the leaf count.
func LODDepth(zoom float64, maxDepth int) int {
	if zoom <= 0 {
		zoom = 1
	}
	// Clamp before converting: an infinite or NaN zoom has no int value.
	d := maxDepth - 1
	if l := 1 + math.Floor(math.Log2(zoom)); l < float64(d) {
		d = int(l)
	}
	return max(0, d)
}

// LODGroup is one out-of-view coarse group: the aggregate of every
// off-screen node sharing a hierarchy ancestor at the LOD depth and a
// resource type.
type LODGroup struct {
	ID    string // ancestor group + "/" + type
	Group string // ancestor group name
	Type  string
	// Members counts folded fine nodes; Count sums their aggregated
	// entities.
	Members int
	Count   int
	Value   float64
	// Size is area-preserving: the pixel radius whose square is the sum of
	// the members' squared sizes.
	Size float64
	// Fill is the value-weighted mean of the members' fills, Avail the
	// count-weighted mean availability.
	Fill  float64
	Avail float64
	// X, Y is the count-weighted centroid of the members' layout
	// positions — where the group sits in the converged picture.
	X, Y float64
}

// LOD is the reduced graph for one (viewport, zoom) request.
type LOD struct {
	// Depth is the hierarchy depth the out-of-view groups were cut at.
	Depth int
	// Visible lists the in-viewport nodes, full detail, in graph order.
	Visible []*Node
	// Groups lists the out-of-view aggregates in first-appearance order.
	Groups []*LODGroup
	// Edges are remapped onto the reduction: visible↔visible edges pass
	// through untouched, edges with an off-screen endpoint reattach to
	// that endpoint's group, parallel runs merge (multiplicities summed)
	// and intra-group runs vanish.
	Edges []Edge
}

// BuildLOD reduces g against a viewport. pos supplies each node's layout
// position (nodes it does not know are skipped entirely); tree is the
// platform hierarchy the off-screen coarsening follows. Nodes whose group
// has left the hierarchy (or sits above the LOD depth already) aggregate
// under their own group name.
func BuildLOD(g *Graph, tree *aggregation.Tree, pos func(id string) (float64, float64, bool), vp Viewport, zoom float64) *LOD {
	depth := LODDepth(zoom, tree.MaxDepth())
	out := &LOD{Depth: depth}
	groupOf := make(map[string]string, len(g.Nodes)) // node ID → coarse ID ("" = visible)
	groups := make(map[string]*LODGroup)
	weights := make(map[string]float64) // gid → Σ count-weights (with the 0→1 floor)
	for _, n := range g.Nodes {
		x, y, ok := pos(n.ID)
		if !ok {
			continue
		}
		if vp.contains(x, y) {
			groupOf[n.ID] = ""
			out.Visible = append(out.Visible, n)
			continue
		}
		anc, err := tree.AncestorAtDepth(n.Group, depth)
		if err != nil || anc == "" {
			anc = n.Group
		}
		gid := NodeID(anc, n.Type)
		groupOf[n.ID] = gid
		lg := groups[gid]
		if lg == nil {
			lg = &LODGroup{ID: gid, Group: anc, Type: n.Type}
			groups[gid] = lg
			out.Groups = append(out.Groups, lg)
		}
		w := float64(n.Count)
		if w <= 0 {
			w = 1
		}
		lg.Members++
		lg.Count += n.Count
		lg.Value += n.Value
		lg.Size += n.Size * n.Size // area accumulates; sqrt below
		lg.Fill += n.Fill * n.Value
		lg.Avail += n.Avail * w
		lg.X += x * w
		lg.Y += y * w
		weights[gid] += w
	}
	for _, lg := range out.Groups {
		if wsum := weights[lg.ID]; wsum > 0 {
			lg.X /= wsum
			lg.Y /= wsum
			lg.Avail /= wsum
		}
		if lg.Value > 0 {
			lg.Fill /= lg.Value
		} else {
			lg.Fill = 0
		}
		lg.Size = math.Sqrt(lg.Size)
	}

	type pair struct{ a, b string }
	mergedAt := make(map[pair]int)
	for _, e := range g.Edges {
		fa, okA := groupOf[e.From]
		fb, okB := groupOf[e.To]
		if !okA || !okB {
			continue // an endpoint had no position and was dropped
		}
		from, to := e.From, e.To
		if fa != "" {
			from = fa
		}
		if fb != "" {
			to = fb
		}
		if from == to {
			continue // interior to one coarse group
		}
		if fa == "" && fb == "" {
			out.Edges = append(out.Edges, e) // fully visible: full detail
			continue
		}
		key := pair{from, to}
		if key.a > key.b {
			key.a, key.b = key.b, key.a
		}
		if i, ok := mergedAt[key]; ok {
			out.Edges[i].Multiplicity += e.Multiplicity
			continue
		}
		mergedAt[key] = len(out.Edges)
		out.Edges = append(out.Edges, Edge{From: from, To: to, Multiplicity: e.Multiplicity})
	}
	return out
}
