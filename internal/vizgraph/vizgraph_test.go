package vizgraph

import (
	"math"
	"testing"

	"viva/internal/aggregation"
	"viva/internal/trace"
)

// fig1Trace reproduces the paper's running example: two hosts and one link
// with availability (solid) and utilization (dashed) timelines.
func fig1Trace(t *testing.T) *trace.Trace {
	t.Helper()
	tr := trace.New()
	tr.MustDeclareResource("root", trace.TypeGroup, "")
	tr.MustDeclareResource("HostA", trace.TypeHost, "root")
	tr.MustDeclareResource("HostB", trace.TypeHost, "root")
	tr.MustDeclareResource("LinkA", trace.TypeLink, "root")
	set := func(tt float64, r, m string, v float64) {
		t.Helper()
		if err := tr.Set(tt, r, m, v); err != nil {
			t.Fatal(err)
		}
	}
	set(0, "HostA", trace.MetricPower, 100)
	set(0, "HostB", trace.MetricPower, 25)
	set(0, "LinkA", trace.MetricBandwidth, 10000)
	set(0, "HostA", trace.MetricUsage, 50)
	set(0, "HostB", trace.MetricUsage, 25)
	set(0, "LinkA", trace.MetricTraffic, 2500)
	set(10, "HostA", trace.MetricPower, 10)
	set(10, "HostB", trace.MetricPower, 40)
	set(10, "HostA", trace.MetricUsage, 10)
	tr.MustDeclareEdge("HostA", "LinkA")
	tr.MustDeclareEdge("LinkA", "HostB")
	tr.SetEnd(20)
	return tr
}

func build(t *testing.T, tr *trace.Trace, cut *aggregation.Cut, m Mapping, s aggregation.TimeSlice) *Graph {
	t.Helper()
	ag, err := aggregation.NewAggregator(tr)
	if err != nil {
		t.Fatal(err)
	}
	if cut == nil {
		cut = aggregation.NewLeafCut(ag.Tree())
	}
	g, err := Build(ag, cut, m, s)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func near(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Errorf("%s = %g, want %g", what, got, want)
	}
}

func TestShapesAndValues(t *testing.T) {
	tr := fig1Trace(t)
	g := build(t, tr, nil, DefaultMapping(), aggregation.TimeSlice{Start: 0, End: 10})
	if len(g.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(g.Nodes))
	}
	a := g.Node(NodeID("HostA", trace.TypeHost))
	b := g.Node(NodeID("HostB", trace.TypeHost))
	l := g.Node(NodeID("LinkA", trace.TypeLink))
	if a == nil || b == nil || l == nil {
		t.Fatal("expected nodes missing")
	}
	if a.Shape != Square || l.Shape != Diamond {
		t.Error("shapes wrong")
	}
	near(t, "HostA value", a.Value, 100)
	near(t, "HostB value", b.Value, 25)
	near(t, "LinkA value", l.Value, 10000)
	// Fill: HostA used 50/100, HostB 25/25, LinkA 2500/10000.
	near(t, "HostA fill", a.Fill, 0.5)
	near(t, "HostB fill", b.Fill, 1.0)
	near(t, "LinkA fill", l.Fill, 0.25)
	// Leaf nodes carry their plain name as label.
	if a.Label != "HostA" {
		t.Errorf("label = %q", a.Label)
	}
}

// Figure 4 semantics: within a slice, the biggest value of each type maps
// to the maximum pixel size, independently per type.
func TestPerTypeAutomaticScaling(t *testing.T) {
	tr := fig1Trace(t)
	m := DefaultMapping()

	// Scheme A: HostA=100 dominates hosts; LinkA dominates links.
	g := build(t, tr, nil, m, aggregation.TimeSlice{Start: 0, End: 10})
	a := g.Node(NodeID("HostA", trace.TypeHost))
	b := g.Node(NodeID("HostB", trace.TypeHost))
	l := g.Node(NodeID("LinkA", trace.TypeLink))
	near(t, "A size (max host)", a.Size, m.MaxPixel)
	near(t, "B size (quarter)", b.Size, m.MaxPixel/4)
	near(t, "link size (max link)", l.Size, m.MaxPixel)

	// Scheme B: in the second slice HostB=40 becomes the biggest host and
	// must get the same pixel size HostA had in scheme A.
	g = build(t, tr, nil, m, aggregation.TimeSlice{Start: 10, End: 20})
	a = g.Node(NodeID("HostA", trace.TypeHost))
	b = g.Node(NodeID("HostB", trace.TypeHost))
	near(t, "B size (new max)", b.Size, m.MaxPixel)
	near(t, "A size (quarter)", a.Size, m.MaxPixel*10/40)

	// Scheme C: interactive sliders bias each type independently.
	if !m.SetScale(trace.TypeHost, 2) || !m.SetScale(trace.TypeLink, 0.5) {
		t.Fatal("SetScale failed")
	}
	g = build(t, tr, nil, m, aggregation.TimeSlice{Start: 10, End: 20})
	b = g.Node(NodeID("HostB", trace.TypeHost))
	l = g.Node(NodeID("LinkA", trace.TypeLink))
	near(t, "B size (scaled up)", b.Size, m.MaxPixel*2)
	near(t, "link size (scaled down)", l.Size, m.MaxPixel/2)

	// Invalid scales rejected.
	if m.SetScale(trace.TypeHost, 0) || m.SetScale("nope", 1) {
		t.Error("invalid SetScale accepted")
	}
}

func TestEdges(t *testing.T) {
	tr := fig1Trace(t)
	g := build(t, tr, nil, DefaultMapping(), aggregation.TimeSlice{Start: 0, End: 10})
	if len(g.Edges) != 2 {
		t.Fatalf("edges = %v", g.Edges)
	}
	for _, e := range g.Edges {
		if g.Node(e.From) == nil || g.Node(e.To) == nil {
			t.Errorf("edge %v references missing node", e)
		}
	}
}

// Figure 3 semantics: aggregating a group yields one square for all its
// hosts and one diamond for all its links, conserving the summed values.
func TestAggregatedGroupNodes(t *testing.T) {
	tr := fig1Trace(t)
	ag, err := aggregation.NewAggregator(tr)
	if err != nil {
		t.Fatal(err)
	}
	cut := aggregation.NewLeafCut(ag.Tree())
	if err := cut.Aggregate("root"); err != nil {
		t.Fatal(err)
	}
	g, err := Build(ag, cut, DefaultMapping(), aggregation.TimeSlice{Start: 0, End: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2 (one square, one diamond)", len(g.Nodes))
	}
	hostNode := g.Node(NodeID("root", trace.TypeHost))
	linkNode := g.Node(NodeID("root", trace.TypeLink))
	if hostNode == nil || linkNode == nil {
		t.Fatal("aggregate nodes missing")
	}
	near(t, "aggregated host value", hostNode.Value, 125)
	if hostNode.Count != 2 || linkNode.Count != 1 {
		t.Errorf("counts = %d, %d", hostNode.Count, linkNode.Count)
	}
	// Aggregate fill: (50+25)/(100+25) = 0.6.
	near(t, "aggregated host fill", hostNode.Fill, 0.6)
	// Group labels carry the type.
	if hostNode.Label != "root[host]" {
		t.Errorf("label = %q", hostNode.Label)
	}
	// All edges are internal now.
	if len(g.Edges) != 1 {
		// host-link edges collapse to a single square-diamond edge within
		// the group (HostA-LinkA and LinkA-HostB merge).
		t.Errorf("edges = %v, want the internal square-diamond bundle", g.Edges)
	}
	if len(g.Edges) == 1 && g.Edges[0].Multiplicity != 2 {
		t.Errorf("bundle multiplicity = %d, want 2", g.Edges[0].Multiplicity)
	}
}

func TestFillClamped(t *testing.T) {
	tr := trace.New()
	tr.MustDeclareResource("h", trace.TypeHost, "")
	if err := tr.Set(0, "h", trace.MetricPower, 10); err != nil {
		t.Fatal(err)
	}
	if err := tr.Set(0, "h", trace.MetricUsage, 100); err != nil { // over capacity
		t.Fatal(err)
	}
	tr.SetEnd(10)
	g := build(t, tr, nil, DefaultMapping(), aggregation.TimeSlice{Start: 0, End: 10})
	n := g.Node(NodeID("h", trace.TypeHost))
	if n.Fill != 1 {
		t.Errorf("fill = %g, want clamped to 1", n.Fill)
	}
}

func TestUnmappedTypesSkipped(t *testing.T) {
	tr := trace.New()
	tr.MustDeclareResource("x", "exotic", "")
	tr.SetEnd(1)
	g := build(t, tr, nil, DefaultMapping(), aggregation.TimeSlice{Start: 0, End: 1})
	if len(g.Nodes) != 0 {
		t.Errorf("unmapped type drawn: %v", g.Nodes)
	}
}

func TestRouterFixedSize(t *testing.T) {
	tr := trace.New()
	tr.MustDeclareResource("core", "router", "")
	tr.SetEnd(1)
	m := DefaultMapping()
	g := build(t, tr, nil, m, aggregation.TimeSlice{Start: 0, End: 1})
	n := g.Node(NodeID("core", "router"))
	if n == nil {
		t.Fatal("router node missing")
	}
	if n.Shape != Circle {
		t.Error("router not a circle")
	}
	near(t, "router size", n.Size, m.MaxPixel*0.25)
	if n.Count != 1 {
		t.Errorf("router count = %d", n.Count)
	}
}

func TestMinPixelFloor(t *testing.T) {
	tr := trace.New()
	tr.MustDeclareResource("g", trace.TypeGroup, "")
	tr.MustDeclareResource("big", trace.TypeHost, "g")
	tr.MustDeclareResource("tiny", trace.TypeHost, "g")
	if err := tr.Set(0, "big", trace.MetricPower, 1e9); err != nil {
		t.Fatal(err)
	}
	if err := tr.Set(0, "tiny", trace.MetricPower, 1); err != nil {
		t.Fatal(err)
	}
	tr.SetEnd(1)
	m := DefaultMapping()
	g := build(t, tr, nil, m, aggregation.TimeSlice{Start: 0, End: 1})
	n := g.Node(NodeID("tiny", trace.TypeHost))
	if n.Size != m.MinPixel {
		t.Errorf("tiny size = %g, want MinPixel %g", n.Size, m.MinPixel)
	}
}

func TestBuildRejectsBadMapping(t *testing.T) {
	tr := fig1Trace(t)
	ag, _ := aggregation.NewAggregator(tr)
	cut := aggregation.NewLeafCut(ag.Tree())
	if _, err := Build(ag, cut, Mapping{}, aggregation.TimeSlice{Start: 0, End: 1}); err == nil {
		t.Error("zero MaxPixel accepted")
	}
}

func TestSegmentsPerCategory(t *testing.T) {
	tr := trace.New()
	tr.MustDeclareResource("g", trace.TypeGroup, "")
	tr.MustDeclareResource("h1", trace.TypeHost, "g")
	tr.MustDeclareResource("h2", trace.TypeHost, "g")
	set := func(r, m string, v float64) {
		t.Helper()
		if err := tr.Set(0, r, m, v); err != nil {
			t.Fatal(err)
		}
	}
	set("h1", trace.MetricPower, 100)
	set("h2", trace.MetricPower, 100)
	set("h1", trace.MetricUsage, 80)
	set("h2", trace.MetricUsage, 40)
	set("h1", trace.MetricUsage+":app1", 60)
	set("h1", trace.MetricUsage+":app2", 20)
	set("h2", trace.MetricUsage+":app1", 40)
	tr.SetEnd(10)

	ag, err := aggregation.NewAggregator(tr)
	if err != nil {
		t.Fatal(err)
	}
	cut := aggregation.NewLeafCut(ag.Tree())
	if err := cut.Aggregate("g"); err != nil {
		t.Fatal(err)
	}
	m := DefaultMapping()
	m.TypeMapping(trace.TypeHost).SegmentCategories = []string{"app1", "app2", "absent"}
	g, err := Build(ag, cut, m, aggregation.TimeSlice{Start: 0, End: 10})
	if err != nil {
		t.Fatal(err)
	}
	n := g.Node(NodeID("g", trace.TypeHost))
	if n == nil {
		t.Fatal("aggregate node missing")
	}
	// Total fill: (80+40)/200 = 0.6.
	near(t, "total fill", n.Fill, 0.6)
	if len(n.Segments) != 2 {
		t.Fatalf("segments = %v (absent category must be dropped)", n.Segments)
	}
	near(t, "app1 segment", n.Segments[0].Fraction, 100.0/200.0)
	near(t, "app2 segment", n.Segments[1].Fraction, 20.0/200.0)
	if n.Segments[0].Color == n.Segments[1].Color {
		t.Error("segment colors not distinct")
	}
	// Segments sum to the total fill here (all usage is categorised).
	sum := n.Segments[0].Fraction + n.Segments[1].Fraction
	near(t, "segments sum to fill", sum, n.Fill)
}

// The paper's conclusion: summed link aggregation hides saturation. The
// max-ratio mode keeps one saturated member visible in the aggregate.
func TestFillMaxRatio(t *testing.T) {
	tr := trace.New()
	tr.MustDeclareResource("g", trace.TypeGroup, "")
	set := func(r, m string, v float64) {
		t.Helper()
		if err := tr.Set(0, r, m, v); err != nil {
			t.Fatal(err)
		}
	}
	for i, util := range []float64{1.0, 0.1, 0.0, 0.05} { // one saturated link
		name := "l" + string(rune('0'+i))
		tr.MustDeclareResource(name, trace.TypeLink, "g")
		set(name, trace.MetricBandwidth, 1000)
		set(name, trace.MetricTraffic, util*1000)
	}
	tr.SetEnd(10)
	ag, err := aggregation.NewAggregator(tr)
	if err != nil {
		t.Fatal(err)
	}
	cut := aggregation.NewLeafCut(ag.Tree())
	if err := cut.Aggregate("g"); err != nil {
		t.Fatal(err)
	}
	slice := aggregation.TimeSlice{Start: 0, End: 10}

	// Default ratio semantics dilute the bottleneck: (1000+100+0+50)/4000.
	m := DefaultMapping()
	g, err := Build(ag, cut, m, slice)
	if err != nil {
		t.Fatal(err)
	}
	diluted := g.Node(NodeID("g", trace.TypeLink)).Fill
	near(t, "ratio fill", diluted, 1150.0/4000.0)

	// Max-ratio keeps the saturated member visible.
	m.TypeMapping(trace.TypeLink).FillAggregation = FillMaxRatio
	g, err = Build(ag, cut, m, slice)
	if err != nil {
		t.Fatal(err)
	}
	near(t, "max fill", g.Node(NodeID("g", trace.TypeLink)).Fill, 1.0)
}

func TestShapeString(t *testing.T) {
	if Square.String() != "square" || Diamond.String() != "diamond" || Circle.String() != "circle" {
		t.Error("shape names wrong")
	}
	if Shape(9).String() == "" {
		t.Error("unknown shape has empty name")
	}
}

func TestNodeAvailability(t *testing.T) {
	tr := fig1Trace(t)
	set := func(tt float64, r, m string, v float64) {
		t.Helper()
		if err := tr.Set(tt, r, m, v); err != nil {
			t.Fatal(err)
		}
	}
	// HostB crashed for the first half of the slice; LinkA for all of it.
	set(0, "HostA", trace.MetricAvailability, 1)
	set(0, "HostB", trace.MetricAvailability, 0)
	set(5, "HostB", trace.MetricAvailability, 1)
	set(0, "LinkA", trace.MetricAvailability, 0)
	g := build(t, tr, nil, DefaultMapping(), aggregation.TimeSlice{Start: 0, End: 10})
	near(t, "HostA avail", g.Node(NodeID("HostA", trace.TypeHost)).Avail, 1)
	near(t, "HostB avail", g.Node(NodeID("HostB", trace.TypeHost)).Avail, 0.5)
	near(t, "LinkA avail", g.Node(NodeID("LinkA", trace.TypeLink)).Avail, 0)
}

func TestNodeAvailabilityDefaultsToOne(t *testing.T) {
	g := build(t, fig1Trace(t), nil, DefaultMapping(), aggregation.TimeSlice{Start: 0, End: 10})
	for _, n := range g.Nodes {
		if n.Avail != 1 {
			t.Errorf("node %s avail = %g, want 1 without fault data", n.ID, n.Avail)
		}
	}
}

// LODDepth reveals one level per doubling of zoom but stops one level
// above the leaves, and stays defined for any zoom a query can carry.
func TestLODDepth(t *testing.T) {
	for _, c := range []struct {
		zoom     float64
		maxDepth int
		want     int
	}{
		{1, 3, 1}, {1.9, 3, 1}, {2, 3, 2}, {3.9, 3, 2}, {4, 3, 2}, {16, 3, 2}, {1024, 3, 2},
		{0.5, 3, 0}, {1e-300, 3, 0}, {0, 3, 1}, {-2, 3, 1},
		{math.Inf(1), 3, 2}, {math.NaN(), 3, 2},
		{1, 1, 0}, {1024, 1, 0}, {1, 0, 0}, {64, 8, 7},
	} {
		if got := LODDepth(c.zoom, c.maxDepth); got != c.want {
			t.Errorf("LODDepth(%g, %d) = %d, want %d", c.zoom, c.maxDepth, got, c.want)
		}
	}
}
