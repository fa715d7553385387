package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"time"

	"viva/internal/core"
	"viva/internal/trace"
	"viva/internal/vizgraph"
)

type actKind uint8

const (
	actPoll actKind = iota
	actSlice
	actAggregate
	actDisaggregate
	actMove
	actPan
)

// action is one analyst action of a session script.
type action struct {
	kind actKind
	a, b float64 // slice start and end, or drag target x and y
	name string  // group clicked or node dragged
	vp   vizgraph.Viewport
	zoom float64
}

// requests returns the frame's HTTP requests: the mutation POST (empty
// path when there is none) and the /api/graph GET with the given steps.
func (a action) requests(steps int) (postPath string, postBody []byte, get string) {
	var req any
	switch a.kind {
	case actSlice:
		postPath, req = "/api/slice", map[string]float64{"start": a.a, "end": a.b}
	case actAggregate:
		postPath, req = "/api/aggregate", map[string]string{"group": a.name}
	case actDisaggregate:
		postPath, req = "/api/disaggregate", map[string]string{"group": a.name}
	case actMove:
		postPath, req = "/api/move", map[string]any{"id": a.name, "x": a.a, "y": a.b, "pin": false}
	}
	if req != nil {
		postBody, _ = json.Marshal(req) // maps of strings, floats and bools always encode
	}
	get = "/api/graph?steps=" + strconv.Itoa(steps)
	if a.kind == actPan {
		f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
		get += "&viewport=" + f(a.vp.MinX) + "," + f(a.vp.MinY) + "," + f(a.vp.MaxX) + "," + f(a.vp.MaxY) +
			"&zoom=" + f(a.zoom)
	}
	return postPath, postBody, get
}

// script generates a workload's session, an endless action sequence that
// depends only on the seed and the (deterministic) set-up, and on live
// also on when its frames run. Every seed runs the same mix of actions;
// seeds differ only in order and targets. Explore deals its actions from
// shuffled decks of fixed composition; live clicks at fixed times.
// Targets are dealt the same way: groups in shuffled passes over all of
// them, slices in shuffled passes over sliceStrata strata of the window,
// so every seed visits the same groups and spans of time about equally
// often. Each click that opens a group is followed by one that closes
// it, so at most one group is aggregated at a time.
type script struct {
	workload string
	rng      *rand.Rand
	end      float64 // cold trace window end
	i        int

	// The groups the analyst clicks (clusters on explore, sites on live)
	// and, on explore, each cluster's hosts for drags.
	groups []string
	hosts  map[string][]string
	open   string // the group aggregated now, "" when none

	// What is left of the current pass over the groups and the strata.
	groupPass []string
	slicePass []int

	// live: when the first frame began, the click pairs begun since,
	// and the second frame of the pair under way, if any.
	began  time.Time
	clicks int
	then   *action

	// explore: the current deck, the settled layout's bounding box, the
	// pan centre, and the zoom of the deck's pans.
	deck   []actKind
	box    vizgraph.Viewport
	cx, cy float64
	zooms  []float64
}

// The explore deck: half viewport pans (four at zoom 1, three at 4,
// three at 16), two cluster aggregate/disaggregate pairs, four drags and
// two never-seen slices.
var (
	exploreDeck = []actKind{
		actPan, actPan, actPan, actPan, actPan, actPan, actPan, actPan, actPan, actPan,
		actAggregate, actAggregate, actAggregate, actAggregate,
		actMove, actMove, actMove, actMove, actSlice, actSlice,
	}
	exploreZooms = []float64{1, 1, 1, 1, 4, 4, 4, 16, 16, 16}
)

// liveClickEvery is the live analyst's pace. Each time another
// liveClickEvery of session time has passed, the next two frames are a
// click pair: alternately a seeded slice and then the whole run again,
// or an aggregate and then the disaggregate of a seeded site. Clicks go
// by the clock, not by frame count, so a session's click count depends
// only on its length, not on how fast the host serves frames, and the
// few click frames stay well under the one frame in ten beyond
// frame_p90_ms.
const liveClickEvery = 4 * time.Second

// newScript builds the session script for the rig's view. Call it before
// the session starts: it reads the view's tree and layout.
func newScript(workload string, seed uint64, v *core.View, end float64) *script {
	s := &script{workload: workload, rng: rand.New(rand.NewPCG(seed, 0x5e55)), end: end}
	tree := v.Aggregator().Tree()
	depth := 2 // explore clicks clusters
	if workload == "live" {
		depth = 1 // live clicks sites on its cluster cut
	}
	s.hosts = make(map[string][]string)
	for _, name := range tree.Names() {
		n := tree.Node(name)
		if n.Depth == depth && !n.IsEntity() {
			s.groups = append(s.groups, name)
			for _, c := range n.Children {
				if tree.Node(c).IsEntity() && v.Source().HasMetric(c, trace.MetricPower) {
					s.hosts[name] = append(s.hosts[name], c)
				}
			}
		}
	}
	if workload == "explore" {
		s.box = vizgraph.Viewport{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
		for _, b := range v.Layout().Bodies() {
			s.box.MinX, s.box.MaxX = min(s.box.MinX, b.Pos.X), max(s.box.MaxX, b.Pos.X)
			s.box.MinY, s.box.MaxY = min(s.box.MinY, b.Pos.Y), max(s.box.MaxY, b.Pos.Y)
		}
		s.cx, s.cy = (s.box.MinX+s.box.MaxX)/2, (s.box.MinY+s.box.MaxY)/2
	}
	return s
}

func (s *script) next() action {
	defer func() { s.i++ }()
	if s.workload == "live" {
		return s.nextLive()
	}
	if len(s.deck) == 0 {
		s.deck = slices.Clone(exploreDeck)
		s.zooms = slices.Clone(exploreZooms)
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
		s.rng.Shuffle(len(s.zooms), func(i, j int) { s.zooms[i], s.zooms[j] = s.zooms[j], s.zooms[i] })
	}
	kind := s.deck[0]
	s.deck = s.deck[1:]
	switch kind {
	case actPan:
		return s.pan()
	case actAggregate:
		return s.click()
	case actMove:
		return s.drag()
	case actSlice:
		return s.freshSlice()
	}
	return action{kind: actPoll}
}

// nextLive is the UI's poll, except for the click pairs. The first
// frame, and the one after each seeded slice, select the whole run, so
// Eq. 1 covers everything the stream has appended so far.
func (s *script) nextLive() action {
	if s.i == 0 {
		s.began = time.Now()
		return action{kind: actSlice, a: 0, b: s.end}
	}
	if s.then != nil {
		a := *s.then
		s.then = nil
		return a
	}
	if time.Since(s.began) < time.Duration(s.clicks+1)*liveClickEvery {
		return action{kind: actPoll}
	}
	s.clicks++
	if s.clicks%2 == 1 {
		s.then = &action{kind: actSlice, a: 0, b: s.end}
		return s.freshSlice()
	}
	open, closed := s.click(), s.click()
	s.then = &closed
	return open
}

// sliceStrata is how many equal strata freshSlice divides the slice
// starts into.
const sliceStrata = 8

// freshSlice is a never-seen slice an eighth of the window wide, starting
// at a seeded point of the pass's next stratum.
func (s *script) freshSlice() action {
	if len(s.slicePass) == 0 {
		s.slicePass = s.rng.Perm(sliceStrata)
	}
	k := s.slicePass[0]
	s.slicePass = s.slicePass[1:]
	w := s.end / 8
	a := (float64(k) + s.rng.Float64()) / sliceStrata * (s.end - w)
	return action{kind: actSlice, a: a, b: a + w}
}

// pan moves the viewport a quarter of its size in a seeded direction,
// staying on the layout, at the deck's next zoom.
func (s *script) pan() action {
	zoom := s.zooms[0]
	s.zooms = s.zooms[1:]
	w, h := (s.box.MaxX-s.box.MinX)/zoom, (s.box.MaxY-s.box.MinY)/zoom
	ang := 2 * math.Pi * s.rng.Float64()
	s.cx = math.Min(math.Max(s.cx+w/4*math.Cos(ang), s.box.MinX), s.box.MaxX)
	s.cy = math.Min(math.Max(s.cy+h/4*math.Sin(ang), s.box.MinY), s.box.MaxY)
	return action{kind: actPan, zoom: zoom,
		vp: vizgraph.Viewport{MinX: s.cx - w/2, MinY: s.cy - h/2, MaxX: s.cx + w/2, MaxY: s.cy + h/2}}
}

// click aggregates the pass's next group, or disaggregates the one it
// aggregated last.
func (s *script) click() action {
	if s.open != "" {
		g := s.open
		s.open = ""
		return action{kind: actDisaggregate, name: g}
	}
	if len(s.groupPass) == 0 {
		s.groupPass = slices.Clone(s.groups)
		s.rng.Shuffle(len(s.groupPass), func(i, j int) {
			s.groupPass[i], s.groupPass[j] = s.groupPass[j], s.groupPass[i]
		})
	}
	s.open = s.groupPass[0]
	s.groupPass = s.groupPass[1:]
	return action{kind: actAggregate, name: s.open}
}

// drag moves a host of a cluster that is not aggregated to a seeded
// point of the layout.
func (s *script) drag() action {
	var free []string
	for _, g := range s.groups {
		if g != s.open && len(s.hosts[g]) > 0 {
			free = append(free, g)
		}
	}
	hs := s.hosts[free[s.rng.IntN(len(free))]]
	return action{kind: actMove, name: vizgraph.NodeID(hs[s.rng.IntN(len(hs))], trace.TypeHost),
		a: s.box.MinX + s.rng.Float64()*(s.box.MaxX-s.box.MinX),
		b: s.box.MinY + s.rng.Float64()*(s.box.MaxY-s.box.MinY)}
}

func (a action) String() string {
	switch a.kind {
	case actSlice:
		return fmt.Sprintf("slice [%g, %g]", a.a, a.b)
	case actAggregate:
		return "aggregate " + a.name
	case actDisaggregate:
		return "disaggregate " + a.name
	case actMove:
		return fmt.Sprintf("move %s to (%g, %g)", a.name, a.a, a.b)
	case actPan:
		return fmt.Sprintf("pan %v zoom %g", a.vp, a.zoom)
	}
	return "poll"
}
