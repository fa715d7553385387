package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"viva/internal/layout"
	"viva/internal/vizgraph"
)

// The wire structs /api/graph was once encoded from with json.Marshal.
// They are the decode targets of the server tests and the oracle the
// append encoder must match byte for byte.

type nodeJSON struct {
	ID       string        `json:"id"`
	Group    string        `json:"group"`
	Parent   string        `json:"parent"`
	Type     string        `json:"type"`
	Label    string        `json:"label"`
	Shape    string        `json:"shape"`
	Color    string        `json:"color"`
	Size     float64       `json:"size"`
	Fill     float64       `json:"fill"`
	Avail    float64       `json:"avail"`
	Count    int           `json:"count"`
	Value    float64       `json:"value"`
	X        float64       `json:"x"`
	Y        float64       `json:"y"`
	Pinned   bool          `json:"pinned"`
	Leaf     bool          `json:"leaf"`
	Segments []segmentJSON `json:"segments,omitempty"`
}

type segmentJSON struct {
	Category string  `json:"category"`
	Fraction float64 `json:"fraction"`
	Color    string  `json:"color"`
}

type edgeJSON struct {
	From string `json:"from"`
	To   string `json:"to"`
	Mult int    `json:"mult"`
}

type graphJSON struct {
	Nodes  []nodeJSON    `json:"nodes"`
	Edges  []edgeJSON    `json:"edges"`
	Slice  [2]float64    `json:"slice"`
	Window [2]float64    `json:"window"`
	Params layout.Params `json:"params"`
	Moving float64       `json:"moving"`
}

type lodGroupJSON struct {
	ID      string  `json:"id"`
	Group   string  `json:"group"`
	Type    string  `json:"type"`
	Members int     `json:"members"`
	Count   int     `json:"count"`
	Value   float64 `json:"value"`
	Size    float64 `json:"size"`
	Fill    float64 `json:"fill"`
	Avail   float64 `json:"avail"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
}

type lodJSON struct {
	Nodes  []nodeJSON     `json:"nodes"`
	Groups []lodGroupJSON `json:"groups"`
	Edges  []edgeJSON     `json:"edges"`
	Depth  int            `json:"depth"`
	Slice  [2]float64     `json:"slice"`
	Window [2]float64     `json:"window"`
	Moving float64        `json:"moving"`
}

func nodeToJSON(n placedNode) nodeJSON {
	nj := nodeJSON{
		ID: n.ID, Group: n.Group, Parent: n.parent, Type: n.Type,
		Label: n.Label, Shape: n.Shape.String(), Color: n.Color,
		Size: n.Size, Fill: n.Fill, Avail: n.Avail, Count: n.Count, Value: n.Value,
		X: n.body.Pos.X, Y: n.body.Pos.Y, Pinned: n.body.Pinned, Leaf: n.leaf,
	}
	for _, seg := range n.Segments {
		nj.Segments = append(nj.Segments, segmentJSON{Category: seg.Category, Fraction: seg.Fraction, Color: seg.Color})
	}
	return nj
}

func edgesToJSON(edges []vizgraph.Edge) []edgeJSON {
	var out []edgeJSON
	for _, e := range edges {
		out = append(out, edgeJSON{From: e.From, To: e.To, Mult: e.Multiplicity})
	}
	return out
}

// oracleGraph is json.Marshal over the old full-graph wire form: nil
// lists stay nil, so they encode as null.
func oracleGraph(nodes []placedNode, edges []vizgraph.Edge, p layout.Params, m frameMeta) ([]byte, error) {
	out := graphJSON{Params: p, Moving: m.moving, Slice: m.slice, Window: m.window}
	for _, n := range nodes {
		out.Nodes = append(out.Nodes, nodeToJSON(n))
	}
	out.Edges = edgesToJSON(edges)
	return json.Marshal(out)
}

// oracleLOD is json.Marshal over the old LOD wire form, whose lists
// started out empty rather than nil.
func oracleLOD(nodes []placedNode, groups []*vizgraph.LODGroup, edges []vizgraph.Edge, depth int, m frameMeta) ([]byte, error) {
	out := lodJSON{
		Depth: depth, Moving: m.moving, Slice: m.slice, Window: m.window,
		Nodes: []nodeJSON{}, Groups: []lodGroupJSON{}, Edges: []edgeJSON{},
	}
	for _, n := range nodes {
		out.Nodes = append(out.Nodes, nodeToJSON(n))
	}
	for _, lg := range groups {
		out.Groups = append(out.Groups, lodGroupJSON{
			ID: lg.ID, Group: lg.Group, Type: lg.Type,
			Members: lg.Members, Count: lg.Count, Value: lg.Value,
			Size: lg.Size, Fill: lg.Fill, Avail: lg.Avail, X: lg.X, Y: lg.Y,
		})
	}
	out.Edges = append(out.Edges, edgesToJSON(edges)...)
	return json.Marshal(out)
}

// sameEncoding fails unless the encoder and the oracle agree: equal bytes,
// or errors with equal messages (the handler sends the message).
func sameEncoding(t *testing.T, got []byte, gerr error, want []byte, werr error) {
	t.Helper()
	switch {
	case werr != nil || gerr != nil:
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Fatalf("error mismatch: encoder %v, json.Marshal %v", gerr, werr)
		}
	case !bytes.Equal(got, want):
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(0, i-40)
		t.Fatalf("encodings differ at byte %d:\nencoder:      %q\njson.Marshal: %q",
			i, got[lo:min(len(got), i+40)], want[lo:min(len(want), i+40)])
	}
}

// fuzzSource draws graph content from the fuzzer's bytes: strings and
// floats come from pools of awkward values or straight from the input.
type fuzzSource struct{ data []byte }

var (
	fuzzStrings = []string{
		"", "g5k/host", "rennes/parapide-1/host", "<script>", "a&b>c", `say "hi"`, `back\slash`,
		"\x00\x01\x1f\b\f\n\r\t", "\x7f", "\xff\xfe", "bad\xc3(", "line\u2028sep\u2029", "héllo 中",
	}
	fuzzFloats = []float64{
		0, math.Copysign(0, -1), 1, -2.5, 0.1, 123456789.125, 1e20,
		1e-6, -1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, 1.5e-300, 5e-324,
		1e21, -1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e100, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
)

func (f *fuzzSource) byte() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return b
}

func (f *fuzzSource) take(n int) []byte {
	n = min(n, len(f.data))
	b := f.data[:n]
	f.data = f.data[n:]
	return b
}

func (f *fuzzSource) str() string {
	k := int(f.byte())
	if k < 2*len(fuzzStrings) {
		return fuzzStrings[k%len(fuzzStrings)]
	}
	return string(f.take(k % 24))
}

func (f *fuzzSource) float() float64 {
	k := int(f.byte())
	if k < 2*len(fuzzFloats) {
		return fuzzFloats[k%len(fuzzFloats)]
	}
	var raw [8]byte
	copy(raw[:], f.take(8))
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
}

func (f *fuzzSource) int() int { return int(int16(uint16(f.byte())<<8 | uint16(f.byte()))) }

func (f *fuzzSource) bool() bool { return f.byte()&1 == 1 }

func (f *fuzzSource) node() placedNode {
	n := &vizgraph.Node{
		ID: f.str(), Group: f.str(), Type: f.str(), Label: f.str(),
		Shape: vizgraph.Shape(f.byte() % 4), Color: f.str(),
		Size: f.float(), Fill: f.float(), Avail: f.float(), Count: f.int(), Value: f.float(),
	}
	for k := f.byte() % 3; k > 0; k-- {
		n.Segments = append(n.Segments, vizgraph.Segment{Category: f.str(), Fraction: f.float(), Color: f.str()})
	}
	b := &layout.Body{ID: n.ID, Pos: layout.Point{X: f.float(), Y: f.float()}, Pinned: f.bool()}
	return placedNode{Node: n, body: b, parent: f.str(), leaf: f.bool()}
}

func (f *fuzzSource) edges() []vizgraph.Edge {
	var out []vizgraph.Edge
	for k := f.byte() % 4; k > 0; k-- {
		out = append(out, vizgraph.Edge{From: f.str(), To: f.str(), Multiplicity: f.int()})
	}
	return out
}

// FuzzGraphEncoding asserts the append encoder writes exactly what
// json.Marshal wrote for the old wire structs, for both response forms,
// and fails with the same message on a non-finite number.
func FuzzGraphEncoding(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25})
	f.Add([]byte{1, 3, 1, 2, 3, 4, 5, 1, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 2, 3, 4, 5, 6, 1, 0})
	f.Add([]byte{0, 5, 7, 8, 9, 10, 11, 12, 2, 13, 14, 15, 16, 17, 18, 19, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 2, 200, 'h', 'o', 's', 't', 0xe2, 0x80, 0xa8, '<', 40, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add(bytes.Repeat([]byte{3, 250, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 46}, 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &fuzzSource{data: data}
		lod := src.bool()
		var nodes []placedNode
		for k := src.byte() % 5; k > 0; k-- {
			nodes = append(nodes, src.node())
		}
		edges := src.edges()
		m := frameMeta{
			slice:  [2]float64{src.float(), src.float()},
			window: [2]float64{src.float(), src.float()},
			moving: src.float(),
		}
		if !lod {
			p := layout.Params{
				Charge: src.float(), Spring: src.float(), SpringLength: src.float(), Damping: src.float(),
				Theta: src.float(), TimeStep: src.float(), MaxVelocity: src.float(), Parallelism: src.int(),
			}
			got, gerr := encodeGraph(nodes, edges, p, m)
			want, werr := oracleGraph(nodes, edges, p, m)
			sameEncoding(t, got, gerr, want, werr)
			return
		}
		var groups []*vizgraph.LODGroup
		for k := src.byte() % 4; k > 0; k-- {
			groups = append(groups, &vizgraph.LODGroup{
				ID: src.str(), Group: src.str(), Type: src.str(), Members: src.int(), Count: src.int(),
				Value: src.float(), Size: src.float(), Fill: src.float(), Avail: src.float(),
				X: src.float(), Y: src.float(),
			})
		}
		depth := src.int()
		got, gerr := encodeLOD(nodes, groups, edges, depth, m)
		want, werr := oracleLOD(nodes, groups, edges, depth, m)
		sameEncoding(t, got, gerr, want, werr)
	})
}

// The handler's bytes equal the oracle's over the view state they were
// rendered from, for the full graph and for LOD responses at several
// zooms (steps=0 leaves the layout where the response saw it).
func TestGraphEncodingMatchesOracle(t *testing.T) {
	v := fabricView(t, 20)
	s := New(v)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	get := func(q string) []byte {
		resp, err := http.Get(srv.URL + "/api/graph?" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", q, resp.StatusCode, err)
		}
		return body
	}
	get("steps=30") // move off the seed positions

	g := v.MustGraph()
	tree := v.Aggregator().Tree()
	lay := v.Layout()
	var nodes []placedNode
	for _, n := range g.Nodes {
		if pn, ok := place(tree, lay, n); ok {
			nodes = append(nodes, pn)
		}
	}
	body := get("steps=0")
	var full graphJSON
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	m := s.frameMeta(full.Moving)
	want, err := oracleGraph(nodes, g.Edges, lay.Params(), m)
	sameEncoding(t, body, nil, want, err)

	b := lay.Body(nodes[0].ID).Pos
	vp := vizgraph.Viewport{MinX: b.X - 50, MinY: b.Y - 50, MaxX: b.X + 50, MaxY: b.Y + 50}
	for _, zoom := range []float64{1, 2, 4, 16, 1024} {
		lod := vizgraph.BuildLOD(g, tree, func(id string) (float64, float64, bool) {
			if b := lay.Body(id); b != nil {
				return b.Pos.X, b.Pos.Y, true
			}
			return 0, 0, false
		}, vp, zoom)
		var visible []placedNode
		for _, n := range lod.Visible {
			if pn, ok := place(tree, lay, n); ok {
				visible = append(visible, pn)
			}
		}
		body := get("steps=0&viewport=" + floatQuad(vp.MinX, vp.MinY, vp.MaxX, vp.MaxY) +
			"&zoom=" + strconv.FormatFloat(zoom, 'g', -1, 64))
		var resp lodJSON
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		m.moving = resp.Moving
		want, err := oracleLOD(visible, lod.Groups, lod.Edges, lod.Depth, m)
		sameEncoding(t, body, nil, want, err)
	}
}

// A non-finite number anywhere in the frame is a 400 carrying
// json.Marshal's message, as before the encoder replaced it.
func TestGraphEncodingNonFinite(t *testing.T) {
	n := placedNode{Node: &vizgraph.Node{ID: "a", Size: math.Inf(1), Value: math.NaN()}, body: &layout.Body{}}
	for _, enc := range []func() ([]byte, error){
		func() ([]byte, error) { return encodeGraph([]placedNode{n}, nil, layout.Params{}, frameMeta{}) },
		func() ([]byte, error) { return encodeLOD([]placedNode{n}, nil, nil, 0, frameMeta{}) },
	} {
		got, err := enc()
		if got != nil || err == nil || err.Error() != "json: unsupported value: +Inf" {
			t.Errorf("got %q, %v; want nil and json: unsupported value: +Inf", got, err)
		}
	}
}
