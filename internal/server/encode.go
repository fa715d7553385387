package server

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"

	"viva/internal/layout"
	"viva/internal/vizgraph"
)

// The /api/graph payload carries thousands of node records per frame, so
// it is written by one append-based encoder instead of encoding/json's
// reflection. The bytes are exactly what json.Marshal wrote for the wire
// structs this encoder replaced (kept in encode_test.go as its oracle):
// the same field order, float formatting and HTML-safe string escaping,
// null versus [] for empty lists as before, and the same error for a
// non-finite number.

// placedNode is one visual node plus what its wire form adds: the layout
// body it sits at and its group's place in the hierarchy.
type placedNode struct {
	*vizgraph.Node
	body   *layout.Body
	parent string // hierarchy parent of the node's group
	leaf   bool   // the group is an atomic entity
}

// frameMeta is the per-response state written beside the lists.
type frameMeta struct {
	slice, window [2]float64
	moving        float64 // last step's max displacement
}

// Approximate wire sizes, for sizing the output buffer up front.
const (
	nodeBytes  = 320
	groupBytes = 200
	edgeBytes  = 64
)

// encodeGraph writes the full-graph response. Empty node and edge lists
// encode as null.
func encodeGraph(nodes []placedNode, edges []vizgraph.Edge, p layout.Params, m frameMeta) ([]byte, error) {
	e := encoder{b: make([]byte, 0, 256+nodeBytes*len(nodes)+edgeBytes*len(edges))}
	e.raw(`{"nodes":`)
	e.nodes(nodes, true)
	e.raw(`,"edges":`)
	e.edges(edges, true)
	e.pair(`,"slice":[`, m.slice)
	e.pair(`,"window":[`, m.window)
	e.raw(`,"params":{"Charge":`)
	e.float(p.Charge)
	e.raw(`,"Spring":`)
	e.float(p.Spring)
	e.raw(`,"SpringLength":`)
	e.float(p.SpringLength)
	e.raw(`,"Damping":`)
	e.float(p.Damping)
	e.raw(`,"Theta":`)
	e.float(p.Theta)
	e.raw(`,"TimeStep":`)
	e.float(p.TimeStep)
	e.raw(`,"MaxVelocity":`)
	e.float(p.MaxVelocity)
	e.raw(`,"Parallelism":`)
	e.int(p.Parallelism)
	e.raw(`},"moving":`)
	e.float(m.moving)
	e.raw(`}`)
	return e.result()
}

// encodeLOD writes the level-of-detail response. Its lists always encode
// as arrays: a zoomed-out client with nothing in view still gets arrays
// it can iterate.
func encodeLOD(nodes []placedNode, groups []*vizgraph.LODGroup, edges []vizgraph.Edge, depth int, m frameMeta) ([]byte, error) {
	e := encoder{b: make([]byte, 0, 256+nodeBytes*len(nodes)+groupBytes*len(groups)+edgeBytes*len(edges))}
	e.raw(`{"nodes":`)
	e.nodes(nodes, false)
	e.raw(`,"groups":[`)
	for i, lg := range groups {
		if i > 0 {
			e.raw(`,`)
		}
		e.group(lg)
	}
	e.raw(`],"edges":`)
	e.edges(edges, false)
	e.raw(`,"depth":`)
	e.int(depth)
	e.pair(`,"slice":[`, m.slice)
	e.pair(`,"window":[`, m.window)
	e.raw(`,"moving":`)
	e.float(m.moving)
	e.raw(`}`)
	return e.result()
}

// encoder appends JSON to b, remembering the first error.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) result() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	return e.b, nil
}

func (e *encoder) raw(s string) { e.b = append(e.b, s...) }

func (e *encoder) nodes(nodes []placedNode, nullIfEmpty bool) {
	if len(nodes) == 0 && nullIfEmpty {
		e.raw(`null`)
		return
	}
	e.raw(`[`)
	for i := range nodes {
		if i > 0 {
			e.raw(`,`)
		}
		e.node(&nodes[i])
	}
	e.raw(`]`)
}

func (e *encoder) node(n *placedNode) {
	e.raw(`{"id":`)
	e.str(n.ID)
	e.raw(`,"group":`)
	e.str(n.Group)
	e.raw(`,"parent":`)
	e.str(n.parent)
	e.raw(`,"type":`)
	e.str(n.Type)
	e.raw(`,"label":`)
	e.str(n.Label)
	e.raw(`,"shape":`)
	e.str(n.Shape.String())
	e.raw(`,"color":`)
	e.str(n.Color)
	e.raw(`,"size":`)
	e.float(n.Size)
	e.raw(`,"fill":`)
	e.float(n.Fill)
	e.raw(`,"avail":`)
	e.float(n.Avail)
	e.raw(`,"count":`)
	e.int(n.Count)
	e.raw(`,"value":`)
	e.float(n.Value)
	e.raw(`,"x":`)
	e.float(n.body.Pos.X)
	e.raw(`,"y":`)
	e.float(n.body.Pos.Y)
	e.raw(`,"pinned":`)
	e.bool(n.body.Pinned)
	e.raw(`,"leaf":`)
	e.bool(n.leaf)
	if len(n.Segments) > 0 {
		e.raw(`,"segments":[`)
		for i, seg := range n.Segments {
			if i > 0 {
				e.raw(`,`)
			}
			e.raw(`{"category":`)
			e.str(seg.Category)
			e.raw(`,"fraction":`)
			e.float(seg.Fraction)
			e.raw(`,"color":`)
			e.str(seg.Color)
			e.raw(`}`)
		}
		e.raw(`]`)
	}
	e.raw(`}`)
}

func (e *encoder) group(lg *vizgraph.LODGroup) {
	e.raw(`{"id":`)
	e.str(lg.ID)
	e.raw(`,"group":`)
	e.str(lg.Group)
	e.raw(`,"type":`)
	e.str(lg.Type)
	e.raw(`,"members":`)
	e.int(lg.Members)
	e.raw(`,"count":`)
	e.int(lg.Count)
	e.raw(`,"value":`)
	e.float(lg.Value)
	e.raw(`,"size":`)
	e.float(lg.Size)
	e.raw(`,"fill":`)
	e.float(lg.Fill)
	e.raw(`,"avail":`)
	e.float(lg.Avail)
	e.raw(`,"x":`)
	e.float(lg.X)
	e.raw(`,"y":`)
	e.float(lg.Y)
	e.raw(`}`)
}

func (e *encoder) edges(edges []vizgraph.Edge, nullIfEmpty bool) {
	if len(edges) == 0 && nullIfEmpty {
		e.raw(`null`)
		return
	}
	e.raw(`[`)
	for i, ed := range edges {
		if i > 0 {
			e.raw(`,`)
		}
		e.raw(`{"from":`)
		e.str(ed.From)
		e.raw(`,"to":`)
		e.str(ed.To)
		e.raw(`,"mult":`)
		e.int(ed.Multiplicity)
		e.raw(`}`)
	}
	e.raw(`]`)
}

// pair writes key (ending in the opening bracket) and a [2]float64.
func (e *encoder) pair(key string, v [2]float64) {
	e.raw(key)
	e.float(v[0])
	e.raw(`,`)
	e.float(v[1])
	e.raw(`]`)
}

func (e *encoder) int(v int) { e.b = strconv.AppendInt(e.b, int64(v), 10) }

func (e *encoder) bool(v bool) { e.b = strconv.AppendBool(e.b, v) }

// float formats like encoding/json: shortest 'f' form, switching to 'e'
// below 1e-6 and from 1e21 on, with the exponent's leading zero dropped.
// A non-finite value is json.Marshal's UnsupportedValueError.
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		n := len(e.b)
		if e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// str writes s quoted. Printable ASCII that encoding/json's HTML-safe
// escaping leaves alone is copied as is; any other string (control
// bytes, quotes, <>&, non-ASCII, invalid UTF-8) goes through json.Marshal.
func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}
