package store

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"viva/internal/ingest"
	"viva/internal/obs"
	"viva/internal/paje"
	"viva/internal/trace"
)

// Compaction observability: the span times whole compactions; the
// counters let MB/s be derived from any sink that samples /metrics.
var (
	obsCompactChunks = obs.Default.Counter("viva_store_compact_chunks_total",
		"Chunks flushed by columnar store writers.")
	obsCompactBytes = obs.Default.Counter("viva_store_compact_bytes_total",
		"Chunk bytes (after compression) written by columnar store writers.")
	obsCompactEvents = obs.Default.Counter("viva_store_compact_events_total",
		"Metric points streamed into columnar store writers.")
)

// ErrOutOfOrder reports a metric event earlier than its column's last
// point. The streaming writer computes prefix sums left to right and
// flushes closed chunks, so it cannot insert into the past; callers fall
// back to materializing the trace in heap (WriteTrace), which CompactFile
// does automatically.
var ErrOutOfOrder = errors.New("store: out-of-order event")

// WriterOptions tune the streaming writer.
type WriterOptions struct {
	// ChunkPoints is the number of points per chunk (DefaultChunkPoints
	// when 0). Smaller chunks mean finer-grained reads and a bigger
	// directory; larger chunks compress better but cost more per
	// boundary-chunk decode.
	ChunkPoints int
}

type colKey struct{ resource, metric string }

// colState buffers one column's open chunk plus the running point the
// prefix recurrence needs. The buffer is flushed only when a strictly
// later point arrives on a full buffer, so an equal-time overwrite of
// the last point — the trace model allows it — always lands in the
// buffer, never in a closed chunk.
type colState struct {
	resource, metric string
	times            []float64
	values           []float64
	prefix           []float64
	prevT, prevV     float64 // last appended point
	pref             float64 // prefix value of the last appended point
	started          bool
	chunks           []chunkMeta
}

// Writer streams a trace into the columnar format. Memory stays
// O(columns × ChunkPoints) plus the catalog — never the full trace.
// Events must be time-ordered per column (ErrOutOfOrder otherwise); the
// catalog, states and directory live in the footer written by Close.
type Writer struct {
	w    *bufio.Writer
	off  uint64
	opts WriterOptions

	cat      *trace.Trace // resources, edges, states, end
	declared map[string]bool
	cols     map[colKey]*colState
	colOrder []*colState
	end      float64

	payload []byte // reused chunk encode buffer
	cbuf    bytes.Buffer
	flt     *flate.Writer

	closed bool
}

// NewWriter starts a columnar file on w (the magic is written
// immediately). Close finishes it; nothing is seekable, so the writer
// never revisits written bytes.
func NewWriter(w io.Writer, opts WriterOptions) (*Writer, error) {
	if opts.ChunkPoints <= 0 {
		opts.ChunkPoints = DefaultChunkPoints
	}
	bw := bufio.NewWriterSize(w, 256<<10)
	if _, err := bw.WriteString(Magic); err != nil {
		return nil, err
	}
	flt, err := flate.NewWriter(io.Discard, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	return &Writer{
		w:        bw,
		off:      uint64(len(Magic)),
		opts:     opts,
		cat:      trace.New(),
		declared: make(map[string]bool),
		cols:     make(map[colKey]*colState),
		flt:      flt,
	}, nil
}

// DeclareResource mirrors trace.Trace.DeclareResource.
func (w *Writer) DeclareResource(name, typ, parent string) error {
	if err := w.cat.DeclareResource(name, typ, parent); err != nil {
		return err
	}
	w.declared[name] = true
	return nil
}

// DeclareEdge mirrors trace.Trace.DeclareEdge.
func (w *Writer) DeclareEdge(a, b string) error { return w.cat.DeclareEdge(a, b) }

// SetState mirrors trace.Trace.SetState; states are footer-resident.
func (w *Writer) SetState(t float64, resource, value string) error {
	return w.cat.SetState(t, resource, value)
}

// SetEnd extends the observation window to at least t.
func (w *Writer) SetEnd(t float64) {
	if t > w.end {
		w.end = t
	}
}

func (w *Writer) col(resource, metric string) (*colState, error) {
	if !w.declared[resource] {
		return nil, fmt.Errorf("store: event on undeclared resource %q", resource)
	}
	if metric == "" {
		return nil, fmt.Errorf("store: empty metric name on resource %q", resource)
	}
	k := colKey{resource, metric}
	c, ok := w.cols[k]
	if !ok {
		c = &colState{resource: resource, metric: metric}
		w.cols[k] = c
		w.colOrder = append(w.colOrder, c)
	}
	return c, nil
}

// Set records metric = v on the resource from time t on. Events must be
// time-ordered within each column: a t earlier than the column's last
// point returns ErrOutOfOrder (equal t overwrites the last value, like
// the in-heap trace).
func (w *Writer) Set(t float64, resource, metric string, v float64) error {
	c, err := w.col(resource, metric)
	if err != nil {
		return err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("store: non-finite value for %s/%s at t=%g", resource, metric, t)
	}
	obsCompactEvents.Inc()
	switch {
	case !c.started:
		c.append(t, v, 0)
		c.started = true
	case t > c.prevT:
		if len(c.times) >= w.opts.ChunkPoints {
			if err := w.flush(c); err != nil {
				return err
			}
		}
		// The same left-to-right recurrence the in-heap timeline index
		// runs, so prefix values — and every Integrate derived from them —
		// are bit-identical between store and heap.
		c.append(t, v, c.pref+c.prevV*(t-c.prevT))
	case t == c.prevT:
		// Overwrite of the last point; its prefix integrates only up to
		// t, which did not move, so the buffered prefix stays valid.
		c.values[len(c.values)-1] = v
		c.prevV = v
	default:
		return fmt.Errorf("%w: %s/%s at t=%g after t=%g", ErrOutOfOrder, resource, metric, t, c.prevT)
	}
	if t > w.end {
		w.end = t
	}
	return nil
}

// Add records metric += dv from time t on (the counter idiom of flow
// starts and ends).
func (w *Writer) Add(t float64, resource, metric string, dv float64) error {
	c, err := w.col(resource, metric)
	if err != nil {
		return err
	}
	cur := 0.0
	if c.started {
		if t < c.prevT {
			return fmt.Errorf("%w: %s/%s at t=%g after t=%g", ErrOutOfOrder, resource, metric, t, c.prevT)
		}
		cur = c.prevV
	}
	return w.Set(t, resource, metric, cur+dv)
}

func (c *colState) append(t, v, pref float64) {
	c.times = append(c.times, t)
	c.values = append(c.values, v)
	c.prefix = append(c.prefix, pref)
	c.prevT, c.prevV, c.pref = t, v, pref
}

// flush closes the column's buffered chunk: encode, compress if that
// helps, write, record directory metadata.
func (w *Writer) flush(c *colState) error {
	n := len(c.times)
	if n == 0 {
		return nil
	}
	w.payload = encodeChunkPayload(w.payload, c.times, c.values, c.prefix)

	enc := uint8(encRaw)
	out := w.payload
	w.cbuf.Reset()
	w.flt.Reset(&w.cbuf)
	if _, err := w.flt.Write(w.payload); err != nil {
		return err
	}
	if err := w.flt.Close(); err != nil {
		return err
	}
	if w.cbuf.Len() < len(w.payload) {
		enc = encFlate
		out = w.cbuf.Bytes()
	}

	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range c.values {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	c.chunks = append(c.chunks, chunkMeta{
		off:       w.off,
		clen:      uint32(len(out)),
		ulen:      uint32(24 * n),
		enc:       enc,
		count:     uint32(n),
		firstT:    c.times[0],
		lastT:     c.times[n-1],
		lastV:     c.values[n-1],
		prefFirst: c.prefix[0],
		prefLast:  c.prefix[n-1],
		min:       min,
		max:       max,
	})
	if _, err := w.w.Write(out); err != nil {
		return err
	}
	w.off += uint64(len(out))
	obsCompactChunks.Inc()
	obsCompactBytes.Add(uint64(len(out)))
	c.times, c.values, c.prefix = c.times[:0], c.values[:0], c.prefix[:0]
	return nil
}

// Close flushes every open chunk, writes the footer and trailer, and
// finishes the file. The destination is not closed (the Writer does not
// own it).
func (w *Writer) Close() error {
	if w.closed {
		return errors.New("store: writer already closed")
	}
	w.closed = true
	for _, c := range w.colOrder {
		if err := w.flush(c); err != nil {
			return err
		}
	}

	w.cat.SetEnd(w.end)
	resources := w.cat.Resources()
	resIdx := make(map[string]uint64, len(resources))
	for i, r := range resources {
		resIdx[r.Name] = uint64(i)
	}

	e := &footerEncoder{}
	e.uvarint(uint64(len(resources)))
	for _, r := range resources {
		e.str(r.Name)
		e.str(r.Type)
		e.str(r.Parent)
	}
	edges := w.cat.Edges()
	e.uvarint(uint64(len(edges)))
	for _, ed := range edges {
		e.uvarint(resIdx[ed.A])
		e.uvarint(resIdx[ed.B])
	}
	stateful := w.cat.StatefulResources()
	e.uvarint(uint64(len(stateful)))
	for _, name := range stateful {
		pts := w.cat.StatePoints(name)
		e.uvarint(resIdx[name])
		e.uvarint(uint64(len(pts)))
		for _, p := range pts {
			e.f64(p.T)
			e.str(p.Value)
		}
	}
	_, end := w.cat.Window()
	e.f64(end)
	e.uvarint(uint64(len(w.colOrder)))
	for _, c := range w.colOrder {
		e.uvarint(resIdx[c.resource])
		e.str(c.metric)
		e.uvarint(uint64(len(c.chunks)))
		for i := range c.chunks {
			m := &c.chunks[i]
			e.uvarint(m.off)
			e.uvarint(uint64(m.clen))
			e.uvarint(uint64(m.ulen))
			e.uvarint(uint64(m.enc))
			e.uvarint(uint64(m.count))
			for _, v := range []float64{m.firstT, m.lastT, m.lastV, m.prefFirst, m.prefLast, m.min, m.max} {
				e.f64(v)
			}
		}
	}

	if _, err := w.w.Write(e.buf); err != nil {
		return err
	}
	var trailer [trailerSize]byte
	binary.LittleEndian.PutUint64(trailer[0:], uint64(len(e.buf)))
	binary.LittleEndian.PutUint32(trailer[8:], crc32.ChecksumIEEE(e.buf))
	copy(trailer[12:], Magic)
	if _, err := w.w.Write(trailer[:]); err != nil {
		return err
	}
	return w.w.Flush()
}

// WriteTrace serialises a fully materialized in-heap trace. Per-column
// points are already time-ordered, so this never hits ErrOutOfOrder.
func WriteTrace(out io.Writer, tr *trace.Trace, opts WriterOptions) error {
	w, err := NewWriter(out, opts)
	if err != nil {
		return err
	}
	for _, r := range tr.Resources() {
		if err := w.DeclareResource(r.Name, r.Type, r.Parent); err != nil {
			return err
		}
	}
	for _, e := range tr.Edges() {
		if err := w.DeclareEdge(e.A, e.B); err != nil {
			return err
		}
	}
	for _, r := range tr.Resources() {
		for _, metric := range tr.MetricsOf(r.Name) {
			for _, p := range tr.Timeline(r.Name, metric).Points() {
				if err := w.Set(p.T, r.Name, metric, p.V); err != nil {
					return err
				}
			}
		}
		for _, sp := range tr.StatePoints(r.Name) {
			if err := w.SetState(sp.T, r.Name, sp.Value); err != nil {
				return err
			}
		}
	}
	_, end := tr.Window()
	w.SetEnd(end)
	return w.Close()
}

// CompactFile converts a trace file (native or Paje, optionally
// gzipped) into a columnar .vvc file. Native traces stream straight
// from the ingest scanner into the writer — peak memory is
// O(columns × ChunkPoints), never the trace — with one automatic
// fallback: events that go back in time within a column (legal in the
// heap model, rare in practice) force a second pass that materializes
// the trace first. Paje traces always take the materializing path (the
// Paje applier needs random access to its container state). The whole
// conversion runs under an obs StageCompact span.
func CompactFile(src, dst string, iopt ingest.Options, wopt WriterOptions) error {
	sp := obs.StartSpan(obs.StageCompact)
	defer sp.End()

	err := compact(src, dst, iopt, wopt, false)
	if errors.Is(err, ErrOutOfOrder) {
		err = compact(src, dst, iopt, wopt, true)
	}
	return err
}

// compact converts src to dst in one pass. Native input streams into
// the writer unless materialize is set; Paje and columnar input are
// always materialized in heap first.
func compact(src, dst string, iopt ingest.Options, wopt WriterOptions, materialize bool) (err error) {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	br, head, err := ingest.Sniff(in)
	if err != nil {
		return err
	}
	var tr *trace.Trace
	switch {
	case IsColumnar(head):
		st, serr := Open(src)
		if serr != nil {
			return serr
		}
		defer st.Close()
		tr, err = st.ReadAll()
	case ingest.IsPaje(head):
		tr, err = paje.ReadWith(br, iopt)
	case materialize:
		tr, err = trace.ReadWith(br, iopt)
	}
	if err != nil {
		return err
	}

	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}()
	if tr != nil {
		return WriteTrace(out, tr, wopt)
	}
	w, err := NewWriter(out, wopt)
	if err != nil {
		return err
	}
	if err := trace.Decode(br, iopt, w); err != nil {
		return err
	}
	return w.Close()
}
