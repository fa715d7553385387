package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"

	"viva/internal/ingest"
)

// The text format is a deterministic, Paje-flavoured line format:
//
//	# viva trace v1
//	resource <name> <type> <parent|->
//	edge <a> <b>
//	set <time> <resource> <metric> <value>
//	add <time> <resource> <metric> <delta>
//	state <time> <resource> <value|->
//	end <time>
//
// Names containing whitespace are not supported (and never produced by the
// generators); the format favours diffability and streaming over
// generality.

const formatHeader = "# viva trace v1"

// Write serialises the trace. Resources appear in declaration order;
// events are written as "set" lines sorted by (time, resource, metric), so
// equal traces serialise identically.
func Write(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, formatHeader); err != nil {
		return err
	}
	for _, r := range tr.Resources() {
		parent := r.Parent
		if parent == "" {
			parent = "-"
		}
		if _, err := fmt.Fprintf(bw, "resource %s %s %s\n", r.Name, r.Type, parent); err != nil {
			return err
		}
	}
	for _, e := range tr.Edges() {
		if _, err := fmt.Fprintf(bw, "edge %s %s\n", e.A, e.B); err != nil {
			return err
		}
	}
	type event struct {
		t        float64
		resource string
		metric   string
		v        float64
	}
	var events []event
	for _, k := range tr.varOrder {
		for _, p := range tr.vars[k].Points() {
			events = append(events, event{p.T, k.resource, k.metric, p.V})
		}
	}
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.t != b.t {
			return a.t < b.t
		}
		if a.resource != b.resource {
			return a.resource < b.resource
		}
		return a.metric < b.metric
	})
	for _, e := range events {
		if _, err := fmt.Fprintf(bw, "set %s %s %s %s\n",
			formatFloat(e.t), e.resource, e.metric, formatFloat(e.v)); err != nil {
			return err
		}
	}
	type stateEvent struct {
		t        float64
		resource string
		v        string
	}
	var stateEvents []stateEvent
	for _, name := range tr.order {
		for _, p := range tr.states[name] {
			stateEvents = append(stateEvents, stateEvent{p.t, name, p.v})
		}
	}
	sort.Slice(stateEvents, func(i, j int) bool {
		a, b := stateEvents[i], stateEvents[j]
		if a.t != b.t {
			return a.t < b.t
		}
		return a.resource < b.resource
	})
	for _, e := range stateEvents {
		v := e.v
		if v == "" {
			v = "-"
		}
		if _, err := fmt.Fprintf(bw, "state %s %s %s\n", formatFloat(e.t), e.resource, v); err != nil {
			return err
		}
	}
	_, end := tr.Window()
	if _, err := fmt.Fprintf(bw, "end %s\n", formatFloat(end)); err != nil {
		return err
	}
	return bw.Flush()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Read parses a trace previously produced by Write (or hand-written in the
// same format). It validates the hierarchy before returning. Reading runs
// on the two-stage ingest pipeline with default options; the result is
// identical at every parallelism setting.
func Read(r io.Reader) (*Trace, error) {
	return ReadWith(r, ingest.Options{})
}

// ReadWith is Read with explicit ingestion options.
func ReadWith(r io.Reader, opt ingest.Options) (*Trace, error) {
	tr := New()
	if err := Decode(r, opt, tr.NewAppender()); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// Sink is what a directive applies to: *Trace, *Appender and the
// columnar store's streaming writer all implement it.
type Sink interface {
	DeclareResource(name, typ, parent string) error
	DeclareEdge(a, b string) error
	Set(t float64, resource, metric string, v float64) error
	Add(t float64, resource, metric string, dv float64) error
	SetState(t float64, resource, value string) error
	SetEnd(t float64)
}

// OpKind enumerates trace directives.
type OpKind uint8

const (
	// OpSet sets Resource/Metric to Value from time T on.
	OpSet OpKind = iota
	// OpAdd adds Value to Resource/Metric from time T on.
	OpAdd
	// OpState puts Resource into state Aux at time T ("" = idle).
	OpState
	// OpDeclare declares resource Resource of type Metric under parent
	// Aux ("" = root).
	OpDeclare
	// OpEdge declares a topology edge Resource—Aux.
	OpEdge
	// OpEnd extends the observation window to T.
	OpEnd
)

// Op is one trace directive: a parsed line of the text format, or an
// operation a live source emits. Field use varies by Kind; see the
// OpKind constants.
type Op struct {
	Kind     OpKind
	T        float64
	Resource string
	Metric   string
	Aux      string
	Value    float64
}

// Apply performs the op on s.
func (op Op) Apply(s Sink) error {
	switch op.Kind {
	case OpSet:
		return s.Set(op.T, op.Resource, op.Metric, op.Value)
	case OpAdd:
		return s.Add(op.T, op.Resource, op.Metric, op.Value)
	case OpState:
		return s.SetState(op.T, op.Resource, op.Aux)
	case OpDeclare:
		return s.DeclareResource(op.Resource, op.Metric, op.Aux)
	case OpEdge:
		return s.DeclareEdge(op.Resource, op.Aux)
	case OpEnd:
		s.SetEnd(op.T)
		return nil
	}
	return fmt.Errorf("trace: unknown op kind %d", op.Kind)
}

// Decode scans a text-format trace and applies its directives to s in
// input order, stopping at the first error. An error from s is wrapped
// with the line number (and %w, so sentinel errors stay matchable).
func Decode(r io.Reader, opt ingest.Options, s Sink) error {
	in := ingest.NewInterner()
	events := 0
	err := ingest.Scan(r, ingest.DialectNative, opt, func(lineno int, kind ingest.LineKind, fields [][]byte) error {
		if kind != ingest.LineEvent {
			return nil
		}
		events++
		op, err := ParseOp(lineno, fields, in)
		if err != nil {
			return err
		}
		if err := op.Apply(s); err != nil {
			return fmt.Errorf("trace: line %d: %w", lineno, err)
		}
		return nil
	})
	ingest.Events.Add(uint64(events))
	return err
}

// ParseOp parses the tokens of one event line (at least one) into a
// directive, interning the names it keeps: the tokens are only valid
// during the scan callback.
func ParseOp(lineno int, fields [][]byte, in *ingest.Interner) (Op, error) {
	switch string(fields[0]) {
	case "resource":
		if len(fields) != 4 {
			return Op{}, fmt.Errorf("trace: line %d: resource wants 3 args", lineno)
		}
		return Op{Kind: OpDeclare, Resource: in.Intern(fields[1]), Metric: in.Intern(fields[2]),
			Aux: internOrNone(in, fields[3])}, nil
	case "edge":
		if len(fields) != 3 {
			return Op{}, fmt.Errorf("trace: line %d: edge wants 2 args", lineno)
		}
		return Op{Kind: OpEdge, Resource: in.Intern(fields[1]), Aux: in.Intern(fields[2])}, nil
	case "set", "add":
		if len(fields) != 5 {
			return Op{}, fmt.Errorf("trace: line %d: %s wants 4 args", lineno, fields[0])
		}
		t, err := parseTime(lineno, fields[1])
		if err != nil {
			return Op{}, err
		}
		v, err := strconv.ParseFloat(string(fields[4]), 64)
		if err != nil {
			return Op{}, fmt.Errorf("trace: line %d: bad value %q", lineno, fields[4])
		}
		kind := OpSet
		if fields[0][0] == 'a' {
			kind = OpAdd
		}
		return Op{Kind: kind, T: t, Resource: in.Intern(fields[2]), Metric: in.Intern(fields[3]), Value: v}, nil
	case "state":
		if len(fields) != 4 {
			return Op{}, fmt.Errorf("trace: line %d: state wants 3 args", lineno)
		}
		t, err := parseTime(lineno, fields[1])
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: OpState, T: t, Resource: in.Intern(fields[2]), Aux: internOrNone(in, fields[3])}, nil
	case "end":
		if len(fields) != 2 {
			return Op{}, fmt.Errorf("trace: line %d: end wants 1 arg", lineno)
		}
		t, err := parseTime(lineno, fields[1])
		return Op{Kind: OpEnd, T: t}, err
	}
	return Op{}, fmt.Errorf("trace: line %d: unknown directive %q", lineno, fields[0])
}

func parseTime(lineno int, b []byte) (float64, error) {
	t, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return 0, fmt.Errorf("trace: line %d: bad time %q", lineno, b)
	}
	return t, nil
}

// internOrNone interns a name field, mapping the "-" placeholder to "".
func internOrNone(in *ingest.Interner, b []byte) string {
	if string(b) == "-" {
		return ""
	}
	return in.Intern(b)
}
