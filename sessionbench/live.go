package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"viva/internal/stream"
	"viva/internal/trace"
)

// stampedSource wraps the program's replay source and records, for every
// op in emission order, its trace time and when the source emitted it.
// With the op's due time on the replay schedule, those stamps give the
// generator's lateness and each op's change-to-screen lag.
type stampedSource struct {
	inner *stream.Replay
	epoch time.Time

	t      []float64       // op trace times
	emitAt []time.Duration // emission stamps, since epoch
}

func (s *stampedSource) Prime(tr *trace.Trace) error { return s.inner.Prime(tr) }

func (s *stampedSource) Run(ctx context.Context, emit func(stream.Op) error) error {
	return s.inner.Run(ctx, func(op stream.Op) error {
		s.t = append(s.t, op.T)
		s.emitAt = append(s.emitAt, time.Since(s.epoch))
		return emit(op)
	})
}

// due returns when op i was due: the replay paces op times at rate from a
// start it takes after sorting its ops, which the first op — due at once,
// at the trace's first instant — marks.
func (s *stampedSource) due(i int, rate float64) time.Duration {
	start := s.emitAt[0] - time.Duration(s.t[0]/rate*float64(time.Second))
	return start + time.Duration(s.t[i]/rate*float64(time.Second))
}

// sseEvent is one snapshot the SSE subscriber received.
type sseEvent struct {
	events int     // ops the snapshot's tick applied
	time   float64 // trace time the snapshot reflects
	at     time.Duration
	gap    bool // deltas were dropped just before this one
}

// sseClient is the live workload's second connection: a subscriber on
// /api/stream that stamps every snapshot on arrival and checks the
// delivery invariant (each delta's seq is the previous seq plus the
// dropped count plus one).
type sseClient struct {
	epoch    time.Time
	done     chan struct{}
	lastSeq  atomic.Uint64
	events   []sseEvent
	shutdown bool
	err      error
}

func dialSSE(base string, epoch time.Time) (*sseClient, error) {
	tr := &http.Transport{DisableCompression: true}
	resp, err := (&http.Client{Transport: tr}).Get(base + "/api/stream")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != 200 {
		resp.Body.Close()
		return nil, fmt.Errorf("/api/stream: status %d", resp.StatusCode)
	}
	c := &sseClient{epoch: epoch, done: make(chan struct{})}
	go func() {
		defer close(c.done)
		defer tr.CloseIdleConnections()
		defer resp.Body.Close()
		c.read(bufio.NewReaderSize(resp.Body, 1<<16))
	}()
	return c, nil
}

func (c *sseClient) read(br *bufio.Reader) {
	var (
		kind    string
		data    []byte
		at      time.Duration
		pending uint64 // dropped since the last delta
		prev    uint64
	)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return // EOF once the server has shut down
		}
		line = bytes.TrimRight(line, "\n")
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			kind = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			at = time.Since(c.epoch)
			data = line[len("data: "):]
		case len(line) == 0 && kind != "":
			switch kind {
			case "gap":
				var g struct{ Dropped uint64 }
				if err := json.Unmarshal(data, &g); err != nil {
					c.fail(fmt.Errorf("gap event: %w", err))
				}
				pending += g.Dropped
			case "delta", "full":
				snap, err := snapshotHeader(data)
				if err != nil {
					c.fail(fmt.Errorf("%s event: %w", kind, err))
					break
				}
				if kind == "delta" && snap.Seq != prev+pending+1 {
					c.fail(fmt.Errorf("delta seq %d after seq %d with %d dropped", snap.Seq, prev, pending))
				}
				c.events = append(c.events, sseEvent{snap.Events, snap.Time, at, pending > 0 || kind == "full"})
				prev, pending = snap.Seq, 0
				c.lastSeq.Store(snap.Seq)
			case "shutdown":
				c.shutdown = true
			}
			kind, data = "", nil
		}
	}
}

// wait blocks until the subscriber's connection has ended, which the
// server's graceful shutdown brings about.
func (c *sseClient) wait() error {
	select {
	case <-c.done:
		return nil
	case <-time.After(30 * time.Second):
		return fmt.Errorf("SSE connection still open 30s after shutdown")
	}
}

// snapshotHead is the leading part of a snapshot payload: the publisher
// encodes seq, time, window and events before the series.
type snapshotHead struct {
	Seq    uint64
	Time   float64
	Events int
}

// snapshotHeader decodes the fields before the series array and stops
// there, so stamping a delta does not cost the client a full decode of
// up to a megabyte of series on the CPUs the server shares.
func snapshotHeader(data []byte) (snapshotHead, error) {
	var h snapshotHead
	dec := json.NewDecoder(bytes.NewReader(data))
	if _, err := dec.Token(); err != nil { // {
		return h, err
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return h, err
		}
		switch key {
		case "seq":
			err = dec.Decode(&h.Seq)
		case "time":
			err = dec.Decode(&h.Time)
		case "events":
			if err = dec.Decode(&h.Events); err == nil {
				return h, nil
			}
		default:
			var skip json.RawMessage
			err = dec.Decode(&skip)
		}
		if err != nil {
			return h, err
		}
	}
	return h, errors.New("no events field")
}

func (c *sseClient) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// runLive runs the live session: the publisher replays the trace over one
// session length while the SSE subscriber and the frame client (polling
// every liveThink) run against it. The session ends when the subscriber
// holds the final snapshot; the caller then ends the run through Serve's
// graceful shutdown and waits for the subscriber. res is touched only
// after the frame client has stopped.
func (b *bench) runLive(r *rig, s *session, res *result, frames func(done func() bool)) *sseClient {
	sse, err := dialSSE(r.client.base, b.epoch)
	res.attempted++
	if err != nil {
		res.fail("subscribe: %v", err)
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := make(chan error, 1)
	start := time.Now()
	go func() { ran <- r.live.Run(ctx) }()

	var stop atomic.Bool
	framed := make(chan struct{})
	go func() {
		defer close(framed)
		frames(stop.Load)
	}()

	limit := time.After(b.length + 60*time.Second)
	select {
	case err = <-ran:
	case <-limit:
		cancel()
		if err = <-ran; err == nil {
			err = fmt.Errorf("replay did not drain in time")
		}
	}
	final := r.live.Seq()
	for err == nil && sse.lastSeq.Load() < final {
		select {
		case <-limit:
			err = fmt.Errorf("subscriber stuck at seq %d of %d", sse.lastSeq.Load(), final)
		case <-time.After(time.Millisecond):
		}
	}
	s.wall = time.Since(start)
	stop.Store(true)
	<-framed
	res.attempted++
	if err != nil {
		res.fail("live session: %v", err)
	}
	return sse
}

// liveMetrics derives the lag metrics from the generator stamps and the
// subscriber's arrivals, and checks that every op reached the client.
func liveMetrics(r *rig, sse *sseClient, m map[string]float64) error {
	src := r.src
	n := len(src.t)
	if n == 0 {
		return fmt.Errorf("replay emitted nothing")
	}
	var lags, late []float64
	for i := 0; i < n; i++ {
		late = append(late, float64(src.emitAt[i]-src.due(i, r.rate))/1e6)
	}
	cum := 0
	for _, ev := range sse.events {
		next := cum + ev.events
		if ev.gap {
			// Dropped deltas hide how many ops they held: every op at or
			// before this snapshot's trace time has arrived by now.
			next = max(cum, sort.Search(n, func(i int) bool { return src.t[i] > ev.time }))
		}
		for i := cum; i < next && i < n; i++ {
			lags = append(lags, float64(ev.at-src.due(i, r.rate))/1e6)
		}
		cum = max(cum, next)
	}
	if cum < n {
		return fmt.Errorf("subscriber saw %d of %d ops", cum, n)
	}
	m["tick_lag_p50_ms"] = quantile(lags, 0.5)
	m["tick_lag_p90_ms"] = quantile(lags, 0.9)
	m["stream.generator_late_ms"] = mean(late)
	return nil
}
