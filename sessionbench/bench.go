package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// run performs one benchmark run: the set-ups, the untraced session and
// its checks, and with traced the per-layer session on a fresh set-up.
func (b *bench) run(traced bool) (*result, error) {
	res := &result{metrics: make(map[string]float64)}
	m := res.metrics
	rec := &recorder{epoch: b.epoch}
	r, setup, err := b.setups(rec)
	if err != nil {
		return nil, err
	}
	defer func() { r.close() }()
	for _, d := range perLayer {
		m[d.name] = setup[d.name] // zero for spans this workload has not
	}
	m["setup_s"] = setup["setup_s"]
	m["layout.multilevel_steps"] = float64(r.mlSteps)

	s := b.untraced(r, res)
	if !traced {
		return res, nil
	}

	// The traced session replays the same script from a fresh set-up.
	r.close()
	fresh, err := b.setup(rec)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	r = fresh
	att := &attribution{ms: make(map[string]float64)}
	sc := newScript(b.workload, b.seed, r.view, windowEnd(r))
	runtime.GC() // as before the untraced session
	if b.workload == "live" {
		sse := b.runLive(r, &session{}, res, func(done func() bool) {
			runTracedFrames(r, sc, rec, att, res, liveThink, done)
		})
		res.check(r.shutdown())
		if sse != nil {
			res.check(sse.wait())
		}
	} else {
		deadline := time.Now().Add(b.length)
		runTracedFrames(r, sc, rec, att, res, 0, func() bool { return time.Now().After(deadline) })
		res.check(r.shutdown())
	}
	if att.frames == 0 {
		return nil, fmt.Errorf("traced session completed no frame")
	}
	for k, v := range att.ms {
		m[k] = v / float64(att.frames)
	}
	spans := m["core.mutate_ms"] + m["core.graph_ms"] + m["layout.step_ms"] + m["vizgraph.lod_ms"] + m["server.encode_ms"]
	m["frame.unattributed_ms"] = m["frame.mean_ms"] - spans
	m["obs.trace_overhead_pct"] = 100 * (float64(att.wall)/1e6/float64(att.frames)/m["frame.mean_ms"] - 1)
	b.attributionNotes(res, s, att)

	path := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.viva", b.workload, b.seed))
	err = os.MkdirAll(filepath.Dir(path), 0o755)
	if err == nil {
		err = writeSpans(path, rec.spans)
	}
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	res.note("spans written as a viva trace: %s (%d spans); view with: viva -trace %s", path, len(rec.spans), path)
	return res, nil
}

// windowEnd is the end of the data the session slices: the cold
// trace's on live, whose own trace grows during the session.
func windowEnd(r *rig) float64 {
	if r.heap != nil {
		_, end := r.heap.Window()
		return end
	}
	_, end := r.view.Source().Window()
	return end
}

// untraced runs the measured session on r, fills the end-to-end metrics
// and the per-layer counts, then runs the workload's correctness checks.
func (b *bench) untraced(r *rig, res *result) *session {
	m := res.metrics
	sc := newScript(b.workload, b.seed, r.view, windowEnd(r))
	s := &session{digests: []uint64{digest(r.first)}}
	before, err := scrape(r.client)
	res.check(err)
	runtime.GC() // start the session from a collected heap, not the set-up's garbage

	var sse *sseClient
	if b.workload == "live" {
		sse = b.runLive(r, s, res, func(done func() bool) {
			runFrames(r, sc, s, res, liveThink, done)
		})
	} else {
		start := time.Now()
		deadline := start.Add(b.length)
		runFrames(r, sc, s, res, 0, func() bool { return time.Now().After(deadline) })
		s.wall = time.Since(start)
	}
	after, err := scrape(r.client)
	res.check(err)
	mu := r.srv.Locker()
	mu.Lock()
	m["layout.bodies"] = float64(r.view.Layout().Len())
	mu.Unlock()
	res.check(r.shutdown())
	if sse != nil {
		res.check(sse.wait())
	}

	// Two collections: the first only moves sync.Pool contents to their
	// victim caches, the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["heap_live_mb"] = float64(ms.HeapAlloc) / (1 << 20)

	res.check(frameMetrics(s, m))
	counterMetrics(before, after, len(s.frames), m)
	for _, bad := range []string{"viva_store_read_errors_total", "viva_stream_evictions_total"} {
		if d := after[bad] - before[bad]; d != 0 {
			res.fail("%s rose by %v", bad, d)
		}
	}
	res.note("session: %d frames in %.2fs, %d requests", len(s.frames), s.wall.Seconds(), res.attempted)

	switch b.workload {
	case "explore":
		res.check(b.checkExplore(s))
	case "live":
		if sse == nil {
			break
		}
		rep := r.live.Report()
		m["stream.publish_p50_ms"] = float64(rep.P50) / 1e6
		m["stream.publish_p99_ms"] = float64(rep.P99) / 1e6
		m["stream.sheds"] = float64(rep.Sheds)
		res.check(liveMetrics(r, sse, m))
		d, err := checkLive(r, sse)
		res.check(err)
		s.digests = []uint64{d}
		res.note("live: %d ops replayed at %.3gx in %d ticks, %d snapshots received", len(r.src.t), r.rate, rep.Ticks, len(sse.events))
	}
	res.check(b.checkDigests(s.digests))
	return s
}

// attributionNotes renders where a frame's time goes: each layer's self
// time per frame of the traced session, reconciled against the untraced
// frame mean by the unattributed row, and the set-up the same way.
func (b *bench) attributionNotes(res *result, s *session, att *attribution) {
	m := res.metrics
	core := m["core.graph_ms"] - m["aggregation.stats_ms"] - m["vizgraph.build_ms"]
	res.notes = append(res.notes, layerTable(
		fmt.Sprintf("frame attribution (per-frame means, %d traced frames against %d untraced):", att.frames, len(s.frames)),
		"ms", m["frame.mean_ms"], []row{
			{"aggregation", m["aggregation.stats_ms"]},
			{"vizgraph", m["vizgraph.build_ms"] + m["vizgraph.lod_ms"]},
			{"core", core},
			{"mutation POST", m["core.mutate_ms"]},
			{"layout", m["layout.step_ms"]},
			{"server", m["server.encode_ms"]},
			{"unattributed", m["frame.unattributed_ms"]},
		})...)
	res.notes = append(res.notes, layerTable("set-up attribution (medians):", "s", m["setup_s"], []row{
		{"sim", m["sim.run_s"]},
		{"trace", m["trace.write_s"]},
		{"ingest", m["ingest.load_s"]},
		{"store", m["store.compact_s"]},
		{"core", m["core.newview_s"]},
		{"layout", m["layout.multilevel_s"]},
		{"server", m["server.first_frame_s"]},
		{"unattributed", m["setup.unattributed_s"]},
	})...)
	if b.workload == "live" {
		res.note("stream per-tick stages (means, ms): intake %.4f apply %.4f aggregate %.4f encode %.4f fanout %.4f write %.4f",
			m["stream.stage.intake_ms"], m["stream.stage.apply_ms"], m["stream.stage.aggregate_ms"],
			m["stream.stage.encode_ms"], m["stream.stage.fanout_ms"], m["stream.stage.write_ms"])
	}
}

// row is one line of an attribution table.
type row struct {
	name  string
	value float64
}

// layerTable renders rows with each value's share of total.
func layerTable(title, unit string, total float64, rows []row) []string {
	out := []string{title}
	for _, r := range rows {
		out = append(out, fmt.Sprintf("  %-14s %10.4f %-2s %6.1f%%", r.name, r.value, unit, 100*ratio(r.value, total)))
	}
	return append(out, fmt.Sprintf("  %-14s %10.4f %-2s", "total", total, unit))
}
