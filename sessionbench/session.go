package main

import (
	"encoding/json"
	"fmt"
	"time"

	"viva/internal/obs"
	"viva/internal/vizgraph"
)

// frameRec is one completed frame of an untraced session.
type frameRec struct {
	dur   time.Duration
	bytes int
}

// session is what an untraced session produced.
type session struct {
	frames  []frameRec
	wall    time.Duration
	actions []action // in order, for reference replays
	digests []uint64 // every response body in order, the set-up's first frame included
}

// validateInline is the largest body the frame client checks for valid
// JSON during the session; larger ones (explore's full graphs) are
// checked by the heap replay, which must reproduce them bit for bit.
const validateInline = 64 << 10

// liveThink is the live frame client's pause between frames. The browser
// UI pauses 150 ms (setTimeout 150 in ui.go); the client pauses a sixth
// as long, for two reasons. At 150 ms a 17 s session has about a hundred
// frames, too few beyond frame_p90_ms for it to repeat from run to run on
// a shared host. And since each stream tick (every 100 ms) invalidates
// the graph, frames come in two kinds: the first after a tick recomputes
// Eq. 1, the rest re-serve the graph and step the layout. At 25 ms about
// three frames in ten recompute, so frame_p50_ms sits inside the
// re-serving kind and frame_p90_ms inside the recomputing kind; a poll
// near 50 ms puts the median on the boundary between them, where it
// jumps from run to run.
const liveThink = 25 * time.Millisecond

// runFrames drives one closed-loop frame client until done reports true
// after a frame. Failed requests are counted in res and their frames
// dropped from the timings.
func runFrames(r *rig, sc *script, s *session, res *result, think time.Duration, done func() bool) {
	c := r.client
	for !done() {
		a := sc.next()
		postPath, postBody, get := a.requests(5)
		var postDigest uint64
		t0 := time.Now()
		ok := true
		n := 0
		if postPath != "" {
			body, status, err := c.do("POST", postPath, postBody)
			res.attempted++
			if err != nil || status/100 != 2 || !json.Valid(body) {
				res.fail("frame %d: POST %s (%s): status %d, body %q: %v", len(s.actions), postPath, a, status, body, err)
				ok = false
			}
			n += len(body)
			postDigest = digest(body)
		}
		body, status, err := c.get(get)
		dur := time.Since(t0)
		res.attempted++
		if err != nil || status != 200 {
			res.fail("frame %d: GET %s: status %d: %v", len(s.actions), get, status, err)
			ok = false
		}
		n += len(body)
		if ok && len(body) <= validateInline && !json.Valid(body) {
			res.fail("frame %d: GET %s: body is not JSON", len(s.actions), get)
			ok = false
		}
		s.actions = append(s.actions, a)
		if postPath != "" {
			s.digests = append(s.digests, postDigest)
		}
		s.digests = append(s.digests, digest(body))
		if ok {
			s.frames = append(s.frames, frameRec{dur: dur, bytes: n})
		}
		if think > 0 {
			time.Sleep(think)
		}
	}
}

// attribution accumulates the traced session's per-frame span totals.
type attribution struct {
	frames int
	ms     map[string]float64 // per-layer metric → summed milliseconds
	wall   time.Duration      // summed traced frame times
}

// runTracedFrames is runFrames with the work of each frame split at layer
// boundaries. The frame sends its mutation POST as an untraced frame does,
// under the core.mutate_ms span: the handler's View call and the HTTP
// exchange around it. Then, under the server lock, it calls View.Graph,
// View.StepLayout(5) and, for pans, vizgraph.BuildLOD directly, each
// under a span; then GET /api/graph?steps=0 has the handler re-serve the
// already-built graph, which is server.encode (minus the LOD the handler
// rebuilds for pans). Inside View.Graph, the program's own frame-ring
// stages split the Eq. 1 aggregation and the graph build out of the core
// time.
//
// Time in no span — mostly waiting for the server lock, which the stream
// publisher holds while it appends on live — is what
// frame.unattributed_ms reconciles against the untraced session.
func runTracedFrames(r *rig, sc *script, rec *recorder, att *attribution, res *result, think time.Duration, done func() bool) {
	mu := r.srv.Locker()
	tree := r.view.Aggregator().Tree()
	lay := r.view.Layout()
	pos := func(id string) (float64, float64, bool) {
		b := lay.Body(id)
		if b == nil {
			return 0, 0, false
		}
		return b.Pos.X, b.Pos.Y, true
	}
	for !done() {
		a := sc.next()
		postPath, postBody, get := a.requests(0)
		t0 := time.Now()
		endFrame := rec.start("frame", "frame")

		if postPath != "" {
			end := rec.start("core", "core.mutate_ms")
			body, status, err := r.client.do("POST", postPath, postBody)
			att.add("core.mutate_ms", end())
			res.attempted++
			if err != nil || status/100 != 2 {
				res.fail("traced frame %d: POST %s (%s): status %d, body %q: %v", att.frames, postPath, a, status, body, err)
			}
		}
		mu.Lock()
		fid := obs.Frames.BeginFrame()
		end := rec.start("core", "core.graph_ms")
		g, err := r.view.Graph()
		att.add("core.graph_ms", end())
		obs.Frames.EndFrame(fid)
		if err != nil {
			mu.Unlock()
			res.fail("traced frame %d: graph: %v", att.frames, err)
			continue
		}
		if f := obs.Frames.Snapshot(1); len(f) == 1 && f[0].Seq == fid {
			for _, st := range f[0].Stages {
				switch st.Stage {
				case "aggregate":
					att.ms["aggregation.stats_ms"] += float64(st.Ns) / 1e6
				case "build":
					att.ms["vizgraph.build_ms"] += float64(st.Ns) / 1e6
				}
			}
		}
		end = rec.start("layout", "layout.step_ms")
		r.view.StepLayout(5)
		att.add("layout.step_ms", end())
		var lod time.Duration
		if a.kind == actPan {
			end = rec.start("vizgraph", "vizgraph.lod_ms")
			vizgraph.BuildLOD(g, tree, pos, a.vp, a.zoom)
			lod = end()
			att.add("vizgraph.lod_ms", lod)
		}
		mu.Unlock()

		s := time.Since(rec.epoch)
		_, status, err := r.client.get(get)
		e := time.Since(rec.epoch)
		res.attempted++
		if err != nil || status != 200 {
			res.fail("traced frame %d: GET %s: status %d: %v", att.frames, get, status, err)
		}
		rec.spans = append(rec.spans, span{"server", "server.encode_ms", s, e - lod})
		att.add("server.encode_ms", e-s-lod)
		endFrame()
		att.wall += time.Since(t0)
		att.frames++
		if think > 0 {
			time.Sleep(think)
		}
	}
}

func (att *attribution) add(metric string, d time.Duration) {
	att.ms[metric] += float64(d) / 1e6
}

// frameMetrics fills the frame end-to-end metrics of an untraced session.
func frameMetrics(s *session, m map[string]float64) error {
	if len(s.frames) == 0 {
		return fmt.Errorf("no frame completed")
	}
	var all []float64
	bytes := 0
	for _, f := range s.frames {
		all = append(all, float64(f.dur)/1e6)
		bytes += f.bytes
	}
	m["frame_p50_ms"] = quantile(all, 0.5)
	m["frame_p90_ms"] = quantile(all, 0.9)
	m["frames_per_s"] = float64(len(s.frames)) / s.wall.Seconds()
	m["frame_kb"] = float64(bytes) / float64(len(s.frames)) / 1e3
	m["frame.mean_ms"] = mean(all)
	// Without a stream every change is the analyst's own action, shown
	// by its frame: the change-to-screen lag is the frame time. The live
	// session overrides it with the stream's lag.
	m["tick_lag_p50_ms"] = m["frame_p50_ms"]
	m["tick_lag_p90_ms"] = m["frame_p90_ms"]
	return nil
}
