package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"viva/internal/aggregation"
	"viva/internal/core"
	"viva/internal/ingest"
	"viva/internal/masterworker"
	"viva/internal/platform"
	"viva/internal/server"
	"viva/internal/sim"
	"viva/internal/store"
	"viva/internal/stream"
	"viva/internal/trace"
	"viva/internal/traceio"
)

// workloads maps each workload to the aggregation depth its session
// starts at (-1: the leaf cut).
var workloads = map[string]int{
	// Leaf cut of a .vvc store: 4409 bodies, Barnes-Hut steps, LOD and
	// megabyte payloads, with chunk reads past a small cache.
	"explore": -1,
	// Cluster cut while the trace grows under the stream publisher.
	"live": 2,
}

// chunkCacheBytes is the explore store's chunk cache: a quarter of the
// 3.8 MB compacted trace, so frames read chunks past the cache.
const chunkCacheBytes = 1 << 20

// streamTick is vivaserve's default -stream-tick.
const streamTick = 100 * time.Millisecond

type bench struct {
	workload string
	seed     uint64
	length   time.Duration
	work     string    // scratch directory for trace files
	epoch    time.Time // origin of every recorded span and stamp
}

func (b *bench) tracePath() string { return filepath.Join(b.work, "grid.viva") }
func (b *bench) storePath() string { return filepath.Join(b.work, "grid.vvc") }

// rig is one set-up: a served view plus what the session and the checks
// need to reach behind the HTTP API.
type rig struct {
	srv    *server.Server
	view   *core.View
	heap   *trace.Trace   // live: the cold replay source
	store  *store.Store   // explore: the served store
	live   *stream.Stream // live: the publisher
	src    *stampedSource // live: the replay, stamped at the generator
	rate   float64        // live: replay speed in trace-seconds per second
	client *client
	first  []byte // body of the set-up's first frame

	mlSteps  int           // layout.multilevel_steps (explore)
	duration time.Duration // whole set-up

	stopServe context.CancelFunc
	served    chan error
	stopped   bool
	serveErr  error
}

// simulate runs the Fig. 8/9 scenario: Grid'5000 under a bandwidth-centric
// master-worker of 3000 tasks (gridTrace of the root benchmarks).
func simulate() (*trace.Trace, error) {
	p := platform.Grid5000()
	tr := trace.New()
	e := sim.New(p, tr)
	e.TraceCategories(true)
	var hosts []string
	for _, h := range p.Hosts() {
		hosts = append(hosts, h.Name)
	}
	app := &masterworker.App{
		Name: "cpu", MasterHost: "adonis-1", Workers: hosts, TaskCount: 3000,
		TaskFlops: 40 * platform.GFlops, TaskBytes: 0.25 * platform.MB,
		ResultBytes: 10 * platform.KB, Strategy: masterworker.BandwidthCentric,
	}
	if _, err := masterworker.Deploy(e, app); err != nil {
		return nil, err
	}
	if err := e.Run(); err != nil {
		return nil, err
	}
	return tr, nil
}

func writeTrace(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := trace.Write(bw, tr); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setup builds one rig from scratch the way the batch path and vivaserve
// do: simulate → write → load (or compact and open) → view (→ multilevel
// pre-layout) → serve → first frame. Each call's spans go to rec.
func (b *bench) setup(rec *recorder) (_ *rig, err error) {
	t0 := time.Now()
	end := rec.start("sim", "sim.run_s")
	tr, err := simulate()
	end()
	if err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	end = rec.start("trace", "trace.write_s")
	err = writeTrace(b.tracePath(), tr)
	end()
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	tr = nil

	r := &rig{}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	var src aggregation.Source
	switch b.workload {
	case "live":
		end = rec.start("ingest", "ingest.load_s")
		r.heap, err = traceio.Load(b.tracePath())
		end()
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		src = r.heap
	case "explore":
		end = rec.start("store", "store.compact_s")
		err = store.CompactFile(b.tracePath(), b.storePath(), ingest.Options{}, store.WriterOptions{})
		if err == nil {
			r.store, err = store.OpenWith(b.storePath(), store.OpenOptions{CacheBytes: chunkCacheBytes})
		}
		end()
		if err != nil {
			return nil, fmt.Errorf("compact: %w", err)
		}
		src = r.store
	}
	if r.heap != nil {
		// vivaserve -live: the cold trace becomes the replay source, paced
		// so the whole replay takes one session length; the view watches
		// the stream's own live trace grow.
		_, last := r.heap.Window()
		r.rate = last / b.length.Seconds()
		r.src = &stampedSource{inner: stream.NewReplay(r.heap, r.rate), epoch: b.epoch}
		if r.live, err = stream.New(r.src, stream.Config{Tick: streamTick}); err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
		src = r.live.Trace()
	}

	end = rec.start("core", "core.newview_s")
	r.view, err = core.NewViewOf(src)
	if err == nil && workloads[b.workload] >= 0 {
		err = r.view.SetLevel(workloads[b.workload])
	}
	if err == nil {
		r.view.SetParallelism(0)
	}
	end()
	if err != nil {
		return nil, fmt.Errorf("view: %w", err)
	}
	if b.workload == "explore" {
		end = rec.start("layout", "layout.multilevel_s")
		r.mlSteps = r.view.StabilizeMultilevel(0).TotalSteps
		end()
	}

	r.srv = server.New(r.view)
	if r.live != nil {
		r.srv.SetStream(r.live)
		view := r.view
		r.live.Bind(r.srv.Locker(), func(uint64, float64) { view.RefreshSource() })
	}
	if err = r.serve(); err != nil {
		return nil, err
	}
	end = rec.start("server", "server.first_frame_s")
	body, status, err := r.client.get("/api/graph?steps=5")
	end()
	if err == nil && status != 200 {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		return nil, fmt.Errorf("first frame: %w", err)
	}
	r.first = append([]byte(nil), body...)
	r.duration = time.Since(t0)
	return r, nil
}

// serve starts Server.Serve on a fresh 127.0.0.1 port.
func (r *rig) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.stopServe = cancel
	r.served = make(chan error, 1)
	go func() { r.served <- r.srv.Serve(ctx, ln) }()
	r.client = newClient("http://" + ln.Addr().String())
	return nil
}

// shutdown runs Serve's graceful stop once and returns its error: an
// attached stream hub closes first, so SSE clients see event: shutdown.
func (r *rig) shutdown() error {
	if r.stopped || r.stopServe == nil {
		return r.serveErr
	}
	r.stopped = true
	r.stopServe()
	select {
	case r.serveErr = <-r.served:
	case <-time.After(30 * time.Second):
		r.serveErr = errors.New("server did not shut down within 30s")
	}
	r.client.close()
	return r.serveErr
}

func (r *rig) close() {
	_ = r.shutdown()
	if r.store != nil {
		r.store.Close()
		r.store = nil
	}
}

// setupStats are the medians over a run's set-ups: setup_s and each
// set-up span, with the time no span covers as setup.unattributed_s.
type setupStats map[string]float64

// setups runs setupReps set-ups, returning the last rig (which serves the
// session) and the medians. Each set-up starts from a collected heap so
// the ones before it do not bill it for their garbage.
func (b *bench) setups(rec *recorder) (*rig, setupStats, error) {
	samples := make(map[string][]float64)
	var r *rig
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.close()
			r = nil
		}
		runtime.GC()
		sub := &recorder{epoch: rec.epoch}
		var err error
		if r, err = b.setup(sub); err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		rec.spans = append(rec.spans, sub.spans...)
		covered := 0.0
		for _, sp := range sub.spans {
			d := (sp.end - sp.start).Seconds()
			samples[sp.metric] = append(samples[sp.metric], d)
			covered += d
		}
		samples["setup_s"] = append(samples["setup_s"], r.duration.Seconds())
		samples["setup.unattributed_s"] = append(samples["setup.unattributed_s"], r.duration.Seconds()-covered)
	}
	stats := make(setupStats)
	for k, v := range samples {
		stats[k] = median(v)
	}
	return r, stats, nil
}
