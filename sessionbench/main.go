// Command sessionbench is viva's end-to-end benchmark. It replays a seeded
// analyst session against the real server.Handler, served by Server.Serve
// on 127.0.0.1, and reports what the analyst waits for. Run it from the
// repository root:
//
//	bash sessionbench/run.sh --workload explore|live --seed N --seconds S --trace 0|1
//
// explore serves a .vvc store at the leaf cut; live replays the trace
// through the stream publisher beside a frame client at the cluster cut.
// Every workload runs on the trace of the paper's Figs. 8 and 9: Grid'5000
// (2170 hosts, 4444 resources) under a bandwidth-centric master-worker of
// 3000 tasks. The seed drives only the session script: slice positions,
// the groups clicked, pan paths and drag targets.
//
// A frame is one analyst action plus the /api/graph response that shows
// it: the mutation POST (/api/slice, /api/aggregate, /api/disaggregate or
// /api/move), if there is one, then GET /api/graph?steps=5, the request
// the browser UI polls with. A frame is timed from sending the POST to
// reading the last byte of the GET. Clients run closed loop: each sends
// its next request only after the previous reply.
//
// With --trace 0 the run prints the end-to-end metrics (see endToEnd) and
// the error rate, failed over attempted operations; the last line carries
// that rate as its failed and attempted counts. A failed operation is a
// non-2xx reply, an undecodable body, a failed correctness check, an SSE
// eviction, an unclean shutdown or a store read error; any of them makes
// the run exit non-zero.
// With --trace 1 it runs the same untraced session, then a second session
// on a fresh set-up whose frames send the same mutation POSTs and call
// the rest of each layer's public functions directly, under spans
// recorded by this program (see runTracedFrames). It prints every
// per-layer metric together with the end-to-end metric it should move
// (see perLayer), the attribution table with its unattributed row, and
// writes the spans as a native viva trace that `viva -trace` renders.
// The benchmark adds no instrumentation to the program: counts are deltas
// of the server's own /metrics counters.
//
// Not covered yet: more than two concurrent client connections, which a
// 2-CPU machine cannot drive without measuring its own contention, and
// View.Stabilize / Layout.RefineLocal, which no HTTP route calls.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"time"
)

// outDir holds everything a run leaves behind, relative to the checkout
// root the benchmark runs from.
const outDir = ".bench_build/sessionbench"

// setupReps is how many times each run sets up from scratch; setup_s is
// their median and the last set-up serves the session. Three keep an
// explore run, whose set-up takes several seconds, well inside the time
// a run may take.
const setupReps = 3

// metricDef names one reported metric. For per-layer metrics, moves and
// on record which end-to-end metric the layer should move, on which
// workload.
type metricDef struct {
	name, unit string
	moves, on  string
}

// endToEnd lists what a user of the system sees, in print order.
// tick_lag is the change-to-screen lag: on live the time from when a
// replayed trace op was due to the SSE client receiving the first
// snapshot holding it; on explore, where every change is the
// analyst's own action, the frame time that shows it.
var endToEnd = []metricDef{
	{name: "frame_p50_ms", unit: "ms"},
	{name: "frame_p90_ms", unit: "ms"},
	{name: "frames_per_s", unit: "1/s"},
	{name: "frame_kb", unit: "kB"},
	{name: "tick_lag_p50_ms", unit: "ms"},
	{name: "tick_lag_p90_ms", unit: "ms"},
	{name: "setup_s", unit: "s"},
	{name: "heap_live_mb", unit: "MB"},
}

// perLayer is the layer → end-to-end metric → workload map. Frame times
// are means per frame of the traced session, so the frame rows add up to
// frame.mean_ms; set-up times are medians over the run's set-ups; counts
// are deltas of /metrics counters over the untraced session.
var perLayer = []metricDef{
	{"sim.run_s", "s", "setup_s", "all"},
	{"trace.write_s", "s", "setup_s", "all"},
	{"ingest.load_s", "s", "setup_s", "live"},
	{"store.compact_s", "s", "setup_s", "explore"},
	{"core.newview_s", "s", "setup_s", "all"},
	{"layout.multilevel_s", "s", "setup_s", "explore"},
	{"layout.multilevel_steps", "count", "setup_s", "explore"},
	{"server.first_frame_s", "s", "setup_s", "all"},
	{"setup.unattributed_s", "s", "setup_s", "all"},
	{"core.mutate_ms", "ms", "frame_p90_ms", "explore"},
	{"core.graph_ms", "ms", "frame_p90_ms", "live"},
	{"aggregation.stats_ms", "ms", "frame_p90_ms", "live"},
	{"vizgraph.build_ms", "ms", "frame_p90_ms", "live"},
	{"core.rebuilds_per_frame", "count", "frame_p90_ms", "live"},
	{"layout.step_ms", "ms", "frame_p50_ms", "explore"},
	{"layout.bodies", "count", "frame_p50_ms", "explore"},
	{"vizgraph.lod_ms", "ms", "frame_p50_ms", "explore"},
	{"server.encode_ms", "ms", "frame_p50_ms", "explore"},
	{"frame.unattributed_ms", "ms", "frame_p90_ms", "live"},
	{"frame.mean_ms", "ms", "frame_p50_ms", "all"},
	{"server.graph_cache_hit_ratio", "ratio", "frame_p50_ms", "explore"},
	{"aggregation.stats_hit_ratio", "ratio", "frame_p90_ms", "live"},
	{"aggregation.member_resolves_per_frame", "count", "frame_p90_ms", "live"},
	{"vizgraph.edge_cache_hit_ratio", "ratio", "frame_p90_ms", "live"},
	{"store.chunk_hit_ratio", "ratio", "frame_p90_ms", "explore"},
	{"store.chunk_misses_per_frame", "count", "frame_p90_ms", "explore"},
	{"trace.index_builds_per_frame", "count", "frame_p90_ms", "live"},
	{"stream.publish_p50_ms", "ms", "tick_lag_p90_ms", "live"},
	{"stream.publish_p99_ms", "ms", "tick_lag_p90_ms", "live"},
	{"stream.stage.intake_ms", "ms", "tick_lag_p90_ms", "live"},
	{"stream.stage.apply_ms", "ms", "tick_lag_p90_ms", "live"},
	{"stream.stage.aggregate_ms", "ms", "tick_lag_p90_ms", "live"},
	{"stream.stage.encode_ms", "ms", "tick_lag_p90_ms", "live"},
	{"stream.stage.fanout_ms", "ms", "tick_lag_p90_ms", "live"},
	{"stream.stage.write_ms", "ms", "tick_lag_p90_ms", "live"},
	{"stream.sheds", "count", "tick_lag_p90_ms", "live"},
	{"stream.dropped", "count", "tick_lag_p90_ms", "live"},
	{"stream.generator_late_ms", "ms", "tick_lag_p50_ms", "live"},
	{"obs.trace_overhead_pct", "%", "none (traced against untraced session)", "all"},
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "explore or live")
	seed := flag.Uint64("seed", 1, "seed of the session script")
	seconds := flag.Int("seconds", 17, "length of the measured session in seconds")
	traced := flag.Int("trace", 0, "1: also run the traced session and report per-layer metrics")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: sessionbench --workload explore|live --seed N --seconds S --trace 0|1")
		return 2
	}
	// The server logs its cache summary on every shutdown; keep warnings.
	slog.SetLogLoggerLevel(slog.LevelWarn)

	work := filepath.Join(outDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "sessionbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	b := &bench{
		workload: *workload,
		seed:     *seed,
		length:   time.Duration(*seconds) * time.Second,
		work:     work,
		epoch:    time.Now(),
	}
	m := fingerprint()
	fmt.Printf("machine: nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s\n",
		m.NProc, m.GOMAXPROCS, m.CPU, m.GoVersion, m.Commit)
	fmt.Printf("run: workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *traced)

	res, err := b.run(*traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sessionbench:", err)
		return 1
	}
	for _, line := range res.notes {
		fmt.Println(line)
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	out := output{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "sessionbench: metric %s was not measured\n", d.name)
			return 1
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		extra := ""
		if *traced == 1 {
			extra = fmt.Sprintf("  (moves %s on %s)", d.moves, d.on)
		}
		fmt.Printf("%-38s %14.4f %-5s%s\n", d.name, v, d.unit, extra)
	}
	fmt.Printf("%-38s %14.4f %-5s (%d of %d operations failed)\n", "error_rate",
		ratio(float64(res.failed), float64(res.attempted)), "ratio", res.failed, res.attempted)
	for _, f := range res.failures {
		fmt.Println("FAILED:", f)
	}
	if err := saveResult(record{time.Now().UTC().Format(time.RFC3339), m, *workload, *seed, *seconds, *traced, res.failures, out}); err != nil {
		fmt.Fprintln(os.Stderr, "sessionbench: saving result:", err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sessionbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// output is the run's last line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricValue is one metric as the last output line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run measured and checked.
type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
	failures  []string // the first maxFailures failed operations or checks
	notes     []string // human-readable report lines
}

// maxFailures caps the failures a run lists; failed counts them all.
const maxFailures = 20

// fail records a failed operation or check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < maxFailures {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted check and records it when it fails.
func (r *result) check(err error) {
	r.attempted++
	if err != nil {
		r.fail("%v", err)
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// record is one line of the results log: the run, its seed and the
// machine fingerprint, so every number stays tied to where it was
// measured.
type record struct {
	Time     string   `json:"time"`
	Machine  machine  `json:"machine"`
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Seconds  int      `json:"seconds"`
	Trace    int      `json:"trace"`
	Failures []string `json:"failures,omitempty"`
	output
}

// saveResult appends rec to the results log.
func saveResult(rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(outDir, "results.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
