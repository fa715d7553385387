package main

import (
	"bufio"
	"cmp"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"viva/internal/trace"
)

// quantile is the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(slices.Clone(xs), 0.5) }

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// ratio is num/den, 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// scrape reads the server's /metrics exposition into series → value.
func scrape(c *client) (map[string]float64, error) {
	body, status, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// counterMetrics turns /metrics deltas over an untraced session of n
// frames into the per-layer count metrics.
func counterMetrics(before, after map[string]float64, n int, m map[string]float64) {
	d := func(series string) float64 { return after[series] - before[series] }
	per := func(series string) float64 { return d(series) / float64(max(n, 1)) }
	hitRatio := func(hits, misses string) float64 { return ratio(d(hits), d(hits)+d(misses)) }
	m["core.rebuilds_per_frame"] = per("viva_core_graph_rebuilds_total")
	m["server.graph_cache_hit_ratio"] = hitRatio("viva_server_graph_cache_hits_total", "viva_server_graph_cache_misses_total")
	m["aggregation.stats_hit_ratio"] = hitRatio("viva_agg_stats_cache_hits_total", "viva_agg_stats_cache_misses_total")
	m["aggregation.member_resolves_per_frame"] = per("viva_agg_member_resolves_total")
	m["vizgraph.edge_cache_hit_ratio"] = hitRatio("viva_vizgraph_edge_cache_hits_total", "viva_vizgraph_edge_cache_misses_total")
	m["store.chunk_hit_ratio"] = hitRatio("viva_store_chunk_cache_hits_total", "viva_store_chunk_cache_misses_total")
	m["store.chunk_misses_per_frame"] = per("viva_store_chunk_cache_misses_total")
	m["trace.index_builds_per_frame"] = per("viva_trace_index_builds_total")
	for _, st := range []string{"intake", "apply", "aggregate", "encode", "fanout", "write"} {
		series := `viva_stream_stage_seconds_%s{stage="` + st + `"}`
		m["stream.stage."+st+"_ms"] = 1e3 * ratio(d(fmt.Sprintf(series, "sum")), d(fmt.Sprintf(series, "count")))
	}
	m["stream.dropped"] = d("viva_stream_dropped_total")
}

// machine is the fingerprint written beside every result.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func fingerprint() machine {
	return machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown"
// where there is none.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the code under test: the git HEAD when the checkout is a
// repository, otherwise "src-" and the digest of its Go sources.
func commit() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !isRef {
			return ref
		}
		if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
			return strings.TrimSpace(string(id))
		}
		if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
			for _, line := range strings.Split(string(packed), "\n") {
				if id, name, ok := strings.Cut(line, " "); ok && name == ref {
					return id
				}
			}
		}
	}
	return "src-" + sourceDigest()
}

// sourceDigest hashes the checkout's Go sources, this benchmark's
// included, so outputs recorded by one version of the code are never
// compared with another's.
func sourceDigest() string {
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not name the code
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// writeSpans writes the traced run's spans as a native viva trace: one
// host per layer under a "sessionbench" group, with power 1 and usage 1
// while a span of the layer runs, so `viva -trace` draws each layer
// filled by the share of the time slice it was busy.
func writeSpans(path string, spans []span) error {
	tr := trace.New()
	const root = "sessionbench"
	if err := tr.DeclareResource(root, trace.TypeGroup, ""); err != nil {
		return err
	}
	spans = slices.Clone(spans)
	slices.SortStableFunc(spans, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	end := 0.0
	for _, sp := range spans {
		if tr.Resource(sp.layer) == nil {
			if err := tr.DeclareResource(sp.layer, trace.TypeHost, root); err != nil {
				return err
			}
			if err := tr.Set(0, sp.layer, trace.MetricPower, 1); err != nil {
				return err
			}
		}
		if err := tr.Set(sp.start.Seconds(), sp.layer, trace.MetricUsage, 1); err != nil {
			return err
		}
		if err := tr.Set(sp.end.Seconds(), sp.layer, trace.MetricUsage, 0); err != nil {
			return err
		}
		end = max(end, sp.end.Seconds())
	}
	tr.SetEnd(end)
	return writeTrace(path, tr)
}
