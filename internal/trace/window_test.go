package trace

import (
	"math/rand"
	"testing"
)

// windowScan is Window's definition computed the long way: the earliest
// first point over every non-empty timeline.
func windowScan(tr *Trace) (start, end float64) {
	first := true
	for _, k := range tr.varOrder {
		tl := tr.vars[k]
		if tl.Len() == 0 {
			continue
		}
		if first || tl.FirstTime() < start {
			start = tl.FirstTime()
			first = false
		}
	}
	return start, tr.end
}

// Window's O(1) start must equal a full scan after any mix of mutations:
// Trace.Set/Add, the Appender, out-of-order inserts, writes straight to a
// *Timeline reached through Trace.Timeline, and CompactAll.
func TestWindowMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 50; round++ {
		tr := New()
		tr.MustDeclareResource("g", TypeGroup, "")
		res := []string{"g", "a", "b", "c"}
		for _, r := range res[1:] {
			tr.MustDeclareResource(r, TypeHost, "g")
		}
		metrics := []string{MetricPower, MetricUsage}
		app := tr.NewAppender()
		if s, e := tr.Window(); s != 0 || e != 0 {
			t.Fatalf("empty trace window = [%g, %g]", s, e)
		}
		for op := 0; op < 200; op++ {
			r, m := res[rng.Intn(len(res))], metrics[rng.Intn(len(metrics))]
			tm := 100*rng.Float64() - 20
			if rng.Intn(4) == 0 {
				tm = float64(rng.Intn(10)) // exact-time overwrites
			}
			switch rng.Intn(6) {
			case 0:
				_ = tr.Set(tm, r, m, rng.Float64())
			case 1:
				_ = tr.Add(tm, r, m, rng.Float64())
			case 2:
				_ = app.Set(tm, r, m, rng.Float64())
			case 3:
				if tr.HasMetric(r, m) {
					tr.Timeline(r, m).Set(tm, rng.Float64())
				}
			case 4:
				if tr.HasMetric(r, m) {
					tr.Timeline(r, m).Add(tm, rng.Float64())
				}
			case 5:
				if rng.Intn(10) == 0 {
					tr.CompactAll()
				}
			}
			gs, ge := tr.Window()
			ws, we := windowScan(tr)
			if gs != ws || ge != we {
				t.Fatalf("round %d op %d: Window() = [%g, %g], scan = [%g, %g]", round, op, gs, ge, ws, we)
			}
		}
	}
}
