package stream

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viva/internal/obs"
	"viva/internal/trace"
)

// chaosClient is one synthetic subscriber with a seeded misbehaviour. It
// verifies the exact delivery invariant the hub promises: within and
// across Takes, the next delta sequence number equals the previous one
// plus the reported drop count plus one, with full snapshots allowed to
// fast-forward (resume fallback).
type chaosClient struct {
	id       int
	behavior string
	prev     uint64
	resumes  int
	// dropped totals the drop counts this client's Takes reported; a
	// staller's holdFrom is the last sequence number it took before it
	// stalled (held marks that it did).
	dropped  uint64
	held     bool
	holdFrom uint64
	// closedEarly marks a client whose reconnect raced hub shutdown —
	// a legitimate end state, exempt from the final-seq convergence
	// check. Written before the client goroutine exits, read after
	// wg.Wait, so no atomics needed.
	closedEarly bool
	fails       atomic.Value // first invariant violation, as a string
}

func (c *chaosClient) failf(format string, args ...any) {
	c.fails.CompareAndSwap(nil, fmt.Sprintf("client %d (%s): %s", c.id, c.behavior, fmt.Sprintf(format, args...)))
}

// consume verifies one Take batch against the continuity invariant.
func (c *chaosClient) consume(snaps []*Snapshot, dropped uint64) {
	c.dropped += dropped
	expect := c.prev + dropped + 1
	for _, sn := range snaps {
		if sn.Full {
			if sn.Seq < c.prev {
				c.failf("full snapshot went backwards: %d after %d", sn.Seq, c.prev)
			}
			c.prev = sn.Seq
			expect = c.prev + 1
			continue
		}
		if sn.Seq != expect {
			c.failf("delta seq %d, want %d (prev %d, dropped %d)", sn.Seq, expect, c.prev, dropped)
		}
		c.prev = sn.Seq
		expect = c.prev + 1
	}
}

// TestStreamChaos is the tentpole's acceptance harness: thousands of
// concurrent clients — most polite, some slow, some stalled outright,
// some disconnecting, some reconnecting with Last-Event-ID — against one
// publisher replaying a finished trace. It asserts the publisher never
// stalls (bounded tick latency, run completes), memory stays bounded
// (shared snapshots, no per-client copies), every surviving client
// converges on the final sequence number with the continuity invariant
// intact, and the live trace ends byte-identical to the cold original.
// CI runs it under -race.
func TestStreamChaos(t *testing.T) {
	clients := 5000
	events := 30000
	if testing.Short() {
		clients, events = 500, 5000
	}

	const subRing = 16
	cold := buildCold(t, 16, events, 42)
	_, end := cold.Window()
	// Pace the replay to ~1.5s wall, ticking every 2ms, so the run has
	// hundreds of distinct snapshots for the rings to churn through.
	s, err := New(NewReplay(cold, end/1.5), Config{
		Tick:           2 * time.Millisecond,
		MaxTick:        50 * time.Millisecond,
		MaxSubscribers: clients + 64,
		SubRing:        subRing,
	})
	if err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	flightBase := obs.Flight.Seq()
	dropBase := obsDropped.Value()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	pubDone := make(chan error, 1)
	pubFinished := make(chan struct{})
	go func() {
		pubDone <- s.Run(ctx)
		close(pubFinished)
	}()
	finished := func() bool {
		select {
		case <-pubFinished:
			return true
		default:
			return false
		}
	}

	rng := rand.New(rand.NewSource(7))
	var wg sync.WaitGroup
	all := make([]*chaosClient, clients)
	for i := 0; i < clients; i++ {
		c := &chaosClient{id: i}
		switch {
		case i%20 == 1:
			c.behavior = "staller"
		case i%20 == 2:
			c.behavior = "disconnector"
		case i%20 == 3:
			c.behavior = "reconnector"
		case i%5 == 4:
			c.behavior = "slow"
		default:
			c.behavior = "normal"
		}
		all[i] = c
		seed := rng.Int63()
		wg.Add(1)
		go func(c *chaosClient, seed int64) {
			defer wg.Done()
			crng := rand.New(rand.NewSource(seed))
			sub, err := s.Hub.Subscribe(0)
			if err != nil {
				c.failf("subscribe: %v", err)
				return
			}
			var buf []*Snapshot
			for {
				<-sub.Notify()
				snaps, dropped, closed := sub.Take(buf)
				c.consume(snaps, dropped)
				buf = snaps[:0]
				if closed {
					return
				}
				switch c.behavior {
				case "slow":
					time.Sleep(time.Duration(1+crng.Intn(8)) * time.Millisecond)
				case "staller":
					if !c.held && c.prev > 20 {
						// Stall until the hub has published more than
						// subRing snapshots past the last one taken, so
						// this ring has provably overflowed whatever the
						// tick rate; stop early only if the publisher
						// ends first.
						c.held, c.holdFrom = true, c.prev
						for s.Hub.Seq() <= c.holdFrom+subRing && !finished() {
							time.Sleep(time.Millisecond)
						}
					}
				case "disconnector":
					if c.prev > uint64(10+crng.Intn(50)) {
						s.Hub.Unsubscribe(sub)
						return
					}
				case "reconnector":
					if c.resumes < 3 && c.prev > uint64(20*(c.resumes+1)) {
						// Drop the connection, keep Last-Event-ID, and
						// resume — sometimes after sleeping long enough
						// to fall out of the delta window.
						s.Hub.Unsubscribe(sub)
						if crng.Intn(2) == 0 {
							time.Sleep(time.Duration(50+crng.Intn(150)) * time.Millisecond)
						}
						var err error
						sub, err = s.Hub.Subscribe(c.prev)
						if err == ErrClosed {
							// The hub shut down while this client was
							// between connections: a clean disconnect.
							c.closedEarly = true
							return
						}
						if err != nil {
							c.failf("resume: %v", err)
							return
						}
						c.resumes++
					}
				}
			}
		}(c, seed)
	}

	if err := <-pubDone; err != nil {
		t.Fatalf("publisher: %v", err)
	}
	// Publisher done; hub still serves terminal state. Shut it down so
	// every client drains its final ring and exits.
	s.Hub.Close()
	wg.Wait()

	rep := s.Report()
	if rep.Events == 0 || rep.Errors != 0 {
		t.Fatalf("report: %+v", rep)
	}
	// "Never blocks on a client": with thousands of stalled and slow
	// rings in play, a publish is still just pointer pushes — even under
	// the race detector a tick must come nowhere near seconds.
	if rep.Max > 5*time.Second {
		t.Fatalf("publisher stalled: max tick latency %v", rep.Max)
	}
	overflowed := 0
	for _, c := range all {
		if msg := c.fails.Load(); msg != nil {
			t.Fatal(msg)
		}
		if c.held && rep.FinalSeq > c.holdFrom+subRing {
			overflowed++
			if c.dropped == 0 {
				t.Fatalf("client %d stalled at seq %d while %d more snapshots were published into a %d-slot ring, but saw no drops",
					c.id, c.holdFrom, rep.FinalSeq-c.holdFrom, subRing)
			}
		}
		if c.behavior != "disconnector" && !c.closedEarly && c.prev != rep.FinalSeq {
			t.Fatalf("client %d (%s) ended at seq %d, final is %d",
				c.id, c.behavior, c.prev, rep.FinalSeq)
		}
	}

	// The flight recorder is the run's black box: sub_drop events land in
	// the ring exactly when the drop counter moved, and every shed the
	// report counts must leave a shed event behind. The ring may have
	// wrapped, so count by kind over what survived plus what the global
	// sequence says happened since the baseline.
	flightKinds := make(map[string]int)
	for _, ev := range obs.Flight.Snapshot(0) {
		if ev.Seq > flightBase {
			flightKinds[ev.Kind]++
		}
	}
	recorded := obs.Flight.Seq() - flightBase
	if recorded == 0 {
		t.Fatal("chaos run recorded no flight events")
	}
	drops := obsDropped.Value() - dropBase
	if drops == 0 && flightKinds["sub_drop"] > 0 {
		t.Fatalf("no snapshot was dropped but the flight ring has sub_drop events: %v", flightKinds)
	}
	if drops > 0 && flightKinds["sub_drop"] == 0 && recorded <= uint64(obs.Flight.Len()) {
		t.Fatalf("%d snapshots dropped but no sub_drop events in flight ring: %v", drops, flightKinds)
	}
	t.Logf("%d stallers overflowed their rings; %d snapshots dropped, %d sub_drop events",
		overflowed, drops, flightKinds["sub_drop"])
	if rep.Sheds > 0 && flightKinds["shed"] == 0 && recorded <= uint64(obs.Flight.Len()) {
		t.Fatalf("report counts %d sheds but flight ring has none: %v", rep.Sheds, flightKinds)
	}

	// Byte identity: the streamed trace is exactly the cold trace.
	var want, got bytes.Buffer
	if err := trace.Write(&want, cold); err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(&got, s.Trace()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("live trace differs from cold load after chaos run")
	}

	// Bounded memory: snapshots are shared references; per-client state
	// is a fixed ring. The whole run must fit comfortably under a flat
	// ceiling even at 5k clients.
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 256<<20 {
		t.Fatalf("heap grew %d MB over the chaos run", grew>>20)
	}
}
