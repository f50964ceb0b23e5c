package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"coterie/internal/geom"
	"coterie/internal/transport"
)

// selfTest checks the benchmark's own arithmetic: the percentile rule,
// due-time accounting in the session loop, and span self time. It returns
// the first failure.
func selfTest() error {
	for _, c := range []struct {
		n      int
		value  float64
		beyond int
		ok     bool
	}{
		{1000, 990, 10, true}, // ranks 991..1000 lie beyond p99
		{999, 990, 9, false},
		{50, 50, 0, false},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[c.n-1-i] = float64(i + 1) // reversed: percentile must sort
		}
		p := percentile(xs, 0.99)
		if p.value != c.value || p.beyond != c.beyond || p.supported() != c.ok || p.n != c.n {
			return fmt.Errorf("percentile rule: p99 of 1..%d = %+v, want value %v with %d beyond (supported %v)",
				c.n, p, c.value, c.beyond, c.ok)
		}
	}
	if err := dueTimeSelfTest(); err != nil {
		return fmt.Errorf("due-time accounting: %w", err)
	}
	spans := []span{
		{Name: "a.root", Start: 0, End: 10, Parent: -1},
		{Name: "b.x", Start: 1, End: 4, Parent: 0},
		{Name: "b.y", Start: 3, End: 6, Parent: 0},  // overlaps b.x: covered once
		{Name: "c.z", Start: 8, End: 12, Parent: 0}, // ends past the parent: clipped
		{Name: "d.w", Start: 2, End: 3, Parent: 1},
	}
	want := []float64{3, 2, 3, 4, 1}
	for i, got := range selfTimes(spans) {
		if math.Abs(got-want[i]) > 1e-9 {
			return fmt.Errorf("span self time: %s = %v, want %v", spans[i].Name, got, want[i])
		}
	}
	if got := layerSelfMs(spans)["b"]; math.Abs(got-5) > 1e-9 {
		return fmt.Errorf("layer self time: b = %v, want 5", got)
	}
	return nil
}

// dueTimeSelfTest runs the real session loop against a fake server whose
// reply to request 2 takes stallMs while every other reply is immediate.
// The requests due behind the stall must carry it in their latency, and
// the generator must not count the backlog as its own lateness.
func dueTimeSelfTest() error {
	const (
		interval = 10 * time.Millisecond
		stallMs  = 60.0
		slackMs  = 8.0 // scheduling noise allowed on a loaded machine
	)
	t0 := time.Now()
	plan := sessionPlan{interval: interval, t0: t0, end: t0.Add(10 * interval), cutoff: t0.Add(time.Second)}
	k := 0
	fetch := func(pt geom.GridPoint, _ float64) (transport.FrameReply, float64, float64, error) {
		if k == 2 {
			time.Sleep(time.Duration(stallMs * float64(time.Millisecond)))
		}
		k++
		now := float64(time.Now().UnixNano()) / 1e6
		return transport.FrameReply{Point: pt, RecvMs: now, SendMs: now}, now, now, nil
	}
	consume := func(*record, transport.FrameReply) error { return nil }
	recs := runSession(plan, func() geom.GridPoint { return geom.GridPoint{} }, fetch, consume, nil)
	if len(recs) != 10 {
		return fmt.Errorf("%d requests in a 10-period window, want 10", len(recs))
	}
	ivMs := float64(interval) / float64(time.Millisecond)
	for i, r := range recs {
		if !r.ok {
			return errors.New(r.err)
		}
		if r.sentMs+1e-9 < r.dueMs {
			return fmt.Errorf("request %d sent at %.2f ms, before it was due at %.2f ms", i, r.sentMs, r.dueMs)
		}
		// Request 2 stalls until ~20+stallMs; request i>2 is due at 10·i,
		// so it waits the rest of the stall.
		if i > 2 {
			backlog := 20 + stallMs - 10*float64(i)
			if backlog > 0 && r.latencyMs() < backlog-slackMs {
				return fmt.Errorf("request %d due %.1f ms behind a %.0f ms stall shows %.2f ms latency, want >= %.1f",
					i, 10*float64(i)-20, stallMs, r.latencyMs(), backlog)
			}
			if backlog > ivMs && r.lagMs > slackMs {
				return fmt.Errorf("request %d: backlog counted as generator lateness (%.2f ms)", i, r.lagMs)
			}
		}
	}
	if recs[2].latencyMs() < stallMs-slackMs/4 {
		return fmt.Errorf("stalled request shows %.2f ms latency, want >= %.0f", recs[2].latencyMs(), stallMs)
	}
	return nil
}
