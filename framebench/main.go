// Command framebench is the Coterie frame-service benchmark. It prepares
// the viking environment, starts an in-process server configured like
// coterie-server with default flags on loopback TCP, drives it with two
// player sessions whose request points it generates from --seed, checks
// every reply, and prints a report whose last line is one JSON object.
//
// Usage (from the repository root):
//
//	bash framebench/run.sh --workload walk_warm --seed 1 --seconds 10 --trace 0
//
// --workload all runs every workload untraced and then traced. An
// untraced run reports the end-to-end metrics; a traced run records spans
// around every call into a layer (written to .bench_build/spans/), reads
// the server's stage stamps and registry counters, probes the layers'
// public functions, and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"coterie/internal/geom"
)

// procStart approximates process start: package initialisation.
var procStart = time.Now()

// setupReps is how many times each run sets up; setup_s is their median
// and the last set-up serves the run.
const setupReps = 3

// outDir holds the benchmark's build output, spans and run history,
// relative to the repository root.
const outDir = ".bench_build"

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	note  string
}

// result is one workload run.
type result struct {
	w                 workload
	traced            bool
	attempted, failed int
	setups            []float64
	// steal is the share of CPU time the hypervisor took during the timed
	// part.
	steal      float64
	e2e, layer []metric
	// overhead compares a traced run's end-to-end metrics with the median
	// of the untraced runs recorded so far.
	overhead []string
	problems []string
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("framebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run, or \"all\"")
	seed := fs.Int64("seed", 1, "seed the request points, phases and samples are drawn from")
	seconds := fs.Int("seconds", 10, "length of the timed part of each run")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := workloadByName(*name); ok {
		ws = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "framebench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "framebench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if sessions > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "framebench: %d sessions need %d cores, have %d\n", sessions, sessions, runtime.NumCPU())
		return 1
	}

	printHeader(*seed, *seconds, *trace)
	var results []*result
	start := procStart
	for _, w := range ws {
		modes := []bool{*trace == 1}
		if *name == "all" {
			modes = []bool{false, true}
		}
		for _, traced := range modes {
			res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, traced, start)
			if err != nil {
				fmt.Fprintf(os.Stderr, "framebench: %s: %v\n", w.name, err)
				return 1
			}
			start = time.Now()
			printResult(res)
			results = append(results, res)
		}
	}
	selfErr := selfTest()
	if selfErr != nil {
		fmt.Printf("self-test FAILED: %v\n", selfErr)
	} else {
		fmt.Println("self-tests passed: percentile rule, due-time accounting, span self time")
	}

	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: selfErr == nil, Metrics: map[string]map[string]any{}}
	for _, res := range results {
		out.Attempted += res.attempted
		out.Failed += res.failed
		if res.failed > 0 || len(res.problems) > 0 {
			out.Correct = false
		}
		ms := res.e2e
		if res.traced {
			ms = res.layer
		}
		for _, m := range ms {
			if !res.traced && !gatedEndToEnd[m.name] {
				continue
			}
			key := m.name
			if *name == "all" {
				key = res.w.name + "." + key
			}
			out.Metrics[key] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "framebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runWorkload sets up setupReps times, then drives the last set-up for
// the run's length, checks the output and computes the metrics.
func runWorkload(w workload, seed int64, length time.Duration, traced bool, firstStart time.Time) (*result, error) {
	var setups []float64
	var rg *rig
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if i == 0 {
			start = firstStart
		}
		r, err := setUp(w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupReps-1 {
			if err := r.close(); err != nil {
				return nil, fmt.Errorf("tear down: %w", err)
			}
			continue
		}
		rg = r
	}

	grid := rg.env.Game.Scene.Grid
	interval := time.Duration(0)
	expected := 25 * length.Seconds() // closed loop: roughly the render rate
	if w.rateHz > 0 {
		interval = time.Duration(float64(time.Second) / w.rateHz)
		expected = w.rateHz * sessions * length.Seconds()
	}
	sampleEvery := uint64(max(1, int(expected/ssimSamples)))

	phases := rand.New(rand.NewSource(seed*31 + 7))
	sess := make([]*session, sessions)
	tracers := make([]*tracer, sessions)
	walkers := make([]*walker, sessions)
	for p := range sess {
		sess[p] = newSession(seed, sampleEvery)
		walkers[p] = newWalker(w, grid, rg.env.Game.Spawn, seed, p)
		if traced {
			tracers[p] = &tracer{}
		}
	}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	before := rg.reg.Snapshot()
	steal0, total0 := cpuTimes()
	t0 := time.Now()
	recsBy := make([][]record, sessions)
	var wg sync.WaitGroup
	for p := 0; p < sessions; p++ {
		plan := sessionPlan{
			player:   p,
			interval: interval,
			phase:    time.Duration(phases.Float64() * float64(interval)),
			deadline: w.deadline,
			t0:       t0,
			end:      t0.Add(length),
			cutoff:   t0.Add(length + 5*time.Second),
		}
		wk := walkers[p]
		next := func() (pt geom.GridPoint) {
			pt = wk.point()
			wk.advance()
			return pt
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			recsBy[p] = runSession(plan, next, rg.clients[p].FetchWithDeadline, sess[p].consume, tracers[p])
		}(p)
	}
	wg.Wait()
	steal1, total1 := cpuTimes()
	after := rg.reg.Snapshot()
	runtime.ReadMemStats(&ms1)
	peakMB := peakRSSMB()

	var recs []record
	var samples []sample
	for p := range recsBy {
		recs = append(recs, recsBy[p]...)
		samples = append(samples, sess[p].samples...)
		sess[p].release()
	}
	res := &result{w: w, traced: traced, attempted: len(recs), steal: ratio(int64(steal1-steal0), int64(total1-total0))}
	violations := checkSamples(rg.env, samples)
	var probed map[string]float64
	if traced {
		probed = probes(rg.env, recs, seed)
	}
	storeBytes, _, _ := rg.srv.StoreStats()
	if err := rg.close(); err != nil {
		res.problems = append(res.problems, "server shutdown: "+err.Error())
	}

	// A sampled frame below the SSIM floor fails its request.
	bad := map[[2]int]bool{}
	for _, sm := range samples {
		if !(sm.ssim >= ssimFloor) {
			bad[[2]int{sm.player, sm.seq}] = true
		}
	}
	for i := range recs {
		r := &recs[i]
		if r.ok && bad[[2]int{r.player, r.seq}] {
			r.ok, r.err = false, "sampled frame below the SSIM floor"
		}
		if !r.ok {
			res.failed++
			if len(res.problems) < 5 {
				res.problems = append(res.problems, fmt.Sprintf("player %d request %d at %v: %s", r.player, r.seq, r.pt, r.err))
			}
		}
	}
	res.problems = append(res.problems, violations...)

	res.setups = setups
	res.e2e = endToEnd(recs, samples, setups, peakMB, length)
	if traced {
		spans := merge(tracers)
		res.layer = perLayer(recs, regDelta{before, after}, storeBytes, &ms0, &ms1, probed, spans)
		path := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		if err := writeSpans(path, spans); err != nil {
			res.problems = append(res.problems, err.Error())
		}
		res.overhead = overhead(w, res.e2e)
	} else if err := appendHistory(w, seed, res.e2e); err != nil {
		res.problems = append(res.problems, err.Error())
	}
	return res, nil
}
