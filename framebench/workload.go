package main

import (
	"math/rand"

	"coterie/internal/geom"
)

// sessions is the number of player sessions every workload drives. Each
// session is one synchronous TCP connection, and the generator runs one
// goroutine per session, so it must not exceed the machine's cores or the
// generator itself becomes the bottleneck it is trying to measure.
const sessions = 2

// latticeStep is the walk step in grid cells: players move on a lattice
// of every third grid point, the stride the arena is pre-rendered at.
const latticeStep = 3

// deadlineMs is the headset's vsync budget (60 Hz).
const deadlineMs = 16.7

// Trajectory patterns.
const (
	patternArena   = "arena walk" // lattice random walk confined to the pre-rendered arena
	patternWalk    = "walk"       // lattice random walk from spawn, unconfined
	patternScatter = "scatter"    // uniform teleports over the whole grid
)

// workload is one traffic mix against the frame server.
type workload struct {
	name string
	why  string
	// rateHz is each session's open-loop request rate; 0 means closed loop
	// (each session sends its next request once the previous frame is
	// decoded).
	rateHz float64
	// deadline stamps every request with a deadline deadlineMs after it
	// was due.
	deadline bool
	pattern  string
	// arena is the side of the pre-rendered lattice arena in lattice
	// sites (arena walk only).
	arena int
	// loads and bypasses name the layers the workload is predicted to
	// exercise and to leave idle.
	loads, bypasses string
}

// workloads are the benchmark's traffic mixes, one per term of the
// communication/caching/computing split: walk_warm stresses wire, codec and
// the store's delta path with rendering idle; walk_cold stresses deadline
// scheduling and the degrade ladder; scatter_cold stresses rendering.
var workloads = []workload{
	{
		name:     "walk_warm",
		why:      "warm-store steady state (paper §5.1 offline pre-render): nothing renders; the delta path, TCP framing and client decode carry the time",
		rateHz:   60,
		deadline: true,
		pattern:  patternArena,
		arena:    10,
		loads:    "transport, server store + delta path (recon decode, DeltaEncode, delta cache), client codec decode",
		bypasses: "render, world, ssim, sched (predicted: a render change moves nothing here)",
	},
	{
		name:     "walk_cold",
		why:      "deadline pressure from an empty store: ~100 ms renders put the frames due behind them at risk, so the EDF scheduler and the degrade ladder decide what is served",
		rateHz:   10,
		deadline: true,
		pattern:  patternWalk,
		loads:    "sched, degrade ladder (stale, reprojection, low-res), render, ssim verification, store",
		bypasses: "nothing idle; delta coding is light (few revisits)",
	},
	{
		name:     "scatter_cold",
		why:      "render capacity: uniform teleports over the ~25M-point grid make nearly every request a full ray-cast",
		rateHz:   0,
		deadline: false,
		pattern:  patternScatter,
		loads:    "world intersect, render Panorama, codec Encode, server recon decode",
		bypasses: "delta, stale rung, transport (negligible share; predicted: a delta or wire change moves nothing here)",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// arenaOrigin is the lattice arena's low corner: an arena of side n sites
// centred on the spawn point.
func arenaOrigin(grid geom.Grid, spawn geom.Vec2, n int) geom.GridPoint {
	sp := grid.Snap(spawn)
	half := (n / 2) * latticeStep
	return geom.GridPoint{I: sp.I - half, J: sp.J - half}
}

// arenaRect is the ground rectangle spanning the arena's lattice sites,
// the region handed to Server.PrerenderRegion at stride latticeStep.
func arenaRect(grid geom.Grid, lo geom.GridPoint, n int) geom.Rect {
	hi := geom.GridPoint{I: lo.I + (n-1)*latticeStep, J: lo.J + (n-1)*latticeStep}
	a, b := grid.Pos(lo), grid.Pos(hi)
	return geom.Rect{MinX: a.X, MinZ: a.Z, MaxX: b.X, MaxZ: b.Z}
}

// walker generates one session's request points. It is a pure function of
// (seed, player, workload): the server only ever sees the points it yields.
type walker struct {
	rng     *rand.Rand
	grid    geom.Grid
	pattern string
	lo, hi  geom.GridPoint // inclusive bounds of the lattice walk
	pos     geom.GridPoint
}

func newWalker(w workload, grid geom.Grid, spawn geom.Vec2, seed int64, player int) *walker {
	wk := &walker{
		rng:     rand.New(rand.NewSource(seed*1000003 + int64(player)*7919 + 17)),
		grid:    grid,
		pattern: w.pattern,
	}
	switch w.pattern {
	case patternArena:
		wk.lo = arenaOrigin(grid, spawn, w.arena)
		wk.hi = geom.GridPoint{I: wk.lo.I + (w.arena-1)*latticeStep, J: wk.lo.J + (w.arena-1)*latticeStep}
		wk.pos = geom.GridPoint{
			I: wk.lo.I + wk.rng.Intn(w.arena)*latticeStep,
			J: wk.lo.J + wk.rng.Intn(w.arena)*latticeStep,
		}
	case patternWalk:
		wk.lo = geom.GridPoint{}
		wk.hi = geom.GridPoint{I: grid.Cols() - 1, J: grid.Rows() - 1}
		sp := grid.Snap(spawn)
		// Start within two lattice steps of spawn so the two players share
		// ground, as co-located players do.
		wk.pos = geom.GridPoint{
			I: sp.I + (wk.rng.Intn(5)-2)*latticeStep,
			J: sp.J + (wk.rng.Intn(5)-2)*latticeStep,
		}
	case patternScatter:
		wk.pos = wk.teleport()
	}
	return wk
}

// point returns the current request point.
func (wk *walker) point() geom.GridPoint { return wk.pos }

// advance moves to the next request point: one king move of latticeStep
// cells for the walks (moves leaving the bounds are redrawn), a uniform
// teleport for scatter.
func (wk *walker) advance() {
	if wk.pattern == patternScatter {
		wk.pos = wk.teleport()
		return
	}
	for {
		di := (wk.rng.Intn(3) - 1) * latticeStep
		dj := (wk.rng.Intn(3) - 1) * latticeStep
		if di == 0 && dj == 0 {
			continue
		}
		next := geom.GridPoint{I: wk.pos.I + di, J: wk.pos.J + dj}
		if next.I < wk.lo.I || next.J < wk.lo.J || next.I > wk.hi.I || next.J > wk.hi.J {
			continue
		}
		wk.pos = next
		return
	}
}

func (wk *walker) teleport() geom.GridPoint {
	return geom.GridPoint{I: wk.rng.Intn(wk.grid.Cols()), J: wk.rng.Intn(wk.grid.Rows())}
}
