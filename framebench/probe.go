package main

import (
	"math"
	"sort"
	"time"

	"coterie/internal/codec"
	"coterie/internal/core"
	"coterie/internal/geom"
	"coterie/internal/img"
	"coterie/internal/ssim"
)

// Probe sizing: probePoints sample points, each call timed probeReps
// times; a probe reports the median over all timings.
const (
	probePoints = 3
	probeReps   = 3
)

// probes times the layers' public functions directly on a deterministic
// sample of the run's own request points. They run after the timed part,
// on an idle server, so they price each call alone.
func probes(env *core.Env, recs []record, seed int64) map[string]float64 {
	pts := probeSample(recs, seed)
	scene := env.Game.Scene
	grid := scene.Grid
	r := env.Renderer
	times := map[string][]float64{}
	timeIt := func(name string, f func()) {
		for k := 0; k < probeReps; k++ {
			t := time.Now()
			f()
			times[name] = append(times[name], float64(time.Since(t))/float64(time.Millisecond))
		}
	}
	cmp := ssim.NewComparer()
	var rayNs []float64
	for _, pt := range pts {
		pos := grid.Pos(pt)
		leaf := env.Map.LeafAt(pos)
		if leaf == nil {
			continue
		}
		eye := scene.EyeAt(pos)
		// The neighbour one lattice step away stands in for the next
		// point of a walk: the reprojection target and delta reference.
		nb := geom.GridPoint{I: pt.I + latticeStep, J: pt.J}
		if !grid.In(nb) {
			nb.I = pt.I - latticeStep
		}
		nbEye := scene.EyeAt(grid.Pos(nb))

		var pano *img.Gray
		timeIt("render.panorama_ms", func() {
			if pano != nil {
				r.ReleaseGray(pano)
			}
			pano = r.Panorama(eye, leaf.Radius, math.Inf(1), nil)
		})
		band := height / 8
		if band < 16 {
			band = 16
		}
		y0 := (height - band) / 2
		timeIt("render.band_ms", func() { r.PanoramaBand(eye, leaf.Radius, math.Inf(1), nil, y0, y0+band) })
		timeIt("render.reproject_ms", func() { r.ReleaseGray(r.Reproject(pano, eye, nbEye, reprojDepth(leaf.Radius))) })
		timeIt("render.lowres_ms", func() {
			lr := r.LowRes(2)
			small := lr.Panorama(eye, leaf.Radius, math.Inf(1), nil)
			r.ReleaseGray(r.UpscaleToFull(small))
			lr.ReleaseGray(small)
		})
		var enc []byte
		timeIt("codec.encode_probe_ms", func() { enc = codec.Encode(pano, env.CRF) })
		var cur *img.Gray
		timeIt("codec.decode_probe_ms", func() {
			if cur != nil {
				codec.ReleaseGray(cur)
			}
			cur, _ = codec.Decode(enc)
		})
		nbPano := r.Panorama(nbEye, leaf.Radius, math.Inf(1), nil)
		ref, _ := codec.Decode(codec.Encode(nbPano, env.CRF))
		r.ReleaseGray(nbPano)
		if cur != nil && ref != nil {
			timeIt("codec.delta_encode_ms", func() { codec.DeltaEncode(cur, ref, env.CRF) })
			timeIt("ssim.mean_ms", func() { cmp.Mean(cur, ref) })
		}
		codec.ReleaseGray(cur)
		codec.ReleaseGray(ref)
		r.ReleaseGray(pano)
		rayNs = append(rayNs, rayFanNs(env, eye, leaf.Radius))
	}
	out := map[string]float64{}
	for name, ts := range times {
		out[name] = median(ts)
	}
	out["world.ray_ns"] = median(rayNs)
	return out
}

// rayFanNs times Scene.Intersect over a panorama's ray fan (one ray per
// pixel, the equirectangular directions the renderer casts) from eye,
// restricted to the far-BE window, and returns ns per call.
func rayFanNs(env *core.Env, eye geom.Vec3, tMin float64) float64 {
	scene := env.Game.Scene
	q := scene.NewQuery()
	dirs := make([]geom.Vec3, 0, width*height)
	for y := 0; y < height; y++ {
		pitch := math.Pi/2 - math.Pi*(float64(y)+0.5)/float64(height)
		cp, sp := math.Cos(pitch), math.Sin(pitch)
		for x := 0; x < width; x++ {
			yaw := -math.Pi + 2*math.Pi*(float64(x)+0.5)/float64(width)
			dirs = append(dirs, geom.V3(cp*math.Sin(yaw), sp, cp*math.Cos(yaw)))
		}
	}
	t := time.Now()
	for _, d := range dirs {
		scene.Intersect(q, geom.Ray{Origin: eye, Direction: d}, tMin, math.Inf(1))
	}
	return float64(time.Since(t).Nanoseconds()) / float64(len(dirs))
}

// reprojDepth mirrors the server's constant-depth shell for a leaf of the
// given cutoff radius (8 radii, clamped to [20, 200] m).
func reprojDepth(radius float64) float64 {
	return math.Min(200, math.Max(20, 8*radius))
}

// probeSample picks probePoints distinct request points of the run: the
// ones whose (seed, player, seq) hash is smallest.
func probeSample(recs []record, seed int64) []geom.GridPoint {
	type cand struct {
		h  uint64
		pt geom.GridPoint
	}
	var cs []cand
	for _, r := range recs {
		cs = append(cs, cand{mix(uint64(seed)^0x5bd1e995, uint64(r.player)<<32|uint64(r.seq)), r.pt})
	}
	sort.Slice(cs, func(a, b int) bool { return cs[a].h < cs[b].h })
	seen := map[geom.GridPoint]bool{}
	var pts []geom.GridPoint
	for _, c := range cs {
		if len(pts) == probePoints {
			break
		}
		if !seen[c.pt] {
			seen[c.pt] = true
			pts = append(pts, c.pt)
		}
	}
	return pts
}
