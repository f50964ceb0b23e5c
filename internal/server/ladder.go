package server

import (
	"math"

	"coterie/internal/geom"
	"coterie/internal/transport"
)

// This file is the quality-degrade ladder: the frame the server serves
// when a request's deadline can no longer afford the frame it asked for.
// The ladder has one rung, the paper's own reuse rule: serve a cached
// frame within the leaf's calibrated DistThresh, the distance below which
// SSIM ≥ ssim.GoodThreshold by §4.4. The ladder degrades latency into
// similarity, never into visible quality below the bar, and never
// synthesizes a frame.

// maxStaleRadius bounds the ring scan for a stale substitute, in grid
// steps. DistThresh rarely exceeds a few steps in calibrated maps; the
// cap keeps a pathological threshold from turning the fallback into a
// store sweep.
const maxStaleRadius = 6

// staleFor looks for a cached frame the similarity calibration vouches
// for as a stand-in for pt: a stored frame within the leaf's DistThresh,
// nearest first. It never triggers or joins a render (peek only) — the
// whole point is serving without queueing. The scan walks Chebyshev
// rings outward so the common case (pt itself, or an immediate
// neighbour on the client's walking path) exits early. The frame is at
// RungExact when it is pt's own, else at RungStale; seq is the store
// sequence number of the frame found.
func (s *Server) staleFor(pt geom.GridPoint) (frame, bool) {
	grid := s.env.Game.Scene.Grid
	leaf := s.env.Map.LeafAt(grid.Pos(pt))
	if leaf == nil {
		return frame{}, false
	}
	maxR := int(math.Ceil(leaf.DistThresh / grid.Step))
	if maxR > maxStaleRadius {
		maxR = maxStaleRadius
	}
	for r := 0; r <= maxR; r++ {
		var best frame
		bestDist := leaf.DistThresh + 1
		for _, cand := range chebyshevRing(pt, r) {
			if !grid.In(cand) {
				continue
			}
			d := grid.Dist(pt, cand)
			if d > leaf.DistThresh || d >= bestDist {
				continue
			}
			if r > 0 && s.env.Map.LeafAt(grid.Pos(cand)) != leaf {
				continue
			}
			if data, seq, hit := s.store.peek(cand); hit {
				best, bestDist = frame{data: data, seq: seq}, d
			}
		}
		if best.data == nil {
			continue
		}
		if r > 0 {
			best.rung = transport.RungStale
		}
		return best, true
	}
	return frame{}, false
}

// chebyshevRing returns the grid points at Chebyshev distance r from pt
// (just pt itself for r=0).
func chebyshevRing(pt geom.GridPoint, r int) []geom.GridPoint {
	if r == 0 {
		return []geom.GridPoint{pt}
	}
	ring := make([]geom.GridPoint, 0, 8*r)
	for di := -r; di <= r; di++ {
		ring = append(ring,
			geom.GridPoint{I: pt.I + di, J: pt.J - r},
			geom.GridPoint{I: pt.I + di, J: pt.J + r})
	}
	for dj := -r + 1; dj <= r-1; dj++ {
		ring = append(ring,
			geom.GridPoint{I: pt.I - r, J: pt.J + dj},
			geom.GridPoint{I: pt.I + r, J: pt.J + dj})
	}
	return ring
}
