package main

import (
	"fmt"
	"math"
	"time"

	"coterie/internal/codec"
	"coterie/internal/core"
	"coterie/internal/geom"
	"coterie/internal/img"
	"coterie/internal/ssim"
	"coterie/internal/transport"
)

// session is the generator's client side of one player session: it
// decodes every reply, checks it, and keeps the references the server may
// delta-code against.
type session struct {
	// refs holds the reconstruction of the latest intra frame served for
	// each point at the exact or reprojected rung: the frames the server
	// registers as this session's delta references. Stale and low-res
	// frames are not references (their bytes are not the render of the
	// requested point), and delta reconstructions never are.
	refs map[geom.GridPoint]*img.Gray

	seed        int64
	sampleEvery uint64
	// perRung counts frames kept for the per-rung check beyond the
	// hash sample, so every rung served is checked.
	perRung [4]int
	samples []sample
}

// sample is a delivered frame kept for the post-run SSIM check.
type sample struct {
	player, seq int
	pt          geom.GridPoint
	rung        transport.DegradeRung
	frame       *img.Gray
	// inMean marks the hash-selected frames averaged into
	// frame_ssim_mean; the others only widen the per-rung check.
	inMean bool
	ssim   float64
}

// perRungSamples is how many frames of each rung are checked beyond the
// hash sample.
const perRungSamples = 3

func newSession(seed int64, sampleEvery uint64) *session {
	return &session{refs: map[geom.GridPoint]*img.Gray{}, seed: seed, sampleEvery: sampleEvery}
}

// consume checks that the reply answers the requested point, decodes it
// (intra on its own, delta against the exact reference it names, which
// this session must hold), and keeps sampled frames.
func (s *session) consume(rec *record, reply transport.FrameReply) error {
	if reply.Point != rec.pt {
		return fmt.Errorf("reply for %v, requested %v", reply.Point, rec.pt)
	}
	if int(reply.Rung) >= len(s.perRung) {
		return fmt.Errorf("frame %v: unknown rung %d", rec.pt, reply.Rung)
	}
	start := time.Now()
	var g *img.Gray
	var err error
	switch reply.Kind {
	case transport.FrameIntra:
		if codec.Kind(reply.Data) != codec.KindIntra {
			return fmt.Errorf("frame %v: tagged intra, bytes are not", rec.pt)
		}
		g, err = codec.Decode(reply.Data)
	case transport.FrameDelta:
		if codec.Kind(reply.Data) != codec.KindDelta {
			return fmt.Errorf("frame %v: tagged delta, bytes are not", rec.pt)
		}
		ref, ok := s.refs[reply.Ref]
		if !ok {
			return fmt.Errorf("frame %v: delta against %v, which this session does not hold", rec.pt, reply.Ref)
		}
		g, err = codec.DeltaDecode(reply.Data, ref)
	default:
		return fmt.Errorf("frame %v: unknown frame kind %d", rec.pt, reply.Kind)
	}
	rec.decodeMs = float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		return fmt.Errorf("frame %v does not decode: %w", rec.pt, err)
	}
	if g.W != width || g.H != height {
		codec.ReleaseGray(g)
		return fmt.Errorf("frame %v decodes to %dx%d", rec.pt, g.W, g.H)
	}
	inMean := mix(uint64(s.seed), uint64(rec.player)<<32|uint64(rec.seq))%s.sampleEvery == 0
	if inMean || s.perRung[reply.Rung] < perRungSamples {
		if !inMean {
			s.perRung[reply.Rung]++
		}
		s.samples = append(s.samples, sample{
			player: rec.player, seq: rec.seq, pt: rec.pt, rung: reply.Rung,
			frame: g.Clone(), inMean: inMean,
		})
	}
	if reply.Kind == transport.FrameIntra && (reply.Rung == transport.RungExact || reply.Rung == transport.RungReproject) {
		if old := s.refs[rec.pt]; old != nil {
			codec.ReleaseGray(old)
		}
		s.refs[rec.pt] = g
	} else {
		codec.ReleaseGray(g)
	}
	return nil
}

// release returns the held references to the codec's pool.
func (s *session) release() {
	for pt, g := range s.refs {
		codec.ReleaseGray(g)
		delete(s.refs, pt)
	}
}

// checkSamples scores every sample against a fresh reference of its
// requested point: Panorama, then Encode and Decode, as the server
// produces an exact frame. The ladder promises SSIM ≥ ssim.GoodThreshold
// on every rung; a sample below it is returned as a violation.
func checkSamples(env *core.Env, samples []sample) (violations []string) {
	grid := env.Game.Scene.Grid
	cmp := ssim.NewComparer()
	refs := map[geom.GridPoint]*img.Gray{}
	defer func() {
		for _, g := range refs {
			codec.ReleaseGray(g)
		}
	}()
	for i := range samples {
		sm := &samples[i]
		ref, ok := refs[sm.pt]
		if !ok {
			pos := grid.Pos(sm.pt)
			leaf := env.Map.LeafAt(pos)
			if leaf == nil {
				violations = append(violations, fmt.Sprintf("sample %v: no leaf region", sm.pt))
				sm.ssim = math.NaN()
				continue
			}
			pano := env.Renderer.Panorama(env.Game.Scene.EyeAt(pos), leaf.Radius, math.Inf(1), nil)
			enc := codec.Encode(pano, env.CRF)
			env.Renderer.ReleaseGray(pano)
			var err error
			if ref, err = codec.Decode(enc); err != nil {
				violations = append(violations, fmt.Sprintf("sample %v: reference does not decode: %v", sm.pt, err))
				sm.ssim = math.NaN()
				continue
			}
			refs[sm.pt] = ref
		}
		score, err := cmp.Mean(ref, sm.frame)
		sm.ssim = score
		if err != nil || !(score >= ssim.GoodThreshold) {
			violations = append(violations, fmt.Sprintf("player %d request %d at %v (rung %d): SSIM %.4f < %.2f (err %v)",
				sm.player, sm.seq, sm.pt, sm.rung, score, ssim.GoodThreshold, err))
		}
	}
	return violations
}

// mix is splitmix64 over a^b: a deterministic hash for sampling.
func mix(a, b uint64) uint64 {
	x := a ^ b
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
