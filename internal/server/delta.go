package server

import (
	"errors"
	"slices"
	"sync"

	"coterie/internal/codec"
	"coterie/internal/geom"
	"coterie/internal/img"
	"coterie/internal/transport"
)

// This file is the server side of the similarity-aware frame path: delta
// coding against frames the client provably holds, so a frame close to
// one already sent costs a residual instead of a full re-send. It
// exploits the paper's core observation that nearby frames are highly
// similar, gated by the SSIM machinery already calibrated per leaf
// region: a reference qualifies when it sits within the leaf's DistThresh
// (the distance below which SSIM ≥ ssim.GoodThreshold by construction,
// §4.4). The server never synthesizes a frame: every frame it serves is
// a full ray-cast of its grid point or a cached copy of one.
//
// Reference identity is (grid point, store sequence number), never grid
// point alone: a delta must name the exact bytes the client decoded, and
// a store entry can be evicted and its point re-rendered while the client
// still holds the old bytes, so the sequence number keeps the delta path
// from assuming the two renders came out identical. Only intra-served
// frames become references (the client's reconstruction of a delta frame
// is one quantisation step removed from the server's, and chaining deltas
// would compound that drift).

// maxHeldRefs bounds the per-session holdings map. Forgetting a held
// reference is always safe — the server just loses a delta opportunity —
// so overflow drops the oldest.
const maxHeldRefs = 64

// sessionRefs tracks which (point, seq) frames one client provably holds.
// Single-goroutine use by the session loop; no locking.
type sessionRefs struct {
	held  map[geom.GridPoint]uint64
	order []geom.GridPoint // the keys of held, oldest promotion first

	// pending is the intra frame sent in the latest reply. It is promoted
	// to held when the next client message arrives: the protocol is
	// synchronous request/reply, so message N+1 proves reply N was read.
	pendingPt  geom.GridPoint
	pendingSeq uint64
	hasPending bool
}

func newSessionRefs() *sessionRefs {
	return &sessionRefs{held: make(map[geom.GridPoint]uint64)}
}

// setPending records the intra frame just served; it overwrites any
// unpromoted predecessor (one reply is outstanding at a time).
func (sr *sessionRefs) setPending(pt geom.GridPoint, seq uint64) {
	sr.pendingPt, sr.pendingSeq, sr.hasPending = pt, seq, true
}

// promote moves the pending frame into the holdings. Called on every
// message arrival, before the message is processed.
func (sr *sessionRefs) promote() {
	if !sr.hasPending {
		return
	}
	sr.hasPending = false
	if _, ok := sr.held[sr.pendingPt]; !ok {
		sr.order = append(sr.order, sr.pendingPt)
	}
	sr.held[sr.pendingPt] = sr.pendingSeq
	if len(sr.order) > maxHeldRefs {
		delete(sr.held, sr.order[0])
		sr.order = sr.order[1:]
	}
}

// drop removes client-evicted points from the holdings, and from order
// too, so a long session's evictions cannot grow order without bound and
// a re-promoted point is ordered by its latest promotion only.
func (sr *sessionRefs) drop(pts []geom.GridPoint) {
	for _, pt := range pts {
		if _, ok := sr.held[pt]; ok {
			delete(sr.held, pt)
			i := slices.Index(sr.order, pt)
			sr.order = slices.Delete(sr.order, i, i+1)
		}
		if sr.hasPending && pt == sr.pendingPt {
			sr.hasPending = false
		}
	}
}

// sessionFrame is the session step on top of the exact chain: it serves
// one client request inside a session, re-coding the exact frame as a
// delta against the best reference the client holds whenever that wins
// bytes. Intra serves register the frame as the session's next pending
// reference; delta serves do not (delta frames never become references).
//
// deadlineMs (absolute server wall ms; <=0 none) arms the degrade
// ladder. Before committing to the chain, a deadline the scheduler
// projects as already at risk is served from the stale rung when a
// calibrated substitute is cached (a store hit needs no such rescue — it
// is the substitute); the same fallback rescues a request shed by
// admission control. Stale serves bypass the delta path and never become
// references: their bytes are not the render of pt a later delta would
// have to name.
func (s *Server) sessionFrame(pt geom.GridPoint, deadlineMs float64, traceID uint64, sr *sessionRefs) (frame, error) {
	if deadlineMs > 0 && !s.schedOff.Load() && !s.degradeOff.Load() &&
		s.sched.AtRisk(wallMs(), deadlineMs) {
		if f, ok := s.staleFor(pt); ok {
			if f.rung == transport.RungExact {
				// The exact frame is cached: serve it as the store hit it is
				// and let the delta path shrink it as usual.
				s.obs.frameStoreHits.Inc()
				return s.deltaCoded(pt, f, sr), nil
			}
			s.obs.degradeStale.Inc()
			return f, nil
		}
	}
	f, err := s.exact(pt, deadlineMs, traceID, true)
	if errors.Is(err, errOverloaded) && !s.degradeOff.Load() {
		if stale, ok := s.staleFor(pt); ok && stale.rung == transport.RungStale {
			s.obs.degradeStale.Inc()
			stale.stages = f.stages
			return stale, nil
		}
	}
	if err != nil {
		return f, err
	}
	return s.deltaCoded(pt, f, sr), nil
}

// deltaCoded finishes an exact serve of pt: delta-code it against the
// session's best held reference when that wins bytes, else serve it intra
// and register it as the next pending reference.
func (s *Server) deltaCoded(pt geom.GridPoint, f frame, sr *sessionRefs) frame {
	if !s.deltaOff.Load() {
		if d, refPt, ok := s.deltaFor(pt, f.seq, f.data, sr); ok {
			s.obs.deltaFrames.Inc()
			s.obs.deltaSaved.Add(int64(len(f.data) - len(d)))
			f.data, f.kind, f.ref = d, transport.FrameDelta, refPt
			return f
		}
	}
	sr.setPending(pt, f.seq)
	return f
}

// deltaFor tries to produce a delta encoding of frame (pt, seq) against
// the session's best held reference: the nearest held point in the same
// cutoff leaf within the leaf's SSIM-calibrated distance threshold. It
// reports ok=false when no reference qualifies, the reference bytes are
// no longer reconstructible, or the delta does not beat the intra size.
func (s *Server) deltaFor(pt geom.GridPoint, seq uint64, intra []byte, sr *sessionRefs) ([]byte, geom.GridPoint, bool) {
	if len(sr.held) == 0 {
		return nil, geom.GridPoint{}, false
	}
	grid := s.env.Game.Scene.Grid
	pos := grid.Pos(pt)
	leaf := s.env.Map.LeafAt(pos)
	if leaf == nil {
		return nil, geom.GridPoint{}, false
	}
	// Best reference: nearest held frame whose similarity the cutoff map
	// vouches for (same leaf, within DistThresh). Holding pt itself is the
	// ideal case — the re-request costs a skip map and nothing else.
	var refPt geom.GridPoint
	var refSeq uint64
	bestDist := leaf.DistThresh + 1
	for hp, hs := range sr.held {
		d := grid.Dist(pt, hp)
		if d > leaf.DistThresh || d >= bestDist {
			continue
		}
		if s.env.Map.LeafAt(grid.Pos(hp)) != leaf {
			continue
		}
		refPt, refSeq, bestDist = hp, hs, d
	}
	if bestDist > leaf.DistThresh {
		return nil, geom.GridPoint{}, false
	}
	if d, ok := s.store.delta(pt, seq, refPt, refSeq); ok {
		return d, refPt, true
	}
	cur := s.reconFor(pt, seq, intra)
	if cur == nil {
		return nil, geom.GridPoint{}, false
	}
	refRecon := s.reconFor(refPt, refSeq, nil)
	if refRecon == nil {
		return nil, geom.GridPoint{}, false
	}
	d := codec.DeltaEncode(cur, refRecon, s.env.CRF)
	if d == nil || len(d) >= len(intra) {
		return nil, geom.GridPoint{}, false
	}
	s.store.putDelta(pt, seq, refPt, refSeq, d)
	return d, refPt, true
}

// reconFor returns the decoded reconstruction of frame (pt, seq) — the
// raster a client that decoded those exact bytes holds. intra, when
// non-nil, is the frame's known encoded bytes; otherwise they are peeked
// from the store and must still carry the same sequence number (a
// re-rendered frame is a different store entry, so a stale sequence
// returns nil and the caller falls back to intra coding). The raster is
// owned by the pano cache; callers must not mutate or release it.
func (s *Server) reconFor(pt geom.GridPoint, seq uint64, intra []byte) *img.Gray {
	if g, gotSeq, ok := s.panos.get(pt); ok && gotSeq == seq {
		return g
	}
	if intra == nil {
		data, gotSeq, ok := s.store.peek(pt)
		if !ok || gotSeq != seq {
			return nil
		}
		intra = data
	}
	g, err := codec.Decode(intra)
	if err != nil {
		return nil
	}
	s.panos.put(pt, seq, g)
	return g
}

// defaultPanoCacheCap bounds the decoded-frame cache. At the default
// 256x128 resolution this is 2 MB worst case; entries are dropped LRU.
const defaultPanoCacheCap = 64

// panoCache is a small LRU map of codec reconstructions keyed by grid
// point, shared by all sessions: the raster a client that decoded the
// frame holds, which is the delta path's reference. Entries are immutable
// once inserted and never returned to the raster pools — a session may
// still be reading an entry after its eviction, so evicted rasters are
// left to the garbage collector.
type panoCache struct {
	mu      sync.Mutex
	cap     int
	entries map[geom.GridPoint]*panoEntry
	head    *panoEntry
	tail    *panoEntry
}

type panoEntry struct {
	pt         geom.GridPoint
	seq        uint64
	recon      *img.Gray
	prev, next *panoEntry
}

func newPanoCache(cap int) *panoCache {
	return &panoCache{cap: cap, entries: make(map[geom.GridPoint]*panoEntry)}
}

// get returns the cached reconstruction of pt and its sequence number.
// The raster is shared and must not be mutated or released.
func (p *panoCache) get(pt geom.GridPoint) (*img.Gray, uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[pt]
	if !ok {
		return nil, 0, false
	}
	p.touch(e)
	return e.recon, e.seq, true
}

// put inserts the reconstruction of render (pt, seq), replacing any
// entry for pt. The cache takes ownership; the caller must not release
// the raster afterwards.
func (p *panoCache) put(pt geom.GridPoint, seq uint64, recon *img.Gray) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.entries[pt]; ok {
		e.seq, e.recon = seq, recon
		p.touch(e)
		return
	}
	e := &panoEntry{pt: pt, seq: seq, recon: recon}
	p.entries[pt] = e
	p.pushFront(e)
	for len(p.entries) > p.cap && p.tail != nil {
		v := p.tail
		p.unlink(v)
		delete(p.entries, v.pt)
	}
}

func (p *panoCache) touch(e *panoEntry) {
	if p.head == e {
		return
	}
	p.unlink(e)
	p.pushFront(e)
}

func (p *panoCache) pushFront(e *panoEntry) {
	e.prev = nil
	e.next = p.head
	if p.head != nil {
		p.head.prev = e
	}
	p.head = e
	if p.tail == nil {
		p.tail = e
	}
}

func (p *panoCache) unlink(e *panoEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		p.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		p.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
