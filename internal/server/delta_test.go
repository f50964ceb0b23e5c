package server

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"coterie/internal/codec"
	"coterie/internal/geom"
	"coterie/internal/img"
	"coterie/internal/obs"
	"coterie/internal/trace"
	"coterie/internal/transport"
)

// startInstrumentedServer is startServer plus a registry, for tests that
// assert on the delta instruments.
func startInstrumentedServer(t *testing.T) (*Server, *obs.Registry, string) {
	t.Helper()
	srv := New(poolEnv(t))
	reg := obs.NewRegistry()
	srv.Instrument(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.Serve(ln)
	return srv, reg, ln.Addr().String()
}

// TestSessionDeltaFlowAndEvictFallback walks the whole delta protocol over
// a real TCP session, playing the client side by hand:
//
//  1. first fetch of a point is intra-coded (no holdings yet);
//  2. re-fetching it is served as a delta against itself — the reference
//     was promoted by the second request's arrival — and the client's
//     DeltaDecode against its retained reference reproduces the frame
//     exactly (identical reconstructions: every block skips);
//  3. a nearby point may be served as a delta against the held reference,
//     and decoding it tracks the point's own intra reconstruction;
//  4. after the client reports its references evicted, the same point
//     falls back to intra coding — the server never deltas against a
//     frame the client says it no longer holds.
func TestSessionDeltaFlowAndEvictFallback(t *testing.T) {
	srv, reg, addr := startInstrumentedServer(t)
	cl, err := Dial(addr, "pool", 5)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	grid := srv.env.Game.Scene.Grid
	ptA := grid.Snap(srv.env.Game.Spawn)

	r1, _, _, err := cl.FetchTraced(ptA)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Kind != transport.FrameIntra {
		t.Fatalf("first fetch kind = %d, want intra", r1.Kind)
	}
	ref, err := codec.Decode(r1.Data)
	if err != nil {
		t.Fatal(err)
	}

	r2, _, _, err := cl.FetchTraced(ptA)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Kind != transport.FrameDelta {
		t.Fatalf("re-fetch kind = %d, want delta", r2.Kind)
	}
	if r2.Ref != ptA {
		t.Fatalf("delta reference = %v, want %v", r2.Ref, ptA)
	}
	if len(r2.Data) >= len(r1.Data) {
		t.Fatalf("delta %d bytes did not beat intra %d bytes", len(r2.Data), len(r1.Data))
	}
	dec, err := codec.DeltaDecode(r2.Data, ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Pix, ref.Pix) {
		t.Fatal("same-point delta did not reconstruct the reference exactly")
	}
	codec.ReleaseGray(dec)

	// A nearby point: within the leaf's DistThresh it is eligible for delta
	// coding against the held reference. Whichever way the size race goes,
	// the reply must be decodable and match the point's intra reconstruction.
	ptB := geom.GridPoint{I: ptA.I + 1, J: ptA.J}
	r3, _, _, err := cl.FetchTraced(ptB)
	if err != nil {
		t.Fatal(err)
	}
	intraB, err := srv.FrameFor(ptB)
	if err != nil {
		t.Fatal(err)
	}
	reconB, err := codec.Decode(intraB)
	if err != nil {
		t.Fatal(err)
	}
	var decB *img.Gray
	switch r3.Kind {
	case transport.FrameDelta:
		if r3.Ref != ptA {
			t.Fatalf("nearby delta reference = %v, want %v", r3.Ref, ptA)
		}
		decB, err = codec.DeltaDecode(r3.Data, ref)
	case transport.FrameIntra:
		decB, err = codec.Decode(r3.Data)
	default:
		t.Fatalf("unexpected frame kind %d", r3.Kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	mad, _ := img.MeanAbsDiff(decB, reconB)
	if mad > 3 {
		t.Fatalf("decoded nearby frame diverged from its intra reconstruction: MAD %v (kind %d)", mad, r3.Kind)
	}
	codec.ReleaseGray(decB)
	codec.ReleaseGray(reconB)

	// Client drops everything it holds: the server must fall back to intra.
	if err := cl.EvictNotice([]geom.GridPoint{ptA, ptB}); err != nil {
		t.Fatal(err)
	}
	r4, _, _, err := cl.FetchTraced(ptA)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Kind != transport.FrameIntra {
		t.Fatalf("fetch after evict notice kind = %d, want intra", r4.Kind)
	}
	if !bytes.Equal(r4.Data, r1.Data) {
		t.Fatal("intra bytes changed across the session for an unevicted store entry")
	}

	snap := reg.Snapshot()
	if c := snap.Counters["server.delta_frames"]; c < 1 {
		t.Errorf("server.delta_frames = %d, want >= 1", c)
	}
	if c := snap.Counters["server.delta_bytes_saved"]; c < 1 {
		t.Errorf("server.delta_bytes_saved = %d, want > 0", c)
	}
	codec.ReleaseGray(ref)
}

// TestSessionDeltaToggle pins the A/B switch the byte benchmarks rely on:
// with delta coding disabled every reply is intra even when a perfect
// reference is held, and re-enabling it restores delta serving within the
// same session.
func TestSessionDeltaToggle(t *testing.T) {
	srv, _, addr := startInstrumentedServer(t)
	srv.SetDeltaEnabled(false)
	cl, err := Dial(addr, "pool", 6)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	pt := srv.env.Game.Scene.Grid.Snap(srv.env.Game.Spawn)
	for i := 0; i < 2; i++ {
		r, _, _, err := cl.FetchTraced(pt)
		if err != nil {
			t.Fatal(err)
		}
		if r.Kind != transport.FrameIntra {
			t.Fatalf("fetch %d with delta disabled: kind %d", i, r.Kind)
		}
	}
	srv.SetDeltaEnabled(true)
	r, _, _, err := cl.FetchTraced(pt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != transport.FrameDelta {
		t.Fatalf("fetch after re-enable: kind %d, want delta", r.Kind)
	}
}

// TestStoreDeltaCache covers the encoded-delta cache riding on store
// entries: lookups are keyed by the full (point, seq, refPoint, refSeq)
// identity, stale sequences are dropped, the per-entry FIFO stays bounded,
// and delta bytes are charged to (and reclaimed from) the byte budget.
func TestStoreDeltaCache(t *testing.T) {
	st := newFrameStore(1)
	pt := geom.GridPoint{I: 1, J: 2}
	_, _, ok, c, leader := st.lookup(pt)
	if ok || !leader {
		t.Fatal("expected to lead the first render")
	}
	frame := make([]byte, 100)
	seq := st.complete(pt, c, frame, nil)
	if seq == 0 {
		t.Fatal("completed render got no sequence number")
	}

	ref := geom.GridPoint{I: 1, J: 3}
	d1 := make([]byte, 10)
	st.putDelta(pt, seq, ref, 7, d1)
	if got, ok := st.delta(pt, seq, ref, 7); !ok || len(got) != 10 {
		t.Fatalf("cached delta lookup = %v,%v", got, ok)
	}
	if _, ok := st.delta(pt, seq, ref, 8); ok {
		t.Fatal("delta matched a different reference sequence")
	}
	if _, ok := st.delta(pt, seq+1, ref, 7); ok {
		t.Fatal("delta matched a stale frame sequence")
	}
	if st.Bytes() != 110 {
		t.Fatalf("store bytes %d, want frame 100 + delta 10", st.Bytes())
	}

	// A stale put (the entry re-rendered since the caller read it) must be
	// dropped without touching accounting.
	st.putDelta(pt, seq+1, ref, 9, make([]byte, 50))
	if st.Bytes() != 110 {
		t.Fatalf("stale putDelta changed accounting: %d bytes", st.Bytes())
	}

	// Fill past the FIFO bound: the oldest delta is replaced.
	for i := 0; i < maxDeltasPerEntry; i++ {
		st.putDelta(pt, seq, geom.GridPoint{I: 10 + i}, 1, make([]byte, 10))
	}
	if _, ok := st.delta(pt, seq, ref, 7); ok {
		t.Fatal("oldest delta survived FIFO replacement")
	}
	if _, ok := st.delta(pt, seq, geom.GridPoint{I: 10 + maxDeltasPerEntry - 1}, 1); !ok {
		t.Fatal("newest delta missing after FIFO replacement")
	}
	if want := int64(100 + 10*maxDeltasPerEntry); st.Bytes() != want {
		t.Fatalf("store bytes %d, want %d", st.Bytes(), want)
	}

	// Budget pressure evicts the entry with its deltas, reclaiming the full
	// size() charge.
	st.SetBudget(50)
	if st.Bytes() != 0 || st.Len() != 0 {
		t.Fatalf("after eviction: %d bytes / %d entries", st.Bytes(), st.Len())
	}
	if _, ok := st.delta(pt, seq, geom.GridPoint{I: 10}, 1); ok {
		t.Fatal("delta survived its entry's eviction")
	}
}

// TestRunLiveTinyRefBudget runs a live session whose reference store holds
// barely two frames, forcing continuous evictions and MsgEvictNotice
// traffic interleaved with frame requests. The session must stay clean:
// every delta the server sends must decode against a reference the client
// still holds (a single failed DeltaDecode aborts the run).
func TestRunLiveTinyRefBudget(t *testing.T) {
	env := poolEnv(t)
	srv, addr := startLiveServer(t, nil)
	tr := trace.Generate(env.Game, 2, 7)
	seedServer(t, srv, tr)

	live, err := RunLive(env, addr, tr, 0, LiveConfig{
		Speed:        4,
		DecodeFrames: true,
		RefBytes:     int64(2*env.Renderer.Cfg.W*env.Renderer.Cfg.H + 1),
		IdleTimeout:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if live.Metrics.Frames == 0 || live.Fetches == 0 {
		t.Fatalf("live session did nothing: %+v", live)
	}
	waitFor(t, 2*time.Second, func() bool {
		_, completed := srv.Sessions()
		return len(completed) == 1
	})
	_, completed := srv.Sessions()
	if st := completed[0]; st.Err != "" {
		t.Errorf("session under ref-budget pressure ended with error: %s", st.Err)
	}
}

// TestFrameForSessionRacesEviction hammers the session serve step from two
// concurrent sessions over neighbouring points while a third goroutine
// churns the store budget, so LRU eviction races the in-flight delta
// encodings and reference reads the sessions perform. Run under -race this
// pins the store's slice-ownership contract end to end: every serve must
// either return intact frame bytes or the overload error — never bytes an
// evictor mutated.
func TestFrameForSessionRacesEviction(t *testing.T) {
	srv := New(poolEnv(t))
	grid := srv.env.Game.Scene.Grid
	spawn := grid.Snap(srv.env.Game.Spawn)

	const iters = 60
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				srv.SetStoreBudget(2 << 10)
			} else {
				srv.SetStoreBudget(0)
			}
		}
	}()

	var sessions sync.WaitGroup
	for p := 0; p < 2; p++ {
		sessions.Add(1)
		go func(p int) {
			defer sessions.Done()
			sr := newSessionRefs()
			for i := 0; i < iters; i++ {
				pt := geom.GridPoint{I: spawn.I + (i+p)%3, J: spawn.J + i%2}
				var dl float64
				if i%3 == 0 {
					dl = wallMs() + 16.7
				}
				sr.promote()
				f, err := srv.sessionFrame(pt, dl, 0, sr)
				if err != nil {
					if errors.Is(err, errOverloaded) {
						continue
					}
					t.Errorf("session %d iter %d: %v", p, i, err)
					return
				}
				if len(f.data) == 0 {
					t.Errorf("session %d iter %d: empty frame", p, i)
					return
				}
			}
		}(p)
	}
	sessions.Wait()
	close(stop)
	churn.Wait()
}

// TestSessionRefsOrderBounded pins the holdings' promotion order to the
// holdings themselves: a long session whose client evicts every
// reference it receives must not grow order one entry per eviction, and
// a point dropped and then promoted again is the newest holding, so the
// next trim evicts the oldest one instead of it.
func TestSessionRefsOrderBounded(t *testing.T) {
	sr := newSessionRefs()
	for i := 0; i < 10000; i++ {
		pt := geom.GridPoint{I: i}
		sr.setPending(pt, uint64(i+1))
		sr.promote()
		sr.drop([]geom.GridPoint{pt})
	}
	if len(sr.held) != 0 || len(sr.order) > 2*maxHeldRefs {
		t.Fatalf("after 10000 promote/drop cycles: held=%d order=%d, want held=0 order<=%d",
			len(sr.held), len(sr.order), 2*maxHeldRefs)
	}

	sr = newSessionRefs()
	var seq uint64
	promote := func(pt geom.GridPoint) {
		seq++
		sr.setPending(pt, seq)
		sr.promote()
	}
	re := geom.GridPoint{I: -1}
	promote(re)
	for i := 1; i < maxHeldRefs; i++ {
		promote(geom.GridPoint{I: i})
	}
	sr.drop([]geom.GridPoint{re})
	promote(re)
	rePromoted := seq
	promote(geom.GridPoint{I: maxHeldRefs}) // one past the bound: trims once
	if got, ok := sr.held[re]; !ok || got != rePromoted {
		t.Fatalf("re-promoted point: held=%v seq=%d, want held at seq %d", ok, got, rePromoted)
	}
	if _, ok := sr.held[geom.GridPoint{I: 1}]; ok {
		t.Fatal("the oldest holding survived the trim")
	}
	if len(sr.held) != maxHeldRefs || len(sr.order) != maxHeldRefs {
		t.Fatalf("held=%d order=%d, want both %d", len(sr.held), len(sr.order), maxHeldRefs)
	}
}

// TestPeerRepliesStayIntraExactLocal sends node-to-node frame requests
// over one session, as a proxying peer does: the same point twice, then a
// neighbour inside the leaf's DistThresh. A client session would delta-
// code the second and third replies against the first; a peer reply must
// never be delta-coded, degraded or re-attributed, so every reply is
// intra at RungExact from OriginLocal and carries exactly FrameFor's
// bytes.
func TestPeerRepliesStayIntraExactLocal(t *testing.T) {
	srv, addr := startServer(t)
	grid := srv.env.Game.Scene.Grid
	ptA := grid.Snap(srv.env.Game.Spawn)
	ptB := geom.GridPoint{I: ptA.I + 1, J: ptA.J}
	leaf := srv.env.Map.LeafAt(grid.Pos(ptA))
	if leaf == nil || srv.env.Map.LeafAt(grid.Pos(ptB)) != leaf || grid.Dist(ptA, ptB) > leaf.DistThresh {
		t.Fatalf("test premise: %v is not a same-leaf neighbour of %v within DistThresh", ptB, ptA)
	}

	c := transport.NewConn(dialRaw(t, addr))
	for i, pt := range []geom.GridPoint{ptA, ptA, ptB} {
		req := transport.EncodeFrameRequest(transport.FrameRequest{
			Player: 9, Point: pt, ReqID: uint32(i + 1), SentMs: wallMs(),
		})
		if err := c.Send(transport.Message{Type: transport.MsgPeerFrameRequest, Payload: req}); err != nil {
			t.Fatal(err)
		}
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Type != transport.MsgPeerFrameReply {
			t.Fatalf("request %d: reply type %d, want MsgPeerFrameReply", i, m.Type)
		}
		r, err := transport.DecodeFrameReply(m.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if r.Kind != transport.FrameIntra || r.Rung != transport.RungExact || r.Origin != transport.OriginLocal {
			t.Fatalf("request %d for %v: kind=%d rung=%d origin=%d, want intra/exact/local",
				i, pt, r.Kind, r.Rung, r.Origin)
		}
		want, err := srv.FrameFor(pt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.Data, want) {
			t.Fatalf("request %d for %v: peer reply bytes differ from FrameFor", i, pt)
		}
	}
}
