package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"coterie/internal/transport"
)

// span is one traced interval. Times are milliseconds from the run's t0;
// parent indexes the enclosing span in the same slice (-1 for a root).
// Spans of one request share id = player<<32 | seq.
type span struct {
	ID     uint64  `json:"id"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Parent int     `json:"parent"`
}

// layer is the module a span's time is charged to: its name up to the
// first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps one session's spans in memory. Each session owns its own
// tracer, so recording takes no lock.
type tracer struct {
	spans []span
}

func (t *tracer) add(id uint64, name string, start, end float64, parent int) int {
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start, End: end, Parent: parent})
	return len(t.spans) - 1
}

// request records the spans of one delivered request. The generator's
// own stamps bracket the calls into the transport (the fetch) and the
// codec (the decode); the server's stage stamps from the reply place the
// server-side spans inside the fetch: residence from RecvMs to SendMs, and
// within it the queue, render and encode stages in the order the server
// runs them.
func (t *tracer) request(rec *record, wallT0 float64, reply transport.FrameReply) {
	id := uint64(rec.player)<<32 | uint64(uint32(rec.seq))
	root := t.add(id, "generator.frame", rec.dueMs, rec.doneMs, -1)
	fetch := t.add(id, "transport.fetch", rec.sentMs, rec.recvMs, root)
	at := reply.RecvMs - wallT0
	res := t.add(id, "server.residence", at, reply.SendMs-wallT0, fetch)
	for _, st := range []struct {
		name string
		ms   float64
	}{{"sched.queue", reply.QueueMs}, {"render.render", reply.RenderMs}, {"codec.encode", reply.EncodeMs}} {
		if st.ms > 0 {
			t.add(id, st.name, at, at+st.ms, res)
			at += st.ms
		}
	}
	decode := "codec.decode"
	if reply.Kind == transport.FrameDelta {
		decode = "codec.delta_decode"
	}
	t.add(id, decode, rec.recvMs, rec.recvMs+rec.decodeMs, root)
}

// merge concatenates per-session span lists, re-basing parent indexes.
func merge(ts []*tracer) []span {
	var out []span
	for _, t := range ts {
		base := len(out)
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children counted
// once, parts outside the parent ignored).
func selfTimes(spans []span) []float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi float64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, curLo, curHi := 0.0, 0.0, 0.0
		for k, v := range ivs {
			switch {
			case k == 0:
				curLo, curHi = v.lo, v.hi
			case v.lo > curHi:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			case v.hi > curHi:
				curHi = v.hi
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		self[i] = max(0, s.End-s.Start-covered)
	}
	return self
}

// layerSelfMs sums self time by layer.
func layerSelfMs(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, st := range selfTimes(spans) {
		out[spans[i].layer()] += st
	}
	return out
}

// writeSpans writes the spans as JSON lines to path, creating its
// directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
