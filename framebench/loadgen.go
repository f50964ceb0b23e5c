package main

import (
	"syscall"
	"time"

	"coterie/internal/geom"
	"coterie/internal/transport"
)

// fetchFunc is one synchronous request/reply exchange on a session:
// server.Client.FetchWithDeadline, or a fake in the self-tests. sentMs and
// doneMs are the client's wall-clock stamps around the exchange.
type fetchFunc func(pt geom.GridPoint, deadlineMs float64) (reply transport.FrameReply, sentMs, doneMs float64, err error)

// consumeFunc decodes and checks one reply; its error marks the request
// failed. It runs inside the timed path: a frame counts as delivered when
// it is decoded.
type consumeFunc func(rec *record, reply transport.FrameReply) error

// record is one request's accounting. Times are milliseconds from the
// run's t0 on the monotonic clock.
type record struct {
	player, seq int
	pt          geom.GridPoint

	dueMs  float64 // when the request was due (closed loop: when it was sent)
	sentMs float64 // just before the fetch call
	recvMs float64 // just after the fetch call returned
	doneMs float64 // just after the frame was decoded
	// lagMs is how late the generator itself sent the request: send time
	// minus the later of its due time and the moment the session became
	// free (the previous reply decoded).
	lagMs float64

	ok  bool
	err string

	kind  transport.FrameEncoding
	rung  transport.DegradeRung
	bytes int

	// Server stages from the reply, and the wire time: round trip minus
	// server residence, both on the wall clock.
	residenceMs, queueMs, renderMs, encodeMs, wireMs float64
	decodeMs                                         float64
}

// latencyMs is the frame latency from due time to decoded frame.
func (r *record) latencyMs() float64 { return r.doneMs - r.dueMs }

// sessionPlan says when one session sends.
type sessionPlan struct {
	player int
	// interval is the open-loop period; 0 runs the session closed loop.
	interval time.Duration
	// phase offsets this session's open-loop schedule, so the sessions do
	// not fire in the same instant every period.
	phase time.Duration
	// deadline stamps each request with an absolute deadline deadlineMs
	// after its due time.
	deadline bool
	t0       time.Time
	// end closes the window: no request is due at or after it.
	end time.Time
	// cutoff bounds a backlogged open loop: requests still unsent then
	// are recorded as failed rather than stretching the run.
	cutoff time.Time
}

// runSession drives one session: it asks next for each request point,
// sends on the plan's schedule, and records each request's accounting.
// Open loop: request k is due at t0+phase+k·interval and is sent then, or
// as soon as the previous reply is decoded if that is later, so a stall
// shows in the latency of every request due behind it. Closed loop: each
// request is due when it is sent.
func runSession(plan sessionPlan, next func() geom.GridPoint, fetch fetchFunc, consume consumeFunc, tr *tracer) []record {
	var recs []record
	wallT0 := float64(plan.t0.UnixNano()) / 1e6
	ms := func(t time.Time) float64 { return float64(t.Sub(plan.t0)) / float64(time.Millisecond) }
	for k := 0; ; k++ {
		free := time.Now()
		due := free
		if plan.interval > 0 {
			due = plan.t0.Add(plan.phase + time.Duration(k)*plan.interval)
			if !due.Before(plan.end) {
				break
			}
			if free.After(plan.cutoff) {
				recs = append(recs, record{player: plan.player, seq: k, pt: next(),
					dueMs: ms(due), err: "not sent: backlog ran past the run's cutoff"})
				continue
			}
			waitUntil(due)
		} else if !free.Before(plan.end) {
			break
		}
		rec := record{player: plan.player, seq: k, pt: next(), dueMs: ms(due)}
		var dl float64
		if plan.deadline {
			dl = wallT0 + rec.dueMs + deadlineMs
		}
		sent := time.Now()
		rec.sentMs = ms(sent)
		if due.After(free) {
			rec.lagMs = float64(sent.Sub(due)) / float64(time.Millisecond)
		} else {
			rec.lagMs = float64(sent.Sub(free)) / float64(time.Millisecond)
		}
		reply, wallSent, wallDone, err := fetch(rec.pt, dl)
		rec.recvMs = ms(time.Now())
		if err != nil {
			rec.err = err.Error()
			rec.doneMs = rec.recvMs
			recs = append(recs, rec)
			if wallDone == 0 {
				// Transport failure: the session is gone, so every request
				// still due in the window fails too.
				for k++; plan.interval > 0; k++ {
					d := plan.t0.Add(plan.phase + time.Duration(k)*plan.interval)
					if !d.Before(plan.end) {
						break
					}
					recs = append(recs, record{player: plan.player, seq: k, pt: next(), dueMs: ms(d), err: "session lost"})
				}
				return recs
			}
			continue
		}
		rec.kind, rec.rung, rec.bytes = reply.Kind, reply.Rung, len(reply.Data)
		rec.residenceMs = reply.SendMs - reply.RecvMs
		rec.queueMs, rec.renderMs, rec.encodeMs = reply.QueueMs, reply.RenderMs, reply.EncodeMs
		rec.wireMs = (wallDone - wallSent) - rec.residenceMs
		err = consume(&rec, reply)
		rec.doneMs = ms(time.Now())
		if err != nil {
			rec.err = err.Error()
		} else {
			rec.ok = true
		}
		if tr != nil {
			tr.request(&rec, wallT0, reply)
		}
		recs = append(recs, rec)
	}
	return recs
}

// waitUntil returns at t. It sleeps in clock_nanosleep rather than
// time.Sleep: the runtime's timers wake ~0.6 ms late at the median on a
// 2-core VM (their poller waits in whole milliseconds), which would hide
// most of a warm frame's latency, while the kernel's high-resolution
// timer wakes within ~0.2 ms. A signal cuts the sleep short, so it loops.
func waitUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}
