package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"time"

	"coterie/internal/core"
	"coterie/internal/games"
	"coterie/internal/obs"
	"coterie/internal/render"
	"coterie/internal/server"
)

// Server configuration: coterie-server's defaults.
const (
	game   = "viking"
	width  = 256
	height = 128
)

// rig is one prepared frame service: the environment, an in-process
// server listening on loopback TCP, its registry, and one connected
// client per session.
type rig struct {
	env     *core.Env
	srv     *server.Server
	reg     *obs.Registry
	clients []*server.Client

	cancel context.CancelFunc
	served chan error
}

// logger receives the server's and the SLO monitor's slog output. The SLO
// fast-burn warning fires on the first degraded frames; it goes to stderr,
// never into the metrics on stdout.
var logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))

// setUp prepares the environment and starts the server the way
// coterie-server does with default flags: registry instrumented, SLO
// attached, scheduler, degrade ladder, delta coding and reprojection on,
// push off, store unbounded. The expvar publication and the FI-sync UDP
// listener are left out: neither is on the TCP frame path. For the arena
// walk, every arena lattice site is pre-rendered before the sessions dial.
func setUp(w workload) (*rig, error) {
	spec, err := games.ByName(game)
	if err != nil {
		return nil, err
	}
	env, err := core.PrepareEnv(spec, core.EnvOptions{
		RenderCfg: render.Config{W: width, H: height},
	})
	if err != nil {
		return nil, fmt.Errorf("prepare env: %w", err)
	}
	srv := server.New(env)
	srv.Logger = logger
	srv.DrainTimeout = 5 * time.Second
	srv.SetSchedEnabled(true)
	srv.SetDegradeEnabled(true)
	srv.SetPushEnabled(false)
	reg := obs.NewRegistry()
	srv.Instrument(reg)
	slo := obs.NewSLO(obs.SLOConfig{
		Objective:   obs.DefaultSLOObjective,
		ShortWindow: time.Minute,
		LongWindow:  5 * time.Minute,
		Logger:      logger,
	})
	reg.SetSLO(slo)
	srv.SetSLO(slo)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.Renderer.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &rig{env: env, srv: srv, reg: reg, cancel: cancel, served: make(chan error, 1)}
	go func() { r.served <- srv.ServeContext(ctx, ln) }()

	if w.pattern == patternArena {
		grid := env.Game.Scene.Grid
		lo := arenaOrigin(grid, env.Game.Spawn, w.arena)
		st, err := srv.PrerenderRegion(arenaRect(grid, lo, w.arena), latticeStep, 0)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("prerender: %w", err)
		}
		if st.Points != w.arena*w.arena {
			r.close()
			return nil, fmt.Errorf("prerender covered %d points, want %d", st.Points, w.arena*w.arena)
		}
	}
	for p := 0; p < sessions; p++ {
		cl, err := server.Dial(ln.Addr().String(), game, uint8(p))
		if err != nil {
			r.close()
			return nil, fmt.Errorf("dial session %d: %w", p, err)
		}
		r.clients = append(r.clients, cl)
	}
	return r, nil
}

// close ends the sessions, stops the server, waits for it to return and
// stops the renderer's worker pools.
func (r *rig) close() error {
	for _, cl := range r.clients {
		cl.Close()
	}
	r.clients = nil
	r.cancel()
	err := <-r.served
	r.env.Renderer.Close()
	if errors.Is(err, context.Canceled) {
		err = nil
	}
	return err
}
