package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"resmod/internal/dist"
)

// workerOptions are the worker subcommand's flags.
type workerOptions struct {
	coordinator     string
	listen          string
	advertise       string
	name            string
	campaignWorkers int
	heartbeat       time.Duration
	pprofAddr       string
	tf              telFlags
}

func (o workerOptions) validate() error {
	if o.coordinator == "" {
		return fmt.Errorf("-coordinator URL is required")
	}
	if !strings.HasPrefix(o.coordinator, "http://") && !strings.HasPrefix(o.coordinator, "https://") {
		return fmt.Errorf("-coordinator %q: want an http:// or https:// URL", o.coordinator)
	}
	if err := validListenAddr("-listen", o.listen); err != nil {
		return err
	}
	if o.campaignWorkers < 0 {
		return fmt.Errorf("-campaign-workers must be non-negative, got %d", o.campaignWorkers)
	}
	if o.heartbeat <= 0 {
		return fmt.Errorf("-heartbeat must be positive, got %v", o.heartbeat)
	}
	if o.pprofAddr != "" {
		if err := validListenAddr("-pprof-addr", o.pprofAddr); err != nil {
			return err
		}
	}
	return nil
}

// doWorker runs a distributed execution node until ctx is canceled: it
// registers with the coordinator, heartbeats, and executes trial-range
// shards dispatched to it through the local faultsim engine.  All app
// registration happens at import time, so a worker can execute any
// campaign the coordinator can name.
func doWorker(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	fs.SetOutput(errw)
	var o workerOptions
	fs.StringVar(&o.coordinator, "coordinator", "", "coordinator base `URL` (e.g. http://127.0.0.1:8080)")
	fs.StringVar(&o.listen, "listen", "127.0.0.1:0", "host:port to bind the shard endpoint")
	fs.StringVar(&o.advertise, "advertise", "",
		"`URL` the coordinator dials back (default http://<bound address>)")
	fs.StringVar(&o.name, "name", "", "worker label in the coordinator's /v1/cluster roster (default: bound address)")
	fs.IntVar(&o.campaignWorkers, "campaign-workers", 0,
		"trial-level concurrency per shard (default GOMAXPROCS)")
	fs.DurationVar(&o.heartbeat, "heartbeat", dist.DefaultHeartbeatEvery,
		"heartbeat period to the coordinator")
	fs.StringVar(&o.pprofAddr, "pprof-addr", "", "host:port for a net/http/pprof listener (empty: disabled)")
	o.tf.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("worker: unexpected arguments %v", fs.Args())
	}
	if err := o.validate(); err != nil {
		return fmt.Errorf("worker: %w", err)
	}

	w, err := dist.NewWorker(dist.WorkerConfig{
		Coordinator:    o.coordinator,
		Listen:         o.listen,
		Advertise:      o.advertise,
		Name:           o.name,
		Workers:        o.campaignWorkers,
		HeartbeatEvery: o.heartbeat,
	})
	if err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	rt := o.tf.setup(errw)
	stopPprof, err := startPprof(o.pprofAddr, rt.tel.Logger())
	if err != nil {
		rt.render.stop()
		return fmt.Errorf("worker: %w", err)
	}
	defer stopPprof()
	tctx, root := rt.context(ctx, "resmod worker")
	err = w.Run(tctx)
	root.End()
	if ferr := rt.finish(errw); ferr != nil && err == nil {
		err = ferr
	}
	return err
}
