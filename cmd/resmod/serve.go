package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"resmod/internal/dist"
	"resmod/internal/server"
	"resmod/internal/store"
)

// serveOptions are the serve subcommand's flags, validated up front so a
// misconfigured service exits non-zero with a usable message before it
// binds the listener.
type serveOptions struct {
	listen           string
	workers          int
	queue            int
	storeDir         string
	cache            int
	trials           int
	seed             uint64
	campaignWorkers  int
	campaignParallel int
	drain            time.Duration
	pprofAddr        string
	apiKeys          string
	apiKeysFile      string
	tenantRate       float64
	tenantBurst      int
	tenantInflight   int
	anonRate         float64
	anonBurst        int
	anonInflight     int
	coordinator      bool
	heartbeatTimeout time.Duration
	shardsPerWorker  int
	sampleEvery      time.Duration
	tf               telFlags
}

// validate rejects configurations that could only fail later (or worse,
// limp along): malformed listen addresses, non-positive pool sizes.
func (o serveOptions) validate() error {
	if err := validListenAddr("-listen", o.listen); err != nil {
		return err
	}
	if o.pprofAddr != "" {
		if err := validListenAddr("-pprof-addr", o.pprofAddr); err != nil {
			return err
		}
	}
	if o.workers <= 0 {
		return fmt.Errorf("-workers must be positive, got %d", o.workers)
	}
	if o.queue <= 0 {
		return fmt.Errorf("-queue must be positive, got %d", o.queue)
	}
	if o.cache <= 0 {
		return fmt.Errorf("-cache must be positive, got %d", o.cache)
	}
	if o.trials <= 0 {
		return fmt.Errorf("-trials must be positive, got %d", o.trials)
	}
	if o.campaignWorkers < 0 {
		return fmt.Errorf("-campaign-workers must be non-negative, got %d", o.campaignWorkers)
	}
	if o.campaignParallel < 0 {
		return fmt.Errorf("-campaign-parallel must be non-negative, got %d", o.campaignParallel)
	}
	if o.drain <= 0 {
		return fmt.Errorf("-drain must be positive, got %v", o.drain)
	}
	if o.apiKeys != "" && o.apiKeysFile != "" {
		return fmt.Errorf("-api-keys and -api-keys-file are mutually exclusive")
	}
	if !o.coordinator && (o.heartbeatTimeout != DefaultServeHeartbeatTimeout ||
		o.shardsPerWorker != dist.DefaultShardsPerWorker) {
		return fmt.Errorf("-heartbeat-timeout and -shards-per-worker need -coordinator")
	}
	if o.heartbeatTimeout <= 0 {
		return fmt.Errorf("-heartbeat-timeout must be positive, got %v", o.heartbeatTimeout)
	}
	if o.shardsPerWorker <= 0 {
		return fmt.Errorf("-shards-per-worker must be positive, got %d", o.shardsPerWorker)
	}
	if o.sampleEvery <= 0 {
		return fmt.Errorf("-sample-every must be positive, got %v", o.sampleEvery)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"-tenant-rate", o.tenantRate}, {"-anon-rate", o.anonRate}} {
		if f.v < 0 {
			return fmt.Errorf("%s must be non-negative, got %v", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"-tenant-burst", o.tenantBurst}, {"-tenant-inflight", o.tenantInflight},
		{"-anon-burst", o.anonBurst}, {"-anon-inflight", o.anonInflight},
	} {
		if f.v < 0 {
			return fmt.Errorf("%s must be non-negative, got %d", f.name, f.v)
		}
	}
	return nil
}

// parseAPIKeys parses "key:tenant,key:tenant" into the server's key map.
// Tenant names must not collide with the reserved anonymous tier, and a
// key registered twice is a config bug worth failing on.
func parseAPIKeys(s string) (map[string]string, error) {
	keys := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, tenant, found := strings.Cut(part, ":")
		key, tenant = strings.TrimSpace(key), strings.TrimSpace(tenant)
		if !found || key == "" || tenant == "" {
			return nil, fmt.Errorf("api key entry %q: want KEY:TENANT", part)
		}
		if tenant == server.AnonTenant {
			return nil, fmt.Errorf("api key entry %q: tenant name %q is reserved for the anonymous tier",
				part, server.AnonTenant)
		}
		if prev, dup := keys[key]; dup {
			return nil, fmt.Errorf("api key %q registered twice (tenants %q and %q)", key, prev, tenant)
		}
		keys[key] = tenant
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("api key list %q selects nothing", s)
	}
	return keys, nil
}

// loadAPIKeysFile reads one KEY:TENANT pair per line ('#' comments and
// blank lines ignored) so keys can live outside process listings.
func loadAPIKeysFile(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entries = append(entries, line)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("%s: no KEY:TENANT entries", path)
	}
	return parseAPIKeys(strings.Join(entries, ","))
}

// validListenAddr checks a host:port flag value without resolving it.
func validListenAddr(flagName, addr string) error {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("%s %q: %v (want host:port, e.g. 127.0.0.1:8080)", flagName, addr, err)
	}
	if p, err := strconv.Atoi(port); err != nil || p < 0 || p > 65535 {
		return fmt.Errorf("%s %q: port %q is not a number in 0..65535", flagName, addr, port)
	}
	if host != "" {
		if ip := net.ParseIP(host); ip == nil && !validHostname(host) {
			return fmt.Errorf("%s %q: %q is neither an IP address nor a hostname", flagName, addr, host)
		}
	}
	return nil
}

// validHostname accepts DNS-ish names (letters, digits, '-', '.'): enough
// to catch garbage like "not an address" without resolving anything.
func validHostname(host string) bool {
	if len(host) > 253 {
		return false
	}
	for _, r := range host {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.':
		default:
			return false
		}
	}
	return true
}

// DefaultServeHeartbeatTimeout is the serve -heartbeat-timeout default
// (it mirrors dist.DefaultHeartbeatTimeout; named so validate can tell
// "left at default" from "set without -coordinator").
const DefaultServeHeartbeatTimeout = dist.DefaultHeartbeatTimeout

// doServe runs the prediction service until ctx is canceled (SIGINT or
// SIGTERM from main), then drains gracefully.
func doServe(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(errw)
	var o serveOptions
	fs.StringVar(&o.listen, "listen", "127.0.0.1:8080", "host:port to bind")
	fs.IntVar(&o.workers, "workers", 2, "concurrent prediction jobs")
	fs.IntVar(&o.queue, "queue", 64, "max queued (accepted, unstarted) jobs")
	fs.StringVar(&o.storeDir, "store", "", "result-store directory (empty: memory only)")
	fs.IntVar(&o.cache, "cache", store.DefaultMaxEntries, "in-memory LRU capacity of the store")
	fs.IntVar(&o.trials, "trials", 400, "fault injection tests per campaign (paper: 4000)")
	fs.Uint64Var(&o.seed, "seed", 2018, "campaign seed")
	fs.IntVar(&o.campaignWorkers, "campaign-workers", 0, "trials run at once, shared by all jobs (default GOMAXPROCS)")
	fs.IntVar(&o.campaignParallel, "campaign-parallel", 0,
		"concurrent campaigns, shared by all jobs (default GOMAXPROCS; 1 = sequential)")
	fs.DurationVar(&o.drain, "drain", 30*time.Second, "graceful-shutdown budget for in-flight jobs")
	fs.StringVar(&o.pprofAddr, "pprof-addr", "", "host:port for a net/http/pprof listener (empty: disabled)")
	fs.StringVar(&o.apiKeys, "api-keys", "", "inline API keys: KEY:TENANT,KEY:TENANT,...")
	fs.StringVar(&o.apiKeysFile, "api-keys-file", "",
		"`file` of KEY:TENANT lines ('#' comments allowed); exclusive with -api-keys")
	fs.Float64Var(&o.tenantRate, "tenant-rate", 0,
		"sustained submissions/sec per keyed tenant (0 = unlimited)")
	fs.IntVar(&o.tenantBurst, "tenant-burst", 0,
		"submission burst per keyed tenant (0 = derived from -tenant-rate)")
	fs.IntVar(&o.tenantInflight, "tenant-inflight", 0,
		"max queued+running jobs per keyed tenant (0 = unlimited)")
	fs.Float64Var(&o.anonRate, "anon-rate", 0,
		"sustained submissions/sec for the anonymous tier (0 = unlimited)")
	fs.IntVar(&o.anonBurst, "anon-burst", 0,
		"submission burst for the anonymous tier (0 = derived from -anon-rate)")
	fs.IntVar(&o.anonInflight, "anon-inflight", 0,
		"max queued+running anonymous jobs (0 = unlimited)")
	fs.BoolVar(&o.coordinator, "coordinator", false,
		"act as a distributed-execution coordinator: accept resmod worker registrations and shard campaigns across them")
	fs.DurationVar(&o.heartbeatTimeout, "heartbeat-timeout", DefaultServeHeartbeatTimeout,
		"declare a worker dead after this long without a heartbeat (needs -coordinator)")
	fs.IntVar(&o.shardsPerWorker, "shards-per-worker", dist.DefaultShardsPerWorker,
		"trial-range chunks per alive worker when sharding a campaign (needs -coordinator)")
	fs.DurationVar(&o.sampleEvery, "sample-every", 10*time.Second,
		"telemetry sampling period for /v1/series retention and alert evaluation")
	o.tf.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("serve: unexpected arguments %v", fs.Args())
	}
	if err := o.validate(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}

	rt := o.tf.setup(errw)
	cfg := server.Config{
		Trials: o.trials, Seed: o.seed,
		Workers: o.workers, Queue: o.queue,
		CampaignWorkers:  o.campaignWorkers,
		CampaignParallel: o.campaignParallel,
		SampleEvery:      o.sampleEvery,
		Logger:           rt.tel.Logger(),
		Tracer:           rt.tracer,
		TenantLimits: server.TenantLimits{
			Rate: o.tenantRate, Burst: o.tenantBurst, MaxInflight: o.tenantInflight,
		},
		AnonLimits: server.TenantLimits{
			Rate: o.anonRate, Burst: o.anonBurst, MaxInflight: o.anonInflight,
		},
	}
	switch {
	case o.apiKeys != "":
		keys, err := parseAPIKeys(o.apiKeys)
		if err != nil {
			return fmt.Errorf("serve: -api-keys: %w", err)
		}
		cfg.APIKeys = keys
	case o.apiKeysFile != "":
		keys, err := loadAPIKeysFile(o.apiKeysFile)
		if err != nil {
			return fmt.Errorf("serve: -api-keys-file: %w", err)
		}
		cfg.APIKeys = keys
	}
	if o.storeDir != "" {
		st, err := store.Open(store.Config{Dir: o.storeDir, MaxEntries: o.cache})
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		cfg.Store = st
	}
	if o.coordinator {
		cfg.DistPool = dist.NewPool(dist.PoolConfig{
			HeartbeatTimeout: o.heartbeatTimeout,
			ShardsPerWorker:  o.shardsPerWorker,
		})
	}

	stopPprof, err := startPprof(o.pprofAddr, rt.tel.Logger())
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	defer stopPprof()

	srv := server.New(cfg)
	err = srv.ListenAndServe(ctx, o.listen, o.drain)
	if ferr := rt.finish(errw); ferr != nil && err == nil {
		err = ferr
	}
	return err
}
