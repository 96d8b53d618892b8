package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"xdmodfed/internal/auth"
	"xdmodfed/internal/config"
	"xdmodfed/internal/core"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/replicate"
	"xdmodfed/internal/rest"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/warehouse"
	"xdmodfed/internal/workload"
)

const (
	benchUser = "fedmanager"
	benchPass = "perfbench-password"
	// trafficIDBase keeps traffic-phase job ids clear of the history's.
	trafficIDBase = 10_000_000
)

// site is one satellite and its generated inputs.
type site struct {
	name     string
	resource string
	mode     string // "facts" or "pushdown"
	sat      *core.Satellite
	wal      *warehouse.LogWriter
	walPath  string

	historyN int                    // history records generated
	months   map[int64]float64      // jobs per end month of every record committed so far
	logs     [][]byte               // history as ingestChunks Slurm sacct logs
	batches  [][]shredder.JobRecord // traffic (or probe) batches, in order
}

// addMonths counts records the member has committed by end month; the
// hub's per-month job_count is verified against these counts.
func (s *site) addMonths(recs []shredder.JobRecord) {
	for _, rec := range recs {
		s.months[jobs.MonthKey(rec.End)]++
	}
}

// fed is the system under test: one hub, two satellites, the hub's
// REST handler on a loopback HTTP server, and a logged-in client.
type fed struct {
	set     Settings
	hub     *core.Hub
	hubAddr string // replication listener
	srv     *rest.Server
	serve   *serveTimer
	http    *http.Server
	ln      net.Listener
	base    string
	token   string
	client  *http.Client
	sites   [2]*site
	cancel  context.CancelFunc
	ctx     context.Context
	served  sync.WaitGroup
	// onMiss, when set, receives every query-cache miss the benchmark's
	// own QuerySeries calls see.
	onMiss func(durationMS float64, rows int)
}

func hubLevels() []config.AggregationLevels {
	return []config.AggregationLevels{config.HubWallTime(), config.DefaultJobSize(), config.CloudVMMemory()}
}

// hubConfig is shared by the live hub and the verification control.
func hubConfig(set Settings) config.InstanceConfig {
	return config.InstanceConfig{
		Name: "fedhub", Version: core.Version,
		AggregationLevels: hubLevels(),
		Sharding:          config.ShardingConfig{Shards: set.Shards, Key: set.ShardKey},
		QueryCache:        config.QueryCacheConfig{MaxBytes: set.CacheMaxBytes},
	}
}

// siteModels are the two members: siteA runs Comet's 2017 shape and
// replicates raw facts, re-aggregated at the hub under the hub's own
// levels; siteB runs Stampede's shape and pushes down partial
// aggregates, which requires levels identical to the hub's.
func siteModels() [2]workload.ResourceModel {
	m := workload.XSEDE2017Models()
	return [2]workload.ResourceModel{m[0], m[2]}
}

// genSite builds one member's seeded inputs: a history of about
// jobsWanted records as chunks Slurm logs, and the traffic batches.
func genSite(name, mode string, model workload.ResourceModel, jobsWanted, chunks int, seed int64, nBatches, perBatch int) (*site, error) {
	weight := 0.0
	for _, w := range model.MonthlyWeight {
		weight += w
	}
	scale := int(float64(jobsWanted)/weight + 0.5)
	hist := workload.GenerateJobs(model, scale, seed)
	s := &site{name: name, resource: model.Name, mode: mode, historyN: len(hist), months: map[int64]float64{}}
	s.addMonths(hist)
	for c := 0; c < chunks; c++ {
		var log bytes.Buffer
		if err := shredder.FormatSlurm(&log, hist[c*len(hist)/chunks:(c+1)*len(hist)/chunks]); err != nil {
			return nil, err
		}
		s.logs = append(s.logs, log.Bytes())
	}
	if nBatches > 0 {
		need := nBatches * perBatch
		extra := workload.GenerateJobs(model, need/int(weight)+2, seed^0x5eed)
		for len(extra) < need {
			extra = append(extra, extra...)
		}
		rng := rand.New(rand.NewSource(seed ^ 0xba7c4))
		rng.Shuffle(len(extra), func(i, j int) { extra[i], extra[j] = extra[j], extra[i] })
		for b := 0; b < nBatches; b++ {
			batch := make([]shredder.JobRecord, perBatch)
			for k := range batch {
				rec := extra[b*perBatch+k]
				rec.LocalJobID = trafficIDBase + int64(b*perBatch+k)
				batch[k] = rec
			}
			s.batches = append(s.batches, batch)
		}
	}
	return s, nil
}

// satConfig is one member's instance config with a tight route to
// the hub.
func satConfig(s *site, hubAddr string, set Settings) config.InstanceConfig {
	levels := hubLevels()
	if s.mode == "facts" {
		levels = []config.AggregationLevels{config.InstanceAWallTime(), config.DefaultJobSize(), config.CloudVMMemory()}
	}
	return config.InstanceConfig{
		Name: s.name, Version: core.Version,
		Resources: []config.ResourceConfig{{
			Name: s.resource, Type: "hpc", Nodes: 100, CoresPerNode: 68, WallLimitH: 48, SUFactor: 1.0,
		}},
		AggregationLevels: levels,
		Hubs:              []config.HubRoute{{HubAddr: hubAddr, Mode: "tight"}},
		Replication: config.ReplicationConfig{
			Mode: s.mode, PushdownFlushInterval: set.PushdownFlushInterval,
		},
		Durability: config.DurabilityConfig{WALFsync: set.WALFsync},
	}
}

// startHub builds a hub, starts its replication listener and
// registers both members, checking that they land in different
// aggregation shards.
func startHub(set Settings, sites [2]*site) (*core.Hub, string, error) {
	hub, err := core.NewHub(hubConfig(set))
	if err != nil {
		return nil, "", err
	}
	addr, err := hub.Listen("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	info := jobs.RealmInfo()
	shardOf := map[int]string{}
	for _, s := range sites {
		if err := hub.Register(s.name); err != nil {
			hub.Close()
			return nil, "", err
		}
		for _, k := range hub.Engine.ShardsForSourceSchema(info, replicate.HubSchema(s.name)) {
			if other, dup := shardOf[k]; dup {
				hub.Close()
				return nil, "", fmt.Errorf("members %s and %s share aggregation shard %d", other, s.name, k)
			}
			shardOf[k] = s.name
		}
	}
	return hub, addr, nil
}

// newFed wires the federation from public constructors. Nothing is
// ingested or replicated yet. On error the partly built federation is
// returned for the caller to close.
func newFed(set Settings, sites [2]*site, dir string, rec *recorder) (*fed, error) {
	f := &fed{set: set, sites: sites}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	hub, addr, err := startHub(set, sites)
	if err != nil {
		return f, err
	}
	f.hub, f.hubAddr = hub, addr
	if err := hub.Auth.Vault().Create(auth.User{Username: benchUser, Role: auth.RoleUser, DisplayName: "Federation manager"}, benchPass); err != nil {
		return f, err
	}
	f.srv = rest.NewHubServer(hub)
	f.serve = &serveTimer{next: f.srv.Handler(), rec: rec}
	f.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return f, err
	}
	f.http = &http.Server{Handler: f.serve, ReadHeaderTimeout: 5 * time.Second}
	f.served.Add(1)
	go func() {
		defer f.served.Done()
		f.http.Serve(f.ln)
	}()
	f.base = "http://" + f.ln.Addr().String()
	f.client = &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true},
	}
	if f.token, err = f.login(); err != nil {
		return f, err
	}
	for _, s := range sites {
		if s.sat, err = core.NewSatellite(satConfig(s, addr, set)); err != nil {
			return f, err
		}
		s.walPath = filepath.Join(dir, s.name+".wal")
		if err := os.Remove(s.walPath); err != nil && !os.IsNotExist(err) {
			return f, err
		}
		s.wal, err = warehouse.OpenLogWriterOpts(s.sat.DB, s.walPath, 0, warehouse.WALOptions{
			Fsync: warehouse.FsyncPolicy(set.WALFsync),
		})
		if err != nil {
			return f, err
		}
	}
	return f, nil
}

func (f *fed) login() (string, error) {
	body, err := json.Marshal(map[string]string{"username": benchUser, "password": benchPass})
	if err != nil {
		return "", err
	}
	resp, err := f.client.Post(f.base+"/api/auth/login", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var lr struct {
		Token string `json:"token"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil || lr.Token == "" {
		return "", fmt.Errorf("login: status %d: %v", resp.StatusCode, err)
	}
	return lr.Token, nil
}

// close stops senders, the WAL writers, the replication listener and
// the HTTP server, and waits for the server goroutine.
func (f *fed) close() {
	for _, s := range f.sites {
		if s.sat != nil {
			s.sat.StopFederation()
		}
		if s.wal != nil {
			s.wal.Close()
			os.Remove(s.walPath)
		}
	}
	f.cancel()
	if f.hub != nil {
		f.hub.Close()
	}
	if f.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		f.http.Shutdown(ctx)
		cancel()
		f.served.Wait()
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
}

// member returns a hub's view of one member.
func member(hub *core.Hub, name string) (core.Member, bool) {
	for _, m := range hub.Members() {
		if m.Name == name {
			return m, true
		}
	}
	return core.Member{}, false
}

// atHead reports whether a hub has durably applied everything the
// satellite has committed; a pushdown member must also have its
// deltas cover the head.
func atHead(hub *core.Hub, s *site) bool {
	m, ok := member(hub, s.name)
	if !ok {
		return false
	}
	head := s.sat.DB.Binlog().Last()
	if m.Position != head {
		return false
	}
	return s.mode != "pushdown" || (m.Mode == "pushdown" && m.DeltaCovered == head)
}

// jobCount asks a hub, through its REST server's query path, how many
// jobs of one resource it shows. Cache misses feed onMiss when set.
func jobCount(ctx context.Context, srv *rest.Server, resource string, onMiss func(float64, int)) (int64, error) {
	series, stat, err := srv.QuerySeries(ctx, "Jobs", probeRequest(resource), "", 0)
	if err != nil {
		return 0, err
	}
	if stat.Cache == "miss" && onMiss != nil {
		onMiss(stat.DurationMS, stat.RowsScanned)
	}
	var n float64
	for _, s := range series {
		for _, p := range s.Points {
			n += p.Value
		}
	}
	return int64(n), nil
}

// jobCount is jobCount against the federation's own hub.
func (f *fed) jobCount(ctx context.Context, resource string) (int64, error) {
	return jobCount(ctx, f.srv, resource, f.onMiss)
}

// joinHub (re)starts a satellite's replication towards the hub at
// addr. The route lives in the satellite's exported config, which
// StartFederation reads.
func joinHub(ctx context.Context, s *site, addr string) error {
	s.sat.StopFederation()
	s.sat.Config.Hubs = []config.HubRoute{{HubAddr: addr, Mode: "tight"}}
	return s.sat.StartFederation(ctx)
}

// serveTimer wraps the hub's REST handler and times each chart
// request server-side; the request id header links its span to the
// client's.
type serveTimer struct {
	next http.Handler
	rec  *recorder

	mu      sync.Mutex
	on      bool
	serveMS []float64
	non2xx  int
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (t *serveTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/api/chart" {
		t.next.ServeHTTP(w, r)
		return
	}
	// Only requests the reader traces carry a request id; the others
	// are the untraced half of the tracing-overhead comparison.
	var sp open
	if req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64); req != 0 {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		sp = t.rec.start("rest.serve", parent, req)
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	t.next.ServeHTTP(sw, r)
	d := time.Since(start)
	sp.end()
	t.mu.Lock()
	if t.on {
		t.serveMS = append(t.serveMS, ms(d))
		if sw.code/100 != 2 {
			t.non2xx++
		}
	}
	t.mu.Unlock()
}

// record switches server-side sample collection on or off.
func (t *serveTimer) record(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

const (
	reqHeader  = "X-Perfbench-Request"
	spanHeader = "X-Perfbench-Span"
)
