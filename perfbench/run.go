package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/core"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/replicate"
	"xdmodfed/internal/rest"
	"xdmodfed/internal/shredder"
)

// dashboardMixSeed fixes which charts make up the dashboard and how
// popular each is, so every run and seed asks the same questions;
// --seed varies the data and the order of requests.
const dashboardMixSeed = 2017

// catchupChartPoll paces the catch-up's chart polls.
const catchupChartPoll = 10 * time.Millisecond

// chartWindows is how many consecutive windows chart_p50_ms takes the
// median of.
const chartWindows = 5

// waitLimit bounds every wait for the system to converge; a wait that
// hits it is a failure, never a slow number.
const waitLimit = 60 * time.Second

// setupRepeats is how many times set-up wires the federation; setup_s
// is the median.
const setupRepeats = 61

// ingestChunks is how many Slurm logs each member's history arrives in.
const ingestChunks = 12

// freshnessPoll paces the freshness probe's queries of a facts
// member's batches; a pushdown member's are polled 20 times less often.
const freshnessPoll = 250 * time.Microsecond

// probeMargin is how long before a batch is due the writer stops
// polling for freshness, so a poll's sleep does not delay the send.
const probeMargin = 2 * time.Millisecond

// runner executes one workload run.
type runner struct {
	set     Settings
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string
	rec     *recorder // nil unless tracing

	f      *fed
	charts []chart
	seq    []int

	attempted, failed atomic.Int64
	problems          []string

	e2e   map[string]float64
	layer map[string]float64

	mu          sync.Mutex
	chartMS     []float64 // every chart request, failures as +Inf
	chartOn     []float64 // traced requests
	chartOff    []float64 // untraced requests of a traced run
	freshMS     []float64
	pushMS      []float64
	missMS      []float64
	missRows    []float64
	genLate     []float64
	backlogMax  int
	chartHits   int // reader requests the query cache answered
	dashSamples []dashSample
}

// dashSample is one HTTP chart response kept for verification.
type dashSample struct {
	chart int
	body  []byte
}

func (r *runner) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	r.problems = append(r.problems, msg)
	r.mu.Unlock()
	fmt.Fprintln(os.Stderr, "perfbench: MISMATCH:", msg)
}

// genInputs builds both members' seeded inputs and the chart mix.
func (r *runner) genInputs() ([2]*site, error) {
	var sites [2]*site
	// Batches each member receives: from the writer, or from the probe
	// phase (closed loop for the facts member, open loop for pushdown).
	var nBatches [2]int
	perBatch := r.set.Probe.FactsPerBatch
	if w := r.set.Writer; w.BatchesPerSecPerSite > 0 {
		n := int(math.Ceil(r.seconds.Seconds()*w.BatchesPerSecPerSite)) + 1
		nBatches, perBatch = [2]int{n, n}, w.FactsPerBatch
	} else {
		pr := r.set.Probe
		nBatches = [2]int{pr.FactsSamples, int(math.Ceil(pr.PushdownSeconds*pr.PushdownBatchesPerSec)) + 1}
	}
	names := [2]string{"siteA", "siteB"}
	modes := [2]string{"facts", "pushdown"}
	for i, m := range siteModels() {
		s, err := genSite(names[i], modes[i], m, r.set.HistoryJobsPerSite, ingestChunks, r.seed*7919+int64(i)*104729, nBatches[i], perBatch)
		if err != nil {
			return sites, err
		}
		sites[i] = s
	}
	rd := r.set.Reader
	switch rd.Mix {
	case "live":
		r.charts = liveMix()
	case "dashboard":
		r.charts = dashboardCharts(rd.DistinctCharts, dashboardMixSeed, []string{sites[0].resource, sites[1].resource})
	default:
		return sites, fmt.Errorf("unknown chart mix %q", rd.Mix)
	}
	if len(r.charts) != rd.DistinctCharts {
		return sites, fmt.Errorf("mix %s has %d charts, settings say %d", rd.Mix, len(r.charts), rd.DistinctCharts)
	}
	count := int(math.Ceil(r.seconds.Seconds()*rd.RatePerSec)) + 1
	r.seq = mixSequence(len(r.charts), count, rd.ZipfS, r.seed+17)
	return sites, nil
}

// setup generates the seeded inputs once, untimed, then wires the
// federation setupRepeats times, keeping the last one. setup_s is the
// median time of wiring it: the program's own set-up calls.
func (r *runner) setup() error {
	sites, err := r.genInputs()
	if err != nil {
		return err
	}
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		f, err := newFed(r.set, sites, r.dir, r.rec)
		if err != nil {
			f.close()
			return err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			f.close()
			continue
		}
		r.f = f
	}
	r.f.onMiss = r.noteMiss
	r.e2e["setup_s"] = median(times)
	return nil
}

// history loads both members' histories and catches them up: timed.
func (r *runner) history() error {
	if err := r.ingestHistory(); err != nil {
		return err
	}
	return r.catchupRounds()
}

// ingestHistory shreds, ingests and syncs every history chunk,
// alternating members, and reports the median over chunks of CPU time
// and of wall-clock throughput.
func (r *runner) ingestHistory() error {
	f := r.f
	facts := 0
	var parseS, busyS, syncS float64
	var mallocs uint64
	var rates, cpuPerFact []float64
	parsed := [2]int{}
	for c := 0; c < ingestChunks; c++ {
		for si, s := range f.sites {
			hsp := r.rec.start("history."+s.name, 0, 0)
			t0 := time.Now()
			c0 := cpuSeconds()
			psp := r.rec.start("shredder.Parse", hsp.id, 0)
			recs, perrs := shredder.SlurmParser{}.Parse(bytes.NewReader(s.logs[c]), s.resource)
			parseS += time.Since(t0).Seconds()
			psp.end()
			parsed[si] += len(recs)
			if len(perrs) > 0 {
				r.problem("%s: chunk %d: %d parse errors, first: %v", s.name, c, len(perrs), perrs[0])
			}
			isp := r.rec.start("ingest.IngestJobRecords", hsp.id, 0)
			m0 := readMem()
			ti := time.Now()
			st, err := s.sat.Pipeline.IngestJobRecords(recs)
			busyS += time.Since(ti).Seconds()
			mallocs += readMem().mallocs - m0.mallocs
			isp.end()
			r.attempted.Add(1)
			r.layer["ingest.rejected"] += float64(st.Rejected)
			if err != nil || st.Ingested != len(recs) {
				r.failed.Add(1)
				r.problem("%s: chunk %d: ingested %d of %d records: %v", s.name, c, st.Ingested, len(recs), err)
			}
			facts += st.Ingested
			wsp := r.rec.start("warehouse.wal_sync", hsp.id, 0)
			tw := time.Now()
			if err := waitFor(func() bool { return s.wal.Position() >= s.sat.DB.Binlog().Last() }, 100*time.Microsecond); err != nil {
				return fmt.Errorf("%s: WAL never reached the binlog head: %w", s.name, err)
			}
			syncS += time.Since(tw).Seconds()
			wsp.end()
			hsp.end()
			rates = append(rates, float64(st.Ingested)/time.Since(t0).Seconds())
			cpuPerFact = append(cpuPerFact, (cpuSeconds()-c0)*1e6/float64(st.Ingested))
		}
	}
	for si, s := range f.sites {
		if parsed[si] != s.historyN {
			r.problem("%s: shredded %d of %d history records", s.name, parsed[si], s.historyN)
		}
		s.logs = nil // inputs are not the program's heap
	}
	r.layer["ingest_cpu_us_per_fact"] = median(cpuPerFact)
	r.layer["wall.ingest_facts_per_s"] = median(rates)
	r.layer["shredder.parse_s"] = parseS
	r.layer["shredder.records_per_s"] = float64(facts) / parseS
	r.layer["ingest.busy_s"] = busyS
	r.layer["ingest.allocs_per_fact"] = float64(mallocs) / float64(facts)
	r.layer["warehouse.wal_sync_s"] = syncS
	var walBytes, events float64
	for _, s := range f.sites {
		fi, err := os.Stat(s.walPath)
		if err != nil {
			return err
		}
		walBytes += float64(fi.Size())
		events += float64(s.sat.DB.Binlog().Last())
	}
	r.e2e["wal_bytes_per_fact"] = walBytes / float64(facts)
	r.layer["warehouse.binlog_events_per_fact"] = events / float64(facts)
	return nil
}

// catchupRounds joins both members to a fresh hub catchup_rounds
// times, siteA (facts) first and siteB (pushdown) once siteA has
// caught up, and reports medians over the rounds. Every round but the
// last uses a scratch hub that is closed afterwards; the last one uses
// the federation's own hub, which serves the rest of the run.
func (r *runner) catchupRounds() error {
	f := r.f
	var rate, cpuPerFact, headS [2][]float64
	var tails, ensures, wires []float64
	m0 := readMem()
	facts := float64(f.sites[0].historyN + f.sites[1].historyN)
	for round := 0; round < r.set.CatchupRounds; round++ {
		last := round == r.set.CatchupRounds-1
		hub, srv, addr := f.hub, f.srv, f.hubAddr
		onMiss := f.onMiss
		if !last {
			var err error
			if hub, addr, err = startHub(r.set, f.sites); err != nil {
				return err
			}
			srv, onMiss = rest.NewHubServer(hub), nil
		}
		before, err := f.scrape()
		if err != nil {
			return err
		}
		var tail, ensure float64
		for si, s := range f.sites {
			c, err := r.catchup(s, hub, srv, addr, onMiss)
			if err != nil {
				return err
			}
			rate[si] = append(rate[si], float64(s.historyN)/c.chartS)
			cpuPerFact[si] = append(cpuPerFact[si], c.cpuS*1e6/float64(s.historyN))
			headS[si] = append(headS[si], c.headS)
			tail += c.tailS
			ensure += c.ensureS
		}
		after, err := f.scrape()
		if err != nil {
			return err
		}
		wires = append(wires, delta(before, after, "xdmodfed_replicate_sent_bytes_total")/facts)
		tails, ensures = append(tails, tail), append(ensures, ensure)
		for _, s := range f.sites {
			r.layer["replicate."+s.mode+".wire_bytes_per_fact"] += delta(before, after, "xdmodfed_replicate_sent_bytes_total", "instance="+s.name) /
				float64(s.historyN) / float64(r.set.CatchupRounds)
		}
		if !last {
			for _, s := range f.sites {
				s.sat.StopFederation()
			}
			hub.Close()
		}
	}
	r.layer["catchup_cpu_us_per_fact"] = median(cpuPerFact[0])
	r.layer["catchup_pushdown_cpu_us_per_fact"] = median(cpuPerFact[1])
	r.layer["wall.catchup_facts_per_s"] = median(rate[0])
	r.layer["wall.catchup_pushdown_facts_per_s"] = median(rate[1])
	r.e2e["wire_bytes_per_fact"] = median(wires)
	r.layer["replicate.facts.catchup_s"] = median(headS[0])
	r.layer["replicate.pushdown.catchup_s"] = median(headS[1])
	r.layer["aggregate.visible_tail_s"] = median(tails)
	r.layer["aggregate.ensure_s"] = median(ensures)
	r.layer["runtime.alloc_bytes_per_fact"] = float64(readMem().alloc-m0.alloc) / facts / float64(r.set.CatchupRounds)
	return nil
}

// catchupTimes is one member's join, in seconds from StartFederation.
type catchupTimes struct {
	cpuS    float64 // process CPU time until both head and exact chart
	chartS  float64 // until a hub chart shows the member's exact job count
	headS   float64 // until the hub holds the member's binlog head
	tailS   float64 // from head to exact chart
	ensureS float64 // the EnsureAggregated the benchmark issues at head
}

// catchup joins one member to a hub and times it until the hub has the
// member's binlog head and, separately, until a hub chart shows the
// member's exact job count.
func (r *runner) catchup(s *site, hub *core.Hub, srv *rest.Server, addr string, onMiss func(float64, int)) (catchupTimes, error) {
	f := r.f
	want := int64(s.historyN)
	csp := r.rec.start("catchup."+s.mode, 0, 0)
	defer csp.end()
	t0 := time.Now()
	c0 := cpuSeconds()
	if err := joinHub(f.ctx, s, addr); err != nil {
		return catchupTimes{}, err
	}
	var tHead, tChart, lastChart time.Time
	var ensureS float64
	err := waitFor(func() bool {
		if tHead.IsZero() && atHead(hub, s) {
			tHead = time.Now()
			esp := r.rec.start("aggregate.EnsureAggregated", csp.id, 0)
			if err := hub.EnsureAggregated(); err != nil {
				r.problem("%s: EnsureAggregated: %v", s.name, err)
			}
			esp.end()
			ensureS = time.Since(tHead).Seconds()
		}
		// The chart is polled every catchupChartPoll only: each poll
		// after an applied batch is a cache miss that scans the
		// aggregates, and polling it every millisecond would load the
		// hub the catch-up is timing.
		if tChart.IsZero() && time.Since(lastChart) >= catchupChartPoll {
			lastChart = time.Now()
			qsp := r.rec.start("rest.QuerySeries", csp.id, 0)
			n, err := jobCount(f.ctx, srv, s.resource, onMiss)
			qsp.end()
			switch {
			case err != nil:
				r.problem("%s: catch-up chart: %v", s.name, err)
			case n > want:
				r.problem("%s: hub shows %d jobs, member has %d", s.name, n, want)
			case n == want:
				tChart = time.Now()
			}
		}
		return !tHead.IsZero() && !tChart.IsZero()
	}, time.Millisecond)
	if err != nil {
		return catchupTimes{}, fmt.Errorf("%s never caught up: %w", s.name, err)
	}
	return catchupTimes{
		cpuS:    cpuSeconds() - c0,
		chartS:  tChart.Sub(t0).Seconds(),
		headS:   tHead.Sub(t0).Seconds(),
		tailS:   math.Max(0, tChart.Sub(tHead).Seconds()),
		ensureS: ensureS,
	}, nil
}

// waitFor polls cond every poll until it holds or waitLimit passes.
func waitFor(cond func() bool, poll time.Duration) error {
	deadline := time.Now().Add(waitLimit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("gave up after %s", waitLimit)
		}
		time.Sleep(poll)
	}
	return nil
}

// probeItem is one written batch waiting to become visible.
type probeItem struct {
	site     int
	expected int64
	returned time.Time
	span     open
}

// traffic runs the open-loop writer and/or reader for dur. The writer
// goroutine also probes each written batch's freshness, so the load
// stays within two goroutines.
func (r *runner) traffic(dur time.Duration, w Writes, sites []int, read bool) error {
	start := time.Now().Add(20 * time.Millisecond)
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	var writeErr error
	if w.BatchesPerSecPerSite > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writeErr = r.writer(start, deadline, w, sites)
		}()
	}
	if read {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.reader(start, deadline)
		}()
	}
	wg.Wait()
	return writeErr
}

// writer ingests one batch per due time, cycling through the given
// members, so each receives BatchesPerSecPerSite batches a second.
// Between due times it polls the hub for the batches it has written,
// and once the schedule ends it polls until all of them are visible.
func (r *runner) writer(start, deadline time.Time, w Writes, sites []int) error {
	f := r.f
	period := time.Duration(float64(time.Second) / (float64(len(sites)) * w.BatchesPerSecPerSite))
	p := newPacer(start, period)
	pr := &prober{r: r}
	var written [2]int64
	for _, si := range sites {
		written[si] = int64(f.sites[si].sat.DB.Count(jobs.SchemaName, jobs.FactTable))
	}
	for {
		// A poll the hub holds up past the next due time delays the
		// send; p.done charges that delay to the system, not to the
		// generator.
		for pr.waiting() && time.Until(p.due(p.next)) > probeMargin {
			pr.poll()
			p.done(time.Now())
			time.Sleep(freshnessPoll)
		}
		i, _, ok := p.wait(deadline)
		if !ok {
			break
		}
		si, b := sites[i%len(sites)], i/len(sites)
		s := f.sites[si]
		if b >= len(s.batches) {
			break
		}
		req := r.rec.newReq()
		bsp := r.rec.start("batch."+s.mode, 0, req)
		isp := r.rec.start("ingest.IngestJobRecords", bsp.id, req)
		st, err := s.sat.Pipeline.IngestJobRecords(s.batches[b])
		ret := time.Now()
		isp.end()
		p.done(ret)
		r.attempted.Add(1)
		if err != nil || st.Ingested != len(s.batches[b]) {
			r.failed.Add(1)
			r.problem("%s: batch %d ingested %d of %d: %v", s.name, b, st.Ingested, len(s.batches[b]), err)
			bsp.end()
			continue
		}
		s.addMonths(s.batches[b])
		written[si] += int64(st.Ingested)
		pr.add(probeItem{site: si, expected: written[si], returned: ret, span: bsp})
	}
	r.mu.Lock()
	r.genLate = append(r.genLate, p.genLate...)
	r.backlogMax = max(r.backlogMax, p.backlogMax)
	r.mu.Unlock()
	return pr.finish()
}

// prober follows written batches until the hub's query path shows
// them, and records their freshness.
type prober struct {
	r        *runner
	pending  [2][]probeItem
	lastPoll [2]time.Time
}

func (pr *prober) add(it probeItem) { pr.pending[it.site] = append(pr.pending[it.site], it) }

func (pr *prober) waiting() bool { return len(pr.pending[0])+len(pr.pending[1]) > 0 }

// poll queries the hub once for every member with batches pending and
// records each batch that has become visible. A pushdown batch waits
// for the member's next delta flush, so polling it as often as a facts
// batch would only add load.
func (pr *prober) poll() {
	r, f := pr.r, pr.r.f
	for si := range pr.pending {
		if len(pr.pending[si]) == 0 {
			continue
		}
		s := f.sites[si]
		if s.mode == "pushdown" && time.Since(pr.lastPoll[si]) < 20*freshnessPoll {
			continue
		}
		pr.lastPoll[si] = time.Now()
		qsp := r.rec.start("rest.QuerySeries", pr.pending[si][0].span.id, pr.pending[si][0].span.req)
		n, err := f.jobCount(f.ctx, s.resource)
		seen := time.Now()
		qsp.end()
		if err != nil {
			r.problem("%s: probe query: %v", s.name, err)
			continue
		}
		for len(pr.pending[si]) > 0 && pr.pending[si][0].expected <= n {
			it := pr.pending[si][0]
			pr.pending[si] = pr.pending[si][1:]
			it.span.end()
			r.attempted.Add(1)
			r.mu.Lock()
			if s.mode == "pushdown" {
				r.pushMS = append(r.pushMS, ms(seen.Sub(it.returned)))
			} else {
				r.freshMS = append(r.freshMS, ms(seen.Sub(it.returned)))
			}
			r.mu.Unlock()
		}
	}
}

// finish polls until every pending batch is visible; a batch still
// missing after waitLimit is a failure.
func (pr *prober) finish() error {
	giveUp := time.Now().Add(waitLimit)
	for pr.waiting() {
		if time.Now().After(giveUp) {
			lost := len(pr.pending[0]) + len(pr.pending[1])
			pr.r.attempted.Add(int64(lost))
			pr.r.failed.Add(int64(lost))
			return fmt.Errorf("%d written batches never became visible on the hub", lost)
		}
		pr.poll()
		time.Sleep(freshnessPoll)
	}
	return nil
}

// probeFacts measures the facts member's freshness in a closed loop:
// each batch is written only once the previous one is visible.
func (r *runner) probeFacts() error {
	f := r.f
	s := f.sites[0]
	expected := int64(s.sat.DB.Count(jobs.SchemaName, jobs.FactTable))
	for b, batch := range s.batches {
		req := r.rec.newReq()
		bsp := r.rec.start("probe."+s.mode, 0, req)
		isp := r.rec.start("ingest.IngestJobRecords", bsp.id, req)
		st, err := s.sat.Pipeline.IngestJobRecords(batch)
		ret := time.Now()
		isp.end()
		r.attempted.Add(2) // the ingest and its freshness probe
		if err != nil || st.Ingested != len(batch) {
			r.failed.Add(2)
			r.problem("%s: probe batch %d ingested %d of %d: %v", s.name, b, st.Ingested, len(batch), err)
			bsp.end()
			continue
		}
		s.addMonths(batch)
		expected += int64(st.Ingested)
		err = waitFor(func() bool {
			qsp := r.rec.start("rest.QuerySeries", bsp.id, req)
			n, err := f.jobCount(f.ctx, s.resource)
			qsp.end()
			if err != nil {
				r.problem("%s: probe query: %v", s.name, err)
			}
			return n >= expected
		}, freshnessPoll)
		seen := time.Now()
		bsp.end()
		if err != nil {
			r.failed.Add(1)
			return fmt.Errorf("%s: probe batch %d never became visible: %w", s.name, b, err)
		}
		r.freshMS = append(r.freshMS, ms(seen.Sub(ret)))
	}
	return nil
}

// chartBody is the part of an /api/chart response the benchmark reads.
type chartBody struct {
	Series []struct {
		Group     string  `json:"group"`
		Aggregate float64 `json:"aggregate"`
		N         int64   `json:"n"`
		Points    []struct {
			Key   int64   `json:"key"`
			Value float64 `json:"value"`
		} `json:"points"`
	} `json:"series"`
	Explain *struct {
		DurationMS  float64 `json:"duration_ms"`
		RowsScanned int     `json:"rows_scanned"`
		Cache       string  `json:"cache"`
	} `json:"explain"`
}

// reader sends one chart request per due time over at most two
// keep-alive connections, timing each from its due time.
func (r *runner) reader(start, deadline time.Time) {
	f := r.f
	period := time.Duration(float64(time.Second) / r.set.Reader.RatePerSec)
	p := newPacer(start, period)
	sampler := rand.New(rand.NewSource(r.seed + 29))
	for {
		i, due, ok := p.wait(deadline)
		if !ok || i >= len(r.seq) {
			break
		}
		c := r.seq[i]
		// Traced runs trace every other request, so the tracing overhead
		// is measured within one run on interleaved requests.
		traced := r.rec.active() && i%2 == 0
		req, err := http.NewRequest("GET", f.base+r.charts[c].path(), nil)
		if err != nil {
			r.problem("build request: %v", err)
			break
		}
		req.Header.Set("Authorization", "Bearer "+f.token)
		var csp open
		if traced {
			id := r.rec.newReq()
			csp = r.rec.start("chart.http", 0, id)
			req.Header.Set(reqHeader, fmt.Sprint(id))
			req.Header.Set(spanHeader, fmt.Sprint(csp.id))
		}
		body, status, err := roundTrip(f.client, req)
		doneAt := time.Now()
		csp.end()
		p.done(doneAt)
		lat := ms(doneAt.Sub(due))
		r.attempted.Add(1)
		if err != nil || status != http.StatusOK {
			r.failed.Add(1)
			fmt.Fprintf(os.Stderr, "perfbench: chart request failed: status %d: %v\n", status, err)
			lat = math.Inf(1)
		}
		keep := r.set.Reader.Mix == "dashboard" && sampler.Float64() < 0.03
		r.mu.Lock()
		r.chartMS = append(r.chartMS, lat)
		if r.rec != nil {
			if traced {
				r.chartOn = append(r.chartOn, lat)
			} else {
				r.chartOff = append(r.chartOff, lat)
			}
		}
		if keep && err == nil && status == http.StatusOK {
			r.dashSamples = append(r.dashSamples, dashSample{chart: c, body: body})
		}
		r.mu.Unlock()
		if err == nil && status == http.StatusOK {
			var cb chartBody
			if err := json.Unmarshal(body, &cb); err != nil || cb.Explain == nil {
				r.problem("chart %d: unreadable response: %v", c, err)
				continue
			}
			switch cb.Explain.Cache {
			case "miss":
				r.noteMiss(cb.Explain.DurationMS, cb.Explain.RowsScanned)
			case "hit":
				r.mu.Lock()
				r.chartHits++
				r.mu.Unlock()
			}
		}
	}
	r.mu.Lock()
	r.genLate = append(r.genLate, p.genLate...)
	r.backlogMax = max(r.backlogMax, p.backlogMax)
	r.mu.Unlock()
}

// warmup requests every chart of the mix once, untimed.
func (r *runner) warmup() error {
	f := r.f
	for _, c := range r.charts {
		req, err := http.NewRequest("GET", f.base+c.path(), nil)
		if err != nil {
			return err
		}
		req.Header.Set("Authorization", "Bearer "+f.token)
		if _, status, err := roundTrip(f.client, req); err != nil || status != http.StatusOK {
			return fmt.Errorf("warm-up %s: status %d: %v", c.path(), status, err)
		}
	}
	return nil
}

// noteMiss records one query-cache miss's compute time and rows.
func (r *runner) noteMiss(durationMS float64, rows int) {
	r.mu.Lock()
	r.missMS = append(r.missMS, durationMS)
	r.missRows = append(r.missRows, float64(rows))
	r.mu.Unlock()
}

func roundTrip(c *http.Client, req *http.Request) ([]byte, int, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// drain waits until the hub holds both members' binlog heads and
// shows every fact they hold. A pushdown member's delta coverage can
// stop short of its head when only non-fact events follow its last
// flush, so its completeness is checked on the chart instead.
func (r *runner) drain() error {
	f := r.f
	for _, s := range f.sites {
		want := int64(s.sat.DB.Count(jobs.SchemaName, jobs.FactTable))
		err := waitFor(func() bool {
			m, ok := member(f.hub, s.name)
			if !ok || m.Position != s.sat.DB.Binlog().Last() {
				return false
			}
			n, err := f.jobCount(f.ctx, s.resource)
			return err == nil && n == want
		}, time.Millisecond)
		if err != nil {
			return fmt.Errorf("%s never drained: %w", s.name, err)
		}
	}
	return f.hub.EnsureAggregated()
}

// checkDashboardSamples compares the kept HTTP responses with an
// uncached query of the same chart. No writes happen while the
// dashboard reads, so they must agree exactly.
func (r *runner) checkDashboardSamples() {
	f := r.f
	if len(r.dashSamples) == 0 {
		r.problem("dashboard: no responses sampled for verification")
		return
	}
	if err := f.hub.EnsureAggregated(); err != nil {
		r.problem("dashboard: EnsureAggregated: %v", err)
		return
	}
	for _, ds := range r.dashSamples {
		c := r.charts[ds.chart]
		want, _, err := f.hub.Instance.QueryStatsCtx(f.ctx, c.realm, c.req)
		if err != nil {
			r.problem("dashboard: uncached query %s: %v", c.path(), err)
			continue
		}
		var got chartBody
		if err := json.Unmarshal(ds.body, &got); err != nil {
			r.problem("dashboard: response %s: %v", c.path(), err)
			continue
		}
		if !sameSeries(got, want) {
			r.problem("dashboard: response to %s differs from the uncached query", c.path())
		}
	}
}

func sameSeries(got chartBody, want []aggregate.Series) bool {
	if len(got.Series) != len(want) {
		return false
	}
	for i, g := range got.Series {
		w := want[i]
		if g.Group != w.Group || g.Aggregate != w.Aggregate || g.N != w.N || len(g.Points) != len(w.Points) {
			return false
		}
		for k, p := range g.Points {
			if p.Key != w.Points[k].PeriodKey || p.Value != w.Points[k].Value {
				return false
			}
		}
	}
	return true
}

// verify checks the hub against the generated records and against a
// control hub fed both binlogs in-process, without network.
func (r *runner) verify() error {
	f := r.f
	want := map[string]map[int64]float64{}
	for _, s := range f.sites {
		want[s.resource] = s.months
		total := 0.0
		for _, n := range s.months {
			total += n
		}
		if n := s.sat.DB.Count(jobs.SchemaName, jobs.FactTable); float64(n) != total {
			r.problem("%s: satellite holds %d jobs, %v were committed", s.name, n, total)
		}
	}
	got, err := f.hub.Query("Jobs", aggregate.Request{MetricID: jobs.MetricNumJobs, GroupBy: jobs.DimResource, Period: aggregate.Month})
	if err != nil {
		return err
	}
	gotMap := map[string]map[int64]float64{}
	for _, s := range got {
		gotMap[s.Group] = map[int64]float64{}
		for _, p := range s.Points {
			gotMap[s.Group][p.PeriodKey] = p.Value
		}
	}
	if !reflect.DeepEqual(gotMap, want) {
		r.problem("per-resource per-month job_count on the hub differs from the generated records")
	}

	control, err := core.NewHub(hubConfig(r.set))
	if err != nil {
		return err
	}
	defer control.Close()
	include := map[string]bool{}
	for _, t := range core.FederatedTablesFor("Jobs") {
		include[t] = true
	}
	for _, s := range f.sites {
		if err := control.Register(s.name); err != nil {
			return err
		}
		last := s.sat.DB.Binlog().Last()
		evs, err := s.sat.DB.Binlog().ReadFrom(0, int(last)+1)
		if err != nil {
			return err
		}
		out, _ := replicate.NewRewriter(s.name, replicate.Filter{IncludeTables: include}).ProcessBatch(evs)
		if err := control.ApplyBatch(s.name, last, out); err != nil {
			return fmt.Errorf("control apply %s: %w", s.name, err)
		}
	}
	if _, err := control.AggregateFederation(); err != nil {
		return err
	}
	compare := append(append([]chart(nil), liveMix()...), r.charts...)
	for _, c := range compare {
		a, err := f.hub.Query(c.realm, c.req)
		if err != nil {
			return err
		}
		b, err := control.Query(c.realm, c.req)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(a, b) {
			r.problem("chart %s differs from the control hub", c.path())
		}
	}
	return nil
}

// finish computes the traffic-phase and layer metrics.
func (r *runner) finish(after counters, mBefore, mAfter memSnap, cacheBefore, cacheAfter cacheStats) error {
	f := r.f
	pct := func(name string, xs []float64, p float64) error {
		v, ok := percentile(xs, p)
		if !ok {
			return fmt.Errorf("%s: %d samples do not support the %g percentile (need %d)", name, len(xs), p*100, minSamplesFor(p))
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return fmt.Errorf("%s: percentile falls on failed operations", name)
		}
		if name == "pushdown_freshness_p50_ms" {
			r.e2e[name] = v
		} else {
			r.layer[name] = v
		}
		return nil
	}
	for _, c := range []struct {
		name string
		xs   []float64
		p    float64
	}{
		{"freshness_p50_ms", r.freshMS, 0.5},
		{"pushdown_freshness_p50_ms", r.pushMS, 0.5},
		{"tail.chart_p90_ms", r.chartMS, 0.9},
		{"rest.serve_p50_ms", f.serve.serveMS, 0.5},
		{"rest.serve_p90_ms", f.serve.serveMS, 0.9},
		{"aggregate.query_miss_p50_ms", r.missMS, 0.5},
		{"gen.late_p95_ms", r.genLate, 0.95},
	} {
		if err := pct(c.name, c.xs, c.p); err != nil {
			return err
		}
	}
	p50, ok := windowedMedian(r.chartMS, chartWindows)
	if !ok {
		return fmt.Errorf("chart_p50_ms: %d samples do not fill %d windows of at least %d", len(r.chartMS), chartWindows, minSamplesFor(0.5))
	}
	r.e2e["chart_p50_ms"] = p50
	r.layer["rest.non_2xx"] = float64(f.serve.non2xx)
	r.layer["aggregate.rows_scanned_per_query"] = sum(r.missRows) / math.Max(1, float64(len(r.missRows)))
	r.layer["gen.backlog_max"] = float64(r.backlogMax)
	r.layer["samples.chart"] = float64(len(r.chartMS))
	r.layer["samples.freshness"] = float64(len(r.freshMS))
	r.layer["samples.pushdown_freshness"] = float64(len(r.pushMS))

	// The reader's own hit ratio, from each response's explain block:
	// the cache's counters also see the freshness probe's polls.
	r.layer["qcache.hit_ratio"] = float64(r.chartHits) / math.Max(1, float64(len(r.chartMS)))
	r.layer["qcache.evictions"] = float64(cacheAfter.Evictions - cacheBefore.Evictions)
	r.layer["qcache.coalesced"] = float64(cacheAfter.Coalesced - cacheBefore.Coalesced)
	r.layer["qcache.entries"] = float64(cacheAfter.Entries)

	var batches, events, deltas, rows float64
	for _, s := range f.sites {
		for _, st := range s.sat.SenderStats() {
			batches += float64(st.SentBatches)
			events += float64(st.SentEvents)
			deltas += float64(st.Deltas)
			rows += float64(st.DeltaRows)
		}
	}
	r.layer["replicate.batches"] = batches
	r.layer["replicate.events_per_batch"] = events / math.Max(1, batches)
	r.layer["replicate.pushdown.deltas"] = deltas
	r.layer["replicate.pushdown.delta_rows"] = rows
	r.layer["replicate.retries"] = after.get("xdmodfed_replicate_retries_total")
	applyN := after.get("xdmodfed_hub_apply_batch_seconds_count")
	applyS := after.get("xdmodfed_hub_apply_batch_seconds_sum")
	applied := after.get("xdmodfed_hub_applied_events_total")
	r.layer["core.apply_batches"] = applyN
	r.layer["core.apply_s"] = applyS
	r.layer["core.apply_us_per_event"] = applyS * 1e6 / math.Max(1, applied)
	failures := 0.0
	for _, m := range f.hub.Members() {
		failures += float64(m.Failures + m.Quarantines)
	}
	r.layer["core.apply_failures"] = failures
	r.layer["aggregate.rebuilds"] = after.get("xdmodfed_agg_rebuilds_total")
	r.layer["aggregate.rebuild_s"] = after.get("xdmodfed_shard_rebuild_seconds_sum")
	r.layer["runtime.gc_cycles"] = float64(mAfter.numGC - mBefore.numGC)
	r.layer["runtime.gc_pause_ms"] = float64(mAfter.pauseNs-mBefore.pauseNs) / 1e6
	return nil
}

type cacheStats struct {
	Hits, Misses, Coalesced, Evictions uint64
	Entries                            int
	Bytes                              int64
}

func (f *fed) cacheStats() cacheStats {
	st, ok := f.srv.CacheStats()
	if !ok {
		return cacheStats{}
	}
	return cacheStats{Hits: st.Hits, Misses: st.Misses, Coalesced: st.Coalesced, Evictions: st.Evictions, Entries: st.Entries, Bytes: st.Bytes}
}

// heapMB forces a GC and reads HeapInuse.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// run executes the whole workload.
func (r *runner) run() error {
	r.e2e, r.layer = map[string]float64{}, map[string]float64{}
	if err := r.setup(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer r.f.close()
	mStart := readMem()
	phase := time.Now()
	lap := func(name string) {
		fmt.Fprintf(os.Stderr, "perfbench: phase %-9s %6.2f s\n", name, time.Since(phase).Seconds())
		phase = time.Now()
	}
	if err := r.history(); err != nil {
		return fmt.Errorf("history: %w", err)
	}
	lap("history")
	// Untimed warm-up: one request per chart of the mix fills the query
	// cache (as far as it holds the mix), and a forced GC settles the
	// garbage the history phase left, so neither lands on the first
	// timed requests.
	if err := r.warmup(); err != nil {
		return err
	}
	runtime.GC()
	cacheBefore := r.f.cacheStats()
	mTraffic := readMem()
	r.f.serve.record(true)
	if err := r.traffic(r.seconds, r.set.Writer, []int{0, 1}, true); err != nil {
		return fmt.Errorf("traffic: %w", err)
	}
	r.f.serve.record(false)
	lap("traffic")
	mRead := readMem()
	cacheAfter := r.f.cacheStats()
	fmt.Fprintf(os.Stderr, "perfbench: query cache after reads: %d entries, %d bytes; %d distinct charts requested\n",
		cacheAfter.Entries, cacheAfter.Bytes, distinctUsed(r.seq))
	if n := len(r.chartMS); n > 0 {
		r.layer["runtime.alloc_bytes_per_request"] = float64(mRead.alloc-mTraffic.alloc) / float64(n)
	}
	if r.set.Reader.Mix == "dashboard" {
		r.checkDashboardSamples()
	}
	if pr := r.set.Probe; pr.active() {
		if err := r.probeFacts(); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		pw := Writes{BatchesPerSecPerSite: pr.PushdownBatchesPerSec, FactsPerBatch: pr.FactsPerBatch}
		if err := r.traffic(time.Duration(pr.PushdownSeconds*float64(time.Second)), pw, []int{1}, false); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
	}
	lap("probe")
	for _, s := range r.f.sites {
		s.batches = nil // inputs are not the program's heap
	}
	if err := r.drain(); err != nil {
		return err
	}
	lap("drain")
	r.e2e["heap_mb"] = heapMB()
	mEnd := readMem()
	after, err := r.f.scrape()
	if err != nil {
		return err
	}
	if err := r.finish(after, mStart, mEnd, cacheBefore, cacheAfter); err != nil {
		return err
	}
	if r.rec != nil {
		on, off := median(r.chartOn), median(r.chartOff)
		r.layer["trace.overhead_pct"] = 100 * (on - off) / off
	}
	err = r.verify()
	lap("verify")
	return err
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
