package main

import (
	"math/rand"
	"net/url"
	"sort"
	"strconv"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/realm/jobs"
)

// chart is one chart query of a mix.
type chart struct {
	realm string
	req   aggregate.Request
}

// path renders the chart as an /api/chart URL path with query. Every
// request asks for explain=1, so the response carries the server's
// QueryStat (cache outcome, rows scanned, compute time).
func (c chart) path() string {
	q := url.Values{}
	q.Set("realm", c.realm)
	q.Set("metric", c.req.MetricID)
	if c.req.GroupBy != "" {
		q.Set("group_by", c.req.GroupBy)
	}
	q.Set("period", c.req.Period.String())
	if c.req.StartKey != 0 {
		q.Set("start", strconv.FormatInt(c.req.StartKey, 10))
	}
	if c.req.EndKey != 0 {
		q.Set("end", strconv.FormatInt(c.req.EndKey, 10))
	}
	for k, v := range c.req.Filters {
		q.Set("filter."+k, v)
	}
	q.Set("explain", "1")
	return "/api/chart?" + q.Encode()
}

// probeRequest is the freshness probe's chart: one resource's total
// job count.
func probeRequest(resource string) aggregate.Request {
	return aggregate.Request{
		MetricID: jobs.MetricNumJobs, Period: aggregate.Year,
		Filters: map[string]string{jobs.DimResource: resource},
	}
}

// liveMix is the eight-chart mix a federation manager's landing page
// would show; all eight fit in the default query cache.
func liveMix() []chart {
	j := func(metric, groupBy string, p aggregate.Period) chart {
		return chart{realm: "Jobs", req: aggregate.Request{MetricID: metric, GroupBy: groupBy, Period: p}}
	}
	return []chart{
		j(jobs.MetricNumJobs, jobs.DimResource, aggregate.Month),
		j(jobs.MetricCPUHours, jobs.DimResource, aggregate.Month),
		j(jobs.MetricXDSU, jobs.DimResource, aggregate.Quarter),
		j(jobs.MetricNumJobs, jobs.DimQueue, aggregate.Month),
		j(jobs.MetricAvgWaitHours, jobs.DimResource, aggregate.Month),
		j(jobs.MetricWallHours, jobs.DimUser, aggregate.Year),
		j(jobs.MetricMaxJobSize, jobs.DimJobSize, aggregate.Month),
		j(jobs.MetricAvgJobSize, jobs.DimWallTime, aggregate.Quarter),
	}
}

// dashboardCharts draws n distinct charts from metric x group_by x
// period x filter x range, seeded. resources are the members'
// resource names, used as filter values.
func dashboardCharts(n int, seed int64, resources []string) []chart {
	metrics := []string{jobs.MetricNumJobs, jobs.MetricCPUHours, jobs.MetricWallHours, jobs.MetricXDSU,
		jobs.MetricAvgWaitHours, jobs.MetricAvgJobSize, jobs.MetricMaxJobSize}
	groups := []string{"", jobs.DimResource, jobs.DimUser, jobs.DimPI, jobs.DimQueue, jobs.DimWallTime, jobs.DimJobSize}
	periods := []aggregate.Period{aggregate.Day, aggregate.Month, aggregate.Quarter, aggregate.Year}
	filters := []map[string]string{nil}
	for _, r := range resources {
		filters = append(filters, map[string]string{jobs.DimResource: r})
	}
	// Ranges over 2017, as (first month, last month); 0 = unbounded.
	ranges := [][2]int{{0, 0}, {1, 6}, {7, 12}, {4, 9}}

	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out []chart
	for len(out) < n {
		p := periods[rng.Intn(len(periods))]
		rg := ranges[rng.Intn(len(ranges))]
		req := aggregate.Request{
			MetricID: metrics[rng.Intn(len(metrics))],
			GroupBy:  groups[rng.Intn(len(groups))],
			Period:   p,
			Filters:  filters[rng.Intn(len(filters))],
		}
		if rg[0] != 0 {
			req.StartKey, req.EndKey = periodKey(p, rg[0], true), periodKey(p, rg[1], false)
		}
		key := req.CanonicalKey()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, chart{realm: "Jobs", req: req})
	}
	return out
}

// periodKey is the period key of the first (or last) day of a 2017
// month.
func periodKey(p aggregate.Period, month int, first bool) int64 {
	switch p {
	case aggregate.Day:
		day := 1
		if !first {
			day = []int{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}[month-1]
		}
		return 2017_00_00 + int64(month)*100 + int64(day)
	case aggregate.Month:
		return 2017_00 + int64(month)
	case aggregate.Quarter:
		return 2017_0 + int64((month+2)/3)
	default:
		return 2017
	}
}

// mixSequence is the order in which the reader sends charts: uniform
// over the mix when zipfS is 0, otherwise Zipf-skewed over a popularity
// ranking fixed by dashboardMixSeed. The seed draws the order only: the
// charts differ in size by more than the query cache's per-shard
// capacity, so a seeded ranking would change which charts can be
// cached, and the hit ratio with it, from seed to seed.
func mixSequence(n, count int, zipfS float64, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]int, count)
	if zipfS <= 0 {
		for i := range seq {
			seq[i] = rng.Intn(n)
		}
		return seq
	}
	rank := rand.New(rand.NewSource(dashboardMixSeed)).Perm(n)
	z := rand.NewZipf(rng, zipfS, 1, uint64(n-1))
	for i := range seq {
		seq[i] = rank[z.Uint64()]
	}
	return seq
}

// distinctUsed counts the distinct charts a sequence touches.
func distinctUsed(seq []int) int {
	s := append([]int(nil), seq...)
	sort.Ints(s)
	n := 0
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			n++
		}
	}
	return n
}
