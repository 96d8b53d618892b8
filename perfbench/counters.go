package main

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"syscall"

	"xdmodfed/internal/obs"
)

// counters is one scrape of the hub's /metrics, keyed by sample name
// plus rendered labels. Hub and satellites run in one process and
// share one metrics registry, so the hub's exposition carries the
// satellites' series too.
type counters map[string]float64

func (f *fed) scrape() (counters, error) {
	req, err := http.NewRequest("GET", f.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	out := counters{}
	for _, fam := range fams {
		for _, s := range fam.Samples {
			var b strings.Builder
			b.WriteString(s.Name)
			for _, l := range s.Labels {
				fmt.Fprintf(&b, "|%s=%s", l.Name, l.Value)
			}
			out[b.String()] = s.Value
		}
	}
	return out, nil
}

// get returns the sum of every sample of name whose labels include
// all of the given name=value pairs.
func (c counters) get(name string, labels ...string) float64 {
	total := 0.0
	for k, v := range c {
		sample, rest, _ := strings.Cut(k, "|")
		if sample != name {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains("|"+rest+"|", "|"+l+"|") {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// delta returns after.get - before.get.
func delta(before, after counters, name string, labels ...string) float64 {
	return after.get(name, labels...) - before.get(name, labels...)
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// memSnap is a runtime.MemStats reading at a phase boundary.
type memSnap struct {
	mallocs uint64
	alloc   uint64
	numGC   uint32
	pauseNs uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{mallocs: m.Mallocs, alloc: m.TotalAlloc, numGC: m.NumGC, pauseNs: m.PauseTotalNs}
}
