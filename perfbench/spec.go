package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"regexp"
	"time"
)

// specJSON is the benchmark's single source of truth for workload
// settings and the metric catalogue.
//
//go:embed spec.json
var specJSON []byte

// Spec is the parsed spec.json.
type Spec struct {
	Workloads []Workload `json:"workloads"`
	EndToEnd  []Metric   `json:"end_to_end"`
	PerLayer  []Metric   `json:"per_layer"`
}

// Workload is one named set of inputs and rates.
type Workload struct {
	Name     string   `json:"name"`
	Why      string   `json:"why"`
	Settings Settings `json:"settings"`
}

// Settings fixes everything a workload varies. Rates are fixed
// numbers; nothing is recalibrated per run.
type Settings struct {
	HistoryJobsPerSite    int     `json:"history_jobs_per_site"`
	CatchupRounds         int     `json:"catchup_rounds"`
	WALFsync              string  `json:"wal_fsync"`
	PushdownFlushInterval string  `json:"pushdown_flush_interval"`
	Shards                int     `json:"shards"`
	ShardKey              string  `json:"shard_key"`
	CacheMaxBytes         int64   `json:"cache_max_bytes"`
	Writer                Writes  `json:"writer"`
	Reader                Reads   `json:"reader"`
	Probe                 Probing `json:"probe"`
}

// Writes is an open-loop ingest schedule: every site receives
// BatchesPerSecPerSite batches of FactsPerBatch new jobs per second.
type Writes struct {
	BatchesPerSecPerSite float64 `json:"batches_per_sec_per_site"`
	FactsPerBatch        int     `json:"facts_per_batch"`
}

// Reads is an open-loop HTTP chart schedule over a chart mix.
type Reads struct {
	RatePerSec     float64 `json:"rate_per_sec"`
	Mix            string  `json:"mix"`
	DistinctCharts int     `json:"distinct_charts"`
	ZipfS          float64 `json:"zipf_s"`
}

// Probing is the freshness probe of a workload whose traffic phase
// writes nothing. The facts member gets FactsSamples closed-loop
// batches, each waited on until the hub shows it. The pushdown member
// gets open-loop batches for PushdownSeconds: its deltas flush only
// when the sender wakes for new events or an idle heartbeat, so a
// closed loop would measure the heartbeat, not the flush interval.
type Probing struct {
	FactsSamples          int     `json:"facts_samples"`
	PushdownSeconds       float64 `json:"pushdown_seconds"`
	PushdownBatchesPerSec float64 `json:"pushdown_batches_per_sec"`
	FactsPerBatch         int     `json:"facts_per_batch"`
}

// active reports whether the workload runs a probe phase.
func (p Probing) active() bool { return p.FactsSamples > 0 }

// Metric is one catalogue entry.
type Metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  float64  `json:"bound,omitempty"`
	Moves  []string `json:"moves,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s is a legal metric or workload name:
// [A-Za-z0-9_.-]+, starting with a letter or digit, at most 64 long.
func validName(s string) bool { return nameRE.MatchString(s) }

// validUnit reports whether s is a legal metric unit.
func validUnit(s string) bool { return unitRE.MatchString(s) }

// loadSpec parses and validates the embedded spec.
func loadSpec() (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	return &s, nil
}

func (s *Spec) validate() error {
	seen := map[string]bool{}
	for _, w := range s.Workloads {
		if !validName(w.Name) || seen[w.Name] {
			return fmt.Errorf("bad or duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
		if err := w.Settings.validate(); err != nil {
			return fmt.Errorf("workload %s: %w", w.Name, err)
		}
	}
	for _, list := range [][]Metric{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if !validName(m.Name) || seen[m.Name] {
				return fmt.Errorf("bad or duplicate metric name %q", m.Name)
			}
			seen[m.Name] = true
			if !validUnit(m.Unit) {
				return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("metric %s: better must be lower or higher", m.Name)
			}
		}
	}
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range s.PerLayer {
		for _, mv := range m.Moves {
			target, wl, _ := cutAt(mv)
			if !seen[target] && target != "error_ratio" {
				return fmt.Errorf("metric %s moves unknown metric %q", m.Name, mv)
			}
			if wl != "" && !seen[wl] {
				return fmt.Errorf("metric %s moves %q on unknown workload", m.Name, mv)
			}
		}
	}
	return nil
}

// cutAt splits "metric@workload".
func cutAt(s string) (metric, workload string, ok bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == '@' {
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}

func (st Settings) validate() error {
	if v, err := time.ParseDuration(st.PushdownFlushInterval); err != nil || v <= 0 {
		return fmt.Errorf("bad pushdown_flush_interval %q", st.PushdownFlushInterval)
	}
	switch {
	case st.HistoryJobsPerSite <= 0:
		return fmt.Errorf("history_jobs_per_site must be positive")
	case st.CatchupRounds < 1:
		return fmt.Errorf("catchup_rounds must be at least 1")
	case st.Reader.RatePerSec <= 0 || st.Reader.DistinctCharts <= 0:
		return fmt.Errorf("reader rate and distinct_charts must be positive")
	case (st.Writer.BatchesPerSecPerSite > 0) == st.Probe.active():
		return fmt.Errorf("freshness needs exactly one of a writer and a probe phase")
	case st.Writer.BatchesPerSecPerSite > 0 && st.Writer.FactsPerBatch <= 0:
		return fmt.Errorf("writer batches must hold at least one fact")
	case st.Probe.active() && (st.Probe.FactsPerBatch <= 0 || st.Probe.PushdownSeconds <= 0 || st.Probe.PushdownBatchesPerSec <= 0):
		return fmt.Errorf("probe phase needs a batch size, a pushdown duration and a pushdown rate")
	}
	return nil
}

// workload returns the named workload.
func (s *Spec) workload(name string) (Workload, bool) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}
