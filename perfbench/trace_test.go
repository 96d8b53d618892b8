package main

import "testing"

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "chart.http", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "rest.serve", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "rest.serve", Start: 50, End: 80}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 130},      // clipped at 100
	}
	self := selfTimes(spans)
	if got, want := self["chart.http"], 100.0-(80-10)-(100-90); got*1e6 != want {
		t.Errorf("parent self time = %v us, want %v us", got*1e6, want)
	}
	if got := self["rest.serve"] * 1e6; got != 50+30 {
		t.Errorf("child self time = %v us, want 80", got)
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	var r *recorder
	sp := r.start("x", 0, 0)
	sp.end()
	if r.active() || r.newReq() != 0 {
		t.Error("nil recorder is active")
	}
	rec := newRecorder()
	rec.on.Store(false)
	rec.start("x", 0, 0).end()
	if len(rec.spans) != 0 {
		t.Errorf("switched-off recorder kept %d spans", len(rec.spans))
	}
}
