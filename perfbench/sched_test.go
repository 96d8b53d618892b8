package main

import (
	"testing"
	"time"
)

// fakeClock advances only when the pacer sleeps or the test says so.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) sleep(d time.Duration)   { c.t = c.t.Add(d) }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newFakePacer(period time.Duration) (*pacer, *fakeClock) {
	c := &fakeClock{t: time.Unix(1000, 0)}
	p := newPacer(c.t, period)
	p.now, p.sleep = c.now, c.sleep
	return p, c
}

func TestPacerSendsOnDueTimes(t *testing.T) {
	p, c := newFakePacer(10 * time.Millisecond)
	deadline := c.t.Add(35 * time.Millisecond)
	var dues []time.Duration
	for {
		_, due, ok := p.wait(deadline)
		if !ok {
			break
		}
		dues = append(dues, due.Sub(p.start))
		if c.t != due {
			t.Fatalf("sent at %v, due at %v", c.t, due)
		}
		c.advance(time.Millisecond) // fast operation
		p.done(c.t)
	}
	want := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if len(dues) != len(want) {
		t.Fatalf("sent %d operations before the deadline, want %d", len(dues), len(want))
	}
	for i := range want {
		if dues[i] != want[i] {
			t.Errorf("operation %d due at %v, want %v", i, dues[i], want[i])
		}
	}
	if p.backlogMax != 1 {
		t.Errorf("backlogMax = %d, want 1 (only the operation being sent)", p.backlogMax)
	}
	for i, l := range p.genLate {
		if l != 0 {
			t.Errorf("operation %d: generator late %v ms on an idle system", i, l)
		}
	}
}

// A slow system makes later operations late; that lateness belongs to
// the system, and latency counted from the due time includes it.
func TestPacerChargesStallsToTheSystem(t *testing.T) {
	p, c := newFakePacer(10 * time.Millisecond)
	deadline := c.t.Add(time.Second)

	_, due0, _ := p.wait(deadline)
	c.advance(45 * time.Millisecond) // one stall spans four periods
	p.done(c.t)

	i, due1, _ := p.wait(deadline)
	if i != 1 || due1.Sub(due0) != 10*time.Millisecond {
		t.Fatalf("second operation: index %d due %v after the first", i, due1.Sub(due0))
	}
	if lat := c.t.Sub(due1); lat != 35*time.Millisecond {
		t.Errorf("latency from due time = %v, want 35ms", lat)
	}
	if p.genLate[1] != 0 {
		t.Errorf("stall charged to the generator: %v ms", p.genLate[1])
	}
	if p.backlogMax != 4 {
		t.Errorf("backlogMax = %d, want 4 (operations 1-4 due, none sent)", p.backlogMax)
	}
}

// Delay the system did not cause is the generator's own.
func TestPacerChargesWakeupDelayToTheGenerator(t *testing.T) {
	p, c := newFakePacer(10 * time.Millisecond)
	p.sleep = func(d time.Duration) { c.advance(d + 3*time.Millisecond) } // oversleeps
	deadline := c.t.Add(time.Second)
	p.wait(deadline)
	p.done(c.t)
	p.wait(deadline)
	if got := p.genLate[1]; got != 3 {
		t.Errorf("generator lateness = %v ms, want 3", got)
	}
}

func TestGeneratorLate(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	for _, c := range []struct {
		due, prevDone, sent int
		want                time.Duration
	}{
		{10, 0, 10, 0},
		{10, 0, 12, 2 * time.Millisecond},
		{10, 30, 30, 0},
		{10, 30, 31, time.Millisecond},
	} {
		if got := generatorLate(at(c.due), at(c.prevDone), at(c.sent)); got != c.want {
			t.Errorf("generatorLate(due %d, prevDone %d, sent %d) = %v, want %v", c.due, c.prevDone, c.sent, got, c.want)
		}
	}
}
