package main

import (
	"runtime"
	"time"
)

// pacer drives one open-loop schedule: operation i is due at
// start + i*period, whether or not earlier operations have
// finished. Latency is timed from the due time, so a stall in the
// system also charges the wait it imposes on later operations.
//
// The pacer also separates lateness the generator causes from lateness
// the system causes. An operation sent after its due time while the
// single sending goroutine was still busy with the previous operation
// is late because of the system; only the delay beyond
// max(due, previous completion) is the generator's own (timer wake-up
// or scheduling delay).
type pacer struct {
	start  time.Time
	period time.Duration
	now    func() time.Time
	sleep  func(time.Duration)

	next     int
	lastDone time.Time

	genLate    []float64 // ms, one per sent operation
	backlogMax int
}

func newPacer(start time.Time, period time.Duration) *pacer {
	return &pacer{start: start, period: period, now: time.Now, sleep: sleepPrecise}
}

// spinFor is how much of each wait is spent yielding in a loop rather
// than in a timer, whose wake-up can overshoot by a millisecond or
// more on a busy host and would be charged to every latency.
const spinFor = 300 * time.Microsecond

func sleepPrecise(d time.Duration) {
	until := time.Now().Add(d)
	if d > spinFor {
		time.Sleep(d - spinFor)
	}
	for time.Now().Before(until) {
		runtime.Gosched()
	}
}

// due returns operation i's due time.
func (p *pacer) due(i int) time.Time {
	return p.start.Add(time.Duration(i) * p.period)
}

// backlog is the number of operations due at t that have not been
// sent, counting operation next itself.
func (p *pacer) backlog(t time.Time) int {
	el := t.Sub(p.start)
	if el < 0 {
		return 0
	}
	dueSoFar := int(el/p.period) + 1
	if n := dueSoFar - p.next; n > 0 {
		return n
	}
	return 0
}

// wait blocks until the next operation is due or the deadline passes.
// It returns the operation's index and due time, or ok=false when the
// operation would be due at or after the deadline.
func (p *pacer) wait(deadline time.Time) (i int, due time.Time, ok bool) {
	i, due = p.next, p.due(p.next)
	if !due.Before(deadline) {
		return i, due, false
	}
	if d := due.Sub(p.now()); d > 0 {
		p.sleep(d)
	}
	sent := p.now()
	if b := p.backlog(sent); b > p.backlogMax {
		p.backlogMax = b
	}
	p.genLate = append(p.genLate, ms(generatorLate(due, p.lastDone, sent)))
	p.next++
	return i, due, true
}

// done records when the operation just sent completed.
func (p *pacer) done(t time.Time) { p.lastDone = t }

// generatorLate is the part of an operation's send delay that the
// generator, not the system, caused.
func generatorLate(due, prevDone, sent time.Time) time.Duration {
	ready := due
	if prevDone.After(ready) {
		ready = prevDone
	}
	if d := sent.Sub(ready); d > 0 {
		return d
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
