package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is the result of one operation as the generator sees it.
type outcome struct {
	kind     string // operation kind ("match", "ingest", "analyze")
	due      time.Time
	start    time.Time
	end      time.Time
	err      bool   // transport error, non-2xx status or refusal
	wrong    bool   // answered, but the answer failed its check
	why      string // what was wrong with the answer
	degraded bool   // 2xx answer marked partial or degraded
	// check, when set, verifies the answer after the load phases, so
	// computing a reference never competes with the server for CPU. It
	// returns why the answer is wrong, "" when it is right.
	check func() string
}

func (o outcome) failed() bool { return o.err || o.wrong }

// judge records a check's verdict ("" = right).
func (o *outcome) judge(why string) {
	if why != "" {
		o.wrong, o.why = true, why
	}
}

// latency is the time from when the operation was due to its answer.
func (o outcome) latency() time.Duration { return o.end.Sub(o.due) }

// late is how long after its due time the operation was sent.
func (o outcome) late() time.Duration { return o.start.Sub(o.due) }

// opFunc performs operation i and fills the answer fields of o (kind, end,
// err, wrong, degraded). The generator owns due and start.
type opFunc func(i int, o *outcome)

// schedule is a seeded open-loop arrival process: Poisson arrivals at a fixed
// absolute rate for a fixed duration. The offsets depend only on the seed.
type schedule struct {
	offsets []time.Duration
	dur     time.Duration
}

func poisson(seed int64, rate float64, dur time.Duration) schedule {
	rng := rand.New(rand.NewSource(seed))
	var offs []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			break
		}
		offs = append(offs, time.Duration(t*float64(time.Second)))
	}
	return schedule{offsets: offs, dur: dur}
}

// loopStats summarizes one load phase.
type loopStats struct {
	outcomes   []outcome
	backlogMax int  // arrivals due but not yet sent, at worst
	lateGrew   bool // lateness in the last quarter far above the first
}

// openLoop sends each arrival of s at its due time over conns workers (each
// worker owns one connection and issues one request at a time). Arrivals are
// never dropped: when every worker is busy they queue, and their latency,
// timed from the due time, includes that wait. A worker stops taking new
// arrivals once the phase has run for s.dur plus grace, recording the rest
// as failed.
func openLoop(s schedule, conns int, grace time.Duration, do opFunc) loopStats {
	n := len(s.offsets)
	outs := make([]outcome, n)
	var next atomic.Int64
	var backlogMax atomic.Int64
	t0 := time.Now().Add(20 * time.Millisecond)
	deadline := t0.Add(s.dur + grace)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				o := &outs[i]
				o.due = t0.Add(s.offsets[i])
				if d := time.Until(o.due); d > 0 {
					time.Sleep(d)
				}
				o.start = time.Now()
				if o.start.After(deadline) {
					o.end, o.err = o.start, true
					continue
				}
				// Arrivals already due but not yet taken by a worker.
				dueNow := sort.Search(n, func(j int) bool { return t0.Add(s.offsets[j]).After(o.start) })
				if b := int64(dueNow - i - 1); b > backlogMax.Load() {
					backlogMax.Store(b) // racy max: a lost update under-reports by one sample at most
				}
				do(i, o)
			}
		}()
	}
	wg.Wait()
	st := loopStats{outcomes: outs, backlogMax: int(backlogMax.Load())}
	if q := n / 4; q >= 20 {
		first := lateMs(outs[:q])
		tail := lateMs(outs[n-q:])
		st.lateGrew = median(tail) > median(first)+100
	}
	return st
}

func lateMs(os []outcome) []float64 {
	xs := make([]float64, len(os))
	for i, o := range os {
		xs[i] = ms(o.late())
	}
	return xs
}

// closedLoop runs clients workers back to back for dur: each sends its next
// operation as soon as the previous one answers. Operation indices are
// handed out in order.
func closedLoop(dur time.Duration, clients int, do opFunc) loopStats {
	var mu sync.Mutex
	var outs []outcome
	var next atomic.Int64
	t0 := time.Now()
	stop := t0.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []outcome
			for time.Now().Before(stop) {
				i := int(next.Add(1) - 1)
				o := outcome{due: time.Now()}
				o.start = o.due
				do(i, &o)
				mine = append(mine, o)
			}
			mu.Lock()
			outs = append(outs, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return loopStats{outcomes: outs}
}

// closedLoopN runs operations 0..n-1 over clients workers, back to back.
func closedLoopN(n, clients int, do opFunc) loopStats {
	outs := make([]outcome, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				o := &outs[i]
				o.due = time.Now()
				o.start = o.due
				do(i, o)
			}
		}()
	}
	wg.Wait()
	return loopStats{outcomes: outs}
}

// goodput counts answers that were correct, not degraded and within limit,
// per second of the phase's nominal duration.
func goodput(st loopStats, limit, dur time.Duration) float64 {
	n := 0
	for _, o := range st.outcomes {
		if !o.failed() && !o.degraded && o.latency() <= limit {
			n++
		}
	}
	return float64(n) / dur.Seconds()
}

// latencies returns the answered latencies (ms) of one operation kind.
// Failed operations count as missing any latency limit: they are reported
// as +Inf so percentiles above the success share read as unbounded.
func latencies(os []outcome, kind string) []float64 {
	var xs []float64
	for _, o := range os {
		if kind != "" && o.kind != kind {
			continue
		}
		if o.failed() {
			xs = append(xs, math.Inf(1))
			continue
		}
		xs = append(xs, ms(o.latency()))
	}
	return xs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// countOutcomes runs deferred checks and folds every outcome into rep.
func countOutcomes(rep *report, sts ...loopStats) {
	for _, st := range sts {
		for i := range st.outcomes {
			if o := &st.outcomes[i]; o.check != nil && !o.err {
				o.judge(o.check())
			}
			rep.count(st.outcomes[i])
		}
	}
}
