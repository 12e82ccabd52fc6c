package cluster

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/endurance"
	"repro/internal/faults"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// slot is one dispatched batch on the event loop's schedule. In
// close-at-admission mode slots queue up on a pipeline's chain and may be
// evicted (preempted at the batch boundary) before they start; in
// continuous-batching mode a slot starts the instant it is formed. Failed
// slots (pipe == -1) record batches no pipeline could ever place — or, with
// retries enabled, batches whose recovery budget ran out.
//
// The fault machinery adds attempt outcomes: an aborted slot consumed its
// pipeline (a transient batch error, or a fail-stop killing it mid-run —
// writeFrac says how much of its flash writes landed) but completed no
// work; its batch's retry or terminal failure is recorded separately.
type slot struct {
	b       BatchJob
	rep     *pipeline.Report // the dispatcher memo's entry: shared, read-only
	execSec float64          // service time at placement, before any re-timing
	pipe    int
	reason  string
	start   float64
	finish  float64
	evicted bool

	aborted   bool
	transient bool    // this attempt draws a transient batch error at finish
	done      bool    // completion already processed (evDone dedup)
	degraded  bool    // served by a lossy tier for lack of a healthy exact one
	writeFrac float64 // fraction of the attempt's flash writes performed
}

// eventLoop is the unified scheduling core behind Run: a simulated-clock
// discrete-event loop over arrival / wait-timeout / deadline /
// pipeline-free events and per-priority-class queues. With every extension
// disabled it reproduces the close-at-admission, run-to-completion
// scheduler exactly, event for event.
type eventLoop struct {
	cfg    Config
	d      *dispatcher
	reqs   []Request // the trace in arrival order; events and queues index it
	events eventHeap
	seq    int
	now    float64

	queues map[queueKey]*classQueue

	// chains[p] holds the live slots on pipeline p, in execution order: the
	// running slot (immovable) and, in close-at-admission mode, an
	// unstarted suffix that preemption may evict and re-enqueue. Finished
	// slots are pruned as the clock advances; floors[p] keeps the pruned
	// prefix's finish time as the rescheduling baseline.
	chains [][]*slot
	floors []float64
	// order records every dispatch decision in the order it was made.
	// Evicted slots never reach the Summary; dropEvicted compacts them away
	// once they outnumber the rest, keeping everything else in order.
	order    []*slot
	nEvicted int // evicted slots still in order

	rejected []int
	tally    preemptTally

	// Recovery layer, active only with a non-empty fault injector: d.inj is
	// nil otherwise and every fault path below is skipped, leaving the
	// loop's behavior bit-identical to a fault-free build. The fault paths
	// update the per-pipeline health the dispatcher plans against
	// (d.health); the retry policy is cfg.Retry.
	stops []faults.Event // d.inj.FailStops(), indexed by evFault events
	ft    faultTally
	// pendingRetries holds failed-over and retried batches awaiting an
	// idle pipeline in continuous mode; they dispatch ahead of the queues
	// (they are the oldest admitted work). Whatever is still here when the
	// event heap drains fails terminally — no batch is silently lost.
	pendingRetries []BatchJob
	// retries holds the batches armed on evRetry events, indexed by the
	// event; a popped event's entry is zeroed so its slices can be freed.
	retries []BatchJob
}

// preemptTally counts batch-boundary evictions.
type preemptTally struct {
	batches int
	jobs    int
	byPrio  map[int]int
}

func (l *eventLoop) push(e event) {
	e.seq = l.seq
	l.seq++
	l.events.push(e)
}

// run drains the event heap: the whole simulation, arrivals to final flush.
func (l *eventLoop) run() {
	for len(l.events) > 0 {
		e := l.events.pop()
		if l.cfg.Pace != nil && e.at > l.now {
			l.cfg.Pace(e.at)
		}
		l.now = e.at
		l.cfg.Telemetry.tick(l.now)
		l.compact()
		switch e.kind {
		case evArrival:
			l.arrive(e.i)
		case evTimeout:
			l.fireTimeout(e.q, e.i)
		case evDeadline:
			l.fireDeadline(e.i)
		case evDone:
			l.fireDone(e.s, e.at)
		case evFault:
			fe := l.stops[e.i]
			l.injectFault(fe.Pipeline, fe)
		case evRepair:
			l.fireRepair(int(e.i))
		case evRetry:
			l.redispatch(l.takeRetry(e.i))
		case evFree:
			l.tryDispatch()
		}
	}
}

// compact prunes finished slots (finish ≤ now) from the pipeline chains, so
// the backlog and preemption scans stay proportional to the live schedule,
// not the whole history. Slot finishes are non-decreasing along a chain, so
// the finished work is always a prefix; its last finish becomes the floor.
func (l *eventLoop) compact() {
	for p, chain := range l.chains {
		i := 0
		for i < len(chain) && chain[i].finish <= l.now {
			l.floors[p] = chain[i].finish
			i++
		}
		if i > 0 {
			l.chains[p] = chain[i:]
		}
	}
}

// dropEvicted notes n more evicted slots and, once evicted slots outnumber
// live ones in order, compacts them out, preserving the order of the rest.
func (l *eventLoop) dropEvicted(n int) {
	l.nEvicted += n
	if 2*l.nEvicted <= len(l.order) {
		return
	}
	kept := l.order[:0]
	for _, s := range l.order {
		if !s.evicted {
			kept = append(kept, s)
		}
	}
	clear(l.order[len(kept):])
	l.order = kept
	l.nEvicted = 0
}

// backlog counts admitted-but-unstarted jobs of priority ≥ minPrio: queued
// requests plus jobs in unstarted slots. Without preemption minPrio is 0,
// which counts everything — the original backlog-cap semantics.
func (l *eventLoop) backlog(minPrio int) int {
	n := 0
	for _, q := range l.queues {
		if q.key.priority >= minPrio {
			n += len(q.members())
		}
	}
	for _, chain := range l.chains {
		for _, s := range chain {
			if s.start > l.now && s.b.Priority >= minPrio {
				n += len(s.b.JobIDs)
			}
		}
	}
	return n
}

// arrive admits trace request i: backlog cap, queue insertion, batch
// closure on fill (close-at-admission mode) or a dispatch attempt
// (continuous mode).
func (l *eventLoop) arrive(i int32) {
	r := l.reqs[i]
	if cap := l.cfg.Admission.MaxBacklog; cap > 0 {
		// With preemption, a request only competes for backlog space with
		// work of its own priority or above: online arrivals are no longer
		// rejected just because offline work is queued — the offline tier
		// absorbs the overload by waiting instead.
		minPrio := 0
		if l.cfg.Admission.Preemption {
			minPrio = r.Priority
		}
		if l.backlog(minPrio) >= cap {
			l.rejected = append(l.rejected, r.ID)
			l.cfg.Telemetry.onReject(r)
			return
		}
	}
	k := queueKey{priority: r.Priority, class: r.Class}
	q := l.queues[k]
	if q == nil {
		q = &classQueue{key: k}
		l.queues[k] = q
	}
	if len(q.members()) == 0 {
		l.push(event{at: r.ArrivalSec + l.cfg.Admission.MaxWaitSec, kind: evTimeout, q: q, i: i})
	}
	q.add(i)
	n := len(q.members())
	l.cfg.Telemetry.onArrival(r)
	l.cfg.Telemetry.onQueueDepth(k, n)
	if l.cfg.Admission.Preemption && r.DeadlineSec > 0 {
		l.push(event{at: r.StartDeadline(), kind: evDeadline, i: i})
	}
	if l.cfg.Admission.ContinuousBatching {
		l.tryDispatch()
	} else if n >= l.cfg.Admission.MaxBatch {
		l.closeQueue(q, r.ArrivalSec)
	}
}

// fireTimeout handles a max-wait expiry of queue q, armed for the head at
// trace index head. Stale events — the queue already closed, or refilled
// with a later head — are skipped: the armed deadline no longer matches.
func (l *eventLoop) fireTimeout(q *classQueue, head int32) {
	dl := l.reqs[head].ArrivalSec + l.cfg.Admission.MaxWaitSec
	if len(q.members()) == 0 || q.waitDeadline(l.reqs, l.cfg.Admission.MaxWaitSec) != dl {
		return
	}
	if l.cfg.Admission.ContinuousBatching {
		l.tryDispatch()
		return
	}
	l.closeQueue(q, dl)
}

// fireDeadline handles a start-deadline expiry (preemption mode only): if
// the request is still waiting in its queue, its partial batch closes right
// now and dispatches with deadline-aware placement, instead of waiting out
// the max-wait timer behind offline work.
func (l *eventLoop) fireDeadline(i int32) {
	r := l.reqs[i]
	q := l.queues[queueKey{priority: r.Priority, class: r.Class}]
	if q == nil {
		return
	}
	waiting := false
	for _, m := range q.members() {
		if l.reqs[m].ID == r.ID {
			waiting = true
			break
		}
	}
	if !waiting {
		return // already batched (and possibly already running)
	}
	if l.cfg.Admission.ContinuousBatching {
		l.tryDispatch() // the queue is ripe now via its min start deadline
		return
	}
	l.closeQueue(q, l.now)
}

// makeBatch forms a BatchJob from the given members (trace indices, at
// least one) of one queue.
func makeBatch(k queueKey, trace []Request, members []int32, release float64) BatchJob {
	n := len(members)
	b := BatchJob{
		Class: k.class, Priority: k.priority, ReleaseSec: release,
		JobIDs: make([]int, n), Arrivals: make([]float64, n), Deadlines: make([]float64, n),
	}
	for j, i := range members {
		r := &trace[i]
		b.JobIDs[j] = r.ID
		b.Arrivals[j] = r.ArrivalSec
		if r.DeadlineSec > 0 {
			b.Deadlines[j] = r.ArrivalSec + r.DeadlineSec
		}
	}
	return b
}

// minDeadline is the batch's earliest member start deadline, or +Inf.
func minDeadline(b BatchJob) float64 {
	min := math.Inf(1)
	for _, d := range b.Deadlines {
		if d > 0 && d < min {
			min = d
		}
	}
	return min
}

// closeQueue forms a batch from everything waiting in q, releases it at the
// given time, and places it (close-at-admission mode).
func (l *eventLoop) closeQueue(q *classQueue, release float64) {
	b := makeBatch(q.key, l.reqs, q.members(), release)
	q.take(len(q.members()))
	l.cfg.Telemetry.onQueueDepth(q.key, 0)
	l.place(b, l.cfg.Admission.Preemption)
}

// commitSlot materializes a planned placement as a schedule slot. With a
// fault injector active it also draws the attempt's transient-error fate
// (at commit, in dispatch order — single-goroutine, so the PRNG stream is
// deterministic) and arms a completion event carrying the finish it was
// armed for, so preemption-shifted slots invalidate stale completions.
func (l *eventLoop) commitSlot(b BatchJob, pl placement) *slot {
	s := &slot{
		b: b, rep: pl.rep, execSec: pl.sec,
		pipe: pl.p, start: pl.start, finish: pl.start + pl.sec,
		degraded: pl.degraded, writeFrac: 1,
	}
	l.d.freeAt[pl.p] = s.finish
	l.chains[pl.p] = append(l.chains[pl.p], s)
	l.order = append(l.order, s)
	l.cfg.Telemetry.onDispatch(l.now, s, l.cfg.Fleet[pl.p].Name)
	if l.d.inj != nil {
		s.transient = l.d.inj.BatchFails(pl.p)
		if pl.degraded {
			l.ft.degradedB++
			l.ft.degradedJ += len(b.JobIDs)
			l.cfg.Telemetry.onDegrade(l.now, s, l.cfg.Fleet[pl.p].Name)
		}
		l.push(event{at: s.finish, kind: evDone, s: s})
	}
	return s
}

// failSlot records a batch no pipeline could place.
func (l *eventLoop) failSlot(b BatchJob, reason string) {
	l.order = append(l.order, &slot{b: b, pipe: -1, reason: reason})
	l.cfg.Telemetry.onFail(l.now, b, reason)
}

// place dispatches a batch in close-at-admission mode: commit the policy's
// plan, or — when every pipeline that could serve the batch is temporarily
// down or quarantined — defer to the earliest re-admission instant instead
// of failing work the fleet will soon be able to run. Only a batch no
// pipeline can ever place fails terminally.
//
// With preempt (a freshly closed batch under Preemption), a batch that would
// miss its earliest member deadline on the policy's pick instead takes the
// pipeline where it can start soonest after evicting strictly-lower-priority
// unstarted slots. The evicted batches re-dispatch without preemption, so
// one eviction cannot cascade.
func (l *eventLoop) place(b BatchJob, preempt bool) {
	pl, feasible, nextAvail := l.d.plan(b, false, l.now)
	if preempt && pl.p >= 0 && minDeadline(b) < pl.start {
		if p, est := l.bestPreemptive(b); p >= 0 && est < pl.start {
			evicted := l.evict(p, b.Priority)
			n := len(b.JobIDs)
			rep := l.d.report(p, b.Class, n)
			start := math.Max(b.ReleaseSec, l.d.freeAt[p])
			sec := l.d.execSec(p, b.Class, n, rep) * l.d.inj.SlowFactor(p, start)
			l.commitSlot(b, placement{p: p, rep: rep, sec: sec, start: start})
			for _, ev := range evicted {
				l.tally.batches++
				l.tally.jobs += len(ev.b.JobIDs)
				l.tally.byPrio[ev.b.Priority] += len(ev.b.JobIDs)
				l.cfg.Telemetry.onPreempt(l.now, ev, b.Priority, l.cfg.Fleet[p].Name)
			}
			for _, ev := range evicted {
				l.redispatch(ev.b)
			}
			return
		}
	}
	switch {
	case pl.p >= 0:
		l.commitSlot(b, pl)
	case feasible && !math.IsInf(nextAvail, 1):
		l.armRetry(nextAvail, b)
	default:
		l.failSlot(b, pl.reason)
	}
}

// bestPreemptive returns the feasible pipeline on which b would start
// earliest if every strictly-lower-priority unstarted slot there were
// evicted, with that start time. Started slots never move: preemption acts
// only at batch boundaries.
func (l *eventLoop) bestPreemptive(b BatchJob) (int, float64) {
	n := len(b.JobIDs)
	best, bestStart := -1, math.Inf(1)
	for p := range l.d.fleet {
		rep := l.d.report(p, b.Class, n)
		if rep.OOM || rep.Batch < 1 {
			continue
		}
		if l.d.avail(p) > l.now {
			continue // down, quarantined, or worn out: nothing to preempt into
		}
		prevFinish := l.floors[p]
		for _, s := range l.chains[p] {
			switch {
			case s.start <= l.now:
				prevFinish = s.finish // started: immovable
			case s.b.Priority >= b.Priority:
				st := math.Max(s.b.ReleaseSec, prevFinish) // survivor, shifted up
				prevFinish = st + s.execSec
			}
			// Strictly-lower-priority unstarted slots would be evicted.
		}
		if est := math.Max(b.ReleaseSec, prevFinish); est < bestStart {
			best, bestStart = p, est
		}
	}
	return best, bestStart
}

// evictAll is evict's keepPrio for failover: every unstarted slot goes.
const evictAll = -1

// evict removes pipeline p's unstarted slots whose priority is below
// keepPrio (every unstarted slot with evictAll) and re-times the survivors:
// each shifts up to max(its release, its predecessor's finish), and the
// pipeline clock tracks the new chain end, which also rewinds it after a
// kill truncated the running slot. With faults active each shifted slot
// re-arms its completion event for the new finish; the events armed for the
// old finish go stale (their finish no longer matches) and the done flag
// dedups two armings landing on the same instant. The evicted slots come
// back in chain order for the caller to tally and hand to redispatch: work
// is displaced, never lost.
func (l *eventLoop) evict(p, keepPrio int) []*slot {
	var kept, evicted []*slot
	prevFinish := l.floors[p]
	for _, s := range l.chains[p] {
		switch {
		case s.start <= l.now:
			prevFinish = s.finish // started: immovable
		case keepPrio == evictAll || s.b.Priority < keepPrio:
			s.evicted = true
			evicted = append(evicted, s)
			continue
		default:
			old := s.finish
			s.start = math.Max(s.b.ReleaseSec, prevFinish)
			s.finish = s.start + s.execSec
			prevFinish = s.finish
			if l.d.inj != nil && s.finish != old {
				l.push(event{at: s.finish, kind: evDone, s: s})
			}
		}
		kept = append(kept, s)
	}
	l.chains[p] = kept
	l.d.freeAt[p] = prevFinish
	l.dropEvicted(len(evicted))
	return evicted
}

// fireDone settles one attempt at the finish it was armed for (faults
// active only): charge the attempt's flash writes against the pipeline's
// wear budget, then resolve its transient-error fate. Stale events — the
// slot was evicted, killed, or re-timed by preemption — are skipped; the
// done flag dedups re-armed events that landed on the same finish.
func (l *eventLoop) fireDone(s *slot, armed float64) {
	if s.done || s.evicted || s.aborted || s.finish != armed {
		return
	}
	s.done = true
	p := s.pipe
	if l.d.health[p].wear.Add(writeBytes(s.rep, s.b)) {
		// This attempt's writes crossed the endurance budget: the pipeline
		// retires permanently, effective now (the completion boundary).
		l.injectFault(p, faults.Event{Kind: faults.WearOut, Pipeline: p, AtSec: l.now})
	}
	if s.transient {
		s.aborted = true
		s.reason = "transient batch error"
		l.noteFailure(p)
		l.failAttempt(p, s.b, "transient batch error")
		return
	}
	l.d.health[p].consecFails = 0
}

// injectFault applies one injected fault to pipeline p: a wear-out retires
// it permanently, a fail-stop takes it down for the event's repair window
// (with the repair re-admission scheduled). The running slot dies on the
// spot — its flash writes prorated by run fraction, its batch routed into
// the retry path — and queued-ahead work fails over immediately.
func (l *eventLoop) injectFault(p int, fe faults.Event) {
	h := &l.d.health[p]
	if math.IsInf(h.downUntil, 1) {
		return // already permanently retired
	}
	if fe.Kind == faults.WearOut {
		h.downUntil = math.Inf(1)
		h.wearOut = true
	} else {
		if h.downUntil > l.now {
			return // overlapping fail-stop: the pipeline is already down
		}
		h.downUntil = l.now + fe.DurationSec
		l.push(event{at: h.downUntil, kind: evRepair, i: int32(p)})
	}
	h.faults++
	l.ft.faults++
	l.cfg.Telemetry.onFault(l.now, l.cfg.Fleet[p].Name, fe)
	for _, s := range l.chains[p] {
		if s.aborted || s.evicted || s.start > l.now || s.finish <= l.now {
			continue
		}
		frac := 0.0
		if s.finish > s.start {
			frac = (l.now - s.start) / (s.finish - s.start)
		}
		s.aborted = true
		s.writeFrac = frac
		s.finish = l.now
		s.reason = "killed by " + string(fe.Kind)
		if h.wear.Add(frac * writeBytes(s.rep, s.b)) {
			// The partial writes themselves exhausted the budget: the
			// repair window becomes moot — the device is worn out.
			h.downUntil = math.Inf(1)
			h.wearOut = true
		}
		l.failAttempt(p, s.b, "killed by "+string(fe.Kind))
	}
	l.failover(p, string(fe.Kind))
}

// fireRepair re-admits pipeline p when its downtime and quarantine have
// both passed (a repair armed for a window that was later superseded — or
// for a pipeline that wore out permanently in the meantime — is stale and
// skipped), then offers it the waiting work.
func (l *eventLoop) fireRepair(p int) {
	h := &l.d.health[p]
	if h.downUntil > l.now || h.quarUntil > l.now {
		return
	}
	h.consecFails = 0
	l.cfg.Telemetry.onRepair(l.now, l.cfg.Fleet[p].Name)
	l.tryDispatch()
}

// failAttempt routes one failed attempt of a batch: re-dispatch after
// deterministic exponential backoff while the retry budget lasts, terminal
// failure once it is exhausted. Backoff is never jittered — replays are
// bit-identical.
func (l *eventLoop) failAttempt(p int, b BatchJob, reason string) {
	attempt := b.Attempt + 1
	if attempt > l.cfg.Retry.MaxRetries {
		l.failSlot(b, reason+" (retries exhausted)")
		return
	}
	nb := b
	nb.Attempt = attempt
	nb.ReleaseSec = l.now + l.cfg.Retry.backoffSec(attempt)
	l.ft.retryBatches++
	l.ft.retryJobs += len(nb.JobIDs)
	l.cfg.Telemetry.onRetry(l.now, nb, reason, l.cfg.Fleet[p].Name)
	l.armRetry(nb.ReleaseSec, nb)
}

// armRetry parks b in the retries side table and schedules its re-dispatch
// at the given instant.
func (l *eventLoop) armRetry(at float64, b BatchJob) {
	l.push(event{at: at, kind: evRetry, i: int32(len(l.retries))})
	l.retries = append(l.retries, b)
}

// takeRetry removes and returns the batch an evRetry event armed.
func (l *eventLoop) takeRetry(i int32) BatchJob {
	b := l.retries[i]
	l.retries[i] = BatchJob{}
	return b
}

// noteFailure advances pipeline p's circuit breaker after a failed attempt:
// at FailureThreshold consecutive failures the pipeline is quarantined for
// QuarantineSec, its queued-ahead work fails over, and a re-admission is
// scheduled. Runs before the failed batch's own retry is armed, so even a
// zero-backoff retry sees the quarantine.
func (l *eventLoop) noteFailure(p int) {
	h := &l.d.health[p]
	h.consecFails++
	if l.cfg.Retry.FailureThreshold <= 0 || h.consecFails < l.cfg.Retry.FailureThreshold {
		return
	}
	if h.downUntil > l.now || h.quarUntil > l.now {
		return // already out of service
	}
	h.consecFails = 0
	h.quarUntil = l.now + l.cfg.Retry.QuarantineSec
	h.quarantines++
	l.ft.quarantines++
	l.cfg.Telemetry.onQuarantine(l.now, l.cfg.Fleet[p].Name, l.cfg.Retry.QuarantineSec)
	l.failover(p, "quarantine")
	l.push(event{at: h.quarUntil, kind: evRepair, i: int32(p)})
}

// failover moves pipeline p's queued-ahead (unstarted) slots to the rest of
// the fleet: each is evicted and re-dispatched at the current instant,
// exactly like a preemption eviction.
func (l *eventLoop) failover(p int, cause string) {
	evicted := l.evict(p, evictAll)
	for _, ev := range evicted {
		l.ft.failedOverB++
		l.ft.failedOverJ += len(ev.b.JobIDs)
		l.cfg.Telemetry.onFailover(l.now, ev, cause, l.cfg.Fleet[p].Name)
	}
	for _, ev := range evicted {
		l.redispatch(ev.b)
	}
}

// redispatch places displaced or recovered work (an evicted batch, a retry
// whose backoff expired, or a deferred batch): continuous mode parks it on
// the pendingRetries list — drained ahead of the queues at the next
// dispatch opportunity — while close-at-admission mode re-plans
// immediately, without preemption, deferring again if the whole fleet is
// still out of service.
func (l *eventLoop) redispatch(b BatchJob) {
	if b.ReleaseSec < l.now {
		// Recovered work re-releases at the instant it re-enters dispatch:
		// a batch deferred past its backoff expiry must not be backdated to
		// a start while its pipeline was still down.
		b.ReleaseSec = l.now
	}
	if l.cfg.Admission.ContinuousBatching {
		l.pendingRetries = append(l.pendingRetries, b)
		l.tryDispatch()
		return
	}
	l.place(b, false)
}

// ripe reports whether a queue may dispatch now (continuous mode): a full
// batch is waiting, the oldest member's max wait expired, or — under
// preemption — a member's start deadline arrived.
func (l *eventLoop) ripe(q *classQueue) bool {
	if len(q.members()) >= l.cfg.Admission.MaxBatch {
		return true
	}
	if q.waitDeadline(l.reqs, l.cfg.Admission.MaxWaitSec) <= l.now {
		return true
	}
	return l.cfg.Admission.Preemption && q.minStartDeadline(l.reqs) <= l.now
}

// ripeQueues returns the dispatchable queues in scheduling order: priority
// first, then oldest waiting head, then class key order.
func (l *eventLoop) ripeQueues() []*classQueue {
	var qs []*classQueue
	for _, q := range l.queues {
		if len(q.members()) > 0 && l.ripe(q) {
			qs = append(qs, q)
		}
	}
	sort.Slice(qs, func(i, j int) bool {
		a, b := qs[i], qs[j]
		if a.key.priority != b.key.priority {
			return a.key.priority > b.key.priority
		}
		if ha, hb := l.reqs[a.members()[0]].ArrivalSec, l.reqs[b.members()[0]].ArrivalSec; ha != hb {
			return ha < hb
		}
		return a.key.cmp(b.key) < 0
	})
	return qs
}

// tryDispatch is the continuous-batching scheduler: while an idle pipeline
// can take a batch, start it. Recovered work on the pendingRetries list goes
// first (it is the oldest admitted work), then the ripe queues in
// scheduling order, each re-packing up to MaxBatch of its oldest requests.
// Batches are therefore formed at dispatch time — a pipeline freeing early
// picks up whatever has queued since, instead of a stale admission-time
// batch. A batch that is merely waiting on busy or recovering pipelines
// stays put for the next free or repair event; one no fleet member can ever
// serve again fails terminally.
func (l *eventLoop) tryDispatch() {
	if !l.cfg.Admission.ContinuousBatching {
		return
	}
	for l.dispatchOne() {
	}
}

// dispatchOne starts or fails the first batch that need not wait, reporting
// whether there was one (continuous mode).
func (l *eventLoop) dispatchOne() bool {
	for i, b := range l.pendingRetries {
		if b.ReleaseSec < l.now {
			b.ReleaseSec = l.now // parked since an earlier instant: re-release now
		}
		if pl, feasible, _ := l.d.plan(b, true, l.now); pl.p >= 0 || !feasible {
			l.pendingRetries = append(l.pendingRetries[:i], l.pendingRetries[i+1:]...)
			l.start(b, pl)
			return true
		}
	}
	for _, q := range l.ripeQueues() {
		n := min(len(q.members()), l.cfg.Admission.MaxBatch)
		b := makeBatch(q.key, l.reqs, q.members()[:n], l.now)
		if pl, feasible, _ := l.d.plan(b, true, l.now); pl.p >= 0 || !feasible {
			l.takeFromQueue(q, n)
			l.start(b, pl)
			return true
		}
	}
	return false
}

// start settles an idle-pipeline plan (continuous mode): commit it and arm
// the pipeline-free event, or fail the batch when no pipeline can place it.
func (l *eventLoop) start(b BatchJob, pl placement) {
	if pl.p < 0 {
		l.failSlot(b, pl.reason)
		return
	}
	s := l.commitSlot(b, pl)
	l.push(event{at: s.finish, kind: evFree})
}

// takeFromQueue removes the queue's n oldest requests and re-arms its
// max-wait timer for the new head.
func (l *eventLoop) takeFromQueue(q *classQueue, n int) {
	q.take(n)
	rest := q.members()
	l.cfg.Telemetry.onQueueDepth(q.key, len(rest))
	if len(rest) > 0 {
		at := max(q.waitDeadline(l.reqs, l.cfg.Admission.MaxWaitSec), l.now)
		l.push(event{at: at, kind: evTimeout, q: q, i: rest[0]})
	}
}

// Run drains a timestamped trace through the fleet: the full discrete-event
// loop of arrivals, per-priority-class queues, batch formation (at admission
// or, with continuous batching, at dispatch) and policy placement, with
// deadline-aware preemption when enabled. Requests are processed in arrival
// order (ties by ID); expired wait timeouts fire, in deadline order, before
// any later arrival is admitted, and remaining queues flush at their
// deadlines after the trace ends. The result is identical run to run.
func Run(cfg Config, reqs []Request) (Summary, error) {
	if err := cfg.Admission.validate(); err != nil {
		return Summary{}, err
	}
	if err := cfg.Retry.validate(); err != nil {
		return Summary{}, err
	}
	if len(reqs) == 0 {
		return Summary{}, fmt.Errorf("cluster: empty trace")
	}
	d, err := newDispatcher(cfg.Model, cfg.Fleet, cfg.Policy)
	if err != nil {
		return Summary{}, err
	}
	// An injector with nothing to inject is dropped entirely: every fault
	// path below keys off inj != nil, so the empty-injector run is the
	// fault-free run, bit for bit.
	inj := cfg.Faults
	if inj.Empty() {
		inj = nil
	}

	sorted := make([]Request, len(reqs))
	copy(sorted, reqs)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].ArrivalSec != sorted[j].ArrivalSec {
			return sorted[i].ArrivalSec < sorted[j].ArrivalSec
		}
		return sorted[i].ID < sorted[j].ID
	})
	for _, r := range sorted {
		if r.ArrivalSec < 0 || math.IsInf(r.ArrivalSec, 0) || math.IsNaN(r.ArrivalSec) {
			return Summary{}, fmt.Errorf("cluster: arrival time %g for request %d is not finite and ≥ 0", r.ArrivalSec, r.ID)
		}
		if r.Priority < 0 {
			return Summary{}, fmt.Errorf("cluster: priority %d for request %d is negative", r.Priority, r.ID)
		}
		if r.DeadlineSec < 0 || math.IsInf(r.DeadlineSec, 0) || math.IsNaN(r.DeadlineSec) {
			return Summary{}, fmt.Errorf("cluster: deadline %g for request %d is not finite and ≥ 0", r.DeadlineSec, r.ID)
		}
	}

	// Prewarm the dominant shapes (every distinct class shape at the target
	// batch size on every pipeline) concurrently; odd tail sizes simulate
	// lazily on the event loop.
	var shapes []prewarmShape
	seenClass := map[workload.Class]bool{}
	for _, r := range sorted {
		if seenClass[r.Class] {
			continue
		}
		seenClass[r.Class] = true
		for p := range cfg.Fleet {
			shapes = append(shapes, prewarmShape{p: p, c: r.Class, size: cfg.Admission.MaxBatch})
		}
	}
	d.prewarm(shapes)

	l := &eventLoop{
		cfg:    cfg,
		d:      d,
		reqs:   sorted,
		queues: map[queueKey]*classQueue{},
		chains: make([][]*slot, len(cfg.Fleet)),
		floors: make([]float64, len(cfg.Fleet)),
		tally:  preemptTally{byPrio: map[int]int{}},
	}
	l.events = make(eventHeap, 0, len(sorted))
	for i, r := range sorted {
		l.push(event{at: r.ArrivalSec, kind: evArrival, i: int32(i)})
	}
	d.inj = inj
	if inj != nil {
		for p := range d.health {
			if budget := inj.WearBudgetBytes(p); budget > 0 {
				d.health[p].wear = endurance.NewBudget(budget)
			}
		}
		l.stops = inj.FailStops()
		for i, fe := range l.stops {
			if fe.Pipeline >= len(cfg.Fleet) {
				return Summary{}, fmt.Errorf("cluster: fault schedule targets pipeline %d of a %d-pipeline fleet", fe.Pipeline, len(cfg.Fleet))
			}
			l.push(event{at: fe.AtSec, kind: evFault, i: int32(i)})
		}
	}
	l.run()
	// Job conservation's backstop: recovered work still parked when the
	// event heap drains means no pipeline will ever serve it — fail it
	// terminally rather than lose it silently.
	for _, b := range l.pendingRetries {
		l.failSlot(b, "no healthy pipeline before trace end")
	}
	l.pendingRetries = nil

	asgs := make([]Assignment, 0, len(l.order))
	fracs := make([]float64, 0, len(l.order))
	for _, s := range l.order {
		if s.evicted {
			continue
		}
		if s.pipe < 0 {
			asgs = append(asgs, Assignment{Batch: s.b, Pipeline: -1, Reason: s.reason})
			fracs = append(fracs, 0)
			continue
		}
		asgs = append(asgs, Assignment{
			Batch: s.b, Pipeline: s.pipe,
			StartSec: s.start, FinishSec: s.finish,
			Report:  *s.rep,
			Aborted: s.aborted, Reason: s.reason,
		})
		fracs = append(fracs, s.writeFrac)
	}
	return summarize(cfg, sorted, asgs, l.rejected, sorted[0].ArrivalSec, l.tally, l.ft, d.health, fracs), nil
}
