package cluster

import (
	"math"

	"repro/internal/workload"
)

// queueKey identifies one admission queue: a priority class over one request
// shape. Queues key on the full class shape, not just the name, because a
// replayed trace may reuse one label for different request shapes, and
// merging those into one batch would simulate them at the wrong shape.
type queueKey struct {
	priority int
	class    workload.Class
}

// cmp orders keys for deterministic scheduling: higher priority first, then
// class name, then shape. With a single priority class this degenerates to
// the pre-priority ordering (name, input, output).
func (k queueKey) cmp(o queueKey) int {
	switch {
	case k.priority != o.priority:
		if k.priority > o.priority {
			return -1
		}
		return 1
	case k.class.Name != o.class.Name:
		if k.class.Name < o.class.Name {
			return -1
		}
		return 1
	case k.class.Input != o.class.Input:
		if k.class.Input < o.class.Input {
			return -1
		}
		return 1
	case k.class.Output != o.class.Output:
		if k.class.Output < o.class.Output {
			return -1
		}
		return 1
	}
	return 0
}

// classQueue is one per-priority-per-shape admission queue, FIFO in arrival
// order. Members are indices into the event loop's sorted trace, so a queue
// costs four bytes per waiting request and a timeout event can name the head
// it was armed for.
type classQueue struct {
	key queueKey
	// buf[head:] are the waiting members. Continuous-mode takes advance
	// head; the dead prefix is compacted away once it outgrows the live part.
	buf  []int32
	head int
}

// members returns the waiting requests' trace indices, oldest first.
func (q *classQueue) members() []int32 { return q.buf[q.head:] }

// add appends trace index i as the newest member.
func (q *classQueue) add(i int32) { q.buf = append(q.buf, i) }

// take drops the n oldest members.
func (q *classQueue) take(n int) {
	q.head += n
	if live := len(q.buf) - q.head; q.head > live {
		copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:live]
		q.head = 0
	}
}

// waitDeadline is when the oldest member's max-wait timeout fires.
func (q *classQueue) waitDeadline(trace []Request, maxWait float64) float64 {
	return trace[q.members()[0]].ArrivalSec + maxWait
}

// minStartDeadline is the earliest absolute start deadline among queued
// members, or +Inf when none carries one.
func (q *classQueue) minStartDeadline(trace []Request) float64 {
	min := math.Inf(1)
	for _, i := range q.members() {
		if d := trace[i].StartDeadline(); d < min {
			min = d
		}
	}
	return min
}

// Event kinds, in pop order at equal timestamps. Arrivals precede timeouts
// so a request arriving at a queue's exact wait deadline still joins its
// batch (the pre-event-loop admission semantics); deadline events follow.
// The fault-machinery kinds (all absent without an injector) order so that
// at one instant a batch finishing exactly when a fault fires still
// completes (done before fault), a repair precedes any retry armed for the
// repair instant (the retried batch sees the pipeline healthy), and
// pipeline-free dispatch runs last, over settled health state.
const (
	evArrival  uint8 = iota // i: the request's index in the sorted trace
	evTimeout               // q: the queue; i: the head the timer was armed for
	evDeadline              // i: the request's index in the sorted trace
	evDone                  // s: a committed slot whose finish was armed for at (faults only)
	evFault                 // i: the index of an injected fail-stop in the injector's schedule
	evRepair                // i: the pipeline re-admitting (repair window or quarantine expiry)
	evRetry                 // i: the retries side-table entry whose backoff expired
	evFree
)

// event is one entry on the simulated-clock event heap: a timestamp, the
// ordering keys, and a small payload that names its subject in a side table
// (the sorted trace, the fault schedule, the retries table) or by pointer
// (the queue or slot) instead of carrying it. Five words, copied by value.
type event struct {
	at   float64
	q    *classQueue
	s    *slot
	seq  int // creation order: the final deterministic tie-break
	i    int32
	kind uint8
}

// lessEvent orders events by (time, kind, queue order, sequence).
func lessEvent(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.kind == evTimeout {
		// Simultaneous timeouts fire in queue order, matching the old
		// fireExpired tie-break on the class shape key.
		if c := a.q.key.cmp(b.q.key); c != 0 {
			return c < 0
		}
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events under lessEvent. seq makes the
// order total, so the pop sequence is fully determined by the pushes.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !lessEvent(&e, &s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = e
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{} // drop the queue and slot references
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && lessEvent(&s[r], &s[c]) {
			c = r
		}
		if !lessEvent(&s[c], &last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = last
	return top
}
