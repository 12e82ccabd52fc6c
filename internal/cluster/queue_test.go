package cluster

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/workload"
)

// The event heap's payload stays small: events are copied by value on every
// sift, so growing them is a measurable slowdown of every cluster.Run.
func TestEventSize(t *testing.T) {
	if sz := unsafe.Sizeof(event{}); sz > 40 {
		t.Fatalf("event is %d bytes, want ≤ 40", sz)
	}
}

// heapOrderQueues are timeout targets whose keys differ in each field
// queueKey.cmp looks at: priority, class name, input and output length.
func heapOrderQueues() []*classQueue {
	return []*classQueue{
		{key: queueKey{priority: 0, class: workload.Short}},
		{key: queueKey{priority: 1, class: workload.Short}},
		{key: queueKey{priority: 0, class: workload.Medium}},
		{key: queueKey{priority: 0, class: workload.Class{Name: "Short", Input: 256, Output: 50}}},
		{key: queueKey{priority: 0, class: workload.Class{Name: "Short", Input: 128, Output: 100}}},
	}
}

// oracleOrder sorts events by (at, kind, queue key for timeouts, seq) with
// sort.SliceStable: the order the heap must reproduce, written without
// lessEvent.
func oracleOrder(evs []event) {
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.kind == evTimeout {
			if c := a.q.key.cmp(b.q.key); c != 0 {
				return c < 0
			}
		}
		return a.seq < b.seq
	})
}

// checkHeapOrder replays ops against an eventHeap and a sorted-slice
// oracle. Each op is three bytes: a pop when the first byte's low three
// bits are 7 (and the heap is non-empty), otherwise a push whose timestamp
// comes from a handful of values — so ties are common — whose kind is the
// first byte mod 8, and whose timeout queue is picked by the third byte.
// Every pop, and the final drain, must return exactly the oracle's minimum.
func checkHeapOrder(t *testing.T, ops []byte) {
	t.Helper()
	queues := heapOrderQueues()
	times := []float64{0, 1, 1, 2.5, 7, 7, 7, 1e9}
	var h eventHeap
	var pending []event
	seq := 0
	pop := func() {
		t.Helper()
		oracleOrder(pending)
		want := pending[0]
		pending = pending[1:]
		if got := h.pop(); !reflect.DeepEqual(got, want) {
			t.Fatalf("pop %+v, oracle says %+v", got, want)
		}
	}
	for ; len(ops) >= 3; ops = ops[3:] {
		if ops[0]&7 == 7 && len(pending) > 0 {
			pop()
			continue
		}
		e := event{at: times[ops[1]%8], kind: ops[0] % 8, seq: seq, i: int32(ops[2])}
		seq++
		if e.kind == evTimeout {
			e.q = queues[int(ops[2])%len(queues)]
		}
		h.push(e)
		pending = append(pending, e)
	}
	for len(pending) > 0 {
		pop()
	}
	if len(h) != 0 {
		t.Fatalf("heap holds %d events after the oracle drained", len(h))
	}
}

// Property: random interleavings of pushes and pops, heavy on equal
// timestamps and simultaneous timeouts on different queues, pop in exactly
// the oracle order.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		ops := make([]byte, 3*(1+rng.Intn(200)))
		rng.Read(ops)
		checkHeapOrder(t, ops)
	}
}

func FuzzEventHeapOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 0, 1, 1, 1, 1, 1, 2, 1, 1, 3, 1, 1, 4, 7, 0, 0}) // simultaneous timeouts
	f.Add([]byte{0, 2, 0, 5, 2, 0, 3, 2, 0, 1, 2, 1, 6, 2, 0, 2, 2, 0}) // one instant, every kind
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*512 {
			ops = ops[:3*512]
		}
		checkHeapOrder(t, ops)
	})
}

// take keeps the members in FIFO order across head advances, compactions
// and refills.
func TestClassQueueTake(t *testing.T) {
	var q classQueue
	var want []int32
	next := int32(0)
	rng := rand.New(rand.NewSource(2))
	for step := 0; step < 2000; step++ {
		if n := len(want); n > 0 && rng.Intn(3) == 0 {
			k := 1 + rng.Intn(n)
			q.take(k)
			want = want[k:]
		} else {
			q.add(next)
			want = append(want, next)
			next++
		}
		if got := q.members(); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("step %d: members %v, want %v", step, got, want)
		}
		if q.head > len(q.buf)-q.head {
			t.Fatalf("step %d: dead prefix %d outgrew live part %d", step, q.head, len(q.buf)-q.head)
		}
	}
}
