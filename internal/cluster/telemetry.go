package cluster

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

// Telemetry is the cluster loop's instrumentation sink: a thin wrapper
// binding the generic telemetry.Registry/Stream to the scheduler's event
// vocabulary. All timestamps are simulated-clock seconds and nothing here
// feeds back into scheduling, so a telemetry-enabled run produces a
// bit-identical Summary to a disabled one. A nil *Telemetry is fully
// disabled: every method is a nil-receiver no-op costing one pointer check
// in the hot loop.
//
// Two kinds of metrics coexist:
//
//   - Live, monotone counters and events emitted as the loop executes
//     (arrivals, rejections, dispatches, preemptions, queue depths, the
//     simulated clock). Dispatch counts include batches that are later
//     evicted and re-dispatched — they narrate the schedule as it unfolds.
//   - End-state metrics finalized from the Summary (completed jobs,
//     deadline misses, failures, delay histogram, per-pipeline
//     utilization/wear): preemption can shift an unstarted slot's start
//     time after its dispatch, so these are only exact once the schedule
//     settles. Finalized metrics match the Summary's fields exactly.
type Telemetry struct {
	reg    *telemetry.Registry
	stream *telemetry.Stream

	arrivals   *telemetry.Counter
	rejections *telemetry.Counter
	dispBatch  *telemetry.Counter
	dispJobs   *telemetry.Counter
	preBatch   *telemetry.Counter
	preJobs    *telemetry.Counter
	faultsC    *telemetry.Counter
	repairs    *telemetry.Counter
	retryBatch *telemetry.Counter
	retryJobs  *telemetry.Counter
	quarC      *telemetry.Counter
	foBatch    *telemetry.Counter
	foJobs     *telemetry.Counter
	degBatch   *telemetry.Counter
	degJobs    *telemetry.Counter
	clock      *telemetry.Gauge

	queueDepth map[queueKey]*telemetry.Gauge
}

// NewTelemetry binds a cluster telemetry sink to a registry and/or an event
// stream; either may be nil. Returns nil when both are, which is the fully
// disabled configuration.
func NewTelemetry(reg *telemetry.Registry, stream *telemetry.Stream) *Telemetry {
	if reg == nil && stream == nil {
		return nil
	}
	return &Telemetry{
		reg:        reg,
		stream:     stream,
		arrivals:   reg.Counter("cluster.arrivals"),
		rejections: reg.Counter("cluster.rejections"),
		dispBatch:  reg.Counter("cluster.dispatched_batches"),
		dispJobs:   reg.Counter("cluster.dispatched_jobs"),
		preBatch:   reg.Counter("cluster.preempted_batches"),
		preJobs:    reg.Counter("cluster.preempted_jobs"),
		faultsC:    reg.Counter("cluster.faults_injected"),
		repairs:    reg.Counter("cluster.repairs"),
		retryBatch: reg.Counter("cluster.retried_batches"),
		retryJobs:  reg.Counter("cluster.retried_jobs"),
		quarC:      reg.Counter("cluster.quarantines"),
		foBatch:    reg.Counter("cluster.failed_over_batches"),
		foJobs:     reg.Counter("cluster.failed_over_jobs"),
		degBatch:   reg.Counter("cluster.degraded_batches"),
		degJobs:    reg.Counter("cluster.degraded_jobs"),
		clock:      reg.Gauge("cluster.sim_clock_sec"),
		queueDepth: map[queueKey]*telemetry.Gauge{},
	}
}

// Registry returns the bound metrics registry (nil when disabled).
func (t *Telemetry) Registry() *telemetry.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Stream returns the bound event stream (nil when disabled).
func (t *Telemetry) Stream() *telemetry.Stream {
	if t == nil {
		return nil
	}
	return t.stream
}

// tick records the simulated clock advancing to now.
func (t *Telemetry) tick(now float64) {
	if t == nil {
		return
	}
	t.clock.Set(now)
}

// onArrival records one admitted request.
func (t *Telemetry) onArrival(r Request) {
	if t == nil {
		return
	}
	t.arrivals.Inc()
	t.stream.Publish(telemetry.Event{
		TSec: r.ArrivalSec, Kind: "arrival", Subsystem: "cluster",
		Class: r.Class.Name, Priority: r.Priority, Jobs: 1,
	})
}

// onReject records one backlog-cap rejection.
func (t *Telemetry) onReject(r Request) {
	if t == nil {
		return
	}
	t.rejections.Inc()
	t.stream.Publish(telemetry.Event{
		TSec: r.ArrivalSec, Kind: "reject", Subsystem: "cluster",
		Class: r.Class.Name, Priority: r.Priority, Jobs: 1,
	})
}

// onQueueDepth records a queue's depth after it changed.
func (t *Telemetry) onQueueDepth(k queueKey, depth int) {
	if t == nil {
		return
	}
	g := t.queueDepth[k]
	if g == nil {
		g = t.reg.Gauge(fmt.Sprintf("cluster.queue_depth.p%d.%s", k.priority, k.class.Name))
		t.queueDepth[k] = g
	}
	g.Set(float64(depth))
}

// onDispatch records a slot committed onto a pipeline's chain. The slot may
// later be evicted by preemption; dispatch counters narrate scheduling
// decisions, not completions.
func (t *Telemetry) onDispatch(now float64, s *slot, pipeName string) {
	if t == nil {
		return
	}
	t.dispBatch.Inc()
	t.dispJobs.Add(int64(len(s.b.JobIDs)))
	t.stream.Publish(telemetry.Event{
		TSec: now, Kind: "dispatch", Subsystem: "cluster",
		Pipeline: pipeName, Class: s.b.Class.Name, Priority: s.b.Priority,
		Jobs: len(s.b.JobIDs), Value: s.finish - s.start,
		Detail: fmt.Sprintf("start=%g", s.start),
	})
}

// onFail records a batch no pipeline could place.
func (t *Telemetry) onFail(now float64, b BatchJob, reason string) {
	if t == nil {
		return
	}
	t.stream.Publish(telemetry.Event{
		TSec: now, Kind: "fail", Subsystem: "cluster",
		Class: b.Class.Name, Priority: b.Priority, Jobs: len(b.JobIDs),
		Detail: reason,
	})
}

// onPreempt records one evicted (and re-enqueued) slot.
func (t *Telemetry) onPreempt(now float64, ev *slot, byPriority int, pipeName string) {
	if t == nil {
		return
	}
	t.preBatch.Inc()
	t.preJobs.Add(int64(len(ev.b.JobIDs)))
	t.stream.Publish(telemetry.Event{
		TSec: now, Kind: "preempt", Subsystem: "cluster",
		Pipeline: pipeName, Class: ev.b.Class.Name, Priority: ev.b.Priority,
		Jobs: len(ev.b.JobIDs), Detail: fmt.Sprintf("by_priority=%d", byPriority),
	})
}

// onFault records one injected fault firing on a pipeline.
func (t *Telemetry) onFault(now float64, pipeName string, fe faults.Event) {
	if t == nil {
		return
	}
	t.faultsC.Inc()
	t.stream.Publish(telemetry.Event{
		TSec: now, Kind: "fault", Subsystem: "cluster",
		Pipeline: pipeName, Value: fe.DurationSec,
		Detail: string(fe.Kind),
	})
}

// onRepair records a pipeline's re-admission after downtime or quarantine.
func (t *Telemetry) onRepair(now float64, pipeName string) {
	if t == nil {
		return
	}
	t.repairs.Inc()
	t.stream.Publish(telemetry.Event{
		TSec: now, Kind: "repair", Subsystem: "cluster", Pipeline: pipeName,
	})
}

// onRetry records one failed attempt re-entering dispatch after backoff.
func (t *Telemetry) onRetry(now float64, b BatchJob, reason, pipeName string) {
	if t == nil {
		return
	}
	t.retryBatch.Inc()
	t.retryJobs.Add(int64(len(b.JobIDs)))
	t.stream.Publish(telemetry.Event{
		TSec: now, Kind: "retry", Subsystem: "cluster",
		Pipeline: pipeName, Class: b.Class.Name, Priority: b.Priority,
		Jobs: len(b.JobIDs), Value: b.ReleaseSec - now,
		Detail: fmt.Sprintf("attempt=%d %s", b.Attempt, reason),
	})
}

// onQuarantine records a circuit-breaker trip.
func (t *Telemetry) onQuarantine(now float64, pipeName string, durSec float64) {
	if t == nil {
		return
	}
	t.quarC.Inc()
	t.stream.Publish(telemetry.Event{
		TSec: now, Kind: "quarantine", Subsystem: "cluster",
		Pipeline: pipeName, Value: durSec,
	})
}

// onFailover records one queued-ahead slot evicted from a failing pipeline
// and re-dispatched elsewhere.
func (t *Telemetry) onFailover(now float64, ev *slot, cause, pipeName string) {
	if t == nil {
		return
	}
	t.foBatch.Inc()
	t.foJobs.Add(int64(len(ev.b.JobIDs)))
	t.stream.Publish(telemetry.Event{
		TSec: now, Kind: "failover", Subsystem: "cluster",
		Pipeline: pipeName, Class: ev.b.Class.Name, Priority: ev.b.Priority,
		Jobs: len(ev.b.JobIDs), Detail: cause,
	})
}

// onDegrade records a batch landing on a lossy tier because every exact
// pipeline was out of service.
func (t *Telemetry) onDegrade(now float64, s *slot, pipeName string) {
	if t == nil {
		return
	}
	t.degBatch.Inc()
	t.degJobs.Add(int64(len(s.b.JobIDs)))
	t.stream.Publish(telemetry.Event{
		TSec: now, Kind: "degrade", Subsystem: "cluster",
		Pipeline: pipeName, Class: s.b.Class.Name, Priority: s.b.Priority,
		Jobs: len(s.b.JobIDs),
	})
}

// delayBounds buckets queueing delay in seconds, log-spaced from sub-second
// to hours.
var delayBounds = []float64{0.1, 0.5, 1, 5, 10, 30, 60, 120, 300, 600, 1800, 3600}

// finalize publishes the settled end-state of a run: counters and gauges
// whose exact values depend on the final schedule (preemption shifts
// unstarted slot starts after dispatch). Every value is copied from the
// Summary, so metrics and Summary can never disagree.
func (t *Telemetry) finalize(s Summary) {
	if t == nil {
		return
	}
	t.reg.Counter("cluster.completed_jobs").Add(int64(s.Completed))
	t.reg.Counter("cluster.failed_batches").Add(int64(s.FailedBatches))
	t.reg.Counter("cluster.failed_jobs").Add(int64(s.FailedJobs))
	t.reg.Counter("cluster.deadline_misses").Add(int64(s.DeadlineMisses))
	t.reg.Gauge("cluster.makespan_sec").Set(s.MakespanSec)
	t.reg.Gauge("cluster.total_write_bytes").Add(s.TotalWriteBytes)

	// Queueing delay of completed jobs only, like Summary.DelayMeanSec:
	// a fault-aborted attempt's jobs settle in a later assignment.
	h := t.reg.Histogram("cluster.delay_sec", delayBounds)
	for _, a := range s.Assignments {
		if a.Pipeline < 0 || a.Aborted {
			continue
		}
		for i := range a.Batch.JobIDs {
			arr := a.Batch.ReleaseSec
			if a.Batch.Arrivals != nil {
				arr = a.Batch.Arrivals[i]
			}
			h.Observe(a.StartSec - arr)
		}
	}

	for _, ps := range s.Pipelines {
		prefix := "cluster.pipeline." + ps.Name
		t.reg.Gauge(prefix + ".busy_sec").Set(ps.BusySec)
		t.reg.Gauge(prefix + ".utilization").Set(ps.Utilization)
		t.reg.Gauge(prefix + ".write_bytes").Set(ps.WriteBytes)
		t.reg.Gauge(prefix + ".wear_pct").Set(ps.WearPct)
		t.reg.Gauge(prefix + ".write_pressure_bps").Set(ps.WritePressureBps)
		if ps.WearOut {
			t.reg.Gauge(prefix + ".worn_out").Set(1)
		}
	}
}
