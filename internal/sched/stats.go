package sched

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"hybridndp/internal/vclock"
)

// Outcome records how the scheduler handled one query.
type Outcome struct {
	Priority Priority
	// Chosen is the strategy that ran; Degraded marks it as other than the
	// one the optimizer would pick on an idle system.
	Chosen   string
	Degraded bool
	// QueueWait is the virtual time from submission to dispatch.
	QueueWait vclock.Duration
	Err       error
}

// Stats is a snapshot of the scheduler's counters, suitable for printing
// after a drain or while serving.
type Stats struct {
	Submitted int64
	Completed int64
	Degraded  int64 // completed with a strategy other than the unloaded choice
	Rejected  int64 // expired in queue (ctx / timeout)
	Errors    int64

	// ByStrategy counts completions per executed strategy. Per-priority
	// completion counts live in the obs registry ("sched.completed.<class>"),
	// not here — the snapshot keeps only what the policies consume.
	ByStrategy map[string]int64

	QueueWaitMax  vclock.Duration
	QueueWaitMean vclock.Duration
	// QueueWaitMaxByPriority demonstrates the starvation bound per class.
	QueueWaitMaxByPriority map[string]vclock.Duration

	// HostBusy / DeviceBusy are the virtual busy times (stalls excluded)
	// accumulated on the host lanes and the device fleet.
	HostBusy   vclock.Duration
	DeviceBusy vclock.Duration
	HostLanes  int
	DevLanes   int
	// Makespan is the virtual instant the last dispatched query completed.
	Makespan vclock.Duration

	queueWaitSum vclock.Duration
}

// Throughput reports completed queries per virtual second of makespan.
func (st Stats) Throughput() float64 {
	if st.Makespan <= 0 {
		return 0
	}
	return float64(st.Completed) / st.Makespan.Seconds()
}

func (st Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "submitted=%d completed=%d degraded=%d rejected=%d errors=%d\n",
		st.Submitted, st.Completed, st.Degraded, st.Rejected, st.Errors)
	fmt.Fprintf(&b, "queue wait: max=%v mean=%v", st.QueueWaitMax, st.QueueWaitMean)
	for _, k := range sortedKeys(st.QueueWaitMaxByPriority) {
		fmt.Fprintf(&b, " max(%s)=%v", k, st.QueueWaitMaxByPriority[k])
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "virtual: host busy=%v (%d lanes) device busy=%v (%d lanes) makespan=%v throughput=%.2f q/s\n",
		st.HostBusy, st.HostLanes, st.DeviceBusy, st.DevLanes, st.Makespan, st.Throughput())
	if len(st.ByStrategy) > 0 {
		b.WriteString("strategies:")
		for _, k := range sortedKeys(st.ByStrategy) {
			fmt.Fprintf(&b, " %s=%d", k, st.ByStrategy[k])
		}
		b.WriteString("\n")
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// record books one dispatched query's terminal outcome.
func (st *Stats) record(o *Outcome, hostBusy, devBusy vclock.Duration) {
	if o.Err != nil {
		st.Errors++
		return
	}
	st.Completed++
	if o.Degraded {
		st.Degraded++
	}
	st.ByStrategy[o.Chosen]++
	prio := o.Priority.String()
	st.QueueWaitMax = max(st.QueueWaitMax, o.QueueWait)
	st.QueueWaitMaxByPriority[prio] = max(st.QueueWaitMaxByPriority[prio], o.QueueWait)
	st.queueWaitSum += o.QueueWait
	st.QueueWaitMean = st.queueWaitSum / vclock.Duration(st.Completed)
	st.HostBusy += hostBusy
	st.DeviceBusy += devBusy
}

// snapshot copies the counters out.
func (st *Stats) snapshot() Stats {
	out := *st
	out.ByStrategy = maps.Clone(st.ByStrategy)
	out.QueueWaitMaxByPriority = maps.Clone(st.QueueWaitMaxByPriority)
	return out
}
