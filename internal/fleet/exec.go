package fleet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"

	"hybridndp/internal/device"
	"hybridndp/internal/exec"
	"hybridndp/internal/fault"
	"hybridndp/internal/hw"
	"hybridndp/internal/kv"
	"hybridndp/internal/obs"
	"hybridndp/internal/table"
	"hybridndp/internal/vclock"
)

// Gate is the fleet's per-shard admission hook (wired to the scheduler's
// device ledger and breakers). AdmitShard asks to run a device-side shard on
// device dev; a denial degrades that shard to host execution instead of
// failing the query. The returned release must be called exactly once with
// the shard's outcome and its device-busy virtual time. A nil Gate admits
// everything.
type Gate interface {
	AdmitShard(dev int) (release func(ok bool, busyNs float64), admitted bool)
}

// ShardReport is one device's contribution to a fleet run, indexed by device
// id in Report.Shards.
type ShardReport struct {
	// Elapsed and Account are the device timeline's completion instant and
	// charges; zero and nil for a shard that never reached its device.
	Elapsed vclock.Duration
	Account map[string]vclock.Duration
}

// Report is the outcome of one scatter-gather fleet execution.
type Report struct {
	Query  string
	Mode   string
	Result *exec.Result
	// Elapsed is the host timeline's completion instant (merge + finalize).
	Elapsed     vclock.Duration
	HostAccount map[string]vclock.Duration

	// DegradedShards counts shards the admission gate denied;
	// DeadlineDegraded counts shards routed to host-side execution because
	// their device completion would have blown the request deadline. Every
	// other outcome is counted in the metrics registry.
	DegradedShards   int
	DeadlineDegraded int
	Shards           []ShardReport
}

// Executor fans per-partition NDP-PQEPs out over the fleet and gathers the
// partial results on the host. All devices run on independent virtual
// timelines anchored at their command-setup instants; the host merge
// consumes shard batches in ascending driving-partition order (never in
// completion order), so the merged tuple stream — and the finalized result —
// is byte-identical to a single-device run for every fleet size.
type Executor struct {
	Cat   *table.Catalog
	DB    *kv.DB
	Model hw.Model
	Desc  *Descriptor
	// Gate is the per-shard admission hook; nil admits every shard.
	Gate Gate
	// Faults, when set to an enabled plan, injects per-device faults into the
	// scatter path (device-scoped entries like "dev1:dev.stall=2ms" hit only
	// that fleet member). A crashed shard degrades to host-side execution at
	// its merge position; a corrupt batch re-runs its partition host-side.
	Faults *fault.Plan
	// Metrics receives fleet counters (hedges, crashes, degradations); the
	// registry is race-safe and may be shared. Nil disables recording.
	Metrics *obs.Registry
	// Hedge configures hedged shard execution (disabled by default).
	Hedge HedgeConfig

	// scratch recycles the engines' working memory across this executor's runs.
	scratch exec.ScratchPool
}

// hedgeMult scales the per-device estimate into the hedge launch threshold: a
// shard must look hedgeMult× slower than its estimate before the backup spends
// host work.
const hedgeMult = 3

// HedgeConfig tunes hedged shard execution: once a shard's device elapsed
// virtual time exceeds hedgeMult × the assignment's EstDevNs (optionally
// rescaled by the scheduler's EWMA device-calibration factor via Scale), a
// host-native backup for that shard is launched at the threshold
// instant, and the merge takes whichever side finishes first on the virtual
// timeline. Both sides produce the identical tuple stream for the shard's
// partitions, so fingerprints are unchanged whichever wins.
type HedgeConfig struct {
	// Enabled turns hedging on.
	Enabled bool
	// Scale, when set, rescales the threshold by the scheduler's learned
	// device calibration factor so hedge launches track real device speed
	// rather than raw model estimates.
	Scale func() float64
}

// NewExecutor builds a fleet executor over the catalog and descriptor.
func NewExecutor(cat *table.Catalog, db *kv.DB, m hw.Model, desc *Descriptor) *Executor {
	return &Executor{Cat: cat, DB: db, Model: m, Desc: desc}
}

// outcome is what became of one shard: whether the merge consumes its device
// batches (ok) or re-executes its partitions host-side, and why. Every
// trigger — admission gate, injected crash, checksum failure, deadline,
// hedge — only picks an outcome; the host re-execution path they lead to is
// one and the same.
type outcome int

const (
	ok           outcome = iota // the merge consumes the shard's device batches
	denied                      // the admission gate refused the shard
	crashed                     // the device command died on an injected fault
	corrupt                     // a batch failed host-side checksum verification
	pastDeadline                // device completion lands past the request deadline
	hedgedOut                   // the host-native backup out-ran the device
)

// outcomes names what the system's own output says about each outcome: the
// counter bumped when a shard takes it, and the span wrapping every driving
// partition re-executed because of it. (A denial is counted by the gate that
// issued it and tallied in Report.DegradedShards.)
var outcomes = [...]struct{ counter, span string }{
	crashed:      {counter: "fleet.shard.crashed"},
	corrupt:      {counter: "fleet.batch.corrupt"},
	pastDeadline: {counter: "fleet.deadline.degraded", span: "fleet.deadline.degrade"},
	hedgedOut:    {counter: "fleet.hedge.won", span: "fleet.hedge"},
}

// shard is one device's state within a run.
type shard struct {
	outcome outcome
	// release reports the admitted shard's outcome back to the gate; nil when
	// ungated or not admitted.
	release func(ok bool, busyNs float64)
	dev     *device.Device // nil unless the shard was launched
	inj     *fault.Injector
	// out is the device's output in production order, the gather merging it
	// from out[next]: both walk the shard's partitions in the same order —
	// under H0 every leaf partition step by step, then the driving
	// partitions, each in ascending key order — so a leaf partition is the
	// next batch and a driving partition the batches up to its Last.
	out  []device.Batch
	next int
	// backupAt is a hedged-out shard's hedge launch instant: its host backup
	// cannot have started earlier.
	backupAt vclock.Time
}

// hostFrom is the first join step the host runs on sh's driving rows.
func (r *run) hostFrom(sh *shard) int {
	if sh.outcome == ok {
		return r.a.Split
	}
	return 0
}

// run is the state of one scatter-gather execution.
type run struct {
	x      *Executor
	a      *Assignment
	p      *exec.Plan // a.Plan; under H0 its buffered-join copy
	b      device.Bindings
	rep    *Report
	hostTL *vclock.Timeline
	rc     *device.Receiver // the host engine and pipeline the gather feeds
	shards []shard
	ranges []device.Range // a shard's partitions of one table, refilled per clip
}

// Run executes a planned assignment over the fleet.
func (x *Executor) Run(a *Assignment) (*Report, error) {
	return x.RunTraced(a, nil, 0)
}

// RunTraced executes a planned assignment with structured spans on the host
// timeline and an optional per-request virtual-time deadline (0 = none). The
// deadline never aborts the request: a shard whose device completion would
// land past the deadline is degraded to host-side execution at its merge
// position — the same partition-preserving path an admission denial takes —
// so the host stops waiting on stragglers it can out-run.
//
// The run is a sequence of stages: admit (gate every device-planned shard),
// scatter (one NDP invocation per admitted shard), decide (deadline and hedge
// demotions), prebuild (host hash tables, overlapping device work), gather
// (ordered merge, re-executing every non-ok shard's partitions host-side),
// finalize.
func (x *Executor) RunTraced(a *Assignment, tr *obs.Trace, deadline vclock.Duration) (rep *Report, err error) {
	// The run's one release point: the scratches of the host engine and every
	// shard device — shard batches and leaf rows stay referenced by the host's
	// hash tables until the report is built.
	ls := x.scratch.Lease()
	defer ls.Release()
	r := &run{x: x, a: a, p: a.Plan, hostTL: vclock.NewTimeline("host"),
		b: device.Bindings{Model: &x.Model, Cat: x.Cat, Lease: ls, Trace: tr, Metrics: x.Metrics}}
	r.rep = &Report{Query: r.p.Query.Name, Mode: a.Mode}

	root := tr.Start(r.hostTL, "query:"+r.p.Query.Name).Attr("strategy", "fleet:"+a.Label())
	defer root.End()

	// A host-global decision never scatters: the whole plan runs on the host
	// exactly like the cooperative baseline.
	if a.Mode == ModeHost {
		res, err := r.b.HostEngine(r.hostTL, hw.HostRates(x.Model)).RunPlan(r.p)
		if err != nil {
			return nil, err
		}
		return r.report(res), nil
	}
	if a.Mode == ModeH0 {
		r.p = r.p.WithBufferedJoins()
	}
	if r.rc, err = r.b.Receiver(r.hostTL, r.p); err != nil {
		return nil, err
	}

	r.admit()
	defer func() { r.release(err == nil) }()
	if err := r.scatter(); err != nil {
		return nil, err
	}
	r.decide(deadline)
	if err := r.prebuild(); err != nil {
		return nil, err
	}
	if err := r.gather(); err != nil {
		return nil, err
	}
	res, err := r.rc.Finalize()
	if err != nil {
		return nil, err
	}
	return r.report(res), nil
}

// demote takes a shard off the device path: from here on the merge
// re-executes its partitions host-side.
func (r *run) demote(sh *shard, o outcome) {
	sh.outcome = o
	if c := outcomes[o].counter; c != "" {
		r.x.Metrics.Counter(c).Inc()
	}
}

// admit gates every shard. A denied shard degrades to host execution of its
// partitions.
func (r *run) admit() {
	r.shards = make([]shard, r.x.Desc.Devices)
	for dev := range r.shards {
		sh := &r.shards[dev]
		if r.x.Gate == nil {
			continue
		}
		rel, admitted := r.x.Gate.AdmitShard(dev)
		if !admitted {
			r.demote(sh, denied)
			continue
		}
		sh.release = rel
	}
}

// release reports every admitted shard's outcome to the gate exactly once:
// failure for a shard whose command crashed or shipped corrupt data (and for
// every shard of a run that errored out), success — with the device-busy
// virtual time — otherwise. Slow-but-correct shards (past-deadline,
// hedged-out) are successes: the device did its work.
func (r *run) release(completed bool) {
	for i := range r.shards {
		sh := &r.shards[i]
		if sh.release == nil {
			continue
		}
		if !completed {
			sh.release(false, 0)
			continue
		}
		sh.release(sh.outcome != crashed && sh.outcome != corrupt, float64(sh.dev.TL.Now()))
	}
}

// scatter launches every admitted shard: each runs the fleet's one command on
// its own device, engine and pipeline, so inner builds and scans charge the
// owning device's timeline. Devices are visited in ascending id — their
// timelines are independent, so code order only fixes determinism, not
// virtual concurrency. An injected crash abandons the shard to the host path;
// partial device output is never merged, so the merged stream stays
// byte-identical to the fault-free run.
func (r *run) scatter() error {
	var cmd *device.Command
	for dev := range r.shards {
		sh := &r.shards[dev]
		if sh.outcome != ok {
			continue
		}
		if cmd == nil {
			// One snapshot of the split's tables — under H0 every table of
			// the plan — and one command serve every shard. Each shard takes
			// its per-device share of the driving-table chunks, rounded up so
			// none gets zero: a fleet of one runs exactly the cooperative
			// executor's command.
			snap, err := device.Snapshot(r.x.DB, r.p, r.a.Split)
			if err != nil {
				return err
			}
			n := len(r.shards)
			cmd = &device.Command{Plan: r.p, SplitAfter: r.a.Split, Snapshot: snap,
				Chunks: (device.DrivingChunks(r.x.Model, r.x.Cat, r.p) + n - 1) / n}
		}
		err := r.runShard(dev, cmd)
		if err == nil {
			continue
		}
		if !fault.Injected(err) {
			return err
		}
		r.demote(sh, crashed)
		sh.out = nil
	}
	return nil
}

// runShard is device id's side: the NDP invocation, then the producer over
// the device's own partitions. No slot-wait is passed: the host merges the
// whole fleet's batches in partition order only after every shard ran, so the
// host side is the bottleneck. An injected crash degrades the whole shard at
// the fleet layer instead of retrying.
func (r *run) runShard(id int, cmd *device.Command) error {
	x, sh := r.x, &r.shards[id]
	if fp := x.Faults.ForDevice(id); fp.Enabled() {
		// Per-device fault stream: the run key folds in the device id so one
		// sick device's episode never perturbs its siblings'.
		sh.inj = fp.Injector(r.p.Query.Name + "|" + r.a.Mode + "|dev" + strconv.Itoa(id)).Bind(x.Metrics)
	}
	sh.dev = r.b.Device(sh.inj)
	// The host issues the fleet's commands back to back; each device's
	// timeline starts when its own command arrived.
	eng, err := sh.dev.Launch(cmd, r.a.Mem, r.hostTL)
	if err != nil {
		return err
	}
	dpl, err := eng.StartPipeline(r.p)
	if err != nil {
		return err
	}
	clip := func(pos int) []device.Range {
		parts := r.a.DrivingParts
		if pos > 0 {
			parts = x.Desc.Parts[r.p.Steps[pos-1].Right.Ref.Table]
		}
		r.ranges = r.ranges[:0]
		for _, part := range parts {
			if part.Device == id {
				r.ranges = append(r.ranges, device.Range{Lo: part.Lo, Hi: part.Hi})
			}
		}
		return r.ranges
	}
	return sh.dev.Produce(cmd, dpl, eng, clip, nil, func(b device.Batch) error {
		sh.out = append(sh.out, b)
		return nil
	})
}

// decide applies the deadline and hedge demotions. Every launched shard's
// device completion instant is known here; a shard past the request deadline
// degrades to host-side execution outright, and — with hedging on — a shard
// past the hedge threshold launches a host-native backup at the threshold
// instant, the merge taking whichever side's virtual finish comes first.
// Either way the shard's partitions yield the identical tuple stream, so the
// choice moves latency, never bytes.
func (r *run) decide(deadline vclock.Duration) {
	x, thr := r.x, r.hedgeThreshold()
	for i := range r.shards {
		sh := &r.shards[i]
		if sh.outcome != ok {
			continue
		}
		elapsed := sh.dev.TL.Now()
		if deadline > 0 && vclock.Duration(elapsed) > deadline {
			r.demote(sh, pastDeadline)
			continue
		}
		if thr <= 0 || float64(elapsed) <= thr {
			continue
		}
		x.Metrics.Counter("fleet.hedge.fired").Inc()
		if thr+r.a.EstHostNs < float64(elapsed) {
			sh.backupAt = vclock.Time(thr)
			r.demote(sh, hedgedOut)
		} else {
			x.Metrics.Counter("fleet.hedge.lost").Inc()
		}
	}
}

// hedgeThreshold derives the virtual-time hedge launch threshold for this
// run: hedgeMult × the assignment's per-device estimate, rescaled by the
// scheduler's learned device-calibration factor when wired. Anchoring on the
// query's own estimate (rather than a fixed duration) makes the threshold
// scale-free: an expensive query hedges late, a cheap query's straggler is
// caught early. Returns 0 (hedging off) when disabled.
func (r *run) hedgeThreshold() float64 {
	h := r.x.Hedge
	if !h.Enabled {
		return 0
	}
	scale := 1.0
	if h.Scale != nil {
		if s := h.Scale(); s > 0 {
			scale = s
		}
	}
	return hedgeMult * scale * r.a.EstDevNs
}

// prebuild overlaps host prep with the devices' initial execution: the inner
// hash tables of host-side buffered joins (H0 inners are device-seeded and
// must stay unbuilt until the leaf batches arrive).
func (r *run) prebuild() error {
	if r.a.Mode == ModeH0 {
		return nil
	}
	from := len(r.p.Steps)
	for _, part := range r.a.DrivingParts {
		if hf := r.hostFrom(&r.shards[part.Device]); hf < from {
			from = hf
		}
	}
	return r.rc.Prebuild(from)
}

// gather merges in plan order — every leaf partition of every step first
// (H0), then every driving partition — in ascending partition order
// regardless of which device produced what, so the merged tuple stream
// reconstructs the single-device order exactly.
func (r *run) gather() error {
	if r.a.Mode == ModeH0 {
		for si, st := range r.p.Steps {
			for _, part := range r.x.Desc.Parts[st.Right.Ref.Table] {
				if err := r.gatherLeaf(si, part); err != nil {
					return err
				}
			}
		}
	}
	for pi, part := range r.a.DrivingParts {
		if err := r.gatherDriving(pi, part); err != nil {
			return err
		}
	}
	return nil
}

// receive hands the shard's next device batch to the receiver, which joins
// driving tuples from the command's split onward. A batch that fails its
// checksum demotes the whole shard.
func (r *run) receive(sh *shard) error {
	_, err := r.rc.Receive(sh.out[sh.next], sh.inj, r.hostFrom(sh))
	sh.next++
	if errors.Is(err, device.ErrCorruptBatch) {
		r.demote(sh, corrupt)
		return nil
	}
	return err
}

func (r *run) gatherLeaf(si int, part Partition) error {
	sh := &r.shards[part.Device]
	if sh.outcome == ok {
		if err := r.receive(sh); err != nil || sh.outcome == ok {
			return err
		}
	}
	return r.rerunLeaf(sh, si, part)
}

func (r *run) gatherDriving(pi int, part Partition) error {
	sh := &r.shards[part.Device]
	if sh.outcome == ok {
		// Merge the partition's device batches, up to its Last. A corrupt
		// batch abandons the partition's merged rows and falls through to the
		// host path, so the final stream carries each partition exactly once.
		mark := len(r.rc.Tuples)
		for last := false; !last && sh.outcome == ok; {
			last = sh.out[sh.next].Last
			if err := r.receive(sh); err != nil {
				return err
			}
		}
		if sh.outcome == ok {
			return nil
		}
		r.rc.Tuples = r.rc.Tuples[:mark]
	}
	return r.rerunDriving(sh, pi, part)
}

// rerunLeaf scans one leaf partition host-side at its merge position — where
// every non-ok outcome of the owning shard leads.
func (r *run) rerunLeaf(sh *shard, si int, part Partition) error {
	r.hostTL.WaitUntil(sh.backupAt, hw.CatHedgeWait)
	rows, _, err := r.rc.Eng.ScanAccess(r.rc.Pl, si+1, part.Lo, part.Hi)
	if err != nil {
		return err
	}
	r.rc.Eng.AppendInner(r.rc.Pl, si, rows)
	return nil
}

// rerunDriving executes one driving partition entirely host-side at its merge
// position, preserving the global order — where every non-ok outcome of the
// owning shard leads. The outcome names the span that makes the takeover
// visible; a hedged-out shard's backup is floored at its hedge launch
// instant.
func (r *run) rerunDriving(sh *shard, pi int, part Partition) error {
	var sp *obs.Span
	if name := outcomes[sh.outcome].span; name != "" {
		sp = r.b.Trace.Start(r.hostTL, name).AttrInt("device", int64(part.Device)).AttrInt("partition", int64(pi))
	}
	defer sp.End()
	r.hostTL.WaitUntil(sh.backupAt, hw.CatHedgeWait)
	rows, _, err := r.rc.Eng.ScanAccess(r.rc.Pl, 0, part.Lo, part.Hi)
	if err != nil {
		return err
	}
	return r.rc.Join(0, r.rc.Pl.MakeTuples(rows))
}

// report closes the run's books: the host timeline's completion and one
// ShardReport per device, with the report's two tallies read off the
// outcomes.
func (r *run) report(res *exec.Result) *Report {
	rep := r.rep
	rep.Result = res
	rep.Elapsed = vclock.Duration(r.hostTL.Now())
	rep.HostAccount = r.hostTL.Account()
	if len(r.shards) == 0 {
		return rep
	}
	rep.Shards = make([]ShardReport, len(r.shards))
	for dev := range r.shards {
		sh := &r.shards[dev]
		var sr ShardReport
		switch sh.outcome {
		case denied:
			rep.DegradedShards++
		case pastDeadline:
			rep.DeadlineDegraded++
		}
		if sh.dev != nil {
			sr.Elapsed = vclock.Duration(sh.dev.TL.Now())
			sr.Account = sh.dev.TL.Account()
		}
		rep.Shards[dev] = sr
	}
	return rep
}

// Fingerprint digests a result for byte-identity comparison: column names,
// row count, byte volume and every retained row's values feed one FNV-1a
// stream, so two results agree iff the digests agree.
func Fingerprint(r *exec.Result) string {
	h := fnv.New64a()
	for _, c := range r.Columns {
		fmt.Fprintf(h, "%s\x00", c)
	}
	fmt.Fprintf(h, "|%d|%d|", r.RowCount, r.Bytes)
	for _, row := range r.Rows {
		for _, v := range row {
			switch {
			case v.Null:
				fmt.Fprintf(h, "N\x00")
			case v.IsI:
				fmt.Fprintf(h, "i%d\x00", v.Int)
			default:
				fmt.Fprintf(h, "s%s\x00", v.Str)
			}
		}
		fmt.Fprintf(h, "\n")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
