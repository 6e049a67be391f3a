package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"

	"hybridndp/internal/device"
	"hybridndp/internal/exec"
	"hybridndp/internal/fault"
	"hybridndp/internal/hw"
	"hybridndp/internal/kv"
	"hybridndp/internal/num"
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
	AdmitShard(dev int, memBytes int64, estNs float64) (release func(ok bool, busyNs float64), admitted bool)
}

// ShardReport is one device's contribution to a fleet run.
type ShardReport struct {
	Device     int
	Split      int
	Partitions int
	Frac       float64
	// Rows counts driving tuples plus leaf rows the shard produced.
	Rows    int64
	Batches int
	Elapsed vclock.Duration
	Account map[string]vclock.Duration
	// Degraded marks a device-planned shard the admission gate refused; its
	// partitions executed host-side instead.
	Degraded bool
	// Crashed marks a shard whose device command died on an injected fault;
	// its partitions executed host-side instead.
	Crashed bool
	// Hedged marks a shard whose host-native backup beat the device on the
	// virtual timeline (or whose device result would have blown the request
	// deadline); the merge consumed the host backup's rows.
	Hedged bool
	Reason string
}

// Report is the outcome of one scatter-gather fleet execution.
type Report struct {
	Query  string
	Mode   string
	Result *exec.Result
	// Elapsed is the host timeline's completion instant (merge + finalize).
	Elapsed     vclock.Duration
	HostAccount map[string]vclock.Duration

	Batches          int
	TransferredBytes int64
	Devices          int
	DegradedShards   int
	// CrashedShards counts shards abandoned to the host after an injected
	// device crash; CorruptBatches counts batches that failed host-side
	// checksum verification (their partitions re-ran host-side).
	CrashedShards  int
	CorruptBatches int
	// HedgesFired / HedgesWon / HedgesLost account hedged shard execution:
	// fired = a host backup was launched for a slow shard, won = the backup's
	// estimated finish beat the device and the merge used the host rows,
	// lost = the device still finished first and the backup was cancelled.
	HedgesFired int
	HedgesWon   int
	HedgesLost  int
	// DeadlineDegraded counts shards routed to host-side execution because
	// their device completion would have blown the request deadline.
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
	// Chunks overrides the global driving-table chunk count (0 = auto); each
	// shard gets its per-device share.
	Chunks int
	// BatchSize sets the columnar batch row capacity of every engine this
	// executor builds (0 = exec.DefaultBatchSize); charges are byte-identical
	// at every size.
	BatchSize int
	// Faults, when set to an enabled plan, injects per-device faults into the
	// scatter path (device-scoped entries like "dev1:dev.stall=2ms" hit only
	// that fleet member). A crashed shard degrades to host-side execution at
	// its merge position; a corrupt batch re-runs its partition host-side.
	Faults *fault.Plan
	// Metrics receives fleet counters (hedges, crashes, degradations); the
	// registry is race-safe and may be shared. Nil disables recording.
	Metrics *obs.Registry
	// Budget, when set, is the shared retry/hedge token budget: launching a
	// shard hedge spends one token, and a drained bucket suppresses hedging
	// so fault storms cannot amplify. Nil = unlimited.
	Budget *fault.RetryBudget
	// Hedge configures hedged shard execution (disabled by default).
	Hedge HedgeConfig

	// scratch recycles the engines' working memory across this executor's runs.
	scratch exec.ScratchPool
}

// HedgeConfig tunes hedged shard execution: once a shard's device elapsed
// virtual time exceeds Mult × the Quantile of the admitted shards' EstDevNs
// (optionally rescaled by the scheduler's EWMA device-calibration factor via
// Scale), a host-native backup for that shard is launched at the threshold
// instant, and the merge takes whichever side finishes first on the virtual
// timeline. Both sides produce the identical tuple stream for the shard's
// partitions, so fingerprints are unchanged whichever wins.
type HedgeConfig struct {
	// Enabled turns hedging on.
	Enabled bool
	// Quantile of the admitted shards' device estimates that anchors the
	// threshold (0 = 0.5, the median).
	Quantile float64
	// Mult scales the quantile into the launch threshold (0 = 3): a shard
	// must look Mult× slower than the typical shard estimate before the
	// backup spends host work.
	Mult float64
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
// trigger — planner, admission gate, injected crash, checksum failure,
// deadline, hedge — only picks an outcome; the host re-execution path they
// lead to is one and the same.
type outcome int

const (
	hostPlanned  outcome = iota // the planner kept the partitions on the host (hybrid Split 0)
	ok                          // the merge consumes the shard's device batches
	denied                      // the admission gate refused the shard
	crashed                     // the device command died on an injected fault
	corrupt                     // a batch failed host-side checksum verification
	pastDeadline                // device completion lands past the request deadline
	hedgedOut                   // the host-native backup out-ran the device
)

// outcomes names what the system's own output says about each outcome: the
// counter bumped when a shard takes it, and the span wrapping every driving
// partition re-executed because of it. (A denial is counted by the gate that
// issued it.)
var outcomes = [...]struct{ counter, span string }{
	crashed:      {counter: "fleet.shard.crashed"},
	corrupt:      {counter: "fleet.batch.corrupt"},
	pastDeadline: {counter: "fleet.deadline.degraded", span: "fleet.deadline.degrade"},
	hedgedOut:    {counter: "fleet.hedge.won", span: "fleet.hedge"},
}

// shard is one device's state within a run.
type shard struct {
	plan    *ShardPlan
	outcome outcome
	// release reports the admitted shard's outcome back to the gate; nil when
	// ungated or not admitted.
	release func(ok bool, busyNs float64)
	dev     *device.Device // nil unless the shard was launched
	inj     *fault.Injector
	// backupAt is a hedged-out shard's hedge launch instant: its host backup
	// cannot have started earlier.
	backupAt vclock.Time
	rows     int64
	batches  int
}

// hostFrom is the first join step the host runs on this shard's driving rows.
func (sh *shard) hostFrom() int {
	if sh.outcome == ok && sh.plan.Split > 0 {
		return sh.plan.Split
	}
	return 0
}

// leafKey addresses one inner table's partition scan: step index within the
// plan plus partition index within the table's descriptor entry.
type leafKey struct{ step, part int }

// run is the state of one scatter-gather execution.
type run struct {
	x      *Executor
	a      *Assignment
	p      *exec.Plan // a.Plan; under H0 its buffered-join copy
	tr     *obs.Trace
	rep    *Report
	hostTL *vclock.Timeline
	hostR  hw.Rates
	host   *exec.Engine
	pl     *exec.Pipeline
	lease  *exec.Lease // the scratches of the host engine and every shard device
	shards []shard
	// Device output by merge position; the gather reads an entry only while
	// its owner's outcome is ok, so a demoted shard's output needs no cleanup.
	leaves  map[leafKey]device.Batch
	driving [][]device.Batch
	tuples  []exec.Tuple
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
	r := &run{x: x, a: a, p: a.Plan, tr: tr, hostTL: vclock.NewTimeline("host"), hostR: hw.HostRates(x.Model),
		lease: x.scratch.Lease()}
	// The run's one release point: shard batches and leaf rows stay referenced
	// by the host's hash tables until the report is built.
	defer r.lease.Release()
	r.rep = &Report{Query: r.p.Query.Name, Mode: a.Mode, Devices: x.Desc.Devices}
	r.host = &exec.Engine{Cat: x.Cat, TL: r.hostTL, R: r.hostR, Scratch: r.lease.Scratch(),
		Cache: x.DB.NewBlockCache(x.Model.HostCacheFraction), BatchSize: x.BatchSize}

	root := tr.Start(r.hostTL, "query:"+r.p.Query.Name).Attr("strategy", "fleet:"+a.Label())
	defer root.End()

	// A host-global decision never scatters: the whole plan runs on the host
	// exactly like the cooperative baseline.
	if a.Mode == ModeHost {
		res, err := r.host.RunPlan(r.p)
		if err != nil {
			return nil, err
		}
		return r.report(res), nil
	}
	if a.Mode == ModeH0 {
		r.p = r.p.WithBufferedJoins()
	}
	if r.pl, err = r.host.StartPipeline(r.p); err != nil {
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
	res, err := r.host.Finalize(r.pl, r.tuples)
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

// admit gates every device-planned shard. A denied shard degrades to host
// execution of its partitions; planned host shards (hybrid Split == 0) never
// claim device resources.
func (r *run) admit() {
	r.shards = make([]shard, r.x.Desc.Devices)
	for dev := range r.shards {
		sh := &r.shards[dev]
		sh.plan = &r.a.Shards[dev]
		if r.a.Mode == ModeHybrid && sh.plan.Split == 0 {
			continue
		}
		sh.outcome = ok
		if r.x.Gate == nil {
			continue
		}
		rel, admitted := r.x.Gate.AdmitShard(dev, sh.plan.Mem.TotalBytes, sh.plan.EstDevNs)
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

// scatter launches every admitted shard: each gets its own command, device,
// engine and pipeline, so inner builds and scans charge the owning device's
// timeline. Devices are visited in ascending id — their timelines are
// independent, so code order only fixes determinism, not virtual
// concurrency. An injected crash abandons the shard to the host path;
// partial device output is never merged, so the merged stream stays
// byte-identical to the fault-free run.
func (r *run) scatter() error {
	maxSplit, any := -1, false
	for i := range r.shards {
		if sh := &r.shards[i]; sh.outcome == ok {
			any = true
			if sh.plan.Split > maxSplit {
				maxSplit = sh.plan.Split
			}
		}
	}
	if !any {
		return nil
	}
	if r.a.Mode == ModeH0 {
		maxSplit = -1 // leaf offload reads every inner table on device
	}
	snap, err := device.Snapshot(r.x.DB, r.p, maxSplit)
	if err != nil {
		return err
	}
	chunks := r.x.Chunks
	if chunks <= 0 {
		chunks = device.DrivingChunks(r.x.Model, r.x.Cat, r.p)
	}
	// Each shard takes its per-device share (+1 so none rounds to zero).
	chunks = chunks/len(r.shards) + 1
	r.leaves = make(map[leafKey]device.Batch)
	r.driving = make([][]device.Batch, len(r.a.DrivingParts))
	for i := range r.shards {
		sh := &r.shards[i]
		if sh.outcome != ok {
			continue
		}
		err := r.runShard(sh, &device.Command{Plan: r.p, SplitAfter: sh.plan.Split, Snapshot: snap, Chunks: chunks})
		if err == nil {
			continue
		}
		if !fault.Injected(err) {
			return err
		}
		r.demote(sh, crashed)
		sh.rows, sh.batches = 0, 0
	}
	return nil
}

// runShard is one shard's device side: the NDP invocation, then — under H0 —
// its partitions of every leaf selection, then its driving partitions in
// ascending key order.
func (r *run) runShard(sh *shard, cmd *device.Command) error {
	x, id := r.x, sh.plan.Device
	d := device.New(x.Model, x.Cat)
	d.BatchSize = x.BatchSize
	d.Scratch = r.lease.Scratch()
	d.Trace = r.tr
	d.Metrics = x.Metrics
	if fp := x.Faults.ForDevice(id); fp.Enabled() {
		// Per-device fault stream: the run key folds in the device id so one
		// sick device's episode never perturbs its siblings'.
		sh.inj = fp.Injector(r.p.Query.Name + "|" + r.a.Mode + "|dev" + strconv.Itoa(id)).Bind(x.Metrics)
		d.Faults = sh.inj
	}
	sh.dev = d
	// The host issues the fleet's commands back to back; each device's
	// timeline starts when its own command arrived.
	eng, err := d.Launch(cmd, sh.plan.Mem, r.hostTL)
	if err != nil {
		return err
	}
	dpl, err := eng.StartPipeline(r.p)
	if err != nil {
		return err
	}
	if r.a.Mode == ModeH0 {
		for si, st := range r.p.Steps {
			for pi, part := range x.Desc.Parts[st.Right.Ref.Table] {
				if part.Device != id {
					continue
				}
				b, err := d.ScanLeafPartition(st.Right, eng, part.Lo, part.Hi)
				if err != nil {
					return err
				}
				r.leaves[leafKey{si, pi}] = b
				sh.rows += int64(b.Cols.Len())
				sh.batches++
			}
		}
	}
	for pi, part := range r.a.DrivingParts {
		if part.Device != id {
			continue
		}
		err := d.RunShard(cmd, dpl, eng, part.Lo, part.Hi, func(b device.Batch) error {
			r.driving[pi] = append(r.driving[pi], b)
			sh.rows += int64(len(b.Tuples))
			sh.batches++
			return nil
		})
		if err != nil {
			return err
		}
	}
	d.RecordCache(eng)
	return nil
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
		if !x.Budget.Allow() {
			x.Metrics.Counter("fleet.hedge.budget_denied").Inc()
			continue
		}
		r.rep.HedgesFired++
		x.Metrics.Counter("fleet.hedge.fired").Inc()
		if thr+sh.plan.EstHostNs < float64(elapsed) {
			sh.backupAt = vclock.Time(thr)
			r.demote(sh, hedgedOut)
		} else {
			r.rep.HedgesLost++
			x.Metrics.Counter("fleet.hedge.lost").Inc()
		}
	}
}

// hedgeThreshold derives the virtual-time hedge launch threshold for this
// run: Mult × the Quantile of the launched shards' device estimates, rescaled
// by the scheduler's learned device-calibration factor when wired. Anchoring
// on the shard population's own estimates (rather than a fixed duration)
// makes the threshold scale-free: a query whose shards are all expensive
// hedges late, a cheap query's straggler is caught early. Returns 0 (hedging
// off) when disabled or no shard is on its device.
func (r *run) hedgeThreshold() float64 {
	h := r.x.Hedge
	if !h.Enabled {
		return 0
	}
	var ests []float64
	for i := range r.shards {
		if sh := &r.shards[i]; sh.outcome == ok {
			ests = append(ests, sh.plan.EstDevNs)
		}
	}
	if len(ests) == 0 {
		return 0
	}
	sort.Float64s(ests)
	q := h.Quantile
	if q <= 0 || q > 1 {
		q = 0.5
	}
	idx := int(q*float64(len(ests)-1) + 0.5)
	mult := h.Mult
	if mult <= 0 {
		mult = 3
	}
	scale := 1.0
	if h.Scale != nil {
		if s := h.Scale(); s > 0 {
			scale = s
		}
	}
	return mult * scale * ests[idx]
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
		if hf := r.shards[part.Device].hostFrom(); hf < from {
			from = hf
		}
	}
	for si := from; si < len(r.p.Steps); si++ {
		if r.p.Steps[si].Type != exec.BNLI {
			if _, err := r.host.BuildInner(r.pl, si); err != nil {
				return err
			}
		}
	}
	return nil
}

// gather merges in plan order — every leaf partition of every step first
// (H0), then every driving partition — in ascending partition order
// regardless of which device produced what, so the merged tuple stream
// reconstructs the single-device order exactly.
func (r *run) gather() error {
	if r.a.Mode == ModeH0 {
		for si, st := range r.p.Steps {
			for pi, part := range r.x.Desc.Parts[st.Right.Ref.Table] {
				if err := r.gatherLeaf(si, pi, st.Right, part); err != nil {
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

// fetch moves one device batch to the host — wait for it, cross the
// interconnect — and verifies a sealed payload (drawing the in-transfer
// corruption first; unsealed batches of fault-free runs skip everything). A
// batch that fails its checksum demotes the whole shard, and fetch reports
// false.
func (r *run) fetch(sh *shard, b device.Batch) bool {
	cat := hw.CatWaitFetch
	if r.rep.Batches == 0 {
		cat = hw.CatWaitInitial
	}
	r.hostTL.WaitUntil(b.Ready, cat)
	r.hostR.Transfer(r.hostTL, num.MaxI64(b.Bytes, 64), r.x.Model.SharedBufferSlot)
	r.rep.TransferredBytes += b.Bytes
	r.rep.Batches++
	if b.Sum == 0 {
		return true
	}
	if sh.inj.TransferCorrupt() {
		b.CorruptInTransfer()
	}
	if b.Verify() != nil {
		r.demote(sh, corrupt)
		return false
	}
	return true
}

// joinFrom runs driving tuples through the host's join steps [from, n).
func (r *run) joinFrom(from int, batch []exec.Tuple) ([]exec.Tuple, error) {
	for si := from; si < len(r.p.Steps); si++ {
		var err error
		if batch, err = r.host.JoinStep(r.pl, si, batch); err != nil {
			return nil, err
		}
	}
	return batch, nil
}

func (r *run) gatherLeaf(si, pi int, ap exec.AccessPath, part Partition) error {
	sh := &r.shards[part.Device]
	if sh.outcome == ok {
		if b := r.leaves[leafKey{si, pi}]; r.fetch(sh, b) {
			return r.host.AppendInnerCols(r.pl, si, b.Cols)
		}
	}
	return r.rerunLeaf(sh, si, ap, part)
}

func (r *run) gatherDriving(pi int, part Partition) error {
	sh := &r.shards[part.Device]
	if sh.outcome == ok {
		// Merge the shard's device batches. A corrupt batch abandons the
		// partition's merged rows and falls through to the host path, so the
		// final stream carries each partition exactly once.
		hostFrom := sh.hostFrom()
		var merged []exec.Tuple
		for _, b := range r.driving[pi] {
			if !r.fetch(sh, b) {
				break
			}
			out, err := r.joinFrom(hostFrom, b.Tuples)
			if err != nil {
				return err
			}
			merged = append(merged, out...)
		}
		if sh.outcome == ok {
			r.tuples = append(r.tuples, merged...)
			return nil
		}
	}
	return r.rerunDriving(sh, pi, part)
}

// rerunLeaf scans one leaf partition host-side at its merge position — where
// every non-ok outcome of the owning shard leads.
func (r *run) rerunLeaf(sh *shard, si int, ap exec.AccessPath, part Partition) error {
	r.hostTL.WaitUntil(sh.backupAt, hw.CatHedgeWait)
	cb, _, err := r.host.ScanCols(ap, part.Lo, part.Hi)
	if err != nil {
		return err
	}
	return r.host.AppendInnerCols(r.pl, si, cb)
}

// rerunDriving executes one driving partition entirely host-side at its merge
// position, preserving the global order — where every non-ok outcome of the
// owning shard leads. The outcome names the span that makes the takeover
// visible; a hedged-out shard's backup is floored at its hedge launch
// instant.
func (r *run) rerunDriving(sh *shard, pi int, part Partition) error {
	var sp *obs.Span
	if name := outcomes[sh.outcome].span; name != "" {
		sp = r.tr.Start(r.hostTL, name).AttrInt("device", int64(part.Device)).AttrInt("partition", int64(pi))
	}
	defer sp.End()
	r.hostTL.WaitUntil(sh.backupAt, hw.CatHedgeWait)
	rows, _, err := r.host.ScanAccess(r.p.Driving, part.Lo, part.Hi)
	if err != nil {
		return err
	}
	switch sh.outcome {
	case hostPlanned, denied, crashed:
		// No device output counted for this shard: its rows are the host's.
		sh.rows += int64(len(rows))
	}
	out, err := r.joinFrom(0, r.pl.MakeTuples(rows))
	if err != nil {
		return err
	}
	r.tuples = append(r.tuples, out...)
	return nil
}

// report closes the run's books: the host timeline's completion and one
// ShardReport per device, with the report counts read off the outcomes.
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
		sr := ShardReport{Device: dev, Split: sh.plan.Split, Frac: sh.plan.Frac, Reason: sh.plan.Reason,
			Rows: sh.rows, Batches: sh.batches}
		switch sh.outcome {
		case denied:
			sr.Degraded = true
			rep.DegradedShards++
		case crashed:
			sr.Crashed = true
			rep.CrashedShards++
		case corrupt:
			rep.CorruptBatches++
		case pastDeadline:
			sr.Hedged = true
			rep.DeadlineDegraded++
		case hedgedOut:
			sr.Hedged = true
			rep.HedgesWon++
		}
		for _, part := range r.a.DrivingParts {
			if part.Device == dev {
				sr.Partitions++
			}
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
