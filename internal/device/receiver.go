package device

import (
	"fmt"

	"hybridndp/internal/exec"
	"hybridndp/internal/fault"
	"hybridndp/internal/hw"
	"hybridndp/internal/lsm"
	"hybridndp/internal/obs"
	"hybridndp/internal/vclock"
)

// HostEngine builds a host-side engine on tl with a cold block cache (the
// model's fraction of the stored dataset, kept by the engine's scratch), so
// strategy comparisons are order-independent, and per-run Bloom-filter stats
// when a metrics registry is bound.
func (b *Bindings) HostEngine(tl *vclock.Timeline, rates hw.Rates) *exec.Engine {
	sc := b.Lease.Scratch()
	eng := &exec.Engine{Cat: b.Cat, TL: tl, R: rates, Scratch: sc,
		Cache: sc.BlockCache(b.Cat.DB().BlockCacheBytes(b.Model.HostCacheFraction))}
	if b.Metrics != nil {
		eng.Bloom = &lsm.BloomStats{}
	}
	return eng
}

// Receiver is the host half of the hand-off, shared by the cooperative and
// the fleet drivers: it owns a run's host engine and the pipeline the host
// finishes the plan on, fetches each device batch, and installs it as an
// inner side or pushes it through the host's join steps onto the gather list.
// The device owns the inner state of the join steps it runs, the host the
// rest.
type Receiver struct {
	Eng *exec.Engine
	Pl  *exec.Pipeline
	// Tuples is the gather list, in the pipeline's scratch.
	Tuples []exec.Tuple
	// Batches and Bytes count the batches fetched and their payload bytes.
	Batches int
	Bytes   int64

	tr     *obs.Trace
	slot   int64
	gather func([]exec.Tuple) error // appends a piece to Tuples
}

// Receiver starts the host side of the run's hand-off on tl: a host engine
// and its pipeline over p, fetching in shared-buffer-slot blocks.
func (b *Bindings) Receiver(tl *vclock.Timeline, p *exec.Plan) (*Receiver, error) {
	eng := b.HostEngine(tl, hw.HostRates(*b.Model))
	pl, err := eng.StartPipeline(p)
	if err != nil {
		return nil, err
	}
	r := &Receiver{Eng: eng, Pl: pl, tr: b.Trace, slot: b.Model.SharedBufferSlot}
	r.gather = func(tuples []exec.Tuple) error {
		r.Tuples = pl.AppendTuples(r.Tuples, tuples...)
		return nil
	}
	return r, nil
}

// Prebuild builds the hash tables of the host-side buffered joins among
// steps [from, n), overlapping the device's initial execution.
func (r *Receiver) Prebuild(from int) error {
	steps := r.Pl.Plan.Steps
	for si := from; si < len(steps); si++ {
		if steps[si].Type == exec.BNLI {
			continue
		}
		bsp := r.tr.Start(r.Eng.TL, "host.build.inner").
			Attr("alias", steps[si].Right.Ref.Alias).AttrInt("step", int64(si))
		_, err := r.Eng.BuildInner(r.Pl, si)
		bsp.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// Receive fetches one device batch and finishes it on the host: wait for it
// (the initial wait on the run's first batch, a fetch wait afterwards), cross
// the interconnect, and verify a sealed payload after drawing inj's
// in-transfer corruption. A leaf batch then becomes its table's inner side; a
// driving batch runs through join steps [from, n) onto the gather list. It
// returns when the fetch completed — when the batch's shared-buffer slot was
// free again — and a checksum failure as an error wrapping ErrCorruptBatch.
func (r *Receiver) Receive(b Batch, inj *fault.Injector, from int) (vclock.Time, error) {
	tl := r.Eng.TL
	idx := int64(r.Batches)
	cat, spName := hw.CatWaitFetch, "host.wait.fetch"
	if idx == 0 {
		cat, spName = hw.CatWaitInitial, "host.wait.initial"
	}
	wsp := r.tr.Start(tl, spName).AttrInt("batch", idx)
	stall := tl.WaitUntil(b.Ready, cat)
	wsp.Attr("stall", stall.String()).End()
	tsp := r.tr.Start(tl, "host.fetch").AttrInt("batch", idx).AttrInt("bytes", b.Bytes)
	r.Eng.R.Transfer(tl, max(b.Bytes, 64), r.slot)
	tsp.End()
	fetched := tl.Now()
	r.Bytes += b.Bytes
	r.Batches++
	if b.Sum != 0 {
		// Sealed batch (fault injection active): corrupt in transit per the
		// plan, then verify the checksum host-side.
		if inj.TransferCorrupt() {
			b.CorruptInTransfer()
		}
		if err := b.Verify(); err != nil {
			return fetched, fmt.Errorf("batch %d: %w", idx, err)
		}
	}

	psp := r.tr.Start(tl, "host.process.batch").AttrInt("batch", idx)
	if b.LeafAlias != "" {
		psp.Attr("leaf", b.LeafAlias)
		for si, st := range r.Pl.Plan.Steps {
			if st.Right.Ref.Alias == b.LeafAlias {
				r.Eng.AppendInner(r.Pl, si, b.Leaf)
				break
			}
		}
	} else if err := r.Join(from, b.Tuples); err != nil {
		psp.End()
		return fetched, err
	}
	psp.AttrInt("rows", int64(b.Rows())).End()
	return fetched, nil
}

// Join streams driving tuples through the host's join steps [from, n) and
// appends the survivors to the gather list.
func (r *Receiver) Join(from int, batch []exec.Tuple) error {
	return r.Eng.Stream(r.Pl, from, batch, r.tr, r.gather)
}

// Finalize finishes the plan over the gather list (projection, grouping,
// aggregation).
func (r *Receiver) Finalize() (*exec.Result, error) {
	fsp := r.tr.Start(r.Eng.TL, "host.finalize").AttrInt("rows", int64(len(r.Tuples)))
	defer fsp.End()
	return r.Eng.Finalize(r.Pl, r.Tuples)
}
